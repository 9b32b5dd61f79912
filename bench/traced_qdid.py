"""Run one ``qdid`` command in this process under the outside-in tracer.

    python bench/traced_qdid.py --metrics m.json --spans s.npz \
        --spawned-at <epoch seconds> -- estimate --input ... --out ...

Exits with the command's own exit code. ``m.json`` holds the per-layer
metrics and whether every rebound name was restored; ``s.npz`` holds the
spans. ``qdid`` must be importable (``PYTHONPATH=src``).
"""

import time

FIRST_PERF = time.perf_counter()
FIRST_EPOCH = time.time()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--metrics", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    tracer = Tracer()
    with tracer.span("import"):
        import qdid.cli
    tracer.install()
    try:
        with tracer.span("cli.main"):
            code = qdid.cli.main(argv)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(time.perf_counter() - FIRST_PERF)
    metrics["trace.startup_s"] = FIRST_EPOCH - args.spawned_at
    tracer.write_spans(args.spans)
    with open(args.metrics, "w", encoding="utf-8") as handle:
        json.dump({"metrics": metrics, "restored": tracer.restored()}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
