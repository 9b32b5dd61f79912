"""Outside-in tracer: spans around calls into ``qdid``, without editing ``qdid``.

``install`` rebinds the names that caller modules look up at call time
(``qdid.cli.load_csv``, ``qdid.inference.substream``, the ``empirical``
class methods, ...) to wrappers that record a span -- name, start, end and
the index of the enclosing span -- and, for a few calls, facts read from the
arguments and results (substream keys, draw counts, cell counts). Spans stay
in memory until ``write_spans``. ``uninstall`` puts every original binding
back; ``restored`` checks that it did.

Span names follow the module that the caller reaches the function through,
which is where a later change would rebind or replace it.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from contextlib import contextmanager

# Only names that a metric in UNITS needs are wrapped: each wrapper adds a
# span per call. ``analyze_cell`` frames the per-cell work in the spans file;
# ``StepDistribution.cdf`` is wrapped so that ``rank_transform.self_s`` is
# the rank step's own time, without the CDF lookups it makes.

# (module, attribute, span name): module-level names looked up by callers.
FUNCTIONS = (
    ("qdid.cli", "load_csv", "cli.load_csv"),
    ("qdid.cli", "validate", "data_model.validate"),
    ("qdid.cli", "build_cells", "data_model.build_cells"),
    ("qdid.cli", "analyze_cell", "inference.analyze_cell"),
    ("qdid.cli", "analyze_unconditional", "inference.analyze_unconditional"),
    ("qdid.cli", "write_report", "cli.write_report"),
    ("qdid.cli", "run_mc", "simulation.run_mc"),
    ("qdid.cli", "simulate", "simulation.simulate"),
    ("qdid.cli", "substream", "inference.substream"),
    ("qdid.inference", "substream", "inference.substream"),
    ("qdid.inference", "draw_weights", "inference.draw_weights"),
    ("qdid.inference", "bootstrap_process", "inference.bootstrap_process"),
    ("qdid.inference", "estimate_process", "estimators.estimate_process"),
    ("qdid.inference", "ks_test", "inference.ks_test"),
    ("qdid.inference", "pointwise_se", "inference.pointwise_se"),
    ("qdid.inference", "counterfactual_cdf_panel", "estimators.counterfactual"),
    ("qdid.inference", "counterfactual_cdf_rcs", "estimators.counterfactual"),
    ("qdid.estimators", "counterfactual_cdf_panel", "estimators.counterfactual"),
    ("qdid.estimators", "counterfactual_cdf_rcs", "estimators.counterfactual"),
    ("qdid.estimators", "cic_qtt", "estimators.cic_qtt"),
    ("qdid.estimators", "rank_transform", "estimators.rank_transform"),
    ("qdid.simulation", "simulate", "simulation.simulate"),
    ("qdid.simulation", "substream", "inference.substream"),
    ("qdid.simulation", "draw_weights", "inference.draw_weights"),
    ("qdid.simulation", "estimate_process", "estimators.estimate_process"),
)

# (class, attribute, span name): methods reached through the class.
METHODS = (
    ("StepDistribution", "__init__", "empirical.StepDistribution.init"),
    ("StepDistribution", "fit", "empirical.StepDistribution.fit"),
    ("StepDistribution", "quantile", "empirical.quantile"),
    ("StepDistribution", "cdf", "empirical.cdf"),
    ("SortedSample", "fit", "empirical.SortedSample.fit"),
)

# Per-layer metrics a traced run reports: name -> unit. Time metrics named
# ``.s`` are inclusive wall time summed over the outermost calls of a span
# name; ``.self_s`` subtracts the time of traced calls made inside.
UNITS = {
    "cli.load_csv.s": "s",
    "cli.load_csv.rows_per_s": "1/s",
    "data_model.validate.s": "s",
    "data_model.build_cells.s": "s",
    "data_model.cells": "count",
    "data_model.viable_cells": "count",
    "cli.write_report.s": "s",
    "cli.write_report.bytes": "bytes",
    "empirical.StepDistribution.init.calls": "count",
    "empirical.StepDistribution.init.s": "s",
    "empirical.StepDistribution.fit.s": "s",
    "empirical.SortedSample.fit.calls": "count",
    "empirical.SortedSample.fit.s": "s",
    "empirical.SortedSample.fit.self_s": "s",
    "empirical.quantile.calls": "count",
    "empirical.quantile.s": "s",
    "estimators.rank_transform.s": "s",
    "estimators.rank_transform.self_s": "s",
    "estimators.counterfactual.s": "s",
    "estimators.cic_qtt.s": "s",
    "estimators.estimate_process.calls": "count",
    "estimators.ddid.us_per_draw": "us",
    "estimators.cic.us_per_draw": "us",
    "inference.substream.calls": "count",
    "inference.substream.s": "s",
    "inference.draw_weights.calls": "count",
    "inference.draw_weights.s": "s",
    "inference.bootstrap_process.s": "s",
    "inference.draws": "count",
    "inference.report.s": "s",
    "inference.analyze_unconditional.s": "s",
    "inference.substream.distinct_key_ratio": "ratio",
    "inference.counterfactual.useful_ratio": "ratio",
    "simulation.simulate.s": "s",
    "simulation.run_mc.s": "s",
    "simulation.bootstrap.us_per_draw": "us",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.coverage": "ratio",
    "trace.startup_s": "s",
}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Records spans and call facts for one process; not thread-safe."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self._stack = [-1]
        self._bindings: list[tuple] = []
        self.installed = False
        self.rows = 0
        self.cells = 0
        self.viable_cells = 0
        self.report_bytes = 0
        self.draws = 0
        self.substream_keys: set = set()
        self.counterfactuals_built = 0
        self.counterfactual_keys: set = set()
        self.draw_s = {"ddid": 0.0, "cic": 0.0}
        self.draw_calls = {"ddid": 0, "cic": 0}
        self.mc_bootstrap_s = 0.0
        self.mc_draws = 0
        self._rng_key: dict[int, tuple] = {}
        self._weights_key: dict[int, tuple] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str):
        """Span around a block of the caller's own code."""
        nid, spans, stack = self._name_id(name), self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1]
        stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = (nid, start, end, parent)

    def _wrap(self, func, name: str, observe):
        nid, spans, stack, clock = self._name_id(name), self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (nid, start, end, parent)
            if observe is not None:
                observe(args, kwargs, result, end - start)
            return result

        return traced

    def _observer(self, module: str, attr: str):
        in_mc = module == "qdid.simulation"
        if attr == "substream":
            return functools.partial(self._on_substream, in_mc)
        if attr == "draw_weights":
            return functools.partial(self._on_draw_weights, in_mc)
        if attr == "estimate_process":
            return functools.partial(self._on_estimate_process, in_mc)
        if attr.startswith("counterfactual_cdf_"):
            return self._on_counterfactual
        return {
            "load_csv": self._on_load_csv,
            "build_cells": self._on_build_cells,
            "write_report": self._on_write_report,
            "bootstrap_process": self._on_iterations,
            "analyze_unconditional": self._on_iterations,
            "run_mc": self._on_run_mc,
        }.get(attr)

    def install(self) -> None:
        """Rebind every traced name; call ``uninstall`` in a ``finally``."""
        if self._bindings:
            raise RuntimeError("a tracer installs once")
        import qdid.cli  # noqa: F401  (imports every traced module)
        from qdid import empirical

        for module, attr, name in FUNCTIONS:
            owner = sys.modules[module]
            original = getattr(owner, attr)
            self._bindings.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, self._observer(module, attr)))
        for cls_name, attr, name in METHODS:
            cls = getattr(empirical, cls_name)
            original = cls.__dict__[attr]
            self._bindings.append((cls, attr, original))
            if isinstance(original, classmethod):
                setattr(cls, attr, classmethod(self._wrap(original.__func__, name, None)))
            else:
                setattr(cls, attr, self._wrap(original, name, None))
        self.installed = True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self.installed = False

    def restored(self) -> bool:
        """True when every binding ``install`` replaced holds its original again."""
        return not self.installed and all(
            vars(owner)[attr] is original for owner, attr, original in self._bindings
        )

    # -- facts read from arguments and results ---------------------------

    def _on_substream(self, in_mc, args, kwargs, rng, seconds):
        key = tuple(args)
        self.substream_keys.add(key)
        self._rng_key[id(rng)] = key
        if in_mc and len(key) == 4:  # (seed, rep, 0, draw): a bootstrap draw of run_mc
            self.mc_draws += 1
            self.mc_bootstrap_s += seconds

    def _on_draw_weights(self, in_mc, args, kwargs, weights, seconds):
        self._weights_key[id(weights)] = self._rng_key.get(id(_arg(args, kwargs, 2, "rng")))
        if in_mc:
            self.mc_bootstrap_s += seconds

    def _on_estimate_process(self, in_mc, args, kwargs, process, seconds):
        if _arg(args, kwargs, 3, "weights") is None:
            return
        estimator = _arg(args, kwargs, 2, "estimator", "ddid")
        self.draw_s[estimator] += seconds
        self.draw_calls[estimator] += 1
        if in_mc:
            self.mc_bootstrap_s += seconds

    def _on_counterfactual(self, args, kwargs, result, seconds):
        weights = _arg(args, kwargs, 1, "weights")
        if weights is None:
            return
        self.counterfactuals_built += 1
        key = self._weights_key.get(id(weights))
        self.counterfactual_keys.add(key if key is not None else ("unkeyed", self.counterfactuals_built))

    def _on_load_csv(self, args, kwargs, dataset, seconds):
        self.rows += 2 * dataset.n_units if hasattr(dataset, "y_pre") else dataset.n_rows

    def _on_build_cells(self, args, kwargs, cells, seconds):
        self.cells += len(cells)
        self.viable_cells += sum(bool(c.viable) for c in cells)

    def _on_write_report(self, args, kwargs, paths, seconds):
        self.report_bytes += sum(os.path.getsize(p) for p in paths)

    def _on_iterations(self, args, kwargs, result, seconds):
        self.draws += _arg(args, kwargs, 2, "config").iterations

    def _on_run_mc(self, args, kwargs, result, seconds):
        self.draws += result.reps * result.bootstrap_iterations * len(result.estimators)

    # -- results ----------------------------------------------------------

    def metrics(self, window_s: float) -> dict[str, float]:
        """Per-layer metrics (without ``trace.overhead_s`` and
        ``trace.startup_s``, which need the untraced run and the parent).

        ``window_s`` is the traced process's time from its first statement
        to the end of the command; ``trace.coverage`` is the share of it
        that root spans account for.
        """
        import numpy as np

        if any(s is None for s in self.spans):
            raise RuntimeError("metrics taken while a span is open")
        n = len(self.spans)
        table = np.array(self.spans, dtype=float).reshape(n, 4)
        nid = table[:, 0].astype(int)
        dur = table[:, 2] - table[:, 1]
        parent = table[:, 3].astype(int)
        has_parent = parent >= 0
        child_s = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - child_s
        outer = self._outermost(nid, parent)
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        incl = np.bincount(nid, weights=dur * outer, minlength=k)
        excl = np.bincount(nid, weights=self_s, minlength=k)

        def get(name, table_):
            return float(table_[self._ids[name]]) if name in self._ids else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        m = {}
        for name, unit in UNITS.items():
            base, _, stat = name.rpartition(".")
            if stat == "s" and unit == "s":
                m[name] = get(base, incl)
            elif stat == "self_s":
                m[name] = get(base, excl)
            elif stat == "calls":
                m[name] = int(get(base, calls))
        load_s = get("cli.load_csv", incl)
        m["cli.load_csv.rows_per_s"] = ratio(self.rows, load_s)
        m["data_model.cells"] = self.cells
        m["data_model.viable_cells"] = self.viable_cells
        m["cli.write_report.bytes"] = self.report_bytes
        for est in ("ddid", "cic"):
            m[f"estimators.{est}.us_per_draw"] = 1e6 * ratio(self.draw_s[est], self.draw_calls[est])
        m["inference.draws"] = self.draws
        m["inference.report.s"] = get("inference.ks_test", incl) + get("inference.pointwise_se", incl)
        m["inference.substream.distinct_key_ratio"] = ratio(
            len(self.substream_keys), int(get("inference.substream", calls))
        )
        m["inference.counterfactual.useful_ratio"] = ratio(
            len(self.counterfactual_keys), self.counterfactuals_built
        )
        m["simulation.bootstrap.us_per_draw"] = 1e6 * ratio(self.mc_bootstrap_s, self.mc_draws)
        m["trace.spans"] = n
        m["trace.coverage"] = ratio(float(dur[~has_parent].sum()), window_s)
        return m

    @staticmethod
    def _outermost(nid, parent):
        """1.0 for spans with no enclosing span of the same name, else 0.0.

        Spans are stored in start order, so each span's parent is on the
        path of open spans when the span is reached.
        """
        import numpy as np

        out = np.ones(len(nid))
        path: list[int] = []
        open_names: dict[int, int] = {}
        names = nid.tolist()
        for i, up in enumerate(parent.tolist()):
            while path and path[-1] != up:
                open_names[names[path.pop()]] -= 1
            if open_names.get(names[i], 0):
                out[i] = 0.0
            path.append(i)
            open_names[names[i]] = open_names.get(names[i], 0) + 1
        return out

    def write_spans(self, path) -> None:
        """Write spans to an ``.npz`` file: the names table, then one array
        each of name index, start, end (``perf_counter`` seconds) and parent
        span index (-1 for a root)."""
        import numpy as np

        table = np.array(self.spans, dtype=float).reshape(len(self.spans), 4)
        np.savez(
            path,
            names=np.array(self.names),
            name=table[:, 0].astype(np.int32),
            start=table[:, 1],
            end=table[:, 2],
            parent=table[:, 3].astype(np.int64),
        )
