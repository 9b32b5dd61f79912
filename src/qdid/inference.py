"""Exchangeable bootstrap, sup-norm test of zero effect, and uniform bands.

Resampling draws one nonnegative exchangeable weight vector per sample arm
(multinomial counts by default, i.e. the empirical bootstrap) and re-runs
the full estimator with those weights threaded through every ECDF. The
critical value for the sup test is the empirical (1-alpha) quantile of the
recentered bootstrap sup process; the same value gives a simultaneous
confidence band of constant half-width around the estimated process.
The point estimate is the draw whose weights are all 1, computed by the same
kernel as the draws.

A cell's draws are taken in blocks of K, K set by its largest arm
(``BLOCK_ELEMENTS``), and block j is drawn from a substream keyed by (seed,
cell index, j), or (seed, rep, cell index, j) in an mc run: one numpy
``integers`` or ``standard_exponential`` call per arm, in sorted arm order,
gives its K weight vectors, and draw b is row b mod K of block b // K. So
results are reproducible and do not depend on evaluation order. Every
bootstrap, of a cell, of an mc rep, of the unconditional mixture or of a
round of ``qdid estimate``, runs one draw loop, ``bootstrap_block``, the one
function that takes a range of draw indices and builds the draw keys: it
checks that the range is contiguous and below B, and writes draw b to row b
of its arrays. It takes its draws in chunks: the weight vectors of a run of
draws are stacked into one matrix per arm, at most ``CHUNK_ELEMENTS``
entries for the walked cells' largest arms together, and each cell is refit
under every row at once (``estimators._cell_rows``); the cell's estimators
and the mixture share that fit. The loop keeps the last block it drew for
the next chunk, so chunks that start inside a block or span blocks draw each
block once; a draw range that starts inside a block draws that block and
drops its head.

A run's bootstrap is split by ``_parallel`` into one contiguous range of
draw indices (``qdid estimate``) or rep indices (``qdid mc``) per worker
process, forked with ``os.fork``, one per CPU the process may run on. Each
worker runs one callable over its range and sends its result back over a
pipe of its own, and no process pool module is loaded. ``qdid estimate``
runs in rounds. In each, every range is one pass (``bootstrap_block``) that
writes the draws of as many viable cells as fit ``STORE_ELEMENTS``, at
least one, into arrays of shared memory (``_draw_stores``) that the parent
makes before it forks; the parent then builds those cells' reports from the
arrays. The first round of a run with the unconditional analysis also walks
every viable cell for the mixture. Every draw is keyed order-free, so
outputs do not depend on the number of workers. With one CPU, or where the
process cannot fork or read its CPU set, the one range runs in process.
"""

from __future__ import annotations

import math
import operator
import os
import pickle
import sys
from dataclasses import dataclass

import numpy as np

from .empirical import SortedSample, StepRows, _mixture_probs, _row_bincount
# counterfactual_cdf_panel/_rcs are unused here; bench/tracer.py rebinds them by this path
from .estimators import (
    Cell,
    CqttProcess,
    check_nonempty,
    checked_grid,
    counterfactual_cdf_panel,  # noqa: F401
    counterfactual_cdf_rcs,  # noqa: F401
    _cell_rows,
    counterfactual_rows,
    estimate_process,
    treated_shares,
)

__all__ = [
    "BootstrapConfig",
    "KsTestResult",
    "InferenceReport",
    "substream",
    "bootstrap_process",
    "bootstrap_unconditional",
    "unconditional_process",
    "ks_test",
    "uniform_band",
    "pointwise_se",
    "empirical_quantile",
    "analyze_cell",
    "analyze_unconditional",
]

SCHEMES = ("multinomial", "dirichlet")

# The most draws a bootstrap may take, an input check on --bootstrap that
# bounds a run's size. The draw stream needs no bound: a substream key may
# hold any non-negative integer.
MAX_ITERATIONS = 2**32 - 1

# Entries in one block of a cell's weight rows for its largest arm: draw b is
# row b mod K of block b // K, K = max(1, BLOCK_ELEMENTS // largest arm), and
# each block comes from a substream of its own (see _weight_rows). This is
# part of the draw stream: changing it changes every band. It does not follow
# CHUNK_ELEMENTS, so chunking and the worker count change no draw. At 2048, a
# cell of 250 units per arm has blocks of 8 draws, the chunk of the one pass
# over 8 such cells, so the block a walk keeps holds no more rows than a chunk.
BLOCK_ELEMENTS = 2048

# Entries in one chunk's weight matrix for the largest arm (for all cells'
# largest arms together in a bootstrap_block); sets the draws per chunk.
# Larger chunks spread numpy's per-call cost over more draws but hold more
# memory at once. Measured in BENCH_one_pass.json ("chunk_budget",
# "attribution"): a bootstrap_block over 8 cells of 250 units per arm gains
# little at 8192 (4 draws per chunk); at 16384 (8 draws) it ran 12% faster
# than separate per-cell and unconditional passes at the same budget, and
# one cell of 200 units per arm (mc) holds about 1.2 MB more than at 8192.
CHUNK_ELEMENTS = 16384

# Entries (8 bytes each) of the shared arrays one round of qdid estimate may
# hold: the draws of as many cells as fit, at least one, and in the first
# round of a run with the unconditional analysis the mixture's draws (see
# _draw_stores). Those draws stay in memory until the parent has read them,
# each worker holding the part its range writes, so this caps what a round
# adds to a run's memory; 2**20 (8 MiB) holds the mixture and 8 cells, two
# estimators, B = 500 and 91 grid points (6.2 MB).
STORE_ELEMENTS = 2**20


def check_whole(name: str, value) -> None:
    """Refuse a count or seed that ``operator.index`` does not take, such as 2.5 or 2.0."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be a whole number, not {value!r}") from None


@dataclass(frozen=True)
class BootstrapConfig:
    iterations: int = 1000
    alpha: float = 0.05
    seed: int = 0
    scheme: str = "multinomial"

    def __post_init__(self):
        check_whole("iterations", self.iterations)
        if not 1 <= self.iterations <= MAX_ITERATIONS:
            raise ValueError(f"iterations must lie in [1, {MAX_ITERATIONS}]")
        check_test_settings(self.alpha, self.seed, self.scheme)


def check_test_settings(alpha: float, seed: int, scheme: str) -> None:
    """Refuse a test level, seed or weight scheme out of range, naming it."""
    check_whole("seed", seed)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a (seed, key...) address; order-free reproducibility.

    The bootstrap draws the weights of block j of a cell's draws from
    ``substream(seed, *key, j)`` (see ``_weight_rows``).
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def _draw_block(
    arm_sizes: dict[str, int], scheme: str, rng: np.random.Generator, rows: int
) -> dict[str, np.ndarray]:
    """``rows`` exchangeable weight vectors per arm, one generator call per arm in
    sorted-name order, each row finished on its own: the counts of (rows, n)
    category indices (multinomial), which sum to n, or (rows, n) standard
    exponentials (a flat Dirichlet's gamma(1) variates) over their sequential
    total, as numpy's ``dirichlet`` divides, times n, so the mean weight is 1."""

    def draw(n: int) -> np.ndarray:
        if scheme == "multinomial":
            return _row_bincount(rng.integers(0, n, size=(rows, n)), None, n).astype(float)
        if scheme == "dirichlet":
            raw = rng.standard_exponential((rows, n))
            return raw * (1.0 / np.add.accumulate(raw, axis=1)[:, -1:]) * n
        raise ValueError(f"scheme must be one of {SCHEMES}")

    return {arm: draw(arm_sizes[arm]) for arm in sorted(arm_sizes)}


def draw_weights(
    arm_sizes: dict[str, int], scheme: str, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """A block of one row from ``_draw_block``; kept while bench/tracer.py rebinds it."""
    if any(n < 1 for n in arm_sizes.values()):
        raise ValueError("arm size must be >= 1")
    return {arm: rows[0] for arm, rows in _draw_block(arm_sizes, scheme, rng, 1).items()}


def _weight_rows(
    arm_sizes: dict[str, int], config: BootstrapConfig, key: tuple[int, ...], draws: range,
    step: int,
):
    """The weight rows of ``draws``, ``step`` draws at a time: yields, per
    chunk, one (len(chunk), n_arm) matrix per arm, in sorted-name order.

    Draw b is row b mod K of block j = b // K, whose K rows per arm come
    from one ``_draw_block`` of ``substream(config.seed, *key, j)``, K =
    max(1, BLOCK_ELEMENTS // the largest arm). The last block drawn is kept
    for the next chunk, so a walk draws each block it touches once, and a
    draw's weights depend neither on ``step`` nor on where ``draws`` starts.
    """
    size = max(1, BLOCK_ELEMENTS // max(arm_sizes.values()))
    block = rows = None
    for start in range(draws.start, draws.stop, step):
        stop = min(start + step, draws.stop)
        parts = []
        for j in range(start // size, (stop - 1) // size + 1):
            if j != block:
                block = j
                rows = _draw_block(arm_sizes, config.scheme, substream(config.seed, *key, j), size)
            parts.append([r[max(0, start - j * size) : stop - j * size] for r in rows.values()])
        yield {arm: np.concatenate(chunk) for arm, chunk in zip(rows, zip(*parts))}


def bootstrap_process(
    cell: Cell,
    tau_grid,
    config: BootstrapConfig,
    estimator: str | tuple[str, ...] = "ddid",
    cell_index: int = 0,
    key_prefix: tuple[int, ...] = (),
) -> np.ndarray | dict[str, np.ndarray]:
    """B bootstrap replicates of the effect process; shape (B, len(grid)).

    Draw b is row b mod K of the block of draws keyed (*key_prefix,
    cell_index, b // K) under config.seed (see ``bootstrap_block``), so
    replicates are reproducible regardless of evaluation order and distinct
    cells never share draws. Given a tuple of
    estimators, returns a dict of replicates per estimator, all computed
    from the same draws.
    """
    names = (estimator,) if isinstance(estimator, str) else tuple(estimator)
    taus = checked_grid(tau_grid)
    draws = np.empty((len(names), config.iterations, taus.size))
    bootstrap_block([(cell_index, cell)], taus, config, names, [draws], None,
                    range(config.iterations), key_prefix)
    return draws[0] if isinstance(estimator, str) else dict(zip(names, draws))


def _order_index(n: int, q: float) -> int:
    """Index, in a sorted sample of n values, of its generalized-inverse q quantile."""
    if not 0.0 < q <= 1.0:
        raise ValueError("quantile level must lie in (0, 1]")
    return int(np.searchsorted(np.arange(1, n + 1) / n, q, side="left"))


def empirical_quantile(sample, q: float) -> float | np.ndarray:
    """Generalized-inverse sample quantile inf{v : F_n(v) >= q}, q in (0, 1]:
    a float for a 1-d sample, an array of one per column for a 2-d one."""
    sample = np.sort(np.asarray(sample, dtype=float), axis=0)
    value = sample[_order_index(len(sample), q)]
    return float(value) if sample.ndim == 1 else value


@dataclass(frozen=True)
class KsTestResult:
    statistic: float
    critical_value: float
    reject: bool
    band_half_width: float


def ks_test(
    values, draws: np.ndarray, n_total: int, alpha: float
) -> KsTestResult:
    """Sup-norm test of zero effect across the whole grid.

    statistic = sqrt(n) * max_tau |effect(tau)|; the critical value is the
    empirical (1-alpha) quantile of sqrt(n) * max_tau |draw - effect| over
    bootstrap draws. The reject decision is evaluated against the band
    half-width (critical value / sqrt(n)) so that rejecting is exactly
    equivalent to zero escaping the uniform band at some grid point.
    """
    values = np.asarray(values, dtype=float)
    root_n = math.sqrt(n_total)
    stat_raw = float(np.max(np.abs(values)))
    sups = np.max(np.abs(draws - values), axis=1)
    crit_raw = empirical_quantile(sups, 1.0 - alpha)
    critical_value = root_n * crit_raw
    half_width = critical_value / root_n
    return KsTestResult(
        statistic=root_n * stat_raw,
        critical_value=critical_value,
        reject=stat_raw > half_width,
        band_half_width=half_width,
    )


def uniform_band(values, critical_value: float, n_total: int):
    """Simultaneous band: constant half-width critical_value/sqrt(n) around the process."""
    if critical_value < 0:
        raise ValueError("critical value must be non-negative")
    values = np.asarray(values, dtype=float)
    half = critical_value / math.sqrt(n_total)
    return values - half, values + half


def _check_draw_count(count: int) -> None:
    if count < 2:
        raise ValueError("need at least two bootstrap draws")


def pointwise_se(draws: np.ndarray) -> np.ndarray:
    """Bootstrap standard error at each grid point (sample sd over draws)."""
    draws = np.asarray(draws, dtype=float)
    _check_draw_count(draws.shape[0])
    return np.std(draws, axis=0, ddof=1)


@dataclass(frozen=True)
class InferenceReport:
    """Uniform inference for one effect process (one cell, one estimator)."""

    process: CqttProcess
    ks_statistic: float
    critical_value: float
    reject: bool
    lower: np.ndarray
    upper: np.ndarray
    pointwise_se: np.ndarray
    iterations: int
    alpha: float
    seed: int
    scheme: str


def _assemble_report(process, draws, config) -> InferenceReport:
    ks = ks_test(process.values, draws, process.n_total, config.alpha)
    lower, upper = uniform_band(process.values, ks.critical_value, process.n_total)
    return InferenceReport(
        process=process,
        ks_statistic=ks.statistic,
        critical_value=ks.critical_value,
        reject=ks.reject,
        lower=lower,
        upper=upper,
        pointwise_se=pointwise_se(draws),
        iterations=config.iterations,
        alpha=config.alpha,
        seed=config.seed,
        scheme=config.scheme,
    )


def analyze_cell(
    cell: Cell,
    tau_grid,
    config: BootstrapConfig,
    estimator: str | tuple[str, ...] = "ddid",
    n_total: int | None = None,
    cell_index: int = 0,
    draws=None,
) -> InferenceReport | dict[str, InferenceReport]:
    """Point process, bootstrap, sup test, band, and pointwise SEs for one cell.

    Given a tuple of estimators, returns a dict of reports per estimator,
    whose bootstraps share each draw's weights. ``draws`` holds the cell's
    replicates, one (B, grid) array per estimator in order, as
    ``bootstrap_process`` gives them; they are drawn here when not given.
    """
    _check_draw_count(config.iterations)
    names = (estimator,) if isinstance(estimator, str) else tuple(estimator)
    points = estimate_process(cell, tau_grid, names, None, n_total)
    if draws is None:
        replicates = bootstrap_process(cell, tau_grid, config, names, cell_index=cell_index)
        draws = [replicates[est] for est in names]
    reports = {est: _assemble_report(points[est], d, config) for est, d in zip(names, draws)}
    return reports[estimator] if isinstance(estimator, str) else reports


def _treated_layout(cells: list[Cell]) -> SortedSample:
    """The pooled supports of the cells' treated CDFs, which are refits of
    their treated post-period samples (the last sample) on fixed supports:
    their mixture is a refit of this sample, sorted once."""
    return SortedSample(np.concatenate([cell.samples[-1].support for cell in cells]))


def _mixture_rows(layout: SortedSample, taus, cdfs: list, shares) -> np.ndarray:
    """The unconditional process under a chunk of draws: row r mixes row r of
    each cell's (treated, counterfactual) CDFs in ``cdfs`` by the cells'
    treated shares; ``layout`` is the cells' ``_treated_layout``. One cell's
    treated CDF is its own mixture (a refit would change low bits)."""
    treated, counterfactual = zip(*cdfs)
    if len(treated) > 1:
        treated = [layout.fit_rows(_mixture_probs(treated, shares))]
    mixed = treated[0].quantile(taus)
    return mixed - StepRows.mixture(counterfactual, shares).quantile(taus)


def unconditional_process(
    cells: list[tuple[int, Cell]], tau_grid, n_total: int | None = None
) -> CqttProcess:
    """QTT on the whole treated population: the treated-share mixture of the
    cells' CDFs under weights of all ones."""
    if not cells:
        raise ValueError("need at least one viable cell")
    taus = checked_grid(tau_grid)
    members = [cell for _, cell in cells]
    cdfs = [counterfactual_rows(cell, cell.unit_weights()) for cell in members]
    values = _mixture_rows(_treated_layout(members), taus, cdfs, treated_shares(members))[0]
    n_control = sum(cell.n_control for cell in members)
    n_treated = sum(cell.n_treated for cell in members)
    if n_total is None:
        n_total = n_control + n_treated
    return CqttProcess(taus, values, (), n_control, n_treated, n_total)


def bootstrap_unconditional(
    cells: list[tuple[int, Cell]], tau_grid, config: BootstrapConfig
) -> np.ndarray:
    """Bootstrap replicates of the unconditional process; shape (B, len(grid)).

    Draw b takes, for the cell at index i, the weights of draw b of that
    cell's own bootstrap (its blocks are keyed (i, j)), and mixes the
    cells' treated and counterfactual CDFs by their treated shares.
    """
    taus = checked_grid(tau_grid)
    out = np.empty((config.iterations, taus.size))
    bootstrap_block(cells, taus, config, (), (), out, range(config.iterations))
    return out


def _draw_stores(cells: int, estimators: int, config: BootstrapConfig, grid_size: int,
                 mixture: bool):
    """Arrays of shared anonymous memory for a round's passes to write: with
    ``mixture``, one for the mixture's draws, (B, grid), else None; and one
    for each of the first cells, (estimators, B, grid), as many of the
    ``cells`` as fit STORE_ELEMENTS with the mixture's, and at least one.
    Made before a fork, they hold what the forked workers write for the
    parent to read; an array's memory is unmapped when its last view is
    dropped. Raises MemoryError or OSError when the memory cannot be had.
    """
    import mmap  # here: importing qdid does not load it

    def shared(*shape):
        return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), dtype=float).reshape(shape)

    size = config.iterations * grid_size
    kept = min(cells, max(1, (STORE_ELEMENTS - mixture * size) // (estimators * size)))
    return shared(config.iterations, grid_size) if mixture else None, [
        shared(estimators, config.iterations, grid_size) for _ in range(kept)
    ]


def bootstrap_block(
    cells: list[tuple[int, Cell]],
    tau_grid,
    config: BootstrapConfig,
    estimators: tuple[str, ...],
    stores: list[np.ndarray],
    mixture: np.ndarray | None,
    draws: range,
    key_prefix: tuple[int, ...] = (),
) -> None:
    """Every bootstrap's draw loop, the one place that takes a draw range and
    builds draw keys: ``draws``, contiguous and below B, a chunk at a time
    over the ``(index, cell)`` pairs, the blocks of a cell keyed (*key_prefix,
    index, j) (see ``_weight_rows``). A chunk fills at most CHUNK_ELEMENTS
    entries of a matrix as wide as the cells' largest arms put together; it
    draws and refits each cell's weights once, and from that fit writes the
    rows of ``estimators`` of the k-th cell into ``stores[k]`` (len(estimators),
    B, grid), for the first len(stores) cells, as ``bootstrap_process`` gives
    them, and, given ``mixture`` (B, grid), the rows of the cells' mixture, as
    ``bootstrap_unconditional`` gives them. Row b is draw b, so parts whose
    ranges cover range(B) fill the arrays in any order and any process.
    """
    if draws.step != 1 or not 0 <= draws.start <= draws.stop <= config.iterations:
        raise ValueError("draws must be a contiguous range of draw indices below B")
    if not cells:
        raise ValueError("need at least one viable cell")
    if mixture is None and len(cells) > 1:
        # One walk per stored cell: a chunk's rows are shared by the cells of a
        # walk, and a cell of 250 units per arm runs at 65 rows per chunk alone
        # but 8 in a walk over 8 cells: 58-60 against 68-74 us per draw on one
        # CPU, without and with ties (ROADMAP.md, Baseline, rows per chunk).
        for cell, store in zip(cells, stores):
            bootstrap_block([cell], tau_grid, config, estimators, [store], None, draws, key_prefix)
        return
    taus = checked_grid(tau_grid)
    members = [cell for _, cell in cells]
    for cell in members:
        check_nonempty(cell)
    if mixture is not None:
        layout, shares = _treated_layout(members), treated_shares(members)
    sizes = [((*key_prefix, index), cell.arm_sizes()) for index, cell in cells]
    step = max(1, CHUNK_ELEMENTS // sum(max(arms.values()) for _, arms in sizes))
    walks = zip(*(_weight_rows(arms, config, key, draws, step) for key, arms in sizes))
    for start, weights in zip(draws[::step], walks):
        rows = slice(start, min(start + step, draws.stop))
        cdfs = []
        for k, (cell, w) in enumerate(zip(members, weights)):
            names = estimators if k < len(stores) else ()
            pair, values = _cell_rows(cell, taus, w, names, mixture is not None)
            if mixture is not None:
                cdfs.append(pair)
            if names:
                stores[k][:, rows] = [values[est] for est in names]
        if mixture is not None:
            mixture[rows] = _mixture_rows(layout, taus, cdfs, shares)


def analyze_unconditional(
    cells: list[tuple[int, Cell]],
    tau_grid,
    config: BootstrapConfig,
    n_total: int,
    draws: np.ndarray | None = None,
) -> InferenceReport:
    """Uniform inference for the treated-share mixture across cells.

    ``cells`` pairs each cell with its index in the full deterministic cell
    list; per-cell weights reuse the same (seed, cell index, block) keying
    as the per-cell analyses. Every draw mixes the cells at the sample's
    treated shares, under either scheme, so the band leaves out the
    shares' estimation error. ``draws`` are the replicates of
    ``bootstrap_unconditional``, drawn here when not given.
    """
    _check_draw_count(config.iterations)
    if draws is None:
        draws = bootstrap_unconditional(cells, tau_grid, config)
    return _assemble_report(unconditional_process(cells, tau_grid, n_total), draws, config)


def _workers() -> int:
    """How many worker processes ``_parallel`` may use: one per CPU in this
    process's affinity mask, or 1 where it cannot fork or read the mask."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _split(n: int) -> list[range]:
    """range(n) in contiguous, nonempty runs, one per worker (fewer when n is
    smaller)."""
    parts = max(1, min(_workers(), n))
    return [range(n * k // parts, n * (k + 1) // parts) for k in range(parts)]


class _RemoteTraceback(Exception):
    """A worker's formatted traceback: the cause of the error it raised."""

    def __init__(self, tb: str):
        self.tb = tb

    def __str__(self) -> str:
        return f'\n"""\n{self.tb}"""'


def _work(run, part: range, send: int, parent: int) -> None:
    """A forked worker's whole life; it never returns.

    It writes one pickle to ``send``: of ``run(part)`` or, when that raises,
    of the error and its formatted traceback. Then it flushes standard
    output and error and leaves by ``os._exit``: no interpreter teardown,
    and nothing of the parent's stack runs.

    A busy worker would outlive a parent killed with SIGKILL, so it has the
    kernel kill it when the parent exits (PR_SET_PDEATHSIG, Linux), and
    exits at once if the parent exited before that took effect.
    """
    code = 1
    try:
        import ctypes
        import signal

        prctl = getattr(ctypes.CDLL(None), "prctl", None)
        if prctl is not None:
            prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
            prctl(1, signal.SIGKILL)  # 1 = PR_SET_PDEATHSIG
        if os.getppid() != parent:
            return
        try:
            payload = pickle.dumps((run(part), None), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # raised again in the parent
            import traceback

            text = traceback.format_exc()
            try:
                pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
            except Exception:
                exc = RuntimeError(traceback.format_exception_only(exc)[-1].strip())
            payload = pickle.dumps((None, (exc, text)), pickle.HIGHEST_PROTOCOL)
        with open(send, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except (OSError, ValueError):  # closed, or its reader is gone
                pass
        os._exit(code)


def _parallel(run, n: int) -> list:
    """``run(part)`` for each part of ``_split(n)``, in order: one
    contiguous range of range(n) per worker.

    With more than one part, each runs in a worker process forked here with
    ``os.fork``, which inherits ``run``: only results cross a pipe, so
    ``run`` may be any callable, a closure included. Fork copies only the
    calling thread, and qdid starts no thread. Each worker sends its result
    over a pipe of its own (``_work``), read here in part order. The first
    part to fail, in order, raises here with the worker's traceback as its
    cause, and a worker that exits without sending its result is a
    RuntimeError; every worker has exited, and every pipe is closed, when
    this returns or raises. With one part, it runs here.
    """
    parts = _split(n)
    if len(parts) < 2:
        return [run(part) for part in parts]
    for stream in (sys.stdout, sys.stderr):  # else each worker writes the buffer again
        stream.flush()
    parent = os.getpid()
    running = []  # [pid, read end of its result pipe], in part order
    try:
        for part in parts:
            reply, send = os.pipe()
            running.append([0, reply])
            try:
                pid = os.fork()
                if pid == 0:
                    _work(run, part, send, parent)
            finally:
                os.close(send)
            running[-1][0] = pid
        results = []
        while running:
            pid, reply = running[0]
            with open(reply, "rb") as pipe:
                running[0][1] = None
                payload = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            running.pop(0)
            if status != 0 or not payload:
                raise RuntimeError(
                    f"worker process {pid} exited with status {status} before sending its results"
                )
            result, error = pickle.loads(payload)
            if error is not None:
                raise error[0] from _RemoteTraceback(error[1])
            results.append(result)
        return results
    finally:
        if running:  # only when this call is failing
            import signal

            for pid, reply in running:
                if reply is not None:
                    os.close(reply)
                if pid:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
