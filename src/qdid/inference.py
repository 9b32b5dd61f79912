"""Exchangeable bootstrap, sup-norm test of zero effect, and uniform bands.

Resampling draws one nonnegative exchangeable weight vector per sample arm
(multinomial counts by default, i.e. the empirical bootstrap) and re-runs
the full estimator with those weights threaded through every ECDF. The
critical value for the sup test is the empirical (1-alpha) quantile of the
recentered bootstrap sup process; the same value gives a simultaneous
confidence band of constant half-width around the estimated process.
The point estimate is the draw whose weights are all 1, computed by the same
kernel as the draws.

Every draw is generated from a substream keyed by (seed, cell index, draw
index), so results are reproducible and independent of evaluation order.
Every bootstrap walks its draws in chunks (``_chunk_weights``): the weight
vectors of a run of draws are stacked into one matrix per arm, at most
``CHUNK_ELEMENTS`` entries for the largest arms, and the batched kernel
``estimate_rows`` refits every row at once, sharing each draw's weights
between the estimators of a cell. A chunk's substreams are derived
together, in one vectorized pass of numpy's ``SeedSequence`` hash over its
draw indices, and each equals ``substream(seed, *key, b)`` bit for bit. A
multinomial draw then makes one call, for the raw words of its PCG64
generator, and each arm's category indices for the whole chunk come from
them in one step of Lemire's bounded-integer method, as numpy's
``integers`` draws them (``_multinomial_rows``); a draw in which numpy
would reject a word is drawn again, that row alone, by ``draw_weights``. A
Dirichlet draw makes one ``standard_exponential`` call for all its arms.
The chunk's weights are finished as one matrix per arm. Equality with
``draw_weights`` rests on numpy's buffered bounded-integer sampler, and
tests/test_weights.py holds it.

A run's analyses are independent tasks, evaluated by ``_parallel`` in
forked worker processes, one per CPU the process may run on. A viable
cell is one task, whose report is assembled inside it. With the
unconditional analysis, the mixture's draws are taken in blocks
(``bootstrap_block``), one contiguous draw range (``_split``) per worker
over every viable cell. A block draws each cell's weights and refits them
once per chunk, and from that one fit writes the mixture's rows, and the
rows of each cell whose draws fit ``STORE_ELEMENTS``, into arrays of shared
memory (``_draw_stores``) that the parent makes before it forks; those
cells get no task of their own, and the parent builds their reports from
the arrays. Monte Carlo reps run in contiguous blocks. Results are
gathered in task order, and since every draw is keyed order-free, outputs
do not depend on the number of workers. With one CPU, or where the process
cannot fork or read its CPU set, the tasks run in process, one after
another.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .empirical import MixtureLayout, StepRows, _row_bincount
# counterfactual_cdf_panel/_rcs are unused here; bench/tracer.py rebinds them by this path
from .estimators import (
    Cell,
    CqttProcess,
    checked_grid,
    counterfactual_cdf_panel,  # noqa: F401
    counterfactual_cdf_rcs,  # noqa: F401
    _counterfactual_rows,
    _estimates,
    _fit_rows,
    counterfactual_rows,
    estimate_process,
    estimate_rows,
    treated_shares,
)

__all__ = [
    "BootstrapConfig",
    "KsTestResult",
    "InferenceReport",
    "substream",
    "draw_weights",
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

# Draw indices are single 32-bit words of a substream's key (see _seed_words).
MAX_ITERATIONS = 2**32 - 1

# Entries in one chunk's weight matrix for the largest arm (for all cells'
# largest arms together in a block); sets the draws per chunk. Larger chunks
# spread numpy's per-call cost over more draws but hold more memory at once.
# Measured in BENCH_one_pass.json ("chunk_budget", "attribution"): a block
# over 8 cells of 250 units per arm gains little at 8192 (4 draws per
# chunk); at 16384 (8 draws) it ran 12% faster than separate per-cell and
# unconditional passes at the same budget, and one cell of 200 units per
# arm (mc) holds about 1.2 MB more than at 8192.
CHUNK_ELEMENTS = 16384

# Entries (8 bytes each) of the shared arrays a run with the unconditional
# analysis may hold: the mixture's draws, and the draws of as many cells as
# fit with them, which are then taken in the mixture's pass (see
# _draw_stores). Those draws stay in memory until the parent has read them,
# each worker holding the part its range writes, so this caps what the one
# pass adds to a run's memory; 2**20 (8 MiB) holds 8 cells, two estimators,
# B = 500 and 91 grid points (6.2 MB).
STORE_ELEMENTS = 2**20


@dataclass(frozen=True)
class BootstrapConfig:
    iterations: int = 1000
    alpha: float = 0.05
    seed: int = 0
    scheme: str = "multinomial"

    def __post_init__(self):
        if not 1 <= self.iterations <= MAX_ITERATIONS:
            raise ValueError(f"iterations must lie in [1, {MAX_ITERATIONS}]")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a (seed, key...) address; order-free reproducibility.

    The bootstrap derives a chunk's substreams together (``_seed_words``);
    each equals ``substream(seed, *key, b)`` bit for bit.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


# numpy's SeedSequence (numpy/random/bit_generator.pyx): a pool of four
# uint32 words, the hash constants of its entropy mix (A) and of
# generate_state (B), and the multipliers that mix a word into the pool.
# numpy keeps SeedSequence's output stable across versions, and
# tests/test_weights.py holds _seed_words equal to it.
_POOL = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**k`` mod 2**32 for k = 0..count, as uint32."""
    return np.array([init * pow(mult, k, 2**32) % 2**32 for k in range(count + 1)], np.uint32)


# generate_state(4, uint64) hashes the pool twice over, into 8 uint32 words
_STATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)


def _hashmix(words, constants) -> np.ndarray:
    """SeedSequence's hash of row k of ``words`` between hash constants k and k + 1."""
    out = (words ^ constants[:-1, None]) * constants[1:, None]
    return out ^ (out >> 16)


def _uint32_words(n: int) -> int:
    """How many uint32 words SeedSequence splits the entropy integer n into."""
    return max(1, -(-n.bit_length() // 32))


def _seed_words(seed: int, key: tuple[int, ...], draws: range) -> np.ndarray:
    """Row i is ``SeedSequence(seed, spawn_key=(*key, draws[i])).generate_state(4,
    np.uint64)``, the PCG64 seed of ``substream(seed, *key, draws[i])``.

    SeedSequence mixes its entropy words into the pool one by one, so the
    pool of (seed, *key) serves the whole chunk; each draw index, one word,
    is mixed in last and the state is hashed out, for all draws at once.
    Before that word, every word mixed so far (the seed's, zero-padded to
    the pool size because there is a spawn key, then the key's) has
    advanced the mix's hash constant once per pool word.
    """
    if not key or not 0 <= draws.start <= draws.stop <= MAX_ITERATIONS + 1:
        raise ValueError("need a key and draw indices below 2**32")
    pool = np.random.SeedSequence(seed, spawn_key=key).pool[:, None]
    mixed = max(_POOL, _uint32_words(seed)) + sum(map(_uint32_words, key))
    start = _INIT_A * pow(_MULT_A, _POOL * mixed, 2**32) % 2**32
    index = np.arange(draws.start, draws.stop, dtype=np.uint32)
    pool = _MIX_L * pool - _MIX_R * _hashmix(index, _hash_constants(start, _MULT_A, _POOL))
    pool ^= pool >> 16
    state = _hashmix(np.concatenate((pool, pool)), _STATE_CONSTANTS)
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64)


@functools.cache
def _seed_words_type() -> type:
    """A seed sequence type whose ``generate_state`` is one row of
    ``_seed_words``: ``PCG64`` asks it for exactly those 4 uint64 words.

    Built at the first draw, where ``substream`` also first loads
    ``numpy.random``: loaded when qdid is imported, it is held while a
    large CSV loads and adds about 4 MB to the run's peak memory.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


def _variates(n: int, scheme: str, rng: np.random.Generator) -> np.ndarray:
    """The raw draws behind one weight vector of an arm of size n: n
    category indices (multinomial), or n standard exponentials, which are
    numpy's gamma(1) variates of a flat Dirichlet."""
    if scheme == "multinomial":
        return rng.integers(0, n, size=n)
    if scheme == "dirichlet":
        return rng.standard_exponential(n)
    raise ValueError(f"scheme must be one of {SCHEMES}")


def _finish(raw: np.ndarray, scheme: str) -> np.ndarray:
    """Weight rows from (C, n) raw variates, row by row: the counts of the
    indices, or the exponentials over their sequential total (as numpy's
    ``dirichlet`` sums and divides), times n."""
    n = raw.shape[1]
    if scheme == "multinomial":
        return _row_bincount(raw, None, n).astype(float)
    total = np.add.accumulate(raw, axis=1)[:, -1:]
    return raw * (1.0 / total) * n


def draw_weights(
    arm_sizes: dict[str, int], scheme: str, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """One exchangeable nonnegative weight vector per arm, in sorted-name
    order: the one-row case of ``_weight_rows``. multinomial: resample counts,
    summing to n exactly; dirichlet: flat Dirichlet scaled by n, mean weight 1."""
    if any(n < 1 for n in arm_sizes.values()):
        raise ValueError("arm size must be >= 1")
    return {
        arm: _finish(_variates(arm_sizes[arm], scheme, rng)[None], scheme)[0]
        for arm in sorted(arm_sizes)
    }


def _bit_generator(words: np.ndarray) -> np.random.PCG64:
    """The bit generator of a draw's substream, from its row of ``_seed_words``."""
    return np.random.PCG64(_seed_words_type()(words))


def _multinomial_rows(arm_sizes: dict[str, int], words: np.ndarray) -> dict[str, np.ndarray]:
    """Per arm, the (C, n) multinomial weight rows of the draws seeded by the
    C rows of ``words``, equal to ``draw_weights`` from each draw's generator.

    numpy's ``integers(0, n, size=n)`` maps each 32-bit half u of PCG64's
    output, low half first, to the index ``(u * n) >> 32`` (Lemire's bounded
    integers), and keeps an odd half for its next call, the next arm's; an
    arm of one unit takes no half. So a draw's indices are the first h
    halves of ceil(h / 2) raw words, h the size of its arms of two units or
    more, read as one flat stream in sorted arm order. A half whose
    ``(u * n) mod 2**32`` is below ``2**32 mod n`` would have been rejected
    and redrawn, shifting the rest of the draw, so such a draw is drawn
    again by ``draw_weights``. This holds for numpy's buffered
    bounded-integer sampler, and tests/test_weights.py holds it.
    """
    arms = sorted(arm_sizes)
    drawn = sum(n for n in arm_sizes.values() if n > 1)
    raw = np.stack([_bit_generator(w).random_raw(-(-drawn // 2)) for w in words])
    halves = raw.astype("<u8", copy=False).view("<u4")
    redraw = np.zeros(len(words), dtype=bool)
    rows, start = {}, 0
    for arm in arms:
        n = arm_sizes[arm]
        if n == 1:
            rows[arm] = np.ones((len(words), 1))
            continue
        u = halves[:, start : start + n]
        start += n
        redraw |= np.multiply(u, n, dtype=np.uint32).min(axis=1) < 2**32 % n
        index = np.multiply(u, n, dtype=np.uint64)
        index >>= 32
        rows[arm] = _finish(index.view(np.int64), "multinomial")
    for i in np.flatnonzero(redraw):
        rng = np.random.Generator(_bit_generator(words[i]))
        again = draw_weights(arm_sizes, "multinomial", rng)
        for arm in arms:
            rows[arm][i] = again[arm]
    return {arm: rows[arm] for arm in arm_sizes}


def _dirichlet_rows(arm_sizes: dict[str, int], words: np.ndarray) -> dict[str, np.ndarray]:
    """Per arm, the (C, n) Dirichlet weight rows of the draws seeded by the C
    rows of ``words``: each draw takes its standard exponentials for all its
    arms in one call, split in sorted arm order, as ``_variates`` draws them
    arm by arm."""
    arms = sorted(arm_sizes)
    ends = np.cumsum([arm_sizes[arm] for arm in arms])
    raw = np.empty((len(words), ends[-1]))
    for w, row in zip(words, raw):
        np.random.Generator(_bit_generator(w)).standard_exponential(out=row)
    parts = dict(zip(arms, np.split(raw, ends[:-1], axis=1)))
    return {arm: _finish(parts[arm], "dirichlet") for arm in arm_sizes}


def _weight_rows(
    arm_sizes: dict[str, int], config: BootstrapConfig, key: tuple[int, ...], draws: range
) -> dict[str, np.ndarray]:
    """One (len(draws), n_arm) matrix per arm; row i is the weight vector of
    draw ``draws[i]``, equal to ``draw_weights(arm_sizes, config.scheme,
    substream(config.seed, *key, draws[i]))`` bit for bit."""
    rows = _multinomial_rows if config.scheme == "multinomial" else _dirichlet_rows
    return rows(arm_sizes, _seed_words(config.seed, key, draws))


def _chunk_weights(members: list, config: BootstrapConfig, draws: range):
    """``draws`` a chunk at a time: yields the chunk's rows within ``draws``, as
    a slice, and each ``(key, cell)`` member's ``_weight_rows`` for the chunk.
    A chunk fills at most CHUNK_ELEMENTS entries of a matrix as wide as the
    members' largest arms put together."""
    sizes = [(key, cell.arm_sizes()) for key, cell in members]
    step = max(1, CHUNK_ELEMENTS // sum(max(arms.values()) for _, arms in sizes))
    for start in range(0, len(draws), step):
        chunk = draws[start : start + step]
        weights = [_weight_rows(arms, config, key, chunk) for key, arms in sizes]
        yield slice(start, start + len(chunk)), weights


def bootstrap_process(
    cell: Cell,
    tau_grid,
    config: BootstrapConfig,
    estimator: str | tuple[str, ...] = "ddid",
    cell_index: int = 0,
    key_prefix: tuple[int, ...] = (),
) -> np.ndarray | dict[str, np.ndarray]:
    """B bootstrap replicates of the effect process; shape (B, len(grid)).

    Draw b uses the substream keyed (*key_prefix, cell_index, b) under
    config.seed, so replicates are reproducible regardless of evaluation
    order and distinct cells never share draws. Given a tuple of
    estimators, returns a dict of replicates per estimator, all computed
    from the same draws.
    """
    names = (estimator,) if isinstance(estimator, str) else tuple(estimator)
    taus = np.asarray(tau_grid, dtype=float)
    draws = {est: np.empty((config.iterations, taus.size)) for est in names}
    members = [((*key_prefix, cell_index), cell)]
    for rows, (weights,) in _chunk_weights(members, config, range(config.iterations)):
        for est, values in estimate_rows(cell, taus, weights, names).items():
            draws[est][rows] = values
    return draws[estimator] if isinstance(estimator, str) else draws


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


def _treated_layout(cells: list[Cell]) -> MixtureLayout:
    """The merged layout of the cells' treated CDFs, which are refits of
    their treated post-period samples (the last sample) on fixed supports."""
    return MixtureLayout([cell.samples[-1].support for cell in cells])


def _mixture_rows(layout: MixtureLayout, taus, cdfs: list, shares) -> np.ndarray:
    """The unconditional process under a chunk of draws: row r mixes row r of
    each cell's (treated, counterfactual) CDFs in ``cdfs`` by the cells'
    treated shares; ``layout`` is the cells' ``_treated_layout``."""
    treated, counterfactual = zip(*cdfs)
    mixed = layout.mixture(treated, shares).quantile(taus)
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
    cells: list[tuple[int, Cell]],
    tau_grid,
    config: BootstrapConfig,
    draws: range | None = None,
) -> np.ndarray:
    """Bootstrap replicates of the unconditional process: one row per draw
    index in ``draws`` (all B by default); shape (len(draws), len(grid)).

    Draw b of the cell at index i uses the substream keyed (i, b), the key
    of that cell's own bootstrap, and mixes the cells' treated and
    counterfactual CDFs by their treated shares. Rows depend only on their
    draw index, so the replicates of a split of range(B) stack up to those
    of range(B).
    """
    taus = checked_grid(tau_grid)
    draws = range(config.iterations) if draws is None else draws
    out = np.empty((len(draws), taus.size))
    for rows, mixed, _ in _block_rows(cells, taus, config, draws):
        out[rows] = mixed
    return out


def _block_rows(cells, taus, config: BootstrapConfig, draws: range, estimators=(), kept=0):
    """``draws`` a chunk at a time, over every cell at once: yields the
    chunk's rows within ``draws`` (a slice), the chunk's rows of the
    unconditional process, and the ``estimate_rows`` of ``estimators`` for
    each of the first ``kept`` cells. A cell's weights are drawn and refit
    once per chunk, under the key of its own bootstrap, and its estimates
    and its part of the mixture come from that one fit.
    """
    if not cells:
        raise ValueError("need at least one viable cell")
    if draws.step != 1 or not 0 <= draws.start <= draws.stop <= config.iterations:
        raise ValueError("draws must be a contiguous range of draw indices below B")
    members = [cell for _, cell in cells]
    layout, shares = _treated_layout(members), treated_shares(members)
    for rows, weights in _chunk_weights([((i,), cell) for i, cell in cells], config, draws):
        cdfs, values = [], []
        for k, (cell, w) in enumerate(zip(members, weights)):
            names = estimators if k < kept else ()
            fitted = _fit_rows(cell, w, names)
            cdfs.append(_counterfactual_rows(cell, fitted, w)[:2])
            if names:
                values.append(_estimates(fitted, cdfs[-1], taus, names))
        yield rows, _mixture_rows(layout, taus, cdfs, shares), values


def _draw_stores(cells: int, estimators: int, config: BootstrapConfig, grid_size: int):
    """Arrays of shared anonymous memory for a run's blocks to write: one for
    the mixture's draws, (B, grid), and one for each of the first cells,
    (estimators, B, grid), as many of the ``cells`` as fit STORE_ELEMENTS
    with the mixture's. Made before a fork, they hold what the forked
    workers write for the parent to read; an array's memory is unmapped
    when its last view is dropped. Raises MemoryError or OSError when the
    memory cannot be had.
    """
    import mmap  # here: a run that makes no store does not load it (0.2 MB)

    def shared(*shape):
        return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), dtype=float).reshape(shape)

    size = config.iterations * grid_size
    kept = min(cells, max(0, STORE_ELEMENTS - size) // (estimators * size))
    return shared(config.iterations, grid_size), [
        shared(estimators, config.iterations, grid_size) for _ in range(kept)
    ]


def bootstrap_block(
    cells: list[tuple[int, Cell]],
    tau_grid,
    config: BootstrapConfig,
    estimators: tuple[str, ...],
    stores: list[np.ndarray],
    mixture: np.ndarray,
    draws: range,
) -> None:
    """One task of a run that analyzes the cells and their mixture: the rows
    of the draws in ``draws`` for the mixture, written into ``mixture`` (B,
    grid), as ``bootstrap_unconditional`` gives them, and for the
    estimators of each of the first ``len(stores)`` cells, written into
    ``stores[k]`` (len(estimators), B, grid), as ``bootstrap_process``
    gives them. Rows depend only on their draw index, so blocks whose
    ranges cover range(B) fill the arrays in any order and any process.
    """
    taus = checked_grid(tau_grid)
    for rows, mixed, values in _block_rows(cells, taus, config, draws, estimators, len(stores)):
        rows = slice(draws.start + rows.start, draws.start + rows.stop)
        mixture[rows] = mixed
        for store, cell_values in zip(stores, values):
            for e, est in enumerate(estimators):
                store[e, rows] = cell_values[est]


def analyze_unconditional(
    cells: list[tuple[int, Cell]],
    tau_grid,
    config: BootstrapConfig,
    n_total: int,
    draws: np.ndarray | None = None,
) -> InferenceReport:
    """Uniform inference for the treated-share mixture across cells.

    ``cells`` pairs each cell with its index in the full deterministic cell
    list; per-cell weight substreams reuse the same (seed, cell index, draw)
    keying as the per-cell analyses. Mixture shares are the treated counts,
    which multinomial resampling holds fixed. ``draws`` are the replicates
    of ``bootstrap_unconditional``, drawn here when not given.
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


# The tasks of the pool this worker process serves (set by _start_worker).
_TASKS: list = []


def _start_worker(tasks: list, parent: int) -> None:
    """Set up a forked worker: keep the task list, and die with the parent.

    An idle worker waits on the task queue, whose write end it holds too, so
    it would outlive a parent killed with SIGKILL; PR_SET_PDEATHSIG (Linux)
    has the kernel kill it when the parent exits.
    """
    import ctypes
    import signal

    global _TASKS
    _TASKS = tasks
    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is not None:
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(1, signal.SIGKILL)  # 1 = PR_SET_PDEATHSIG
    if os.getppid() != parent:  # the parent exited before prctl took effect
        os._exit(1)


def _run_task(index: int):
    return _TASKS[index]()


def _parallel(tasks: list) -> list:
    """The results of the zero-argument callables ``tasks``, in task order.

    With more than one worker (``_workers``, at most one per task), the
    tasks run in a pool of forked worker processes, which inherit the task
    list: only task indices and results are pickled, so a task may be any
    callable, a closure included. Fork copies only the calling thread, and
    qdid starts no thread before it forks. The first task to raise, in task
    order, raises here; every worker has exited when this returns.
    Otherwise the tasks run here, one after another, and
    ``multiprocessing`` is not imported.
    """
    workers = min(_workers(), len(tasks))
    if workers < 2:
        return [task() for task in tasks]
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    pool = ProcessPoolExecutor(
        workers, mp_context=get_context("fork"), initializer=_start_worker,
        initargs=(tasks, os.getpid()),
    )
    try:
        futures = [pool.submit(_run_task, index) for index in range(len(tasks))]
        return [future.result() for future in futures]
    finally:
        pool.shutdown(cancel_futures=True)
