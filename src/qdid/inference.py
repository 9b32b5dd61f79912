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
Draws are evaluated in chunks: the weight vectors of a run of draws are
stacked into one matrix per arm, at most ``CHUNK_ELEMENTS`` entries for the
largest arm, and the batched kernel ``estimate_rows`` refits every row at
once, sharing each draw's weights between the estimators of a cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .empirical import StepRows
# counterfactual_cdf_panel/_rcs are unused here; bench/tracer.py rebinds them by this path
from .estimators import (
    Cell,
    CqttProcess,
    checked_grid,
    counterfactual_cdf_panel,  # noqa: F401
    counterfactual_cdf_rcs,  # noqa: F401
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
    "draw_weight_vector",
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

# Entries in one chunk's weight matrix for the largest arm (for all cells
# together in the unconditional pass); sets the draws per chunk. Larger
# chunks spread numpy's per-call cost over more draws but hold more memory
# at once. At 250 units per arm, 8192 (32 draws) kept peak memory within
# 1 MB of the one-draw-at-a-time loop, and 16384 cost 1 MB more for a
# saving lost in run-to-run noise.
CHUNK_ELEMENTS = 8192


@dataclass(frozen=True)
class BootstrapConfig:
    iterations: int = 1000
    alpha: float = 0.05
    seed: int = 0
    scheme: str = "multinomial"

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a (seed, key...) address; order-free reproducibility."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def draw_weight_vector(n: int, scheme: str, rng: np.random.Generator) -> np.ndarray:
    """One exchangeable nonnegative weight vector for an arm of size n.

    multinomial: resample counts (n draws over n equiprobable categories),
    summing to n exactly. dirichlet: flat Dirichlet scaled by n; strictly
    positive almost surely, mean weight 1.
    """
    if n < 1:
        raise ValueError("arm size must be >= 1")
    if scheme == "multinomial":
        return np.bincount(rng.integers(0, n, size=n), minlength=n).astype(float)
    if scheme == "dirichlet":
        return rng.dirichlet(np.ones(n)) * n
    raise ValueError(f"scheme must be one of {SCHEMES}")


def draw_weights(
    arm_sizes: dict[str, int], scheme: str, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """Weight vectors for each arm, drawn independently in sorted-name order."""
    return {arm: draw_weight_vector(arm_sizes[arm], scheme, rng) for arm in sorted(arm_sizes)}


def _chunks(iterations: int, width: int):
    """Consecutive runs of draw indices, each filling at most CHUNK_ELEMENTS
    entries of a matrix ``width`` columns wide."""
    step = max(1, CHUNK_ELEMENTS // width)
    return [range(start, min(start + step, iterations)) for start in range(0, iterations, step)]


def _weight_rows(
    arm_sizes: dict[str, int], config: BootstrapConfig, key: tuple[int, ...], draws: range
) -> dict[str, np.ndarray]:
    """One (len(draws), n_arm) matrix per arm; row i is the weight vector of
    draw ``draws[i]``, drawn from its own substream (config.seed, *key, draw)."""
    rows = [draw_weights(arm_sizes, config.scheme, substream(config.seed, *key, b)) for b in draws]
    return {arm: np.stack([w[arm] for w in rows]) for arm in arm_sizes}


def bootstrap_process(
    cell: Cell,
    tau_grid,
    config: BootstrapConfig,
    estimator: str | tuple[str, ...] = "ddid",
    n_total: int | None = None,
    cell_index: int = 0,
    key_prefix: tuple[int, ...] = (),
) -> np.ndarray | dict[str, np.ndarray]:
    """B bootstrap replicates of the effect process; shape (B, len(grid)).

    Draw b uses the substream keyed (*key_prefix, cell_index, b) under
    config.seed, so replicates are reproducible regardless of evaluation
    order and distinct cells never share draws. Given a tuple of
    estimators, returns a dict of replicates per estimator, all computed
    from the same draws. ``n_total`` only labels a process, so replicates
    do not depend on it.
    """
    names = (estimator,) if isinstance(estimator, str) else tuple(estimator)
    taus = np.asarray(tau_grid, dtype=float)
    sizes = cell.arm_sizes()
    draws = {est: np.empty((config.iterations, taus.size)) for est in names}
    for chunk in _chunks(config.iterations, max(sizes.values())):
        weights = _weight_rows(sizes, config, (*key_prefix, cell_index), chunk)
        for est, rows in estimate_rows(cell, taus, weights, names).items():
            draws[est][chunk.start : chunk.stop] = rows
    return draws[estimator] if isinstance(estimator, str) else draws


def empirical_quantile(sample, q: float) -> float:
    """Generalized-inverse sample quantile inf{v : F_n(v) >= q}, q in (0, 1]."""
    sample = np.sort(np.asarray(sample, dtype=float))
    if not 0.0 < q <= 1.0:
        raise ValueError("quantile level must lie in (0, 1]")
    cum = np.arange(1, sample.size + 1) / sample.size
    return float(sample[np.searchsorted(cum, q, side="left")])


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


def pointwise_se(draws: np.ndarray) -> np.ndarray:
    """Bootstrap standard error at each grid point (sample sd over draws)."""
    draws = np.asarray(draws, dtype=float)
    if draws.shape[0] < 2:
        raise ValueError("need at least two bootstrap draws")
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
    return InferenceReport(
        process=process,
        ks_statistic=ks.statistic,
        critical_value=ks.critical_value,
        reject=ks.reject,
        lower=process.values - ks.band_half_width,
        upper=process.values + ks.band_half_width,
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
) -> InferenceReport | dict[str, InferenceReport]:
    """Point process, bootstrap, sup test, band, and pointwise SEs for one cell.

    Given a tuple of estimators, returns a dict of reports per estimator,
    whose bootstraps share each draw's weights.
    """
    names = (estimator,) if isinstance(estimator, str) else tuple(estimator)
    points = estimate_process(cell, tau_grid, names, None, n_total)
    draws = bootstrap_process(cell, tau_grid, config, names, n_total, cell_index=cell_index)
    reports = {est: _assemble_report(points[est], draws[est], config) for est in names}
    return reports[estimator] if isinstance(estimator, str) else reports


def _mixture_rows(cells: list[Cell], taus, weights: list) -> np.ndarray:
    """The unconditional process under a chunk of draws: row r mixes the
    cells' treated and counterfactual CDFs under row r of each cell's weights
    (``weights[i]`` maps each arm of cell i to a (C, n_arm) matrix) by
    their treated shares."""
    shares = treated_shares(cells)
    treated, counterfactual = zip(*map(counterfactual_rows, cells, weights))
    mixed = StepRows.mixture(treated, shares).quantile(taus)
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
    values = _mixture_rows(members, taus, [cell.unit_weights() for cell in members])[0]
    n_control = sum(cell.n_control for cell in members)
    n_treated = sum(cell.n_treated for cell in members)
    if n_total is None:
        n_total = n_control + n_treated
    return CqttProcess(taus, values, (), n_control, n_treated, n_total)


def bootstrap_unconditional(
    cells: list[tuple[int, Cell]],
    tau_grid,
    config: BootstrapConfig,
) -> np.ndarray:
    """B bootstrap replicates of the unconditional process; shape (B, len(grid)).

    Draw b of the cell at index i uses the substream keyed (i, b), the key
    of that cell's own bootstrap, and mixes the cells' treated and
    counterfactual CDFs by their treated shares.
    """
    if not cells:
        raise ValueError("need at least one viable cell")
    taus = checked_grid(tau_grid)
    members = [cell for _, cell in cells]
    draws = np.empty((config.iterations, taus.size))
    # the mixtures concatenate every cell's rows
    width = sum(max(cell.arm_sizes().values()) for cell in members)
    for chunk in _chunks(config.iterations, width):
        weights = [_weight_rows(cell.arm_sizes(), config, (i,), chunk) for i, cell in cells]
        draws[chunk.start : chunk.stop] = _mixture_rows(members, taus, weights)
    return draws


def analyze_unconditional(
    cells: list[tuple[int, Cell]],
    tau_grid,
    config: BootstrapConfig,
    n_total: int,
) -> InferenceReport:
    """Uniform inference for the treated-share mixture across cells.

    ``cells`` pairs each cell with its index in the full deterministic cell
    list; per-cell weight substreams reuse the same (seed, cell index, draw)
    keying as the per-cell analyses. Mixture shares are the treated counts,
    which multinomial resampling holds fixed.
    """
    draws = bootstrap_unconditional(cells, tau_grid, config)
    return _assemble_report(unconditional_process(cells, tau_grid, n_total), draws, config)
