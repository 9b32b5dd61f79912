"""Monte Carlo harness: data generating processes, bias/RMSE/size tables.

Both DGPs share the outcome equation y_it(d) = mu(d) + theta_t + v_i + e_it
with theta_t = 1 in both periods and mu(1) - mu(0) = te, so the true effect
equals te at every quantile. DGP 1 shifts the unit effect for the treated
group (v | d ~ N(d, 1), noise standard normal). DGP 2 draws (v, e_post,
e_pre) jointly normal with unit variances, corr(e_post, e_pre) = 1/2 and
corr(v, e_pre) = 0 in both arms, and corr(v, e_post) = rho_bar in the
control arm only; rho_bar = 0 keeps the rank dependence between the
pre-period level and the change identical across groups, and rho_bar != 0
breaks it while leaving the distribution of the change unchanged. Assigning
the deviation to the control arm makes the estimator overstate the spread
of the counterfactual, biasing low quantiles up and high quantiles down.

Normal variates come from numpy's Generator (ziggurat method); all
randomness is keyed off a single master seed through named substreams, so
results are bit-reproducible and independent of execution order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data_model import PanelData, build_cells
from .estimators import ESTIMATORS, checked_estimators, checked_grid, estimate_process
# draw_weights is not called here; bench/tracer.py rebinds it by this module path
from .inference import (
    MAX_ITERATIONS,
    BootstrapConfig,
    _parallel,
    bootstrap_process,
    check_test_settings,
    check_whole,
    draw_weights,  # noqa: F401
    empirical_quantile,
    substream,
)

__all__ = ["DgpSpec", "McResult", "simulate_dgp1", "simulate_dgp2", "simulate", "run_mc"]

DEFAULT_MC_TAUS = (0.1, 0.5, 0.9)
THETA = 1.0  # theta_t, the level common to both periods: no estimate depends on it


@dataclass(frozen=True)
class DgpSpec:
    """One simulation design: variant, per-arm size, effect, copula deviation."""

    variant: int
    n_per_arm: int
    te: float = 0.0
    rho_bar: float = 0.0

    def __post_init__(self):
        if self.variant not in (1, 2):
            raise ValueError(f"variant must be 1 or 2, not {self.variant!r}")
        check_whole("n_per_arm", self.n_per_arm, 1)
        for name, value in (("te", self.te), ("rho_bar", self.rho_bar)):
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, not {value}")
        if self.variant == 1 and self.rho_bar != 0:
            raise ValueError("rho_bar applies to variant 2 only")
        if self.variant == 2:
            for d in (0, 1):
                try:
                    np.linalg.cholesky(self.covariance(d))
                except np.linalg.LinAlgError:
                    raise ValueError(
                        f"rho_bar={self.rho_bar} makes the d={d} covariance "
                        "matrix non positive definite"
                    ) from None

    def covariance(self, d: int) -> np.ndarray:
        """Covariance of (v, e_post, e_pre) for treatment arm d (variant 2).

        The copula deviation rho_bar enters the control arm's level-change
        dependence; the treated arm keeps corr(v, e_post) = 0.
        """
        rho_v_post = (1 - d) * self.rho_bar
        rho_v_pre = 0.0
        rho_post_pre = 0.5
        return np.array(
            [
                [1.0, rho_v_post, rho_v_pre],
                [rho_v_post, 1.0, rho_post_pre],
                [rho_v_pre, rho_post_pre, 1.0],
            ]
        )


def _assemble_panel(spec: DgpSpec, v, e_pre, e_post, treated) -> PanelData:
    y_pre = THETA + v + e_pre
    y_post = spec.te * treated + THETA + v + e_post
    n = len(v)
    return PanelData(
        unit_ids=np.arange(n),
        y_pre=y_pre,
        y_post=y_post,
        treated=treated.astype(bool),
        covariates=np.empty((n, 0), dtype=int),
    )


def simulate_dgp1(spec: DgpSpec, rng: np.random.Generator) -> PanelData:
    """Unit effect v | d ~ N(d, 1); independent standard normal noise.

    Control block first, then treated; draw order is v, e_pre, e_post.
    """
    if spec.variant != 1:
        raise ValueError("spec.variant must be 1")
    n = spec.n_per_arm
    treated = np.repeat([0.0, 1.0], n)
    v = rng.standard_normal(2 * n) + treated
    e_pre = rng.standard_normal(2 * n)
    e_post = rng.standard_normal(2 * n)
    return _assemble_panel(spec, v, e_pre, e_post, treated)


def simulate_dgp2(spec: DgpSpec, rng: np.random.Generator) -> PanelData:
    """(v, e_post, e_pre) | d ~ N(0, V_d) via Cholesky of V_d.

    Control block drawn first, then treated.
    """
    if spec.variant != 2:
        raise ValueError("spec.variant must be 2")
    n = spec.n_per_arm
    blocks = []
    for d in (0, 1):
        z = rng.standard_normal((n, 3))
        blocks.append(z @ np.linalg.cholesky(spec.covariance(d)).T)
    draws = np.vstack(blocks)
    treated = np.repeat([0.0, 1.0], n)
    return _assemble_panel(spec, draws[:, 0], draws[:, 2], draws[:, 1], treated)


def simulate(spec: DgpSpec, rng: np.random.Generator) -> PanelData:
    return simulate_dgp1(spec, rng) if spec.variant == 1 else simulate_dgp2(spec, rng)


@dataclass(frozen=True)
class McResult:
    """Aggregated Monte Carlo performance of the estimators on one design."""

    spec: DgpSpec
    reps: int
    taus: tuple[float, ...]
    estimators: tuple[str, ...]
    bias: Mapping[str, np.ndarray]
    rmse: Mapping[str, np.ndarray]
    rejection: Mapping[str, np.ndarray] | None
    bootstrap_iterations: int
    alpha: float
    scheme: str
    seed: int


def _mc_block(
    spec: DgpSpec,
    grid: np.ndarray,
    estimators: tuple[str, ...],
    seed: int,
    config: BootstrapConfig | None,
    reps: range,
):
    """Estimation errors and, given a bootstrap config, rejections of the
    reps in ``reps``: per estimator, one row per rep, in rep order."""
    errors = {est: np.empty((len(reps), grid.size)) for est in estimators}
    if config is None:
        rejections = None
    else:
        rejections = {est: np.empty((len(reps), grid.size), dtype=bool) for est in estimators}
    for i, r in enumerate(reps):
        data = simulate(spec, substream(seed, r))
        cell = build_cells(data)[0]
        processes = estimate_process(cell, grid, estimators, None, data.n_total)
        point = {est: process.values for est, process in processes.items()}
        for est in estimators:
            errors[est][i] = point[est] - spec.te
        if rejections is None:
            continue
        draws = bootstrap_process(cell, grid, config, estimators, cell_index=0, key_prefix=(r,))
        for est in estimators:
            critical = empirical_quantile(np.abs(draws[est] - point[est]), 1.0 - config.alpha)
            rejections[est][i] = np.abs(point[est]) > critical
    return errors, rejections


def check_mc_counts(reps: int = 1, bootstrap_iterations: int = 0) -> None:
    """``run_mc``'s counts: at least one rep, and 0 draws (no test) or at
    least 2. Each defaults to a valid value, so that one can be checked alone."""
    check_whole("reps", reps, 1)
    check_whole("bootstrap_iterations", bootstrap_iterations, 0, MAX_ITERATIONS)
    if bootstrap_iterations == 1:
        raise ValueError("bootstrap_iterations must be 0 (no test) or at least 2")


def run_mc(
    spec: DgpSpec,
    reps: int,
    taus: Sequence[float] = DEFAULT_MC_TAUS,
    estimators: Sequence[str] = ESTIMATORS,
    bootstrap_iterations: int = 0,
    alpha: float = 0.05,
    scheme: str = "multinomial",
    seed: int = 0,
) -> McResult:
    """Simulate, estimate, and test `reps` times; aggregate bias/RMSE/rejections.

    Rep r draws its data from substream (seed, r); bootstrap draw b of rep r
    is row b mod K of the block of draws from substream (seed, r, 0, b // K)
    (see ``qdid.inference``) and shares one weight realization across
    estimators. The null tested is zero effect at each tau separately:
    reject when |estimate| exceeds the (1-alpha) quantile of the recentered
    bootstrap absolute deviations at that tau. With bootstrap_iterations=0
    only bias and RMSE are computed; a test needs at least 2 draws. The
    settings are checked here; reps then run in contiguous ranges, one per
    worker process (see ``qdid.inference``).
    """
    check_mc_counts(reps, bootstrap_iterations)
    check_test_settings(alpha, seed, scheme)  # whatever bootstrap_iterations is
    grid = checked_grid(taus)
    taus = tuple(map(float, grid))
    estimators = checked_estimators(estimators)
    test = bootstrap_iterations != 0
    config = BootstrapConfig(bootstrap_iterations, alpha, seed, scheme) if test else None
    blocks = _parallel(functools.partial(_mc_block, spec, grid, estimators, seed, config), reps)
    errors = {est: np.concatenate([e[est] for e, _ in blocks]) for est in estimators}
    bias = {est: errors[est].mean(axis=0) for est in estimators}
    rmse = {est: np.sqrt(np.mean(errors[est] ** 2, axis=0)) for est in estimators}
    rejection = (
        {est: np.concatenate([r[est] for _, r in blocks]).mean(axis=0) for est in estimators}
        if config is not None
        else None
    )
    return McResult(
        spec=spec,
        reps=reps,
        taus=taus,
        estimators=estimators,
        bias=bias,
        rmse=rmse,
        rejection=rejection,
        bootstrap_iterations=bootstrap_iterations,
        alpha=alpha,
        scheme=scheme,
        seed=seed,
    )
