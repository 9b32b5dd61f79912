"""Counterfactual distribution construction and quantile treatment effects.

The treated group's counterfactual untreated-outcome distribution is built
from control observations: each control unit's outcome change is added to
the treated-group pre-period value at the same pre-period rank, and the
counterfactual CDF is the (weighted) ECDF of those transformed outcomes.
Panel data uses observed within-unit changes; repeated cross sections
recover the change by rank-matching the control group across periods.
Quantile effects are differences of generalized-inverse quantiles between
the observed treated CDF and the counterfactual CDF.

``estimate_rows`` is the one estimator: it evaluates the estimators for a
chunk of bootstrap draws at once, from one weight matrix per arm; it and
``counterfactual_rows`` are cases of ``_cell_rows``, the kernel's stages in
order. The bootstrap is linear in its weights, so the point estimate is the
draw whose weights are all 1: ``estimate_process`` is the one-row case.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from functools import cached_property
from typing import ClassVar, Mapping, Sequence

import numpy as np

# rank_transform is unused here; bench/tracer.py rebinds it by this module path
from .empirical import (
    SortedSample,
    StepDistribution,
    StepRows,
    _first_row,
    _take_rows,
    _weight_row,
    rank_rows,
    rank_transform,  # noqa: F401
    searchsorted_rows,
)

__all__ = [
    "Cell",
    "PanelCell",
    "RcsCell",
    "CqttProcess",
    "estimate_process",
    "estimate_rows",
    "counterfactual_rows",
    "treated_shares",
]

ESTIMATORS = ("ddid", "cic")


@dataclass(frozen=True)
class Cell:
    """Per-cell samples, with cached sort layouts for refits.

    A cell has four samples, the outcomes as the data give them, passed by
    name: ``control_pre``, ``control_post``, ``treated_pre`` and
    ``treated_post``; ``sample_values`` gives them in that order.
    ``SAMPLE_ARMS`` names the weight arm of each; a bootstrap draw has one
    weight vector per distinct arm, and it reweights every sample of that
    arm. Subclasses say only where the samples come from. ``observed_dy`` is
    the control change, aligned with the control pre-period sample, where
    the data observe it (panel), and None where it is recovered by rank
    matching the control group across periods (repeated cross sections).
    ``reason`` is None for a cell large enough to estimate, and otherwise
    says which arms are too small (see ``build_cells``).
    """

    SAMPLE_ARMS: ClassVar[tuple[str, ...]]
    observed_dy = None

    code: tuple[int, ...]
    _: KW_ONLY
    control_pre: np.ndarray
    control_post: np.ndarray
    treated_pre: np.ndarray
    treated_post: np.ndarray
    reason: str | None = None

    @property
    def sample_values(self) -> tuple[np.ndarray, ...]:
        return (self.control_pre, self.control_post, self.treated_pre, self.treated_post)

    @property
    def viable(self) -> bool:
        return self.reason is None

    def label(self) -> str:
        return "all" if not self.code else "|".join(map(str, self.code))

    def arm_sizes(self) -> dict[str, int]:
        return {arm: len(v) for arm, v in zip(self.SAMPLE_ARMS, self.sample_values)}

    def _observations(self, arms) -> int:
        sizes = self.arm_sizes()
        return sum(sizes[arm] for arm in set(arms))

    @property
    def n_control(self) -> int:
        return self._observations(self.SAMPLE_ARMS[:2])

    @property
    def n_treated(self) -> int:
        return self._observations(self.SAMPLE_ARMS[2:])

    def sample_weights(self, weights: Mapping[str, np.ndarray]) -> tuple:
        """Each sample's weights from a map of arm to weights."""
        return tuple(weights[arm] for arm in self.SAMPLE_ARMS)

    def unit_weights(self) -> dict[str, np.ndarray]:
        """The weight rows of the point estimate: one row of ones per arm."""
        return {arm: np.ones((1, n)) for arm, n in self.arm_sizes().items()}

    @cached_property
    def samples(self) -> tuple[SortedSample, ...]:
        """The four samples, in ``SAMPLE_ARMS`` order."""
        return tuple(SortedSample(v) for v in self.sample_values)

    @cached_property
    def cic_at(self) -> np.ndarray:
        """For each control pre-period support point, the number of treated
        pre-period support points at or below it: ``_cic_rows``' one search
        that no weight changes."""
        return np.searchsorted(self.samples[2].support, self.samples[0].support, side="right")


@dataclass(frozen=True)
class PanelCell(Cell):
    """Panel cell: each unit is seen in both periods, so a group's pre and post
    samples hold one value per unit, in unit order, and the control change is observed."""

    SAMPLE_ARMS: ClassVar[tuple[str, ...]] = ("control", "control", "treated", "treated")

    def __post_init__(self):
        control_pre, control_post, treated_pre, treated_post = map(len, self.sample_values)
        if control_pre != control_post or treated_pre != treated_post:
            raise ValueError(f"cell {self.code}: each group's pre and post samples must hold "
                             "one value per unit")

    @cached_property
    def observed_dy(self) -> np.ndarray:
        return self.control_post - self.control_pre


@dataclass(frozen=True)
class RcsCell(Cell):
    """Repeated cross-section cell: four unlinked samples."""

    SAMPLE_ARMS: ClassVar[tuple[str, ...]] = (
        "control_pre", "control_post", "treated_pre", "treated_post"
    )


@dataclass(frozen=True)
class CounterfactualResult:
    """The result of ``counterfactual_cdf``: row 0 of ``counterfactual_rows``."""

    code: tuple[int, ...]
    treated: StepDistribution
    counterfactual: StepDistribution
    transformed_outcomes: np.ndarray
    n_control: int
    n_treated: int


def checked_grid(tau_grid) -> np.ndarray:
    """The tau grid as a float array, after checking it is nonempty, strictly
    increasing and strictly inside (0, 1)."""
    taus = np.asarray(tau_grid, dtype=float)
    if taus.ndim != 1 or taus.size == 0:
        raise ValueError("tau grid must be a nonempty 1-d array")
    if not np.all((taus > 0.0) & (taus < 1.0)):
        raise ValueError("tau grid must lie strictly inside (0, 1)")
    if taus.size > 1 and not np.all(np.diff(taus) > 0):
        raise ValueError("tau grid must be strictly increasing")
    return taus


def checked_estimators(estimators: str | Sequence[str]) -> tuple[str, ...]:
    """The one rule of an estimator list: the names (one name alone as a
    1-tuple), at least one, each in ``ESTIMATORS`` and named once."""
    names = (estimators,) if isinstance(estimators, str) else tuple(estimators)
    if not names:
        raise ValueError(f"estimators must name at least one of {', '.join(ESTIMATORS)}")
    for name in names:
        if name not in ESTIMATORS:
            raise ValueError(f"estimators must be among {', '.join(ESTIMATORS)}, not {name!r}")
        if names.count(name) > 1:
            raise ValueError(f"estimators must name {name!r} once, not {names.count(name)} times")
    return names


@dataclass(frozen=True)
class CqttProcess:
    """Quantile treatment effect on the treated, evaluated on a tau grid."""

    taus: np.ndarray
    values: np.ndarray
    code: tuple[int, ...]
    n_control: int
    n_treated: int
    n_total: int

    def __post_init__(self):
        taus = checked_grid(self.taus)
        values = np.asarray(self.values, dtype=float)
        if values.shape != taus.shape or not np.all(np.isfinite(values)):
            raise ValueError("values must be finite, one per grid point")
        if not self.n_total >= 1:
            raise ValueError("n_total must be at least 1")
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "values", values)


def counterfactual_cdf(
    cell: Cell,
    weights: Mapping[str, np.ndarray] | None = None,
) -> CounterfactualResult:
    """Row 0 of ``counterfactual_rows`` under one checked weight vector per
    arm (None: all ones); kept while bench/tracer.py rebinds its aliases."""
    rows = _checked_rows(cell, weights)
    fitted = [s.fit_rows(w) for s, w in zip(cell.samples, cell.sample_weights(rows))]
    treated, counterfactual, transformed = _counterfactual_rows(cell, fitted, rows)
    return CounterfactualResult(
        code=cell.code,
        treated=_first_row(treated, compact=False),
        counterfactual=_first_row(counterfactual, compact=True),
        transformed_outcomes=transformed[0],
        n_control=cell.n_control,
        n_treated=cell.n_treated,
    )


# the per-design names that bench/tracer.py rebinds
counterfactual_cdf_panel = counterfactual_cdf_rcs = counterfactual_cdf


def treated_shares(results: Sequence[Cell | CounterfactualResult]) -> np.ndarray:
    counts = np.array([r.n_treated for r in results], dtype=float)
    return counts / counts.sum()


def cic_qtt(
    control_pre,
    control_post,
    treated_pre,
    treated_post,
    tau_grid,
    weights: tuple | None = None,
    code: tuple[int, ...] = (),
    n_total: int | None = None,
) -> CqttProcess:
    """``estimate_process`` of cic on the repeated cross-section cell of four
    samples (arrays or ``SortedSample``s), under one weight vector or None
    per sample; kept while bench/tracer.py rebinds it."""
    samples = (control_pre, control_post, treated_pre, treated_post)
    cell = RcsCell(code, **{  # an RcsCell's arms are its sample names
        name: np.asarray(s.values if isinstance(s, SortedSample) else s, dtype=float)
        for name, s in zip(RcsCell.SAMPLE_ARMS, samples)
    })
    if weights is not None:
        weights = {
            arm: np.ones(len(v)) if w is None else w
            for arm, v, w in zip(cell.SAMPLE_ARMS, cell.sample_values, weights)
        }
    return estimate_process(cell, tau_grid, "cic", weights, n_total)


def check_nonempty(cell: Cell) -> None:
    """Refuse a cell with an empty sample, which no estimator can fit."""
    if min(cell.arm_sizes().values()) == 0:
        raise ValueError(f"cell {cell.code}: every sample must be nonempty")


def _checked_rows(cell: Cell, weights: Mapping[str, np.ndarray] | None) -> dict:
    """One weight row per arm, after ``check_nonempty``: ones for
    ``weights=None``, otherwise each arm's checked vector."""
    check_nonempty(cell)
    if weights is None:
        return cell.unit_weights()
    return {arm: _weight_row(weights[arm], n) for arm, n in cell.arm_sizes().items()}


def estimate_process(
    cell: Cell,
    tau_grid,
    estimator: str | tuple[str, ...] = "ddid",
    weights: Mapping[str, np.ndarray] | None = None,
    n_total: int | None = None,
) -> CqttProcess | dict[str, CqttProcess]:
    """Evaluate estimators on one cell: the one-row case of ``estimate_rows``.

    With ``weights=None`` the row is all ones, the point estimate; otherwise
    it is one draw's weight vector per arm. Given a tuple of estimators,
    returns a dict of processes per estimator, from one kernel call.
    """
    names = checked_estimators(estimator)
    taus = checked_grid(tau_grid)
    values = estimate_rows(cell, taus, _checked_rows(cell, weights), names)
    if n_total is None:
        n_total = cell.n_control + cell.n_treated
    n = [len(v) for v in cell.sample_values]
    # cic counts the observations of its samples: a panel unit once per period
    counts = {"ddid": (cell.n_control, cell.n_treated), "cic": (n[0] + n[1], n[2] + n[3])}
    processes = {
        est: CqttProcess(taus, values[est][0], cell.code, *counts[est], n_total) for est in names
    }
    return processes[estimator] if isinstance(estimator, str) else processes


def _counterfactual_rows(cell, fitted, weights) -> tuple[StepRows, StepRows, np.ndarray]:
    """The treated and counterfactual CDFs of each weight row, and the
    (C, n_control) transformed outcomes the counterfactual is fitted to."""
    pre_control, post_control, pre_treated, post_treated = fitted
    sample = cell.samples[0]
    dy = cell.observed_dy
    if dy is None:
        dy = rank_rows(pre_control, sample.inverse, post_control) - sample.values
    transformed = dy + rank_rows(pre_control, sample.inverse, pre_treated)
    return post_treated, StepRows.fit(transformed, weights[cell.SAMPLE_ARMS[0]]), transformed


def counterfactual_rows(
    cell: Cell, weights: Mapping[str, np.ndarray]
) -> tuple[StepRows, StepRows]:
    """Treated and counterfactual CDFs for a chunk of bootstrap draws.

    Each control unit contributes its change plus the treated-group
    pre-period value at its control-group pre-period rank, and the
    counterfactual CDF is the weighted ECDF of those outcomes, under the
    control weights. The change is ``cell.observed_dy`` where the data
    observe it; otherwise it is recovered under rank invariance, by mapping
    each control pre-period outcome to the control post-period value at the
    same rank. ``weights`` maps each arm to a (C, n_arm) matrix whose row r
    is one draw's weight vector, and each arm's row enters every ECDF of its
    samples, inner rank maps included. Row r of each result is that draw's
    treated and counterfactual CDF. A cell with an empty sample is refused.
    """
    check_nonempty(cell)
    return _cell_rows(cell, None, weights, counterfactual=True)[0]


def _cic_rows(cell, fitted, taus, treated) -> np.ndarray:
    """Changes in changes, row by row; ``treated`` is the treated post-period
    quantile at ``taus``.

    The counterfactual distribution of treated post-period outcomes absent
    treatment is the treated pre-period CDF pulled through the control
    group's period map: each control post-period point y is sent back to the
    control pre-period value at its rank, and the counterfactual CDF at y is
    the treated pre-period CDF there. The effect at tau is the treated
    post-period quantile minus the generalized inverse of that composed CDF;
    quantile levels beyond its reach (support imbalance between groups) clip
    to the last positive-mass control post-period point. Zero-mass control
    post-period points are kept: one with rank 0 gets composed probability
    0, and one after a positive-mass point repeats that point's composed
    value, so the first point reaching tau has positive mass.

    The composed CDF is never built; the kernel searches at the tau levels.
    With P, S and T the cumulative probabilities of the control pre, control
    post and treated pre-period rows, and ``at = cell.cic_at``, the composed
    CDF at control post-period point j lies below tau exactly when S[j] is
    at most ``bound = P[reach - 1]`` (0.0 where ``reach`` is 0), with
    ``reach`` the number of control pre-period points whose ``at`` is at most
    the count of T below tau; P, S and T are nonnegative, so a point of
    rank 0 is at most every bound, as its composed value 0 is below every
    tau. The test compares the same stored doubles and does no arithmetic,
    so the right-side search of ``bound`` in S is the same integer as the
    left-side search of tau in the composed CDF
    (``tests/oracles.py::composed_cic_rows``).
    """
    pre_c, post_c, pre_t, _ = fitted
    reach = np.searchsorted(cell.cic_at, searchsorted_rows(pre_t.cum_probs, taus), side="right")
    below = _take_rows(pre_c.cum_probs, np.maximum(reach - 1, 0))
    bound = np.where(reach > 0, below, 0.0)
    width = post_c.support.size
    last = width - 1 - np.argmax(post_c.masses[:, ::-1] > 0, axis=1)
    idx = np.minimum(searchsorted_rows(post_c.cum_probs, bound, "right"), last[:, None])
    return treated - post_c.support[idx]


def estimate_rows(
    cell: Cell,
    tau_grid,
    weights: Mapping[str, np.ndarray],
    estimators: Sequence[str] = ("ddid",),
) -> dict[str, np.ndarray]:
    """Bootstrap kernel: every estimator on a chunk of draws at once.

    ``weights`` maps each arm to a (C, n_arm) matrix whose row r is one
    draw's weight vector; the estimators share the samples refit under it.
    Returns one (C, len(grid)) array per estimator, whose row r is the
    estimate under row r's weights; a row of ones gives the point estimate.
    """
    return _cell_rows(cell, checked_grid(tau_grid), weights, checked_estimators(estimators))[1]


def _cell_rows(cell, taus, weights, estimators=(), counterfactual=False):
    """The kernel's stages for one cell under a chunk of weight rows, in
    order: the four samples refit, the chunk's (treated, counterfactual)
    CDFs, and each estimator's rows at ``taus``. The CDFs are built only for
    ddid or given ``counterfactual``, and the control post-period refit is
    skipped (None) when nothing reads it: no cic on a cell whose control
    change is observed. Returns the CDFs given ``counterfactual``, else
    None, and one (C, len(taus)) array per estimator."""
    fits = zip(cell.samples, cell.sample_weights(weights))  # refuses non-finite values first
    skip = "cic" not in estimators and cell.observed_dy is not None
    fitted = [None if skip and i == 1 else s.fit_rows(w) for i, (s, w) in enumerate(fits)]
    cdfs = None
    if counterfactual or "ddid" in estimators:
        cdfs = _counterfactual_rows(cell, fitted, weights)[:2]
    out = {}
    if estimators:  # both estimators take the treated post-period quantile, searched once
        treated = fitted[3].quantile(taus)
    for est in estimators:  # checked by the callers (``checked_estimators``)
        if est == "ddid":
            out[est] = treated - cdfs[1].quantile(taus)
        else:
            out[est] = _cic_rows(cell, fitted, taus, treated)
    return cdfs if counterfactual else None, out
