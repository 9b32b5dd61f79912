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
chunk of bootstrap draws at once, from one weight matrix per arm. The
bootstrap is linear in its weights, so the point estimate is the draw whose
weights are all 1: ``estimate_process`` is the one-row case of the kernel.
``counterfactual_cdf`` builds the same CDFs one weight vector at a time; the
pipeline does not call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Mapping, Sequence

import numpy as np

from .data_model import CovariateCell, PanelData, RcsData
from .empirical import (
    SortedSample,
    StepDistribution,
    StepRows,
    rank_rows,
    rank_transform,
    searchsorted_rows,
)

__all__ = [
    "Cell",
    "PanelCell",
    "RcsCell",
    "CounterfactualResult",
    "CqttProcess",
    "counterfactual_cdf",
    "counterfactual_cdf_panel",
    "counterfactual_cdf_rcs",
    "cic_qtt",
    "estimate_process",
    "estimate_rows",
    "counterfactual_rows",
    "extract_cell",
    "treated_shares",
]


@dataclass(frozen=True)
class Cell:
    """Per-cell samples, with cached sort layouts for refits.

    A cell has four samples: control pre, control post, treated pre and
    treated post, in that order. ``SAMPLE_ARMS`` names the weight arm of
    each; a bootstrap draw has one weight vector per distinct arm, and it
    reweights every sample of that arm. ``observed_dy`` is the control
    change, aligned with the control pre-period sample, where the data
    observe it (panel), and None where it is recovered by rank matching the
    control group across periods (repeated cross sections). Subclasses give
    the four samples' values, in order, as ``sample_values``.
    """

    SAMPLE_ARMS: ClassVar[tuple[str, ...]]
    observed_dy = None

    code: tuple[int, ...]

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

    def sample_weights(self, weights: Mapping[str, np.ndarray] | None) -> tuple:
        """Each sample's weight vector from a map of arm to weights."""
        if weights is None:
            return (None,) * len(self.SAMPLE_ARMS)
        return tuple(weights[arm] for arm in self.SAMPLE_ARMS)

    def unit_weights(self) -> dict[str, np.ndarray]:
        """The weight rows of the point estimate: one row of ones per arm."""
        return {arm: np.ones((1, n)) for arm, n in self.arm_sizes().items()}

    @cached_property
    def samples(self) -> tuple[SortedSample, ...]:
        """The four samples, in ``SAMPLE_ARMS`` order."""
        return tuple(SortedSample(v) for v in self.sample_values)

    _control_pre = property(lambda self: self.samples[0])
    _control_post = property(lambda self: self.samples[1])
    _treated_pre = property(lambda self: self.samples[2])
    _treated_post = property(lambda self: self.samples[3])


@dataclass(frozen=True)
class PanelCell(Cell):
    """Panel cell: each unit is seen in both periods, so its change is observed."""

    SAMPLE_ARMS: ClassVar[tuple[str, ...]] = ("control", "control", "treated", "treated")

    control_y_pre: np.ndarray
    control_dy: np.ndarray
    treated_y_pre: np.ndarray
    treated_y_post: np.ndarray

    @classmethod
    def from_dataset(cls, data: PanelData, cell: CovariateCell) -> "PanelCell":
        c, t = cell.control_rows, cell.treated_rows
        return cls(
            code=cell.code,
            control_y_pre=data.y_pre[c],
            control_dy=data.y_post[c] - data.y_pre[c],
            treated_y_pre=data.y_pre[t],
            treated_y_post=data.y_post[t],
        )

    @property
    def observed_dy(self) -> np.ndarray:
        return self.control_dy

    @cached_property
    def sample_values(self) -> tuple[np.ndarray, ...]:
        return (
            self.control_y_pre,
            self.control_y_pre + self.control_dy,
            self.treated_y_pre,
            self.treated_y_post,
        )


@dataclass(frozen=True)
class RcsCell(Cell):
    """Repeated cross-section cell: four unlinked samples."""

    SAMPLE_ARMS: ClassVar[tuple[str, ...]] = (
        "control_pre", "control_post", "treated_pre", "treated_post"
    )

    control_pre: np.ndarray
    control_post: np.ndarray
    treated_pre: np.ndarray
    treated_post: np.ndarray

    @classmethod
    def from_dataset(cls, data: RcsData, cell: CovariateCell) -> "RcsCell":
        c, t = cell.control_rows, cell.treated_rows
        pre_c = c[data.period[c] == 0]
        post_c = c[data.period[c] == 1]
        pre_t = t[data.period[t] == 0]
        post_t = t[data.period[t] == 1]
        return cls(
            code=cell.code,
            control_pre=data.y[pre_c],
            control_post=data.y[post_c],
            treated_pre=data.y[pre_t],
            treated_post=data.y[post_t],
        )

    @property
    def sample_values(self) -> tuple[np.ndarray, ...]:
        return (self.control_pre, self.control_post, self.treated_pre, self.treated_post)


def extract_cell(data: PanelData | RcsData, cell: CovariateCell) -> Cell:
    kind = PanelCell if isinstance(data, PanelData) else RcsCell
    return kind.from_dataset(data, cell)


@dataclass(frozen=True)
class CounterfactualResult:
    """Estimated CDF pair for one cell: observed treated vs counterfactual."""

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
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "values", values)


def counterfactual_cdf(
    cell: Cell,
    weights: Mapping[str, np.ndarray] | None = None,
) -> CounterfactualResult:
    """Counterfactual CDF for the treated from the cell's control units.

    Each control unit contributes its change plus the treated-group
    pre-period value at its control-group pre-period rank. The change is
    ``cell.observed_dy`` where the data observe it; otherwise it is
    recovered under rank invariance, by mapping each control pre-period
    outcome to the control post-period value at the same rank. When
    bootstrap weights are supplied (one vector per arm in
    ``cell.SAMPLE_ARMS``), each arm's vector enters every ECDF of its
    samples, inner rank maps included.
    """
    if min(cell.arm_sizes().values()) == 0:
        raise ValueError(f"cell {cell.code}: every sample must be nonempty")
    w_cpre, w_cpost, w_tpre, w_tpost = cell.sample_weights(weights)
    control_pre, control_post, treated_pre, treated_post = cell.samples
    pre_control = control_pre.fit(w_cpre)
    y = control_pre.values
    dy = cell.observed_dy
    if dy is None:
        dy = rank_transform(pre_control, control_post.fit(w_cpost), y) - y
    transformed = dy + rank_transform(pre_control, treated_pre.fit(w_tpre), y)
    return CounterfactualResult(
        code=cell.code,
        treated=treated_post.fit(w_tpost),
        counterfactual=StepDistribution.fit(transformed, w_cpre),
        transformed_outcomes=transformed,
        n_control=cell.n_control,
        n_treated=cell.n_treated,
    )


# aliases for callers of the per-design names
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
    """Changes-in-changes benchmark.

    The counterfactual distribution of treated post-period outcomes absent
    treatment is the treated pre-period CDF pulled through the control
    group's period map: each control post-period point y is sent back to the
    control pre-period value at its rank, and the counterfactual CDF at y is
    the treated pre-period CDF there. The effect at tau is the treated
    post-period quantile minus the generalized inverse of that composed CDF;
    quantile levels beyond its reach (support imbalance between groups) clip
    to the extreme control post-period points.

    The four samples are arrays or ``SortedSample``s, and ``weights`` one
    vector (or None, for all ones) per sample: ``estimate_process`` on the
    repeated cross-section cell of the four samples.
    """
    samples = (control_pre, control_post, treated_pre, treated_post)
    cell = RcsCell(
        code,
        *(np.asarray(s.values if isinstance(s, SortedSample) else s, dtype=float) for s in samples),
    )
    if weights is not None:
        weights = {
            arm: np.ones(len(v)) if w is None else w
            for arm, v, w in zip(cell.SAMPLE_ARMS, cell.sample_values, weights)
        }
    return estimate_process(cell, tau_grid, "cic", weights, n_total)


def _weight_row(weights, n: int) -> np.ndarray:
    """One arm's weight vector as a (1, n) row, after checking that it is
    1-d and n long, finite and non-negative, with a positive total."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (n,):
        raise ValueError("weights must have the same shape as values")
    if not np.all(np.isfinite(weights)) or np.any(weights < 0):
        raise ValueError("weights must be finite and non-negative")
    if not weights.sum() > 0:
        raise ValueError("weights sum to zero")
    return weights[None, :]


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
    names = (estimator,) if isinstance(estimator, str) else tuple(estimator)
    taus = checked_grid(tau_grid)
    if weights is None:
        rows = cell.unit_weights()
    else:
        rows = {arm: _weight_row(weights[arm], n) for arm, n in cell.arm_sizes().items()}
    values = estimate_rows(cell, taus, rows, names)
    if n_total is None:
        n_total = cell.n_control + cell.n_treated
    n = [len(v) for v in cell.sample_values]
    # cic counts the observations of its samples: a panel unit once per period
    counts = {"ddid": (cell.n_control, cell.n_treated), "cic": (n[0] + n[1], n[2] + n[3])}
    processes = {
        est: CqttProcess(taus, values[est][0], cell.code, *counts[est], n_total) for est in names
    }
    return processes[estimator] if isinstance(estimator, str) else processes


def _fit_rows(cell, weights) -> list[StepRows]:
    return [s.fit_rows(w) for s, w in zip(cell.samples, cell.sample_weights(weights))]


def _counterfactual_rows(cell, fitted, weights) -> tuple[StepRows, StepRows]:
    pre_control, post_control, pre_treated, post_treated = fitted
    sample = cell.samples[0]
    dy = cell.observed_dy
    if dy is None:
        dy = rank_rows(pre_control, sample.inverse, post_control) - sample.values
    transformed = dy + rank_rows(pre_control, sample.inverse, pre_treated)
    return post_treated, StepRows.fit(transformed, weights[cell.SAMPLE_ARMS[0]])


def counterfactual_rows(
    cell: Cell, weights: Mapping[str, np.ndarray]
) -> tuple[StepRows, StepRows]:
    """Treated and counterfactual CDFs for a chunk of bootstrap draws.

    ``weights`` maps each arm to a (C, n_arm) matrix whose row r is one
    draw's weight vector. Row r of each result equals the ``treated`` and
    ``counterfactual`` of ``counterfactual_cdf`` under row r's weights.
    """
    return _counterfactual_rows(cell, _fit_rows(cell, weights), weights)


def _cic_rows(fitted, taus) -> np.ndarray:
    """Changes in changes (see ``cic_qtt``), row by row. Zero-mass control
    post-period points are kept: one with rank 0 gets composed probability
    0, one after a positive-mass point repeats that point's composed value,
    so the first point reaching tau has positive mass; a search past the end
    clips to the last positive-mass point."""
    pre_c, post_c, pre_t, post_t = fitted
    back = pre_c.quantile(post_c.cum_probs)
    composed = np.where(post_c.cum_probs > 0, pre_t.cdf(back), 0.0)
    width = post_c.support.size
    last = width - 1 - np.argmax(post_c.masses[:, ::-1] > 0, axis=1)
    idx = np.minimum(searchsorted_rows(composed, taus), last[:, None])
    return post_t.quantile(taus) - post_c.support[idx]


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
    taus = checked_grid(tau_grid)
    fitted = _fit_rows(cell, weights)
    out = {}
    for est in estimators:
        if est == "ddid":
            treated, counterfactual = _counterfactual_rows(cell, fitted, weights)
            out[est] = treated.quantile(taus) - counterfactual.quantile(taus)
        elif est == "cic":
            out[est] = _cic_rows(fitted, taus)
        else:
            raise ValueError(f"unknown estimator {est!r} (expected 'ddid' or 'cic')")
    return out
