"""Datasets, covariate-cell indexing, and validation.

Two dataset shapes are supported: two-period panel data (one row per unit,
both outcomes observed) and repeated cross sections (one row per
observation, tagged with its period). Covariates are integer-coded discrete
categories; estimation is fully stratified on exact covariate values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PanelData",
    "RcsData",
    "CovariateCell",
    "ValidationIssue",
    "ValidationReport",
    "ValidationError",
    "validate",
    "build_cells",
    "DEFAULT_MIN_CELL_SIZE",
]

DEFAULT_MIN_CELL_SIZE = 2


def _as_covariates(covariates, n_rows: int) -> np.ndarray:
    x = np.asarray(covariates)
    if x.size == 0:
        x = x.reshape(n_rows, 0)
    if x.ndim != 2 or x.shape[0] != n_rows:
        raise ValueError(f"covariates must be a ({n_rows}, k) array")
    return x


@dataclass(frozen=True)
class PanelData:
    """Two-period panel: one row per unit, everyone untreated in the first period."""

    unit_ids: np.ndarray
    y_pre: np.ndarray
    y_post: np.ndarray
    treated: np.ndarray
    covariates: np.ndarray

    def __post_init__(self):
        n = len(self.unit_ids)
        object.__setattr__(self, "unit_ids", np.asarray(self.unit_ids))
        object.__setattr__(self, "y_pre", np.asarray(self.y_pre, dtype=float))
        object.__setattr__(self, "y_post", np.asarray(self.y_post, dtype=float))
        object.__setattr__(self, "treated", np.asarray(self.treated, dtype=bool))
        object.__setattr__(self, "covariates", _as_covariates(self.covariates, n))
        for name in ("y_pre", "y_post", "treated"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must have one entry per unit")

    @property
    def n_units(self) -> int:
        return len(self.unit_ids)

    @property
    def n_total(self) -> int:
        """Sample size entering the sqrt(n) scaling (number of units)."""
        return self.n_units

    @property
    def covariate_arity(self) -> int:
        return self.covariates.shape[1]


@dataclass(frozen=True)
class RcsData:
    """Repeated cross sections: one row per observation.

    ``treated`` marks membership in the group treated in the post period
    (pre-period rows of that group carry treated=1 as a group label).
    ``unit_ids`` is optional; when present, (unit, period) pairs must be unique.
    """

    y: np.ndarray
    period: np.ndarray
    treated: np.ndarray
    covariates: np.ndarray
    unit_ids: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.y)
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "period", np.asarray(self.period, dtype=int))
        object.__setattr__(self, "treated", np.asarray(self.treated, dtype=bool))
        object.__setattr__(self, "covariates", _as_covariates(self.covariates, n))
        if self.unit_ids is not None:
            object.__setattr__(self, "unit_ids", np.asarray(self.unit_ids))
            if len(self.unit_ids) != n:
                raise ValueError("unit_ids must have one entry per row")
        for name in ("period", "treated"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must have one entry per row")

    @property
    def n_rows(self) -> int:
        return len(self.y)

    @property
    def n_total(self) -> int:
        """Sample size entering the sqrt(n) scaling (all observations)."""
        return self.n_rows

    @property
    def covariate_arity(self) -> int:
        return self.covariates.shape[1]


@dataclass(frozen=True)
class ValidationIssue:
    kind: str
    rows: tuple[int, ...]
    message: str

    def __str__(self) -> str:
        return self.message


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.issues

    def __str__(self) -> str:
        if self.ok:
            return "dataset ok"
        return "\n".join(str(issue) for issue in self.issues)


class ValidationError(ValueError):
    """Raised when a dataset fails validation."""

    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__(str(report))


def _rows_msg(rows: np.ndarray, what: str) -> ValidationIssue:
    idx = tuple(int(i) for i in rows)
    shown = ", ".join(map(str, idx[:10])) + (", ..." if len(idx) > 10 else "")
    return ValidationIssue(what, idx, f"{what} at rows [{shown}]")


def _repeated_rows(unit_ids: np.ndarray, period: np.ndarray) -> np.ndarray:
    """Rows whose (unit, period) pair already occurred on an earlier row."""
    order = np.lexsort((period, unit_ids))  # stable: a pair's first row leads its run
    ids, phase = unit_ids[order], period[order]
    repeat = (ids[1:] == ids[:-1]) & (phase[1:] == phase[:-1])  # NaN ids never equal
    return np.sort(order[1:][repeat])


def validate(dataset: PanelData | RcsData) -> ValidationReport:
    """Check finiteness, covariate coding, and row identity constraints."""
    issues: list[ValidationIssue] = []

    if isinstance(dataset, PanelData):
        bad = np.flatnonzero(~np.isfinite(dataset.y_pre) | ~np.isfinite(dataset.y_post))
        if bad.size:
            issues.append(_rows_msg(bad, "non-finite outcome"))
        ids, counts = np.unique(dataset.unit_ids, return_counts=True)
        dup = ids[counts > 1]
        if dup.size:
            issues.append(
                ValidationIssue(
                    "duplicate unit",
                    (),
                    f"duplicate unit ids: {', '.join(map(str, dup[:10]))}",
                )
            )
    else:
        bad = np.flatnonzero(~np.isfinite(dataset.y))
        if bad.size:
            issues.append(_rows_msg(bad, "non-finite outcome"))
        bad = np.flatnonzero(~np.isin(dataset.period, (0, 1)))
        if bad.size:
            issues.append(_rows_msg(bad, "period not in {0, 1}"))
        if dataset.unit_ids is not None:
            dup_rows = _repeated_rows(dataset.unit_ids, dataset.period)
            if dup_rows.size:
                issues.append(_rows_msg(dup_rows, "duplicate (unit, period) row"))

    x = dataset.covariates
    if x.size:
        if not np.issubdtype(x.dtype, np.integer):
            as_float = x.astype(float)
            frac = np.flatnonzero(np.any(as_float != np.floor(as_float), axis=1))
            if frac.size or not np.all(np.isfinite(as_float)):
                issues.append(
                    _rows_msg(
                        frac if frac.size else np.arange(len(as_float)),
                        "non-integer covariate value (covariates must be discrete codes)",
                    )
                )
    return ValidationReport(tuple(issues))


@dataclass(frozen=True)
class CovariateCell:
    """One exact-covariate stratum with its treated/control member rows.

    Cells too small for estimation are flagged via ``viable``/``reason``
    rather than dropped, so callers can report them.
    """

    code: tuple[int, ...]
    treated_rows: np.ndarray
    control_rows: np.ndarray
    viable: bool = True
    reason: str | None = None

    @property
    def n_treated(self) -> int:
        return len(self.treated_rows)

    @property
    def n_control(self) -> int:
        return len(self.control_rows)

    def label(self) -> str:
        return "all" if not self.code else "|".join(map(str, self.code))


def build_cells(
    dataset: PanelData | RcsData,
    min_cell_size: int = DEFAULT_MIN_CELL_SIZE,
) -> list[CovariateCell]:
    """Partition rows by exact covariate vector, ordered lexicographically.

    Every row lands in exactly one cell. A cell whose treated or control arm
    is smaller than ``min_cell_size`` (for repeated cross sections: any of
    the four period-by-group arms) is flagged as non-viable with a reason.
    """
    x = dataset.covariates
    n, k = x.shape
    if k == 0:
        groups = [np.arange(n)]
    else:
        codes = x if np.issubdtype(x.dtype, np.integer) else x.astype(int)
        order = np.lexsort(codes.T[::-1])  # stable: rows stay ascending in a cell
        ranked = codes[order]
        starts = np.flatnonzero(np.any(ranked[1:] != ranked[:-1], axis=1)) + 1
        groups = np.split(order, starts) if n else []

    treated = dataset.treated
    cells = []
    for rows in groups:
        code = tuple(int(v) for v in codes[rows[0]]) if k else ()
        t_rows = rows[treated[rows]]
        c_rows = rows[~treated[rows]]
        viable, reason = True, None
        if isinstance(dataset, RcsData):
            arms = {
                "control pre": int(np.sum(dataset.period[c_rows] == 0)),
                "control post": int(np.sum(dataset.period[c_rows] == 1)),
                "treated pre": int(np.sum(dataset.period[t_rows] == 0)),
                "treated post": int(np.sum(dataset.period[t_rows] == 1)),
            }
        else:
            arms = {"control": len(c_rows), "treated": len(t_rows)}
        short = {name: size for name, size in arms.items() if size < min_cell_size}
        if short:
            viable = False
            parts = ", ".join(f"{name} arm has {size} rows" for name, size in short.items())
            reason = f"{parts} (< min_cell_size {min_cell_size})"
        cells.append(
            CovariateCell(
                code=code,
                treated_rows=t_rows,
                control_rows=c_rows,
                viable=viable,
                reason=reason,
            )
        )
    return cells
