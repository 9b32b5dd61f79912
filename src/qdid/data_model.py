"""Datasets, validation, and the partition into covariate cells.

Two dataset shapes are supported: two-period panel data (one row per unit,
both outcomes observed) and repeated cross sections (one row per
observation, tagged with its period). Covariates are integer-coded discrete
categories; estimation is fully stratified on exact covariate values, and
``build_cells`` returns the estimation cell of each covariate vector.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .estimators import Cell, PanelCell, RcsCell

__all__ = [
    "PanelData",
    "RcsData",
    "ValidationIssue",
    "ValidationReport",
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

    def _cell(self, code: tuple[int, ...], control: np.ndarray, treated: np.ndarray) -> PanelCell:
        """The cell of the given control and treated unit rows."""
        y_pre, y_post = self.y_pre[control], self.y_post[control]
        return PanelCell(code, y_pre, y_post - y_pre, self.y_pre[treated], self.y_post[treated])


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

    def _cell(self, code: tuple[int, ...], control: np.ndarray, treated: np.ndarray) -> RcsCell:
        """The cell of the given control and treated rows: each group's
        observations per period."""
        c, t = self.period[control], self.period[treated]
        return RcsCell(
            code,
            self.y[control[c == 0]],
            self.y[control[c == 1]],
            self.y[treated[t == 0]],
            self.y[treated[t == 1]],
        )


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


def build_cells(
    dataset: PanelData | RcsData,
    min_cell_size: int = DEFAULT_MIN_CELL_SIZE,
) -> list[Cell]:
    """Partition rows by exact covariate vector into estimation cells,
    ordered lexicographically.

    Every row lands in exactly one cell, whose samples keep row order (a
    repeated cross-section row whose period is not 0 or 1, possible only
    before validation, is in no sample). A cell with a weight arm
    (``cell.arm_sizes()``) smaller than ``min_cell_size`` is returned with a
    ``reason`` rather than dropped, so callers can report it.
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

    cells = []
    for rows in groups:
        code = tuple(int(v) for v in codes[rows[0]]) if k else ()
        treated = dataset.treated[rows]
        cell = dataset._cell(code, rows[~treated], rows[treated])
        short = [
            f"{arm.replace('_', ' ')} arm has {size} rows"
            for arm, size in cell.arm_sizes().items()
            if size < min_cell_size
        ]
        if short:
            cell = replace(cell, reason=f"{', '.join(short)} (< min_cell_size {min_cell_size})")
        cells.append(cell)
    return cells
