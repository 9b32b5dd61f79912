"""Datasets and their partition into covariate cells.

Two dataset shapes are supported: two-period panel data (one row per unit,
both outcomes observed) and repeated cross sections (one row per
observation, tagged with its period). Covariates are discrete categories,
stored as ``int`` codes; estimation is fully stratified on exact covariate
values, and ``build_cells`` returns the estimation cell of each covariate
vector.

A dataset that exists is valid: each constructor refuses, with a
``ValueError`` that names the rule and the first rows breaking it, any row
that would land in the wrong cell or in no cell.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .estimators import Cell, PanelCell, RcsCell
from .inference import check_whole

__all__ = ["PanelData", "RcsData", "build_cells", "DEFAULT_MIN_CELL_SIZE"]

DEFAULT_MIN_CELL_SIZE = 2


def _refuse(bad: np.ndarray, rule: str) -> None:
    """Raise a ``ValueError`` naming ``rule`` and the first rows ``bad`` marks, if any."""
    rows = np.flatnonzero(bad)
    if rows.size:
        shown = ", ".join(map(str, rows[:10].tolist())) + (", ..." if rows.size > 10 else "")
        raise ValueError(f"{rule} at rows [{shown}]")


def _repeated_rows(*keys: np.ndarray) -> np.ndarray:
    """A mask of the rows whose key, one value of each of ``keys``, occurred on
    an earlier row."""
    order = np.lexsort(keys[::-1])  # stable: a key's first row leads its run
    same = np.ones(max(len(order) - 1, 0), dtype=bool)
    for key in keys:
        ranked = key[order]
        same &= ranked[1:] == ranked[:-1]  # NaN ids never equal
    repeat = np.zeros(len(order), dtype=bool)
    repeat[order[1:]] = same
    return repeat


def _as_covariates(covariates, n_rows: int) -> np.ndarray:
    """``covariates`` as an (n_rows, k) array of integer codes."""
    x = np.asarray(covariates)
    if x.size == 0:
        x = x.reshape(n_rows, 0)
    if x.ndim != 2 or x.shape[0] != n_rows:
        raise ValueError(f"covariates must be a ({n_rows}, k) array")
    return _as_codes(x, int, "covariates")


def _as_codes(values, dtype, name: str) -> np.ndarray:
    """``values`` as ``dtype`` codes, refused at the rows whose cast would change a value."""
    x = np.asarray(values)
    with np.errstate(invalid="ignore"):
        codes = x.astype(dtype, copy=False)
    if codes is not x:
        changed = np.atleast_1d(codes.astype(x.dtype) != x)
        _refuse(changed.any(axis=tuple(range(1, changed.ndim))),
                f"{name} must hold {'integer codes' if dtype is int else '0/1 flags'}")
    return codes


@dataclass(frozen=True)
class PanelData:
    """Two-period panel: one row per unit, everyone untreated in the first period.

    Refuses a non-finite outcome and a repeated unit id.
    """

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
        object.__setattr__(self, "treated", _as_codes(self.treated, bool, "treated"))
        object.__setattr__(self, "covariates", _as_covariates(self.covariates, n))
        for name in ("unit_ids", "y_pre", "y_post", "treated"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must have one entry per unit")
        _refuse(~np.isfinite(self.y_pre) | ~np.isfinite(self.y_post), "non-finite outcome")
        _refuse(_repeated_rows(self.unit_ids), "duplicate unit id")

    @property
    def n_units(self) -> int:
        return len(self.unit_ids)

    @property
    def n_total(self) -> int:
        """Sample size entering the sqrt(n) scaling (number of units)."""
        return self.n_units

    def _cell(self, code: tuple[int, ...], control: np.ndarray, treated: np.ndarray) -> PanelCell:
        """The cell of the given control and treated unit rows."""
        return PanelCell(code, control_pre=self.y_pre[control], control_post=self.y_post[control],
                         treated_pre=self.y_pre[treated], treated_post=self.y_post[treated])


@dataclass(frozen=True)
class RcsData:
    """Repeated cross sections: one row per observation.

    ``treated`` marks membership in the group treated in the post period
    (pre-period rows of that group carry treated=1 as a group label).
    ``unit_ids`` is optional; when present, (unit, period) pairs must be
    unique. Refuses a non-finite outcome and a period other than 0 or 1.
    """

    y: np.ndarray
    period: np.ndarray
    treated: np.ndarray
    covariates: np.ndarray
    unit_ids: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.y)
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "period", _as_codes(self.period, int, "period"))
        object.__setattr__(self, "treated", _as_codes(self.treated, bool, "treated"))
        object.__setattr__(self, "covariates", _as_covariates(self.covariates, n))
        if self.unit_ids is not None:
            object.__setattr__(self, "unit_ids", np.asarray(self.unit_ids))
        for name in ("y", "period", "treated", "unit_ids"):
            if (column := getattr(self, name)) is not None and column.shape != (n,):
                raise ValueError(f"{name} must have one entry per row")
        _refuse(~np.isfinite(self.y), "non-finite outcome")
        _refuse((self.period != 0) & (self.period != 1), "period not in {0, 1}")
        if self.unit_ids is not None:
            _refuse(_repeated_rows(self.unit_ids, self.period), "duplicate (unit, period) row")

    @property
    def n_rows(self) -> int:
        return len(self.y)

    @property
    def n_total(self) -> int:
        """Sample size entering the sqrt(n) scaling (all observations)."""
        return self.n_rows

    def _cell(self, code: tuple[int, ...], control: np.ndarray, treated: np.ndarray) -> RcsCell:
        """The cell of the given control and treated rows: each group's
        observations per period."""
        c, t = self.period[control], self.period[treated]
        return RcsCell(
            code,
            control_pre=self.y[control[c == 0]],
            control_post=self.y[control[c == 1]],
            treated_pre=self.y[treated[t == 0]],
            treated_post=self.y[treated[t == 1]],
        )


def build_cells(
    dataset: PanelData | RcsData,
    min_cell_size: int = DEFAULT_MIN_CELL_SIZE,
) -> list[Cell]:
    """Partition rows by exact covariate vector into estimation cells,
    ordered lexicographically.

    Every row lands in exactly one cell, whose samples keep row order. A
    cell with a weight arm (``cell.arm_sizes()``) smaller than the whole
    number ``min_cell_size`` is returned with a ``reason`` rather than
    dropped, so callers can report it.
    """
    check_whole("min_cell_size", min_cell_size)
    codes = dataset.covariates
    n, k = codes.shape
    if k == 0:
        groups = [np.arange(n)]
    else:
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
