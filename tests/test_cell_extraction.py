"""build_cells: a cell's samples are the rows of its covariate vector, units
for panel data and observations per period for repeated cross sections, in
row order."""

import numpy as np
import pytest

from qdid.data_model import PanelData, RcsData, build_cells
from qdid.estimators import PanelCell, RcsCell


def _samples(cell):
    return [s.values for s in cell.samples]


def _assert_arrays(actual, expected):
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        np.testing.assert_array_equal(a, e)


def _arms(data, code):
    """Control and treated rows of the covariate vector ``code``."""
    rows = np.flatnonzero(np.all(data.covariates == np.array(code, dtype=int), axis=1))
    return rows[~data.treated[rows]], rows[data.treated[rows]]


@pytest.mark.parametrize("n_covariates", [0, 2])
def test_panel_cells_hold_their_units(n_covariates):
    rng = np.random.default_rng(5)
    n = 40
    data = PanelData(
        unit_ids=np.arange(100, 100 + n),
        y_pre=rng.normal(size=n).round(1),
        y_post=rng.normal(size=n).round(1),
        treated=rng.random(n) < 0.4,
        covariates=rng.integers(0, 2, size=(n, n_covariates)),
    )
    cells = build_cells(data, min_cell_size=1)
    assert sum(c.n_control + c.n_treated for c in cells) == n
    for cell in cells:
        c, t = _arms(data, cell.code)
        assert isinstance(cell, PanelCell)
        assert cell.SAMPLE_ARMS == ("control", "control", "treated", "treated")
        assert cell.arm_sizes() == {"control": len(c), "treated": len(t)}
        assert (cell.n_control, cell.n_treated) == (len(c), len(t))
        _assert_arrays([cell.observed_dy], [data.y_post[c] - data.y_pre[c]])
        _assert_arrays(
            _samples(cell),
            [data.y_pre[c], data.y_post[c], data.y_pre[t], data.y_post[t]],
        )


def test_rcs_cells_hold_their_observations_per_period():
    rng = np.random.default_rng(6)
    n = 120
    data = RcsData(
        y=rng.normal(size=n).round(1),
        period=rng.integers(0, 2, size=n),
        treated=rng.random(n) < 0.5,
        covariates=rng.integers(0, 2, size=(n, 2)),
    )
    cells = build_cells(data, min_cell_size=1)
    assert sum(c.n_control + c.n_treated for c in cells) == n
    arms = ("control_pre", "control_post", "treated_pre", "treated_post")
    for cell in cells:
        c, t = _arms(data, cell.code)
        rows = [
            c[data.period[c] == 0],
            c[data.period[c] == 1],
            t[data.period[t] == 0],
            t[data.period[t] == 1],
        ]
        assert isinstance(cell, RcsCell)
        assert cell.SAMPLE_ARMS == arms
        assert cell.arm_sizes() == {arm: len(r) for arm, r in zip(arms, rows)}
        assert (cell.n_control, cell.n_treated) == (len(c), len(t))
        _assert_arrays(_samples(cell), [data.y[r] for r in rows])


def test_panel_cells_keep_the_datas_control_post_values():
    """A panel cell's control post-period sample is the data's, not the pre
    value plus the change: on a 0.01 grid the two differ, and the sum would
    split the data's tie groups."""
    rng = np.random.default_rng(7)
    n = 400
    data = PanelData(
        unit_ids=np.arange(n),
        y_pre=rng.integers(-300, 300, n) / 100.0,
        y_post=rng.integers(-300, 300, n) / 100.0,
        treated=rng.random(n) < 0.5,
        covariates=rng.integers(0, 2, size=(n, 2)),
    )
    cells = build_cells(data)
    for cell in cells:
        c, _ = _arms(data, cell.code)
        np.testing.assert_array_equal(cell.control_post, data.y_post[c])
        np.testing.assert_array_equal(cell.samples[1].support, np.unique(data.y_post[c]))
    distinct = sum(cell.samples[1].support.size for cell in cells)
    assert distinct == sum(np.unique(data.y_post[_arms(data, c.code)[0]]).size for c in cells)
