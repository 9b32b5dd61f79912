import numpy as np
import pytest

from qdid.data_model import PanelData, RcsData, build_cells
from qdid.estimators import PanelCell


def make_panel(y_pre, y_post, treated, covariates=None, unit_ids=None):
    n = len(y_pre)
    if covariates is None:
        covariates = np.empty((n, 0), dtype=int)
    if unit_ids is None:
        unit_ids = np.arange(n)
    return PanelData(
        unit_ids=unit_ids,
        y_pre=y_pre,
        y_post=y_post,
        treated=treated,
        covariates=covariates,
    )


def make_rcs(period=(0, 0, 1, 1), treated=(False, True, False, True)):
    return RcsData(
        y=np.arange(4.0), period=period, treated=treated, covariates=np.empty((4, 0), dtype=int)
    )


def assert_same_samples(a, b):
    """Two panel cells hold the same samples, in the same order."""
    for name in ("control_pre", "control_post", "treated_pre", "treated_post"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)


class TestBuildCells:
    def test_exact_partition_two_cells(self):
        data = make_panel(
            [0.0, 1.0, 2.0, 3.0],
            [1.0, 2.0, 3.0, 4.0],
            [True, False, True, False],
            covariates=np.array([[0], [0], [1], [1]]),
        )
        cells = build_cells(data, min_cell_size=1)
        assert [c.code for c in cells] == [(0,), (1,)]
        assert all(c.n_treated + c.n_control == 2 for c in cells)

    def test_empty_arity_single_cell(self):
        data = make_panel([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [True, False, False])
        cells = build_cells(data, min_cell_size=1)
        assert len(cells) == 1
        assert cells[0].code == ()
        assert cells[0].n_treated + cells[0].n_control == 3

    def test_cell_without_controls_flagged_not_dropped(self):
        data = make_panel(
            [0.0, 1.0, 2.0],
            [0.0, 1.0, 2.0],
            [True, False, True],
            covariates=np.array([[0], [0], [1]]),
        )
        cells = build_cells(data, min_cell_size=1)
        assert len(cells) == 2
        flagged = cells[1]
        assert flagged.code == (1,)
        assert not flagged.viable
        assert "control" in flagged.reason
        assert cells[0].viable

    def test_partition_exhaustive_and_exclusive(self):
        rng = np.random.default_rng(3)
        n = 200
        data = make_panel(  # a unit's pre-period outcome is its row
            np.arange(n, dtype=float),
            rng.normal(size=n),
            rng.integers(0, 2, n).astype(bool),
            covariates=rng.integers(0, 3, size=(n, 2)),
        )
        cells = build_cells(data, min_cell_size=0)
        seen = np.concatenate([np.concatenate([c.treated_pre, c.control_pre]) for c in cells])
        assert sorted(seen.tolist()) == list(range(n))

    def test_lexicographic_order_and_determinism(self):
        covs = np.array([[1, 0], [0, 1], [0, 0], [1, 1], [0, 1]])
        data = make_panel(
            np.arange(5.0), np.zeros(5), [True, False, True, False, True], covariates=covs
        )
        first = build_cells(data, min_cell_size=0)
        second = build_cells(data, min_cell_size=0)
        assert [c.code for c in first] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert [c.treated_pre.tolist() for c in first] == [[2.0], [4.0], [0.0], []]
        assert [c.control_pre.tolist() for c in first] == [[], [1.0], [], [3.0]]
        for a, b in zip(first, second):
            assert_same_samples(a, b)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int32, float])
    def test_any_code_dtype_gives_the_int64_cells(self, dtype):
        rng = np.random.default_rng(4)
        covs = rng.integers(0, 3, size=(60, 2))
        treated = rng.integers(0, 2, 60).astype(bool)
        rows = np.arange(60.0)
        expect = build_cells(make_panel(rows, -rows, treated, covariates=covs))
        data = make_panel(rows, -rows, treated, covariates=covs.astype(dtype))
        assert data.covariates.dtype == int
        cells = build_cells(data)
        assert [c.code for c in cells] == [c.code for c in expect]
        assert all(type(v) is int for c in cells for v in c.code)
        for a, b in zip(cells, expect):
            assert_same_samples(a, b)

    def test_rcs_viability_checks_all_four_arms(self):
        data = RcsData(
            y=np.arange(5.0),
            period=np.array([0, 1, 0, 1, 0]),
            treated=np.array([False, False, True, True, True]),
            covariates=np.empty((5, 0), dtype=int),
        )
        cells = build_cells(data, min_cell_size=1)
        assert cells[0].viable
        short = build_cells(data, min_cell_size=2)
        assert not short[0].viable
        assert "treated post" in short[0].reason

    def test_a_min_cell_size_that_is_not_whole_is_refused(self):
        data = make_panel([0.0, 1.0], [0.0, 1.0], [True, False])
        with pytest.raises(ValueError, match=r"^min_cell_size must be a whole number, not 2\.5$"):
            build_cells(data, 2.5)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: make_panel(np.arange(6.0), np.arange(6.0), [1, 0] * 3,
                            unit_ids=[1, 1, 2, 2, 3, 3]),
         r"duplicate unit id at rows \[1, 3, 5\]"),
        (lambda: make_rcs(period=[0, 0, 1, 2]), r"period not in \{0, 1\} at rows \[3\]"),
        (lambda: make_panel([0.0, np.nan], [0.0, 1.0], [True, False]),
         r"non-finite outcome at rows \[1\]"),
        (lambda: make_panel([0.0, 1.0], [0.0, 1.0], [True, False], covariates=[[0.5], [0.0]]),
         r"covariates must hold integer codes at rows \[0\]"),
    ],
    ids=["repeated unit", "period 2", "NaN outcome", "fractional code"],
)
def test_a_row_that_would_land_in_the_wrong_cell_or_none_is_refused(build, message):
    """Each of these once gave cells: the repeated units one viable cell, the
    period-2 row no sample, the NaN outcome a viable cell, and the 0.5 code
    the cell (0,)."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


class TestValidate:
    """The row rules the constructors check: a dataset that breaks one is
    refused with the rule and its first rows."""

    def test_clean_panel_accepted(self):
        data = make_panel(np.arange(10.0), np.arange(10.0), [True] * 5 + [False] * 5)
        assert data.n_units == 10

    def test_nan_outcome_rejected_with_row(self):
        y = np.arange(10.0)
        y[3] = np.nan
        with pytest.raises(ValueError, match=r"^non-finite outcome at rows \[3\]$"):
            make_panel(y, np.arange(10.0), [True] * 5 + [False] * 5)

    def test_duplicate_unit_rejected(self):
        with pytest.raises(ValueError, match=r"^duplicate unit id at rows \[1\]$"):
            make_panel([0.0, 1.0], [0.0, 1.0], [True, False], unit_ids=np.array(["a", "a"]))

    def test_rcs_duplicate_unit_period_rejected(self):
        with pytest.raises(ValueError, match=r"^duplicate \(unit, period\) row at rows \[1\]$"):
            RcsData(
                y=np.zeros(3),
                period=np.array([0, 0, 1]),
                treated=np.array([True, True, False]),
                covariates=np.empty((3, 0), dtype=int),
                unit_ids=np.array(["u1", "u1", "u1"]),
            )

    def test_rcs_without_unit_ids_accepted(self):
        data = RcsData(
            y=np.zeros(4),
            period=np.array([0, 0, 1, 1]),
            treated=np.array([True, False, True, False]),
            covariates=np.empty((4, 0), dtype=int),
        )
        assert data.unit_ids is None and data.n_rows == 4

    def test_rcs_bad_period_rejected(self):
        with pytest.raises(ValueError, match=r"^period not in \{0, 1\} at rows \[1\]$"):
            RcsData(
                y=np.zeros(2),
                period=np.array([0, 2]),
                treated=np.array([True, False]),
                covariates=np.empty((2, 0), dtype=int),
            )

    def test_fractional_covariates_rejected(self):
        covariates = np.array([[0.5], [1.0]])
        with pytest.raises(ValueError,
                           match=r"^covariates must hold integer codes at rows \[0\]$"):
            make_panel([0.0, 1.0], [0.0, 1.0], [True, False], covariates=covariates)

    def test_integer_valued_float_covariates_accepted(self):
        covariates = np.array([[2.0], [1.0]])
        data = make_panel([0.0, 1.0], [0.0, 1.0], [True, False], covariates=covariates)
        assert data.covariates.dtype == int and data.covariates.tolist() == [[2], [1]]


class TestConstruction:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_panel([0.0, 1.0], [0.0], [True, False])
        with pytest.raises(ValueError):
            make_panel([0.0, 1.0], [0.0, 1.0], [True, False], covariates=np.zeros((3, 1)))
        with pytest.raises(ValueError, match="^unit_ids must have one entry per unit$"):
            make_panel(np.zeros(4), np.zeros(4), [0, 1, 0, 1], unit_ids=np.arange(8).reshape(4, 2))
        with pytest.raises(ValueError, match="^y must have one entry per row$"):
            RcsData(y=np.zeros((4, 2)), period=[0, 0, 1, 1], treated=[0, 1, 0, 1],
                    covariates=np.empty((4, 0), dtype=int))

    def test_n_total(self):
        panel = make_panel(np.zeros(4), np.zeros(4), [True, False, True, False])
        assert panel.n_total == 4
        rcs = RcsData(
            y=np.zeros(6),
            period=np.array([0, 0, 0, 1, 1, 1]),
            treated=np.array([True, False, True, False, True, False]),
            covariates=np.empty((6, 0), dtype=int),
        )
        assert rcs.n_total == 6

    @pytest.mark.parametrize("column", ["unit_ids", "period"])
    def test_an_rcs_column_of_the_wrong_length_is_named(self, column):
        columns = {"unit_ids": np.arange(4), "period": np.array([0, 0, 1, 1]), column: np.zeros(3)}
        with pytest.raises(ValueError, match=f"^{column} must have one entry per row$"):
            RcsData(y=np.arange(4.0), treated=np.array([False, True, False, True]),
                    covariates=np.empty((4, 0), dtype=int), **columns)

    @pytest.mark.parametrize("period", [0.6, 1.7, np.nan])
    def test_a_period_the_cast_would_change_is_refused(self, period):
        with pytest.raises(ValueError, match="period must hold integer codes"):
            make_rcs(period=[0, 0, period, 1])

    @pytest.mark.parametrize("flag", [2, 0.5])
    @pytest.mark.parametrize("design", ["panel", "rcs"])
    def test_a_treated_flag_the_cast_would_change_is_refused(self, design, flag):
        with pytest.raises(ValueError, match="treated must hold 0/1 flags"):
            if design == "panel":
                make_panel(np.zeros(4), np.zeros(4), [0, flag, 0, 1])
            else:
                make_rcs(treated=[0, flag, 0, 1])

    def test_codes_the_cast_keeps_are_taken(self):
        """Integral floats and 0/1 integers are cast; arrays of the target
        dtype are taken as they are, without a copy."""
        rcs = make_rcs(period=[0.0, 0.0, 1.0, 1.0], treated=[0, 1, 0, 1])
        assert rcs.period.dtype == int and rcs.period.tolist() == [0, 0, 1, 1]
        assert rcs.treated.tolist() == [False, True, False, True]
        period, treated = np.array([0, 0, 1, 1]), np.array([False, True, False, True])
        rcs = make_rcs(period=period, treated=treated)
        assert rcs.period is period and rcs.treated is treated
        assert make_panel(np.zeros(4), np.zeros(4), treated).treated is treated

    def test_cell_label(self):
        one = dict.fromkeys(("control_pre", "control_post", "treated_pre", "treated_post"),
                            np.array([1.0]))
        assert PanelCell((), **one).label() == "all"
        assert PanelCell((1, 2), **one).label() == "1|2"
