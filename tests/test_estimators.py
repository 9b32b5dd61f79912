from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from qdid.empirical import SortedSample
from qdid.estimators import (
    PanelCell,
    RcsCell,
    cic_qtt,
    counterfactual_cdf,
    counterfactual_rows,
    estimate_process,
    estimate_rows,
    treated_shares,
)
from qdid.inference import draw_weights, substream, unconditional_process
from qdid.simulation import DgpSpec, simulate

from oracles import brute_counterfactual_panel, scalar_counterfactual_cdf


def panel_cell(control_pre, control_dy, treated_pre, treated_post):
    """A panel cell whose control units start at ``control_pre`` and change
    by ``control_dy``."""
    control_pre = np.asarray(control_pre, dtype=float)
    return PanelCell(
        (),
        control_pre=control_pre,
        control_post=control_pre + np.asarray(control_dy, dtype=float),
        treated_pre=np.asarray(treated_pre, dtype=float),
        treated_post=np.asarray(treated_post, dtype=float),
    )


def rcs_cell(control_pre, control_post, treated_pre, treated_post):
    return RcsCell(
        code=(),
        control_pre=np.asarray(control_pre, dtype=float),
        control_post=np.asarray(control_post, dtype=float),
        treated_pre=np.asarray(treated_pre, dtype=float),
        treated_post=np.asarray(treated_post, dtype=float),
    )


class _KernelRow:
    """Row 0 of a ``StepRows``, read through the names of a ``StepDistribution``."""

    def __init__(self, rows):
        self._rows = rows
        self._points = rows.support[0]
        keep = rows.masses[0] > 0
        self.support, self.masses = self._points[keep], rows.masses[0][keep]

    def cdf(self, y):
        below = np.flatnonzero(self._points <= y)
        return float(self._rows.cum_probs[0, below[-1]]) if below.size else 0.0

    def quantile(self, tau):
        return float(self._rows.quantile(np.array([tau]))[0, 0])


def counterfactuals(cell):
    """(counterfactual CDF, transformed outcomes) of the scalar reference
    and of row 0 of the kernel under unit weights, to hold to the same
    expectations. The kernel's support row holds every transformed outcome,
    sorted."""
    reference = scalar_counterfactual_cdf(cell)
    _, kernel = counterfactual_rows(cell, cell.unit_weights())
    return [(reference.counterfactual, reference.transformed_outcomes),
            (_KernelRow(kernel), kernel.support[0])]


class TestCounterfactualPanel:
    def test_hand_composition(self):
        cell = panel_cell([1, 2], [1, 2], [1, 3], [4, 6])
        for cdf, transformed in counterfactuals(cell):
            assert sorted(transformed.tolist()) == [2.0, 5.0]
            assert cdf.cdf(2.0) == 0.5
            assert cdf.cdf(5.0) == 1.0
            assert cdf.quantile(0.5) == 2.0

    def test_identity_transform_zero_shift(self):
        pre = [1.0, 2.0, 5.0, 7.0]
        cell = panel_cell(pre, [0, 0, 0, 0], pre, [3, 4, 5, 6])
        for _, transformed in counterfactuals(cell):
            np.testing.assert_array_equal(np.sort(transformed), np.sort(np.asarray(pre)))

    def test_degenerate_single_control(self):
        cell = panel_cell([0.0], [4.0], [2.5], [9.0])
        for cdf, transformed in counterfactuals(cell):
            assert transformed.tolist() == [6.5]
            assert cdf.support.tolist() == [6.5]

    def test_empty_arm_rejected(self):
        cell = panel_cell([1.0], [0.0], [], [])
        with pytest.raises(ValueError):
            counterfactual_cdf(cell)
        with pytest.raises(ValueError):
            counterfactual_rows(cell, cell.unit_weights())

    def test_transformed_count_equals_controls(self):
        rng = np.random.default_rng(0)
        cell = panel_cell(rng.normal(size=9), rng.normal(size=9), rng.normal(size=5), rng.normal(size=5))
        for _, transformed in counterfactuals(cell):
            assert len(transformed) == 9
        res = counterfactual_cdf(cell)
        assert res.n_control == 9 and res.n_treated == 5


class TestCounterfactualRcs:
    def test_no_time_change_reduces_to_zero_shift(self):
        pre = [1.0, 4.0, 9.0]
        cell = rcs_cell(pre, pre, [2.0, 3.0, 8.0], [1.0, 2.0, 3.0])
        panel = panel_cell(pre, [0.0, 0.0, 0.0], [2.0, 3.0, 8.0], [1.0, 2.0, 3.0])
        for (_, transformed), (_, panel_transformed) in zip(
            counterfactuals(cell), counterfactuals(panel)
        ):
            np.testing.assert_array_equal(np.sort(transformed), np.sort(panel_transformed))

    def test_rank_matched_changes(self):
        cell = rcs_cell([1.0, 2.0], [3.0, 6.0], [1.0, 2.0], [0.0, 0.0])
        for _, transformed in counterfactuals(cell):
            # unit at y_pre=1 gets dy 3-1=2, unit at 2 gets 6-2=4
            np.testing.assert_array_equal(np.sort(transformed), [3.0, 6.0])

    def test_shifted_control_post(self):
        pre = [1.0, 2.0, 4.0]
        c = 2.5
        cell = rcs_cell(pre, [p + c for p in pre], pre, [0.0, 0.0, 0.0])
        for _, transformed in counterfactuals(cell):
            np.testing.assert_array_equal(np.sort(transformed), np.asarray(pre) + c)


class TestCqtt:
    def test_zero_when_distributions_equal(self):
        cell = panel_cell([1, 2], [0, 0], [1, 2], [1, 2])
        proc = estimate_process(cell, np.linspace(0.1, 0.9, 9), "ddid")
        np.testing.assert_array_equal(proc.values, np.zeros(9))

    def test_location_shift_is_constant_effect(self):
        cell = panel_cell([1, 2], [0, 0], [1, 2], [2, 3])
        proc = estimate_process(cell, [0.25, 0.5, 0.75], "ddid")
        np.testing.assert_array_equal(proc.values, np.ones(3))

    def test_hand_value_at_median(self):
        cell = panel_cell([1, 2], [1, 2], [1, 3], [4, 6])
        proc = estimate_process(cell, [0.5], "ddid")
        assert proc.values.tolist() == [2.0]

    def test_grid_validation(self):
        cell = panel_cell([1, 2], [0, 0], [1, 2], [1, 2])
        for bad in ([0.0, 0.5], [0.5, 1.0], [0.5, 0.5], [0.9, 0.1]):
            with pytest.raises(ValueError):
                estimate_process(cell, bad, "ddid")


class TestUnconditional:
    def test_single_cell_equals_cell_process(self):
        cell = panel_cell([1, 2, 3], [1, 0, 2], [2, 3, 4], [5, 6, 7])
        grid = np.linspace(0.1, 0.9, 17)
        single = estimate_process(cell, grid, "ddid")
        mixed = unconditional_process([(0, cell)], grid)
        np.testing.assert_array_equal(single.values, mixed.values)

    def test_identical_cells_equal_either(self):
        cell = panel_cell([1, 2, 3], [1, 0, 2], [2, 3, 4], [5, 6, 7])
        grid = np.linspace(0.1, 0.9, 9)
        mixed = unconditional_process([(0, cell), (1, cell)], grid)
        np.testing.assert_array_equal(mixed.values, estimate_process(cell, grid, "ddid").values)

    def test_two_point_mass_cells(self):
        a = panel_cell([0.0], [0.0], [0.0], [1.0])
        b = panel_cell([2.0], [0.0], [2.0], [3.0])
        grid = np.linspace(0.05, 0.95, 19)
        mixed = unconditional_process([(0, a), (1, b)], grid)
        np.testing.assert_array_equal(mixed.values, np.ones(19))

    def test_shares(self):
        a = counterfactual_cdf(panel_cell([0.0], [0.0], [1.0, 2.0, 3.0], [1, 2, 3]))
        b = counterfactual_cdf(panel_cell([0.0], [0.0], [1.0], [1.0]))
        np.testing.assert_allclose(treated_shares([a, b]), [0.75, 0.25])

    def test_empty_cell_list_rejected(self):
        with pytest.raises(ValueError):
            unconditional_process([], [0.5])


class TestCic:
    def test_all_samples_equal_zero_effect(self):
        s = [1.0, 2.0, 3.0, 4.0]
        proc = cic_qtt(s, s, s, s, [0.1, 0.5, 0.9])
        np.testing.assert_array_equal(proc.values, np.zeros(3))

    def test_common_shift_zero_effect(self):
        s = [1.0, 2.0, 3.0, 4.0]
        shifted = [x + 2.0 for x in s]
        proc = cic_qtt(s, shifted, s, shifted, [0.2, 0.5, 0.8])
        np.testing.assert_array_equal(proc.values, np.zeros(3))

    def test_treated_shift_unit_effect(self):
        s = [1.0, 2.0, 3.0, 4.0]
        proc = cic_qtt(s, s, s, [x + 1.0 for x in s], [0.2, 0.5, 0.8])
        np.testing.assert_array_equal(proc.values, np.ones(3))

    def test_hand_composition(self):
        proc = cic_qtt([1.0, 2.0], [10.0, 20.0], [1.0, 2.0], [5.0, 6.0], [0.5, 0.9])
        # counterfactual CDF at 10 is F_treated_pre(1) = 0.5, at 20 it is 1
        np.testing.assert_array_equal(proc.values, [5.0 - 10.0, 6.0 - 20.0])

    def test_tau_beyond_composed_support_clips(self):
        # treated pre extends above control pre: composed cdf tops out below 1
        proc = cic_qtt([1.0, 2.0], [1.0, 2.0], [1.0, 50.0], [1.0, 50.0], [0.9])
        assert np.isfinite(proc.values).all()


def tied_samples(rng, n0, n1):
    """Four samples on a 0.01 grid, with ties: control post - pre + pre is
    not always control post here."""
    def draw(n):
        return rng.integers(-150, 150, n) / 100.0

    return dict(control_pre=draw(n0), control_post=draw(n0), treated_pre=draw(n1),
                treated_post=draw(n1))


class TestCellLayout:
    def test_a_panel_cells_cic_is_the_rcs_cic_of_its_four_samples(self):
        """Panel cic reads the control post-period sample as the data give
        it, bit for bit as an RCS cell does; a draw's control weights enter
        both control samples of the panel cell, as they would the RCS cell's."""
        rng = np.random.default_rng(21)
        grid = np.round(0.05 + 0.01 * np.arange(91), 12)
        moved = 0
        for i in range(20):
            samples = tied_samples(rng, *rng.integers(5, 60, size=2))
            panel, rcs = PanelCell((), **samples), RcsCell((), **samples)
            moved += not np.array_equal(panel.control_pre + panel.observed_dy, panel.control_post)
            np.testing.assert_array_equal(
                estimate_process(panel, grid, "cic").values,
                estimate_process(rcs, grid, "cic").values,
            )
            w = draw_weights(panel.arm_sizes(), "multinomial", substream(21, i))
            both = {"control_pre": w["control"], "control_post": w["control"],
                    "treated_pre": w["treated"], "treated_post": w["treated"]}
            np.testing.assert_array_equal(
                estimate_process(panel, grid, "cic", w).values,
                estimate_process(rcs, grid, "cic", both).values,
            )
        assert moved > 0  # the old layout's pre + change would have differed

    def test_a_panel_cell_derives_its_control_change(self):
        samples = tied_samples(np.random.default_rng(22), 7, 4)
        cell = PanelCell((3,), **samples)
        np.testing.assert_array_equal(cell.observed_dy,
                                      samples["control_post"] - samples["control_pre"])
        assert cell.observed_dy is cell.observed_dy  # cached
        for sample, name in zip(cell.samples, RcsCell.SAMPLE_ARMS):
            np.testing.assert_array_equal(sample.values, samples[name])
        assert RcsCell((3,), **samples).observed_dy is None

    @pytest.mark.parametrize("group", ["control", "treated"])
    def test_a_panel_cell_needs_one_post_value_per_unit(self, group):
        samples = tied_samples(np.random.default_rng(23), 3, 3)
        samples[f"{group}_post"] = np.r_[samples[f"{group}_post"], 0.5]
        with pytest.raises(ValueError, match=r"^cell \(\): each group's pre and post samples "
                                             r"must hold one value per unit$"):
            PanelCell((), **samples)
        RcsCell((), **samples)  # unlinked samples may differ in size

    @pytest.mark.parametrize("kind", [PanelCell, RcsCell])
    def test_a_cells_samples_are_passed_by_name(self, kind):
        """A positional call, as in the old (pre, change, pre, post) layout,
        is refused rather than read as four samples."""
        samples = list(tied_samples(np.random.default_rng(24), 3, 3).values())
        with pytest.raises(TypeError):
            kind((), *samples)


class TestProperties:
    def test_location_equivariance_exact(self):
        rng = np.random.default_rng(11)
        grid = np.linspace(0.05, 0.95, 19)

        def dyadic(size):
            # multiples of 1/1024: adding an integer constant is exact
            return rng.integers(-20000, 20000, size) / 1024.0

        for _ in range(20):
            n0, n1 = rng.integers(3, 30, size=2)
            base = panel_cell(dyadic(n0), dyadic(n0), dyadic(n1), dyadic(n1))
            c = 1.0
            shifted = replace(base, treated_post=base.treated_post + c)
            v0 = estimate_process(base, grid, "ddid").values
            v1 = estimate_process(shifted, grid, "ddid").values
            np.testing.assert_array_equal(v1, v0 + c)

    def test_control_shift_passthrough_exact(self):
        rng = np.random.default_rng(12)
        grid = np.linspace(0.05, 0.95, 19)
        for _ in range(20):
            n0, n1 = rng.integers(3, 30, size=2)
            y_pre0 = rng.integers(-20, 20, n0).astype(float)
            dy = rng.integers(-5, 5, n0).astype(float)
            y_pre1 = rng.integers(-20, 20, n1).astype(float)
            y_post1 = rng.integers(-20, 20, n1).astype(float)
            c = 4.0
            v0 = estimate_process(panel_cell(y_pre0, dy, y_pre1, y_post1), grid, "ddid").values
            v1 = estimate_process(panel_cell(y_pre0, dy + c, y_pre1, y_post1), grid, "ddid").values
            np.testing.assert_array_equal(v1, v0 - c)

    def test_counterfactual_is_proper_cdf(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n0, n1 = rng.integers(2, 25, size=2)
            cell = panel_cell(
                rng.normal(size=n0), rng.normal(size=n0),
                rng.normal(size=n1), rng.normal(size=n1),
            )
            d = counterfactual_cdf(cell).counterfactual
            assert np.all(np.diff(d.support) > 0)
            assert np.all(d.masses >= 0)
            assert abs(d.cum_probs[-1] - 1.0) < 1e-12

    def test_brute_force_oracle_small_instances(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            n0, n1 = rng.integers(2, 7, size=2)
            y_pre0 = rng.integers(-5, 6, n0).astype(float)
            dy = rng.integers(-3, 4, n0).astype(float)
            y_pre1 = rng.integers(-5, 6, n1).astype(float)
            cell = panel_cell(y_pre0, dy, y_pre1, rng.integers(-5, 6, n1).astype(float))
            res = counterfactual_cdf(cell)
            transformed, table = brute_counterfactual_panel(
                list(zip(y_pre0.tolist(), dy.tolist())), y_pre1.tolist()
            )
            assert sorted(res.transformed_outcomes.tolist()) == transformed
            assert res.counterfactual.support.tolist() == [y for y, _ in table]
            assert res.counterfactual.masses.tolist() == [m for _, m in table]

    def test_rcs_matches_panel_under_rank_invariance(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            n0, n1 = rng.integers(3, 25, size=2)
            y_pre0 = rng.normal(size=n0)
            # control keeps its rank: post outcomes assigned in pre-rank order
            y_post0 = np.sort(rng.normal(loc=1.0, size=n0))[np.argsort(np.argsort(y_pre0))]
            y_pre1 = rng.normal(loc=0.5, size=n1)
            y_post1 = rng.normal(loc=1.5, size=n1)
            panel_res = counterfactual_cdf(PanelCell(
                (), control_pre=y_pre0, control_post=y_post0, treated_pre=y_pre1,
                treated_post=y_post1,
            ))
            rcs_res = counterfactual_cdf(rcs_cell(y_pre0, y_post0, y_pre1, y_post1))
            np.testing.assert_array_equal(
                np.sort(panel_res.transformed_outcomes),
                np.sort(rcs_res.transformed_outcomes),
            )

    def test_dgp1_consistency_large_sample(self):
        data = simulate(DgpSpec(variant=1, n_per_arm=10_000, te=1.0), substream(99, 0))
        treated = data.treated
        cell = PanelCell(
            (),
            control_pre=data.y_pre[~treated],
            control_post=data.y_post[~treated],
            treated_pre=data.y_pre[treated],
            treated_post=data.y_post[treated],
        )
        proc = estimate_process(cell, [0.1, 0.5, 0.9], "ddid")
        assert np.all(np.abs(proc.values - 1.0) < 0.1)


class TestEstimateProcess:
    def test_dispatch(self):
        p = panel_cell([1, 2], [0, 0], [1, 2], [2, 3])
        r = rcs_cell([1, 2], [1, 2], [1, 2], [2, 3])
        grid = [0.5]
        assert estimate_process(p, grid, "ddid").values.tolist() == [1.0]
        assert estimate_process(r, grid, "ddid").values.tolist() == [1.0]
        assert estimate_process(p, grid, "cic").values.tolist() == [1.0]
        assert estimate_process(r, grid, "cic").values.tolist() == [1.0]
        with pytest.raises(ValueError):
            estimate_process(p, grid, "nope")

    def test_bootstrap_weights_thread_through(self):
        cell = panel_cell([1, 2, 3], [1, 0, 2], [2, 3, 4], [5, 6, 7])
        w = {"control": np.array([2.0, 0.0, 1.0]), "treated": np.array([1.0, 1.0, 1.0])}
        res = counterfactual_cdf(cell, w)
        # zero-weight control unit contributes no mass to the counterfactual
        assert res.counterfactual.total == 3.0
        direct = counterfactual_cdf(
            panel_cell([1, 1, 3], [1, 1, 2], [2, 3, 4], [5, 6, 7])
        )
        np.testing.assert_array_equal(
            res.counterfactual.support, direct.counterfactual.support
        )
        np.testing.assert_array_equal(
            res.counterfactual.masses, direct.counterfactual.masses
        )


BAD_WEIGHTS = {
    "negative": lambda n: np.r_[-1.0, np.ones(n - 1)],
    "all zero": np.zeros,
    "wrong length": lambda n: np.ones(n + 1),
    "nan": lambda n: np.r_[np.nan, np.ones(n - 1)],
    "inf": lambda n: np.r_[np.ones(n - 1), np.inf],
}
GUARD_CELLS = (
    panel_cell([1, 2, 3], [1, 0, 2], [2, 3, 4], [5, 6, 7]),
    rcs_cell([1, 2, 3], [2, 4, 5, 9], [0, 3], [5, 6, 8]),
)


@pytest.mark.parametrize("estimator", ["ddid", "cic"])
@pytest.mark.parametrize("bad", BAD_WEIGHTS)
def test_estimate_process_rejects_bad_weights(bad, estimator):
    for cell in GUARD_CELLS:
        sizes = cell.arm_sizes()
        for arm, n in sizes.items():
            weights = {a: np.ones(m) for a, m in sizes.items()}
            weights[arm] = BAD_WEIGHTS[bad](n)
            with pytest.raises(ValueError):
                estimate_process(cell, [0.25, 0.5, 0.75], estimator, weights)


@pytest.mark.parametrize("bad", BAD_WEIGHTS)
def test_cic_qtt_rejects_bad_weights(bad):
    samples = GUARD_CELLS[1].samples
    for k, sample in enumerate(samples):
        weights = [np.ones(len(s)) for s in samples]
        weights[k] = BAD_WEIGHTS[bad](len(sample))
        with pytest.raises(ValueError):
            cic_qtt(*samples, [0.25, 0.5, 0.75], weights=tuple(weights))


@pytest.mark.parametrize("estimator", ["ddid", "cic"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_estimate_process_rejects_non_finite_samples(value, estimator):
    for make in (panel_cell, rcs_cell):
        for k in range(4):
            samples = [[1.0, 2.0, 3.0] for _ in range(4)]
            samples[k] = [1.0, value, 3.0]
            with pytest.raises(ValueError):
                estimate_process(make(*samples), [0.25, 0.5, 0.75], estimator)


@pytest.mark.parametrize(
    "cell, estimators, refit",
    [
        (GUARD_CELLS[0], ("ddid",), [0, 2, 3]),  # panel ddid reads the observed change
        (GUARD_CELLS[0], ("ddid", "cic"), [0, 1, 2, 3]),
        (GUARD_CELLS[0], ("cic",), [0, 1, 2, 3]),
        (GUARD_CELLS[1], ("ddid",), [0, 1, 2, 3]),  # RCS ddid rank-matches the change
    ],
)
def test_the_kernel_refits_only_the_samples_it_reads(cell, estimators, refit):
    fit_rows = SortedSample.fit_rows
    with mock.patch.object(SortedSample, "fit_rows", autospec=True, side_effect=fit_rows) as fit:
        estimate_rows(cell, [0.25, 0.5, 0.75], cell.unit_weights(), estimators)
    fitted = [call.args[0] for call in fit.call_args_list]
    assert [next(k for k, s in enumerate(cell.samples) if s is f) for f in fitted] == refit
