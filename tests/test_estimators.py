import numpy as np
import pytest

from qdid.estimators import (
    PanelCell,
    RcsCell,
    cic_qtt,
    counterfactual_cdf_panel,
    counterfactual_cdf_rcs,
    estimate_process,
    treated_shares,
)
from qdid.inference import substream, unconditional_process
from qdid.simulation import DgpSpec, simulate

from oracles import brute_counterfactual_panel


def panel_cell(control_y_pre, control_dy, treated_y_pre, treated_y_post):
    return PanelCell(
        code=(),
        control_y_pre=np.asarray(control_y_pre, dtype=float),
        control_dy=np.asarray(control_dy, dtype=float),
        treated_y_pre=np.asarray(treated_y_pre, dtype=float),
        treated_y_post=np.asarray(treated_y_post, dtype=float),
    )


def rcs_cell(control_pre, control_post, treated_pre, treated_post):
    return RcsCell(
        code=(),
        control_pre=np.asarray(control_pre, dtype=float),
        control_post=np.asarray(control_post, dtype=float),
        treated_pre=np.asarray(treated_pre, dtype=float),
        treated_post=np.asarray(treated_post, dtype=float),
    )


class TestCounterfactualPanel:
    def test_hand_composition(self):
        cell = panel_cell([1, 2], [1, 2], [1, 3], [4, 6])
        res = counterfactual_cdf_panel(cell)
        assert sorted(res.transformed_outcomes.tolist()) == [2.0, 5.0]
        assert res.counterfactual.cdf(2.0) == 0.5
        assert res.counterfactual.cdf(5.0) == 1.0
        assert res.counterfactual.quantile(0.5) == 2.0

    def test_identity_transform_zero_shift(self):
        pre = [1.0, 2.0, 5.0, 7.0]
        cell = panel_cell(pre, [0, 0, 0, 0], pre, [3, 4, 5, 6])
        res = counterfactual_cdf_panel(cell)
        np.testing.assert_array_equal(
            np.sort(res.transformed_outcomes), np.sort(np.asarray(pre))
        )

    def test_degenerate_single_control(self):
        cell = panel_cell([0.0], [4.0], [2.5], [9.0])
        res = counterfactual_cdf_panel(cell)
        assert res.transformed_outcomes.tolist() == [6.5]
        assert res.counterfactual.support.tolist() == [6.5]

    def test_empty_arm_rejected(self):
        cell = panel_cell([1.0], [0.0], [], [])
        with pytest.raises(ValueError):
            counterfactual_cdf_panel(cell)

    def test_transformed_count_equals_controls(self):
        rng = np.random.default_rng(0)
        cell = panel_cell(rng.normal(size=9), rng.normal(size=9), rng.normal(size=5), rng.normal(size=5))
        res = counterfactual_cdf_panel(cell)
        assert len(res.transformed_outcomes) == 9
        assert res.n_control == 9 and res.n_treated == 5


class TestCounterfactualRcs:
    def test_no_time_change_reduces_to_zero_shift(self):
        pre = [1.0, 4.0, 9.0]
        cell = rcs_cell(pre, pre, [2.0, 3.0, 8.0], [1.0, 2.0, 3.0])
        res = counterfactual_cdf_rcs(cell)
        panel_res = counterfactual_cdf_panel(
            panel_cell(pre, [0.0, 0.0, 0.0], [2.0, 3.0, 8.0], [1.0, 2.0, 3.0])
        )
        np.testing.assert_array_equal(
            np.sort(res.transformed_outcomes), np.sort(panel_res.transformed_outcomes)
        )

    def test_rank_matched_changes(self):
        cell = rcs_cell([1.0, 2.0], [3.0, 6.0], [1.0, 2.0], [0.0, 0.0])
        res = counterfactual_cdf_rcs(cell)
        # unit at y_pre=1 gets dy 3-1=2, unit at 2 gets 6-2=4
        np.testing.assert_array_equal(np.sort(res.transformed_outcomes), [3.0, 6.0])

    def test_shifted_control_post(self):
        pre = [1.0, 2.0, 4.0]
        c = 2.5
        cell = rcs_cell(pre, [p + c for p in pre], pre, [0.0, 0.0, 0.0])
        res = counterfactual_cdf_rcs(cell)
        np.testing.assert_array_equal(
            np.sort(res.transformed_outcomes), np.asarray(pre) + c
        )


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
        a = counterfactual_cdf_panel(panel_cell([0.0], [0.0], [1.0, 2.0, 3.0], [1, 2, 3]))
        b = counterfactual_cdf_panel(panel_cell([0.0], [0.0], [1.0], [1.0]))
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
            shifted = panel_cell(
                base.control_y_pre, base.control_dy, base.treated_y_pre,
                base.treated_y_post + c,
            )
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
            d = counterfactual_cdf_panel(cell).counterfactual
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
            res = counterfactual_cdf_panel(cell)
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
            panel_res = counterfactual_cdf_panel(
                panel_cell(y_pre0, y_post0 - y_pre0, y_pre1, y_post1)
            )
            rcs_res = counterfactual_cdf_rcs(rcs_cell(y_pre0, y_post0, y_pre1, y_post1))
            np.testing.assert_array_equal(
                np.sort(panel_res.transformed_outcomes),
                np.sort(rcs_res.transformed_outcomes),
            )

    def test_dgp1_consistency_large_sample(self):
        data = simulate(DgpSpec(variant=1, n_per_arm=10_000, te=1.0), substream(99, 0))
        treated = data.treated
        cell = panel_cell(
            data.y_pre[~treated],
            data.y_post[~treated] - data.y_pre[~treated],
            data.y_pre[treated],
            data.y_post[treated],
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
        res = counterfactual_cdf_panel(cell, w)
        # zero-weight control unit contributes no mass to the counterfactual
        assert res.counterfactual.total == 3.0
        direct = counterfactual_cdf_panel(
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
