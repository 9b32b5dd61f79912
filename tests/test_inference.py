import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdid import estimators, inference
from qdid.estimators import PanelCell, RcsCell, estimate_process, estimate_rows
from qdid.inference import (
    BootstrapConfig,
    analyze_cell,
    analyze_cells,
    analyze_unconditional,
    bootstrap_process,
    draw_weights,
    _order_index,
    empirical_quantile,
    ks_test,
    pointwise_se,
    substream,
)


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


def random_cell(rng, n0=20, n1=20, effect=0.0):
    return panel_cell(
        rng.normal(size=n0),
        rng.normal(size=n0),
        rng.normal(size=n1),
        rng.normal(size=n1) + effect,
    )


class TestConfig:
    def test_defaults(self):
        c = BootstrapConfig()
        assert c.iterations == 1000 and c.alpha == 0.05 and c.scheme == "multinomial"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"iterations": 0},
            {"alpha": 0.0},
            {"alpha": 1.0},
            {"scheme": "jackknife"},
            {"seed": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            BootstrapConfig(**kwargs)

    @pytest.mark.parametrize("field, value", [("iterations", 2.5), ("seed", 1.5), ("seed", 2.0)])
    def test_a_count_or_seed_must_be_a_whole_number(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be a whole number, not {value!r}$"):
            BootstrapConfig(**{field: value})
        assert getattr(BootstrapConfig(**{field: np.int64(3)}), field) == 3


def one_arm_weights(n, scheme, rng):
    return draw_weights({"arm": n}, scheme, rng)["arm"]


class TestWeights:
    def test_multinomial_sums_exact(self):
        rng = substream(0, 1)
        for n in (1, 2, 7, 40):
            for _ in range(50):
                w = one_arm_weights(n, "multinomial", rng)
                assert w.sum() == n
                assert np.all(w >= 0)
                assert np.all(w == np.floor(w))

    def test_singleton_arm_always_one(self):
        rng = substream(0, 2)
        for _ in range(20):
            assert one_arm_weights(1, "multinomial", rng).tolist() == [1.0]
            assert one_arm_weights(1, "dirichlet", rng)[0] == pytest.approx(1.0)

    def test_multinomial_mean_weight(self):
        rng = substream(0, 3)
        draws = np.array([one_arm_weights(5, "multinomial", rng) for _ in range(10_000)])
        assert abs(draws[:, 0].mean() - 1.0) < 0.05

    def test_dirichlet_positive_mean_one(self):
        rng = substream(0, 4)
        w = one_arm_weights(50, "dirichlet", rng)
        assert np.all(w > 0)
        assert w.sum() == pytest.approx(50.0)

    def test_arm_dict_sorted_order_reproducible(self):
        sizes = {"treated": 4, "control": 3}
        a = draw_weights(sizes, "multinomial", substream(7, 0))
        b = draw_weights(sizes, "multinomial", substream(7, 0))
        assert set(a) == {"control", "treated"}
        np.testing.assert_array_equal(a["control"], b["control"])
        np.testing.assert_array_equal(a["treated"], b["treated"])

    def test_empty_arm_refused_and_no_arms_drawn(self):
        with pytest.raises(ValueError, match="arm size must be >= 1"):
            draw_weights({"control": 3, "treated": 0}, "multinomial", substream(0, 5))
        assert draw_weights({}, "dirichlet", substream(0, 5)) == {}


class TestSubstream:
    def test_deterministic_and_keyed(self):
        a = substream(42, 1, 2).integers(0, 1000, 5)
        b = substream(42, 1, 2).integers(0, 1000, 5)
        c = substream(42, 1, 3).integers(0, 1000, 5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestBootstrapProcess:
    def test_deterministic_rerun(self):
        cell = random_cell(substream(1, 0))
        cfg = BootstrapConfig(iterations=5, seed=123)
        grid = np.linspace(0.1, 0.9, 9)
        d1 = bootstrap_process(cell, grid, cfg)
        d2 = bootstrap_process(cell, grid, cfg)
        np.testing.assert_array_equal(d1, d2)

    def test_degenerate_data_all_draws_zero(self):
        cell = panel_cell([2.0] * 6, [0.0] * 6, [2.0] * 6, [2.0] * 6)
        draws = bootstrap_process(cell, [0.25, 0.5, 0.75], BootstrapConfig(iterations=40, seed=0))
        np.testing.assert_array_equal(draws, np.zeros((40, 3)))

    def test_shape_and_independent_cells_differ(self):
        cell = random_cell(substream(2, 0))
        cfg = BootstrapConfig(iterations=8, seed=5)
        grid = [0.5]
        d0 = bootstrap_process(cell, grid, cfg, cell_index=0)
        d1 = bootstrap_process(cell, grid, cfg, cell_index=1)
        assert d0.shape == (8, 1)
        assert not np.array_equal(d0, d1)


class TestEmpiricalQuantile:
    def test_generalized_inverse(self):
        assert empirical_quantile([3.0, 1.0, 2.0], 1 / 3) == 1.0
        assert empirical_quantile([3.0, 1.0, 2.0], 0.34) == 2.0
        assert empirical_quantile([3.0, 1.0, 2.0], 1.0) == 3.0
        with pytest.raises(ValueError):
            empirical_quantile([1.0], 0.0)

    def test_alpha_naming_convention(self):
        # 190th of 200 sorted values at level 0.95
        values = np.arange(1.0, 201.0)
        assert empirical_quantile(values, 0.95) == 190.0

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 300),
        st.floats(0.0, 1.0, exclude_max=True),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 4, 10**6]),
    )
    def test_one_sort_gives_the_quantile_of_every_column(self, n, alpha, seed, levels):
        """run_mc's critical values: one order statistic of the column-sorted
        deviations, the same index at every tau."""
        deviations = substream(seed, 0).integers(0, levels, size=(n, 5)) / levels
        critical = np.sort(deviations, axis=0)[_order_index(n, 1.0 - alpha)]
        expected = [empirical_quantile(deviations[:, j], 1.0 - alpha) for j in range(5)]
        np.testing.assert_array_equal(critical, expected)
        np.testing.assert_array_equal(empirical_quantile(deviations, 1.0 - alpha), expected)
        assert all(type(value) is float for value in expected)


class TestKs:
    def test_zero_process_never_rejects(self):
        draws = substream(3, 0).normal(size=(100, 5))
        res = ks_test(np.zeros(5), draws, n_total=64, alpha=0.05)
        assert res.statistic == 0.0
        assert not res.reject

    def test_statistic_scaling(self):
        draws = np.ones((10, 3))
        res = ks_test(np.ones(3), draws, n_total=100, alpha=0.05)
        assert res.statistic == 10.0

    def test_critical_value_non_increasing_in_alpha(self):
        rng = substream(4, 0)
        values = rng.normal(size=7)
        draws = values + rng.normal(size=(200, 7)) * 0.3
        crits = [
            ks_test(values, draws, 50, a).critical_value for a in (0.01, 0.05, 0.1, 0.5)
        ]
        assert all(x >= y for x, y in zip(crits, crits[1:]))
        assert all(c >= 0 for c in crits)

    def test_band_test_duality_exact(self):
        rng = substream(5, 0)
        for i in range(30):
            values = rng.normal(size=9) * rng.uniform(0, 0.5)
            draws = values + rng.normal(size=(60, 9)) * 0.2
            res = ks_test(values, draws, n_total=40, alpha=0.05)
            lower = values - res.band_half_width
            upper = values + res.band_half_width
            zero_escapes = bool(np.any((lower > 0) | (upper < 0)))
            assert zero_escapes == res.reject

    def test_draws_at_the_estimate_give_a_band_of_width_zero(self):
        values = np.array([1.0, -2.0, 0.5])
        res = ks_test(values, np.tile(values, (10, 1)), n_total=100, alpha=0.05)
        assert res.critical_value == 0.0 and res.band_half_width == 0.0
        assert res.reject


def test_every_report_band_is_the_half_width_that_decided_it():
    """Two cells, ddid and cic, and the unconditional mixture: each report's
    band is its estimate -/+ critical value / sqrt(n), bit for bit, and it
    rejects exactly when zero leaves the band."""
    rng = substream(12, 0)
    cells = [(0, random_cell(rng, effect=0.6)), (1, random_cell(rng, n0=15, n1=25))]
    grid = np.linspace(0.1, 0.9, 9)
    config = BootstrapConfig(iterations=40, seed=4)
    per_cell, mixture = analyze_cells(cells, grid, config, ("ddid", "cic"), 80, True)
    reports = [rep for by_name in per_cell for rep in by_name.values()] + [mixture]
    assert len(reports) == 5
    for rep in reports:
        half = rep.critical_value / math.sqrt(rep.process.n_total)
        np.testing.assert_array_equal(rep.lower, rep.process.values - half)
        np.testing.assert_array_equal(rep.upper, rep.process.values + half)
        assert rep.reject == bool(np.any((rep.lower > 0) | (rep.upper < 0)))
    assert {rep.reject for rep in reports} == {False, True}


class TestPointwiseSe:
    def test_identical_draws_zero(self):
        np.testing.assert_array_equal(pointwise_se(np.ones((30, 4))), np.zeros(4))

    def test_two_point_sd(self):
        draws = np.array([[0.0], [2.0]])
        assert pointwise_se(draws)[0] == pytest.approx(math.sqrt(2.0))

    def test_needs_two_draws(self):
        with pytest.raises(ValueError):
            pointwise_se(np.ones((1, 3)))


class TestAnalyze:
    def test_report_fields_and_determinism(self):
        cell = random_cell(substream(6, 0), effect=0.8)
        cfg = BootstrapConfig(iterations=60, seed=9)
        grid = np.linspace(0.1, 0.9, 5)
        rep1 = analyze_cell(cell, grid, cfg, n_total=40)
        rep2 = analyze_cell(cell, grid, cfg, n_total=40)
        np.testing.assert_array_equal(rep1.process.values, rep2.process.values)
        np.testing.assert_array_equal(rep1.lower, rep2.lower)
        np.testing.assert_array_equal(rep1.pointwise_se, rep2.pointwise_se)
        assert rep1.ks_statistic == rep2.ks_statistic
        assert rep1.critical_value == rep2.critical_value
        assert rep1.reject == rep2.reject
        assert np.all(rep1.lower <= rep1.process.values)
        assert np.all(rep1.process.values <= rep1.upper)
        assert np.all(rep1.pointwise_se >= 0)

    def test_unconditional_single_cell_matches_cell_report(self):
        cell = random_cell(substream(7, 0))
        cfg = BootstrapConfig(iterations=40, seed=11)
        grid = np.linspace(0.2, 0.8, 7)
        unc = analyze_unconditional([(0, cell)], grid, cfg, n_total=40)
        per_cell = analyze_cell(cell, grid, cfg, n_total=40, cell_index=0)
        np.testing.assert_array_equal(unc.process.values, per_cell.process.values)
        np.testing.assert_array_equal(unc.pointwise_se, per_cell.pointwise_se)
        assert unc.ks_statistic == per_cell.ks_statistic
        assert unc.critical_value == per_cell.critical_value

    @pytest.mark.parametrize("n_total", [0, -5])
    def test_n_total_must_be_positive(self, n_total):
        cell = random_cell(substream(8, 0))
        with pytest.raises(ValueError, match="n_total"):
            analyze_cell(cell, [0.5], BootstrapConfig(iterations=20), n_total=n_total)
        with pytest.raises(ValueError, match="n_total"):
            analyze_unconditional([(0, cell)], [0.5], BootstrapConfig(iterations=20), n_total)

    def test_fewer_than_two_draws_refused_before_drawing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the bootstrap ran")

        monkeypatch.setattr(inference, "bootstrap_process", refuse)
        monkeypatch.setattr(inference, "bootstrap_block", refuse)
        cell, config = random_cell(substream(8, 0)), BootstrapConfig(iterations=1)
        with pytest.raises(ValueError, match="^need at least two bootstrap draws$"):
            analyze_cell(cell, [0.25, 0.5, 0.75], config)
        with pytest.raises(ValueError, match="^need at least two bootstrap draws$"):
            analyze_unconditional([(0, cell)], [0.25, 0.5, 0.75], config, n_total=40)

    def test_cic_estimator_supported(self):
        cell = random_cell(substream(8, 0))
        rep = analyze_cell(cell, [0.5], BootstrapConfig(iterations=25, seed=2), estimator="cic")
        assert rep.pointwise_se.shape == (1,)

    def test_draw_rows_independent_of_evaluation_order(self):
        """Each draw is fully determined by its (seed, cell, index) key."""
        cell = random_cell(substream(9, 0))
        cfg = BootstrapConfig(iterations=6, seed=31)
        grid = np.linspace(0.2, 0.8, 5)
        with mock.patch.object(inference, "BLOCK_ELEMENTS", 60):  # blocks of 3 draws
            full = bootstrap_process(cell, grid, cfg, cell_index=2)
            single = bootstrap_process(
                cell, grid, BootstrapConfig(iterations=1, seed=31), cell_index=2
            )
        np.testing.assert_array_equal(full[0], single[0])
        # recompute draw 4 in isolation: row 1 of block 1, whose substream is
        # keyed (cell 2, block 1) and draws 3 rows of indices per arm
        rng = substream(31, 2, 1)
        weights = {}
        for arm, n in sorted(cell.arm_sizes().items()):
            rows = rng.integers(0, n, size=(3, n))
            weights[arm] = np.bincount(rows[1], minlength=n).astype(float)
        np.testing.assert_array_equal(full[4], estimate_process(cell, grid, "ddid", weights).values)

    def test_pointwise_se_stable_across_bootstrap_reruns(self):
        """At B=1000 the bootstrap SE has small rerun-to-rerun variation."""
        rng = substream(10, 0)
        n = 500
        pre = rng.normal(size=(2, n))
        change = rng.normal(size=(2, n))
        cell = panel_cell(pre[0], change[0], pre[1], pre[1] + change[1])
        ses = []
        for seed in range(6):
            cfg = BootstrapConfig(iterations=1000, seed=seed)
            draws = bootstrap_process(cell, [0.5], cfg)
            ses.append(pointwise_se(draws)[0])
        ses = np.asarray(ses)
        assert ses.std() / ses.mean() < 0.10


def test_size_under_structural_null():
    """Structurally zero effect: rejection rates near the nominal 5% level.

    Both arms share one outcome law with treated posts distributed exactly
    like transformed controls (level plus independent change), so the null
    holds and rejections measure test size. The pointwise test sits at the
    nominal level; the sup test is mildly conservative in finite samples
    (the same direction the undersized small-sample results in the source
    tables show), so it gets a one-sided gate against over-rejection.
    """
    reps, n_arm, iterations = 500, 200, 200
    grid = np.linspace(0.1, 0.9, 9)
    ks_rejections = 0
    pointwise = np.zeros(grid.size)
    for r in range(reps):
        rng = substream(1234, r)
        pre = rng.normal(size=(2, n_arm))
        change = rng.normal(size=(2, n_arm))
        cell = panel_cell(pre[0], change[0], pre[1], pre[1] + change[1])
        point = estimate_process(cell, grid, "ddid", None, 2 * n_arm)
        cfg = BootstrapConfig(iterations=iterations, seed=1234 + r)
        draws = bootstrap_process(cell, grid, cfg)
        res = ks_test(point.values, draws, 2 * n_arm, 0.05)
        ks_rejections += res.reject
        for j in range(grid.size):
            crit = empirical_quantile(np.abs(draws[:, j] - point.values[j]), 0.95)
            pointwise[j] += float(abs(point.values[j]) > crit)
    pointwise /= reps
    ks_rate = ks_rejections / reps
    assert np.all((0.02 <= pointwise) & (pointwise <= 0.09)), f"pointwise size {pointwise}"
    assert 0.0 < ks_rate <= 0.09, f"KS size {ks_rate}"


EMPTY_SAMPLE_CELLS = {
    "panel": PanelCell((1,), control_pre=np.arange(5.0), control_post=np.arange(1.0, 6.0),
                       treated_pre=np.empty(0), treated_post=np.empty(0)),
    "rcs": RcsCell((1,), control_pre=np.arange(5.0), control_post=np.empty(0),
                   treated_pre=np.arange(3.0), treated_post=np.arange(4.0)),
}
ENTRIES = {
    "estimate_process": lambda cell, config: estimate_process(cell, [0.5]),
    "bootstrap_process": lambda cell, config: bootstrap_process(cell, [0.5], config),
    "bootstrap_block": lambda cell, config: inference.bootstrap_block(
        [(0, cell)], [0.5], config, (), [], np.empty((config.iterations, 1)),
        range(config.iterations),
    ),
    "analyze_cells": lambda cell, config: analyze_cells(
        [(0, cell)], [0.5], config, ("ddid", "cic"), unconditional=True
    ),
}


@pytest.mark.parametrize("scheme", inference.SCHEMES)
@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("design", sorted(EMPTY_SAMPLE_CELLS))
def test_a_cell_with_an_empty_sample_is_refused_before_any_draw(
    monkeypatch, design, entry, scheme
):
    monkeypatch.setattr(inference, "_draw_block", lambda *args: pytest.fail("drew weights"))
    config = BootstrapConfig(iterations=3, scheme=scheme)
    with pytest.raises(ValueError, match=r"^cell \(1,\): every sample must be nonempty$"):
        ENTRIES[entry](EMPTY_SAMPLE_CELLS[design], config)


def test_the_mixture_alone_refuses_a_cell_with_an_empty_sample_before_any_draw(monkeypatch):
    monkeypatch.setattr(inference, "_draw_block", lambda *args: pytest.fail("drew weights"))
    config = BootstrapConfig(iterations=3)
    for cell in EMPTY_SAMPLE_CELLS.values():
        with pytest.raises(ValueError, match=r"^cell \(1,\): every sample must be nonempty$"):
            analyze_unconditional([(0, cell)], [0.5], config, 10)


ESTIMATOR_ENTRIES = {
    "estimate_process": lambda cell, names: estimate_process(cell, [0.5], names),
    "estimate_rows": lambda cell, names: estimate_rows(cell, [0.5], cell.unit_weights(), names),
    "bootstrap_process": lambda cell, names: bootstrap_process(
        cell, [0.5], BootstrapConfig(iterations=3), names
    ),
    "analyze_cell": lambda cell, names: analyze_cell(cell, [0.5], BootstrapConfig(iterations=3),
                                                     names),
    "analyze_cells": lambda cell, names: analyze_cells(
        [(0, cell)], [0.5], BootstrapConfig(iterations=3), names, unconditional=True
    ),
}


@pytest.mark.parametrize("entry", sorted(ESTIMATOR_ENTRIES))
@pytest.mark.parametrize(
    "names, message",
    [
        (("ddid", "ddid"), "estimators must name 'ddid' once, not 2 times"),
        (("cic", "ddid", "cic"), "estimators must name 'cic' once, not 2 times"),
        (("ddid", "qr"), "estimators must be among ddid, cic, not 'qr'"),
    ],
    ids=["repeated", "repeated-apart", "unknown"],
)
def test_a_repeated_or_unknown_estimator_is_refused_before_any_draw(
    monkeypatch, entry, names, message
):
    """Every entry checks its estimator list by the one rule
    (``estimators.checked_estimators``) before it fits or draws anything."""
    monkeypatch.setattr(inference, "_draw_block", lambda *args: pytest.fail("drew weights"))
    monkeypatch.setattr(estimators, "_cell_rows", lambda *args: pytest.fail("fitted a cell"))
    cell = panel_cell([0.0, 1.0, 2.0], [1.0, 1.0, 1.0], [0.5, 1.5], [2.0, 3.0])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ESTIMATOR_ENTRIES[entry](cell, names)
