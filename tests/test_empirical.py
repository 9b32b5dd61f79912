import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mixture, scalar_fit
from qdid.empirical import SortedSample, StepDistribution, rank_transform

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
samples = st.lists(finite_floats, min_size=1, max_size=40)
taus = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


class TestFit:
    def test_textbook_ecdf(self):
        d = StepDistribution.fit([1.0, 2.0, 3.0])
        assert d.cdf(1.0) == pytest.approx(1 / 3)
        assert d.cdf(2.5) == pytest.approx(2 / 3)
        assert d.cdf(3.0) == 1.0

    def test_point_mass_with_weight(self):
        d = StepDistribution.fit([5.0], weights=[3.0])
        assert d.cdf(4.999) == 0.0
        assert d.cdf(5.0) == 1.0
        assert d.cdf(100.0) == 1.0

    def test_ties_merge_mass(self):
        d = StepDistribution.fit([1.0, 1.0, 2.0])
        assert d.n_points == 2
        assert d.cdf(1.0) == pytest.approx(2 / 3)

    def test_zero_weight_points_dropped(self):
        d = StepDistribution.fit([1.0, 2.0], weights=[0.0, 1.0])
        assert d.support.tolist() == [2.0]

    def test_errors(self):
        with pytest.raises(ValueError):
            StepDistribution.fit([])
        with pytest.raises(ValueError):
            StepDistribution.fit([1.0, 2.0], weights=[1.0])
        with pytest.raises(ValueError):
            StepDistribution.fit([1.0], weights=[-1.0])
        with pytest.raises(ValueError):
            StepDistribution.fit([1.0, 2.0], weights=[0.0, 0.0])


class TestCdf:
    def test_right_continuous_step(self):
        d = StepDistribution.fit([1.0, 2.0, 3.0, 4.0])
        assert d.cdf(2.0) == 0.5
        assert d.cdf(2.0 - 1e-9) == 0.25
        assert d.cdf(-1e308) == 0.0
        assert d.cdf(1e308) == 1.0

    def test_vectorized(self):
        d = StepDistribution.fit([1.0, 2.0])
        np.testing.assert_allclose(d.cdf(np.array([0.0, 1.0, 5.0])), [0.0, 0.5, 1.0])


class TestQuantile:
    def test_median_of_three(self):
        assert StepDistribution.fit([1.0, 2.0, 3.0]).quantile(0.5) == 2.0

    def test_tau_one_is_max(self):
        assert StepDistribution.fit([3.0, 1.0, 2.0]).quantile(1.0) == 3.0

    def test_inf_attained_at_half(self):
        assert StepDistribution.fit([1.0, 2.0]).quantile(0.5) == 1.0

    @pytest.mark.parametrize("tau", [0.0, -0.1, 1.0 + 1e-12, float("nan")])
    def test_rejects_bad_levels(self, tau):
        d = StepDistribution.fit([1.0])
        with pytest.raises(ValueError):
            d.quantile(tau)


class TestRankTransform:
    def test_identity_on_own_support(self):
        d = StepDistribution.fit([3.0, 1.0, 4.0, 1.0, 5.0])
        for y in d.support:
            assert rank_transform(d, d, y) == y

    def test_two_point_composition(self):
        src = StepDistribution.fit([1.0, 2.0])
        tgt = StepDistribution.fit([10.0, 30.0])
        assert rank_transform(src, tgt, 1.0) == 10.0
        assert rank_transform(src, tgt, 2.0) == 30.0

    def test_below_source_support_clamps_to_target_min(self):
        src = StepDistribution.fit([1.0, 2.0])
        tgt = StepDistribution.fit([10.0, 30.0])
        assert rank_transform(src, tgt, 0.0) == 10.0

    def test_clamp_skips_zero_mass_target_points(self):
        src = StepDistribution.fit([1.0, 2.0])
        tgt = StepDistribution([5.0, 10.0, 30.0], [0.0, 1.0, 1.0])
        assert rank_transform(src, tgt, 0.0) == 10.0

    def test_vectorized_matches_scalar(self):
        src = StepDistribution.fit([1.0, 2.0, 3.0])
        tgt = StepDistribution.fit([2.0, 4.0, 8.0])
        ys = np.array([0.5, 1.0, 2.5, 3.0])
        out = rank_transform(src, tgt, ys)
        assert out.tolist() == [rank_transform(src, tgt, y) for y in ys]


class TestMixture:
    def test_two_point_masses(self):
        a = StepDistribution.fit([0.0])
        b = StepDistribution.fit([2.0])
        mix = mixture([a, b], [0.5, 0.5])
        assert mix.cdf(0.0) == pytest.approx(0.5)
        assert mix.quantile(0.5) == 0.0
        assert mix.quantile(0.75) == 2.0

    def test_single_component_is_identity(self):
        a = StepDistribution.fit([1.0, 2.0, 5.0])
        mix = mixture([a], [1.0])
        np.testing.assert_array_equal(mix.support, a.support)
        np.testing.assert_allclose(mix.cum_probs, a.cum_probs)

    def test_share_validation(self):
        a = StepDistribution.fit([1.0])
        with pytest.raises(ValueError):
            mixture([a], [0.5])
        with pytest.raises(ValueError):
            mixture([], [])


class TestSortedSample:
    def test_refit_matches_direct_fit(self):
        values = np.array([3.0, 1.0, 3.0, 2.0, 2.0])
        layout = SortedSample(values)
        rng = np.random.default_rng(5)
        w = rng.integers(0, 4, size=5).astype(float)
        w[0] = 1.0
        fast = layout.fit(w)
        slow = scalar_fit(values, w)
        grid = np.linspace(0.5, 3.5, 13)
        np.testing.assert_array_equal(fast.cdf(grid), slow.cdf(grid))
        t = np.linspace(0.05, 1.0, 20)
        np.testing.assert_array_equal(fast.quantile(t), slow.quantile(t))

    def test_unweighted(self):
        layout = SortedSample([2.0, 1.0])
        assert layout.fit().quantile(0.5) == 1.0
        assert len(layout) == 2


@given(samples, taus, finite_floats)
@settings(max_examples=300)
def test_galois_connection(values, tau, y):
    d = StepDistribution.fit(values)
    assert (d.quantile(tau) <= y) == (tau <= d.cdf(y))


@given(samples)
@settings(max_examples=200)
def test_cdf_monotone_and_right_continuous(values):
    d = StepDistribution.fit(values)
    grid = np.sort(np.concatenate([d.support, d.support - 1e-9, d.support + 1e-9]))
    out = np.asarray(d.cdf(grid))
    assert np.all(np.diff(out) >= 0)
    for y in d.support:
        assert d.cdf(y) >= d.cdf(y - 1e-9)


@given(samples)
@settings(max_examples=200)
def test_quantile_of_cdf_fixes_support_points(values):
    d = StepDistribution.fit(values)
    for y in d.support:
        assert d.quantile(d.cdf(y)) == y


@given(
    st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=15),
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=15),
)
@settings(max_examples=200)
def test_integer_weights_equal_repetition(values, ks):
    ks = (ks * len(values))[: len(values)]
    if sum(ks) == 0:
        ks[0] = 1
    weighted = StepDistribution.fit(
        [float(v) for v in values], [float(k) for k in ks]
    )
    repeated = scalar_fit([float(v) for v, k in zip(values, ks) for _ in range(k)])
    np.testing.assert_array_equal(weighted.support, repeated.support)
    np.testing.assert_array_equal(weighted.masses, repeated.masses)
    np.testing.assert_array_equal(weighted.cum_probs, repeated.cum_probs)


@given(samples)
@settings(max_examples=200)
def test_step_distribution_invariants(values):
    d = StepDistribution.fit(values)
    assert np.all(np.diff(d.support) > 0)
    assert np.all(d.masses >= 0)
    assert np.all(np.diff(d.cum_probs) >= 0)
    assert abs(d.cum_probs[-1] - 1.0) < 1e-12
