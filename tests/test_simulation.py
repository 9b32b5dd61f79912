import numpy as np
import pytest

from qdid import simulation
from qdid.data_model import PanelData
from qdid.estimators import PanelCell, estimate_process
from qdid.inference import bootstrap_process, BootstrapConfig, empirical_quantile, substream
from qdid.simulation import DgpSpec, run_mc, simulate, simulate_dgp1, simulate_dgp2


class TestDgpSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            DgpSpec(variant=3, n_per_arm=10)
        with pytest.raises(ValueError):
            DgpSpec(variant=1, n_per_arm=0)
        with pytest.raises(ValueError):
            DgpSpec(variant=2, n_per_arm=10, rho_bar=0.9)  # non-PD covariance
        with pytest.raises(ValueError, match="variant 2 only"):
            DgpSpec(variant=1, n_per_arm=10, rho_bar=0.7)  # DGP 1 has no copula deviation
        with pytest.raises(ValueError, match="^te and rho_bar must be finite$"):
            DgpSpec(variant=1, n_per_arm=5, te=float("nan"))  # all-NaN treated posts

    def test_n_per_arm_must_be_a_whole_number(self):
        with pytest.raises(ValueError, match=r"^n_per_arm must be a whole number, not 2\.5$"):
            DgpSpec(1, 2.5)

    def test_rho_zero_arms_identical(self):
        spec = DgpSpec(variant=2, n_per_arm=10, rho_bar=0.0)
        np.testing.assert_array_equal(spec.covariance(0), spec.covariance(1))

    def test_covariance_entries(self):
        spec = DgpSpec(variant=2, n_per_arm=10, rho_bar=0.4)
        v0, v1 = spec.covariance(0), spec.covariance(1)
        assert v0[0, 1] == 0.4 and v1[0, 1] == 0.0
        for v in (v0, v1):
            assert v[1, 2] == 0.5 and v[0, 2] == 0.0
            np.testing.assert_array_equal(np.diag(v), np.ones(3))
            np.testing.assert_array_equal(v, v.T)


class TestDgp1:
    def test_shapes_and_split(self):
        data = simulate_dgp1(DgpSpec(variant=1, n_per_arm=25), substream(0, 0))
        assert isinstance(data, PanelData)
        assert data.n_units == 50
        assert data.treated.sum() == 25
        assert data.covariates.shape == (50, 0) and data.covariates.dtype == int

    def test_moments(self):
        data = simulate_dgp1(DgpSpec(variant=1, n_per_arm=100_000, te=0.0), substream(0, 1))
        treated = data.treated
        dy = data.y_post - data.y_pre
        # theta constant across periods: no drift for controls
        assert abs(dy[~treated].mean()) < 0.02
        # y_pre = 1 + v + e: variance 2 in both arms
        assert abs(data.y_pre[~treated].var() - 2.0) < 0.05
        assert abs(data.y_pre[treated].var() - 2.0) < 0.05
        # v | treated is shifted by 1
        assert abs(data.y_pre[treated].mean() - data.y_pre[~treated].mean() - 1.0) < 0.02

    def test_te_shifts_treated_posts_only(self):
        base = simulate_dgp1(DgpSpec(variant=1, n_per_arm=50, te=0.0), substream(3, 0))
        shifted = simulate_dgp1(DgpSpec(variant=1, n_per_arm=50, te=1.0), substream(3, 0))
        np.testing.assert_array_equal(base.y_pre, shifted.y_pre)
        treated = base.treated
        np.testing.assert_array_equal(base.y_post[~treated], shifted.y_post[~treated])
        np.testing.assert_allclose(base.y_post[treated] + 1.0, shifted.y_post[treated])

    def test_wrong_variant_rejected(self):
        with pytest.raises(ValueError):
            simulate_dgp1(DgpSpec(variant=2, n_per_arm=5), substream(0, 0))
        with pytest.raises(ValueError):
            simulate_dgp2(DgpSpec(variant=1, n_per_arm=5), substream(0, 0))


class TestDgp2:
    def test_covariance_identity(self):
        """Empirical cov of (pre-period level, change) matches the implied value."""
        for rho in (0.0, 0.5):
            spec = DgpSpec(variant=2, n_per_arm=100_000, rho_bar=rho)
            data = simulate_dgp2(spec, substream(1, 17))
            for d in (0, 1):
                arm = data.treated == bool(d)
                v = spec.covariance(d)
                implied = v[0, 1] - v[0, 2] + v[1, 2] - 1.0
                y_pre = data.y_pre[arm]
                dy = data.y_post[arm] - data.y_pre[arm]
                observed = np.cov(y_pre, dy)[0, 1]
                assert abs(observed - implied) < 0.02

    def test_change_distribution_same_across_arms(self):
        spec = DgpSpec(variant=2, n_per_arm=100_000, rho_bar=0.5)
        data = simulate_dgp2(spec, substream(1, 18))
        dy = data.y_post - data.y_pre
        t = data.treated
        assert abs(dy[t].var() - dy[~t].var()) < 0.02
        assert abs(dy[t].mean() - dy[~t].mean()) < 0.02


class TestRunMc:
    def test_single_rep(self):
        res = run_mc(
            DgpSpec(variant=1, n_per_arm=30, te=0.0),
            reps=1,
            estimators=("ddid",),
            bootstrap_iterations=20,
            seed=4,
        )
        assert res.bias["ddid"].shape == (3,)
        assert set(np.unique(res.rejection["ddid"])) <= {0.0, 1.0}
        np.testing.assert_allclose(res.rmse["ddid"], np.abs(res.bias["ddid"]))

    def test_reproducible(self):
        kwargs = dict(reps=4, estimators=("ddid", "cic"), bootstrap_iterations=10, seed=9)
        a = run_mc(DgpSpec(variant=1, n_per_arm=25, te=1.0), **kwargs)
        b = run_mc(DgpSpec(variant=1, n_per_arm=25, te=1.0), **kwargs)
        for est in ("ddid", "cic"):
            np.testing.assert_array_equal(a.bias[est], b.bias[est])
            np.testing.assert_array_equal(a.rmse[est], b.rmse[est])
            np.testing.assert_array_equal(a.rejection[est], b.rejection[est])

    def test_rmse_dominates_bias(self):
        res = run_mc(DgpSpec(variant=1, n_per_arm=40, te=0.0), reps=50, estimators=("ddid",), seed=2)
        assert np.all(res.rmse["ddid"] >= np.abs(res.bias["ddid"]) - 1e-12)

    def test_no_bootstrap_skips_rejection(self):
        res = run_mc(DgpSpec(variant=1, n_per_arm=20), reps=2, estimators=("ddid",), seed=0)
        assert res.rejection is None

    def test_bias_shrinks_with_sample_size(self):
        biases = {}
        for n in (100, 500):
            res = run_mc(
                DgpSpec(variant=2, n_per_arm=n, rho_bar=0.0),
                reps=300,
                estimators=("ddid",),
                seed=6,
            )
            biases[n] = np.abs(res.bias["ddid"])
        assert np.all(biases[500] <= biases[100] + 0.02)

    def test_matches_manual_bootstrap_reconstruction(self):
        """run_mc's rep-0 rejection decision equals a by-hand reconstruction."""
        spec = DgpSpec(variant=1, n_per_arm=30, te=0.0)
        seed, iters, taus = 13, 25, (0.1, 0.5, 0.9)
        res = run_mc(spec, reps=1, taus=taus, estimators=("ddid",),
                     bootstrap_iterations=iters, seed=seed)
        data = simulate(spec, substream(seed, 0))
        t = data.treated
        cell = PanelCell((), control_pre=data.y_pre[~t], control_post=data.y_post[~t],
                         treated_pre=data.y_pre[t], treated_post=data.y_post[t])
        grid = np.asarray(taus)
        point = estimate_process(cell, grid, "ddid", None, data.n_total).values
        draws = bootstrap_process(
            cell, grid, BootstrapConfig(iterations=iters, seed=seed), key_prefix=(0,)
        )
        for j in range(3):
            crit = empirical_quantile(np.abs(draws[:, j] - point[j]), 0.95)
            assert res.rejection["ddid"][j] == float(abs(point[j]) > crit)


@pytest.mark.parametrize(
    "settings",
    [
        {"alpha": 0.0},
        {"alpha": 1.5},
        {"taus": (0.5, 0.5)},
        {"taus": (0.0, 0.5)},
        {"taus": ()},
        {"scheme": "bogus"},
        {"bootstrap_iterations": -1},
        {"bootstrap_iterations": 1},
        {"reps": 0},
        {"estimators": ("ddid", "qr")},
        {"estimators": ()},
        {"estimators": ("ddid", "ddid")},
        {"alpha": 5.0, "bootstrap_iterations": 0},
        {"scheme": "bogus", "bootstrap_iterations": 0},
        {"seed": -1, "bootstrap_iterations": 0},
        {"bootstrap_iterations": 0.0},
    ],
    ids=str,
)
def test_run_mc_checks_its_settings_before_running_reps(monkeypatch, settings):
    def refuse(run, n):
        raise AssertionError("run_mc started its reps")

    monkeypatch.setattr(simulation, "_parallel", refuse)
    kwargs = {"reps": 2, "bootstrap_iterations": 10, **settings}
    field = next(iter(settings))
    with pytest.raises(ValueError, match={"taus": "tau grid"}.get(field, field)):
        run_mc(DgpSpec(variant=1, n_per_arm=10), **kwargs)


@pytest.mark.parametrize("field, value", [("reps", 2.5), ("seed", 1.5)])
def test_run_mc_refuses_a_count_or_seed_that_is_not_whole(monkeypatch, field, value):
    monkeypatch.setattr(simulation, "_parallel", lambda run, n: pytest.fail("started its reps"))
    with pytest.raises(ValueError, match=rf"^{field} must be a whole number, not {value}$"):
        run_mc(DgpSpec(variant=1, n_per_arm=10), **{"reps": 2, field: value})
