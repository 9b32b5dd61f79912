"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`. The statistical criteria
use fixed seeds and the stated desk-scale budgets; the whole module runs in
a few minutes single-threaded.
"""

import csv
import json
import time

import numpy as np
import pytest

from qdid.cli import main as cli_main
from qdid.empirical import SortedSample, StepDistribution
from qdid.estimators import PanelCell, RcsCell, counterfactual_cdf, counterfactual_rows
from qdid.inference import BootstrapConfig, analyze_cell, substream
from qdid.simulation import DgpSpec, run_mc, simulate_dgp2

from oracles import brute_counterfactual_panel

TAUS = (0.1, 0.5, 0.9)


def check(num: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def dgp1_bias_run():
    """DGP 1, TE=0, N=500 per arm, 500 reps, both estimators, no bootstrap."""
    return run_mc(
        DgpSpec(variant=1, n_per_arm=500, te=0.0),
        reps=500,
        estimators=("ddid", "cic"),
        seed=20,
    )


def test_criterion_01_oracle_equivalence():
    rng = substream(27, 0)
    start = time.perf_counter()
    checked = 0
    for _ in range(200):
        n0, n1 = rng.integers(2, 7, size=2)
        y_pre0 = rng.integers(-5, 6, n0).astype(float)
        dy = rng.integers(-4, 5, n0).astype(float)
        y_pre1 = rng.integers(-5, 6, n1).astype(float)
        y_post1 = rng.integers(-5, 6, n1).astype(float)
        cell = PanelCell((), control_pre=y_pre0, control_post=y_pre0 + dy, treated_pre=y_pre1,
                         treated_post=y_post1)
        res = counterfactual_cdf(cell)
        transformed, table = brute_counterfactual_panel(
            list(zip(y_pre0.tolist(), dy.tolist())), y_pre1.tolist()
        )
        assert sorted(res.transformed_outcomes.tolist()) == transformed
        assert res.counterfactual.support.tolist() == [y for y, _ in table]
        assert res.counterfactual.masses.tolist() == [m for _, m in table]
        # the kernel's unit-weight row: every transformed outcome, sorted,
        # with its tie group's mass on the first point of the group
        row = counterfactual_rows(cell, cell.unit_weights())[1]
        points, masses = row.support[0], row.masses[0]
        assert points.tolist() == transformed
        assert points[masses > 0].tolist() == [y for y, _ in table]
        assert masses[masses > 0].tolist() == [m for _, m in table]
        checked += 1
    elapsed = time.perf_counter() - start
    check(
        1,
        "counterfactual matches brute-force oracle exactly on 200 tiny instances",
        checked == 200 and elapsed < 1.0,
        f"{checked} instances, {elapsed:.3f}s",
    )


def test_criterion_02_galois_property():
    rng = substream(28, 0)
    triples = 0
    for i in range(100):
        kind = i % 3
        n = int(rng.integers(1, 40))
        if kind == 0:
            values = rng.normal(size=n) * 10
            weights = None
        elif kind == 1:
            values = rng.integers(-6, 7, size=n).astype(float)
            weights = None
        else:
            values = rng.normal(size=n)
            weights = rng.integers(0, 5, size=n).astype(float)
            if weights.sum() == 0:
                weights[0] = 1.0
        d = StepDistribution.fit(values, weights)
        # the kernel's fit of the same sample, as one row
        row_weights = np.ones((1, n)) if weights is None else weights[None, :]
        rows = SortedSample(values).fit_rows(row_weights)
        taus = rng.uniform(1e-9, 1.0, size=100)
        ys = np.concatenate(
            [
                rng.choice(d.support, size=40),
                rng.choice(d.support, size=30) + rng.normal(size=30) * 0.1,
                rng.uniform(d.support[0] - 2, d.support[-1] + 2, size=30),
            ]
        )
        for q, F in (
            (np.asarray(d.quantile(taus)), np.asarray(d.cdf(ys))),
            (rows.quantile(taus)[0], rows.cdf(ys[None, :])[0]),
        ):
            left = q[:, None] <= ys[None, :]
            right = taus[:, None] <= F[None, :]
            assert np.array_equal(left, right)
        triples += taus.size * ys.size
    check(2, "generalized-inverse duality holds on randomized triples", True,
          f"{triples} (tau, y) pairs over 100 distributions, each on reference and kernel")


def test_criterion_03_dgp1_bias(dgp1_bias_run):
    bias = dgp1_bias_run.bias["ddid"]
    ok = bool(np.all(np.abs(bias) <= 0.05))
    check(3, "DGP1 TE=0 N=500: |bias| <= 0.05 at tau 0.1/0.5/0.9", ok,
          f"bias {np.round(bias, 4).tolist()}")


def test_criterion_04_dgp1_size():
    res = run_mc(
        DgpSpec(variant=1, n_per_arm=200, te=0.0),
        reps=300,
        estimators=("ddid",),
        bootstrap_iterations=200,
        seed=2024,
    )
    rate = res.rejection["ddid"]
    ok = bool(np.all((rate >= 0.02) & (rate <= 0.09)))
    check(4, "DGP1 TE=0 N=200: pointwise rejection within [0.02, 0.09]", ok,
          f"rates {np.round(rate, 4).tolist()}")


def test_criterion_05_dgp1_power():
    res = run_mc(
        DgpSpec(variant=1, n_per_arm=500, te=1.0),
        reps=200,
        estimators=("ddid",),
        bootstrap_iterations=200,
        seed=42,
    )
    rate = res.rejection["ddid"]
    ok = rate[1] >= 0.95 and rate[0] >= 0.90 and rate[2] >= 0.90
    check(5, "DGP1 TE=1 N=500: power >= 0.95 at median, >= 0.90 at tails", ok,
          f"rates {np.round(rate, 4).tolist()}")


def test_criterion_06_dgp2_robustness_pattern():
    strong = run_mc(
        DgpSpec(variant=2, n_per_arm=200, te=0.0, rho_bar=0.5),
        reps=500,
        estimators=("ddid",),
        seed=23,
    ).bias["ddid"]
    none = run_mc(
        DgpSpec(variant=2, n_per_arm=200, te=0.0, rho_bar=0.0),
        reps=500,
        estimators=("ddid",),
        seed=23,
    ).bias["ddid"]
    ok = (
        abs(strong[1]) <= 0.05
        and 0.30 <= strong[0] <= 0.55
        and bool(np.all(np.abs(none) <= 0.08))
    )
    check(
        6,
        "DGP2 N=200: median robust, low quantile biased under violation",
        ok,
        f"rho=0.5 bias {np.round(strong, 4).tolist()}, rho=0 bias {np.round(none, 4).tolist()}",
    )


def test_criterion_07_dgp2_covariance_identity():
    details = []
    ok = True
    for rho in (0.0, 0.5):
        spec = DgpSpec(variant=2, n_per_arm=100_000, rho_bar=rho)
        data = simulate_dgp2(spec, substream(24, int(rho * 10)))
        for d in (0, 1):
            arm = data.treated == bool(d)
            v = spec.covariance(d)
            implied = v[0, 1] - v[0, 2] + v[1, 2] - 1.0
            dy = data.y_post[arm] - data.y_pre[arm]
            observed = float(np.cov(data.y_pre[arm], dy)[0, 1])
            ok = ok and abs(observed - implied) <= 0.02
            details.append(f"rho={rho} d={d}: {observed:.4f} vs {implied:+.2f}")
    check(7, "DGP2 level-change covariance matches implied value", ok,
          "; ".join(details))


def test_criterion_08_determinism_and_duality():
    rng = substream(25, 0)
    grid = np.round(0.05 + 0.05 * np.arange(19), 12)
    rejects = 0
    for i in range(50):
        n0, n1 = rng.integers(15, 60, size=2)
        effect = float(rng.choice([0.0, 0.0, 1.0, 2.0]))
        control_pre = rng.normal(size=n0)
        cell = PanelCell(
            (),
            control_pre=control_pre,
            control_post=control_pre + rng.normal(size=n0),
            treated_pre=rng.normal(size=n1),
            treated_post=rng.normal(size=n1) + effect,
        )
        cfg = BootstrapConfig(iterations=80, seed=1000 + i)
        rep1 = analyze_cell(cell, grid, cfg, n_total=n0 + n1)
        rep2 = analyze_cell(cell, grid, cfg, n_total=n0 + n1)
        assert np.array_equal(rep1.process.values, rep2.process.values)
        assert np.array_equal(rep1.lower, rep2.lower)
        assert np.array_equal(rep1.upper, rep2.upper)
        assert np.array_equal(rep1.pointwise_se, rep2.pointwise_se)
        assert rep1.ks_statistic == rep2.ks_statistic
        assert rep1.critical_value == rep2.critical_value
        assert rep1.reject == rep2.reject
        zero_escapes = bool(np.any((rep1.lower > 0) | (rep1.upper < 0)))
        assert zero_escapes == rep1.reject
        rejects += rep1.reject
    check(
        8,
        "bit-identical reruns; KS rejection iff 0 exits the band",
        0 < rejects < 50,
        f"50 datasets, {rejects} rejections",
    )


def test_criterion_09_cic_benchmark_pattern(dgp1_bias_run):
    cic = dgp1_bias_run.bias["cic"][2]
    ddid = dgp1_bias_run.bias["ddid"][2]
    ok = cic < 0 and abs(cic) > abs(ddid)
    check(
        9,
        "CIC bias at tau=0.9 negative and larger in magnitude than DDID",
        ok,
        f"cic {cic:.4f} vs ddid {ddid:.4f}",
    )


def test_criterion_10_rcs_reproduces_panel():
    rng = substream(26, 0)
    for _ in range(100):
        n0, n1 = rng.integers(3, 40, size=2)
        y_pre0 = rng.normal(size=n0)
        # rank invariance: post outcomes assigned in pre-period rank order
        y_post0 = np.sort(rng.normal(loc=0.5, size=n0))[np.argsort(np.argsort(y_pre0))]
        y_pre1 = rng.normal(loc=0.3, size=n1)
        y_post1 = rng.normal(loc=0.8, size=n1)
        samples = dict(control_pre=y_pre0, control_post=y_post0, treated_pre=y_pre1,
                       treated_post=y_post1)
        panel, rcs = PanelCell((), **samples), RcsCell((), **samples)
        assert np.array_equal(
            np.sort(counterfactual_cdf(panel).transformed_outcomes),
            np.sort(counterfactual_cdf(rcs).transformed_outcomes),
        )
        # the kernel's unit-weight rows hold every transformed outcome, sorted
        assert np.array_equal(
            counterfactual_rows(panel, panel.unit_weights())[1].support[0],
            counterfactual_rows(rcs, rcs.unit_weights())[1].support[0],
        )
    check(10, "repeated cross sections reproduce the panel transformed sample",
          True, "100 randomized rank-invariant instances, exact multisets, reference and kernel")


def test_structural_subgroup_workflow(tmp_path):
    """CLI consumes a subgroup-schema CSV and emits the two table shapes."""
    rng = substream(29, 0)
    path = tmp_path / "earnings.csv"
    rows = []
    unit = 0
    for race in (0, 1):
        for gender in (0, 1):
            for college in (0, 1):
                for d in (0, 1):
                    for _ in range(25):
                        level = 5.0 + 0.5 * college + rng.normal() * 0.4
                        pre = level + rng.normal() * 0.2
                        post = level + rng.normal() * 0.2 - 0.1 * d
                        rows.append([unit, 0, repr(pre), d, race, gender, college])
                        rows.append([unit, 1, repr(post), d, race, gender, college])
                        unit += 1
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["unit", "period", "y", "d", "race", "gender", "college"])
        writer.writerows(rows)

    out = tmp_path / "report"
    code = cli_main(
        [
            "estimate",
            "--input", str(path),
            "--covariates", "race,gender,college",
            "--bootstrap", "60",
            "--seed", "17",
            "--unconditional",
            "--out", str(out),
        ]
    )
    assert code == 0

    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["schema"] == "qdid.report.v1"
    assert len(payload["cells"]) == 8
    assert len(payload["taus"]) == 91
    assert payload["unconditional"] is not None

    with open(tmp_path / "report.summary.csv", newline="") as handle:
        summary = list(csv.DictReader(handle))
    subgroup_rows = [r for r in summary if r["cell"] != "unconditional"]
    assert len(subgroup_rows) == 8
    for row in subgroup_rows:
        assert row["reject"] in ("true", "false")
        for col in ("estimate_0.1", "se_0.1", "estimate_0.5", "se_0.5",
                    "estimate_0.9", "se_0.9"):
            float(row[col])

    with open(tmp_path / "report.bands.csv", newline="") as handle:
        bands = list(csv.DictReader(handle))
    assert len(bands) == 91 * 9  # 8 cells + unconditional
    for row in bands[:91]:
        assert float(row["lower"]) <= float(row["estimate"]) <= float(row["upper"])
    print("[structural] PASS - subgroup CSV produces per-cell summary and band files")
