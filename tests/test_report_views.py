"""The CSVs are views of the JSON report: every CSV row is rebuilt here from
the JSON written beside it, as ``repr(float)`` of the matching value."""

import csv
import json

import pytest

from qdid.cli import EXIT_OK, SUMMARY_TAUS, main
from qdid.inference import substream


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def fnum(value):
    return repr(float(value))


def panel_with_a_small_cell(path):
    """Cells x1 = 0 and 1 hold 20 units per arm; cell x1 = 2 one per arm."""
    rng = substream(17, 0)
    rows, unit = [], 0
    for x, n_arm in ((0, 20), (1, 20), (2, 1)):
        for d in (0, 1):
            for _ in range(n_arm):
                pre = float(rng.normal())
                post = pre + float(rng.normal())
                rows += [[unit, 0, repr(pre), d, x], [unit, 1, repr(post), d, x]]
                unit += 1
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["unit", "period", "y", "d", "x1"])
        writer.writerows(rows)


def expected_report_rows(report):
    """Bands and summary rows in file order, read from the JSON report."""
    n_cov = len(report["config"]["covariate_cols"])
    groups = [
        (["|".join(map(str, e["code"])) or "all"] + [str(c) for c in e["code"]], e)
        for e in report["cells"]
    ]
    if report["unconditional"] is not None:
        groups.append(
            (["unconditional"] + ["*"] * n_cov, {"estimators": {"ddid": report["unconditional"]}})
        )
    bands, summary = [], []
    for cell, entry in groups:
        if entry["estimators"] is None:
            summary.append(
                cell
                + ["", str(entry["n_control"]), str(entry["n_treated"]), "false", entry["reason"]]
                + [""] * (3 + 2 * len(SUMMARY_TAUS))
            )
            continue
        for est, block in entry["estimators"].items():
            for j, tau in enumerate(block["taus"]):
                bands.append(
                    cell
                    + [est, fnum(tau)]
                    + [fnum(block[k][j]) for k in ("estimate", "lower", "upper", "pointwise_se")]
                )
            taus = block["taus"]
            stats = []
            for t in SUMMARY_TAUS:  # a level off the grid has no value
                j = taus.index(t) if t in taus else None
                stats += ["", ""] if j is None else [
                    fnum(block["estimate"][j]), fnum(block["pointwise_se"][j])
                ]
            summary.append(
                cell
                + [est, str(block["n_control"]), str(block["n_treated"]), "true", ""]
                + [fnum(block["ks_statistic"]), fnum(block["critical_value"])]
                + [str(block["reject"]).lower()]
                + stats
            )
    return bands, summary


def test_estimate_csvs_are_views_of_the_json(tmp_path):
    data = tmp_path / "data.csv"
    panel_with_a_small_cell(data)
    out = tmp_path / "rep"
    code = main(
        ["estimate", "-i", str(data), "-o", str(out), "--covariates", "x1",
         "--estimators", "ddid,cic", "--unconditional", "--min-cell-size", "5",
         "--tau-min", "0.15", "--tau-max", "0.85", "--tau-step", "0.1",
         "--bootstrap", "20", "--seed", "4"]
    )
    assert code == EXIT_OK
    report = json.loads((tmp_path / "rep.json").read_text())
    assert [e["viable"] for e in report["cells"]] == [True, True, False]
    assert report["unconditional"] is not None
    bands, summary = expected_report_rows(report)
    assert len(bands) == (2 * 2 + 1) * len(report["taus"])
    assert len(summary) == 2 * 2 + 1 + 1

    band_rows = read_rows(tmp_path / "rep.bands.csv")
    assert band_rows[0] == ["cell", "x1", "estimator", "tau", "estimate", "lower", "upper",
                            "pointwise_se"]
    assert band_rows[1:] == bands
    summary_rows = read_rows(tmp_path / "rep.summary.csv")
    assert summary_rows[0][:10] == ["cell", "x1", "estimator", "n_control", "n_treated",
                                    "viable", "reason", "ks_statistic", "critical_value",
                                    "reject"]
    assert summary_rows[0][10:] == [f"{s}_{t}" for t in SUMMARY_TAUS for s in ("estimate", "se")]
    assert summary_rows[1:] == summary


@pytest.mark.parametrize(
    "flags, param, tested",
    [
        (["--dgp", "1", "--n", "20,30", "--bootstrap", "0"], "n", False),
        (["--dgp", "1", "--n", "20,30", "--bootstrap", "5"], "n", True),
        (["--dgp", "2", "--n", "20", "--rho", "0,0.5", "--bootstrap", "5"], "rho_bar", True),
    ],
)
def test_mc_csv_is_a_view_of_the_json(tmp_path, flags, param, tested):
    out = tmp_path / "table"
    code = main(["mc", "--reps", "2", "--seed", "3", "-o", str(out)] + flags)
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "table.json").read_text())
    results = payload["results"]
    header = ["statistic", param] + [
        f"{est}_{tau}" for est in payload["estimators"] for tau in payload["taus"]
    ]
    stats = [("bias", "bias"), ("rmse", "rmse")] + [("rej_prob", "rejection")] * tested
    assert all((r["rejection"] is not None) == tested for r in results)
    expected = [header]
    for label, key in stats:
        for r in results:
            value = fnum(r[param]) if param == "rho_bar" else str(int(r[param]))
            expected.append(
                [label, value] + [fnum(v) for est in payload["estimators"] for v in r[key][est]]
            )
    assert read_rows(tmp_path / "table.csv") == expected
