import csv
import json

import numpy as np
import pytest

from qdid.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_VALIDATION,
    LoadError,
    RunConfig,
    load_csv,
    main,
    report_dict,
    run_estimation,
    tau_grid,
)
from qdid.data_model import PanelData, RcsData
from qdid.inference import substream


def write_rows(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        w = csv.writer(handle)
        w.writerow(header)
        w.writerows(rows)


def null_panel_csv(path, n_arm=30, seed=0, covariates=False):
    """Panel long CSV with structurally zero effect."""
    rng = substream(seed, 0)
    rows = []
    unit = 0
    for d in (0, 1):
        for _ in range(n_arm):
            x = int(rng.integers(0, 2)) if covariates else None
            pre = float(rng.normal())
            post = pre + float(rng.normal())
            base = [unit, 0, repr(pre), d] + ([x] if covariates else [])
            rows.append(base)
            rows.append([unit, 1, repr(post), d] + ([x] if covariates else []))
            unit += 1
    header = ["unit", "period", "y", "d"] + (["x1"] if covariates else [])
    write_rows(path, header, rows)


class TestTauGrid:
    def test_default_grid(self):
        grid = tau_grid(0.05, 0.95, 0.01)
        assert grid.size == 91
        assert grid[0] == 0.05 and grid[-1] == 0.95
        for t in (0.1, 0.5, 0.9):
            assert t in grid

    def test_validation(self):
        with pytest.raises(ValueError):
            tau_grid(0.0, 0.9, 0.01)
        with pytest.raises(ValueError):
            tau_grid(0.1, 1.0, 0.01)
        with pytest.raises(ValueError):
            tau_grid(0.1, 0.9, 0.0)


class TestLoadPanel:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "p.csv"
        write_rows(
            path,
            ["unit", "period", "y", "d", "x1"],
            [
                ["a", 0, "1.5", 0, 2],
                ["a", 1, "2.5", 0, 2],
                ["b", 1, "4.0", 1, 3],
                ["b", 0, "3.0", 1, 3],
            ],
        )
        data = load_csv(RunConfig(input_path=str(path), covariate_cols=("x1",)))
        assert isinstance(data, PanelData)
        assert data.n_units == 2
        idx = {u: i for i, u in enumerate(data.unit_ids)}
        assert data.y_pre[idx["b"]] == 3.0 and data.y_post[idx["b"]] == 4.0
        assert bool(data.treated[idx["b"]]) and not bool(data.treated[idx["a"]])
        assert data.covariates[idx["b"], 0] == 3

    def test_missing_column(self, tmp_path):
        path = tmp_path / "p.csv"
        write_rows(path, ["unit", "period", "y"], [["a", 0, "1"]])
        with pytest.raises(LoadError, match="missing columns: d"):
            load_csv(RunConfig(input_path=str(path)))

    def test_non_finite_outcome_names_line(self, tmp_path):
        path = tmp_path / "p.csv"
        write_rows(
            path,
            ["unit", "period", "y", "d"],
            [["a", 0, "1.0", 0], ["a", 1, "nan", 0]],
        )
        with pytest.raises(LoadError, match="line 3"):
            load_csv(RunConfig(input_path=str(path)))

    def test_unparseable_number_names_line(self, tmp_path):
        path = tmp_path / "p.csv"
        write_rows(path, ["unit", "period", "y", "d"], [["a", 0, "oops", 0]])
        with pytest.raises(LoadError, match="line 2"):
            load_csv(RunConfig(input_path=str(path)))

    def test_single_period_unit_named(self, tmp_path):
        path = tmp_path / "p.csv"
        write_rows(
            path,
            ["unit", "period", "y", "d"],
            [["a", 0, "1", 0], ["a", 1, "2", 0], ["z", 1, "3", 1]],
        )
        with pytest.raises(LoadError, match="unit z"):
            load_csv(RunConfig(input_path=str(path)))

    @pytest.mark.parametrize("mode", ["panel", "rcs"])
    def test_duplicate_unit_period(self, tmp_path, mode):
        path = tmp_path / "p.csv"
        write_rows(
            path,
            ["unit", "period", "y", "d"],
            [["a", 0, "1", 0], ["a", 0, "2", 0]],
        )
        with pytest.raises(LoadError, match=r"^line 3: duplicate \(unit=a, period=0\) row$"):
            load_csv(RunConfig(input_path=str(path), mode=mode))

    def test_covariates_must_be_time_invariant(self, tmp_path):
        path = tmp_path / "p.csv"
        write_rows(
            path,
            ["unit", "period", "y", "d", "x1"],
            [["a", 0, "1", 0, 1], ["a", 1, "2", 0, 2]],
        )
        with pytest.raises(LoadError, match="covariates differ"):
            load_csv(RunConfig(input_path=str(path), covariate_cols=("x1",)))

    def test_fractional_covariate_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        write_rows(
            path,
            ["unit", "period", "y", "d", "x1"],
            [["a", 0, "1", 0, "1.5"], ["a", 1, "2", 0, "1.5"]],
        )
        with pytest.raises(LoadError, match="integer code"):
            load_csv(RunConfig(input_path=str(path), covariate_cols=("x1",)))

    def test_pretreatment_flag_inconsistency(self, tmp_path):
        path = tmp_path / "p.csv"
        write_rows(
            path,
            ["unit", "period", "y", "d"],
            [["a", 0, "1", 1], ["a", 1, "2", 0]],
        )
        with pytest.raises(LoadError, match="inconsistent"):
            load_csv(RunConfig(input_path=str(path)))


class TestLoadRcs:
    def test_without_unit_ids(self, tmp_path):
        path = tmp_path / "r.csv"
        write_rows(
            path,
            ["period", "y", "d"],
            [[0, "1.0", 0], [0, "2.0", 1], [1, "3.0", 0], [1, "4.0", 1]],
        )
        data = load_csv(RunConfig(input_path=str(path), mode="rcs"))
        assert isinstance(data, RcsData)
        assert data.unit_ids is None
        assert data.n_rows == 4

    def test_keeps_unit_ids_when_present(self, tmp_path):
        path = tmp_path / "r.csv"
        write_rows(
            path,
            ["unit", "period", "y", "d"],
            [["u", 0, "1.0", 0], ["u", 1, "2.0", 0]],
        )
        data = load_csv(RunConfig(input_path=str(path), mode="rcs"))
        assert data.unit_ids is not None


class TestRunEstimation:
    def test_null_data_small_effects(self, tmp_path):
        path = tmp_path / "null.csv"
        null_panel_csv(path, n_arm=60, seed=3)
        config = RunConfig(
            input_path=str(path),
            tau_min=0.1,
            tau_max=0.9,
            tau_step=0.1,
            bootstrap=120,
            seed=5,
        )
        result = run_estimation(config)
        assert len(result.cells) == 1
        rep = result.cells[0].reports["ddid"]
        assert not rep.reject
        assert np.max(np.abs(rep.process.values)) < 0.8
        assert np.all(rep.lower <= rep.process.values)
        assert np.all(rep.process.values <= rep.upper)

    def test_unconditional_and_cic(self, tmp_path):
        path = tmp_path / "cells.csv"
        null_panel_csv(path, n_arm=40, seed=4, covariates=True)
        config = RunConfig(
            input_path=str(path),
            covariate_cols=("x1",),
            tau_min=0.25,
            tau_max=0.75,
            tau_step=0.25,
            bootstrap=40,
            estimators=("ddid", "cic"),
            unconditional=True,
            seed=6,
        )
        result = run_estimation(config)
        assert len(result.cells) == 2
        for analysis in result.cells:
            assert set(analysis.reports) == {"ddid", "cic"}
        assert result.unconditional is not None

    def test_infeasible_when_all_cells_flagged(self, tmp_path):
        path = tmp_path / "tiny.csv"
        write_rows(
            path,
            ["unit", "period", "y", "d"],
            [["a", 0, "1", 0], ["a", 1, "2", 0], ["b", 0, "1", 1], ["b", 1, "2", 1]],
        )
        config = RunConfig(input_path=str(path), bootstrap=10, min_cell_size=5)
        from qdid.cli import InfeasibleError

        with pytest.raises(InfeasibleError):
            run_estimation(config)


class TestMainExitCodes:
    def test_validation_failure_is_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        write_rows(path, ["unit", "period", "y", "d"], [["a", 0, "inf", 0]])
        code = main(["estimate", "-i", str(path), "-o", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["-b", "1"], "--bootstrap"),
            (["--alpha", "0"], "--alpha"),
            (["--alpha", "1.5"], "--alpha"),
            (["--tau-min", "0.9", "--tau-max", "0.1"], "--tau-"),
            (["--tau-step", "0"], "--tau-"),
            (["--estimators", ""], "--estimators"),
            # a grid of 9e14 points: no machine can allocate it, so it fails at once
            (["--tau-step", "1e-15"], "--tau-min/--tau-max/--tau-step"),
            # 1001 points that the 12-decimal rounding collapses into a few
            (["--tau-min", "0.5", "--tau-max", "0.5000000001", "--tau-step", "1e-13"],
             "--tau-min/--tau-max/--tau-step"),
            # past the bound on the draw count (inference.MAX_ITERATIONS)
            (["-b", "5000000000"], "--bootstrap"),
            # draws of 3 PB (90001 grid points): past any address space, so they fail at once
            (["-b", "4294967295", "--tau-step", "1e-5"], "--bootstrap"),
        ],
    )
    def test_bad_bootstrap_settings_fail_before_loading(self, tmp_path, capsys, flags, name):
        missing = tmp_path / "missing.csv"
        code = main(["estimate", "-i", str(missing), "-o", str(tmp_path / "out")] + flags)
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert name in err
        assert "cannot open" not in err

    def test_infeasible_is_3(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        write_rows(
            path,
            ["unit", "period", "y", "d"],
            [["a", 0, "1", 0], ["a", 1, "2", 0], ["b", 0, "1", 1], ["b", 1, "2", 1]],
        )
        code = main(
            ["estimate", "-i", str(path), "-o", str(tmp_path / "out"),
             "--min-cell-size", "5", "--bootstrap", "5"]
        )
        assert code == EXIT_INFEASIBLE

    def test_estimate_writes_outputs(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        null_panel_csv(path, n_arm=25, seed=8)
        out = tmp_path / "report"
        code = main(
            ["estimate", "-i", str(path), "-o", str(out),
             "--tau-min", "0.2", "--tau-max", "0.8", "--tau-step", "0.2",
             "--bootstrap", "30", "--seed", "1"]
        )
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["schema"] == "qdid.report.v1"
        assert payload["config"]["bootstrap"] == 30
        assert payload["config"]["seed"] == 1
        assert (tmp_path / "report.bands.csv").exists()
        assert (tmp_path / "report.summary.csv").exists()

    def test_json_and_csv_encode_identical_numbers(self, tmp_path):
        path = tmp_path / "data.csv"
        null_panel_csv(path, n_arm=20, seed=9)
        out = tmp_path / "rep"
        main(
            ["estimate", "-i", str(path), "-o", str(out),
             "--tau-min", "0.25", "--tau-max", "0.75", "--tau-step", "0.25",
             "--bootstrap", "25", "--seed", "2"]
        )
        payload = json.loads((tmp_path / "rep.json").read_text())
        block = payload["cells"][0]["estimators"]["ddid"]
        with open(tmp_path / "rep.bands.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(block["taus"])
        for j, row in enumerate(rows):
            assert float(row["estimate"]) == block["estimate"][j]
            assert float(row["lower"]) == block["lower"][j]
            assert float(row["upper"]) == block["upper"][j]
            assert float(row["pointwise_se"]) == block["pointwise_se"][j]

    def test_deterministic_reruns_bit_identical(self, tmp_path):
        path = tmp_path / "data.csv"
        null_panel_csv(path, n_arm=20, seed=10)
        args = ["estimate", "-i", str(path),
                "--tau-min", "0.25", "--tau-max", "0.75", "--tau-step", "0.25",
                "--bootstrap", "20", "--seed", "3"]
        main(args + ["-o", str(tmp_path / "one")])
        main(args + ["-o", str(tmp_path / "two")])
        assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()
        assert (
            (tmp_path / "one.bands.csv").read_bytes()
            == (tmp_path / "two.bands.csv").read_bytes()
        )


class TestSimulateCommand:
    def test_simulate_then_estimate(self, tmp_path):
        draw = tmp_path / "draw.csv"
        code = main(["simulate", "--dgp", "1", "--n", "40", "--te", "1.0",
                     "--seed", "5", "-o", str(draw)])
        assert code == EXIT_OK
        out = tmp_path / "rep"
        code = main(
            ["estimate", "-i", str(draw), "-o", str(out),
             "--tau-min", "0.25", "--tau-max", "0.75", "--tau-step", "0.25",
             "--bootstrap", "30", "--seed", "0"]
        )
        assert code == EXIT_OK

    def test_simulate_reruns_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            main(["simulate", "--dgp", "2", "--n", "15", "--rho", "0.5",
                  "--seed", "6", "-o", str(target)])
        assert a.read_bytes() == b.read_bytes()

    def test_rcs_mode_reads_simulated_panel(self, tmp_path):
        draw = tmp_path / "draw.csv"
        main(["simulate", "--dgp", "1", "--n", "30", "--seed", "7", "-o", str(draw)])
        out = tmp_path / "rcs_rep"
        code = main(
            ["estimate", "-i", str(draw), "--mode", "rcs", "-o", str(out),
             "--tau-min", "0.3", "--tau-max", "0.7", "--tau-step", "0.2",
             "--bootstrap", "20", "--seed", "0"]
        )
        assert code == EXIT_OK

    def test_baked_in_effect_detected(self, tmp_path):
        """A unit effect at N=500 per arm is flagged by the sup test and the
        band excludes zero near the median."""
        draw = tmp_path / "effect.csv"
        main(["simulate", "--dgp", "1", "--n", "500", "--te", "1.0",
              "--seed", "21", "-o", str(draw)])
        out = tmp_path / "rep"
        code = main(
            ["estimate", "-i", str(draw), "-o", str(out),
             "--bootstrap", "200", "--seed", "3", "--format", "json"]
        )
        assert code == EXIT_OK
        block = json.loads((tmp_path / "rep.json").read_text())["cells"][0][
            "estimators"]["ddid"]
        assert block["reject"] is True
        mid = block["taus"].index(0.5)
        assert block["lower"][mid] > 0.0


class TestMcCommand:
    def test_tiny_table_run(self, tmp_path):
        out = tmp_path / "table"
        code = main(
            ["mc", "--dgp", "1", "--n", "20,30", "--te", "0", "--reps", "2",
             "--bootstrap", "5", "--seed", "1", "-o", str(out)]
        )
        assert code == EXIT_OK
        with open(tmp_path / "table.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        header = rows[0]
        assert header[:2] == ["statistic", "n"]
        assert "ddid_0.1" in header and "cic_0.9" in header
        stats = {r[0] for r in rows[1:]}
        assert stats == {"bias", "rmse", "rej_prob"}
        assert len(rows) == 1 + 3 * 2
        payload = json.loads((tmp_path / "table.json").read_text())
        assert payload["schema"] == "qdid.mc.v1"
        assert payload["reps"] == 2

    def test_dgp2_rho_table(self, tmp_path):
        out = tmp_path / "t2"
        code = main(
            ["mc", "--dgp", "2", "--n", "20", "--rho", "0,0.5", "--reps", "2",
             "--bootstrap", "0", "--estimators", "ddid", "--seed", "2", "-o", str(out)]
        )
        assert code == EXIT_OK
        with open(tmp_path / "t2.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0][:2] == ["statistic", "rho_bar"]
        assert {r[0] for r in rows[1:]} == {"bias", "rmse"}

    def test_deterministic_rerun(self, tmp_path):
        args = ["mc", "--dgp", "1", "--n", "15", "--reps", "1", "--bootstrap", "4",
                "--seed", "3"]
        main(args + ["-o", str(tmp_path / "a")])
        main(args + ["-o", str(tmp_path / "b")])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_report_dict_round_trip(tmp_path):
    path = tmp_path / "data.csv"
    null_panel_csv(path, n_arm=15, seed=11)
    config = RunConfig(
        input_path=str(path), tau_min=0.25, tau_max=0.75, tau_step=0.25,
        bootstrap=15, seed=4,
    )
    result = run_estimation(config)
    payload = report_dict(result)
    encoded = json.dumps(payload)
    decoded = json.loads(encoded)
    assert decoded["config"]["input_path"] == str(path)
    assert decoded["cells"][0]["estimators"]["ddid"]["taus"] == [0.25, 0.5, 0.75]
