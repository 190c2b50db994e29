import csv
import json

import numpy as np
import pytest

from subharm import CsvSchema, generate_scenario, load_preset, save_dataset
from subharm.cli import main

from conftest import balanced_dataset


def run_cli(*args):
    return main(list(args))


@pytest.fixture(scope="module")
def small_csvs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("data")
    ds = balanced_dataset(k=2, n_t=8, n_c=8, n_e=12, gamma=[0.5, 0.5], seed=44)
    rct, ec = str(tmp / "rct.csv"), str(tmp / "ec.csv")
    save_dataset(ds, rct, ec)
    return rct, ec


def write_config(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestEstimate:
    def test_minimal_run(self, small_csvs, tmp_path):
        rct, ec = small_csvs
        cfg = write_config(tmp_path / "cfg.json", {
            "rct_csv": rct, "ec_csv": ec,
            "schema": {"covariates": ["x1", "x2"][:0]},
            "out_dir": str(tmp_path / "out"),
        })
        assert run_cli("estimate", "--config", cfg) == 0
        rows = read_rows(tmp_path / "out" / "estimates.csv")
        per_est = {}
        for r in rows:
            per_est.setdefault(r["estimator"], []).append(r)
        assert len(per_est["diff_means_pooled"]) == 2
        assert len(per_est["harmonized"]) == 2
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["version"]
        gap = manifest["checks"]["full_harmonization_gap[harmonized]"]
        assert gap <= 1e-10
        assert (tmp_path / "out" / "intervals.csv").exists()

    def test_missing_file_exits_3(self, small_csvs, tmp_path, capsys):
        rct, _ = small_csvs
        cfg = write_config(tmp_path / "c.json", {
            "rct_csv": rct, "ec_csv": str(tmp_path / "nope.csv"),
            "out_dir": str(tmp_path / "o")})
        code = run_cli("estimate", "--config", cfg)
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "error" in err

    def test_unknown_key_exits_2(self, small_csvs, tmp_path):
        rct, ec = small_csvs
        cfg = write_config(tmp_path / "c.json", {
            "rct_csv": rct, "ec_csv": ec, "bogus_key": 1,
            "out_dir": str(tmp_path / "o")})
        assert run_cli("estimate", "--config", cfg) == 2

    def test_binary_estimate_with_bd(self, tmp_path):
        from subharm import generate_scenario as gen, load_preset as lp
        ds = gen(lp("fig5"), seed=2)
        rct, ec = str(tmp_path / "r.csv"), str(tmp_path / "e.csv")
        save_dataset(ds, rct, ec, CsvSchema(covariates=("x1",)))
        cfg = write_config(tmp_path / "c.json", {
            "rct_csv": rct, "ec_csv": ec, "outcome_family": "binary",
            "schema": {"covariates": ["x1"]}, "out_dir": str(tmp_path / "o")})
        assert run_cli("estimate", "--config", cfg, "--sigma-mode", "bd") == 0
        rows = read_rows(tmp_path / "o" / "estimates.csv")
        assert len([r for r in rows if r["estimator"] == "harmonized"]) == 5

    def test_fixed_sigma_mode_defaults_to_identity(self, small_csvs, tmp_path):
        rct, ec = small_csvs
        cfg = write_config(tmp_path / "c.json", {
            "rct_csv": rct, "ec_csv": ec, "out_dir": str(tmp_path / "o")})
        assert run_cli("estimate", "--config", cfg, "--sigma-mode", "fixed") == 0

    def test_bad_lambda_exits_2(self, small_csvs, tmp_path):
        rct, ec = small_csvs
        cfg = write_config(tmp_path / "c.json", {
            "rct_csv": rct, "ec_csv": ec, "out_dir": str(tmp_path / "o")})
        assert run_cli("estimate", "--config", cfg, "--lambda", "-3") == 2


class TestSimulate:
    def test_smoke_two_reps(self, tmp_path):
        out = tmp_path / "sim"
        code = run_cli("simulate", "--preset", "fig1-s2", "--reps", "2",
                       "--seed", "1", "--out-dir", str(out))
        assert code == 0
        assert (out / "report.csv").exists()
        assert (out / "report.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["reps"] == 2

    def test_same_seed_byte_identical(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run_cli("simulate", "--preset", "fig1-s1", "--reps", "6",
                           "--seed", "7", "--out-dir", str(out)) == 0
            outs.append((out / "report.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_workers_byte_identical(self, tmp_path):
        outs = []
        for sub, workers in (("w1", "1"), ("w2", "2")):
            out = tmp_path / sub
            assert run_cli("simulate", "--preset", "fig1-s2", "--reps", "8",
                           "--seed", "3", "--workers", workers,
                           "--out-dir", str(out)) == 0
            outs.append((out / "report.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_inline_scenario(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "scenario": {"name": "tiny", "outcome_family": "continuous", "k": 2,
                         "n_rct_treated": [4, 4], "n_rct_control": [4, 4],
                         "n_ec": [6, 6], "mu": [0, 0], "theta": [0, 0],
                         "distortion": [1, 1], "phi2": 1.0},
            "reps": 4, "out_dir": str(tmp_path / "o")})
        assert run_cli("simulate", "--config", cfg) == 0

    def test_missing_scenario_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"reps": 2,
                                                 "out_dir": str(tmp_path / "o")})
        assert run_cli("simulate", "--config", cfg) == 2


@pytest.fixture(scope="module")
def pools(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pools")
    spec = load_preset("gbm-like")
    ds = generate_scenario(spec, seed=20)
    trial, ec = str(tmp / "t.csv"), str(tmp / "e.csv")
    save_dataset(ds, trial, ec, CsvSchema(covariates=("x1",)))
    return trial, ec


class TestResample:
    def test_run_and_artifacts(self, pools, tmp_path):
        trial, ec = pools
        cfg = write_config(tmp_path / "c.json", {
            "trial_csv": trial, "ec_csv": ec,
            "schema": {"covariates": ["x1"]},
            "n_control": 60, "n_experimental": 90, "n_ec": 150,
            "reps": 12, "out_dir": str(tmp_path / "o")})
        assert run_cli("resample", "--config", cfg, "--seed", "2") == 0
        rows = read_rows(tmp_path / "o" / "replicates.csv")
        # reps x estimators x K minus flagged failures
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        n_fail_rows = manifest["checks"]["n_failures"]
        assert len(rows) >= 12 * 4 * 4 - n_fail_rows * 4
        assert {r["estimator"] for r in rows} == {
            "logistic_pooled", "logistic_ipw", "harmonized_ipw", "logistic_rct"}

    def test_spike_shifts_estimates(self, pools, tmp_path):
        trial, ec = pools
        base_cfg = {
            "trial_csv": trial, "ec_csv": ec, "schema": {"covariates": ["x1"]},
            "n_control": 60, "n_experimental": 90, "n_ec": 150, "reps": 20,
            "estimators": ["logistic_rct"], "seed": 4}
        means = []
        for sub, spike in (("b", None), ("s", [0.15, 0.15, 0.15, 0.15])):
            cfg_obj = dict(base_cfg, out_dir=str(tmp_path / sub))
            if spike:
                cfg_obj["spike"] = spike
            cfg = write_config(tmp_path / f"{sub}.json", cfg_obj)
            assert run_cli("resample", "--config", cfg) == 0
            rows = read_rows(tmp_path / sub / "replicates.csv")
            means.append(np.mean([float(r["estimate"]) for r in rows]))
        assert means[1] - means[0] > 0.08


class TestEstimateFailsClosed:
    def test_bootstrap_centred_on_harmonized_estimate(self, tmp_path):
        # user-supplied prevalences far from the empirical ones: the
        # bootstrap must harmonize with them, like the estimate does
        ds = generate_scenario(load_preset("fig1-s2"), seed=3)
        rct, ec = str(tmp_path / "r.csv"), str(tmp_path / "e.csv")
        save_dataset(ds, rct, ec)
        cfg = write_config(tmp_path / "c.json", {
            "rct_csv": rct, "ec_csv": ec, "prevalences": [0.05] * 5 + [0.15] * 5,
            "intervals": ["analytic", "bootstrap"], "seed": 3,
            "out_dir": str(tmp_path / "o")})
        assert run_cli("estimate", "--config", cfg) == 0
        est = [r["estimate"] for r in read_rows(tmp_path / "o" / "estimates.csv")
               if r["estimator"] == "harmonized"]
        ivs = read_rows(tmp_path / "o" / "intervals.csv")
        for method in ("analytic", "bootstrap"):
            assert [r["point"] for r in ivs if r["method"] == method] == est

    @pytest.mark.parametrize("column,value", [
        ("outcome", "nan"), ("outcome", "inf"), ("x1", "-inf")])
    def test_non_finite_cell_exits_3(self, tmp_path, capsys, column, value):
        ds = balanced_dataset(k=2, n_t=4, n_c=4, n_e=6, d=1, beta=[0.5], seed=5)
        rct, ec = tmp_path / "r.csv", tmp_path / "e.csv"
        save_dataset(ds, str(rct), str(ec))
        lines = ec.read_text().splitlines()
        header = lines[0].split(",")
        cells = lines[3].split(",")
        cells[header.index(column)] = value
        lines[3] = ",".join(cells)
        ec.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path / "c.json", {
            "rct_csv": str(rct), "ec_csv": str(ec),
            "schema": {"covariates": ["x1"]}, "out_dir": str(tmp_path / "o")})
        assert run_cli("estimate", "--config", cfg) == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "MalformedRow"
        assert f"{ec}:4:" in err["message"] and repr(column) in err["message"]

    @pytest.mark.parametrize("edit", ["short", "long"])
    def test_row_with_wrong_field_count_exits_3(self, small_csvs, tmp_path, capsys, edit):
        # a short row crashed with a traceback; a long one was accepted
        rct, ec = small_csvs
        lines = open(ec).read().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] if edit == "short" else lines[2] + ",0.5"
        bad = tmp_path / "ec.csv"
        bad.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path / "c.json", {
            "rct_csv": rct, "ec_csv": str(bad), "out_dir": str(tmp_path / "o")})
        assert run_cli("estimate", "--config", cfg) == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "MalformedRow" and f"{bad}:3:" in err["message"]

    def test_schema_weight_key_exits_2(self, tmp_path, capsys):
        # no estimator reads analysis weights, so the key is unknown; the
        # files do not exist, so exit 2 means no CSV was read
        cfg = write_config(tmp_path / "c.json", {
            "rct_csv": str(tmp_path / "r.csv"), "ec_csv": str(tmp_path / "e.csv"),
            "schema": {"weight": "w"}, "out_dir": str(tmp_path / "o")})
        assert run_cli("estimate", "--config", cfg) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError" and "'weight'" in err["message"]

    def test_nan_harmonization_gap_exits_4(self, small_csvs, tmp_path, monkeypatch):
        import subharm.cli

        rct, ec = small_csvs
        cfg = write_config(tmp_path / "c.json", {
            "rct_csv": rct, "ec_csv": ec, "out_dir": str(tmp_path / "o")})
        monkeypatch.setattr(subharm.cli, "overall_for", lambda ctx, ecfg: float("nan"))
        assert run_cli("estimate", "--config", cfg) == 4

    def test_large_binary_estimate_converges(self, tmp_path):
        # ~84k rows: an absolute step-acceptance threshold let the
        # log-likelihood's rounding noise stall the limit-map fits
        from subharm import ScenarioSpec

        spec = ScenarioSpec(
            name="large-binary", outcome_family="binary", k=8,
            n_rct_treated=(1500,) * 8, n_rct_control=(1500,) * 8, n_ec=(7500,) * 8,
            mu=(-0.8, -0.6, -0.4, -0.2, 0.0, 0.2, 0.4, 0.6), theta=(0.4,) * 8,
            distortion=(0.3,) * 8, n_covariates=2, beta=(0.5, -0.3), x_mean_ec=0.5)
        rct, ec = str(tmp_path / "r.csv"), str(tmp_path / "e.csv")
        save_dataset(generate_scenario(spec, seed=0), rct, ec)
        harmonized = [{"kind": "harmonized", "name": name, "initial": initial,
                       "overall": "logistic", "lambda": "full", "sigma_mode": mode}
                      for name, initial, mode in (("bd_pooled", "logistic_pooled", "bd"),
                                                  ("bd_ipw", "logistic_ipw", "bd"),
                                                  ("vd_pooled", "logistic_pooled", "vd"))]
        cfg = write_config(tmp_path / "c.json", {
            "rct_csv": rct, "ec_csv": ec, "schema": {"covariates": ["x1", "x2"]},
            "outcome_family": "binary", "intervals": ["rct_only"],
            "estimators": ["logistic_pooled", "logistic_rct", "logistic_ipw", *harmonized],
            "out_dir": str(tmp_path / "o")})
        assert run_cli("estimate", "--config", cfg) == 0
        rows = read_rows(tmp_path / "o" / "estimates.csv")
        assert len(rows) == 6 * 8 + 1
        assert all(np.isfinite(float(r["estimate"])) for r in rows)
        checks = json.loads((tmp_path / "o" / "manifest.json").read_text())["checks"]
        gaps = [v for key, v in checks.items() if key.startswith("full_harmonization_gap[")]
        assert len(gaps) == 3 and all(g <= 1e-10 for g in gaps)


@pytest.fixture(scope="module")
def fig1_csvs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fig1")
    rct, ec = str(tmp / "r.csv"), str(tmp / "e.csv")
    save_dataset(generate_scenario(load_preset("fig1-s2"), seed=3), rct, ec)
    return rct, ec


class TestIntervalDispatch:
    def test_degenerate_bias_direction_falls_back_for_intervals(self, fig1_csvs, tmp_path):
        from unittest import mock

        from subharm.errors import DegenerateDirection
        from subharm.sim import _ReplicateContext

        rct, ec = fig1_csvs
        cfg = write_config(tmp_path / "c.json", {
            "rct_csv": rct, "ec_csv": ec, "intervals": ["analytic", "bootstrap"],
            "seed": 3, "out_dir": str(tmp_path / "o")})
        with mock.patch.object(_ReplicateContext, "bd_direction",
                               side_effect=DegenerateDirection("forced")):
            assert run_cli("estimate", "--config", cfg) == 0
        est = [r["estimate"] for r in read_rows(tmp_path / "o" / "estimates.csv")
               if r["estimator"] == "harmonized"]
        ivs = read_rows(tmp_path / "o" / "intervals.csv")
        for method in ("analytic", "bootstrap"):
            assert [r["point"] for r in ivs if r["method"] == method] == est
        checks = json.loads((tmp_path / "o" / "manifest.json").read_text())["checks"]
        assert checks["shift_mode[harmonized]"] == "vd (bd fallback)"

    def test_manifest_records_each_shift_mode(self, fig1_csvs, tmp_path):
        rct, ec = fig1_csvs
        ests = [{"kind": "harmonized", "name": mode, "initial": "diff_means_pooled",
                 "overall": "diff_means", "lambda": 2, "sigma_mode": mode}
                for mode in ("bd", "vd", "fixed", "identity")]
        cfg = write_config(tmp_path / "c.json", {
            "rct_csv": rct, "ec_csv": ec, "estimators": ests,
            "out_dir": str(tmp_path / "o")})
        assert run_cli("estimate", "--config", cfg) == 0
        checks = json.loads((tmp_path / "o" / "manifest.json").read_text())["checks"]
        assert {k: v for k, v in checks.items() if k.startswith("shift_mode[")} == {
            "shift_mode[bd]": "bd", "shift_mode[vd]": "vd",
            "shift_mode[fixed]": "fixed", "shift_mode[identity]": "fixed"}

    @pytest.mark.parametrize("method", ["analytic", "bootstrap", "cut"])
    def test_interval_on_wrong_pipeline_exits_2(self, fig1_csvs, tmp_path, capsys, method):
        rct, ec = fig1_csvs
        cfg = write_config(tmp_path / "c.json", {
            "rct_csv": rct, "ec_csv": ec, "intervals": [method, "rct_only"],
            "estimators": [{"kind": "harmonized", "name": "h_ols", "initial": "ols_pooled",
                            "overall": "diff_means", "lambda": "full"}],
            "out_dir": str(tmp_path / "o")})
        assert run_cli("estimate", "--config", cfg) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert repr(method) in err["message"] and "'h_ols'" in err["message"]
        assert not (tmp_path / "o" / "estimates.csv").exists()

    def test_trial_only_interval_accepts_any_pipeline(self, fig1_csvs, tmp_path):
        rct, ec = fig1_csvs
        cfg = write_config(tmp_path / "c.json", {
            "rct_csv": rct, "ec_csv": ec, "intervals": ["rct_only"],
            "estimators": ["ols_pooled",
                           {"kind": "harmonized", "initial": "ols_pooled",
                            "overall": "ols", "lambda": "full"}],
            "out_dir": str(tmp_path / "o")})
        assert run_cli("estimate", "--config", cfg) == 0
        assert len(read_rows(tmp_path / "o" / "intervals.csv")) == 10


def rerun_from_manifest(command, out, tmp_path, artifacts):
    """Run `command` again on the config recorded in `out`'s manifest, into
    a fresh directory, and require byte-identical artifacts."""
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    again = tmp_path / "again"
    cfg = write_config(tmp_path / "again.json", dict(manifest["config"], out_dir=str(again)))
    assert run_cli(command, "--config", cfg) == 0
    for name in artifacts:
        assert (again / name).read_bytes() == (out / name).read_bytes(), name
    return manifest


class TestManifestReruns:
    def test_estimate(self, fig1_csvs, tmp_path):
        rct, ec = fig1_csvs
        cfg = write_config(tmp_path / "c.json", {
            "rct_csv": rct, "ec_csv": ec, "seed": 3,
            "intervals": ["analytic", "bootstrap", "rct_only"],
            "out_dir": str(tmp_path / "o")})
        assert run_cli("estimate", "--config", cfg) == 0
        manifest = rerun_from_manifest("estimate", tmp_path / "o", tmp_path,
                                       ["estimates.csv", "intervals.csv"])
        assert manifest["checks"]["prevalence_source"] == "rct_empirical"

    def test_simulate_preset(self, tmp_path):
        assert run_cli("simulate", "--preset", "fig1-s2", "--reps", "3", "--seed", "2",
                       "--out-dir", str(tmp_path / "o")) == 0
        manifest = rerun_from_manifest("simulate", tmp_path / "o", tmp_path, ["report.csv"])
        assert "preset" not in manifest["config"]
        assert manifest["checks"]["preset"] == "fig1-s2"

    def test_simulate_inline_scenario_with_interval_estimator(self, tmp_path):
        harmonized = [{"kind": "harmonized", "name": f"h{lam}", "initial": "diff_means_pooled",
                       "overall": "diff_means", "lambda": lam} for lam in (1, "full")]
        cfg = write_config(tmp_path / "c.json", {
            "scenario": {"name": "tiny", "outcome_family": "continuous", "k": 2,
                         "n_rct_treated": [4, 4], "n_rct_control": [4, 4],
                         "n_ec": [6, 6], "mu": [0, 0], "theta": [0, 0],
                         "distortion": [1, 1], "phi2": 1.0},
            "estimators": ["diff_means_pooled", *harmonized],
            "intervals": ["analytic", "rct_only"], "interval_estimator": "h1",
            "reps": 4, "seed": 5, "out_dir": str(tmp_path / "o")})
        assert run_cli("simulate", "--config", cfg) == 0
        manifest = rerun_from_manifest("simulate", tmp_path / "o", tmp_path, ["report.csv"])
        assert manifest["config"]["interval_estimator"] == "h1"

    def test_resample(self, pools, tmp_path):
        trial, ec = pools
        cfg = write_config(tmp_path / "c.json", {
            "trial_csv": trial, "ec_csv": ec, "schema": {"covariates": ["x1"]},
            "n_control": 60, "n_experimental": 90, "n_ec": 150, "reps": 6, "seed": 2,
            "out_dir": str(tmp_path / "o")})
        assert run_cli("resample", "--config", cfg) == 0
        rerun_from_manifest("resample", tmp_path / "o", tmp_path, ["report.csv"])
