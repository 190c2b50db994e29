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


TINY_SCENARIO = {"name": "tiny", "outcome_family": "continuous", "k": 2,
                 "n_rct_treated": [4, 4], "n_rct_control": [4, 4], "n_ec": [6, 6],
                 "mu": [0, 0], "theta": [0, 0], "distortion": [1, 1], "phi2": 1.0}


def fixed_sigma_estimator(sigma, mode="fixed"):
    return {"kind": "harmonized", "name": "h", "initial": "diff_means_pooled",
            "lambda": "full", "sigma_mode": mode, "sigma": sigma}


class TestSettingsFailClosed:
    """A setting that would be ignored, or that would fail in every
    replicate, exits 2 before any estimate is written. Where the config
    names CSV files that do not exist, exit 2 also shows that no data were
    read; where `generate_scenario` raises, that no replicate ran."""

    @pytest.fixture
    def no_replicates(self, monkeypatch):
        import subharm.sim

        def refuse(*args, **kwargs):
            raise AssertionError("a replicate ran")
        monkeypatch.setattr(subharm.sim, "generate_scenario", refuse)

    def exits_2(self, command, cfg, tmp_path, capsys, words, flags=(), error="ConfigError"):
        out = tmp_path / "o"
        path = write_config(tmp_path / "c.json", dict(cfg, out_dir=str(out)))
        assert run_cli(command, "--config", path, *flags) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == error
        assert all(w in err["message"] for w in words), err["message"]
        assert not any(out.glob("*.csv"))

    def missing_csvs(self, tmp_path):
        return {"rct_csv": str(tmp_path / "r.csv"), "ec_csv": str(tmp_path / "e.csv")}

    @pytest.mark.parametrize("command,alpha", [
        ("estimate", 1.5), ("estimate", 0), ("simulate", 2), ("simulate", float("nan"))])
    def test_alpha_outside_0_1(self, tmp_path, capsys, no_replicates, command, alpha):
        cfg = (self.missing_csvs(tmp_path) if command == "estimate" else
               {"preset": "fig1-s2", "reps": 2, "intervals": ["analytic"]})
        self.exits_2(command, dict(cfg, alpha=alpha), tmp_path, capsys, ["alpha"])

    def test_bootstrap_r_below_100(self, tmp_path, capsys, no_replicates):
        cfg = {"preset": "fig1-s2", "reps": 2, "intervals": ["bootstrap"], "bootstrap_r": 50}
        self.exits_2("simulate", cfg, tmp_path, capsys, ["bootstrap_r", "50"])

    @pytest.mark.parametrize("cfg", [
        {"sigma": [[1, 0], [0, 1]]},
        {"sigma": [[1, 0], [0, 1]], "sigma_mode": "vd"},
        {"estimators": [fixed_sigma_estimator([[2, 0], [0, 1]], "identity")]},
    ], ids=["estimate-default-bd", "estimate-vd", "identity"])
    def test_sigma_outside_fixed_mode(self, tmp_path, capsys, cfg):
        self.exits_2("estimate", dict(self.missing_csvs(tmp_path), **cfg), tmp_path,
                     capsys, ["sigma_mode 'fixed'"])

    @pytest.mark.parametrize("key,value", [
        ("lambda", 2), ("sigma_mode", "vd"), ("sigma", [[1, 0], [0, 1]]),
        ("initial", "diff_means_pooled"), ("overall", "ols")])
    def test_harmonization_option_on_a_plain_estimator(self, tmp_path, capsys, key, value):
        cfg = dict(self.missing_csvs(tmp_path),
                   estimators=[{"kind": "diff_means_pooled", key: value}])
        self.exits_2("estimate", cfg, tmp_path, capsys, ["'diff_means_pooled'", repr(key)])

    @pytest.mark.parametrize("sigma,words", [
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], ["2x2"]),
        ([[1, 0.5], [0, 1]], ["symmetric"]),
        ([[1, 2], [2, 1]], ["singular"]),
        ([[1, 0], [0]], []),
    ], ids=["wrong-size", "asymmetric", "indefinite", "ragged"])
    @pytest.mark.parametrize("command", ["estimate", "simulate"])
    def test_fixed_sigma_not_k_by_k_positive_definite(self, small_csvs, tmp_path, capsys,
                                                      no_replicates, command, sigma, words):
        rct, ec = small_csvs
        cfg = ({"rct_csv": rct, "ec_csv": ec} if command == "estimate" else
               {"scenario": TINY_SCENARIO, "reps": 2})
        cfg["estimators"] = [fixed_sigma_estimator(sigma)]
        self.exits_2(command, cfg, tmp_path, capsys, ["'h' has an invalid sigma", *words])

    def base(self, command, tmp_path):
        """A config that would run, but for CSV files that do not exist."""
        return {"estimate": self.missing_csvs(tmp_path),
                "simulate": {"preset": "fig1-s2", "reps": 2},
                "resample": {"trial_csv": str(tmp_path / "t.csv"),
                             "ec_csv": str(tmp_path / "e.csv")}}[command]

    @pytest.mark.parametrize("command,cfg,flags,keys", [
        ("estimate", {"lambda": 2, "sigma_mode": "vd"}, (), ["'lambda'", "'sigma_mode'"]),
        ("estimate", {"sigma": [[1, 0], [0, 1]]}, (), ["'sigma'"]),
        ("estimate", {}, ("--lambda", "2"), ["'lambda'"]),
        ("estimate", {}, ("--sigma-mode", "vd"), ["'sigma_mode'"]),
        ("simulate", {"harmonized_lambdas": [0, "full"]}, (), ["'harmonized_lambdas'"]),
    ], ids=["lambda-and-sigma_mode", "sigma", "lambda-flag", "sigma-mode-flag",
            "harmonized_lambdas"])
    def test_list_keys_beside_estimators(self, tmp_path, capsys, no_replicates, command,
                                         cfg, flags, keys):
        # they only build the default list: beside an explicit one the
        # estimator ran at full bd while the manifest echoed them
        ests = ["diff_means_pooled",
                {"kind": "harmonized", "initial": "diff_means_pooled", "name": "h"}]
        cfg = dict(self.base(command, tmp_path), estimators=ests, **cfg)
        self.exits_2(command, cfg, tmp_path, capsys, keys, flags)

    @pytest.mark.parametrize("cfg,flags", [
        ({"lambda": 2, "harmonized_lambdas": [0, "full"]}, ()),
        ({"harmonized_lambdas": [0, "full"]}, ("--lambda", "2")),
    ], ids=["file", "lambda-flag"])
    def test_lambda_beside_harmonized_lambdas(self, tmp_path, capsys, no_replicates, cfg,
                                              flags):
        # simulate ran at lambda alone, and only the manifest's estimator
        # list showed which key won
        self.exits_2("simulate", dict(self.base("simulate", tmp_path), **cfg), tmp_path,
                     capsys, ["'lambda'", "'harmonized_lambdas'"], flags)

    @pytest.mark.parametrize("command,key,value,flags", [
        ("simulate", "reps", "many", ()),
        ("simulate", "reps", 2.5, ()),
        ("simulate", "seed", -1, ()),
        ("simulate", "seed", 0, ("--seed", "-1")),
        ("simulate", "bootstrap_r", "1e3", ()),
        ("estimate", "workers", [1], ()),
        ("resample", "n_ec", 1.5, ()),
        ("resample", "n_control", None, ()),
    ])
    def test_whole_number_settings(self, tmp_path, capsys, no_replicates, command, key,
                                   value, flags):
        cfg = dict(self.base(command, tmp_path), **{key: value})
        self.exits_2(command, cfg, tmp_path, capsys, [key, "non-negative whole number"],
                     flags)

    @pytest.mark.parametrize("reps", [3, 3.0, "3"])
    def test_whole_numbers_in_any_spelling(self, tmp_path, reps):
        path = write_config(tmp_path / "c.json", {"scenario": TINY_SCENARIO, "reps": reps,
                                                   "out_dir": str(tmp_path / "o")})
        assert run_cli("simulate", "--config", path) == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["config"]["reps"] == 3

    def test_duplicate_names_in_estimate(self, small_csvs, tmp_path, capsys):
        # the second 'x' overwrote the first, so the full-lambda gap was
        # computed on the lambda = 1 estimate after estimates.csv was written
        rct, ec = small_csvs
        ests = [{"kind": "harmonized", "name": "x", "initial": "diff_means_pooled",
                 "lambda": lam} for lam in ("full", 1)]
        cfg = {"rct_csv": rct, "ec_csv": ec, "estimators": ests}
        self.exits_2("estimate", cfg, tmp_path, capsys, ["unique", "'x'"])

    def test_duplicate_names_in_resample(self, tmp_path, capsys):
        # the report kept only one of the two columns
        cfg = dict(self.base("resample", tmp_path),
                   estimators=["logistic_pooled", "logistic_rct", "logistic_pooled"])
        self.exits_2("resample", cfg, tmp_path, capsys, ["unique", "'logistic_pooled'"])

    @pytest.mark.parametrize("mode,initial", [
        ("vd", "diff_means_rct"), ("vd", "ols_rct"), ("vd", "oracle"),
        ("bd", "diff_means_rct"), ("bd", "ols_rct"), ("bd", "oracle"), ("bd", "logistic_rct")])
    @pytest.mark.parametrize("command", ["estimate", "simulate", "resample"])
    def test_sigma_mode_undefined_for_the_initial(self, tmp_path, capsys, no_replicates,
                                                  command, mode, initial):
        # vd on diff_means_rct failed in every simulate replicate (exit 4), on
        # ols_rct in estimate (exit 3); bd raised only inside a replicate
        ests = [{"kind": "harmonized", "name": "h", "initial": initial, "sigma_mode": mode}]
        cfg = dict(self.base(command, tmp_path), estimators=ests)
        if command == "estimate":
            cfg["intervals"] = ["rct_only"]  # valid on any pipeline
        self.exits_2(command, cfg, tmp_path, capsys, ["'h'", repr(mode), repr(initial)])

    @pytest.mark.parametrize("command,extra", [
        ("estimate", {"intervals": ["rct_only"]}), ("simulate", {}), ("resample", {})])
    def test_empty_estimators(self, tmp_path, capsys, no_replicates, command, extra):
        # resample ran its four defaults while the manifest recorded [];
        # simulate wrote a header-only report, estimate only the overall row
        cfg = dict(self.base(command, tmp_path), estimators=[], **extra)
        self.exits_2(command, cfg, tmp_path, capsys, ["estimators", "at least one"])

    @pytest.mark.parametrize("spike", ["abc", [0.1, 0.2], -0.1, [0.1, 0.1, float("nan"), 0.1]])
    def test_spike_checked_before_any_replicate(self, pools, tmp_path, capsys, monkeypatch,
                                                spike):
        import subharm.sim

        def refuse(*args, **kwargs):
            raise AssertionError("a replicate ran")
        monkeypatch.setattr(subharm.sim, "_resample_batch", refuse)
        trial, ec = pools
        cfg = {"trial_csv": trial, "ec_csv": ec, "schema": {"covariates": ["x1"]},
               "reps": 4, "spike": spike}
        self.exits_2("resample", cfg, tmp_path, capsys, ["spike", "4"],
                     error="InvalidEffect")

    def test_estimate_intervals_centre_on_full_harmonization(self, fig1_csvs, tmp_path):
        # the rule simulate uses: a finite-lambda entry listed first is not
        # the interval target
        rct, ec = fig1_csvs
        ests = [{"kind": "harmonized", "name": name, "initial": "diff_means_pooled",
                 "lambda": lam} for name, lam in (("h2", 2), ("hfull", "full"))]
        path = write_config(tmp_path / "c.json", {
            "rct_csv": rct, "ec_csv": ec, "estimators": ests, "intervals": ["analytic"],
            "out_dir": str(tmp_path / "o")})
        assert run_cli("estimate", "--config", path) == 0
        est = read_rows(tmp_path / "o" / "estimates.csv")
        points = [r["point"] for r in read_rows(tmp_path / "o" / "intervals.csv")]
        assert points == [r["estimate"] for r in est if r["estimator"] == "hfull"]
        assert points != [r["estimate"] for r in est if r["estimator"] == "h2"]


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


class TestDocsMatchSettings:
    """README's config examples and the subcommand flags follow
    `cli.SETTINGS`: a key added to a table without its docs, or a flag that
    could only fail as an unknown key, shows up here."""

    @pytest.mark.parametrize("command", ["estimate", "simulate", "resample"])
    def test_readme_example_keys_are_settings(self, command):
        from pathlib import Path

        from subharm.cli import SETTINGS

        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split(f"\n### {command}\n", 1)[1]
        example = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
        assert set(example) <= set(SETTINGS[command])

    @pytest.mark.parametrize("command", ["estimate", "simulate", "resample"])
    def test_flags_are_the_flagged_keys(self, command):
        from subharm.cli import FLAGS, SETTINGS, build_parser

        sub = build_parser()._subparsers._group_actions[0].choices[command]
        options = {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        assert options == {"--config"} | {"--" + key.replace("_", "-")
                                          for key in SETTINGS[command] if key in FLAGS}
