import csv
import json

import numpy as np
import pytest

from subharm import CombinedDataset, CsvSchema, generate_scenario, load_preset, save_dataset
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

    @pytest.mark.parametrize("family,preset,covariates", [
        ("binary", "fig5", ["x1"]), ("continuous", "fig1-s2", [])])
    def test_default_harmonized_estimate_meets_the_reported_overall(self, tmp_path, family,
                                                                    preset, covariates):
        # the binary default list harmonized logistic_pooled toward the
        # diff_means overall while the overall_rct row reported the logistic
        # one: pi'theta = 0.2050 against 0.19286 on this fig5 pair
        rct, ec = str(tmp_path / "r.csv"), str(tmp_path / "e.csv")
        save_dataset(generate_scenario(load_preset(preset), seed=2), rct, ec,
                     CsvSchema(covariates=tuple(covariates)))
        cfg = write_config(tmp_path / "c.json", {
            "rct_csv": rct, "ec_csv": ec, "outcome_family": family,
            "schema": {"covariates": covariates}, "out_dir": str(tmp_path / "o")})
        assert run_cli("estimate", "--config", cfg) == 0
        rows = read_rows(tmp_path / "o" / "estimates.csv")
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        pi = manifest["checks"]["design_summary"]["pi"]
        theta = [float(r["estimate"]) for r in rows if r["estimator"] == "harmonized"]
        (overall,) = [float(r["estimate"]) for r in rows if r["estimator"] == "overall_rct"]
        assert len(theta) == len(pi)
        assert abs(float(np.dot(pi, theta)) - overall) <= 1e-10


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

    def test_huge_finite_lambda(self, tmp_path):
        # c * lam overflowed to inf for lam near the largest double
        out = tmp_path / "o"
        assert run_cli("simulate", "--preset", "fig1-s2", "--reps", "3", "--lambda", "1e308",
                       "--sigma-mode", "identity", "--out-dir", str(out)) == 0
        rows = [r for r in read_rows(out / "report.csv") if "lam=1e+308" in r["estimator"]]
        assert [r["value"] for r in rows if r["metric"] == "n_used"] == ["3"]
        values = [float(r["value"]) for r in rows if r["metric"] != "n_used"]
        assert len(values) == 30 and np.all(np.isfinite(values))

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

    def test_artifacts_identical_at_one_and_two_workers(self, pools, tmp_path, monkeypatch):
        # 37 replicates in 32 chunks of one or two on two worker processes,
        # with two CPUs to use on any host
        import os

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        trial, ec = pools
        artifacts = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            cfg = write_config(tmp_path / f"w{workers}.json", {
                "trial_csv": trial, "ec_csv": ec, "schema": {"covariates": ["x1"]},
                "n_control": 60, "n_experimental": 90, "n_ec": 150, "reps": 37,
                "seed": 3, "workers": workers, "out_dir": str(out)})
            assert run_cli("resample", "--config", cfg) == 0
            artifacts.append([(out / name).read_bytes()
                              for name in ("report.json", "replicates.csv")])
        assert artifacts[0] == artifacts[1]
        assert artifacts[0][1].count(b"\n") > 37 * 4 * 3

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

    @pytest.mark.parametrize("levels,message", [
        ("12345678", "subgroup_levels must be a list of labels, got '12345678'"),
        ([str(i) for i in range(1, 9)] + ["8"], "subgroup_levels lists '8' more than once"),
    ], ids=["string", "duplicate"])
    def test_bad_subgroup_levels_exit_2(self, tmp_path, capsys, levels, message):
        # a string would read as one level per character, and a repeated
        # level would leave a subgroup without patients
        ds = balanced_dataset(k=8, n_t=2, n_c=2, n_e=2, seed=6)
        rct, ec = str(tmp_path / "r.csv"), str(tmp_path / "e.csv")
        save_dataset(ds, rct, ec)
        cfg = write_config(tmp_path / "c.json", {
            "rct_csv": rct, "ec_csv": ec, "subgroup_levels": levels,
            "out_dir": str(tmp_path / "o")})
        assert run_cli("estimate", "--config", cfg) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "ConfigError", "message": message}

    def test_non_finite_prevalences_exit_3(self, fig1_csvs, tmp_path, capsys):
        # NaN passed both the positivity and the sum check, and the run
        # exited 4 on a non-finite shift vector
        rct, ec = fig1_csvs
        cfg = write_config(tmp_path / "c.json", {
            "rct_csv": rct, "ec_csv": ec, "prevalences": [float("nan")] + [1 / 9] * 9,
            "out_dir": str(tmp_path / "o")})
        assert run_cli("estimate", "--config", cfg) == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "DataError" and "prevalences" in err["message"]
        assert not any((tmp_path / "o").glob("*.csv"))

    @pytest.mark.parametrize("first", ["a", True])
    def test_non_numeric_prevalences_exit_3(self, fig1_csvs, tmp_path, capsys, first):
        # a string died with a ValueError traceback (exit 1); true was read as 1
        rct, ec = fig1_csvs
        cfg = write_config(tmp_path / "c.json", {
            "rct_csv": rct, "ec_csv": ec, "prevalences": [first] + [1 / 9] * 9,
            "out_dir": str(tmp_path / "o")})
        assert run_cli("estimate", "--config", cfg) == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "DataError" and "prevalences must be numbers" in err["message"]
        assert not any((tmp_path / "o").glob("*.csv"))

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

    @pytest.mark.parametrize("method", ["analytic", "cut"])
    @pytest.mark.parametrize("per_cell", [1, 3])
    def test_degenerate_outcome_variance_exits_3(self, tmp_path, capsys, method, per_cell):
        # one row per cell leaves phi2 undefined (nan bounds and exit 0);
        # constant outcomes in every cell give phi2 = 0 (a zero-width
        # analytic interval, and a ValueError traceback from the cut)
        k = 2
        w_r = np.repeat(np.arange(k), 2 * per_cell)
        t_r = np.tile(np.repeat([1, 0], per_cell), k)
        w_e = np.repeat(np.arange(k), per_cell)
        if per_cell == 1:
            y_r, y_e = np.array([0.3, -1.2, 2.0, 0.7]), np.array([0.1, -0.4])
        else:
            y_r, y_e = 1.0 + t_r + 0.5 * w_r, 0.25 + 0.5 * w_e
        ds = CombinedDataset.from_arrays(y_rct=y_r, t_rct=t_r, w_rct=w_r, y_ec=y_e,
                                         w_ec=w_e, k=k)
        rct, ec = str(tmp_path / "r.csv"), str(tmp_path / "e.csv")
        save_dataset(ds, rct, ec)
        cfg = write_config(tmp_path / "c.json", {
            "rct_csv": rct, "ec_csv": ec, "intervals": [method],
            "out_dir": str(tmp_path / "o")})
        assert run_cli("estimate", "--config", cfg) == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "InsufficientData" and method in err["message"]
        # the estimates succeed, but the failed interval leaves no artifact
        assert list((tmp_path / "o").iterdir()) == []

    def test_estimator_failure_writes_nothing(self, tmp_path, capsys):
        # treatment predicts the outcome, so the pooled logistic fit
        # separates; the record is the first failure, an estimator's
        k = 2
        t_r = np.tile(np.repeat([1, 0], 4), k)
        ds = CombinedDataset.from_arrays(
            y_rct=t_r.astype(float), t_rct=t_r, w_rct=np.repeat(np.arange(k), 8),
            y_ec=np.zeros(8), w_ec=np.repeat(np.arange(k), 4), k=k,
            outcome_family="binary")
        rct, ec = str(tmp_path / "r.csv"), str(tmp_path / "e.csv")
        save_dataset(ds, rct, ec)
        cfg = write_config(tmp_path / "c.json", {
            "rct_csv": rct, "ec_csv": ec, "outcome_family": "binary",
            "out_dir": str(tmp_path / "o")})
        assert run_cli("estimate", "--config", cfg) == 4
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "SeparationDetected"
        assert err["message"].startswith("coefficient magnitude exceeded 30.0 with score")
        assert list((tmp_path / "o").iterdir()) == []

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

    @pytest.mark.parametrize("where", ["cell", "header"])
    def test_non_utf8_byte_exits_3(self, tmp_path, capsys, where):
        # a byte 0xff crashed ingest with a UnicodeDecodeError traceback; the
        # cell sits past the first read of a file larger than one buffer
        ds = generate_scenario(load_preset("fig1-s2"), seed=0)
        rct, ec = tmp_path / "r.csv", tmp_path / "e.csv"
        save_dataset(ds, str(rct), str(ec))
        lines = ec.read_bytes().split(b"\n")
        line = 1 if where == "header" else len(lines) - 1
        assert where == "header" or len(b"\n".join(lines[:line])) > 8192
        lines[line - 1] = b"\xff" + lines[line - 1]
        ec.write_bytes(b"\n".join(lines))
        cfg = write_config(tmp_path / "c.json", {
            "rct_csv": str(rct), "ec_csv": str(ec), "out_dir": str(tmp_path / "o")})
        assert run_cli("estimate", "--config", cfg) == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "MalformedRow", "message": f"{ec}:{line}: not UTF-8 text"}

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
        # a NaN harmonized estimate makes the gap NaN, which no comparison
        # of the form gap > bound would catch
        import subharm.sim
        from subharm import EffectEstimate

        rct, ec = small_csvs
        cfg = write_config(tmp_path / "c.json", {
            "rct_csv": rct, "ec_csv": ec, "out_dir": str(tmp_path / "o")})
        monkeypatch.setattr(subharm.sim, "harmonize",
                            lambda initial, overall, pi, u: EffectEstimate(np.full(len(u), np.nan)))
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

    def exits_4_at_a_boundary(self, tmp_path, capsys, arm, initial, mode, words):
        """fig5 at seed 0 with subgroup 3's RCT `arm` outcomes set to 0,
        through `estimate` with `initial` and its harmonization in `mode`."""
        ds = generate_scenario(load_preset("fig5"), seed=0)
        y_rct = np.where((ds.w_rct == 2) & (ds.t_rct == arm), 0.0, ds.y_rct)
        ds = CombinedDataset.from_arrays(
            y_rct=y_rct, t_rct=ds.t_rct, w_rct=ds.w_rct, x_rct=ds.x_rct, y_ec=ds.y_ec,
            w_ec=ds.w_ec, x_ec=ds.x_ec, k=ds.k, outcome_family="binary")
        rct, ec = str(tmp_path / "r.csv"), str(tmp_path / "e.csv")
        save_dataset(ds, rct, ec, CsvSchema(covariates=("x1",)))
        cfg = write_config(tmp_path / "c.json", {
            "rct_csv": rct, "ec_csv": ec, "outcome_family": "binary",
            "schema": {"covariates": ["x1"]}, "intervals": ["rct_only"],
            "estimators": [initial, {"kind": "harmonized", "name": "h", "initial": initial,
                                     "overall": "logistic", "sigma_mode": mode}],
            "out_dir": str(tmp_path / "o")})
        assert run_cli("estimate", "--config", cfg) == 4
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "SeparationDetected"
        assert all(w in err["message"] for w in words), err["message"]
        assert not any((tmp_path / "o").glob("*.csv"))

    @pytest.mark.parametrize("initial", ["logistic_pooled", "logistic_ipw"])
    def test_bd_refuses_a_boundary_anchor(self, tmp_path, capsys, initial):
        # subgroup 3's RCT controls all 0: the trial-only fit stopped at
        # nu_3 = -27 and bd ran on that anchor's limit map at exit 0
        self.exits_4_at_a_boundary(tmp_path, capsys, 0, initial, "bd",
                                   ["control responses of subgroup '3' are all 0"])

    @pytest.mark.parametrize("arm,initial", [(1, "logistic_pooled"), (0, "logistic_rct")])
    def test_vd_refuses_a_boundary_fit(self, tmp_path, capsys, arm, initial):
        # the all-0 cell's Wald variance is about 0: subgroup 3's variance
        # fell to 0.00125 (pooled, treated) or 0.00552 (trial-only, control)
        # and vd moved it least, at exit 0
        cell = ("RCT control", "RCT treated")[arm]
        self.exits_4_at_a_boundary(tmp_path, capsys, arm, initial, "vd", [
            f"{cell} responses of subgroup '3' are all 0", initial, "covariance"])


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

    NO_EC_INITIALS = ("diff_means_pooled", "ols_pooled", "logistic_pooled")

    def estimate_without_external_controls(self, tmp_path):
        """`estimate` with bd on each of `NO_EC_INITIALS`, on a fig5 pair
        without EC rows; the manifest's checks."""
        from dataclasses import replace

        ds = generate_scenario(replace(load_preset("fig5"), n_ec=(0,) * 5), seed=0)
        rct, ec = str(tmp_path / "r.csv"), str(tmp_path / "e.csv")
        save_dataset(ds, rct, ec, CsvSchema(covariates=("x1",)))
        cfg = write_config(tmp_path / "c.json", {
            "rct_csv": rct, "ec_csv": ec, "outcome_family": "binary",
            "schema": {"covariates": ["x1"]},
            "estimators": [{"kind": "harmonized", "name": initial, "initial": initial,
                            "overall": "logistic", "sigma_mode": "bd"}
                           for initial in self.NO_EC_INITIALS],
            "out_dir": str(tmp_path / "o")})
        assert run_cli("estimate", "--config", cfg) == 0
        return json.loads((tmp_path / "o" / "manifest.json").read_text())["checks"]

    def test_every_bias_direction_falls_back_without_external_controls(self, tmp_path):
        # no EC rows: each producer's bias response b is 0, so pi'b vanishes
        # and bd falls back to vd unforced
        checks = self.estimate_without_external_controls(tmp_path)
        initials = self.NO_EC_INITIALS
        assert {i: checks[f"shift_mode[{i}]"] for i in initials} == dict.fromkeys(
            initials, "vd (bd fallback)")

    def test_each_fallback_warning_names_its_initial(self, tmp_path, caplog):
        # one warning per fallback, each naming the initial that fell back
        import logging

        with caplog.at_level(logging.WARNING, logger="subharm"):
            self.estimate_without_external_controls(tmp_path)
        assert [r.getMessage() for r in caplog.records
                if r.getMessage().startswith("bias direction degenerate")] == [
            f"bias direction degenerate for initial {i!r}; falling back to "
            "variance-directed harmonization" for i in self.NO_EC_INITIALS]

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
        ("estimate", 1.5), ("estimate", 0), ("simulate", 2), ("simulate", float("nan")),
        ("estimate", True)])
    def test_alpha_outside_0_1(self, tmp_path, capsys, no_replicates, command, alpha):
        cfg = (self.missing_csvs(tmp_path) if command == "estimate" else
               {"preset": "fig1-s2", "reps": 2, "intervals": ["analytic"]})
        self.exits_2(command, dict(cfg, alpha=alpha), tmp_path, capsys, ["alpha"])

    def test_config_not_utf8(self, tmp_path, capsys, no_replicates):
        path = tmp_path / "c.json"
        path.write_bytes(b'{"preset": "fig1-s2", "reps": 2, "out_dir": "\xff"}')
        assert run_cli("simulate", "--config", str(path)) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError" and str(path) in err["message"]

    def test_config_path_is_a_directory(self, tmp_path, capsys, no_replicates):
        assert run_cli("simulate", "--config", str(tmp_path)) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError" and str(tmp_path) in err["message"]

    @pytest.mark.parametrize("command", ["estimate", "simulate", "resample"])
    def test_out_dir_is_a_file(self, tmp_path, capsys, no_replicates, command):
        out = tmp_path / "o"
        out.write_text("not a directory")
        csvs = self.missing_csvs(tmp_path)
        cfg = {"estimate": csvs, "simulate": {"preset": "fig1-s2", "reps": 2},
               "resample": {"trial_csv": csvs["rct_csv"], "ec_csv": csvs["ec_csv"]}}
        path = write_config(tmp_path / "c.json", dict(cfg[command], out_dir=str(out)))
        assert run_cli(command, "--config", path) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError" and str(out) in err["message"]
        assert out.read_text() == "not a directory"

    def test_bootstrap_r_below_100(self, tmp_path, capsys, no_replicates):
        cfg = {"preset": "fig1-s2", "reps": 2, "intervals": ["bootstrap"], "bootstrap_r": 50}
        self.exits_2("simulate", cfg, tmp_path, capsys, ["bootstrap_r", "50"])

    @pytest.mark.parametrize("command,key,value,message", [
        ("simulate", "reps", 1, "reps must be at least 2, got 1"),
        ("resample", "reps", 1, "reps must be at least 2, got 1"),
        ("resample", "n_ec", 0, "n_ec must be at least 1, got 0"),
    ])
    def test_too_few_replicates_or_too_small_a_size(self, tmp_path, capsys, no_replicates,
                                                    command, key, value, message):
        # the messages named no key: "need at least 2 replicates", and
        # "resampling sizes and reps must be positive" although 1 is positive
        cfg = dict(self.base(command, tmp_path), **{key: value})
        self.exits_2(command, cfg, tmp_path, capsys, [message])

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
        ([[1, float("nan")], [float("nan"), 1]], ["finite"]),
    ], ids=["wrong-size", "asymmetric", "indefinite", "ragged", "not-finite"])
    @pytest.mark.parametrize("command", ["estimate", "simulate"])
    def test_fixed_sigma_not_k_by_k_positive_definite(self, small_csvs, tmp_path, capsys,
                                                      no_replicates, command, sigma, words):
        rct, ec = small_csvs
        cfg = ({"rct_csv": rct, "ec_csv": ec} if command == "estimate" else
               {"scenario": TINY_SCENARIO, "reps": 2})
        cfg["estimators"] = [fixed_sigma_estimator(sigma)]
        self.exits_2(command, cfg, tmp_path, capsys, ["'h' has an invalid sigma", *words])

    @pytest.mark.parametrize("sigma", [["10", "01"], [[True, False], [False, True]]],
                             ids=["strings", "booleans"])
    def test_fixed_sigma_not_a_matrix_of_numbers(self, tmp_path, capsys, no_replicates,
                                                  sigma):
        # the strings were read digit by digit and the booleans as 1 and 0:
        # each ran at exit 0 with the identity
        cfg = {"scenario": TINY_SCENARIO, "reps": 2,
               "estimators": [fixed_sigma_estimator(sigma)]}
        self.exits_2("simulate", cfg, tmp_path, capsys,
                     ["sigma", "matrix", "'name': 'h'", repr(sigma)])

    @pytest.mark.parametrize("command", ["estimate", "simulate"])
    def test_repeated_interval_methods(self, small_csvs, tmp_path, capsys, no_replicates,
                                       command):
        # estimate wrote every row of intervals.csv twice; simulate computed
        # the interval twice and report.json kept one copy
        rct, ec = small_csvs
        cfg = ({"rct_csv": rct, "ec_csv": ec} if command == "estimate" else
               {"scenario": TINY_SCENARIO, "reps": 2})
        self.exits_2(command, dict(cfg, intervals=["analytic", "rct_only", "analytic"]),
                     tmp_path, capsys,
                     ["interval methods must be unique; repeated: ['analytic']"])

    def test_non_finite_prevalences_in_scenario(self, tmp_path, capsys, no_replicates):
        # NaN passed both the positivity and the sum check, and the run
        # died in an eigenvalue solver with a traceback
        scenario = dict(load_preset("fig1-s2").to_dict(),
                        prevalences=[float("nan")] + [1 / 9] * 9)
        self.exits_2("simulate", {"scenario": scenario, "reps": 2}, tmp_path, capsys,
                     ["prevalences"], error="InvalidSpec")

    OUT_OF_RANGE = [
        ("x_sd_rct", -1), ("mu", [float("nan"), 0, 0, 0, 0]), ("n_ec", [200.5] * 5),
        ("fixed_covariates", "no"), ("theta", ["a", 1, 1, 1, 1]),
        ("x_mean_ec", float("inf")), ("phi2", float("inf")), ("beta", [float("inf")])]

    @pytest.mark.parametrize("field, value", OUT_OF_RANGE, ids=[f for f, _ in OUT_OF_RANGE])
    def test_scenario_value_out_of_range(self, tmp_path, capsys, no_replicates, field, value):
        # each ran at exit 0 on a silently wrong scenario, or died later
        # with a traceback or another exit code
        scenario = dict(load_preset("fig5").to_dict(), **{field: value})
        self.exits_2("simulate", {"scenario": scenario, "reps": 2}, tmp_path, capsys,
                     [field], error="InvalidSpec")

    @pytest.mark.parametrize("scenario,words", [
        ({"k": 2}, ["scenario needs", "'outcome_family'"]),
        ({"mu": [10 ** 400, 0, 0, 0, 0]}, ["mu", "finite number"]),
    ], ids=["missing-field", "integer-beyond-any-float"])
    def test_scenario_missing_field_or_huge_integer(self, tmp_path, capsys, no_replicates,
                                                    scenario, words):
        # each exited 1 with a TypeError or an OverflowError traceback
        if "k" not in scenario:
            scenario = dict(load_preset("fig5").to_dict(), **scenario)
        self.exits_2("simulate", {"scenario": scenario, "reps": 2}, tmp_path, capsys, words,
                     error="InvalidSpec")

    BAD_IDENTITY = [("name", None), ("name", ["a"]), ("name", ""), ("version", "x"),
                    ("version", -3), ("version", 0), ("version", True), ("version", 1.5)]

    @pytest.mark.parametrize("field, value", BAD_IDENTITY,
                             ids=[f"{f}-{v!r}" for f, v in BAD_IDENTITY])
    def test_scenario_name_and_version(self, tmp_path, capsys, no_replicates, field, value):
        # each ran at exit 0; a null name wrote None into report.csv's
        # scenario column, and ["a"] wrote ['a']
        scenario = dict(load_preset("fig1-s2").to_dict(), **{field: value})
        self.exits_2("simulate", {"scenario": scenario, "reps": 2}, tmp_path, capsys,
                     [field], error="InvalidSpec")

    def base(self, command, tmp_path):
        """A config that would run, but for CSV files that do not exist."""
        return {"estimate": self.missing_csvs(tmp_path),
                "simulate": {"preset": "fig1-s2", "reps": 2},
                "resample": {"trial_csv": str(tmp_path / "t.csv"),
                             "ec_csv": str(tmp_path / "e.csv")}}[command]

    @pytest.mark.parametrize("name", [None, 7, "", ["a"]], ids=repr)
    def test_estimator_name_not_a_string(self, tmp_path, capsys, name):
        # simulate ran at exit 0 and wrote None, 7 or ['a'] into report.csv's
        # estimator column
        cfg = {"preset": "fig1-s2", "reps": 3,
               "estimators": ["diff_means_rct", {"kind": "diff_means_pooled", "name": name}]}
        self.exits_2("simulate", cfg, tmp_path, capsys,
                     ["estimator name", repr(name), "'diff_means_pooled'"])

    PATHS = [("estimate", "rct_csv", None), ("estimate", "ec_csv", ["a"]),
             ("estimate", "rct_csv", ""), ("resample", "trial_csv", 98765),
             ("resample", "trial_csv", None), ("resample", "ec_csv", 3.5)]

    @pytest.mark.parametrize("command,key,value", PATHS,
                             ids=[f"{c}-{k}-{v!r}" for c, k, v in PATHS])
    def test_path_key_not_a_string(self, tmp_path, capsys, command, key, value):
        # null or a list exited 1 with a TypeError traceback, and a number
        # was opened as a file descriptor
        cfg = dict(self.base(command, tmp_path), **{key: value})
        self.exits_2(command, cfg, tmp_path, capsys, [key, "non-empty string", repr(value)])

    @pytest.mark.parametrize("value", [None, 3, ""], ids=repr)
    @pytest.mark.parametrize("command", ["estimate", "simulate", "resample"])
    def test_out_dir_not_a_string(self, tmp_path, capsys, monkeypatch, no_replicates,
                                  command, value):
        # null exited 1 with a TypeError traceback, and "" wrote into the
        # working directory
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path / "c.json",
                            dict(self.base(command, tmp_path), out_dir=value))
        assert run_cli(command, "--config", path) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert "out_dir must be a non-empty string" in err["message"], err["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

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
        ("simulate", "seed", True, ()),  # int(True) is 1: it ran seed 1
        ("simulate", "workers", False, ()),
    ])
    def test_whole_number_settings(self, tmp_path, capsys, no_replicates, command, key,
                                   value, flags):
        cfg = dict(self.base(command, tmp_path), **{key: value})
        self.exits_2(command, cfg, tmp_path, capsys, [key, "non-negative whole number"],
                     flags)

    @pytest.mark.parametrize("command,cfg", [
        ("simulate", {"lambda": True}),
        ("estimate", {"estimators": [{"kind": "harmonized", "initial": "diff_means_pooled",
                                      "lambda": False}]}),
    ], ids=["top-level", "estimator"])
    def test_boolean_lambda(self, tmp_path, capsys, no_replicates, command, cfg):
        # float() reads true as 1: simulate ran lambda 1 while the manifest
        # echoed true
        self.exits_2(command, dict(self.base(command, tmp_path), **cfg), tmp_path, capsys,
                     ["lambda", "non-negative number"])

    NOT_A_NUMBER = [
        ("estimate", {"lambda": None}, ["lambda", "None"]),
        ("estimate", {"lambda": [1]}, ["lambda", "[1]"]),
        ("estimate", {"estimators": [{"kind": "harmonized", "initial": "diff_means_pooled",
                                      "lambda": None}]}, ["lambda", "None"]),
        ("simulate", {"lambda": [1]}, ["lambda", "[1]"]),
        ("simulate", {"lambda": {"a": 1}}, ["lambda", "{'a': 1}"]),
        ("simulate", {"harmonized_lambdas": [None]}, ["harmonized_lambdas", "None"]),
        ("simulate", {"intervals": None}, ["intervals", "must be a list"]),
        ("simulate", {"harmonized_lambdas": None}, ["harmonized_lambdas", "must be a list"]),
    ]

    @pytest.mark.parametrize("command,cfg,words", NOT_A_NUMBER,
                             ids=[f"{c}-{json.dumps(cfg)}" for c, cfg, _ in NOT_A_NUMBER])
    def test_null_list_or_object_for_a_number_or_a_list(self, tmp_path, capsys,
                                                        no_replicates, command, cfg, words):
        # each died with a TypeError traceback at exit 1
        self.exits_2(command, dict(self.base(command, tmp_path), **cfg), tmp_path, capsys,
                     words)

    @pytest.mark.parametrize("command,key", [
        ("estimate", "estimators"), ("estimate", "intervals"), ("estimate", "prevalences"),
        ("simulate", "estimators"), ("simulate", "lambda"), ("resample", "estimators")])
    def test_null_keeps_meaning_the_default(self, small_csvs, pools, tmp_path, command, key):
        cfg = {"estimate": dict(zip(("rct_csv", "ec_csv"), small_csvs)),
               "simulate": {"preset": "fig1-s2", "reps": 3},
               "resample": {"trial_csv": pools[0], "ec_csv": pools[1],
                            "schema": {"covariates": ["x1"]}, "n_control": 40,
                            "n_experimental": 60, "n_ec": 100, "reps": 3}}[command]
        reports = []
        for name, given in (("default", cfg), ("null", dict(cfg, **{key: None}))):
            path = write_config(tmp_path / f"{name}.json",
                                dict(given, out_dir=str(tmp_path / name)))
            assert run_cli(command, "--config", path) == 0
            artifact = "estimates.csv" if command == "estimate" else "report.csv"
            reports.append((tmp_path / name / artifact).read_bytes())
        assert reports[0] == reports[1]

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

    @pytest.mark.parametrize("entry", [
        "oracle", {"kind": "harmonized", "name": "h", "initial": "oracle",
                   "sigma_mode": "identity"}], ids=["plain", "initial"])
    @pytest.mark.parametrize("command,family", [
        ("estimate", "continuous"), ("estimate", "binary"), ("simulate", "binary"),
        ("resample", "binary")])
    def test_oracle_where_no_control_levels_are_known(self, tmp_path, capsys, monkeypatch,
                                                      command, family, entry):
        # each exited 2 only once the oracle was first evaluated: after the
        # CSV load in estimate, inside the first replicate elsewhere
        import subharm.cli
        import subharm.sim

        def refuse(*args, **kwargs):
            raise AssertionError("data were read or a replicate ran")
        for module, name in ((subharm.cli, "load_dataset"), (subharm.sim, "load_dataset"),
                             (subharm.sim, "generate_scenario"),
                             (subharm.sim, "_resample_batch")):
            monkeypatch.setattr(module, name, refuse)
        cfg = {"estimate": dict(self.base("estimate", tmp_path), outcome_family=family,
                                intervals=["rct_only"]),
               "simulate": {"preset": "fig5", "reps": 3},
               "resample": self.base("resample", tmp_path)}[command]
        name = entry if isinstance(entry, str) else entry["name"]
        self.exits_2(command, dict(cfg, estimators=[entry]), tmp_path, capsys,
                     [repr(name), "true control levels"])

    @pytest.mark.parametrize("command,extra", [
        ("estimate", {"intervals": ["rct_only"]}), ("simulate", {}), ("resample", {})])
    def test_empty_estimators(self, tmp_path, capsys, no_replicates, command, extra):
        # resample ran its four defaults while the manifest recorded [];
        # simulate wrote a header-only report, estimate only the overall row
        cfg = dict(self.base(command, tmp_path), estimators=[], **extra)
        self.exits_2(command, cfg, tmp_path, capsys, ["estimators", "at least one"])

    WRONG_TYPE = [
        ("estimate", "estimators", "diff_means_pooled", ["estimators", "must be a list"]),
        ("resample", "estimators", "logistic_pooled", ["estimators", "must be a list"]),
        ("estimate", "intervals", "analytic", ["intervals", "must be a list"]),
        ("simulate", "intervals", "analytic", ["intervals", "must be a list"]),
        ("simulate", "harmonized_lambdas", "full", ["harmonized_lambdas", "must be a list"]),
        ("estimate", "prevalences", "abc", ["prevalences", "must be a list"]),
        ("estimate", "prevalences", {"a": 1}, ["prevalences", "must be a list"]),
        ("simulate", "scenario", "abc", ["scenario", "must be an object"]),
        ("estimate", "schema", {"covariates": "x1"}, ["covariates", "must be a list"]),
        ("resample", "schema", {"covariates": "x1"}, ["covariates", "must be a list"]),
        ("estimate", "schema", {"covariates": [5]}, ["covariates", "string"]),
        ("estimate", "schema", {"outcome": 5}, ["outcome", "string"]),
        ("estimate", "schema", {"treatment": ["arm"]}, ["treatment", "string"]),
        ("estimate", "schema", {"subgroup": None}, ["subgroup", "string"]),
    ]

    @pytest.mark.parametrize("command,key,value,words", WRONG_TYPE,
                             ids=[f"{c}-{k}-{v}" for c, k, v, _ in WRONG_TYPE])
    def test_value_of_the_wrong_json_type(self, small_csvs, tmp_path, capsys, no_replicates,
                                          command, key, value, words):
        # a string was read letter by letter: "analytic" as the interval
        # method 'a', and schema covariates "x1" as the columns 'x' and '1'
        # (exit 3); an outcome column 5 was looked up as a column (exit 3)
        rct, ec = small_csvs
        cfg = {"estimate": {"rct_csv": rct, "ec_csv": ec},
               "simulate": {"reps": 2} if key == "scenario" else self.base(command, tmp_path),
               "resample": self.base(command, tmp_path)}[command]
        self.exits_2(command, dict(cfg, **{key: value}), tmp_path, capsys, words)

    LOGISTIC_ON_CONTINUOUS = [
        ("simulate", "logistic_pooled"),
        ("estimate", "logistic_rct"),
        ("simulate", {"kind": "harmonized", "initial": "logistic_ipw", "sigma_mode": "vd"}),
        ("estimate", {"kind": "harmonized", "initial": "logistic_pooled"}),
        ("simulate", {"kind": "harmonized", "initial": "diff_means_pooled",
                      "overall": "logistic"}),
        ("estimate", {"kind": "harmonized", "initial": "diff_means_pooled",
                      "overall": "logistic"}),
    ]

    @pytest.mark.parametrize("command,entry", LOGISTIC_ON_CONTINUOUS,
                             ids=[f"{c}-{e if isinstance(e, str) else e['initial']}"
                                  f"{'-overall' if 'overall' in e else ''}"
                                  for c, e in LOGISTIC_ON_CONTINUOUS])
    def test_logistic_on_continuous_outcomes(self, fig1_csvs, tmp_path, capsys,
                                             no_replicates, command, entry):
        # each died in the first replicate with a ValueError traceback: exit 1
        rct, ec = fig1_csvs
        cfg = ({"rct_csv": rct, "ec_csv": ec} if command == "estimate"
               else {"preset": "fig1-s2", "reps": 3})
        self.exits_2(command, dict(cfg, estimators=[entry]), tmp_path, capsys,
                     ["estimator", "logistic", "binary"])

    @pytest.mark.parametrize("spike", ["abc", [0.1, 0.2], -0.1, [0.1, 0.1, float("nan"), 0.1],
                                       True, [False, 0.1, 0, 0.35]])
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

    def test_infeasible_spike_refused_before_any_replicate(self, pools, tmp_path, capsys,
                                                          monkeypatch):
        # subgroup 4's pool control rate is 0.607, so a spike of 0.5 would
        # ask a response rate of 1.107
        import subharm.sim

        def refuse(*args, **kwargs):
            raise AssertionError("a replicate ran")
        monkeypatch.setattr(subharm.sim, "_resample_batch", refuse)
        trial, ec = pools
        cfg = {"trial_csv": trial, "ec_csv": ec, "schema": {"covariates": ["x1"]},
               "reps": 4, "spike": 0.5}
        self.exits_2("resample", cfg, tmp_path, capsys, ["spike", "subgroup 4", "above 1"],
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

    @staticmethod
    def kind_tables():
        """The README's kind tables under `### estimate`, in order, each a
        list of rows of cells without backticks."""
        from pathlib import Path

        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n### estimate\n", 1)[1].split("\n### ", 1)[0]
        tables, rows = [], []
        for line in section.splitlines() + [""]:
            if line.startswith("|"):
                cells = [c.strip().replace("`", "") for c in line.strip("|").split("|")]
                rows += [] if set(cells[0]) <= {"-"} else [cells]
            elif rows:
                tables, rows = tables + [rows], []
        return tables

    def test_every_setting_has_its_kind_in_the_readme_table(self):
        # a key added to SETTINGS without a kind, or without its row, or a
        # row that gives a key another kind than the declared one fails here
        from subharm.cli import SETTINGS
        from subharm.config import Kind

        (header, *rows), *_ = self.kind_tables()
        assert header == ["key", "commands", "kind", "exit"]
        documented = {}
        for key, commands, kind, _exit in rows:
            for command in SETTINGS if commands == "all" else commands.split(", "):
                assert (command, key) not in documented, (command, key)
                documented[command, key] = kind
        declared = {}
        for command, table in SETTINGS.items():
            for key, entry in table.items():
                assert isinstance(entry, tuple) and len(entry) == 2, (command, key)
                assert isinstance(entry[0], Kind), (command, key)
                declared[command, key] = str(entry[0])
        assert documented == declared

    def test_every_field_has_its_kind_in_the_readme_tables(self):
        import dataclasses

        from subharm import CsvSchema, EstimatorConfig, ScenarioSpec

        tables = self.kind_tables()[1:]
        assert len(tables) == 3
        for cls, (header, *rows) in zip((EstimatorConfig, ScenarioSpec, CsvSchema), tables):
            assert header == ["field", "kind"]
            declared = {("lambda" if f.name == "lam" else f.name): str(f.metadata["kind"])
                        for f in dataclasses.fields(cls)}
            assert dict(rows) == declared, cls.__name__

    @staticmethod
    def readme() -> str:
        from pathlib import Path

        return (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")

    def test_interval_table_follows_the_pipelines(self):
        # method -> the harmonized initial and overall it was derived for,
        # on continuous outcomes, or any pipeline
        from subharm.data import CONTINUOUS
        from subharm.intervals import INTERVAL_PIPELINES

        header = "| method "
        table = self.readme().split(f"\n{header}", 1)[1].split("\n\n", 1)[0]
        rows = [[c.strip().replace("`", "") for c in line.strip("|").split("|")]
                for line in (header + table).splitlines()]
        assert rows[0] == ["method", "harmonized initial", "overall", "outcomes"]
        documented = {method: tuple(cells) for method, *cells in rows[2:]}
        assert documented == {method: ("any",) * 3 if need is None else (*need, CONTINUOUS)
                              for method, need in INTERVAL_PIPELINES.items()}

    def test_fail_closed_kind_lists_follow_the_records(self):
        import re

        from subharm.sim import INITIALS, OVERALLS

        rules = self.readme().split("These rules across keys also exit 2", 1)[1]
        rules = " ".join(rules.split("\n\n", 2)[1].split())

        def listed(before):
            return set(re.findall(r"`(\w+)`", re.search(
                re.escape(before) + r" \(([^)]*)\)", rules).group(1)))
        assert listed("`bd` on one without a bias direction") == {
            kind for kind, rec in INITIALS.items() if rec.bias_direction is None}
        assert listed("`vd` on one that never carries a covariance") == {
            kind for kind, rec in INITIALS.items() if not rec.covariance}
        assert listed("a logistic estimator, plain or as a harmonized `initial`") == {
            kind for kind, rec in INITIALS.items() if rec.logistic}
        assert listed("a logistic `overall`") == {
            kind for kind, rec in OVERALLS.items() if rec.logistic}
        assert listed("an estimator that reads the true control levels") == {
            kind for kind, rec in INITIALS.items() if rec.reads_truth}

    @pytest.mark.parametrize("command", ["estimate", "simulate", "resample"])
    def test_flags_are_the_flagged_keys(self, command):
        from subharm.cli import FLAGS, SETTINGS, build_parser

        sub = build_parser()._subparsers._group_actions[0].choices[command]
        options = {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        assert options == {"--config"} | {"--" + key.replace("_", "-")
                                          for key in SETTINGS[command] if key in FLAGS}


IMPORT_GRAPH_PROBE = """
import json, sys
from pathlib import Path

from subharm import CsvSchema, cli, generate_scenario, load_preset, save_dataset

tmp = Path(sys.argv[1])


def run(command, cfg):
    path = tmp / (command + ".json")
    path.write_text(json.dumps(dict(cfg, out_dir=str(tmp / path.stem))))
    assert cli.main([command, "--config", str(path)]) == 0, command


run("simulate", {"preset": "fig1-s2", "reps": 3, "bootstrap_r": 100,
                 "intervals": ["analytic", "cut", "bootstrap", "rct_only"],
                 "estimators": ["ols_pooled", {"kind": "harmonized", "name": "h",
                                               "initial": "diff_means_pooled"}]})
run("simulate", {"preset": "fig5", "reps": 2, "estimators": [
    "logistic_pooled",
    {"kind": "harmonized", "name": "bd", "initial": "logistic_pooled",
     "overall": "logistic", "sigma_mode": "bd"},
    {"kind": "harmonized", "name": "vd", "initial": "logistic_pooled",
     "overall": "logistic", "sigma_mode": "vd"}]})
save_dataset(generate_scenario(load_preset("fig5"), 3), str(tmp / "r.csv"),
             str(tmp / "e.csv"), CsvSchema(covariates=("x1",)))
run("estimate", {"rct_csv": str(tmp / "r.csv"), "ec_csv": str(tmp / "e.csv"),
                 "schema": {"covariates": ["x1"]}, "outcome_family": "binary",
                 "intervals": ["rct_only"], "estimators": [
                     "logistic_ipw",
                     {"kind": "harmonized", "name": "bd", "initial": "logistic_ipw",
                      "overall": "logistic", "sigma_mode": "bd"}]})
print(json.dumps(sorted(sys.modules)))
"""


def test_runtime_imports_numpy_alone(tmp_path):
    """The CLI's three commands load no scipy module, and a one-worker run
    no process pool: scipy's import alone took about a second of every
    cold start. A fresh interpreter runs them, because this test session
    imports scipy for its reference checks."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", IMPORT_GRAPH_PROBE, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout.strip().splitlines()[-1])
    assert "subharm.glm" in modules and "subharm.intervals" in modules
    assert [m for m in modules if m == "scipy" or m.startswith("scipy.")] == []
    assert "concurrent.futures.process" not in modules


def test_cli_import_leaves_out_numpy_polynomial():
    """`import subharm.cli` loads no numpy.polynomial: only the quadrature
    of `true_effects` needs it, and it imports it there. A fresh
    interpreter imports the CLI, as this test process may have loaded it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    probe = ("import sys, subharm.cli\n"
             "assert 'numpy.polynomial' not in sys.modules, "
             "sorted(m for m in sys.modules if m.startswith('numpy.polynomial'))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


class TestOneParserPerProcess:
    """`main` builds its argparse parser once per process; a call leaves it
    as it found it."""

    @pytest.fixture
    def builds(self, monkeypatch):
        import subharm.cli as cli

        built = []
        build = cli.build_parser

        def counted():
            built.append(1)
            return build()

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counted)
        yield built
        cli._parser.cache_clear()

    def test_built_once_across_calls(self, builds, tmp_path, capsys):
        from subharm import cli

        config = write_config(tmp_path / "c.json", {"reps": 2})
        for i in range(3):
            assert cli.main(["simulate", "--preset", "fig1-s1", "--config", config,
                             "--out-dir", str(tmp_path / str(i))]) == 0
        with pytest.raises(SystemExit) as exc:  # an argparse error
            cli.main(["simulate", "--no-such-flag"])
        assert exc.value.code == 2
        assert cli.main(["simulate", "--preset", "fig1-s1", "--config", config,
                         "--out-dir", str(tmp_path / "after")]) == 0
        assert builds == [1]
        capsys.readouterr()
        assert ((tmp_path / "0" / "report.csv").read_bytes()
                == (tmp_path / "after" / "report.csv").read_bytes())

    def test_a_flag_does_not_carry_over(self, builds, tmp_path):
        from subharm import cli

        config = write_config(tmp_path / "c.json", {"preset": "fig1-s1", "reps": 2})
        workers = []
        for i, flags in enumerate((["--workers", "2", "--seed", "3"], [])):
            out = tmp_path / str(i)
            assert cli.main(["simulate", "--config", config, "--out-dir", str(out),
                             *flags]) == 0
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            workers.append((manifest["config"]["workers"], manifest["config"]["seed"]))
        assert workers == [(2, 3), (1, 0)]
        assert builds == [1]


def _fmt(v) -> str:
    """How every CSV cell was formatted, one call per cell."""
    return format(v, ".17g") if isinstance(v, float) else str(v)


def test_csv_cells_keep_their_bytes(tmp_path):
    from subharm.cli import _write_csv

    cells = [0.1, 1 / 3, -0.0, 0.0, 1e300, 5e-324, -2.5e-8, float("inf"), float("-inf"),
             float("nan"), np.float64(2 / 3), np.float32(0.1), 7, -3, np.int64(12), True,
             False, None, "", "plain", "a,b", 'say "x"', "two\nlines", "cr\rhere", " pad ",
             "harmonized[diff_means_pooled,lam=full,bd]", "(all)", "ünï"]
    header = ["col", "value", "text"]
    rows = [[i, cell, "a,b" if i % 2 else "c"] for i, cell in enumerate(cells)]
    rows += [[cell, cell] for cell in cells]
    _write_csv(tmp_path / "new.csv", header, rows)
    with open(tmp_path / "old.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
