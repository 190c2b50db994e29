import numpy as np
import pytest

from subharm import (
    CsvSchema,
    ScenarioSpec,
    compute_design_counts,
    generate_scenario,
    list_presets,
    load_preset,
    run_monte_carlo,
    run_resampling,
    save_dataset,
    spike_effect,
    true_effects,
)
from subharm.errors import InvalidEffect, InvalidSpec, PoolTooSmall
from subharm.rng import stream


class TestPresets:
    def test_all_presets_load(self):
        names = list_presets()
        assert {"fig1-s1", "fig1-s2", "fig1-s3", "fig4", "fig5", "gbm-like"} <= set(names)
        for name in names:
            spec = load_preset(name)
            assert spec.k >= 1

    def test_fig1_design(self):
        spec = load_preset("fig1-s2")
        assert spec.k == 10
        assert sum(spec.n_rct_treated) + sum(spec.n_rct_control) == 100
        assert sum(spec.n_ec) == 500
        assert spec.phi2 == 1.0
        assert spec.distortion == (1.0,) * 10
        assert load_preset("fig1-s1").distortion == (0.0,) * 10
        assert load_preset("fig1-s3").distortion == (2.0, 0.0) * 5

    def test_fig5_design(self):
        spec = load_preset("fig5")
        assert spec.k == 5 and spec.outcome_family == "binary"
        assert spec.beta == (0.2,)
        assert spec.x_mean_ec == 2.0 and spec.fixed_covariates


class TestGenerate:
    def test_counts_exact(self):
        spec = load_preset("fig1-s1")
        ds = generate_scenario(spec, seed=1)
        dc = compute_design_counts(ds)
        np.testing.assert_array_equal(dc.counts[:, 1, 0], spec.n_rct_treated)
        np.testing.assert_array_equal(dc.counts[:, 0, 0], spec.n_rct_control)
        np.testing.assert_array_equal(dc.counts[:, 0, 1], spec.n_ec)

    def test_deterministic(self):
        spec = load_preset("fig1-s2")
        a = generate_scenario(spec, seed=5, replicate=3)
        b = generate_scenario(spec, seed=5, replicate=3)
        np.testing.assert_array_equal(a.y_rct, b.y_rct)
        c = generate_scenario(spec, seed=5, replicate=4)
        assert not np.array_equal(a.y_rct, c.y_rct)

    def test_fixed_covariates_frozen_across_replicates(self):
        spec = load_preset("fig4")
        a = generate_scenario(spec, seed=2, replicate=0)
        b = generate_scenario(spec, seed=2, replicate=57)
        np.testing.assert_array_equal(a.x_rct, b.x_rct)
        np.testing.assert_array_equal(a.x_ec, b.x_ec)
        assert not np.array_equal(a.y_rct, b.y_rct)

    def test_invalid_spec(self):
        with pytest.raises(InvalidSpec):
            ScenarioSpec(name="bad", outcome_family="continuous", k=2,
                         n_rct_treated=(1,), n_rct_control=(1, 1), n_ec=(1, 1),
                         mu=(0, 0), theta=(0, 0), distortion=(0, 0))

    def test_true_effects_binary_quadrature_matches_mc(self):
        spec = load_preset("fig5")
        spec = spec.with_distortion(0.0)
        # population (random-covariate) value vs large-sample empirical mean
        from dataclasses import replace
        spec_rand = replace(spec, fixed_covariates=False)
        truth = true_effects(spec_rand, seed=0)
        from scipy.special import expit
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, 400000)
        mc = np.mean(expit(0.0 + 1.0 + 0.2 * x) - expit(0.2 * x))
        np.testing.assert_allclose(truth, mc, atol=2e-3)


class TestMonteCarlo:
    def test_report_matches_analytic_small(self):
        spec = load_preset("fig1-s2")
        rep = run_monte_carlo(
            spec,
            ["diff_means_pooled",
             {"kind": "harmonized", "name": "h", "initial": "diff_means_pooled",
              "overall": "diff_means", "lambda": "full", "sigma_mode": "identity"}],
            reps=250, seed=3)
        pooled = rep.estimator_stats["diff_means_pooled"]
        q = 500 / 550
        assert np.all(np.abs(pooled["bias"] + q) < 4 * pooled["mc_se_bias"])
        h = rep.estimator_stats["h"]
        assert np.all(np.abs(h["bias"]) < 4 * h["mc_se_bias"])

    def test_rmse_identity(self):
        spec = load_preset("fig1-s3")
        rep = run_monte_carlo(spec, ["diff_means_pooled", "oracle"], reps=60, seed=4)
        for st in rep.estimator_stats.values():
            np.testing.assert_allclose(
                st["rmse"] ** 2, st["bias"] ** 2 + st["sd"] ** 2, atol=1e-10)

    def test_deterministic_report(self):
        spec = load_preset("fig1-s1")
        kw = dict(estimators=["diff_means_pooled", "diff_means_rct"],
                  reps=40, seed=9)
        a = run_monte_carlo(spec, **kw)
        b = run_monte_carlo(spec, **kw)
        assert a.to_json_dict() == b.to_json_dict()

    def test_workers_do_not_change_results(self):
        spec = load_preset("fig1-s2")
        ests = ["diff_means_pooled",
                {"kind": "harmonized", "name": "h", "initial": "diff_means_pooled",
                 "overall": "diff_means", "lambda": "full", "sigma_mode": "bd"}]
        a = run_monte_carlo(spec, ests, reps=24, seed=10, workers=1,
                            intervals=("analytic",))
        b = run_monte_carlo(spec, ests, reps=24, seed=10, workers=2,
                            intervals=("analytic",))
        assert a.to_json_dict() == b.to_json_dict()

    def test_interval_coverage_small_run(self):
        spec = load_preset("fig1-s1")
        rep = run_monte_carlo(
            spec,
            [{"kind": "harmonized", "name": "h", "initial": "diff_means_pooled",
              "overall": "diff_means", "lambda": "full", "sigma_mode": "bd"}],
            reps=150, seed=6, intervals=("analytic", "rct_only"), alpha=0.05)
        cov = rep.interval_stats["analytic"]["coverage"]
        assert np.all(cov > 0.85)
        assert np.all(rep.interval_stats["analytic"]["mean_width"]
                      < rep.interval_stats["rct_only"]["mean_width"])

    def test_intervals_target_full_harmonization_in_grid(self):
        from subharm import FULL, analytic_bias_variance, generate_scenario

        spec = load_preset("fig1-s1")
        ests = [{"kind": "harmonized", "name": f"h{lam}",
                 "initial": "diff_means_pooled", "overall": "diff_means",
                 "lambda": lam, "sigma_mode": "identity"}
                for lam in (0, 1, "full")]
        rep = run_monte_carlo(spec, ests, reps=12, seed=21,
                              intervals=("analytic",))
        dc = compute_design_counts(generate_scenario(spec, seed=21))
        _, vh = analytic_bias_variance(dc, np.zeros(10), np.eye(10), FULL, 1.0)
        want = 2 * 1.959964 * np.sqrt(np.diag(vh))
        np.testing.assert_allclose(rep.interval_stats["analytic"]["mean_width"],
                                   want, rtol=1e-4)

    def test_bootstrap_uses_spec_prevalences_and_estimate(self, monkeypatch):
        from dataclasses import replace

        import subharm.intervals

        spec = replace(load_preset("fig1-s2"), prevalences=(0.05,) * 5 + (0.15,) * 5)
        seen = []

        def recording(ds, dc, point, cfg, *args, **kw):
            seen.append((dc.pi.copy(), np.array(point)))
            return bootstrap(ds, dc, point, cfg, *args, **kw)

        bootstrap = subharm.intervals.bootstrap_interval
        monkeypatch.setattr(subharm.intervals, "bootstrap_interval", recording)
        est = {"kind": "harmonized", "name": "h", "initial": "diff_means_pooled",
               "overall": "diff_means", "lambda": "full", "sigma_mode": "bd"}
        rep = run_monte_carlo(spec, [est], reps=3, seed=4, intervals=("bootstrap",),
                              bootstrap_r=100, keep_replicates=True)
        assert len(seen) == 3
        for r, (pi, point) in enumerate(seen):
            np.testing.assert_array_equal(pi, spec.prevalences)
            np.testing.assert_array_equal(point, rep.replicate_estimates["h"][r])

    def test_long_rows_shape(self):
        spec = load_preset("fig1-s1")
        rep = run_monte_carlo(spec, ["diff_means_pooled"], reps=10, seed=2)
        rows = rep.to_long_rows()
        metrics = {r["metric"] for r in rows}
        assert {"bias", "sd", "rmse", "n_used"} <= metrics
        assert len([r for r in rows if r["metric"] == "bias"]) == 10

    def test_moderate_distortion_spread_keeps_rmse_below_rct_only(self):
        # alternating distortions 1 +/- delta with delta below 0.25: the fully
        # harmonized estimator still beats the trial-only estimator on RMSE
        base = load_preset("fig1-s2")
        ests = ["diff_means_rct",
                {"kind": "harmonized", "name": "h", "initial": "diff_means_pooled",
                 "overall": "diff_means", "lambda": "full",
                 "sigma_mode": "identity"}]
        for spread in (0.0, 0.1, 0.2):
            spec = base.with_distortion([1 + spread, 1 - spread] * 5)
            rep = run_monte_carlo(spec, ests, reps=400, seed=15)
            harm = rep.estimator_stats["h"]["rmse"]
            rct = rep.estimator_stats["diff_means_rct"]["rmse"]
            assert np.all(harm < rct), f"spread={spread}"


class TestBdFallback:
    def test_degenerate_direction_falls_back_to_vd(self, caplog):
        import logging
        from unittest import mock

        from subharm.errors import DegenerateDirection
        from subharm.sim import _ReplicateContext, parse_estimator
        from conftest import balanced_dataset

        ds = balanced_dataset(k=2, n_t=30, n_c=30, n_e=30, theta=[0.8, 0.8],
                              family="binary", seed=5)
        dc = compute_design_counts(ds)
        ctx = _ReplicateContext(ds, dc)
        cfg = parse_estimator({"kind": "harmonized", "initial": "logistic_pooled",
                               "overall": "diff_means", "lambda": "full",
                               "sigma_mode": "bd"})
        with mock.patch.object(_ReplicateContext, "bd_direction",
                               side_effect=DegenerateDirection("forced")):
            with caplog.at_level(logging.WARNING, logger="subharm"):
                out = ctx.evaluate(cfg)
        assert np.all(np.isfinite(out))
        assert any("variance-directed" in r.message for r in caplog.records)
        # full-harmonization constraint still holds under the fallback
        from subharm import diff_means_overall
        assert abs(dc.pi @ out - diff_means_overall(ds)) < 1e-10

    def test_degenerate_direction_falls_back_for_intervals(self):
        from unittest import mock

        from subharm.errors import DegenerateDirection
        from subharm.sim import _ReplicateContext

        est = {"kind": "harmonized", "name": "h", "initial": "diff_means_pooled",
               "overall": "diff_means", "lambda": "full", "sigma_mode": "bd"}
        with mock.patch.object(_ReplicateContext, "bd_direction",
                               side_effect=DegenerateDirection("forced")):
            rep = run_monte_carlo(load_preset("fig1-s2"), [est], reps=4, seed=3,
                                  intervals=("analytic",))
        assert rep.interval_stats["analytic"]["n_used"] == 4
        assert not rep.failures

    def test_degenerate_direction_resolved_once_per_replicate(self, monkeypatch, caplog):
        import logging
        from dataclasses import replace

        import subharm.sim

        calls = []
        original = subharm.sim.bd_direction_diff_means
        monkeypatch.setattr(subharm.sim, "bd_direction_diff_means",
                            lambda dc: calls.append(1) or original(dc))
        spec = replace(load_preset("fig1-s2"), n_ec=(0,) * 10)
        ests = [{"kind": "harmonized", "initial": "diff_means_pooled",
                 "overall": "diff_means", "lambda": lam, "sigma_mode": "bd"}
                for lam in (0, 1, 10, "full")]
        with caplog.at_level(logging.WARNING, logger="subharm"):
            run_monte_carlo(spec, ests, reps=2, seed=3, intervals=("analytic",))
        # no external controls: the bias direction is undefined in every replicate
        assert len(calls) == 2
        assert len([r for r in caplog.records if "variance-directed" in r.message]) == 2


class TestIntervalPipelines:
    HARMONIZED_OLS = {"kind": "harmonized", "name": "h_ols", "initial": "ols_pooled",
                      "overall": "diff_means", "lambda": "full"}

    @pytest.fixture(autouse=True)
    def no_replicates(self, monkeypatch):
        import subharm.sim

        def fail(*args, **kwargs):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(subharm.sim, "generate_scenario", fail)

    @pytest.mark.parametrize("method", ["analytic", "bootstrap", "cut"])
    def test_wrong_initial_rejected_before_replicates(self, method):
        from subharm.errors import ConfigError

        with pytest.raises(ConfigError, match=f"'{method}'.*'h_ols'"):
            run_monte_carlo(load_preset("fig1-s2"), [self.HARMONIZED_OLS], reps=4, seed=1,
                            intervals=(method,))

    def test_plain_interval_estimator_rejected_before_replicates(self):
        from subharm.errors import ConfigError

        est = ["diff_means_pooled",
               {"kind": "harmonized", "name": "h", "initial": "diff_means_pooled",
                "overall": "diff_means", "lambda": "full"}]
        with pytest.raises(ConfigError, match="'analytic'.*'diff_means_pooled'.*plain"):
            run_monte_carlo(load_preset("fig1-s2"), est, reps=4, seed=1,
                            intervals=("analytic",), interval_estimator="diff_means_pooled")

    def test_binary_outcomes_rejected_before_replicates(self):
        from subharm.errors import ConfigError

        est = {"kind": "harmonized", "name": "h", "initial": "diff_means_pooled",
               "overall": "diff_means", "lambda": "full"}
        with pytest.raises(ConfigError, match="'bootstrap'.*'h'.*binary"):
            run_monte_carlo(load_preset("fig5"), [est], reps=4, seed=1,
                            intervals=("rct_only", "bootstrap"))


class TestSigmaWorkPerReplicate:
    """Each sigma is built, checked and multiplied by pi once per replicate
    and resolved family (initial estimator and sigma mode), however many
    lambdas and intervals share it."""

    @staticmethod
    def _count(monkeypatch, run):
        import importlib

        harmonize_mod = importlib.import_module("subharm.harmonize")
        sim_mod = importlib.import_module("subharm.sim")
        calls = {"solve_sigma_from_b": 0, "_validate_sigma": 0, "vd_sigma": 0}
        for name in calls:
            original = getattr(harmonize_mod, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module in (harmonize_mod, sim_mod):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        run()
        return calls

    def test_bd_family_with_lambda_grid_and_all_intervals(self, monkeypatch, tmp_path):
        from subharm.cli import main

        cfg = tmp_path / "c.json"
        cfg.write_text('{"intervals": ["analytic", "cut", "bootstrap", "rct_only"]}')
        calls = self._count(monkeypatch, lambda: main([
            "simulate", "--config", str(cfg), "--preset", "fig1-s2", "--reps", "2",
            "--seed", "3", "--out-dir", str(tmp_path / "o")]))
        # the default estimators: one bd family on diff_means_pooled, two replicates
        assert calls == {"solve_sigma_from_b": 2, "_validate_sigma": 2, "vd_sigma": 0}

    def test_vd_and_bd_families_on_logistic_pipeline(self, monkeypatch):
        ests = ["logistic_pooled"] + [
            {"kind": "harmonized", "initial": "logistic_pooled", "overall": "logistic",
             "lambda": lam, "sigma_mode": mode}
            for mode in ("bd", "vd") for lam in (1, 10, "full")]
        calls = self._count(monkeypatch, lambda: run_monte_carlo(
            load_preset("fig5"), ests, reps=2, seed=3))
        # two families, two replicates
        assert calls == {"solve_sigma_from_b": 2, "_validate_sigma": 4, "vd_sigma": 2}

class TestTrialFitPerReplicate:
    @staticmethod
    def _fit_rows(monkeypatch):
        """The design rows of every logistic fit, in call order."""
        import importlib

        rows = []
        for name in ("subharm.estimators", "subharm.harmonize"):
            module = importlib.import_module(name)
            original = module.fit_logistic_irls

            def counted(design, *args, _original=original, **kwargs):
                rows.append(getattr(design, "values", design).shape[0])
                return _original(design, *args, **kwargs)

            monkeypatch.setattr(module, "fit_logistic_irls", counted)
        return rows

    def test_one_trial_only_logistic_fit_per_replicate(self, monkeypatch):
        # logistic_rct, the logistic overall effect and both limit maps'
        # anchors share one trial-only fit
        spec = load_preset("fig5")
        n_rct = generate_scenario(spec, 3).n_rct
        rows = self._fit_rows(monkeypatch)
        ests = ["logistic_rct", "logistic_pooled", "logistic_ipw"] + [
            {"kind": "harmonized", "name": f"bd_{initial}", "initial": initial,
             "overall": "logistic", "lambda": "full", "sigma_mode": "bd"}
            for initial in ("logistic_pooled", "logistic_ipw")]
        report = run_monte_carlo(spec, ests, reps=2, seed=3)
        assert not report.failures
        assert rows.count(n_rct) == 2

    def test_three_fits_per_fig5_bd_replicate(self, monkeypatch):
        # the pooled fit, the trial-only fit and one stacked fit of the
        # limit map's 2K refits
        spec = load_preset("fig5")
        ds = generate_scenario(spec, 3)
        rows = self._fit_rows(monkeypatch)
        ests = ["logistic_pooled", {"kind": "harmonized", "initial": "logistic_pooled",
                                    "overall": "logistic", "lambda": "full",
                                    "sigma_mode": "bd"}]
        report = run_monte_carlo(spec, ests, reps=2, seed=3)
        assert not report.failures
        assert sorted(rows) == sorted(2 * [ds.n_rct, ds.n_rct + ds.n_ec,
                                           2 * ds.n_rct + ds.n_ec])


class TestSpike:
    def test_zero_spike_unchanged(self):
        y = np.array([0.0, 1.0, 0.0, 1.0])
        w = np.array([0, 0, 1, 1])
        out = spike_effect(y, w, 2, [0.0, 0.0], stream(0, 0, 4))
        np.testing.assert_array_equal(out, y)

    def test_spike_to_one_saturates(self):
        y = np.array([0.0, 1.0, 0.0, 0.0])
        w = np.zeros(4, dtype=int)
        out = spike_effect(y, w, 1, [0.75], stream(0, 0, 4))
        np.testing.assert_array_equal(out, 1.0)

    def test_spike_expectation(self):
        rng_master = np.random.default_rng(5)
        k = 1
        rates = []
        for r in range(400):
            y = (rng_master.random(200) < 0.5).astype(float)
            out = spike_effect(y, np.zeros(200, dtype=int), k, [0.1],
                               stream(1, r, 4))
            rates.append(out.mean() - y.mean())
        assert np.mean(rates) == pytest.approx(0.1, abs=0.01)

    def test_invalid_target(self):
        y = np.array([1.0, 1.0, 0.0])
        with pytest.raises(InvalidEffect):
            spike_effect(y, np.zeros(3, dtype=int), 1, [0.5], stream(0, 0, 4))


@pytest.fixture(scope="module")
def standin_csvs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pools")
    spec = load_preset("gbm-like")
    ds = generate_scenario(spec, seed=20)
    trial, ec = str(tmp / "trial.csv"), str(tmp / "ec.csv")
    schema = CsvSchema(covariates=("x1",))
    save_dataset(ds, trial, ec, schema)
    return trial, ec, schema


class TestResampling:
    def test_smoke_and_null_truth(self, standin_csvs):
        trial, ec, schema = standin_csvs
        rep = run_resampling(trial, ec, n_control=80, n_experimental=120,
                             n_ec=200, reps=60, seed=3, schema=schema)
        rct = rep.estimator_stats["logistic_rct"]
        # both arms resampled from the same pool: RCT-only estimator is null
        assert np.all(np.abs(rct["bias"]) < 4 * rct["mc_se_bias"] + 0.02)
        assert rep.replicate_estimates is not None
        assert rep.replicate_estimates["logistic_rct"].shape == (60, 4)

    def test_workers_identical(self, standin_csvs):
        trial, ec, schema = standin_csvs
        kw = dict(n_control=60, n_experimental=90, n_ec=150, reps=16, seed=5,
                  schema=schema)
        a = run_resampling(trial, ec, workers=1, **kw)
        b = run_resampling(trial, ec, workers=2, **kw)
        assert a.to_json_dict() == b.to_json_dict()

    def test_spiked_effect_shifts_estimates(self, standin_csvs):
        trial, ec, schema = standin_csvs
        base = run_resampling(trial, ec, n_control=80, n_experimental=120,
                              n_ec=200, reps=50, seed=7, schema=schema,
                              estimators=["logistic_rct"])
        spiked = run_resampling(trial, ec, n_control=80, n_experimental=120,
                                n_ec=200, reps=50, seed=7, schema=schema,
                                estimators=["logistic_rct"], spike=[0.1, 0.1, 0.1, 0.1])
        gap = (spiked.estimator_stats["logistic_rct"]["bias"]
               - base.estimator_stats["logistic_rct"]["bias"])
        assert np.all(gap > 0.04)

    def test_pool_too_small(self, tmp_path, standin_csvs):
        trial, ec, schema = standin_csvs
        empty = tmp_path / "empty.csv"
        empty.write_text("outcome,treatment,subgroup,x1\n")
        with pytest.raises(PoolTooSmall):
            run_resampling(trial, str(empty), reps=5, schema=schema)

    def test_prevalence_mode_pool(self, standin_csvs):
        trial, ec, schema = standin_csvs
        rep = run_resampling(trial, ec, n_control=60, n_experimental=90,
                             n_ec=150, reps=10, seed=8, schema=schema,
                             prevalence_mode="pool")
        assert rep.prevalence_source == "pool"
