import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

# a NaN or an overflow warning in the replicate loop fails the test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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

    def test_fig5_report_same_at_one_and_two_workers(self, tmp_path):
        # two workers split the replicates into batches of one or two, each
        # drawing its own copy of the frozen design
        from subharm.cli import main

        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"preset": "fig5", "reps": 12, "seed": 4, "estimators": [
            "logistic_pooled",
            *({"kind": "harmonized", "name": mode, "initial": "logistic_pooled",
               "overall": "logistic", "lambda": "full", "sigma_mode": mode}
              for mode in ("bd", "vd"))]}))
        reports = []
        for workers in ("1", "2"):
            out = tmp_path / workers
            assert main(["simulate", "--config", str(cfg), "--workers", workers,
                         "--out-dir", str(out)]) == 0
            reports.append((out / "report.csv").read_bytes())
        assert reports[0] == reports[1]

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
        from subharm import FULL, analytic_bias_variance, generate_scenario, shift_vector

        spec = load_preset("fig1-s1")
        ests = [{"kind": "harmonized", "name": f"h{lam}",
                 "initial": "diff_means_pooled", "overall": "diff_means",
                 "lambda": lam, "sigma_mode": "identity"}
                for lam in (0, 1, "full")]
        rep = run_monte_carlo(spec, ests, reps=12, seed=21,
                              intervals=("analytic",))
        dc = compute_design_counts(generate_scenario(spec, seed=21))
        _, vh = analytic_bias_variance(dc, np.zeros(10), shift_vector(dc.pi, np.eye(10), FULL),
                                       1.0)
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
                              bootstrap_r=100)
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


def test_bd_records_a_boundary_anchor_in_its_replicates():
    # subgroup 3's 40 RCT controls respond with probability 0.018, so in
    # about half the replicates they are all 0 and the trial-only anchor
    # of the bd limit map has no finite maximum; vd needs no limit map
    spec = replace(load_preset("fig5"), mu=(0, 0, -4, 0, 0), theta=(1, 1, 4, 1, 1))
    ests = ["logistic_pooled"] + [
        {"kind": "harmonized", "name": f"{mode}_{lam}", "initial": "logistic_pooled",
         "overall": "logistic", "lambda": lam, "sigma_mode": mode}
        for mode in ("bd", "vd") for lam in (1, "full")]
    rep = run_monte_carlo(spec, ests, reps=8, seed=0)
    assert all("control responses of subgroup '3' are all 0" in message
               for _, _, message in rep.failures)
    failed = {(r, name) for r, name, _ in rep.failures}
    reps = {r for r, _ in failed}
    assert reps and failed == {(r, name) for r in reps for name in ("bd_1", "bd_full")}
    used = {name: st["n_used"] for name, st in rep.estimator_stats.items()}
    assert used == {"logistic_pooled": 8, "bd_1": 8 - len(reps), "bd_full": 8 - len(reps),
                    "vd_1": 8, "vd_full": 8}


def test_vd_records_a_boundary_fit_in_its_replicates():
    # subgroup 3's 40 RCT treated respond with probability 0.018, so in
    # about half the replicates they are all 0; the fit's Wald variance for
    # that cell is then about 0, so vd fails while the plain estimates keep
    # the boundary MLE
    spec = replace(load_preset("fig5"), mu=(0, 0, -4, 0, 0), theta=(1, 1, 0, 1, 1))
    ests = ["logistic_pooled", "logistic_rct"] + [
        {"kind": "harmonized", "name": f"vd_{initial}_{lam}", "initial": initial,
         "overall": "logistic", "lambda": lam, "sigma_mode": "vd"}
        for initial in ("logistic_pooled", "logistic_rct") for lam in (1, "full")]
    vd = {e["name"] for e in ests[2:]}
    rep = run_monte_carlo(spec, ests, reps=8, seed=0)
    assert rep.failures
    assert all("responses of subgroup '3' are all 0" in message and name in vd
               for _, name, message in rep.failures)
    assert all(rep.estimator_stats[name]["n_used"] == 8
               for name in ("logistic_pooled", "logistic_rct"))


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
    lambdas and intervals share it; one that depends on the design counts
    alone, once per `simulate` batch, whose replicates share those counts.
    bd builds none: its shift is a multiple of the bias direction."""

    @staticmethod
    def _count(monkeypatch, run):
        import importlib

        harmonize_mod = importlib.import_module("subharm.harmonize")
        sim_mod = importlib.import_module("subharm.sim")
        intervals_mod = importlib.import_module("subharm.intervals")
        calls = {"solve_sigma_from_b": 0, "_validate_sigma": 0, "vd_sigma": 0,
                 "analytic_bias_variance": 0}
        for name in calls:
            original = getattr(harmonize_mod, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module in (harmonize_mod, sim_mod, intervals_mod):
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
        # the default estimators: one bd family on diff_means_pooled, whose
        # shifts need no matrix, and whose bias direction and analytic
        # covariance two replicates in one batch share
        assert calls == {"solve_sigma_from_b": 0, "_validate_sigma": 0, "vd_sigma": 0,
                         "analytic_bias_variance": 1}

    def test_fixed_and_identity_families_once_per_batch(self, monkeypatch):
        sigma = (0.5 * np.eye(10) + 0.05).tolist()
        ests = [{"kind": "harmonized", "name": f"{mode}_{lam}", "initial": "diff_means_pooled",
                 "lambda": lam, "sigma_mode": mode, "sigma": sigma if mode == "fixed" else None}
                for mode in ("fixed", "identity") for lam in (2, "full")]
        for est in ests[2:]:
            del est["sigma"]
        for target in ("fixed_2", "identity_full"):
            calls = self._count(monkeypatch, lambda: run_monte_carlo(
                load_preset("fig1-s2"), ests, reps=3, seed=3, intervals=("analytic",),
                interval_estimator=target))
            # each fixed estimator's sigma checked before any replicate, and
            # the fixed and the identity matrix once for the batch, as is the
            # analytic interval's covariance
            assert calls == {"solve_sigma_from_b": 0, "_validate_sigma": 4, "vd_sigma": 0,
                             "analytic_bias_variance": 1}

    def test_vd_and_bd_families_on_logistic_pipeline(self, monkeypatch):
        ests = ["logistic_pooled"] + [
            {"kind": "harmonized", "initial": "logistic_pooled", "overall": "logistic",
             "lambda": lam, "sigma_mode": mode}
            for mode in ("bd", "vd") for lam in (1, 10, "full")]
        calls = self._count(monkeypatch, lambda: run_monte_carlo(
            load_preset("fig5"), ests, reps=2, seed=3))
        # two families, two replicates; only vd builds a matrix
        assert calls == {"solve_sigma_from_b": 0, "_validate_sigma": 2, "vd_sigma": 2,
                         "analytic_bias_variance": 0}


class TestDesignCountsCache:
    """What depends on the design counts alone is kept on the `DesignCounts`:
    every context built on one shares it, and a context on other counts or
    prevalences computes its own."""

    SIGMA = (0.5 * np.eye(10) + 0.05).tolist()

    @pytest.mark.parametrize("est", [
        {"kind": "harmonized", "name": "bd", "initial": "diff_means_pooled", "sigma_mode": "bd"},
        {"kind": "harmonized", "name": "fixed", "initial": "diff_means_pooled", "lambda": 2,
         "sigma_mode": "fixed", "sigma": SIGMA}], ids=["bd", "fixed"])
    def test_one_analytic_covariance_per_design_counts(self, monkeypatch, est):
        import subharm.sim as sim_mod
        from subharm.harmonize import analytic_bias_variance
        from subharm.intervals import interval
        from subharm.sim import _ReplicateContext, parse_estimator

        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return analytic_bias_variance(*args, **kwargs)

        monkeypatch.setattr(sim_mod, "analytic_bias_variance", counted)
        spec, cfg = load_preset("fig1-s2"), parse_estimator(est)
        datasets = [generate_scenario(spec, 0, rep) for rep in range(3)]
        dc = compute_design_counts(datasets[0])
        shared = []
        for ds in datasets:
            ctx = _ReplicateContext(ds, dc)
            interval("analytic", ctx, cfg, 0.05, phi2=1.0)
            shared.append(ctx.analytic_variance(cfg, 1.0))
        assert calls == [dc]
        assert shared[0] is shared[1] is shared[2]

        other = compute_design_counts(datasets[0], (0.05,) * 5 + (0.15,) * 5)
        ctx = _ReplicateContext(datasets[0], other)
        interval("analytic", ctx, cfg, 0.05, phi2=1.0)
        assert calls == [dc, other]
        own = analytic_bias_variance(other, np.zeros(10), ctx.shift(cfg)[0], 1.0)[1]
        np.testing.assert_array_equal(ctx.analytic_variance(cfg, 1.0), own)
        assert not np.allclose(own, shared[0])

    def test_one_cut_design_and_bootstrap_scales_per_design_counts(self, monkeypatch):
        import subharm.intervals as intervals_mod
        import subharm.sim as sim_mod
        from subharm.intervals import interval
        from subharm.sim import _ReplicateContext, parse_estimator

        cut_designs, scales = [], []
        flat_cut_design, bootstrap_scales = sim_mod.flat_cut_design, intervals_mod.bootstrap_scales

        def counted_cut(*args):
            cut_designs.append(args[-1])  # the prevalences
            return flat_cut_design(*args)

        def counted_scales(dc):
            scales.append(dc)
            return bootstrap_scales(dc)

        monkeypatch.setattr(sim_mod, "flat_cut_design", counted_cut)
        monkeypatch.setattr(intervals_mod, "bootstrap_scales", counted_scales)
        cfg = parse_estimator({"kind": "harmonized", "name": "bd", "initial": "diff_means_pooled"})
        datasets = [generate_scenario(load_preset("fig1-s2"), 0, rep) for rep in range(3)]

        def evaluate(dc):
            for rep, ds in enumerate(datasets):
                ctx = _ReplicateContext(ds, dc)
                for method in ("cut", "bootstrap"):
                    interval(method, ctx, cfg, 0.05, phi2=1.0, r=100, replicate=rep)

        def built_for(*dcs):
            return (len(cut_designs) == len(scales) == len(dcs)
                    and all(pi is dc.pi for pi, dc in zip(cut_designs, dcs))
                    and all(got is dc for got, dc in zip(scales, dcs)))

        dc = compute_design_counts(datasets[0])
        evaluate(dc)
        assert built_for(dc)
        other = compute_design_counts(datasets[0], (0.05,) * 5 + (0.15,) * 5)
        evaluate(other)
        assert built_for(dc, other)
        # another outcome variance is another cut design, on the same scales
        interval("cut", _ReplicateContext(datasets[0], dc), cfg, 0.05, phi2=2.0)
        assert len(cut_designs) == 3 and cut_designs[2] is dc.pi and len(scales) == 2

    def test_design_only_widths_and_cell_index_once_per_batch(self, monkeypatch):
        # the analytic and cut half-widths are built by the public interval
        # functions once per design counts, and the cell index once per
        # design; user prevalences, a vd target or another design build
        # their own
        import subharm.intervals as intervals_mod
        from subharm.data import CombinedDataset
        from subharm.intervals import interval
        from subharm.sim import _ReplicateContext, parse_estimator, scenario_design

        calls = {"analytic_interval": 0, "cut_interval": 0, "rct_mask": 0}

        def counted(name, function):
            def call(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return call

        for name in ("analytic_interval", "cut_interval"):
            monkeypatch.setattr(intervals_mod, name, counted(name, getattr(intervals_mod, name)))
        monkeypatch.setattr(CombinedDataset, "rct_mask",
                            counted("rct_mask", CombinedDataset.rct_mask))
        spec = load_preset("fig1-s2")
        design = scenario_design(spec, 0)
        datasets = [generate_scenario(spec, 0, rep, design) for rep in range(3)]
        dc = compute_design_counts(datasets[0])
        bd, vd = (parse_estimator({"kind": "harmonized", "name": mode,
                                   "initial": "diff_means_pooled", "sigma_mode": mode})
                  for mode in ("bd", "vd"))

        def evaluate(dc, target):
            for ds in datasets:
                ctx = _ReplicateContext(ds, dc)
                for method in ("analytic", "cut"):
                    interval(method, ctx, target, 0.05, phi2=1.0)

        def built(analytic, cut, cell_index):
            return calls == {"analytic_interval": analytic, "cut_interval": cut,
                             "rct_mask": cell_index}

        evaluate(dc, bd)
        assert built(1, 1, 1)
        evaluate(compute_design_counts(datasets[0], (0.05,) * 5 + (0.15,) * 5), bd)
        assert built(2, 2, 1)
        evaluate(dc, vd)  # vd's shift reads each replicate's estimate
        assert built(5, 2, 1)
        compute_design_counts(generate_scenario(spec, 0, 3))
        assert built(5, 2, 2)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_shared_design_parts_give_the_frozen_intervals(self, data):
        # three replicates on one design, K = 1-6 with empty external cells,
        # empirical or user prevalences and phi2 in [0.1, 10], against the
        # cut, bootstrap and analytic intervals as one call computed them;
        # the analytic one on an identity target, whose shift is design-only,
        # and on a vd target, whose shift is each replicate's own
        from oracles import frozen_bootstrap_interval, frozen_cut_interval, frozen_flat_cut
        from subharm import CombinedDataset, analytic_bias_variance
        from subharm.bayes import flat_cut
        from subharm.errors import SubharmError
        from subharm.intervals import analytic_interval, bootstrap_interval, interval
        from subharm.sim import _ReplicateContext, parse_estimator

        k = data.draw(st.integers(1, 6))
        cells = st.lists(st.integers(0, 6), min_size=k, max_size=k)
        n_t = np.array(data.draw(st.lists(st.integers(1, 6), min_size=k, max_size=k)))
        n_c, n_e = np.array(data.draw(cells)), np.array(data.draw(cells))
        n_e[data.draw(st.integers(0, k - 1))] = 0
        n_c[n_c + n_e == 0] = 1
        phi2 = data.draw(st.floats(0.1, 10))
        p = data.draw(st.none() | st.lists(st.floats(0.05, 1), min_size=k, max_size=k))
        alpha, seed = data.draw(st.floats(0.01, 0.5)), data.draw(st.integers(0, 2**32 - 1))
        r = data.draw(st.integers(100, 300))
        w_r = np.repeat(np.arange(k), n_t + n_c)
        t_r = np.concatenate([np.r_[np.ones(a, dtype=int), np.zeros(b, dtype=int)]
                              for a, b in zip(n_t, n_c)])
        w_e = np.repeat(np.arange(k), n_e)
        rng = np.random.default_rng(seed)
        datasets = [CombinedDataset.from_arrays(
            y_rct=rng.normal(0.4 * t_r, np.sqrt(phi2)), t_rct=t_r, w_rct=w_r,
            y_ec=rng.normal(0.3, np.sqrt(phi2), len(w_e)), w_ec=w_e, k=k) for _ in range(3)]
        prevalences = None if p is None else np.array(p) / sum(p)
        dc = compute_design_counts(datasets[0], prevalences)
        cfg, vd = (parse_estimator({"kind": "harmonized", "name": mode,
                                    "initial": "diff_means_pooled", "sigma_mode": mode})
                   for mode in ("identity", "vd"))

        def outcome(compute, *args, **kwargs):
            try:
                return compute(*args, **kwargs)
            except SubharmError as exc:
                return type(exc), str(exc)

        def same(got, want):
            if isinstance(want, tuple):
                assert got == want
            else:
                for field in ("lower", "upper", "point"):
                    np.testing.assert_array_equal(getattr(got, field), getattr(want, field))

        for rep, ds in enumerate(datasets):
            ctx = _ReplicateContext(ds, dc)
            cut = frozen_flat_cut(ds, phi2, dc.pi)
            direct = flat_cut(ds, phi2, dc.pi)
            np.testing.assert_array_equal(direct.mean, cut.mean)
            np.testing.assert_array_equal(direct.cov, cut.cov)
            same(outcome(interval, "cut", ctx, cfg, alpha, phi2=phi2),
                 outcome(frozen_cut_interval, cut, alpha))
            point, u = ctx.harmonized(cfg)
            want = outcome(frozen_bootstrap_interval, ds, compute_design_counts(ds, prevalences),
                           point, u, r, alpha, seed, replicate=rep)
            same(outcome(interval, "bootstrap", ctx, cfg, alpha, r=r, seed=seed,
                         replicate=rep), want)
            same(outcome(bootstrap_interval, ds, dc, point, u, r, alpha, seed,
                         replicate=rep), want)
            own = compute_design_counts(ds, prevalences)
            for target in (cfg, vd):
                def per_replicate():
                    point, u = ctx.harmonized(target)
                    return analytic_interval(
                        point, analytic_bias_variance(own, np.zeros(k), u, phi2)[1], alpha)
                same(outcome(interval, "analytic", ctx, target, alpha, phi2=phi2),
                     outcome(per_replicate))


class TestWorkerCap:
    """A process pool starts all its workers at once, so `--workers` starts
    no more processes than there are replicates or usable CPUs. A stand-in
    pool records the count asked for and the chunks, runs its initializer
    and then each chunk in this process."""

    @pytest.fixture(autouse=True)
    def worker_state(self, monkeypatch):
        # the stand-in runs the pool's initializer here; undo what it sets
        import subharm.sim

        monkeypatch.setattr(subharm.sim, "_BATCH", None)

    @staticmethod
    def recording_pool(started, chunks, tasks=None):
        from concurrent.futures import Future

        class RecordingPool:
            def __init__(self, max_workers, initializer=None, initargs=()):
                started.append(max_workers)
                if initializer is not None:
                    initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, chunk):
                chunks.append(len(chunk))
                if tasks is not None:
                    tasks.append((fn, chunk))
                future = Future()
                future.set_result(fn(chunk))
                return future
        return RecordingPool

    @pytest.mark.parametrize("workers,reps,cpus,pool", [
        (64, 3, 8, 3), (500, 9, 2, 2), (2, 9, 2, 2), (4, 9, 1, None), (1, 9, 8, None)])
    def test_pool_size(self, monkeypatch, workers, reps, cpus, pool):
        import concurrent.futures
        import os

        started, chunks = [], []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            self.recording_pool(started, chunks))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        spec = load_preset("fig1-s1")
        rep = run_monte_carlo(spec, ["diff_means_pooled"], reps=reps, seed=1, workers=workers)
        assert started == ([] if pool is None else [pool])
        if pool is not None:  # chunked by the pool's size
            assert sum(chunks) == reps and len(chunks) == min(16 * pool, reps)
        serial = run_monte_carlo(spec, ["diff_means_pooled"], reps=reps, seed=1)
        assert rep.to_json_dict() == serial.to_json_dict()

    @pytest.mark.parametrize("command", ["simulate", "resample"])
    def test_each_task_carries_only_its_replicate_indices(self, monkeypatch, standin_csvs,
                                                          command):
        # the batch function, with its spec or pools, reaches each worker
        # once, through the initializer; a task pickles only its indices
        import concurrent.futures
        import os
        import pickle
        from functools import partial

        started, chunks, tasks = [], [], []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            self.recording_pool(started, chunks, tasks))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        if command == "simulate":
            run_monte_carlo(load_preset("fig5"), ["logistic_pooled"], reps=40, seed=1,
                            workers=2)
        else:
            trial, ec, schema = standin_csvs
            run_resampling(trial, ec, n_control=30, n_experimental=30, n_ec=40, reps=40,
                           seed=1, schema=schema, workers=2)
        assert started == [2] and len(tasks) == 32
        done = []
        for fn, chunk in tasks:
            assert not isinstance(fn, partial)
            assert isinstance(chunk, np.ndarray) and chunk.dtype.kind == "i"
            # a module function goes by name: nothing but the indices and names
            assert len(pickle.dumps((fn, chunk))) < 400 + chunk.nbytes
            done += chunk.tolist()
        assert done == list(range(40))


def test_rct_subgroup_grouping_built_once_per_batch(monkeypatch):
    from subharm.data import SubgroupRows

    built = []
    original = SubgroupRows.of.__func__

    def counted(cls, w, k):
        built.append(len(w))
        return original(cls, w, k)

    monkeypatch.setattr(SubgroupRows, "of", classmethod(counted))
    ests = ["logistic_pooled"] + [
        {"kind": "harmonized", "initial": "logistic_pooled", "overall": "logistic",
         "lambda": "full", "sigma_mode": mode} for mode in ("bd", "vd")]
    run_monte_carlo(load_preset("fig5"), ests, reps=2, seed=3)
    # the pooled effects, their gradient, the overall effect and the bd
    # limit map's sensitivity all read one design's grouping, which the
    # batch's replicates share (fig5's covariates are frozen): one for the
    # batch, and one for the true effects' design
    assert len(built) == 2


class TestSharedDesign:
    """A `simulate` batch whose covariates are frozen or absent draws its
    design once and shares it among its replicates; each replicate's
    dataset is still the one a standalone `generate_scenario` draws."""

    SPECS = {"fixed": lambda: load_preset("fig5"), "absent": lambda: load_preset("fig1-s2"),
             "free": lambda: replace(load_preset("fig5"), fixed_covariates=False)}
    ESTIMATORS = {"fixed": ["logistic_pooled", {
        "kind": "harmonized", "initial": "logistic_pooled", "overall": "logistic",
        "lambda": "full", "sigma_mode": "bd"}]}

    def batch(self, monkeypatch, case):
        """The spec, the unpatched `generate_scenario` and the datasets one
        batch of 3 replicates drew, by replicate."""
        import subharm.sim

        spec, original, drawn = self.SPECS[case](), subharm.sim.generate_scenario, {}

        def recorded(spec, seed, replicate, *args):
            drawn[replicate] = original(spec, seed, replicate, *args)
            return drawn[replicate]

        monkeypatch.setattr(subharm.sim, "generate_scenario", recorded)
        report = run_monte_carlo(spec, self.ESTIMATORS.get(case, ["diff_means_pooled"]),
                                 reps=3, seed=7)
        assert not report.failures and sorted(drawn) == [0, 1, 2]
        return spec, original, drawn

    @pytest.mark.parametrize("case", ["fixed", "absent", "free"])
    def test_each_replicate_equals_a_standalone_draw(self, monkeypatch, case):
        spec, original, drawn = self.batch(monkeypatch, case)
        for rep, ds in drawn.items():
            alone = original(spec, 7, rep)
            for name in ("y_rct", "t_rct", "w_rct", "x_rct", "y_ec", "w_ec", "x_ec"):
                got, want = getattr(ds, name), getattr(alone, name)
                assert got.dtype == want.dtype and np.array_equal(got, want), name
            assert ((ds.k, ds.d, ds.outcome_family, ds.subgroup_labels)
                    == (alone.k, alone.d, alone.outcome_family, alone.subgroup_labels))
        # the design is drawn and sorted once exactly when it is the same
        # in every replicate
        shared = [ds.cell_design is drawn[0].cell_design for ds in drawn.values()]
        assert shared == [True] * 3 if case != "free" else [True, False, False]

    def test_each_shared_cache_equals_a_fresh_one(self, monkeypatch):
        spec, original, drawn = self.batch(monkeypatch, "fixed")
        ds, alone = drawn[2], original(spec, 7, 2)
        assert ds.cell_design is drawn[0].cell_design
        got, want = ds.cell_design, alone.cell_design
        assert got is not want
        for name in ("order", "counts", "xt", "pattern"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        got, want = ds.rct_subgroups, alone.rct_subgroups
        assert got is drawn[0].rct_subgroups and got is not want
        for name in ("order", "w", "n"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.runs == want.runs
        got, want = ds.limit_map_layout, alone.limit_map_layout
        assert got is drawn[0].limit_map_layout and got is not want
        for name in ("ec_rows", "copies", "weights"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        for name in ("order", "counts", "xt"):
            assert np.array_equal(getattr(got.design, name), getattr(want.design, name)), name

    @pytest.mark.parametrize("case", ["fixed", "absent"])
    def test_cell_stats_never_shared(self, monkeypatch, case):
        from subharm.data import CellStats

        spec, original, drawn = self.batch(monkeypatch, case)
        stats = [ds.cell_stats for ds in drawn.values()]
        assert len({id(s) for s in stats}) == 3
        for rep, got in zip(drawn, stats):
            want = CellStats.from_dataset(original(spec, 7, rep))
            for name in ("n", "total", "mean", "ss"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_a_design_serves_only_its_own_spec_and_seed(self):
        from subharm.sim import scenario_design

        spec = load_preset("fig5")
        design = scenario_design(spec, 7)
        for args in ((replace(spec, name="other"), 7), (spec, 8),
                     (replace(spec, fixed_covariates=False), 7)):
            with pytest.raises(ValueError, match="shared only"):
                generate_scenario(*args, 1, design)


class TestTrialFitPerReplicate:
    @staticmethod
    def _fits(monkeypatch):
        """(design rows, response dimensions) of every logistic fit, in
        call order."""
        import importlib

        fits = []
        for name in ("subharm.estimators", "subharm.harmonize"):
            module = importlib.import_module(name)
            original = module.fit_logistic_irls

            def counted(design, y, *args, _original=original, **kwargs):
                fits.append((getattr(design, "values", design).shape[0], np.ndim(y)))
                return _original(design, y, *args, **kwargs)

            monkeypatch.setattr(module, "fit_logistic_irls", counted)
        return fits

    def test_one_trial_only_logistic_fit_per_replicate(self, monkeypatch):
        # logistic_rct, the logistic overall effect and both limit maps'
        # anchors share one trial-only fit
        spec = load_preset("fig5")
        n_rct = generate_scenario(spec, 3).n_rct
        fits = self._fits(monkeypatch)
        ests = ["logistic_rct", "logistic_pooled", "logistic_ipw"] + [
            {"kind": "harmonized", "name": f"bd_{initial}", "initial": initial,
             "overall": "logistic", "lambda": "full", "sigma_mode": "bd"}
            for initial in ("logistic_pooled", "logistic_ipw")]
        report = run_monte_carlo(spec, ests, reps=2, seed=3)
        assert not report.failures
        assert [rows for rows, _ in fits].count(n_rct) == 2

    def test_two_fits_per_fig5_bd_replicate(self, monkeypatch):
        # the pooled fit and the trial-only fit; the limit map's
        # sensitivity comes from its Taylor series and fits nothing by IRLS
        spec = load_preset("fig5")
        ds = generate_scenario(spec, 3)
        fits = self._fits(monkeypatch)
        ests = ["logistic_pooled", {"kind": "harmonized", "initial": "logistic_pooled",
                                    "overall": "logistic", "lambda": "full",
                                    "sigma_mode": "bd"}]
        report = run_monte_carlo(spec, ests, reps=2, seed=3)
        assert not report.failures
        assert sorted(fits) == sorted(2 * [(ds.n_rct, 1), (ds.n_rct + ds.n_ec, 1)])

    def test_one_propensity_fit_per_replicate(self, monkeypatch):
        # the logistic_ipw estimate and its limit map share one fit
        import subharm.estimators
        import subharm.sim

        calls = []
        fit = subharm.estimators.fit_propensity
        for module in (subharm.estimators, subharm.sim):
            monkeypatch.setattr(module, "fit_propensity",
                                lambda ds: calls.append(ds) or fit(ds))
        ests = ["logistic_ipw", {"kind": "harmonized", "initial": "logistic_ipw",
                                 "overall": "logistic", "lambda": "full",
                                 "sigma_mode": "bd"}]
        report = run_monte_carlo(load_preset("fig5"), ests, reps=3, seed=3)
        assert not report.failures
        assert len(calls) == 3

    def test_one_copy_of_the_ipw_estimate(self):
        # the context's logistic_ipw estimate is `weighted_logistic_effects`
        # on its cached EC weights, which the IPW limit map reads too
        from subharm import ec_weights, fit_propensity, weighted_logistic_effects
        from subharm.sim import _ReplicateContext

        ds = generate_scenario(load_preset("fig5"), 4)
        ctx = _ReplicateContext(ds, compute_design_counts(ds))
        got, want = ctx.initial("logistic_ipw"), weighted_logistic_effects(
            ds, ec_weights(fit_propensity(ds)))
        np.testing.assert_array_equal(got.theta_k, want.theta_k)
        np.testing.assert_array_equal(got.covariance, want.covariance)
        spec = ctx.limit_map_spec("logistic_ipw")
        np.testing.assert_array_equal(spec.weights[spec.ec_rows], ctx.ipw_weights())

    def test_one_propensity_fit_per_ipw_estimate_call(self, monkeypatch, tmp_path):
        import subharm.estimators
        import subharm.sim

        calls = []
        fit = subharm.estimators.fit_propensity
        for module in (subharm.estimators, subharm.sim):
            monkeypatch.setattr(module, "fit_propensity",
                                lambda ds: calls.append(ds) or fit(ds))
        self._estimate(tmp_path, ["logistic_ipw", {
            "kind": "harmonized", "name": "bd", "initial": "logistic_ipw",
            "overall": "logistic", "lambda": "full", "sigma_mode": "bd"}])
        assert len(calls) == 1

    @staticmethod
    def _estimate(tmp_path, ests):
        """Run `estimate` with `ests` on a fig5 binary pair; its dataset."""
        from subharm.cli import main

        ds = generate_scenario(load_preset("fig5"), 2)
        rct, ec = str(tmp_path / "r.csv"), str(tmp_path / "e.csv")
        save_dataset(ds, rct, ec, CsvSchema(covariates=("x1",)))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "rct_csv": rct, "ec_csv": ec, "outcome_family": "binary",
            "schema": {"covariates": ["x1"]}, "estimators": ests,
            "intervals": ["rct_only"], "out_dir": str(tmp_path / "o")}))
        assert main(["estimate", "--config", str(cfg)]) == 0
        return ds

    def test_one_limit_map_layout_per_estimate_call(self, monkeypatch, tmp_path):
        # bd on the pooled and the IPW initials: one CellDesign, argsort and
        # pseudo-response serve both limit maps
        import importlib

        harmonize_mod = importlib.import_module("subharm.harmonize")
        built = []
        cell_design = harmonize_mod.CellDesign
        monkeypatch.setattr(harmonize_mod, "CellDesign",
                            lambda *args: built.append(args) or cell_design(*args))
        self._estimate(tmp_path, ["logistic_pooled", "logistic_ipw"] + [
            {"kind": "harmonized", "name": f"bd_{initial}", "initial": initial,
             "overall": "logistic", "lambda": "full", "sigma_mode": "bd"}
            for initial in ("logistic_pooled", "logistic_ipw")])
        assert len(built) == 1

    def test_estimate_sorts_its_rows_once(self, monkeypatch, tmp_path):
        # the trial-only, pooled, IPW and propensity fits all read one sort
        # of the dataset's rows into cells
        import subharm.data
        import subharm.estimators

        sorts, designs = [], []
        cell_design, fit = subharm.data.CellDesign, subharm.estimators.fit_logistic_irls
        monkeypatch.setattr(subharm.data, "CellDesign",
                            lambda *args: sorts.append(len(args[0])) or cell_design(*args))
        monkeypatch.setattr(subharm.estimators, "fit_logistic_irls",
                            lambda design, *args, **kwargs: designs.append(design)
                            or fit(design, *args, **kwargs))
        ds = self._estimate(tmp_path, ["logistic_pooled", "logistic_rct", "logistic_ipw", {
            "kind": "harmonized", "name": "bd", "initial": "logistic_pooled",
            "overall": "logistic", "lambda": "full", "sigma_mode": "bd"}])
        assert sorts == [ds.n_rct + ds.n_ec]
        assert len(designs) == 4
        assert all(np.shares_memory(d.order, designs[0].order) for d in designs)

    def test_shared_layout_keeps_each_sensitivity(self):
        # the IPW map takes the shared layout with its own EC weights; its
        # B is the one its own layout gives, bit for bit
        from subharm import bd_direction_glm, build_limit_map_spec
        from subharm.sim import _ReplicateContext

        ds = generate_scenario(load_preset("fig5"), 4)
        ctx = _ReplicateContext(ds, compute_design_counts(ds))
        fit = ctx.trial_logistic_fit()
        for initial in ("logistic_pooled", "logistic_ipw"):
            own = build_limit_map_spec(ds, ctx.dc.pi, fit)
            if initial == "logistic_ipw":
                weights = own.weights.copy()
                weights[own.ec_rows] = ctx.ipw_weights()
                own = replace(own, weights=weights)
            shared = ctx.limit_map_spec(initial)
            assert shared.design is ctx.limit_map_spec("logistic_pooled").design
            assert np.array_equal(shared.weights, own.weights)
            assert np.array_equal(bd_direction_glm(shared)[0], bd_direction_glm(own)[0])


class TestCacheScope:
    """A regression check that nothing one run computes carries into
    another run in the same process: what a batch shares is kept on its
    own `DesignCounts` and design, and the design columns are read-only."""

    def test_runs_in_one_process_match_fresh_processes(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import subharm
        from subharm.cli import main

        intervals = ["analytic", "cut", "bootstrap", "rct_only"]
        sigma = (0.5 * np.eye(10) + 0.05).tolist()
        other_counts = dict(load_preset("fig1-s2").to_dict(), name="other-counts",
                            n_rct_treated=[4, 6] * 5, n_rct_control=[6, 5] * 5,
                            n_ec=[30, 0, 12, 50, 8] * 2)
        configs = [
            {"preset": "fig1-s2", "intervals": intervals},
            {"scenario": other_counts, "intervals": intervals},
            {"preset": "fig1-s2", "intervals": intervals, "estimators": [
                "diff_means_pooled",
                *({"kind": "harmonized", "name": f"fixed_{lam}", "initial": "diff_means_pooled",
                   "lambda": lam, "sigma_mode": "fixed", "sigma": sigma} for lam in ("full", 2)),
                {"kind": "harmonized", "name": "identity", "initial": "diff_means_pooled",
                 "sigma_mode": "identity"}]},
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(subharm.__file__).parents[1]))
        entry = "import sys; from subharm.cli import main; sys.exit(main(sys.argv[1:]))"
        for i, cfg in enumerate(configs):
            path = tmp_path / f"c{i}.json"
            path.write_text(json.dumps(dict(cfg, reps=12, seed=i, bootstrap_r=200)))
            reports = []
            for workers in ("1", "2"):
                out = tmp_path / f"{i}-w{workers}"
                assert main(["simulate", "--config", str(path), "--workers", workers,
                             "--out-dir", str(out)]) == 0
                reports.append((out / "report.csv").read_bytes())
            fresh = tmp_path / f"{i}-fresh"
            subprocess.run([sys.executable, "-c", entry, "simulate", "--config", str(path),
                            "--out-dir", str(fresh)], env=env, check=True)
            reports.append((fresh / "report.csv").read_bytes())
            assert reports[0] == reports[1] == reports[2]
        ds = generate_scenario(load_preset("fig1-s2"), 0)
        for column in (ds.w_rct, ds.t_rct, ds.w_ec):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1


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
        gap = (spiked.replicate_estimates["logistic_rct"].mean(axis=0)
               - base.replicate_estimates["logistic_rct"].mean(axis=0))
        assert np.all(gap > 0.04)

    def test_spike_is_the_truth(self, standin_csvs):
        # the experimental arm's expected response rate is the pool's plus the
        # spike, so the trial-only estimate is unbiased for the spike
        trial, ec, schema = standin_csvs
        rep = run_resampling(trial, ec, n_control=80, n_experimental=120, n_ec=200,
                             reps=300, seed=0, schema=schema, estimators=["logistic_rct"],
                             spike=0.1)
        np.testing.assert_array_equal(rep.truth, [0.1] * 4)
        rct = rep.estimator_stats["logistic_rct"]
        assert np.all(np.abs(rct["bias"]) < 4 * rct["mc_se_bias"]), rct["bias"]

    def test_feasible_spike_fails_no_replicate(self, standin_csvs):
        # subgroup 4's pool control rate is 0.607: a drawn arm's rate often
        # exceeds 0.7, but the spike reads the pool's rate
        trial, ec, schema = standin_csvs
        rep = run_resampling(trial, ec, n_control=80, n_experimental=120, n_ec=200, reps=50,
                             seed=3, schema=schema, estimators=["logistic_rct"], spike=0.3)
        assert rep.failures == []
        assert rep.estimator_stats["logistic_rct"]["n_used"] == 50

    # 13 trial patients in 4 subgroups: some replicates draw a subgroup
    # without RCT patients, which has no design counts, and some one
    # without a treated patient, which the estimator cannot estimate
    SMALL = dict(n_control=5, n_experimental=8, n_ec=60, reps=30, seed=1,
                 estimators=["diff_means_pooled"])

    def test_undrawable_design_is_a_failed_replicate(self, standin_csvs, tmp_path):
        from subharm.cli import main

        trial, ec, schema = standin_csvs
        rep = run_resampling(trial, ec, schema=schema, **self.SMALL)
        assert (1, "design", "subgroup 2 has no RCT patients") in rep.failures
        assert {name for _, name, _ in rep.failures} == {"design", "diff_means_pooled"}
        design = sorted(r for r, name, _ in rep.failures if name == "design")
        assert np.isnan(rep.replicate_estimates["diff_means_pooled"][design]).all()
        failed = {r for r, _, _ in rep.failures}
        assert rep.estimator_stats["diff_means_pooled"]["n_used"] == 30 - len(failed)
        reports = []
        for workers in (1, 2):
            config = tmp_path / "c.json"
            config.write_text(json.dumps(dict(self.SMALL, trial_csv=trial, ec_csv=ec,
                                              schema={"covariates": list(schema.covariates)},
                                              workers=workers)))
            assert main(["resample", "--config", str(config),
                         "--out-dir", str(tmp_path / str(workers))]) == 0
            reports.append((tmp_path / str(workers) / "report.json").read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failures_name_their_replicate_by_a_python_int(self, standin_csvs, workers):
        trial, ec, schema = standin_csvs
        rep = run_resampling(trial, ec, schema=schema, workers=workers, **self.SMALL)
        assert rep.failures and all(type(r) is int for r, _, _ in rep.failures)

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
