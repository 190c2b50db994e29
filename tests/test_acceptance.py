"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Heavy Monte-Carlo runs are shared through module fixtures.
"""

import json
import time

import numpy as np
import pytest

from subharm import (
    FULL,
    CsvSchema,
    analyst1_posterior,
    analyst2_posterior,
    analytic_bias_variance,
    bd_direction_glm,
    build_limit_map_spec,
    compute_design_counts,
    cut_distribution,
    external_estimate,
    flat_prior,
    generate_scenario,
    harmonize,
    harmonize_objective_oracle,
    limit_map_theta,
    load_preset,
    mse_difference,
    run_monte_carlo,
    run_resampling,
    save_dataset,
    shift_vector,
    vd_sigma,
)
from subharm.cli import main as cli_main
from subharm.data import CombinedDataset

SEED = 20260809
REPS = 2000


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f" — {detail}" if detail else ""))
    return ok


def random_pd(rng, k):
    a = rng.normal(size=(k, k))
    return a @ a.T + 0.1 * k * np.eye(k)


def random_simplex(rng, k):
    p = rng.uniform(0.2, 1.0, k)
    return p / p.sum()


# --------------------------------------------------------------------------
# criterion 1: closed form vs numeric minimization oracle
# --------------------------------------------------------------------------

def test_criterion_01_closed_form():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    max_gap = 0.0
    max_constraint = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 9))
        theta = rng.normal(size=k)
        r = float(rng.normal())
        pi = random_simplex(rng, k)
        sigma = random_pd(rng, k)
        for lam in (0.0, 0.1, 1.0, 10.0, 1e6, FULL):
            got = harmonize(external_estimate(theta), r, pi,
                            shift_vector(pi, sigma, lam)).theta_k
            if np.isinf(lam):
                # constrained minimum via the KKT system
                si = np.linalg.inv(sigma)
                kkt = np.zeros((k + 1, k + 1))
                kkt[:k, :k] = si
                kkt[:k, k] = pi
                kkt[k, :k] = pi
                sol = np.linalg.solve(kkt, np.r_[si @ theta, r])
                want = sol[:k]
                max_constraint = max(max_constraint, abs(pi @ got - r))
            else:
                want = harmonize_objective_oracle(theta, r, pi, sigma, lam)
            max_gap = max(max_gap, float(np.abs(got - want).max()))
    elapsed = time.time() - t0
    ok = max_gap < 1e-8 and max_constraint < 1e-10 and elapsed < 10
    assert report("criterion 1 (closed-form correctness)", ok,
                  f"max oracle gap {max_gap:.2e}, max constraint gap "
                  f"{max_constraint:.2e}, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# shared fig-1 runs (criteria 2, 3, 9)
# --------------------------------------------------------------------------

FIG1_LAMBDAS = (0.0, 1.0, 10.0, FULL)


def _lam_name(lam):
    return "full" if np.isinf(lam) else format(lam, "g")


@pytest.fixture(scope="module")
def fig1_runs():
    runs = {}
    for scen in ("fig1-s1", "fig1-s2", "fig1-s3"):
        spec = load_preset(scen)
        ests = ["diff_means_pooled", "diff_means_rct"] + [
            {"kind": "harmonized", "name": f"h[{_lam_name(lam)}]",
             "initial": "diff_means_pooled", "overall": "diff_means",
             "lambda": _lam_name(lam), "sigma_mode": "identity"}
            for lam in FIG1_LAMBDAS]
        t0 = time.time()
        runs[scen] = run_monte_carlo(
            spec, ests, reps=REPS, seed=SEED,
            intervals=("analytic", "cut", "bootstrap", "rct_only"),
            alpha=0.05, bootstrap_r=500, interval_estimator="h[full]")
        runs[scen + ":time"] = time.time() - t0
    return runs


def test_criterion_02_prop1_reproduction(fig1_runs):
    worst = 0.0
    ok = True
    for scen in ("fig1-s1", "fig1-s2", "fig1-s3"):
        spec = load_preset(scen)
        ds = generate_scenario(spec, seed=SEED)
        dc = compute_design_counts(ds)
        rep = fig1_runs[scen]
        for lam in FIG1_LAMBDAS:
            st = rep.estimator_stats[f"h[{_lam_name(lam)}]"]
            bias, var = analytic_bias_variance(
                dc, np.asarray(spec.distortion), np.eye(spec.k), lam, spec.phi2)
            z_bias = np.abs(st["bias"] - bias) / st["mc_se_bias"]
            z_sd = np.abs(st["sd"] - np.sqrt(np.diag(var))) / st["mc_se_sd"]
            worst = max(worst, float(z_bias.max()), float(z_sd.max()))
            ok &= bool(np.all(z_bias < 3) and np.all(z_sd < 3))
    s2 = fig1_runs["fig1-s2"]
    h_full = s2.estimator_stats["h[full]"]
    ok &= bool(np.all(np.abs(h_full["bias"]) < 3 * h_full["mc_se_bias"]))
    pooled = s2.estimator_stats["diff_means_pooled"]
    q = 500 / 550
    ok &= bool(np.all(np.abs(pooled["bias"] + q) < 3 * pooled["mc_se_bias"]))
    elapsed = sum(fig1_runs[s + ":time"] for s in
                  ("fig1-s1", "fig1-s2", "fig1-s3"))
    ok_time = elapsed < 120
    assert report(
        "criterion 2 (analytic bias/variance reproduction)", ok and ok_time,
        f"worst |z| {worst:.2f} over 3 scenarios x 4 lambdas, "
        f"S2 pooled bias {pooled['bias'].mean():+.3f} (target {-q:.3f}), "
        f"shared runs {elapsed:.0f}s")


def test_criterion_03_coverage(fig1_runs):
    lines = []
    ok = True
    for scen, low, high in (("fig1-s1", 0.93, 0.97), ("fig1-s2", 0.93, 0.97),
                            ("fig1-s3", 0.0, 0.10)):
        rep = fig1_runs[scen]
        for method in ("analytic", "cut", "bootstrap"):
            cov = float(rep.interval_stats[method]["coverage"].mean())
            this_ok = low <= cov <= high if scen != "fig1-s3" else cov < 0.10
            ok &= this_ok
            lines.append(f"{scen}/{method}={cov:.3f}")
        harm_w = rep.interval_stats["analytic"]["mean_width"]
        rct_w = rep.interval_stats["rct_only"]["mean_width"]
        ok &= bool(np.all(harm_w < rct_w))
        lines.append(f"{scen} width harm {harm_w.mean():.2f} < rct {rct_w.mean():.2f}")
    assert report("criterion 3 (interval coverage)", ok, "; ".join(lines)), (
        "Scenario-3 coverage at full harmonization sits near 0.53 by "
        "construction: the per-subgroup residual distortion (0.909) is only "
        "1.87 interval standard errors, so a 95% interval still covers in "
        "half the replicates. Coverage below 0.10 would need a residual "
        "shift above 3.24 standard errors. See the README's Tests section.")


# --------------------------------------------------------------------------
# criterion 4: cut equivalence
# --------------------------------------------------------------------------

def test_criterion_04_cut_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(SEED + 4)
    worst_mean = 0.0
    worst_var = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 7))
        mult = rng.integers(1, 4, size=k)
        n_t, n_c = 4 * mult, 3 * mult
        n_e = rng.integers(2, 25, size=k)
        w_r = np.repeat(np.arange(k), n_t + n_c)
        t_r = np.concatenate([np.r_[np.ones(a, dtype=int), np.zeros(b, dtype=int)]
                              for a, b in zip(n_t, n_c)])
        w_e = np.repeat(np.arange(k), n_e)
        phi2 = float(rng.uniform(0.5, 2.0))
        y_r = rng.normal(0, np.sqrt(phi2), len(w_r)) + 0.4 * t_r
        y_e = rng.normal(0.6, np.sqrt(phi2), len(w_e))
        ds = CombinedDataset.from_arrays(y_rct=y_r, t_rct=t_r, w_rct=w_r,
                                         y_ec=y_e, w_ec=w_e, k=k)
        dc = compute_design_counts(ds)
        p1 = analyst1_posterior(ds, phi2, flat_prior(2, 1e12))
        p2 = analyst2_posterior(ds, phi2, flat_prior(2 * k, 1e12))
        cut = cut_distribution(p1, p2, dc.pi)
        m2, s2 = p2.block("theta")
        initial = external_estimate(m2, s2)
        vd = harmonize(initial, float(p1.block("theta")[0][0]), dc.pi,
                       shift_vector(dc.pi, vd_sigma(initial)))
        worst_mean = max(worst_mean, float(np.abs(cut.mean - vd.theta_k).max()))
        _, vh = analytic_bias_variance(dc, np.zeros(k), s2, FULL, phi2)
        worst_var = max(worst_var, float(np.abs(cut.cov - vh).max()))
    elapsed = time.time() - t0
    ok = worst_mean < 1e-9 and worst_var < 1e-8 and elapsed < 5
    assert report("criterion 4 (cut equivalence)", ok,
                  f"max mean gap {worst_mean:.2e}, max covariance gap "
                  f"{worst_var:.2e}, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# criterion 5: linear bias-directed harmonization (fig 4 design)
# --------------------------------------------------------------------------

def test_criterion_05_linear_bd():
    t0 = time.time()
    base = load_preset("fig4")
    scenarios = {
        "s1": base.with_distortion(0.0),
        "s2": base.with_distortion(1.0),
        "s3": base.with_distortion([2.0, 0.0] * 5),
    }
    ests = [
        "ols_pooled",
        {"kind": "harmonized", "name": "bd", "initial": "ols_pooled",
         "overall": "ols", "lambda": "full", "sigma_mode": "bd"},
        {"kind": "harmonized", "name": "cut", "initial": "ols_pooled",
         "overall": "ols", "lambda": "full", "sigma_mode": "vd"},
    ]
    runs = {name: run_monte_carlo(spec, ests, reps=REPS, seed=SEED + 5)
            for name, spec in scenarios.items()}
    ok = True
    details = []
    for name in ("s1", "s2"):
        st = runs[name].estimator_stats["bd"]
        z = np.abs(st["bias"]) / st["mc_se_bias"]
        ok &= bool(np.all(z < 3))
        details.append(f"{name} bd max|z|={z.max():.2f}")
    s3_bd = runs["s3"].estimator_stats["bd"]["bias"]
    s3_pool = runs["s3"].estimator_stats["ols_pooled"]["bias"]
    norm_ok = np.linalg.norm(s3_bd) < np.linalg.norm(s3_pool)
    sub1_ok = abs(s3_bd[0]) < abs(s3_pool[0])
    ok &= bool(norm_ok and sub1_ok)
    details.append(f"s3 |bias| bd {np.linalg.norm(s3_bd):.2f} < pooled "
                   f"{np.linalg.norm(s3_pool):.2f}; subgroup1 "
                   f"{abs(s3_bd[0]):.2f} < {abs(s3_pool[0]):.2f}")
    r2_min = 1.0
    for name in ("s1", "s2", "s3"):
        a = runs[name].replicate_estimates["cut"]
        b = runs[name].replicate_estimates["bd"]
        finite = np.isfinite(a).all(axis=1) & np.isfinite(b).all(axis=1)
        for k in range(a.shape[1]):
            r2 = np.corrcoef(a[finite, k], b[finite, k])[0, 1] ** 2
            r2_min = min(r2_min, float(r2))
    ok &= r2_min > 0.99
    elapsed = time.time() - t0
    ok &= elapsed < 180
    assert report("criterion 5 (linear bias-directed harmonization)", ok,
                  "; ".join(details) + f"; min R2(cut,bd)={r2_min:.4f}; "
                  f"{elapsed:.0f}s")


# --------------------------------------------------------------------------
# criteria 6-7: logistic bias-directed harmonization (fig 5 design)
# --------------------------------------------------------------------------

def test_criterion_06_logistic_bd():
    t0 = time.time()
    base = load_preset("fig5")
    deltas = (-1.0, -0.5, 0.0, 0.5, 1.0)
    # covariate-adjusted trial-only overall estimator: the fixed covariate
    # panels make the plain arm-means difference carry a small fixed offset
    ests = [
        "logistic_pooled",
        {"kind": "harmonized", "name": "bd", "initial": "logistic_pooled",
         "overall": "logistic", "lambda": "full", "sigma_mode": "bd"},
        {"kind": "harmonized", "name": "vd", "initial": "logistic_pooled",
         "overall": "logistic", "lambda": "full", "sigma_mode": "vd"},
    ]
    pooled_bias1 = []
    bd_ok = True
    bd_detail = []
    r2_bd_vd = None
    for delta in deltas:
        spec = base.with_distortion(delta)
        rep = run_monte_carlo(spec, ests, reps=REPS, seed=SEED + 6)
        pooled_bias1.append(float(rep.estimator_stats["logistic_pooled"]["bias"][0]))
        st = rep.estimator_stats["bd"]
        tol = np.maximum(0.01, 3 * st["mc_se_bias"])
        bd_ok &= bool(np.all(np.abs(st["bias"]) < tol))
        bd_detail.append(f"{delta:+.1f}:{np.abs(st['bias']).max():.4f}")
        if delta == 1.0:
            a = rep.replicate_estimates["bd"][:, 0]
            b = rep.replicate_estimates["vd"][:, 0]
            finite = np.isfinite(a) & np.isfinite(b)
            r2_bd_vd = float(np.corrcoef(a[finite], b[finite])[0, 1] ** 2)
    pooled_bias1 = np.asarray(pooled_bias1)
    monotone = bool(np.all(np.diff(pooled_bias1) < 0))
    x = np.asarray(deltas)
    slope, icept = np.polyfit(x, pooled_bias1, 1)
    resid = pooled_bias1 - (slope * x + icept)
    r2_linear = 1 - resid @ resid / ((pooled_bias1 - pooled_bias1.mean()) ** 2).sum()
    elapsed = time.time() - t0
    ok = (monotone and r2_linear > 0.95 and bd_ok
          and r2_bd_vd is not None and r2_bd_vd > 0.9 and elapsed < 900)
    assert report(
        "criterion 6 (logistic bias-directed harmonization)", ok,
        f"pooled bias1 {np.round(pooled_bias1, 3).tolist()} monotone={monotone} "
        f"linear R2={r2_linear:.4f}; bd max|bias| per delta "
        f"{{{', '.join(bd_detail)}}}; R2(bd,vd)={r2_bd_vd:.3f}; {elapsed:.0f}s")


def test_criterion_07_fd_remainder():
    t0 = time.time()
    spec = load_preset("fig5")
    ds = generate_scenario(spec, seed=3)
    lspec = build_limit_map_spec(ds)
    big_b, _ = bd_direction_glm(lspec)
    anchor = limit_map_theta(lspec, np.zeros(spec.k))
    direction = np.array([1.0, 0.5, -0.3, 0.8, -0.6])
    direction /= np.abs(direction).sum()
    ratios = {}
    for scale in (0.2, 0.1):
        d = direction * scale
        rem = np.abs(limit_map_theta(lspec, d) - anchor - big_b @ d).sum()
        ratios[scale] = rem / np.abs(d).sum()
    factor = ratios[0.2] / ratios[0.1]
    elapsed = time.time() - t0
    ok = factor >= 2.0 and elapsed < 60
    assert report("criterion 7 (finite-difference remainder)", ok,
                  f"remainder ratio {ratios[0.2]:.2e} -> {ratios[0.1]:.2e} "
                  f"(factor {factor:.3f}), {elapsed:.1f}s")


# --------------------------------------------------------------------------
# criterion 8: resampling harness ordering
# --------------------------------------------------------------------------

def test_criterion_08_resampling_ordering(tmp_path):
    t0 = time.time()
    spec = load_preset("gbm-like")
    pools = generate_scenario(spec, seed=20)
    trial, ec = str(tmp_path / "trial.csv"), str(tmp_path / "ec.csv")
    schema = CsvSchema(covariates=("x1",))
    save_dataset(pools, trial, ec, schema)
    rep = run_resampling(trial, ec, n_control=100, n_experimental=200,
                         n_ec=600, reps=1000, seed=SEED, schema=schema)
    po = np.abs(rep.estimator_stats["logistic_pooled"]["bias"])
    ip = np.abs(rep.estimator_stats["logistic_ipw"]["bias"])
    ha = np.abs(rep.estimator_stats["harmonized_ipw"]["bias"])
    ordering = (po >= ip) & (ip >= ha)
    sd_ok = bool(np.all(rep.estimator_stats["harmonized_ipw"]["sd"]
                        < rep.estimator_stats["logistic_rct"]["sd"]))
    elapsed = time.time() - t0
    ok = int(ordering.sum()) >= 3 and sd_ok and elapsed < 1200
    assert report(
        "criterion 8 (resampling bias ordering)", ok,
        f"|bias| pooled {np.round(po, 3).tolist()} >= ipw "
        f"{np.round(ip, 3).tolist()} >= harmonized {np.round(ha, 3).tolist()} "
        f"in {int(ordering.sum())}/4 subgroups; harmonized sd < rct sd: "
        f"{sd_ok}; failures {len(rep.failures)}; {elapsed:.0f}s")


# --------------------------------------------------------------------------
# criterion 9: MSE-difference sign audit
# --------------------------------------------------------------------------

def test_criterion_09_mse_sign_audit(fig1_runs):
    ok = True
    details = []
    for scen in ("fig1-s1", "fig1-s2"):
        spec = load_preset(scen)
        ds = generate_scenario(spec, seed=SEED)
        dc = compute_design_counts(ds)
        analytic = mse_difference(dc, np.asarray(spec.distortion), spec.phi2)
        rep = fig1_runs[scen]
        truth = rep.truth
        pool = rep.replicate_estimates["diff_means_pooled"]
        harm = rep.replicate_estimates["h[full]"]
        emp = ((pool - truth) ** 2).mean(axis=0) - ((harm - truth) ** 2).mean(axis=0)
        agree = np.sign(emp) == np.sign(analytic)
        ok &= bool(np.all(agree))
        details.append(f"{scen}: analytic {analytic.mean():+.4f}, "
                       f"empirical {emp.mean():+.4f}, signs agree "
                       f"{int(agree.sum())}/{len(agree)}")
    assert report("criterion 9 (MSE-difference sign audit)", ok,
                  "; ".join(details))


# --------------------------------------------------------------------------
# criterion 10: determinism across worker counts
# --------------------------------------------------------------------------

def test_criterion_10_worker_determinism(tmp_path):
    t0 = time.time()
    sim_bytes = []
    for sub, workers in (("sim1", "1"), ("sim2", "2")):
        out = tmp_path / sub
        code = cli_main(["simulate", "--preset", "fig1-s2", "--reps", "40",
                         "--seed", "17", "--workers", workers,
                         "--out-dir", str(out)])
        assert code == 0
        sim_bytes.append((out / "report.csv").read_bytes())
    spec = load_preset("gbm-like")
    pools = generate_scenario(spec, seed=20)
    trial, ec = str(tmp_path / "t.csv"), str(tmp_path / "e.csv")
    save_dataset(pools, trial, ec, CsvSchema(covariates=("x1",)))
    res_bytes = []
    for sub, workers in (("res1", "1"), ("res2", "2")):
        out = tmp_path / sub
        cfg = tmp_path / f"{sub}.json"
        cfg.write_text(json.dumps({
            "trial_csv": trial, "ec_csv": ec, "schema": {"covariates": ["x1"]},
            "n_control": 60, "n_experimental": 90, "n_ec": 150, "reps": 16,
            "out_dir": str(out)}))
        code = cli_main(["resample", "--config", str(cfg), "--seed", "23",
                         "--workers", workers])
        assert code == 0
        res_bytes.append((out / "report.csv").read_bytes())
    ok = sim_bytes[0] == sim_bytes[1] and res_bytes[0] == res_bytes[1]
    assert report("criterion 10 (worker-count determinism)", ok,
                  f"simulate and resample reports byte-identical, "
                  f"{time.time() - t0:.0f}s")
