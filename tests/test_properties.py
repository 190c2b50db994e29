"""Property tests of the paper's invariants on hypothesis-drawn continuous
designs, run through the same shift resolver and interval dispatcher as
`simulate` and `estimate`."""

from functools import partial

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from subharm import (
    FULL,
    CombinedDataset,
    analyst1_posterior,
    analyst2_posterior,
    compute_design_counts,
    cut_distribution,
    diff_means_overall,
    diff_means_pooled_subgroups,
    flat_prior,
    ols_overall_effect,
    rct_only_subgroups,
    shift_vector,
)
from subharm.estimators import _pooled_cell_variance
from subharm.intervals import interval
from subharm.sim import _ReplicateContext, parse_estimator

METHODS = ("analytic", "cut", "bootstrap", "rct_only")


@st.composite
def designs(draw):
    """(treated, control and external cell sizes, external distortions,
    outcome seed) of a continuous design with K = 1..6 subgroups, 2..8
    patients per trial arm and 0..12 external controls per subgroup."""
    k = draw(st.integers(1, 6))
    n_t = draw(st.lists(st.integers(2, 8), min_size=k, max_size=k))
    n_c = draw(st.lists(st.integers(2, 8), min_size=k, max_size=k))
    n_e = draw(st.lists(st.integers(0, 12), min_size=k, max_size=k))
    gamma = draw(st.lists(st.floats(-2, 2), min_size=k, max_size=k))
    return np.array(n_t), np.array(n_c), np.array(n_e), np.array(gamma), draw(
        st.integers(0, 2**32 - 1))


def make_dataset(design, relabel=None):
    """The dataset of `design`, with subgroup j stored as relabel[j]."""
    n_t, n_c, n_e, gamma, seed = design
    k = len(n_t)
    rng = np.random.default_rng(seed)
    w_r = np.repeat(np.arange(k), n_t + n_c)
    t_r = np.concatenate([np.r_[np.ones(a, dtype=int), np.zeros(b, dtype=int)]
                          for a, b in zip(n_t, n_c)])
    w_e = np.repeat(np.arange(k), n_e)
    y_r = rng.normal(0.3 * t_r, 1.0)
    y_e = rng.normal(gamma[w_e], 1.0)
    relabel = np.arange(k) if relabel is None else np.asarray(relabel)
    return CombinedDataset.from_arrays(y_rct=y_r, t_rct=t_r, w_rct=relabel[w_r],
                                       y_ec=y_e, w_ec=relabel[w_e], k=k)


@st.composite
def shifts(draw):
    """(a positive-definite Sigma, prevalences on the simplex, lambda) with
    K = 1..6 and lambda in [0, 1e12] or FULL."""
    k = draw(st.integers(1, 6))
    a = np.array(draw(st.lists(st.floats(-3, 3), min_size=k * k, max_size=k * k)))
    sigma = a.reshape(k, k) @ a.reshape(k, k).T + draw(st.floats(0.01, 2)) * np.eye(k)
    p = np.array(draw(st.lists(st.floats(0.01, 1), min_size=k, max_size=k)))
    lam = draw(st.one_of(st.floats(0, 1e12), st.just(FULL)))
    return sigma, p / p.sum(), lam


@settings(max_examples=200, deadline=None)
@given(shifts())
def test_shift_vector_moves_the_weighted_average_by_its_share(shift):
    sigma, pi, lam = shift
    share = pi @ shift_vector(pi, sigma, lam)
    if lam == FULL:
        assert abs(share - 1.0) <= 1e-12
    else:
        assert np.isclose(share, lam / (lam + 1.0 / (pi @ sigma @ pi)), rtol=1e-12, atol=1e-15)


def harmonized(mode, lam="full", sigma=None):
    obj = {"kind": "harmonized", "name": mode, "initial": "diff_means_pooled",
           "overall": "diff_means", "lambda": lam, "sigma_mode": mode}
    if sigma is not None:
        obj["sigma"] = sigma.tolist()
    return parse_estimator(obj)


def fixed_sigma(k, seed):
    a = np.random.default_rng(seed).normal(size=(k, k))
    return a @ a.T + k * np.eye(k)


@settings(max_examples=40, deadline=None)
@given(designs())
def test_full_harmonization_matches_the_overall_estimate(design):
    ds = make_dataset(design)
    ctx = _ReplicateContext(ds, compute_design_counts(ds))
    r = diff_means_overall(ds)
    sigma = fixed_sigma(ds.k, design[-1])
    for cfg in (harmonized("fixed", sigma=sigma), harmonized("identity"),
                harmonized("bd"), harmonized("vd")):
        v = ctx.evaluate(cfg)
        assert abs(ctx.dc.pi @ v - r) <= 1e-10, ctx.shift_mode(cfg)
    # without any external control the bias direction is degenerate
    bd_mode = "bd" if design[2].any() else "vd (bd fallback)"
    assert ctx.shift_mode(harmonized("bd")) == bd_mode


@settings(max_examples=40, deadline=None)
@given(designs(), st.floats(0.5, 5.0))
def test_trial_only_estimates_ignore_external_outcomes(design, shift):
    ds = make_dataset(design)
    moved = CombinedDataset.from_arrays(y_rct=ds.y_rct, t_rct=ds.t_rct, w_rct=ds.w_rct,
                                        y_ec=ds.y_ec + shift, w_ec=ds.w_ec, k=ds.k)
    assert diff_means_overall(moved) == diff_means_overall(ds)
    assert ols_overall_effect(moved) == ols_overall_effect(ds)
    for model in ("diff_means", "ols"):
        np.testing.assert_array_equal(rct_only_subgroups(moved, model).theta_k,
                                      rct_only_subgroups(ds, model).theta_k)
    # the pooled estimate borrows exactly the subgroups with external controls
    np.testing.assert_array_equal(
        diff_means_pooled_subgroups(moved).theta_k != diff_means_pooled_subgroups(ds).theta_k,
        design[2] > 0)


@settings(max_examples=40, deadline=None)
@given(designs())
def test_cut_mean_equals_full_vd_harmonization(design):
    ds = make_dataset(design)
    dc = compute_design_counts(ds)
    ctx = _ReplicateContext(ds, dc)
    vd, u = ctx.harmonized(harmonized("vd"))
    shift, mode = ctx.shift(harmonized("vd"))
    assert shift is u and mode == "vd"
    # near-flat priors, so the posteriors centre on the data estimates
    phi2 = _pooled_cell_variance(ds.cell_stats)
    p1 = analyst1_posterior(ds, phi2, flat_prior(2, 1e12))
    p2 = analyst2_posterior(ds, phi2, flat_prior(2 * ds.k, 1e12))
    np.testing.assert_allclose(cut_distribution(p1, p2, dc.pi).mean, vd, rtol=0, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(designs(), st.data(), st.sampled_from(["bd", "vd", "identity"]),
       st.sampled_from(["full", 2.0]))
def test_relabelling_permutes_estimates_and_intervals(design, data, mode, lam):
    k = len(design[0])
    perm = np.array(data.draw(st.permutations(range(k))))
    cfg = harmonized(mode, lam)
    out = []
    for relabel in (None, perm):
        ds = make_dataset(design, relabel)
        dc = compute_design_counts(ds)
        ctx = _ReplicateContext(ds, dc)
        phi2 = _pooled_cell_variance(ds.cell_stats)
        ivs = {m: interval(m, ds, dc, 0.05, phi2=phi2, target=partial(ctx.harmonized, cfg),
                           r=4000, seed=5)
               for m in METHODS}
        out.append((ctx.evaluate(cfg), ivs))
    (est, ivs), (est_p, ivs_p) = out
    np.testing.assert_allclose(est_p[perm], est, rtol=1e-10, atol=1e-12)
    for m in ("analytic", "cut", "rct_only"):
        np.testing.assert_allclose(ivs_p[m].lower[perm], ivs[m].lower, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(ivs_p[m].upper[perm], ivs[m].upper, rtol=1e-10, atol=1e-12)
    # the bootstrap draws are laid out by subgroup index, so its bounds move
    # by their Monte Carlo error (about 2% of the width at r = 4000)
    boot, boot_p = ivs["bootstrap"], ivs_p["bootstrap"]
    np.testing.assert_allclose(boot_p.point[perm], boot.point, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(boot_p.width[perm], boot.width, rtol=0.15)
