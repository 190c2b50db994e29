"""Property tests of the paper's invariants on hypothesis-drawn continuous
designs, run through the same shift resolver and interval dispatcher as
`simulate` and `estimate`."""

from functools import partial
from types import SimpleNamespace

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
    solve_sigma_from_b,
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
    K = 1..6 and lambda in [0, 1e300] or FULL."""
    k = draw(st.integers(1, 6))
    a = np.array(draw(st.lists(st.floats(-3, 3), min_size=k * k, max_size=k * k)))
    sigma = a.reshape(k, k) @ a.reshape(k, k).T + draw(st.floats(0.01, 2)) * np.eye(k)
    p = np.array(draw(st.lists(st.floats(0.01, 1), min_size=k, max_size=k)))
    lam = draw(st.one_of(st.floats(0, 1e300), st.just(FULL)))
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


@st.composite
def bias_directions(draw):
    """(a unit bias direction d, with pi'd = 1, and prevalences pi on the
    simplex) with K = 1..6; d is of one sign or, when K > 1, mostly of
    mixed signs."""
    k = draw(st.integers(1, 6))
    p = np.array(draw(st.lists(st.floats(0.01, 1), min_size=k, max_size=k)))
    pi = p / p.sum()
    z = np.array(draw(st.lists(st.floats(-3, 3), min_size=k, max_size=k)))
    if draw(st.booleans()):
        z = np.abs(z) + 0.05
        return z / (pi @ z), pi
    return z + (1.0 - pi @ z) / (pi @ pi) * pi, pi


@settings(max_examples=300, deadline=None)
@given(bias_directions(),
       st.one_of(st.sampled_from([0.0, 1e308, FULL]), st.floats(1e-12, 1e12)))
def test_bd_shift_is_the_scaled_bias_direction(direction, lam):
    """bd resolves to u = lam / (lam + 1) d, and to d itself at FULL, with no
    matrix; its oracle is the shift of the positive-definite matrix that
    `solve_sigma_from_b` builds from d."""
    d, pi = direction
    ctx = _ReplicateContext(None, SimpleNamespace(pi=pi))
    ctx.bd_direction = lambda initial: d
    u, mode = ctx.shift(harmonized("bd", "full" if lam == FULL else lam))
    assert mode == "bd"
    np.testing.assert_allclose(u, shift_vector(pi, solve_sigma_from_b(d, pi), lam),
                               rtol=0, atol=1e-14 * (1.0 + d @ d))
    if lam == FULL:
        assert u is d


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


@settings(max_examples=25, deadline=None)
@given(designs(), st.data())
def test_row_order_changes_no_estimate_or_interval(design, data):
    """Permuting the trial rows and the external rows changes only the order
    of summation, so every estimate and interval agrees to rounding."""
    ds = make_dataset(design)
    rct = np.array(data.draw(st.permutations(range(ds.n_rct))), dtype=int)
    ec = np.array(data.draw(st.permutations(range(ds.n_ec))), dtype=int)
    shuffled = CombinedDataset.from_arrays(
        y_rct=ds.y_rct[rct], t_rct=ds.t_rct[rct], w_rct=ds.w_rct[rct],
        y_ec=ds.y_ec[ec], w_ec=ds.w_ec[ec], k=ds.k)
    cfgs = [harmonized(mode, lam) for mode in ("bd", "vd", "identity") for lam in ("full", 2.0)]
    out = []
    for d in (ds, shuffled):
        dc = compute_design_counts(d)
        ctx = _ReplicateContext(d, dc)
        phi2 = _pooled_cell_variance(d.cell_stats)
        values = [ctx.initial(kind).theta_k
                  for kind in ("diff_means_pooled", "diff_means_rct", "ols_pooled", "ols_rct")]
        values += [np.array([ctx.overall(kind)]) for kind in ("diff_means", "ols")]
        for cfg in cfgs:
            values.append(ctx.evaluate(cfg))
            for m in METHODS:
                iv = interval(m, d, dc, 0.05, phi2=phi2, target=partial(ctx.harmonized, cfg),
                              r=200, seed=5)
                values += [iv.lower, iv.upper, iv.point]
        out.append(values)
    for got, want in zip(*out):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)
