"""The cell layout of every fit against the dense design it stands for.

`CellDesign` forms the fits' three products per cell; here they are
compared with the dense products on hypothesis-drawn layouts, for the
pooled, trial-only and propensity models' maps on one sort of a dataset's
rows and for the limit map's, and the logistic and least-squares fits made
on them with dense-design reference fits: the estimates, and on separated
or rank-deficient data the error. The linear bias sensitivity is compared
with its dense formula.
The limit map built on the layout is compared with a dense-design oracle
of the same map. The finite-difference sensitivity, taken from the limit
map's Taylor series, is compared with IRLS refits, its first-order term
with the implicit-function Jacobian, and a singular information must fail
closed. The sensitivity's working set must stay linear in the rows, and
the IPW limit map, the pooled one with its EC weights replaced, must give
the sensitivity of a map built afresh.
"""

import dataclasses
import importlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from subharm import (
    CombinedDataset,
    CsvSchema,
    ScenarioSpec,
    compute_design_counts,
    generate_scenario,
    load_preset,
    save_dataset,
)
from subharm.cli import main
from subharm.errors import (
    DegenerateDirection,
    NumericalError,
    RankDeficient,
    SeparationDetected,
)
from subharm.estimators import (
    OLS,
    _marginal_gradient,
    _pooled_logistic_fit,
    ec_weights,
    fit_propensity,
    logistic_marginal_effects,
    marginal_effects,
    ols_overall_effect,
    ols_subgroup_effects,
    rct_only_subgroups,
)
from subharm.glm import (
    MODEL_OVERALL,
    MODEL_POOLED,
    MODEL_RCT_SUBGROUP,
    OVERALL_TREATMENT,
    CellDesign,
    build_design,
    fit_logistic_irls,
    fit_ols,
    pooled_map,
)
from subharm.harmonize import (
    _unit_direction,
    bd_direction_glm,
    bd_direction_linear,
    build_limit_map_spec,
    limit_map_theta,
)
from subharm.sim import _ReplicateContext

FD_STEP = 1e-4
# the module; the package's `harmonize` attribute is the function
HARMONIZE = importlib.import_module("subharm.harmonize")


@st.composite
def layouts(draw, blocks=2):
    """(cell sizes of the blocks x K cells, d, seed): K = 1..8, d = 0..3,
    and any cell may be empty."""
    k = draw(st.integers(1, 8))
    sizes = draw(st.lists(st.integers(0, 12), min_size=blocks * k, max_size=blocks * k))
    return k, np.array(sizes), draw(st.integers(0, 3)), draw(st.integers(0, 2**32 - 1))


def cell_rows(layout):
    """Shuffled rows of a layout: cell index, covariates, and a generator."""
    k, sizes, d, seed = layout
    rng = np.random.default_rng(seed)
    cell = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    return cell, rng.normal(size=(len(cell), d)), rng


def onehot(idx, k):
    out = np.zeros((len(idx), k))
    out[np.arange(len(idx)), idx] = 1.0
    return out


def dense(cell, x, k):
    """[onehot(g), a * onehot(g), x] for the cells g + K a: a = 0 control,
    1 treated and 2 external, whose treatment columns are zero."""
    g = onehot(cell % k, k)
    return np.column_stack([g, g * (cell // k == 1)[:, None], x])


def close(got, want, scale):
    # relative to the sum of the absolute terms behind each entry
    assert np.all(np.abs(got - want) <= 1e-12 * scale), np.max(np.abs(got - want) / scale)


def check_products(design, xd, rng, binary=True):
    """X b, X'r and X'diag(v)X of `design` against the dense `xd` in its row
    order, and X'r of a stack."""
    assert design.shape == xd.shape
    n, p = xd.shape
    coef = rng.normal(size=p)
    y = (rng.random(n) < 0.5).astype(float) if binary else rng.random(n)
    r = y - expit(xd @ coef)
    v = rng.uniform(0.0, 0.25, n)
    close(design.linear_predictor(coef), xd @ coef, np.abs(xd) @ np.abs(coef) + 1e-300)
    close(design.score(r), xd.T @ r, np.abs(xd).T @ np.abs(r) + 1e-300)
    close(design.information(v), xd.T @ (xd * v[:, None]),
          np.abs(xd).T @ (np.abs(xd) * v[:, None]) + 1e-300)
    rs = rng.normal(size=(3, n))
    close(design.score(rs), rs @ xd, np.abs(rs) @ np.abs(xd) + 1e-300)


@settings(max_examples=60, deadline=None)
@given(layouts(), st.booleans())
def test_products_match_dense(layout, binary):
    # the limit map's layout: the 2K subgroup-by-arm cells
    cell, x, rng = cell_rows(layout)
    k = layout[0]
    design = CellDesign(cell, x, pooled_map(k)[:2 * k])
    check_products(design, dense(cell, x, k)[design.order], rng, binary)


MODELS = ("pooled", "trial", "propensity")


def model_design(cell, x, k, model):
    """A model's design on the one sort of the 3K cells, and the dense
    design of the same rows in its row order."""
    design = CellDesign(cell, x, pooled_map(k))
    if model == "trial":
        design = design.remap(pooled_map(k)[:2 * k])
    elif model == "propensity":
        design = design.remap(pooled_map(k)[:, :k])
    xd = np.column_stack([onehot(cell % k, k), x]) if model == "propensity" else dense(cell, x, k)
    return design, xd[design.order]


@settings(max_examples=60, deadline=None)
@given(layouts(blocks=3), st.sampled_from(MODELS), st.booleans())
def test_dataset_maps_match_dense(layout, model, no_ec):
    k, sizes, d, seed = layout
    if no_ec:
        sizes[2 * k + seed % k] = 0  # a subgroup without external rows
    cell, x, rng = cell_rows((k, sizes, d, seed))
    design, xd = model_design(cell, x, k, model)
    if model == "trial":
        assert set(design.order) == set(np.flatnonzero(cell < 2 * k))
    check_products(design, xd, rng)


@settings(max_examples=30, deadline=None)
@given(layouts())
def test_empty_cell_is_rank_deficient_like_dense(layout):
    k, sizes, d, seed = layout
    sizes = np.maximum(sizes, 3)
    sizes[k + seed % k] = 0  # subgroup seed % k has no treated rows
    cell, x, rng = cell_rows((k, sizes, d, seed))
    design = CellDesign(cell, x, pooled_map(k)[:2 * k])
    y = rng.random(len(cell))
    with pytest.raises(RankDeficient):
        fit_logistic_irls(design, y[design.order])
    with pytest.raises(RankDeficient):
        fit_logistic_irls(dense(cell, x, k), y)


@st.composite
def trials(draw, empty_ec=False):
    """A trial with K = 1..8 subgroups of 6..20 patients per arm, 1..25
    external controls each, d = 0..3 covariates and binary or fractional
    outcomes; optional external weights. With `empty_ec`, the first of two
    or more subgroups may have no external controls."""
    k = draw(st.integers(1, 8))
    n_t = np.array(draw(st.lists(st.integers(6, 20), min_size=k, max_size=k)))
    n_c = np.array(draw(st.lists(st.integers(6, 20), min_size=k, max_size=k)))
    n_e = np.array(draw(st.lists(st.integers(1, 25), min_size=k, max_size=k)))
    if empty_ec and k > 1 and draw(st.booleans()):
        n_e[0] = 0
    d, seed = draw(st.integers(0, 3)), draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    w_r = rng.permutation(np.repeat(np.arange(k), n_t + n_c))
    t_r = np.zeros(len(w_r), dtype=int)
    for j in range(k):
        t_r[np.flatnonzero(w_r == j)[:n_t[j]]] = 1
    w_e = rng.permutation(np.repeat(np.arange(k), n_e))
    x_r, x_e = rng.normal(size=(len(w_r), d)), rng.normal(0.3, 1.0, (len(w_e), d))
    p_r = expit(rng.normal(0, 0.5, k)[w_r] + 0.4 * t_r + x_r @ rng.normal(0, 0.3, d))
    p_e = expit(rng.normal(0, 0.5, k)[w_e] + x_e @ rng.normal(0, 0.3, d))
    binary = draw(st.booleans())
    y_r, y_e = ((rng.random(len(p)) < p).astype(float) if binary else p for p in (p_r, p_e))
    ds = CombinedDataset.from_arrays(
        y_rct=y_r, t_rct=t_r, w_rct=w_r, y_ec=y_e, w_ec=w_e, k=k, x_rct=x_r, x_ec=x_e,
        outcome_family="binary" if binary else "continuous")
    weights = rng.uniform(0.1, 1.0, len(w_e)) if draw(st.booleans()) else None
    return ds, weights


def dense_fits(ds):
    """The dense designs and responses of the pooled, trial-only and
    propensity models in the dataset's row order (RCT rows, then EC rows)."""
    k = ds.k
    cell = np.concatenate([ds.w_rct + k * ds.t_rct, ds.w_ec + 2 * k])
    x = np.vstack([ds.x_rct, ds.x_ec])
    pooled, y = dense(cell, x, k), np.concatenate([ds.y_rct, ds.y_ec])
    return {"pooled": (pooled, y), "trial": (pooled[:ds.n_rct], ds.y_rct),
            "propensity": (np.column_stack([onehot(cell % k, k), x]),
                           (np.arange(len(y)) < ds.n_rct).astype(float))}


def outcome(fn):
    """`fn()`, or the class of the numerical error it raised."""
    try:
        return fn()
    except NumericalError as exc:
        return type(exc)


def dense_ipw(ds, designs):
    """The IPW estimate from dense reference fits: the propensity fit, its
    EC weights and the weighted pooled fit."""
    x, y = designs["propensity"]
    log_odds = x[ds.n_rct:] @ fit_logistic_irls(x, y).coefficients
    w = np.concatenate([np.ones(ds.n_rct), np.exp(log_odds - log_odds.max())])
    return logistic_marginal_effects(ds, fit=fit_logistic_irls(*designs["pooled"], weights=w))


@settings(max_examples=40, deadline=None)
@given(trials(empty_ec=True))
def test_fits_match_dense_reference(trial):
    # each logistic estimate made on the cell layout, against the same
    # estimate from a fit of the dense design in the dataset's row order
    ds = trial[0]
    designs = dense_fits(ds)
    cases = {
        "pooled": (lambda: logistic_marginal_effects(ds), lambda: logistic_marginal_effects(
            ds, fit=fit_logistic_irls(*designs["pooled"]))),
        "rct": (lambda: logistic_marginal_effects(ds, rct_only=True),
                lambda: logistic_marginal_effects(ds, fit=fit_logistic_irls(*designs["trial"]))),
        "ipw": (lambda: logistic_marginal_effects(
            ds, weights=np.concatenate([np.ones(ds.n_rct), ec_weights(fit_propensity(ds))])),
            lambda: dense_ipw(ds, designs)),
    }
    for name, (cells, reference) in cases.items():
        got, want = outcome(cells), outcome(reference)
        if isinstance(want, type):
            assert got is want, name
            continue
        close(got.theta_k, want.theta_k, np.abs(want.theta_k).max())
        if want.covariance is not None:
            close(got.covariance, want.covariance, np.abs(want.covariance).max())
    got, want = outcome(lambda: fit_propensity(ds)), outcome(
        lambda: fit_logistic_irls(*designs["propensity"]))
    if isinstance(want, type):
        assert got is want
        return
    close(got.coefficients, want.coefficients, np.abs(want.coefficients).max())
    log_odds = designs["propensity"][0][ds.n_rct:] @ want.coefficients
    close(got.log_odds_ec, log_odds, np.abs(log_odds).max() + 1e-300)


FAULTS = ("no treated rows", "zero covariate", "separated arm")


def with_fault(ds, fault, j):
    """`ds` broken in subgroup j: a rank-deficient pooled and trial-only
    design, or a treatment that predicts the outcome without error."""
    t, y_r, y_e = ds.t_rct.copy(), ds.y_rct.copy(), ds.y_ec.copy()
    x_r, x_e = ds.x_rct.copy(), ds.x_ec.copy()
    rows = ds.w_rct == j
    if fault == "no treated rows":
        t[rows] = 0
    elif fault == "zero covariate":
        x_r[:, 0], x_e[:, 0] = 0.0, 0.0
    else:
        y_r[rows] = t[rows]
        y_e[ds.w_ec == j] = 0.0
    return CombinedDataset.from_arrays(
        y_rct=y_r, t_rct=t, w_rct=ds.w_rct, y_ec=y_e, w_ec=ds.w_ec, k=ds.k, x_rct=x_r,
        x_ec=x_e, outcome_family=ds.outcome_family)


@settings(max_examples=30, deadline=None)
@given(trials(), st.sampled_from(FAULTS), st.integers(0, 7))
def test_failures_match_dense_reference(trial, fault, j):
    ds = trial[0]
    assume(fault != "zero covariate" or ds.d > 0)
    bad = with_fault(ds, fault, j % ds.k)
    designs = dense_fits(bad)
    want = SeparationDetected if fault == "separated arm" else RankDeficient
    for model, fit in (("pooled", lambda: _pooled_logistic_fit(bad, None, False)),
                       ("trial", lambda: _pooled_logistic_fit(bad, None, True))):
        reference = outcome(lambda: fit_logistic_irls(*designs[model]))
        assert reference is want, (model, reference)
        assert outcome(fit) is reference, model


OLS_MODELS = {"pooled": MODEL_POOLED, "trial": MODEL_RCT_SUBGROUP, "overall": MODEL_OVERALL}


def dense_ols_designs(ds):
    """The dense least-squares designs and responses of the pooled,
    trial-only and overall models in the dataset's row order."""
    designs = dense_fits(ds)
    overall = np.column_stack([np.ones(ds.n_rct), ds.t_rct, ds.x_rct])
    return {"pooled": designs["pooled"], "trial": designs["trial"],
            "overall": (overall, ds.y_rct)}


def dense_wls(x, y, w):
    """Weighted least squares of a dense design by an SVD solve of the
    square-root-weighted rows: (coefficients, dispersion, X'WX), or
    RankDeficient when a column is zero or, the columns scaled to unit
    norm, the smallest singular value is at or below 1e-5 times the
    largest, the square root of the fits' scaled eigenvalue rule."""
    sw = np.sqrt(w)
    xw = x * sw[:, None]
    norms = np.linalg.norm(xw, axis=0)
    if not np.all(norms > 0):
        return RankDeficient
    sv = np.linalg.svd(xw / norms, compute_uv=False)
    if sv[-1] <= 1e-5 * sv[0]:
        return RankDeficient
    assume(not sv[-1] <= 2e-5 * sv[0])  # the two rules may round either way
    coef = np.linalg.lstsq(xw, y * sw, rcond=None)[0]
    resid = (y - x @ coef) * sw
    return coef, float(resid @ resid) / (np.count_nonzero(w) - x.shape[1]), xw.T @ xw


def cell_wls(ds, model, w=None):
    """`model`'s least-squares fit on its cell design, with the weights `w`
    given in the dataset's row order."""
    design = build_design(ds, OLS_MODELS[model])
    y = np.concatenate([ds.y_rct, ds.y_ec])[design.order]
    return outcome(lambda: fit_ols(design, y, None if w is None else w[design.order]))


def check_ols(got, want):
    coef, dispersion, xtwx = want
    scale = np.abs(coef).max()
    np.testing.assert_allclose(got.coefficients, coef, rtol=1e-9, atol=1e-11 * scale)
    # the outcomes lie in [0, 1]; an exact fit leaves rounding
    np.testing.assert_allclose(got.dispersion, dispersion, rtol=1e-9, atol=1e-15)
    # a least-squares information is X'WX / dispersion, or X'WX at a zero one
    got_xtwx = got.information * (got.dispersion if got.dispersion > 0 else 1.0)
    np.testing.assert_allclose(got_xtwx, xtwx, rtol=1e-12, atol=1e-12 * np.abs(xtwx).max())


@settings(max_examples=40, deadline=None)
@given(trials(empty_ec=True), st.sampled_from(sorted(OLS_MODELS)), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_ols_matches_dense_reference(trial, model, weighted, seed):
    # with weights, about a fifth of the rows weigh zero
    ds = trial[0]
    x, y = dense_ols_designs(ds)[model]
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.2, 2.0, len(y)) * (rng.random(len(y)) > 0.2) if weighted else None
    assume((len(y) if w is None else np.count_nonzero(w)) > x.shape[1])
    want = dense_wls(x, y, np.ones(len(y)) if w is None else w)
    got = cell_wls(ds, model, w)
    if want is RankDeficient:
        assert got is RankDeficient
        return
    check_ols(got, want)
    if weighted:
        return
    # the estimators read the same fits
    k, coef = ds.k, want[0]
    if model == "pooled":
        est = ols_subgroup_effects(ds)
        np.testing.assert_allclose(est.theta_k, coef[k:2 * k], rtol=1e-9,
                                   atol=1e-11 * np.abs(coef).max())
        cov = want[1] * np.linalg.inv(want[2])[k:2 * k, k:2 * k]
        np.testing.assert_allclose(est.covariance, cov, rtol=1e-8)
    elif model == "trial":
        np.testing.assert_allclose(rct_only_subgroups(ds, OLS).theta_k, coef[k:2 * k],
                                   rtol=1e-9, atol=1e-11 * np.abs(coef).max())
    else:
        assert ols_overall_effect(ds) == pytest.approx(coef[OVERALL_TREATMENT], rel=1e-9,
                                                       abs=1e-11 * np.abs(coef).max())


@pytest.mark.parametrize("mean,sd", [(2000.0, 5.0), (5e4, 2e4)], ids=["year", "income"])
def test_ols_accepts_covariates_far_from_zero(mean, sd):
    # a year or an income puts X'X's eigenvalues 1e-12 or 5e-11 apart
    # unscaled: the rank rule must not depend on the covariates' units
    ds = generate_scenario(load_preset("fig4"), seed=0)
    ds = CombinedDataset.from_arrays(
        y_rct=ds.y_rct, t_rct=ds.t_rct, w_rct=ds.w_rct, y_ec=ds.y_ec, w_ec=ds.w_ec, k=ds.k,
        x_rct=mean + sd * ds.x_rct, x_ec=mean + sd * ds.x_ec, outcome_family=ds.outcome_family)
    for model, (x, y) in dense_ols_designs(ds).items():
        coef = np.linalg.lstsq(x, y, rcond=None)[0]
        got = cell_wls(ds, model)
        assert got is not RankDeficient, model
        np.testing.assert_allclose(got.coefficients, coef, rtol=1e-9,
                                   atol=1e-11 * np.abs(coef).max())
        if model == "pooled":
            np.testing.assert_array_equal(ols_subgroup_effects(ds).theta_k,
                                          got.coefficients[ds.k:2 * ds.k])
        elif model == "overall":
            assert ols_overall_effect(ds) == got.coefficients[OVERALL_TREATMENT]


@settings(max_examples=30, deadline=None)
@given(trials(empty_ec=True), st.sampled_from(FAULTS[:2]), st.integers(0, 7))
def test_ols_failures_match_dense_reference(trial, fault, j):
    # a subgroup without treated rows leaves the pooled and trial-only
    # treatment column empty, and a zero covariate every model's
    ds = trial[0]
    assume(fault != "zero covariate" or ds.d > 0)
    bad = with_fault(ds, fault, j % ds.k)
    for model, (x, y) in dense_ols_designs(bad).items():
        want, got = dense_wls(x, y, np.ones(len(y))), cell_wls(bad, model)
        if model != "overall" or fault == "zero covariate":
            assert want is RankDeficient, model
        if want is RankDeficient:
            assert got is RankDeficient, model
        else:
            check_ols(got, want)


@settings(max_examples=40, deadline=None)
@given(trials(empty_ec=True))
def test_linear_bias_sensitivity_matches_dense(trial):
    # B = rows K:2K of (M1'M1)^-1 M1'M2, M1 the pooled design and M2 the
    # EC rows' subgroup indicators
    ds = trial[0]
    m1 = dense_fits(ds)["pooled"][0]
    m2 = np.vstack([np.zeros((ds.n_rct, ds.k)), onehot(ds.w_ec, ds.k)])
    want = np.linalg.solve(m1.T @ m1, m1.T @ m2)[ds.k:2 * ds.k]
    try:
        got = bd_direction_linear(ds)[0]
    except DegenerateDirection:
        assume(False)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))


def dense_limit_map(ds, anchor, ec_weights):
    """The limit map on the dense pseudo-data design: theta(delta)."""
    k = ds.k
    nu, eta, beta = anchor[:k], anchor[k:2 * k], anchor[2 * k:]
    cell = np.concatenate([ds.w_rct, ds.w_rct + k, ds.w_ec])
    x = dense(cell, np.concatenate([ds.x_rct, ds.x_rct, ds.x_ec]), k)
    xb_r = ds.x_rct @ beta
    response_rct = np.concatenate([expit(nu[ds.w_rct] + xb_r),
                                   expit(nu[ds.w_rct] + eta[ds.w_rct] + xb_r)])
    p_treat = float(ds.t_rct.mean())
    weights = np.concatenate([np.full(ds.n_rct, 1.0 - p_treat), np.full(ds.n_rct, p_treat),
                              np.ones(ds.n_ec) if ec_weights is None else ec_weights])
    lp_ec = nu[ds.w_ec] + ds.x_ec @ beta

    def theta(delta):
        # the finite difference divides the fit's stopping error by 2e-4, and
        # IRLS may stop one step early at a score just under its default
        # 1e-10, so the oracle converges further
        y = np.concatenate([response_rct, expit(lp_ec + delta[ds.w_ec])])
        coef = fit_logistic_irls(x, y, weights=weights, start=anchor, tol=1e-12,
                                 max_iter=200).coefficients
        return marginal_effects(ds.rct_subgroups, ds.x_rct, coef[:k], coef[k:2 * k], coef[2 * k:])
    return theta


@settings(max_examples=25, deadline=None)
@given(trials())
def test_limit_map_matches_dense_oracle(trial):
    ds, ec_weights = trial
    try:
        anchor = _pooled_logistic_fit(ds, None, rct_only=True)
    except NumericalError:
        assume(False)
    spec = build_limit_map_spec(ds, ec_weights, anchor=anchor)
    oracle = dense_limit_map(ds, anchor.coefficients, ec_weights)
    rng = np.random.default_rng(ds.n_rct)
    for delta in (np.zeros(ds.k), rng.normal(0, 0.5, ds.k)):
        np.testing.assert_allclose(limit_map_theta(spec, delta), oracle(delta),
                                   rtol=0, atol=1e-10)
    big_b = np.empty((ds.k, ds.k))
    for j, e in enumerate(np.eye(ds.k) * FD_STEP):
        big_b[:, j] = (oracle(e) - oracle(-e)) / (2 * FD_STEP)
    try:
        got = bd_direction_glm(spec, FD_STEP)[0]
    except DegenerateDirection:
        # a near-separated anchor leaves B all but zero: the oracle's B must
        # be degenerate too
        with pytest.raises(DegenerateDirection):
            _unit_direction(big_b @ np.ones(ds.k), spec.pi)
        return
    np.testing.assert_allclose(got, big_b, rtol=0, atol=1e-10)


def test_anchor_fit_is_reused():
    ds = generate_scenario(load_preset("fig5"), seed=2)
    anchor = _pooled_logistic_fit(ds, None, rct_only=True)
    a, b = build_limit_map_spec(ds), build_limit_map_spec(ds, anchor=anchor)
    np.testing.assert_array_equal(a.anchor, b.anchor)
    np.testing.assert_array_equal(limit_map_theta(a, np.full(ds.k, 0.2)),
                                  limit_map_theta(b, np.full(ds.k, 0.2)))


def irls_fd_b(spec, step=FD_STEP):
    """The finite-difference sensitivity from one `limit_map_theta` call per
    distortion."""
    big_b = np.empty((spec.k, spec.k))
    for j, e in enumerate(np.eye(spec.k) * step):
        big_b[:, j] = (limit_map_theta(spec, e) - limit_map_theta(spec, -e)) / (2 * step)
    return big_b


def trial_spec(trial):
    ds, ec_weights = trial
    try:
        return build_limit_map_spec(ds, ec_weights)
    except NumericalError:
        assume(False)


@settings(max_examples=25, deadline=None)
@given(trials(), st.sampled_from([1e-4, 1e-3]))
def test_expansion_matches_irls_refits(trial, step):
    # the Taylor series leaves out O(step^4) terms of the central difference
    spec = trial_spec(trial)
    np.testing.assert_allclose(HARMONIZE._fd_sensitivity(spec, step), irls_fd_b(spec, step),
                               rtol=0, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(trials())
def test_implicit_jacobian_predicts_the_fd_sensitivity(trial):
    # G J is the expansion's first-order term, the sensitivity at fd_step
    # 0: G the marginal effects' gradient at the anchor and J = H^-1 S the
    # implicit-function Jacobian, S_j the score of w p(1-p) masked to
    # subgroup j's EC rows
    spec = trial_spec(trial)
    ds, k, p = trial[0], spec.k, spec.response
    grad = _marginal_gradient(ds.rct_subgroups, ds.x_rct, spec.anchor[:k], spec.anchor[k:2 * k],
                              spec.anchor[2 * k:])
    v = spec.weights * p * (1.0 - p)
    masked = np.zeros((k, len(p)))
    masked[spec.w_ec, spec.ec_rows] = v[spec.ec_rows]
    gj = grad @ np.linalg.solve(spec.design.information(v), spec.design.score(masked).T)
    first = HARMONIZE._fd_sensitivity(spec, 0.0)
    np.testing.assert_allclose(gj, first, rtol=0, atol=1e-13 * max(1.0, np.abs(first).max()))


def test_sensitivity_working_set_is_linear_in_rows():
    # a trial-scale binary pair: K = 8 subgroups of 250 patients per arm and
    # 1,250 external controls, two covariates, so N = 18,000 pseudo rows.
    # Carrying all K columns' Taylor terms at once peaked at 39 N-vectors.
    ds = generate_scenario(ScenarioSpec(
        name="trial-scale", outcome_family="binary", k=8, n_rct_treated=(250,) * 8,
        n_rct_control=(250,) * 8, n_ec=(1250,) * 8, mu=tuple(np.linspace(-0.8, 0.6, 8)),
        theta=(0.4,) * 8, distortion=(0.3,) * 8, n_covariates=2, beta=(0.5, -0.3),
        x_mean_ec=0.5), seed=0)
    spec = build_limit_map_spec(ds)
    n = spec.design.shape[0]
    bd_direction_glm(spec)
    tracemalloc.start()
    try:
        bd_direction_glm(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * n, peak / (8 * n)


@settings(max_examples=25, deadline=None)
@given(trials())
def test_ipw_map_shares_the_layout_and_matches_a_fresh_one(trial):
    # the IPW map is the pooled one with the EC weights replaced: it shares
    # every piece the weights do not change, and its B is that of a map
    # built from scratch with the same weights, bit for bit
    ds = trial[0]
    ctx = _ReplicateContext(ds, compute_design_counts(ds))
    try:
        pooled, ipw = ctx.limit_map_spec("logistic_pooled"), ctx.limit_map_spec("logistic_ipw")
    except NumericalError:
        assume(False)
    for name in ("design", "sigmoid", "grad", "copies"):
        assert getattr(ipw, name) is getattr(pooled, name), name
    fresh = build_limit_map_spec(ds, ctx.ipw_weights(), ctx.dc.pi, ctx.trial_logistic_fit())
    np.testing.assert_array_equal(ipw.weights, fresh.weights)
    got = outcome(lambda: HARMONIZE._fd_sensitivity(ipw, FD_STEP))
    want = outcome(lambda: HARMONIZE._fd_sensitivity(fresh, FD_STEP))
    if isinstance(want, type):
        assert got is want
    else:
        np.testing.assert_array_equal(got, want)


def singular_information(spec):
    """`spec` with subgroup 1's treated copies weighted zero, which leaves
    its treatment column of the limit map's information all zero."""
    k, counts = spec.k, spec.design.counts
    start = counts[:k].sum()
    weights = spec.weights.copy()
    weights[start:start + counts[k]] = 0.0
    return dataclasses.replace(spec, weights=weights)


class TestSingularInformation:
    """A singular information at the anchor fails closed: B raises
    RankDeficient, a replicate records the failure and `estimate` exits 4."""

    BD = {"kind": "harmonized", "name": "bd", "initial": "logistic_pooled",
          "overall": "logistic", "lambda": "full", "sigma_mode": "bd"}

    @pytest.fixture
    def singular_maps(self, monkeypatch):
        # the first limit map built is singular, and the later ones are not
        import subharm.sim

        build, built = subharm.sim.build_limit_map_spec, []

        def first_singular(*args):
            spec = build(*args)
            built.append(spec)
            return singular_information(spec) if len(built) == 1 else spec
        monkeypatch.setattr(subharm.sim, "build_limit_map_spec", first_singular)

    def test_sensitivity_raises(self):
        spec = build_limit_map_spec(generate_scenario(load_preset("fig5"), seed=1))
        with pytest.raises(RankDeficient):
            bd_direction_glm(singular_information(spec))

    def test_replicate_records_the_failure(self, singular_maps):
        from subharm import run_monte_carlo

        report = run_monte_carlo(load_preset("fig5"), ["logistic_pooled", self.BD],
                                 reps=3, seed=3)
        [(rep, name, message)] = report.failures
        assert (rep, name) == (0, "bd") and "singular" in message
        assert report.estimator_stats["bd"]["n_used"] == 2

    def test_estimate_exits_4(self, singular_maps, tmp_path):
        ds = generate_scenario(load_preset("fig5"), 2)
        rct, ec = str(tmp_path / "r.csv"), str(tmp_path / "e.csv")
        save_dataset(ds, rct, ec, CsvSchema(covariates=("x1",)))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "rct_csv": rct, "ec_csv": ec, "outcome_family": "binary",
            "schema": {"covariates": ["x1"]}, "estimators": ["logistic_pooled", self.BD],
            "intervals": ["rct_only"], "out_dir": str(tmp_path / "o")}))
        assert main(["estimate", "--config", str(cfg)]) == 4
