"""The limit map's cell layout against the dense design it stands for.

`CellDesign` forms IRLS's three products per subgroup-by-arm cell; here
they are compared with the dense [onehot(g), a * onehot(g), x] products on
hypothesis-drawn layouts, and the limit map built on it with a dense-design
oracle of the same map. The finite-difference sensitivity's chord-step
refits are compared with IRLS refits and with the implicit-function
Jacobian they start from.
"""

import importlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from subharm import CombinedDataset, generate_scenario, load_preset
from subharm.errors import DegenerateDirection, NumericalError, RankDeficient
from subharm.estimators import _marginal_gradient, _pooled_logistic_fit, marginal_effects
from subharm.glm import CellDesign, _onehot, fit_logistic_irls
from subharm.harmonize import BiasModel, bd_direction_glm, build_limit_map_spec, limit_map_theta

FD_STEP = 1e-4
# the module; the package's `harmonize` attribute is the function
HARMONIZE = importlib.import_module("subharm.harmonize")


@st.composite
def layouts(draw):
    """(cell sizes of the 2K cells, d, seed): K = 1..8, d = 0..3, and any
    cell may be empty."""
    k = draw(st.integers(1, 8))
    sizes = draw(st.lists(st.integers(0, 12), min_size=2 * k, max_size=2 * k))
    return k, np.array(sizes), draw(st.integers(0, 3)), draw(st.integers(0, 2**32 - 1))


def cell_rows(layout):
    """Shuffled rows of a layout: cell index, covariates, and a generator."""
    k, sizes, d, seed = layout
    rng = np.random.default_rng(seed)
    cell = rng.permutation(np.repeat(np.arange(2 * k), sizes))
    return cell, rng.normal(size=(len(cell), d)), rng


def dense(cell, x, k):
    g = _onehot(cell % k, k)
    return np.column_stack([g, g * (cell >= k)[:, None], x])


def close(got, want, scale):
    # relative to the sum of the absolute terms behind each entry
    assert np.all(np.abs(got - want) <= 1e-12 * scale), np.max(np.abs(got - want) / scale)


@settings(max_examples=60, deadline=None)
@given(layouts(), st.booleans())
def test_products_match_dense(layout, binary):
    cell, x, rng = cell_rows(layout)
    k = layout[0]
    design = CellDesign(cell, x, k)
    xd = dense(cell, x, k)[design.order]
    assert design.shape == xd.shape
    coef = rng.normal(size=xd.shape[1])
    y = (rng.random(len(cell)) < 0.5).astype(float) if binary else rng.random(len(cell))
    r = y - expit(xd @ coef)
    v = rng.uniform(0.0, 0.25, len(cell))
    close(design.linear_predictor(coef), xd @ coef, np.abs(xd) @ np.abs(coef) + 1e-300)
    close(design.score(r), xd.T @ r, np.abs(xd).T @ np.abs(r) + 1e-300)
    close(design.information(v), xd.T @ (xd * v[:, None]),
          np.abs(xd).T @ (np.abs(xd) * v[:, None]) + 1e-300)


@settings(max_examples=30, deadline=None)
@given(layouts())
def test_empty_cell_is_rank_deficient_like_dense(layout):
    k, sizes, d, seed = layout
    sizes = np.maximum(sizes, 3)
    sizes[k + seed % k] = 0  # subgroup seed % k has no treated rows
    cell, x, rng = cell_rows((k, sizes, d, seed))
    design = CellDesign(cell, x, k)
    y = rng.random(len(cell))
    with pytest.raises(RankDeficient):
        fit_logistic_irls(design, y[design.order])
    with pytest.raises(RankDeficient):
        fit_logistic_irls(dense(cell, x, k), y)


@st.composite
def trials(draw):
    """A trial with K = 1..8 subgroups of 6..20 patients per arm, 1..25
    external controls each, d = 0..3 covariates and binary or fractional
    outcomes; optional external weights."""
    k = draw(st.integers(1, 8))
    n_t = np.array(draw(st.lists(st.integers(6, 20), min_size=k, max_size=k)))
    n_c = np.array(draw(st.lists(st.integers(6, 20), min_size=k, max_size=k)))
    n_e = np.array(draw(st.lists(st.integers(1, 25), min_size=k, max_size=k)))
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
        return marginal_effects(ds.w_rct, ds.x_rct, coef[:k], coef[k:2 * k], coef[2 * k:])
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
        got = bd_direction_glm(spec, FD_STEP)[0].B
    except DegenerateDirection:
        # a near-separated anchor leaves B all but zero: the oracle's B must
        # be degenerate too
        with pytest.raises(DegenerateDirection):
            BiasModel(B=big_b, b=big_b @ np.ones(ds.k)).direction(spec.pi)
        return
    np.testing.assert_allclose(got, big_b, rtol=0, atol=1e-10)


def test_anchor_fit_is_reused():
    ds = generate_scenario(load_preset("fig5"), seed=2)
    anchor = _pooled_logistic_fit(ds, None, rct_only=True)
    a, b = build_limit_map_spec(ds), build_limit_map_spec(ds, anchor=anchor)
    np.testing.assert_array_equal(a.anchor, b.anchor)
    np.testing.assert_array_equal(limit_map_theta(a, np.full(ds.k, 0.2)),
                                  limit_map_theta(b, np.full(ds.k, 0.2)))


def irls_fd_b(spec):
    """The finite-difference sensitivity from one `limit_map_theta` call per
    distortion."""
    big_b = np.empty((spec.k, spec.k))
    for j, e in enumerate(np.eye(spec.k) * FD_STEP):
        big_b[:, j] = (limit_map_theta(spec, e) - limit_map_theta(spec, -e)) / (2 * FD_STEP)
    return big_b


def trial_spec(trial):
    ds, ec_weights = trial
    try:
        return build_limit_map_spec(ds, ec_weights)
    except NumericalError:
        assume(False)


def nan_prediction(spec, _jacobian=HARMONIZE._implicit_jacobian):
    h_inv, jac = _jacobian(spec)
    return h_inv, np.full_like(jac, np.nan)


@settings(max_examples=15, deadline=None)
@given(trials(), st.sampled_from(["step cap", "non-finite"]))
def test_unconverged_refits_fall_back_to_irls(trial, miss):
    spec = trial_spec(trial)
    with pytest.MonkeyPatch.context() as mp:
        if miss == "step cap":
            mp.setattr(HARMONIZE, "MAX_CHORD_STEPS", 0)
        else:
            mp.setattr(HARMONIZE, "_implicit_jacobian", nan_prediction)
        np.testing.assert_array_equal(HARMONIZE._fd_sensitivity(spec, FD_STEP), irls_fd_b(spec))


@settings(max_examples=25, deadline=None)
@given(trials())
def test_implicit_jacobian_predicts_the_fd_sensitivity(trial):
    # G J is the sensitivity's closed form, G the marginal effects'
    # gradient at the anchor; rounding divided by FD_STEP leaves the FD B
    # uncertain by about 1e-12, which matters where B is all but zero
    spec = trial_spec(trial)
    ds, k = trial[0], spec.k
    grad = _marginal_gradient(ds, spec.anchor[:k], spec.anchor[k:2 * k], spec.anchor[2 * k:])
    big_b = HARMONIZE._fd_sensitivity(spec, FD_STEP)
    gj = grad @ HARMONIZE._implicit_jacobian(spec)[1]
    assert np.abs(gj - big_b).max() <= 1e-6 * np.abs(big_b).max() + 1e-10
