"""The limit map's cell layout against the dense design it stands for.

`CellDesign` forms IRLS's three products per subgroup-by-arm cell; here
they are compared with the dense [onehot(g), a * onehot(g), x] products on
hypothesis-drawn layouts, and the limit map built on it with a dense-design
oracle of the same map. A stack of response vectors fitted on one design
is compared with one fit per vector.
"""

import importlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from subharm import CombinedDataset, generate_scenario, load_preset
from subharm.errors import NumericalError, RankDeficient, SeparationDetected
from subharm.estimators import _pooled_logistic_fit, marginal_effects
from subharm.glm import CellDesign, _onehot, fit_logistic_irls
from subharm.harmonize import bd_direction_glm, build_limit_map_spec, limit_map_theta

FD_STEP = 1e-4


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
        y = np.concatenate([response_rct, expit(lp_ec + delta[ds.w_ec])])
        coef = fit_logistic_irls(x, y, weights=weights, start=anchor, max_iter=200).coefficients
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
    np.testing.assert_allclose(bd_direction_glm(spec, FD_STEP)[0].B, big_b, rtol=0, atol=1e-10)


def test_anchor_fit_is_reused():
    ds = generate_scenario(load_preset("fig5"), seed=2)
    anchor = _pooled_logistic_fit(ds, None, rct_only=True)
    a, b = build_limit_map_spec(ds), build_limit_map_spec(ds, anchor=anchor)
    np.testing.assert_array_equal(a.anchor, b.anchor)
    np.testing.assert_array_equal(limit_map_theta(a, np.full(ds.k, 0.2)),
                                  limit_map_theta(b, np.full(ds.k, 0.2)))


def stack_problem(layout, m):
    """A CellDesign on a layout whose cells all hold 3 or more rows, m
    fractional response vectors in its row order and weights."""
    k, sizes, d, seed = layout
    cell, x, rng = cell_rows((k, np.maximum(sizes, 3), d, seed))
    design = CellDesign(cell, x, k)
    lp = dense(cell, x, k)[design.order] @ rng.normal(0, 0.7, 2 * k + d)
    y = expit(lp + rng.normal(0, rng.uniform(0, 1.5, (m, 1)), (m, len(cell))))
    return design, y, rng.uniform(0.2, 1.5, len(cell)), rng


@settings(max_examples=40, deadline=None)
@given(layouts(), st.integers(1, 6), st.booleans())
def test_stacked_fit_rows_equal_one_row_fits(layout, m, warm):
    design, y, w, rng = stack_problem(layout, m)
    # a start this far from the optimum makes most stacks halve steps
    start = rng.normal(0, 1.0, design.shape[1]) if warm else None
    try:
        alone = [fit_logistic_irls(design, row, weights=w, start=start) for row in y]
    except NumericalError:
        assume(False)
    sizes = []
    design.score = lambda r: sizes.append(len(r)) or CellDesign.score(design, r)
    stacked = fit_logistic_irls(design, y, weights=w, start=start)
    want = np.array([f.coefficients for f in alone])
    np.testing.assert_allclose(stacked.coefficients, want, rtol=1e-12, atol=1e-14)
    assert stacked.information is None and stacked.converged
    # a row leaves the stack at the pass where its own fit converged
    iters = np.array([f.iterations for f in alone])
    assert stacked.iterations == iters.max()
    assert sizes == [int(np.sum(iters >= t)) for t in range(iters.max() + 1)]


@settings(max_examples=20, deadline=None)
@given(trials(), st.integers(1, 5))
def test_stacked_limit_map_equals_per_delta_calls(trial, m):
    ds, ec_weights = trial
    try:
        spec = build_limit_map_spec(ds, ec_weights)
    except NumericalError:
        assume(False)
    deltas = np.random.default_rng(ds.n_ec).normal(0, 0.5, (m, ds.k))
    one_by_one = np.array([limit_map_theta(spec, d) for d in deltas])
    np.testing.assert_array_equal(limit_map_theta(spec, deltas), one_by_one)
    # split into stacks of two refits
    rows = spec.design.shape[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(importlib.import_module("subharm.harmonize"), "STACK_ELEMENTS", 2 * rows + 1)
        np.testing.assert_array_equal(limit_map_theta(spec, deltas), one_by_one)


@settings(max_examples=20, deadline=None)
@given(layouts(), st.integers(2, 5), st.data())
def test_one_separating_row_stops_the_stack(layout, m, data):
    design, y, w, _ = stack_problem(layout, m)
    k = layout[0]
    cell = np.repeat(np.arange(2 * k), design.counts)  # in design order
    # every treated row responds and no control row does
    y[data.draw(st.integers(0, m - 1))] = (cell >= k).astype(float)
    with pytest.raises(SeparationDetected):
        fit_logistic_irls(design, (cell >= k).astype(float), weights=w)
    with pytest.raises(SeparationDetected):
        fit_logistic_irls(design, y, weights=w)
