"""The per-cell statistics pass against the masked-loop formulas it replaced.

The `masked_*` functions below are the earlier per-subgroup implementations,
kept as an independent oracle: each one recomputes its quantity from
boolean row masks. Every rewritten function must agree with
its oracle to rtol 1e-12 on generated designs, raise the same error class
with the same message where the oracle raises, and be invariant to row
order.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from subharm import (
    BINARY,
    CONTINUOUS,
    FULL,
    CombinedDataset,
    HarmonizationConfig,
    SimpleModelParams,
    analyst1_posterior,
    analyst2_posterior,
    bootstrap_interval,
    compute_design_counts,
    diff_means_overall,
    diff_means_pooled_subgroups,
    flat_prior,
    harmonize,
    oracle_subgroups,
    rct_only_interval,
)
from subharm.data import CONTROL, EC_CONTROL, TREATED, CellStats
from subharm.errors import (
    EmptyArm,
    EmptySubgroupArm,
    EmptySubgroupError,
    InsufficientData,
    SubharmError,
)
from subharm.estimators import EffectEstimate, _diff_means_rct_subgroups, _pooled_cell_variance
from subharm.rng import ROLE_BOOT_CONTROL, ROLE_BOOT_EXTERNAL, ROLE_BOOT_TREATED, stream

RTOL = 1e-12
SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# --- the masked-loop oracle ---------------------------------------------------

def masked_overall(ds):
    n1 = int((ds.t_rct == 1).sum())
    n0 = int((ds.t_rct == 0).sum())
    if n1 == 0 or n0 == 0:
        raise EmptyArm("both RCT arms must be non-empty")
    m1 = float(ds.y_rct[ds.t_rct == 1].mean())
    m0 = float(ds.y_rct[ds.t_rct == 0].mean())
    var = masked_cell_variance(ds)
    return m1 - m0, (var * (1.0 / n1 + 1.0 / n0) if np.isfinite(var) else None)


def _cells(ds):
    for y, w, t in ((ds.y_rct, ds.w_rct, ds.t_rct),
                    (ds.y_ec, ds.w_ec, np.zeros(ds.n_ec, dtype=int))):
        for k in range(ds.k):
            for arm in (0, 1):
                m = (w == k) & (t == arm)
                yield y[m]


def masked_cell_variance(ds):
    if ds.outcome_family == BINARY:
        num = den = 0.0
        for y in _cells(ds):
            if len(y):
                p = float(y.mean())
                num += len(y) * p * (1 - p)
                den += len(y)
        return num / den if den else np.nan
    rss, dof = 0.0, 0
    for y in _cells(ds):
        if len(y) > 1:
            rss += float(((y - y.mean()) ** 2).sum())
            dof += len(y) - 1
    return rss / dof if dof > 0 else np.nan


def masked_pooled(ds):
    theta, var = np.empty(ds.k), np.empty(ds.k)
    phi2 = masked_cell_variance(ds)
    for k in range(ds.k):
        m1, m0r, me = ds.rct_mask(k, 1), ds.rct_mask(k, 0), ds.w_ec == k
        n1, n0 = int(m1.sum()), int(m0r.sum()) + int(me.sum())
        if n1 == 0 or n0 == 0:
            raise EmptySubgroupArm(
                f"subgroup {k + 1} needs a treated RCT patient and a pooled control")
        theta[k] = ds.y_rct[m1].mean() - (ds.y_rct[m0r].sum() + ds.y_ec[me].sum()) / n0
        var[k] = phi2 * (1.0 / n1 + 1.0 / n0) if np.isfinite(phi2) else np.nan
    return theta, (np.diag(var) if np.all(np.isfinite(var)) else None)


def masked_rct_subgroups(ds):
    theta = np.empty(ds.k)
    for k in range(ds.k):
        m1, m0 = ds.rct_mask(k, 1), ds.rct_mask(k, 0)
        if not m1.any() or not m0.any():
            raise EmptySubgroupArm(f"subgroup {k + 1} lacks an RCT arm")
        theta[k] = ds.y_rct[m1].mean() - ds.y_rct[m0].mean()
    return theta


def masked_oracle(ds, mu_true):
    theta = np.empty(ds.k)
    for k in range(ds.k):
        m1 = ds.rct_mask(k, 1)
        if not m1.any():
            raise EmptySubgroupArm(f"subgroup {k + 1} has no treated RCT patients")
        theta[k] = ds.y_rct[m1].mean() - mu_true[k]
    return theta


def masked_rct_only(ds, alpha=0.05):
    point, var = np.empty(ds.k), np.empty(ds.k)
    for j in range(ds.k):
        m1, m0 = ds.rct_mask(j, 1), ds.rct_mask(j, 0)
        n1, n0 = int(m1.sum()), int(m0.sum())
        if n1 < 2 or n0 < 2:
            raise InsufficientData(f"subgroup {j + 1} needs at least 2 patients per RCT arm")
        y1, y0 = ds.y_rct[m1], ds.y_rct[m0]
        point[j] = y1.mean() - y0.mean()
        var[j] = y1.var(ddof=1) / n1 + y0.var(ddof=1) / n0
    half = norm.ppf(1 - alpha / 2) * np.sqrt(var)
    return point - half, point + half


def masked_params(ds):
    mu, theta, gamma = np.empty(ds.k), np.empty(ds.k), np.zeros(ds.k)
    for j in range(ds.k):
        m1, m0 = ds.rct_mask(j, 1), ds.rct_mask(j, 0)
        if not m1.any() or not m0.any():
            raise EmptySubgroupArm(f"subgroup {j + 1} needs both RCT arms for moment estimation")
        mu[j] = ds.y_rct[m0].mean()
        theta[j] = ds.y_rct[m1].mean() - mu[j]
        me = ds.w_ec == j
        if me.any():
            gamma[j] = ds.y_ec[me].mean() - mu[j]
    phi2 = masked_cell_variance(ds)
    if not np.isfinite(phi2):
        raise InsufficientData("no cell has enough observations to estimate phi2")
    return SimpleModelParams(mu, theta, gamma, phi2)


def _onehot(idx, k):
    out = np.zeros((len(idx), k))
    out[np.arange(len(idx)), idx] = 1.0
    return out


def masked_normal_equations(ds):
    """(X'X, X'y) of both analysts' designs, built row by row."""
    x1 = np.column_stack([np.ones(ds.n_rct), ds.t_rct.astype(float)])
    h_r, h_e = _onehot(ds.w_rct, ds.k), _onehot(ds.w_ec, ds.k)
    x2 = np.block([[h_r, h_r * ds.t_rct[:, None]], [h_e, np.zeros((ds.n_ec, ds.k))]])
    y2 = np.concatenate([ds.y_rct, ds.y_ec])
    return (x1.T @ x1, x1.T @ ds.y_rct), (x2.T @ x2, x2.T @ y2)


def masked_counts(ds):
    counts = np.zeros((ds.k, 2, 2), dtype=np.int64)
    np.add.at(counts, (ds.w_rct, ds.t_rct, 0), 1)
    np.add.at(counts, (ds.w_ec, np.zeros(ds.n_ec, dtype=np.int64), 1), 1)
    return counts


def masked_bootstrap(ds, dc, cfg, r, alpha, seed):
    params = masked_params(ds)
    theta, cov = masked_pooled(ds)
    observed = harmonize(EffectEstimate(theta_k=theta, covariance=cov, uses_ec=True),
                         masked_overall(ds)[0], dc.pi, cfg).theta_k
    n1 = dc.counts[:, 1, 0].astype(float)
    n0r = dc.counts[:, 0, 0].astype(float)
    ne = dc.counts[:, 0, 1].astype(float)
    sd = np.sqrt(params.phi2)
    m1 = stream(seed, 0, ROLE_BOOT_TREATED).normal(
        params.mu + params.theta, sd / np.sqrt(n1), size=(r, dc.k))
    m0 = np.where(n0r > 0, stream(seed, 0, ROLE_BOOT_CONTROL).normal(
        params.mu, sd / np.sqrt(np.maximum(n0r, 1)), size=(r, dc.k)), 0.0)
    me = np.where(ne > 0, stream(seed, 0, ROLE_BOOT_EXTERNAL).normal(
        params.mu + params.gamma, sd / np.sqrt(np.maximum(ne, 1)), size=(r, dc.k)), 0.0)
    theta_pool = m1 - (n0r * m0 + ne * me) / (n0r + ne)
    theta_r = (m1 * n1).sum(axis=1) / n1.sum() - (m0 * n0r).sum(axis=1) / n0r.sum()
    u = harmonize(EffectEstimate(theta_k=np.zeros(dc.k), uses_ec=True), 1.0, dc.pi, cfg).theta_k
    draws = theta_pool + (theta_r - theta_pool @ dc.pi)[:, None] * u[None, :]
    half = (np.quantile(draws, 1 - alpha / 2, axis=0) - np.quantile(draws, alpha / 2, axis=0)) / 2
    return observed, observed - half, observed + half


# --- generated designs ------------------------------------------------------------

@st.composite
def designs(draw, family=None, min_arm=1, max_arm=4):
    """A dataset with 1..12 subgroups, shuffled rows, 1-patient cells,
    subgroups without EC rows, and (sometimes) an emptied RCT cell."""
    k = draw(st.integers(1, 12))
    family = family or draw(st.sampled_from([CONTINUOUS, BINARY]))
    n_t = draw(st.lists(st.integers(min_arm, max_arm), min_size=k, max_size=k))
    n_c = draw(st.lists(st.integers(min_arm, max_arm), min_size=k, max_size=k))
    n_e = draw(st.lists(st.integers(0, 5), min_size=k, max_size=k))
    for j, arm in draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, 1)),
                                max_size=2)):
        (n_t if arm else n_c)[j] = 0
    w_r = np.repeat(np.arange(k), np.add(n_t, n_c))
    t_r = np.concatenate([np.r_[np.ones(a, int), np.zeros(b, int)] for a, b in zip(n_t, n_c)])
    w_e = np.repeat(np.arange(k), n_e)
    if family == BINARY:
        values = st.sampled_from([0.0, 1.0])
    else:
        values = st.floats(-50, 50, allow_nan=False, allow_infinity=False,
                           allow_subnormal=False)
    y_r = np.array(draw(st.lists(values, min_size=len(w_r), max_size=len(w_r))), float)
    y_e = np.array(draw(st.lists(values, min_size=len(w_e), max_size=len(w_e))), float)
    p_r = np.array(draw(st.permutations(range(len(w_r)))), dtype=int)
    p_e = np.array(draw(st.permutations(range(len(w_e)))), dtype=int)
    return CombinedDataset.from_arrays(
        y_rct=y_r[p_r], t_rct=t_r[p_r], w_rct=w_r[p_r], y_ec=y_e[p_e], w_ec=w_e[p_e],
        k=k, outcome_family=family)


def _scale(ds):
    return max(1.0, float(np.abs(np.r_[ds.y_rct, ds.y_ec]).max(initial=0.0)))


def _close(new, old, ds, power=1):
    np.testing.assert_allclose(new, old, rtol=RTOL, atol=RTOL * _scale(ds) ** power)


def _same_outcome(new_fn, old_fn):
    """Run both; when the oracle raises, the new code must raise the same
    class with the same message. Returns both results otherwise."""
    try:
        old = old_fn()
    except SubharmError as exc:
        with pytest.raises(type(exc)) as err:
            new_fn()
        assert str(err.value) == str(exc)
        return None
    return new_fn(), old


# --- the rewritten functions against the oracle -------------------------------------

@SETTINGS
@given(designs())
def test_cell_stats_match_masked_cells(ds):
    cs = ds.cell_stats
    assert isinstance(cs, CellStats) and ds.cell_stats is cs
    for j in range(ds.k):
        for col, y in ((TREATED, ds.y_rct[ds.rct_mask(j, 1)]),
                       (CONTROL, ds.y_rct[ds.rct_mask(j, 0)]),
                       (EC_CONTROL, ds.y_ec[ds.w_ec == j])):
            assert cs.n[j, col] == len(y)
            if len(y):
                _close(cs.mean[j, col], y.mean(), ds)
                _close(cs.ss[j, col], ((y - y.mean()) ** 2).sum(), ds, 2)
            else:
                assert cs.mean[j, col] == 0.0 and cs.ss[j, col] == 0.0


@SETTINGS
@given(designs(family=CONTINUOUS), st.sampled_from([1e5, -1e6]))
def test_sums_of_squares_survive_a_large_offset(ds, offset):
    # centred sums of squares are shift-invariant; sum(y^2) - n*mean^2
    # would lose about eps * offset^2 to cancellation
    shifted = CombinedDataset.from_arrays(
        y_rct=ds.y_rct + offset, t_rct=ds.t_rct, w_rct=ds.w_rct,
        y_ec=ds.y_ec + offset, w_ec=ds.w_ec, k=ds.k)
    np.testing.assert_allclose(shifted.cell_stats.ss, ds.cell_stats.ss, rtol=1e-6, atol=1e-5)


@SETTINGS
@given(designs())
def test_pooled_cell_variance_matches(ds):
    new, old = _pooled_cell_variance(ds.cell_stats), masked_cell_variance(ds)
    if np.isnan(old):
        assert np.isnan(new)
    else:
        _close(new, old, ds, 2)


@SETTINGS
@given(designs())
def test_diff_means_overall_matches(ds):
    out = _same_outcome(lambda: diff_means_overall(ds), lambda: masked_overall(ds))
    if out is not None:
        new, (theta, var) = out
        _close(new.theta_overall, theta, ds)
        if var is None:
            assert new.overall_variance is None
        else:
            _close(new.overall_variance, var, ds, 2)


@SETTINGS
@given(designs())
def test_pooled_subgroups_match(ds):
    out = _same_outcome(lambda: diff_means_pooled_subgroups(ds), lambda: masked_pooled(ds))
    if out is not None:
        new, (theta, cov) = out
        _close(new.theta_k, theta, ds)
        if cov is None:
            assert new.covariance is None
        else:
            _close(new.covariance, cov, ds, 2)


@SETTINGS
@given(designs(), st.floats(-5, 5))
def test_rct_and_oracle_subgroups_match(ds, level):
    out = _same_outcome(lambda: _diff_means_rct_subgroups(ds),
                        lambda: masked_rct_subgroups(ds))
    if out is not None:
        _close(out[0].theta_k, out[1], ds)
    mu_true = np.full(ds.k, level)
    out = _same_outcome(lambda: oracle_subgroups(ds, mu_true),
                        lambda: masked_oracle(ds, mu_true))
    if out is not None:
        _close(out[0].theta_k, out[1], ds)


def _check_rct_only(ds):
    out = _same_outcome(lambda: rct_only_interval(ds), lambda: masked_rct_only(ds))
    if out is not None:
        new, (lo, hi) = out
        _close(new.lower, lo, ds)
        _close(new.upper, hi, ds)


@SETTINGS
@given(designs())
def test_rct_only_interval_matches(ds):
    _check_rct_only(ds)


@SETTINGS
@given(designs(family=CONTINUOUS, min_arm=2, max_arm=5))
def test_rct_only_interval_values_match(ds):
    # arms of at least two patients, so most examples compare values
    _check_rct_only(ds)


@SETTINGS
@given(designs())
def test_model_params_match(ds):
    out = _same_outcome(lambda: SimpleModelParams.from_data(ds), lambda: masked_params(ds))
    if out is not None:
        new, old = out
        for name in ("mu", "theta", "gamma"):
            _close(getattr(new, name), getattr(old, name), ds)
        _close(new.phi2, old.phi2, ds, 2)


@SETTINGS
@given(designs(family=CONTINUOUS))
def test_posteriors_match_row_designs(ds):
    (xtx1, xty1), (xtx2, xty2) = masked_normal_equations(ds)
    for post, (xtx, xty), dim in ((analyst1_posterior(ds, 1.0, flat_prior(2)), (xtx1, xty1), 2),
                                  (analyst2_posterior(ds, 1.0, flat_prior(2 * ds.k)),
                                   (xtx2, xty2), 2 * ds.k)):
        prec = np.eye(dim) * 1e-4 + xtx
        want_cov = np.linalg.inv(prec)
        want_cov = 0.5 * (want_cov + want_cov.T)
        want_mean = want_cov @ xty
        np.testing.assert_array_equal(post.cov, want_cov)  # counts are exact
        np.testing.assert_allclose(post.mean, want_mean, rtol=RTOL,
                                   atol=RTOL * _scale(ds) * np.abs(want_cov).max() * len(xty))


@SETTINGS
@given(designs())
def test_design_counts_match(ds):
    np.testing.assert_array_equal(ds.cell_stats.n[:, TREATED], masked_counts(ds)[:, 1, 0])
    try:
        dc = compute_design_counts(ds)
    except EmptySubgroupError:
        return
    np.testing.assert_array_equal(dc.counts, masked_counts(ds))


@SETTINGS
@given(designs(family=CONTINUOUS, min_arm=2))
def test_bootstrap_matches_masked_bootstrap(ds):
    cfg = HarmonizationConfig(lam=FULL)
    try:
        dc = compute_design_counts(ds)
        old_point, old_lo, old_hi = masked_bootstrap(ds, dc, cfg, r=100, alpha=0.1, seed=4)
    except SubharmError:
        return
    iv = bootstrap_interval(ds, dc, old_point, cfg, r=100, alpha=0.1, seed=4)
    np.testing.assert_array_equal(iv.point, old_point)
    _close(iv.lower, old_lo, ds)
    _close(iv.upper, old_hi, ds)


# --- row order ----------------------------------------------------------------------

@SETTINGS
@given(designs(), st.randoms(use_true_random=False))
def test_row_permutation_invariance(ds, rnd):
    p_r = np.array(rnd.sample(range(ds.n_rct), ds.n_rct), dtype=int)
    p_e = np.array(rnd.sample(range(ds.n_ec), ds.n_ec), dtype=int)
    shuffled = CombinedDataset.from_arrays(
        y_rct=ds.y_rct[p_r], t_rct=ds.t_rct[p_r], w_rct=ds.w_rct[p_r],
        y_ec=ds.y_ec[p_e], w_ec=ds.w_ec[p_e], k=ds.k, outcome_family=ds.outcome_family)
    a, b = ds.cell_stats, shuffled.cell_stats
    np.testing.assert_array_equal(a.n, b.n)
    _close(a.mean, b.mean, ds)
    _close(a.ss, b.ss, ds, 2)
    for fn in (diff_means_pooled_subgroups, _diff_means_rct_subgroups):
        out = _same_outcome(lambda: fn(shuffled), lambda: fn(ds))
        if out is not None:
            _close(out[0].theta_k, out[1].theta_k, ds)


def test_one_mask_call_per_dataset(monkeypatch):
    from conftest import balanced_dataset

    ds = balanced_dataset(k=3, n_t=3, n_c=4, n_e=5, seed=2)
    calls = []
    original = CombinedDataset.rct_mask
    monkeypatch.setattr(CombinedDataset, "rct_mask",
                        lambda self, *a, **kw: calls.append(1) or original(self, *a, **kw))
    diff_means_overall(ds)
    diff_means_pooled_subgroups(ds)
    rct_only_interval(ds)
    SimpleModelParams.from_data(ds)
    analyst2_posterior(ds, 1.0)
    compute_design_counts(ds)
    assert len(calls) == 1
