"""Estimators feeding harmonization: the RCT-only overall effect, pooled and
weighted subgroup effects, and reference estimators (RCT-only subgroup,
oracle, difference of means).

All estimators are pure functions of the dataset and are invariant to row
permutation. The overall estimators return the effect as a float.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .data import BINARY, CONTROL, EC_CONTROL, TREATED, CellStats, CombinedDataset
from .errors import EmptyArm, EmptySubgroupArm
from .glm import (
    MODEL_OVERALL,
    MODEL_POOLED,
    MODEL_RCT_SUBGROUP,
    OVERALL_TREATMENT,
    GlmFit,
    _onehot,
    build_design,
    fit_logistic_irls,
    fit_ols,
)

DIFF_MEANS = "diff_means"
OLS = "ols"


@dataclass(frozen=True)
class EffectEstimate:
    """A subgroup-effect vector and, when known, its K x K covariance."""

    theta_k: np.ndarray
    covariance: np.ndarray | None = None


def external_estimate(theta_k, covariance=None) -> EffectEstimate:
    """Wrap a third-party subgroup estimate vector for harmonization."""
    theta_k = np.asarray(theta_k, dtype=float)
    cov = None if covariance is None else np.asarray(covariance, dtype=float)
    return EffectEstimate(theta_k, cov)


# --- difference-of-means estimators -----------------------------------------

def diff_means_overall(ds: CombinedDataset) -> float:
    """Difference between the RCT experimental and control arm means."""
    cs = ds.cell_stats
    n1, n0 = int(cs.n[:, TREATED].sum()), int(cs.n[:, CONTROL].sum())
    if n1 == 0 or n0 == 0:
        raise EmptyArm("both RCT arms must be non-empty")
    return float(cs.total[:, TREATED].sum()) / n1 - float(cs.total[:, CONTROL].sum()) / n0


def _pooled_cell_variance(cs: CellStats) -> float:
    """Within-cell outcome variance pooled over all (subgroup, arm, study)
    cells; binomial cells use p(1-p). Returns nan when no cell has dof."""
    if cs.outcome_family == BINARY:
        den = int(cs.n.sum())
        return float((cs.n * cs.mean * (1 - cs.mean)).sum()) / den if den else np.nan
    dof = int(np.maximum(cs.n - 1, 0).sum())
    return float(cs.ss.sum()) / dof if dof > 0 else np.nan


def _first_subgroup(bad: np.ndarray) -> int | None:
    """1-based label of the first flagged subgroup, or None."""
    idx = np.flatnonzero(bad)
    return int(idx[0]) + 1 if idx.size else None


def diff_means_pooled_subgroups(ds: CombinedDataset) -> EffectEstimate:
    """Per-subgroup difference between the RCT treated mean and the control
    mean pooled over RCT and EC patients."""
    cs = ds.cell_stats
    n1 = cs.n[:, TREATED]
    n0 = cs.n[:, CONTROL] + cs.n[:, EC_CONTROL]
    bad = _first_subgroup((n1 == 0) | (n0 == 0))
    if bad is not None:
        raise EmptySubgroupArm(
            f"subgroup {bad} needs a treated RCT patient and a pooled control")
    pooled_mean = (cs.total[:, CONTROL] + cs.total[:, EC_CONTROL]) / n0
    theta = cs.mean[:, TREATED] - pooled_mean
    phi2 = _pooled_cell_variance(cs)
    cov = np.diag(phi2 * (1.0 / n1 + 1.0 / n0)) if np.isfinite(phi2) else None
    return EffectEstimate(theta, cov)


def _diff_means_rct_subgroups(ds: CombinedDataset) -> EffectEstimate:
    cs = ds.cell_stats
    bad = _first_subgroup((cs.n[:, TREATED] == 0) | (cs.n[:, CONTROL] == 0))
    if bad is not None:
        raise EmptySubgroupArm(f"subgroup {bad} lacks an RCT arm")
    return EffectEstimate(cs.mean[:, TREATED] - cs.mean[:, CONTROL])


def oracle_subgroups(ds: CombinedDataset, mu_true) -> EffectEstimate:
    """Treated RCT means minus the known control levels."""
    mu_true = np.asarray(mu_true, dtype=float)
    if mu_true.shape != (ds.k,):
        raise ValueError(f"mu_true must have length {ds.k}")
    cs = ds.cell_stats
    bad = _first_subgroup(cs.n[:, TREATED] == 0)
    if bad is not None:
        raise EmptySubgroupArm(f"subgroup {bad} has no treated RCT patients")
    return EffectEstimate(cs.mean[:, TREATED] - mu_true)


# --- OLS estimators ----------------------------------------------------------

def ols_subgroup_effects(ds: CombinedDataset) -> EffectEstimate:
    """Subgroup effects from the pooled least-squares model, with the
    covariance block of the treatment-effect coefficients."""
    y = np.concatenate([ds.y_rct, ds.y_ec])
    fit = fit_ols(build_design(ds, MODEL_POOLED), y)
    theta = slice(ds.k, 2 * ds.k)
    disp = fit.dispersion if fit.dispersion and np.isfinite(fit.dispersion) else np.nan
    cov = disp * np.linalg.inv(fit.xtwx)[theta, theta]
    return EffectEstimate(fit.coefficients[theta], cov if np.all(np.isfinite(cov)) else None)


def ols_overall_effect(ds: CombinedDataset) -> float:
    """Overall effect from the RCT-only least-squares model."""
    fit = fit_ols(build_design(ds, MODEL_OVERALL), ds.y_rct)
    return float(fit.coefficients[OVERALL_TREATMENT])


def _ols_rct_subgroups(ds: CombinedDataset) -> EffectEstimate:
    fit = fit_ols(build_design(ds, MODEL_RCT_SUBGROUP), ds.y_rct)
    return EffectEstimate(fit.coefficients[ds.k:2 * ds.k])


def ols_joint_covariance(ds: CombinedDataset, dispersion: float | None = None) -> np.ndarray:
    """(K+1) x (K+1) covariance of the pooled subgroup OLS effects stacked
    with the RCT-only overall OLS effect, computed from the two design
    matrices and a common dispersion (pooled-fit estimate by default)."""
    m1 = build_design(ds, MODEL_POOLED)
    m0 = build_design(ds, MODEL_OVERALL)
    y = np.concatenate([ds.y_rct, ds.y_ec])
    if dispersion is None:
        dispersion = fit_ols(m1, y).dispersion
    a1 = np.linalg.inv(m1.values.T @ m1.values)
    a0 = np.linalg.inv(m0.values.T @ m0.values)
    idx, j = slice(ds.k, 2 * ds.k), OVERALL_TREATMENT
    var_re = dispersion * a1[idx, idx]
    var_r = dispersion * a0[j, j]
    m1_rct = m1.values[:ds.n_rct]
    cross = dispersion * (a1 @ (m1_rct.T @ m0.values) @ a0)[idx, j]
    s = np.empty((ds.k + 1, ds.k + 1))
    s[:ds.k, :ds.k] = var_re
    s[:ds.k, ds.k] = cross
    s[ds.k, :ds.k] = cross
    s[ds.k, ds.k] = var_r
    return s


def rct_only_subgroups(ds: CombinedDataset, model: str = DIFF_MEANS) -> EffectEstimate:
    """Subgroup effects from RCT rows only."""
    if model == DIFF_MEANS:
        return _diff_means_rct_subgroups(ds)
    if model == OLS:
        return _ols_rct_subgroups(ds)
    if model == "logistic":
        return logistic_marginal_effects(ds, rct_only=True)
    raise ValueError(f"unknown RCT-only model {model!r}")


# --- logistic marginal effects ----------------------------------------------

def _pooled_logistic_fit(ds: CombinedDataset, weights: np.ndarray | None,
                         rct_only: bool) -> GlmFit:
    if rct_only:
        x, y = build_design(ds, MODEL_RCT_SUBGROUP), ds.y_rct
    else:
        x, y = build_design(ds, MODEL_POOLED), np.concatenate([ds.y_rct, ds.y_ec])
    return fit_logistic_irls(x, y, weights=None if weights is None else weights[:len(y)])


def _by_subgroup(w: np.ndarray, k: int):
    """A stable row order grouping w's subgroups, and a function averaging
    an array in that order over each subgroup's rows. Summing a subgroup's
    contiguous run of rows gives the same bits as np.mean over its masked
    rows."""
    n = np.bincount(w, minlength=k)
    bad = _first_subgroup(n == 0)
    if bad is not None:
        raise EmptySubgroupArm(f"subgroup {bad} has no RCT patients")
    ends = np.cumsum(n).tolist()
    rows = [slice(a, b) for a, b in zip([0, *ends], ends)]

    def means(v: np.ndarray) -> np.ndarray:
        sums = np.array([np.add.reduce(v[r]) for r in rows])
        return sums / (n if v.ndim == 1 else n[:, None])

    return np.argsort(w, kind="stable"), means


def marginal_effects(w: np.ndarray, x: np.ndarray, nu: np.ndarray,
                     eta: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Average the treated-vs-control response difference of the logistic
    model (nu, eta, beta) over each subgroup's rows of (w, x). Stacked
    models (m rows of nu, eta and beta) give m rows of effects, each with
    the bits of its model alone."""
    order, means = _by_subgroup(w, nu.shape[-1])
    w = w[order]
    # take keeps a stack C-ordered, so each row's subgroup sums run along
    # its own contiguous values
    xb = np.matmul(x, beta[..., None])[..., 0].take(order, axis=-1) if x.shape[1] else 0.0
    nu_w = nu.take(w, axis=-1)
    return means((expit(nu_w + eta.take(w, axis=-1) + xb) - expit(nu_w + xb)).T).T


def marginalize_logistic(ds: CombinedDataset, nu: np.ndarray, eta: np.ndarray,
                         beta: np.ndarray) -> np.ndarray:
    """Average the treated-vs-control response difference over each RCT
    subgroup's covariate values."""
    return marginal_effects(ds.w_rct, ds.x_rct, nu, eta, beta)


def _marginal_gradient(ds: CombinedDataset, nu, eta, beta) -> np.ndarray:
    """Gradient of the marginalized effects against (nu, eta, beta)."""
    k, d = ds.k, ds.d
    order, means = _by_subgroup(ds.w_rct, k)
    w = ds.w_rct[order]
    xb = (ds.x_rct @ beta)[order] if d else 0.0
    pa, pb = expit(nu[w] + eta[w] + xb), expit(nu[w] + xb)
    ga = pa * (1 - pa)
    gdiff = ga - pb * (1 - pb)
    grad = np.zeros((k, 2 * k + d))
    j = np.arange(k)
    grad[j, j] = means(gdiff)
    grad[j, k + j] = means(ga)
    if d:
        grad[:, 2 * k:] = means(gdiff[:, None] * ds.x_rct[order])
    return grad


def logistic_marginal_effects(ds: CombinedDataset,
                              weights: np.ndarray | None = None,
                              rct_only: bool = False,
                              fit: GlmFit | None = None) -> EffectEstimate:
    """Subgroup effects on the probability scale from a (weighted) pooled
    logistic model, with a delta-method covariance from the Fisher
    information of the fitted coefficients. `fit` is that model's fit when
    it was already made."""
    if fit is None:
        fit = _pooled_logistic_fit(ds, weights, rct_only)
    k = ds.k
    nu, eta, beta = fit.coefficients[:k], fit.coefficients[k:2 * k], fit.coefficients[2 * k:]
    theta = marginalize_logistic(ds, nu, eta, beta)
    grad = _marginal_gradient(ds, nu, eta, beta)
    try:
        cov = grad @ np.linalg.solve(fit.information, grad.T)
        cov = 0.5 * (cov + cov.T)
    except np.linalg.LinAlgError:
        cov = None
    return EffectEstimate(theta, cov)


def logistic_overall_effect(ds: CombinedDataset, fit: GlmFit | None = None) -> float:
    """Prevalence-weighted RCT-only logistic marginal effects (an overall
    estimator option for binary pipelines). `fit` is the trial-only
    logistic fit when it was already made."""
    if fit is None:
        fit = _pooled_logistic_fit(ds, None, rct_only=True)
    k, coef = ds.k, fit.coefficients
    pi = np.bincount(ds.w_rct, minlength=k) / ds.n_rct
    return float(pi @ marginalize_logistic(ds, coef[:k], coef[k:2 * k], coef[2 * k:]))


# --- propensity weighting -----------------------------------------------------

@dataclass(frozen=True)
class PropensityModel:
    """Logistic model for trial membership given (subgroup, covariates),
    with the fitted membership log-odds of the EC records."""

    coefficients: np.ndarray
    log_odds_ec: np.ndarray = field(repr=False)


def fit_propensity(ds: CombinedDataset) -> PropensityModel:
    """Fit study membership (RCT = 1, EC = 0) on subgroup indicators plus
    raw covariates."""
    if ds.n_rct == 0 or ds.n_ec == 0:
        raise EmptyArm("propensity model needs both studies non-empty")
    x = np.column_stack([
        np.vstack([_onehot(ds.w_rct, ds.k), _onehot(ds.w_ec, ds.k)]),
        np.vstack([ds.x_rct, ds.x_ec]),
    ])
    y = np.concatenate([np.ones(ds.n_rct), np.zeros(ds.n_ec)])
    coef = fit_logistic_irls(x, y).coefficients
    return PropensityModel(coef, x[ds.n_rct:] @ coef)


def ec_weights(pm: PropensityModel) -> np.ndarray:
    """Per-EC-record weights: the membership odds scaled so the maximum
    weight is exactly 1."""
    return np.exp(pm.log_odds_ec - pm.log_odds_ec.max())


def weighted_logistic_effects(ds: CombinedDataset) -> EffectEstimate:
    """Propensity-score-weighted pooled logistic subgroup effects."""
    pm = fit_propensity(ds)
    w = np.concatenate([np.ones(ds.n_rct), ec_weights(pm)])
    return logistic_marginal_effects(ds, weights=w)
