"""Estimators feeding harmonization: the RCT-only overall effect, pooled and
weighted subgroup effects, and reference estimators (RCT-only subgroup,
oracle, difference of means).

All estimators are pure functions of the dataset and are invariant to row
permutation. The overall estimators return the effect as a float. The
propensity-weighted estimate `weighted_logistic_effects` takes the EC
records' weights (`ec_weights(fit_propensity(ds))`), so a caller that also
reads them, as the IPW limit map does, fits the propensity model once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .data import BINARY, CONTROL, EC_CONTROL, TREATED, CellStats, CombinedDataset, SubgroupRows
from .errors import EmptyArm, EmptySubgroupArm
from .glm import (
    MODEL_OVERALL,
    MODEL_POOLED,
    MODEL_PROPENSITY,
    MODEL_RCT_SUBGROUP,
    OVERALL_TREATMENT,
    GlmFit,
    build_design,
    expit,
    fit_logistic_irls,
    fit_ols,
)

DIFF_MEANS = "diff_means"
OLS = "ols"


class EffectEstimate:
    """A subgroup-effect vector and, when known, its K x K covariance, which
    may be given as a function that the first read of `covariance` calls."""

    def __init__(self, theta_k: np.ndarray, covariance=None):
        self.theta_k, self._covariance = theta_k, covariance

    @property
    def covariance(self) -> np.ndarray | None:
        if callable(self._covariance):
            self._covariance = self._covariance()
        return self._covariance


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
    return int(bad.argmax()) + 1 if bad.any() else None


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

def _ols_fit(ds: CombinedDataset, model: str) -> GlmFit:
    """The least-squares fit of the outcomes on `model`'s design."""
    design = build_design(ds, model)
    return fit_ols(design, np.concatenate([ds.y_rct, ds.y_ec])[design.order])


def ols_subgroup_effects(ds: CombinedDataset) -> EffectEstimate:
    """Subgroup effects from the pooled least-squares model, with the
    covariance block of the treatment-effect coefficients when the
    dispersion is positive, the information then X'X / dispersion."""
    fit = _ols_fit(ds, MODEL_POOLED)
    theta = slice(ds.k, 2 * ds.k)
    cov = np.linalg.inv(fit.information)[theta, theta] if fit.dispersion > 0 else None
    return EffectEstimate(fit.coefficients[theta], cov)


def ols_overall_effect(ds: CombinedDataset) -> float:
    """Overall effect from the RCT-only least-squares model."""
    fit = _ols_fit(ds, MODEL_OVERALL)
    return float(fit.coefficients[OVERALL_TREATMENT])


def _ols_rct_subgroups(ds: CombinedDataset) -> EffectEstimate:
    fit = _ols_fit(ds, MODEL_RCT_SUBGROUP)
    return EffectEstimate(fit.coefficients[ds.k:2 * ds.k])


def rct_only_subgroups(ds: CombinedDataset, model: str = DIFF_MEANS) -> EffectEstimate:
    """Subgroup effects from RCT rows only."""
    if model == DIFF_MEANS:
        return _diff_means_rct_subgroups(ds)
    if model == OLS:
        return _ols_rct_subgroups(ds)
    raise ValueError(f"unknown RCT-only model {model!r}")


# --- logistic marginal effects ----------------------------------------------

def _pooled_logistic_fit(ds: CombinedDataset, weights: np.ndarray | None,
                         rct_only: bool) -> GlmFit:
    """The trial-only or pooled logistic fit; `weights` on RCT then EC rows."""
    design = build_design(ds, MODEL_RCT_SUBGROUP if rct_only else MODEL_POOLED)
    y = np.concatenate([ds.y_rct, ds.y_ec])[design.order]
    return fit_logistic_irls(design, y, weights=None if weights is None else weights[design.order])


def marginal_effects(rows: SubgroupRows, x: np.ndarray, nu: np.ndarray,
                     eta: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Average the treated-vs-control response difference of the logistic
    model (nu, eta, beta) over each subgroup's `rows` of x."""
    w = rows.w
    xb = (x @ beta)[rows.order] if x.shape[1] else 0.0
    nu_w = nu[w]
    return rows.means(expit(nu_w + eta[w] + xb) - expit(nu_w + xb))


def _marginal_gradient(rows: SubgroupRows, x: np.ndarray, nu, eta, beta) -> np.ndarray:
    """Gradient of `marginal_effects(rows, x, nu, eta, beta)` against (nu,
    eta, beta)."""
    k, d = nu.shape[0], x.shape[1]
    w, order, means = rows.w, rows.order, rows.means
    xb = (x @ beta)[order] if d else 0.0
    pa, pb = expit(nu[w] + eta[w] + xb), expit(nu[w] + xb)
    ga = pa * (1 - pa)
    gdiff = ga - pb * (1 - pb)
    grad = np.zeros((k, 2 * k + d))
    j = np.arange(k)
    grad[j, j] = means(gdiff)
    grad[j, k + j] = means(ga)
    if d:
        grad[:, 2 * k:] = means(gdiff[:, None] * x[order])
    return grad


def _delta_method_covariance(ds: CombinedDataset, fit: GlmFit) -> np.ndarray | None:
    """The delta-method covariance of the marginal effects of the logistic
    `fit` of `ds`, or None when its information is singular."""
    coef = np.split(fit.coefficients, [ds.k, 2 * ds.k])
    grad = _marginal_gradient(ds.rct_subgroups, ds.x_rct, *coef)
    try:
        cov = grad @ np.linalg.solve(fit.information, grad.T)
    except np.linalg.LinAlgError:
        return None
    return 0.5 * (cov + cov.T)


def logistic_marginal_effects(ds: CombinedDataset,
                              weights: np.ndarray | None = None,
                              rct_only: bool = False,
                              fit: GlmFit | None = None) -> EffectEstimate:
    """Subgroup effects on the probability scale from a (weighted) pooled
    logistic model, with a delta-method covariance from the Fisher
    information of the fitted coefficients, computed when first read. `fit`
    is that model's fit when it was already made."""
    if fit is None:
        fit = _pooled_logistic_fit(ds, weights, rct_only)
    theta = marginal_effects(ds.rct_subgroups, ds.x_rct,
                             *np.split(fit.coefficients, [ds.k, 2 * ds.k]))
    return EffectEstimate(theta, partial(_delta_method_covariance, ds, fit))


def logistic_overall_effect(ds: CombinedDataset, fit: GlmFit | None = None) -> float:
    """Prevalence-weighted RCT-only logistic marginal effects (an overall
    estimator option for binary pipelines). `fit` is the trial-only
    logistic fit when it was already made."""
    if fit is None:
        fit = _pooled_logistic_fit(ds, None, rct_only=True)
    k, rows = ds.k, ds.rct_subgroups
    pi = rows.n / ds.n_rct
    return float(pi @ marginal_effects(rows, ds.x_rct, *np.split(fit.coefficients, [k, 2 * k])))


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
    k, design = ds.k, build_design(ds, MODEL_PROPENSITY)
    coef = fit_logistic_irls(design, (design.order < ds.n_rct).astype(float)).coefficients
    return PropensityModel(coef, coef[:k][ds.w_ec] + ds.x_ec @ coef[k:])


def ec_weights(pm: PropensityModel) -> np.ndarray:
    """Per-EC-record weights: the membership odds scaled so the maximum
    weight is exactly 1."""
    return np.exp(pm.log_odds_ec - pm.log_odds_ec.max())


def weighted_logistic_effects(ds: CombinedDataset, ec_w: np.ndarray) -> EffectEstimate:
    """Propensity-score-weighted pooled logistic subgroup effects: the RCT
    records weigh 1 and the EC records `ec_w`, their `ec_weights`."""
    return logistic_marginal_effects(ds, weights=np.concatenate([np.ones(ds.n_rct), ec_w]))
