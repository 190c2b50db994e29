"""The harmonization core: the penalized pull of subgroup estimates toward
agreement with the trial-only overall estimate, its closed form, selection
of the shift direction (bias-directed and variance-directed), exact
bias/variance under the stylized design, and the finite-difference
machinery for bias-directed harmonization of logistic pipelines.

Harmonizing a subgroup vector t with an overall estimate r solves

    argmin_v (v - t)' Sigma^{-1} (v - t) + lam * (pi' v - r)^2,

whose solution shifts t along Sigma pi by an amount proportional to the
discrepancy r - pi't. `lam = FULL` (infinity) enforces pi'v = r exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .data import CombinedDataset, DesignCounts
from .errors import (
    ConfigError,
    DegenerateDirection,
    InconsistentDimensions,
    InvalidDesign,
    MissingCovariance,
    NotConverged,
    SingularSigma,
)
from .estimators import EffectEstimate, _pooled_logistic_fit, marginal_effects
from .glm import (
    MODEL_BIAS_BLOCK,
    MODEL_POOLED,
    CellDesign,
    GlmFit,
    build_design,
    fit_logistic_irls,
)

FULL = float("inf")

MODE_FIXED = "fixed"
MODE_BD = "bd"
MODE_VD = "vd"


def parse_lambda(value) -> float:
    """Accept a non-negative number (or numeric string) or the literal
    "full" for infinity."""
    if isinstance(value, str):
        if value.strip().lower() == "full":
            return FULL
        try:
            value = float(value)
        except ValueError:
            raise ConfigError(
                f"lambda must be a non-negative number or 'full', got {value!r}"
            ) from None
    lam = float(value)
    if math.isnan(lam) or lam < 0:
        raise ConfigError(f"lambda must be non-negative, got {value!r}")
    return lam


@dataclass(frozen=True)
class HarmonizationConfig:
    """Shift amount and direction.

    `lam` is a non-negative float or FULL (infinity, enforcing exact
    agreement). `sigma` is the K x K positive-definite matrix defining the
    shift direction (identity when omitted), or one already checked at the
    prevalences (`_SigmaShift`); `direction` short-circuits to
    an explicit unit-prevalence-weight vector u and requires lam = FULL.
    `mode` records how sigma was chosen (fixed / bd / vd).
    """

    lam: float = FULL
    sigma: np.ndarray | None = None
    mode: str = MODE_FIXED
    direction: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in (MODE_FIXED, MODE_BD, MODE_VD):
            raise ConfigError(f"unknown harmonization mode {self.mode!r}")
        if isinstance(self.lam, str) or self.lam < 0 or math.isnan(self.lam):
            raise ConfigError("lam must be a non-negative float; use parse_lambda")
        if self.direction is not None and not math.isinf(self.lam):
            raise ConfigError("an explicit direction requires lam = FULL")


def _validate_sigma(sigma: np.ndarray, k: int) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (k, k):
        raise InconsistentDimensions(f"sigma must be {k}x{k}, got {sigma.shape}")
    if not np.allclose(sigma, sigma.T, rtol=0, atol=1e-8 * max(1.0, np.abs(sigma).max())):
        raise SingularSigma("sigma must be symmetric")
    ev = np.linalg.eigvalsh(0.5 * (sigma + sigma.T))
    if ev[0] <= 1e-10 * max(ev[-1], np.finfo(float).tiny):
        raise SingularSigma(
            f"sigma is numerically singular (eigenvalues {ev[0]:.3g}..{ev[-1]:.3g})")
    return 0.5 * (sigma + sigma.T)


class _SigmaShift:
    """The shift one positive-definite Sigma defines at prevalences pi.

    With Sigma pi and c = 1 / (pi' Sigma pi), harmonizing with strength lam
    moves t by (r - pi't) u(lam), where u(lam) = s Sigma pi and s = c lam /
    (lam + c), or s = c at lam = FULL. Building one checks Sigma; passed as
    a config's `sigma`, it serves every lam and call at the same pi without
    checking Sigma again.
    """

    def __init__(self, sigma, prevalences: np.ndarray):
        self.sigma = _validate_sigma(sigma, prevalences.shape[0])
        self.pi = prevalences
        self.sp = self.sigma @ prevalences
        self.c = 1.0 / float(prevalences @ self.sp)

    def u(self, lam: float) -> np.ndarray:
        s = self.c if math.isinf(lam) else self.c * lam / (lam + self.c)
        return s * self.sp


def _shift(cfg: HarmonizationConfig, prevalences: np.ndarray,
           initial: EffectEstimate | None = None) -> np.ndarray:
    """The shift vector u of `cfg`: harmonizing moves t by (r - pi't) u.
    A vd config without a sigma takes the covariance of `initial`."""
    k = prevalences.shape[0]
    if cfg.direction is not None:
        u = np.asarray(cfg.direction, dtype=float)
        if u.shape != (k,):
            raise InconsistentDimensions("direction length differs from K")
        if abs(prevalences @ u - 1.0) > 1e-10:
            raise ConfigError("direction must satisfy pi'u = 1 within 1e-10")
        return u
    if cfg.sigma is not None:
        sigma = cfg.sigma
    elif cfg.mode == MODE_VD:
        if initial is None:
            raise MissingCovariance("a vd config without a sigma needs the initial estimate")
        sigma = vd_sigma(initial)
    elif cfg.mode == MODE_FIXED:
        sigma = np.eye(k)
    else:
        raise ConfigError(
            "bd mode requires a precomputed sigma or direction "
            "(see bd_direction_linear / bd_direction_glm)")
    if not (isinstance(sigma, _SigmaShift) and np.array_equal(sigma.pi, prevalences)):
        sigma = _SigmaShift(sigma, prevalences)
    return sigma.u(cfg.lam)


def harmonize(initial: EffectEstimate, overall, prevalences,
              cfg: HarmonizationConfig,
              joint_cov: np.ndarray | None = None) -> EffectEstimate:
    """Shift the initial subgroup estimates toward agreement between their
    prevalence-weighted average and the overall estimate.

    With finite lam the output is t + c*lam/(lam+c) * (r - pi't) * Sigma pi
    where c = 1/(pi' Sigma pi); with lam = FULL the weighted average matches
    r exactly. When `joint_cov` (the (K+1) x (K+1) covariance of the
    stacked initial and overall estimates) is supplied, the output carries
    the induced covariance P S P'.
    """
    theta = np.asarray(initial.require_subgroups(), dtype=float)
    r = overall.require_overall() if isinstance(overall, EffectEstimate) else float(overall)
    pi = np.asarray(prevalences, dtype=float)
    k = theta.shape[0]
    if pi.shape != (k,):
        raise InconsistentDimensions(
            f"prevalences have length {pi.shape}, expected ({k},)")
    u = _shift(cfg, pi, initial)
    out = theta + (r - pi @ theta) * u
    cov = None
    if joint_cov is not None:
        s = np.asarray(joint_cov, dtype=float)
        if s.shape != (k + 1, k + 1):
            raise InconsistentDimensions("joint covariance must be (K+1) x (K+1)")
        p = np.empty((k, k + 1))
        p[:, :k] = np.eye(k) - np.outer(u, pi)
        p[:, k] = u
        cov = p @ s @ p.T
        cov = 0.5 * (cov + cov.T)
    return EffectEstimate(theta_k=out, theta_overall=r, covariance=cov,
                          method=f"harmonized[{initial.method}]",
                          uses_ec=initial.uses_ec)


def harmonize_objective_oracle(theta, overall: float, prevalences, sigma,
                               lam: float) -> np.ndarray:
    """Independent check: minimize the penalized objective directly by
    solving its stationarity condition. Finite lam only; intended for
    tests and diagnostics, not production use."""
    theta = np.asarray(theta, dtype=float)
    pi = np.asarray(prevalences, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if math.isinf(lam):
        raise ConfigError("oracle handles finite lam only")
    sigma_inv = np.linalg.inv(sigma)
    lhs = sigma_inv + lam * np.outer(pi, pi)
    rhs = sigma_inv @ theta + lam * float(overall) * pi
    return np.linalg.solve(lhs, rhs)


# --- bias-directed selection -------------------------------------------------

@dataclass(frozen=True)
class BiasModel:
    """Sensitivity of the initial estimator to the external distortion
    vector: the asymptotic estimate moves by approximately B @ distortion.
    `b = B @ 1` is the response to a systematic (constant) distortion;
    `distortion_scale` records whether the distortion lives on the mean
    ("mean") or logit ("logit") scale."""

    B: np.ndarray
    b: np.ndarray
    distortion_scale: str

    def direction(self, prevalences) -> np.ndarray:
        pi = np.asarray(prevalences, dtype=float)
        denom = float(pi @ self.b)
        scale = max(1.0, float(np.abs(self.b).max()))
        if abs(denom) <= 1e-10 * scale:
            raise DegenerateDirection(
                "prevalence-weighted systematic bias is zero; no positive-definite "
                "matrix can align the shift with the bias direction")
        return self.b / denom


def bd_direction_linear(ds: CombinedDataset, prevalences=None
                        ) -> tuple[BiasModel, np.ndarray]:
    """Bias sensitivity of the pooled least-squares subgroup effects,
    computed from the design matrices alone (no outcomes), and the
    resulting unit shift direction."""
    from .data import compute_design_counts

    m1 = build_design(ds, MODEL_POOLED).values
    m2 = build_design(ds, MODEL_BIAS_BLOCK).values
    k = ds.k
    coef = np.linalg.solve(m1.T @ m1, m1.T @ m2)
    big_b = coef[k:2 * k, :]
    b = big_b @ np.ones(k)
    pi = (np.asarray(prevalences, dtype=float) if prevalences is not None
          else compute_design_counts(ds).pi)
    model = BiasModel(B=big_b, b=b, distortion_scale="mean")
    return model, model.direction(pi)


def bd_direction_diff_means(dc: DesignCounts) -> np.ndarray:
    """Unit shift direction for the pooled difference-of-means estimator,
    whose systematic-bias response is proportional to the per-subgroup
    external control fractions."""
    b = dc.q_ratio
    denom = float(dc.pi @ b)
    if denom <= 1e-10 * max(1.0, float(b.max(initial=0.0))):
        raise DegenerateDirection("no external controls; bias direction undefined")
    return b / denom


def solve_sigma_from_b(b, prevalences) -> np.ndarray:
    """A positive-definite matrix whose product with the prevalences is
    proportional to b. Same-sign b uses the diagonal construction
    diag(|b_k| / pi_k); mixed signs use a rank-one-plus-projection form."""
    b = np.asarray(b, dtype=float)
    pi = np.asarray(prevalences, dtype=float)
    denom = float(pi @ b)
    if abs(denom) <= 1e-10 * max(1.0, float(np.abs(b).max())):
        raise DegenerateDirection("pi'b = 0; no positive-definite solution exists")
    if np.all(b > 0) or np.all(b < 0):
        return np.diag(np.abs(b) / pi)
    v = b * np.sign(denom)
    vp = float(v @ pi)
    tau = float(v @ v) / vp
    sigma = np.outer(v, v) / vp + tau * (np.eye(len(b)) - np.outer(pi, pi) / float(pi @ pi))
    ev = np.linalg.eigvalsh(sigma)
    if ev[0] <= 0:
        raise DegenerateDirection("construction failed to produce a PD matrix")
    return sigma


# --- limit map for logistic pipelines ----------------------------------------

@dataclass(frozen=True)
class LimitMapSpec:
    """Frozen ingredients for evaluating where the (weighted) pooled
    logistic estimator settles when external outcomes carry a logit-scale
    distortion.

    The map maximizes an expected weighted log-likelihood over a pseudo
    dataset: each RCT patient contributes both treatment assignments
    weighted by the empirical assignment ratio, with expected responses
    from the trial-only anchor fit; each EC patient contributes its
    analysis weight with expected response from the anchor shifted by the
    subgroup's distortion. `design` holds the pseudo rows (control copies,
    treated copies, EC rows) in the pooled cell layout, and `weights` follow
    its row order.
    """

    anchor: np.ndarray
    design: CellDesign
    weights: np.ndarray
    response_rct: np.ndarray
    lp_ec_base: np.ndarray
    w_ec: np.ndarray
    w_rct: np.ndarray
    x_rct: np.ndarray
    k: int
    pi: np.ndarray

    def __post_init__(self):
        for a in (self.anchor, self.weights, self.response_rct,
                  self.lp_ec_base, self.w_ec, self.w_rct, self.x_rct, self.pi):
            a.setflags(write=False)


def build_limit_map_spec(ds: CombinedDataset,
                         ec_weight_vector: np.ndarray | None = None,
                         prevalences=None, anchor: GlmFit | None = None) -> LimitMapSpec:
    """Anchor the limit map at the trial-only logistic fit of `ds`, or at
    `anchor`, that fit already made."""
    from .data import compute_design_counts

    fit = _pooled_logistic_fit(ds, None, rct_only=True) if anchor is None else anchor
    k, d = ds.k, ds.d
    nu, eta, beta = fit.coefficients[:k], fit.coefficients[k:2 * k], fit.coefficients[2 * k:]
    p_treat = float((ds.t_rct == 1).mean())
    xb_r = ds.x_rct @ beta if d else np.zeros(ds.n_rct)
    design = CellDesign(np.concatenate([ds.w_rct, ds.w_rct + k, ds.w_ec]),
                        np.concatenate([ds.x_rct, ds.x_rct, ds.x_ec]), k)
    response_rct = np.concatenate([
        expit(nu[ds.w_rct] + xb_r),
        expit(nu[ds.w_rct] + eta[ds.w_rct] + xb_r),
    ])
    w_ec_vec = np.ones(ds.n_ec) if ec_weight_vector is None else np.asarray(ec_weight_vector, float)
    weights = np.concatenate([
        np.full(ds.n_rct, 1.0 - p_treat),
        np.full(ds.n_rct, p_treat),
        w_ec_vec,
    ])[design.order]
    lp_ec_base = nu[ds.w_ec] + (ds.x_ec @ beta if d else 0.0)
    pi = (np.asarray(prevalences, dtype=float) if prevalences is not None
          else compute_design_counts(ds).pi)
    return LimitMapSpec(
        anchor=fit.coefficients.copy(), design=design, weights=weights,
        response_rct=response_rct, lp_ec_base=np.asarray(lp_ec_base, float),
        w_ec=ds.w_ec.copy(), w_rct=ds.w_rct.copy(), x_rct=ds.x_rct.copy(),
        k=k, pi=pi,
    )


def limit_map_theta(spec: LimitMapSpec, delta) -> np.ndarray:
    """Marginalized subgroup effects at the maximizer of the expected
    weighted working-model log-likelihood under distortion `delta`."""
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (spec.k,):
        raise InconsistentDimensions(f"delta must have length {spec.k}")
    y = np.concatenate([spec.response_rct,
                        expit(spec.lp_ec_base + delta[spec.w_ec])])[spec.design.order]
    fit = fit_logistic_irls(spec.design, y, weights=spec.weights,
                            start=spec.anchor, tol=1e-10, max_iter=200)
    if not fit.converged:
        raise NotConverged("limit map fit did not converge")
    k = spec.k
    coef = fit.coefficients
    return marginal_effects(spec.w_rct, spec.x_rct, coef[:k], coef[k:2 * k], coef[2 * k:])


def bd_direction_glm(spec: LimitMapSpec, fd_step: float = 1e-4
                     ) -> tuple[BiasModel, np.ndarray]:
    """Estimate the distortion sensitivity by central finite differences of
    the limit map at zero distortion, and derive the unit shift direction."""
    k = spec.k
    big_b = np.empty((k, k))
    for j in range(k):
        e = np.zeros(k)
        e[j] = fd_step
        big_b[:, j] = (limit_map_theta(spec, e) - limit_map_theta(spec, -e)) / (2 * fd_step)
    b = big_b @ np.ones(k)
    model = BiasModel(B=big_b, b=b, distortion_scale="logit")
    return model, model.direction(spec.pi)


# --- exact operating characteristics under the stylized design ---------------

def analytic_bias_variance(dc: DesignCounts, gamma, sigma, lam: float,
                           phi2: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact bias vector and covariance of the harmonized difference-of-
    means estimator under the proportional stratified design with outcome
    variance phi2 and external mean distortions gamma."""
    return _bias_variance(dc, gamma, _SigmaShift(sigma, dc.pi).u(lam), phi2)


def _bias_variance(dc: DesignCounts, gamma, u, phi2: float
                        ) -> tuple[np.ndarray, np.ndarray]:
    """`analytic_bias_variance` for a resolved shift vector u (harmonizing
    moves t by (r - pi't) u)."""
    k = dc.k
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (k,):
        raise InconsistentDimensions(f"gamma must have length {k}")
    nr1 = int(dc.counts[:, 1, 0].sum())
    nr0 = int(dc.counts[:, 0, 0].sum())
    if nr1 == 0 or nr0 == 0 or phi2 < 0:
        raise InvalidDesign("both RCT arms must be non-empty and phi2 >= 0")
    pi = dc.pi
    q = dc.q_ratio
    bias = -(np.diag(q) @ gamma - u * float(pi @ (q * gamma)))
    # first term: the initial pooled estimator's own covariance
    d_diag = phi2 * (1.0 / nr1 + (1.0 - q) / nr0) / pi
    var = np.diag(d_diag) + dc.q_bar * (phi2 / nr0) * np.outer(u, u)
    return bias, var


def mse_difference(dc: DesignCounts, gamma, phi2: float) -> np.ndarray:
    """Per-subgroup MSE(pooled) - MSE(fully harmonized, bias-directed).

    The squared-bias term is q_k^2 [gamma_k^2 - (gamma_k - gbar)^2]: the
    pooled estimator carries the full distortion while harmonization keeps
    only its deviation from the weighted mean gbar. The variance term is
    the harmonization premium q_k^2 phi^2 / (n_r0 * sum(pi q)).
    """
    k = dc.k
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (k,):
        raise InconsistentDimensions(f"gamma must have length {k}")
    nr0 = int(dc.counts[:, 0, 0].sum())
    piq = float(dc.pi @ dc.q_ratio)
    if nr0 == 0 or piq <= 0:
        raise InvalidDesign("needs RCT controls and at least some external controls")
    gbar = float(dc.pi @ (dc.q_ratio * gamma)) / piq
    q = dc.q_ratio
    return q ** 2 * (gamma ** 2 - (gamma - gbar) ** 2) - q ** 2 * phi2 / (nr0 * piq)


def vd_sigma(initial: EffectEstimate) -> np.ndarray:
    """The initial estimator's covariance, eigenvalue-floored for
    positive-definiteness."""
    if initial.covariance is None:
        raise MissingCovariance(
            "variance-directed harmonization needs the initial estimate's covariance")
    cov = np.asarray(initial.covariance, dtype=float)
    cov = 0.5 * (cov + cov.T)
    k = cov.shape[0]
    floor = 1e-10 * max(np.trace(cov), 0.0) / k
    ev, vec = np.linalg.eigh(cov)
    if ev[0] < floor:
        cov = (vec * np.maximum(ev, floor)) @ vec.T
        cov = 0.5 * (cov + cov.T)
    return cov
