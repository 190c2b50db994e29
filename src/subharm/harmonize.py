"""The harmonization core: the penalized pull of subgroup estimates toward
agreement with the trial-only overall estimate, its closed form, selection
of the shift direction (bias-directed and variance-directed), the exact
covariance of the harmonized difference-of-means estimate on any design
and its bias under the stylized one, and the finite-difference
machinery for bias-directed harmonization of logistic pipelines. Each of
the limit map's 2K refits starts at its first-order (implicit-function)
prediction and is refined by chord steps with the anchor's information,
inverted once; the refits run in passes of at most `STACK_ELEMENTS`
response elements, and one the chord steps do not converge is refit by
IRLS (`limit_map_theta`).

Harmonizing a subgroup vector t with an overall estimate r solves

    argmin_v (v - t)' Sigma^{-1} (v - t) + lam * (pi' v - r)^2,

whose solution is v = t + (r - pi't) u for the shift vector u, a multiple
of Sigma pi. `lam = FULL` (infinity) enforces pi'v = r exactly.
`shift_vector` computes u from Sigma and lam, the `bd_direction_*`
functions give u at full bias-directed harmonization, and `harmonize`
applies a u. Which Sigma a sigma mode (fixed, bd, vd) stands for is decided
by the caller; `simulate`, `resample` and `estimate` resolve it in
`sim._ReplicateContext`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .data import CombinedDataset, DesignCounts, compute_design_counts
from .errors import (
    ConfigError,
    DegenerateDirection,
    InconsistentDimensions,
    InvalidDesign,
    MissingCovariance,
    NumericalError,
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
# The most response elements (refits x pseudo-rows) in one chord pass of
# the limit map: fig5's 10 refits (1,800 pseudo-rows) share one pass, and
# an 18,000-row design takes its 16 refits 3 at a time. Measured on a
# 2-vCPU Xeon, one pass of all 16 raised the peak RSS of the benchmark's
# `estimate` call from 113 to 115 MB.
STACK_ELEMENTS = 1 << 16
# Chord steps per refit: at least MIN_CHORD_STEPS, since one step from the
# prediction leaves an O(fd_step^2)-relative error that the finite
# difference divides by fd_step; a refit not converged after
# MAX_CHORD_STEPS is refit by IRLS.
MIN_CHORD_STEPS, MAX_CHORD_STEPS = 2, 8
LIMIT_MAP_TOL = 1e-10  # IRLS's score test, for the chord steps too


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
    (lam + c), or s = c at lam = FULL. Building one checks Sigma; passed to
    `shift_vector` as its `sigma`, it serves every lam and call at the same
    pi without checking Sigma again.
    """

    def __init__(self, sigma, prevalences: np.ndarray):
        self.sigma = _validate_sigma(sigma, prevalences.shape[0])
        self.pi = prevalences
        self.sp = self.sigma @ prevalences
        self.c = 1.0 / float(prevalences @ self.sp)

    def u(self, lam: float) -> np.ndarray:
        s = self.c if math.isinf(lam) else self.c * (lam / (lam + self.c))
        return s * self.sp


def shift_vector(prevalences, sigma=None, lam: float = FULL) -> np.ndarray:
    """The shift vector u of harmonizing with strength `lam` along the
    positive-definite `sigma` (identity when omitted) at prevalences pi:
    u = s Sigma pi with s = c lam / (lam + c), or s = c at lam = FULL, where
    c = 1 / (pi' Sigma pi). `sigma` may be a `_SigmaShift` already checked
    at these prevalences. pi'u = lam / (lam + c), which is 1 at FULL.
    """
    pi = np.asarray(prevalences, dtype=float)
    if isinstance(lam, str) or lam < 0 or math.isnan(lam):
        raise ConfigError("lam must be a non-negative float; use parse_lambda")
    if not (isinstance(sigma, _SigmaShift) and np.array_equal(sigma.pi, pi)):
        sigma = _SigmaShift(np.eye(pi.shape[0]) if sigma is None else sigma, pi)
    return sigma.u(lam)


def harmonize(initial: EffectEstimate, overall: float, prevalences, u) -> EffectEstimate:
    """Shift the initial subgroup estimates t along the shift vector u
    toward agreement between their prevalence-weighted average and the
    overall estimate r: v = t + (r - pi't) u.

    u comes from `shift_vector` (pi'u = 1 at full harmonization, so pi'v =
    r exactly) or is a bias direction with pi'u = 1 (`bd_direction_*`). A u
    that is not a finite K-vector is rejected, and so is one with pi'u
    outside [0, 1], which no positive-definite Sigma and lam >= 0 gives.
    """
    theta = np.asarray(initial.theta_k, dtype=float)
    pi = np.asarray(prevalences, dtype=float)
    k = theta.shape[0]
    if pi.shape != (k,):
        raise InconsistentDimensions(
            f"prevalences have length {pi.shape}, expected ({k},)")
    u = np.asarray(u, dtype=float)
    if u.shape != (k,):
        raise InconsistentDimensions(f"shift vector has shape {u.shape}, expected ({k},)")
    share = float(pi @ u)  # not finite when an entry of u is not
    if not math.isfinite(share):
        raise NumericalError("shift vector is not finite")
    if not -1e-10 <= share <= 1.0 + 1e-10:
        raise ConfigError(f"shift vector needs pi'u in [0, 1], got {share:.6g}")
    return EffectEstimate(theta + (float(overall) - pi @ theta) * u)


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
    `b = B @ 1` is the response to a systematic (constant) distortion."""

    B: np.ndarray
    b: np.ndarray

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
    m1 = build_design(ds, MODEL_POOLED).values
    m2 = build_design(ds, MODEL_BIAS_BLOCK).values
    k = ds.k
    coef = np.linalg.solve(m1.T @ m1, m1.T @ m2)
    big_b = coef[k:2 * k, :]
    b = big_b @ np.ones(k)
    pi = (np.asarray(prevalences, dtype=float) if prevalences is not None
          else compute_design_counts(ds).pi)
    model = BiasModel(B=big_b, b=b)
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
    treated copies, EC rows) in the pooled cell layout; `weights` and the
    undistorted `response` follow its row order, and `ec_rows` are the EC
    rows' positions in it.
    """

    anchor: np.ndarray
    design: CellDesign
    weights: np.ndarray
    response: np.ndarray
    ec_rows: np.ndarray
    lp_ec_base: np.ndarray
    w_ec: np.ndarray
    w_rct: np.ndarray
    x_rct: np.ndarray
    k: int
    pi: np.ndarray

    def __post_init__(self):
        for a in (self.anchor, self.weights, self.response, self.ec_rows,
                  self.lp_ec_base, self.w_ec, self.w_rct, self.x_rct, self.pi):
            a.setflags(write=False)


def build_limit_map_spec(ds: CombinedDataset,
                         ec_weight_vector: np.ndarray | None = None,
                         prevalences=None, anchor: GlmFit | None = None) -> LimitMapSpec:
    """Anchor the limit map at the trial-only logistic fit of `ds`, or at
    `anchor`, that fit already made."""
    fit = _pooled_logistic_fit(ds, None, rct_only=True) if anchor is None else anchor
    k, d = ds.k, ds.d
    nu, eta, beta = fit.coefficients[:k], fit.coefficients[k:2 * k], fit.coefficients[2 * k:]
    p_treat = float((ds.t_rct == 1).mean())
    xb_r = ds.x_rct @ beta if d else np.zeros(ds.n_rct)
    design = CellDesign(np.concatenate([ds.w_rct, ds.w_rct + k, ds.w_ec]),
                        np.concatenate([ds.x_rct, ds.x_rct, ds.x_ec]), k)
    lp_ec_base = np.asarray(nu[ds.w_ec] + (ds.x_ec @ beta if d else 0.0), float)
    response = np.concatenate([
        expit(nu[ds.w_rct] + xb_r),
        expit(nu[ds.w_rct] + eta[ds.w_rct] + xb_r),
        expit(lp_ec_base),
    ])[design.order]
    w_ec_vec = np.ones(ds.n_ec) if ec_weight_vector is None else np.asarray(ec_weight_vector, float)
    weights = np.concatenate([
        np.full(ds.n_rct, 1.0 - p_treat),
        np.full(ds.n_rct, p_treat),
        w_ec_vec,
    ])[design.order]
    pi = (np.asarray(prevalences, dtype=float) if prevalences is not None
          else compute_design_counts(ds).pi)
    return LimitMapSpec(
        anchor=fit.coefficients.copy(), design=design, weights=weights,
        response=response, ec_rows=np.argsort(design.order)[2 * ds.n_rct:],
        lp_ec_base=lp_ec_base, w_ec=ds.w_ec.copy(), w_rct=ds.w_rct.copy(),
        x_rct=ds.x_rct.copy(), k=k, pi=pi,
    )


def _marginalize(spec: LimitMapSpec, coef: np.ndarray) -> np.ndarray:
    k = spec.k
    return marginal_effects(spec.w_rct, spec.x_rct, coef[..., :k], coef[..., k:2 * k],
                            coef[..., 2 * k:])


def limit_map_theta(spec: LimitMapSpec, delta) -> np.ndarray:
    """Marginalized subgroup effects at the maximizer of the expected
    weighted working-model log-likelihood under the distortion K-vector
    `delta`, fitted by IRLS from the anchor."""
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (spec.k,):
        raise InconsistentDimensions(f"delta must have length {spec.k}")
    y = spec.response.copy()
    y[spec.ec_rows] = expit(spec.lp_ec_base + delta[spec.w_ec])
    coef = fit_logistic_irls(spec.design, y, weights=spec.weights, start=spec.anchor,
                             tol=LIMIT_MAP_TOL, max_iter=200).coefficients
    return _marginalize(spec, coef)


def _implicit_jacobian(spec: LimitMapSpec) -> tuple[np.ndarray, np.ndarray]:
    """The inverse of the information H at the anchor, and J = H^-1 S,
    whose column j is the move of the limit map's maximizer per unit of
    delta_j at zero distortion (implicit function theorem). S_j, the
    score's derivative in delta_j, is the score of w p(1-p) on subgroup
    j's EC rows. Raises LinAlgError when H is singular."""
    p = spec.response
    v = spec.weights * p * (1.0 - p)
    h_inv = np.linalg.inv(spec.design.information(v))
    masked = np.zeros((spec.k, len(p)))
    masked[spec.w_ec, spec.ec_rows] = v[spec.ec_rows]
    return h_inv, h_inv @ spec.design.score(masked).T


def _fd_sensitivity(spec: LimitMapSpec, fd_step: float) -> np.ndarray:
    """The distortion sensitivity B by central finite differences of the
    limit map at zero distortion.

    The refit at +/- fd_step e_j starts at its first-order prediction
    anchor +/- fd_step J_j and takes chord steps coef += H^-1 score, with
    the one H^-1 of `_implicit_jacobian`, in passes of at most
    `STACK_ELEMENTS` response elements. A refit the chord steps do not
    converge is refit by `limit_map_theta`.
    """
    k, design, w, p = spec.k, spec.design, spec.weights, spec.response
    e = np.eye(k) * fd_step
    deltas = np.vstack([e, -e])
    coef = np.full((2 * k, design.shape[1]), np.nan)
    size = max(1, STACK_ELEMENTS // len(p))
    try:
        h_inv, jac = _implicit_jacobian(spec)
        passes = np.split(np.arange(2 * k), range(size, 2 * k, size))
    except np.linalg.LinAlgError:  # every refit takes the fallback
        passes = []
    groups = [np.flatnonzero(spec.w_ec == j) for j in range(k)]
    for refits in passes:
        subgroup = refits % k
        delta = deltas[refits, subgroup]
        y = np.tile(p, (len(refits), 1))
        for row, j, d in zip(y, subgroup, delta):
            row[spec.ec_rows[groups[j]]] = expit(spec.lp_ec_base[groups[j]] + d)
        c = spec.anchor + delta[:, None] * jac[:, subgroup].T
        for it in range(MAX_CHORD_STEPS + 1):
            score = design.score(w * (y - expit(design.linear_predictor(c))))
            done = np.abs(score).max(axis=1) < LIMIT_MAP_TOL
            if it == MAX_CHORD_STEPS or it >= MIN_CHORD_STEPS and done.all():
                break
            c = c + score @ h_inv
        if it >= MIN_CHORD_STEPS:
            coef[refits[done]] = c[done]
    theta = _marginalize(spec, coef)
    for i in np.flatnonzero(np.isnan(coef).any(axis=1)):
        theta[i] = limit_map_theta(spec, deltas[i])
    return (theta[:k] - theta[k:]).T / (2 * fd_step)


def bd_direction_glm(spec: LimitMapSpec, fd_step: float = 1e-4
                     ) -> tuple[BiasModel, np.ndarray]:
    """Estimate the distortion sensitivity by central finite differences of
    the limit map at zero distortion (`_fd_sensitivity`), and derive the
    unit shift direction."""
    big_b = _fd_sensitivity(spec, fd_step)
    model = BiasModel(B=big_b, b=big_b @ np.ones(spec.k))
    return model, model.direction(spec.pi)


# --- exact operating characteristics of the difference-of-means pipeline ----

def analytic_bias_variance(dc: DesignCounts, gamma, sigma, lam: float,
                           phi2: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact bias vector and covariance of the difference-of-means estimator
    harmonized with strength lam along sigma (the identity when None), that
    is with the shift vector `shift_vector(dc.pi, sigma, lam)`, with outcome
    variance phi2 and external mean distortions gamma. The covariance holds
    on any design, the bias on the proportional stratified design."""
    return _bias_variance(dc, gamma, shift_vector(dc.pi, sigma, lam), phi2)


def _bias_variance(dc: DesignCounts, gamma, u, phi2: float
                        ) -> tuple[np.ndarray, np.ndarray]:
    """`analytic_bias_variance` for a resolved shift vector u (harmonizing
    moves t by (r - pi't) u).

    The covariance holds on any design: the harmonized estimate is linear
    in the independent treated, control and EC cell means, v = A1'm1 +
    A0'm0 + Ae'me, with b = ne / (n0 + ne) (`dc.q_ratio`) and a = 1 - b,

        A1 = I + (n1 / n_r1 - pi) u',  A0 = -diag(a) - (n0 / n_r0 - pi a) u',
        Ae = -diag(b) + (pi b) u',

    so Cov v = sum_s As' diag(phi2 / ns) As, where an empty cell drops out.
    With As = diag(gs) + cs u' and ws = phi2 / ns, that sum is diag(d) +
    e u' + u e' + f u u' for d = sum_s gs^2 ws, e = sum_s gs ws cs and f =
    sum_s cs' diag(ws) cs. The bias assumes the proportional stratified
    design.
    """
    k = dc.k
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (k,):
        raise InconsistentDimensions(f"gamma must have length {k}")
    n1, n0, ne = (dc.counts[:, t, s].astype(float) for t, s in ((1, 0), (0, 0), (0, 1)))
    nr1, nr0 = n1.sum(), n0.sum()
    if nr1 == 0 or nr0 == 0 or phi2 < 0:
        raise InvalidDesign("both RCT arms must be non-empty and phi2 >= 0")
    pi = dc.pi
    q = dc.q_ratio
    bias = -(np.diag(q) @ gamma - u * float(pi @ (q * gamma)))
    a = 1.0 - q
    g = (1.0, -a, -q)
    c = (n1 / nr1 - pi, pi * a - n0 / nr0, pi * q)
    w = [phi2 / np.where(n > 0, n, np.inf) for n in (n1, n0, ne)]
    e = sum(gs * ws * cs for gs, ws, cs in zip(g, w, c))
    f = sum(float(ws @ (cs * cs)) for ws, cs in zip(w, c))
    var = (np.diag(sum(gs * gs * ws for gs, ws in zip(g, w)))
           + np.outer(e, u) + np.outer(u, e) + f * np.outer(u, u))
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
