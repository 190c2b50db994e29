"""The harmonization core: the penalized pull of subgroup estimates toward
agreement with the trial-only overall estimate, its closed form, selection
of the shift direction (bias-directed and variance-directed), the exact
covariance of the harmonized difference-of-means estimate on any design
and its bias under the stylized one, and the limit map behind
bias-directed harmonization of logistic pipelines. The map's central
finite-difference sensitivity is taken from its third-order Taylor series
at zero distortion, whose terms the implicit function theorem gives with
the anchor's information, inverted once, so no refit is made;
`limit_map_theta`, which refits by IRLS, is its oracle.

Harmonizing a subgroup vector t with an overall estimate r solves

    argmin_v (v - t)' Sigma^{-1} (v - t) + lam * (pi' v - r)^2,

whose solution is v = t + (r - pi't) u for the shift vector u, a multiple
of Sigma pi. `lam = FULL` (infinity) enforces pi'v = r exactly. Only Sigma
pi and pi' Sigma pi enter u, so u describes a harmonization completely.
`shift_vector` computes u from Sigma and lam, the `bd_direction_*`
functions give the unit bias direction d = b / pi'b (pi'd = 1) of the
initial estimator's bias response b, which is u at full bias-directed
harmonization, `harmonize` applies a u, and `analytic_bias_variance` gives
the exact bias and covariance of the difference-of-means estimate that a u
harmonizes. `_unit_direction` holds the one rule that there is no
direction when pi'b vanishes. Every Sigma with Sigma pi proportional to d
(`solve_sigma_from_b`) gives u = lam / (lam + 1) d at finite lam, so bd
needs no matrix. Which shift a sigma mode (fixed, bd, vd) stands for is
decided by the caller; `simulate`, `resample` and `estimate` resolve it in
`sim._ReplicateContext`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import FULL, LAMBDA
from .data import CombinedDataset, DesignCounts, SubgroupRows, compute_design_counts
from .errors import (
    ConfigError,
    DegenerateDirection,
    InconsistentDimensions,
    InvalidDesign,
    MissingCovariance,
    NumericalError,
    RankDeficient,
    SingularSigma,
)
from .estimators import (
    EffectEstimate,
    _marginal_gradient,
    _pooled_logistic_fit,
    marginal_effects,
)
from .glm import (
    MODEL_POOLED,
    CellDesign,
    GlmFit,
    build_design,
    expit,
    fit_logistic_irls,
    pooled_map,
)

def parse_lambda(value) -> float:
    """The reader of the lambda kind (`config.LAMBDA`): a non-negative
    number, a numeric string, or "full" for `FULL`, as a float."""
    return LAMBDA.read(value, "lambda")


def _validate_sigma(sigma: np.ndarray, k: int) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (k, k):
        raise InconsistentDimensions(f"sigma must be {k}x{k}, got {sigma.shape}")
    if not np.isfinite(sigma).all():
        raise SingularSigma("sigma must be finite")
    # on finite entries, the test np.allclose(sigma, sigma.T, rtol=0, atol=...) makes
    if not np.abs(sigma - sigma.T).max() <= 1e-8 * max(1.0, np.abs(sigma).max()):
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
    (lam + c), or s = c at lam = FULL. Building one checks Sigma once for
    every lam at the same pi, as `sim._ReplicateContext` does per family.
    """

    def __init__(self, sigma, prevalences: np.ndarray):
        self.sp = _validate_sigma(sigma, prevalences.shape[0]) @ prevalences
        self.c = 1.0 / float(prevalences @ self.sp)

    def u(self, lam: float) -> np.ndarray:
        s = self.c if math.isinf(lam) else self.c * (lam / (lam + self.c))
        return s * self.sp


def shift_vector(prevalences, sigma=None, lam: float = FULL) -> np.ndarray:
    """The shift vector u of harmonizing with strength `lam` along the
    positive-definite `sigma` (identity when omitted) at prevalences pi:
    u = s Sigma pi with s = c lam / (lam + c), or s = c at lam = FULL, where
    c = 1 / (pi' Sigma pi). pi'u = lam / (lam + c), which is 1 at FULL.
    """
    pi = np.asarray(prevalences, dtype=float)
    if isinstance(lam, str) or lam < 0 or math.isnan(lam):
        raise ConfigError("lam must be a non-negative float; use parse_lambda")
    return _SigmaShift(np.eye(pi.shape[0]) if sigma is None else sigma, pi).u(lam)


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


# --- bias-directed selection -------------------------------------------------

def _unit_direction(b: np.ndarray, prevalences) -> np.ndarray:
    """The unit direction d = b / pi'b of a bias response b (pi'd = 1).
    Raises DegenerateDirection when |pi'b| <= 1e-10 max(1, max |b|): no
    positive-definite Sigma then has Sigma pi proportional to b."""
    denom = float(np.asarray(prevalences, dtype=float) @ b)
    if abs(denom) <= 1e-10 * max(1.0, float(np.abs(b).max(initial=0.0))):
        raise DegenerateDirection(
            "prevalence-weighted bias response pi'b is zero; no positive-definite "
            "matrix can align the shift with the bias direction")
    return b / denom


def bd_direction_linear(ds: CombinedDataset, prevalences=None
                        ) -> tuple[np.ndarray, np.ndarray]:
    """The bias sensitivity B of the pooled least-squares subgroup effects,
    computed from the design alone (no outcomes), and its unit direction d
    = B1 / pi'B1. Column j of B is rows K:2K of H^-1 X'1_j, H = X'X and 1_j
    the indicator of subgroup j's EC rows, the limit map's c1 at unit
    weights and slope. Raises RankDeficient when H is singular and
    DegenerateDirection when pi'B1 vanishes."""
    k, design = ds.k, build_design(ds, MODEL_POOLED)
    ec_rows = np.arange(ds.n_rct, design.shape[0])  # the EC cells come last
    s = _ec_scores(design, k, ec_rows, ds.w_ec[design.order[ec_rows] - ds.n_rct],
                   np.ones((1, ds.n_ec)))[0]
    try:
        big_b = np.linalg.solve(design.information(np.ones(design.shape[0])), s.T)[k:2 * k]
    except np.linalg.LinAlgError:
        raise RankDeficient("singular pooled least-squares information") from None
    pi = prevalences if prevalences is not None else compute_design_counts(ds).pi
    return big_b, _unit_direction(big_b @ np.ones(k), pi)


def bd_direction_diff_means(dc: DesignCounts) -> np.ndarray:
    """Unit shift direction for the pooled difference-of-means estimator,
    whose systematic-bias response is proportional to the per-subgroup
    external control fractions. Raises DegenerateDirection without
    external controls."""
    return _unit_direction(dc.q_ratio, dc.pi)


def solve_sigma_from_b(b, prevalences) -> np.ndarray:
    """A positive-definite matrix whose product with the prevalences is
    proportional to b. Same-sign b uses the diagonal construction
    diag(|b_k| / pi_k) when it passes `_validate_sigma`'s conditioning rule;
    mixed signs, and a same-sign b with an entry too small beside the others
    (such as [2, 1e-245]), use a rank-one-plus-projection form.
    Raises DegenerateDirection where `_unit_direction` does."""
    b = np.asarray(b, dtype=float)
    pi = np.asarray(prevalences, dtype=float)
    _unit_direction(b, pi)
    if np.all(b > 0) or np.all(b < 0):
        diag = np.abs(b) / pi
        if diag.min() > 1e-10 * diag.max():
            return np.diag(diag)
    v = b * np.sign(float(pi @ b))
    vp = float(v @ pi)
    tau = float(v @ v) / vp
    sigma = np.outer(v, v) / vp + tau * (np.eye(len(b)) - np.outer(pi, pi) / float(pi @ pi))
    ev = np.linalg.eigvalsh(sigma)
    if ev[0] <= 0:
        raise DegenerateDirection("construction failed to produce a PD matrix")
    return sigma


# --- limit map for logistic pipelines ----------------------------------------

@dataclass(frozen=True)
class LimitMapLayout:
    """The pseudo rows of a dataset's limit map, which depend on its design
    alone: `design` sorts the control copies of the RCT rows, their
    treated copies and the EC rows, in that order, into the 2K
    subgroup-by-arm cells of the pooled model's map, each EC row in its
    subgroup's control cell. `ec_rows` are the EC rows' positions in that
    sort; row 0 of `copies` holds the control copies' positions and row 1
    the treated copies', in `rct_subgroups.order`. `weights` follow the
    sort: 1 - p on control copies, p on treated copies for p the trial's
    treated share, and 1 on EC rows. A dataset builds its layout once, as
    `CombinedDataset.limit_map_layout`, which the datasets of one design
    share.
    """

    design: CellDesign
    ec_rows: np.ndarray
    copies: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for a in (self.ec_rows, self.copies, self.weights):
            a.setflags(write=False)

    @classmethod
    def of(cls, ds: CombinedDataset) -> "LimitMapLayout":
        k, n = ds.k, ds.n_rct
        design = CellDesign(np.concatenate([ds.w_rct, ds.w_rct + k, ds.w_ec]),
                            np.concatenate([ds.x_rct, ds.x_rct, ds.x_ec]), pooled_map(k)[:2 * k])
        p_treat = float((ds.t_rct == 1).mean())
        weights = np.concatenate([np.full(n, 1.0 - p_treat), np.full(n, p_treat),
                                  np.ones(ds.n_ec)])[design.order]
        rows = np.empty_like(design.order)  # the sort's inverse
        rows[design.order] = np.arange(len(rows))
        return cls(design, rows[2 * n:], rows[:2 * n].reshape(2, n)[:, ds.rct_subgroups.order],
                   weights)


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
    subgroup's distortion. `design`, `ec_rows` and `copies` are the
    dataset's `LimitMapLayout`, which the datasets of one design share, as
    the replicates of a `simulate` batch whose design is frozen do;
    `weights` and the undistorted `response` follow the design's row order.
    `sigmoid` stacks the logistic curve's first three derivatives at
    `response` and `grad` is the marginal effects' gradient at the anchor:
    an IPW map made by `dataclasses.replace(spec, weights=...)` shares them.
    """

    anchor: np.ndarray
    design: CellDesign
    weights: np.ndarray
    response: np.ndarray
    ec_rows: np.ndarray
    copies: np.ndarray
    w_ec: np.ndarray
    rct_subgroups: SubgroupRows
    x_rct: np.ndarray
    k: int
    pi: np.ndarray
    sigmoid: np.ndarray
    grad: np.ndarray

    def __post_init__(self):
        for a in (self.anchor, self.weights, self.response, self.ec_rows, self.copies,
                  self.w_ec, self.x_rct, self.pi, self.sigmoid, self.grad):
            a.setflags(write=False)


def build_limit_map_spec(ds: CombinedDataset, prevalences=None,
                         anchor: GlmFit | None = None) -> LimitMapSpec:
    """Anchor the limit map at the trial-only logistic fit of `ds`, or at
    `anchor`, that fit already made, on the dataset's `limit_map_layout`,
    whose EC rows have unit weights; the IPW map replaces them."""
    fit = _pooled_logistic_fit(ds, None, rct_only=True) if anchor is None else anchor
    k, d = ds.k, ds.d
    nu, eta, beta = fit.coefficients[:k], fit.coefficients[k:2 * k], fit.coefficients[2 * k:]
    layout = ds.limit_map_layout
    xb_r = ds.x_rct @ beta if d else np.zeros(ds.n_rct)
    response = expit(np.concatenate([
        nu[ds.w_rct] + xb_r,
        nu[ds.w_rct] + eta[ds.w_rct] + xb_r,
        nu[ds.w_ec] + (ds.x_ec @ beta if d else 0.0),
    ]))[layout.design.order]
    pi = (np.asarray(prevalences, dtype=float) if prevalences is not None
          else compute_design_counts(ds).pi)
    d1 = response * (1.0 - response)  # the logistic curve's first derivative
    return LimitMapSpec(
        anchor=fit.coefficients.copy(), design=layout.design, weights=layout.weights,
        response=response, ec_rows=layout.ec_rows, w_ec=ds.w_ec, copies=layout.copies,
        rct_subgroups=ds.rct_subgroups, x_rct=ds.x_rct, k=k, pi=pi,
        sigmoid=np.stack([d1, d1 * (1.0 - 2.0 * response), d1 * (1.0 - 6.0 * d1)]),
        grad=_marginal_gradient(ds.rct_subgroups, ds.x_rct, nu, eta, beta),
    )


def limit_map_theta(spec: LimitMapSpec, delta) -> np.ndarray:
    """Marginalized subgroup effects at the maximizer of the expected
    weighted working-model log-likelihood under the distortion K-vector
    `delta`, fitted by IRLS from the anchor and polished by one more
    Newton step, which takes IRLS's stopping error down to rounding. This
    is the oracle of `bd_direction_glm`'s sensitivity, whose finite
    difference divides that error by the step."""
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (spec.k,):
        raise InconsistentDimensions(f"delta must have length {spec.k}")
    design, w = spec.design, spec.weights
    y = spec.response.copy()
    y[spec.ec_rows] = expit(design.linear_predictor(spec.anchor)[spec.ec_rows]
                            + delta[spec.w_ec])
    fit = fit_logistic_irls(design, y, weights=w, start=spec.anchor, max_iter=200)
    coef = fit.coefficients
    coef = coef + np.linalg.solve(
        fit.information, design.score(w * (y - expit(design.linear_predictor(coef)))))
    k = spec.k
    return marginal_effects(spec.rct_subgroups, spec.x_rct, *np.split(coef, [k, 2 * k]))


def _ec_scores(design: CellDesign, k: int, ec_rows: np.ndarray, w_ec: np.ndarray,
               a: np.ndarray) -> np.ndarray:
    """The score X'[a_m 1_j] of each row a_m of `a`, a value per EC row of
    `design` (at `ec_rows`, in subgroups `w_ec`), on subgroup j's EC rows
    alone, for every j: an m x K x p array. EC rows set only their
    subgroup's intercept, and the covariates start at column 2K."""
    x_ec = design.xt[:, ec_rows]
    out = np.zeros((len(a), k, design.shape[1]))
    for scores, a_ec in zip(out, a):
        scores[np.arange(k), np.arange(k)] = np.bincount(w_ec, a_ec, minlength=k)
        for c, x in enumerate(x_ec):
            scores[:, 2 * k + c] = np.bincount(w_ec, a_ec * x, minlength=k)
    return out


def _fd_sensitivity(spec: LimitMapSpec, fd_step: float) -> np.ndarray:
    """The distortion sensitivity B without refits: column j is the
    central difference (theta(h e_j) - theta(-h e_j)) / 2h of the limit
    map at h = fd_step, taken from its Taylor series at zero distortion,
    theta' + h^2/6 theta''' along e_j, which leaves out only terms of
    order h^4. At fd_step = 0 it is the derivative theta' itself. Raises
    RankDeficient when the information at the anchor is singular.

    Along delta = t e_j the EC responses of subgroup j are s(z + t), s the
    logistic function and z the anchor's linear predictor, and the
    maximizer is c(t) = c0 + t c1 + t^2/2 c2 + t^3/6 c3. With s1, s2, s3
    the derivatives of s at z, H = X' diag(w s1) X the information, 1_j
    the indicator of subgroup j's EC rows and l_m = X c_m, matching the
    powers of t in the score equation X'w[s(z + t 1_j) - s(z + X(c(t) -
    c0))] = 0 gives

        c1 = H^-1 X'[w s1 1_j]  (the implicit-function Jacobian),
        c2 = H^-1 X'[w s2 (1_j - l1^2)],
        c3 = H^-1 X'[w s3 (1_j - l1^3) - 3 w s2 l1 l2].

    Each effect is a subgroup mean over the RCT rows of s(z) at the
    treated copy minus s(z) at the control copy, so its derivatives are the
    same means of s1 l1 and of s3 l1^3 + 3 s2 l1 l2 + s1 l3: G c1 and G c3
    for the terms linear in c_m, G the effects' gradient at the anchor
    (`spec.grad`). The columns j are taken one at a time, on N-vectors, so
    the working set is O(N) whatever K is.
    """
    design, s, w, copies = spec.design, spec.sigmoid, spec.weights, spec.copies
    try:
        h_inv = np.linalg.inv(design.information(w * s[0]))
    except np.linalg.LinAlgError:
        raise RankDeficient("singular limit-map information at the anchor") from None
    ec = spec.ec_rows
    c1, c2, c3 = _ec_scores(design, spec.k, ec, spec.w_ec,
                            w[ec] * s[:, ec]) @ h_inv.T  # the 1_j terms, K x p each
    ws1, ws2 = w * s[1], w * s[2]
    ws1_3 = 3.0 * ws1
    s2_copies, s1_copies_3 = s[2][copies], 3.0 * s[1][copies]  # control, then treated
    thirds = np.empty((spec.k, copies.shape[1]))
    for j in range(spec.k):
        l1 = design.linear_predictor(c1[j])
        r = l1 * l1
        c2[j] -= design.score(ws1 * r) @ h_inv.T
        l2 = design.linear_predictor(c2[j])
        z1 = l1[copies]
        third = s2_copies * z1 * z1
        third += s1_copies_3 * l2[copies]
        third *= z1
        np.subtract(third[1], third[0], out=thirds[j])
        r *= ws2
        r += ws1_3 * l2
        r *= l1
        del l1, l2, z1, third  # before the next column's are made
        c3[j] -= design.score(r) @ h_inv.T
    h2 = fd_step * fd_step / 6.0
    return spec.grad @ (c1 + h2 * c3).T + h2 * spec.rct_subgroups.means(thirds.T)


def bd_direction_glm(spec: LimitMapSpec, fd_step: float = 1e-4
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The K x K distortion sensitivity B by central finite differences of
    the limit map at zero distortion with step `fd_step` (`_fd_sensitivity`),
    the estimate moving by about B delta under a distortion delta, and its
    unit direction d = B1 / pi'B1, B1 the response to a constant
    distortion. Raises RankDeficient when the limit map's information at
    the anchor is singular and DegenerateDirection when pi'B1 vanishes."""
    big_b = _fd_sensitivity(spec, fd_step)
    return big_b, _unit_direction(big_b @ np.ones(spec.k), spec.pi)


# --- exact operating characteristics of the difference-of-means pipeline ----

def analytic_bias_variance(dc: DesignCounts, gamma, u, phi2: float
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Exact bias vector and covariance of the difference-of-means estimator
    harmonized along the shift vector u (harmonizing moves t by (r - pi't)
    u), with outcome variance phi2 and external mean distortions gamma. A
    Sigma and a lam give u = `shift_vector(dc.pi, sigma, lam)`.

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
    gamma, u = np.asarray(gamma, dtype=float), np.asarray(u, dtype=float)
    if gamma.shape != (k,) or u.shape != (k,):
        raise InconsistentDimensions(f"gamma and u must have length {k}")
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
    """Per-subgroup MSE(pooled) - MSE(fully harmonized, bias-directed): the
    squared bias plus variance of `analytic_bias_variance` at u = 0
    (pooled) less that at u = d, the unit bias direction. The variances are
    exact on any design, the biases hold on the proportional design. Raises
    InvalidDesign without RCT controls or without external controls."""
    try:
        d = bd_direction_diff_means(dc)
    except DegenerateDirection:
        raise InvalidDesign("needs at least some external controls") from None
    mse = [bias * bias + np.diag(var) for bias, var in (
        analytic_bias_variance(dc, gamma, u, phi2) for u in (np.zeros(dc.k), d))]
    return mse[0] - mse[1]


def vd_sigma(initial: EffectEstimate) -> np.ndarray:
    """The initial estimator's covariance, symmetrized. A rank-deficient
    one makes `shift_vector` raise SingularSigma."""
    if initial.covariance is None:
        raise MissingCovariance(
            "variance-directed harmonization needs the initial estimate's covariance")
    cov = np.asarray(initial.covariance, dtype=float)
    return 0.5 * (cov + cov.T)
