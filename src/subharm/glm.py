"""Model fitting: design-matrix construction, ordinary least squares, and
weighted logistic regression via iteratively reweighted least squares.

`DesignMatrix` states the four design layouts. IRLS reaches its design
only through three products: the linear predictor X b, the score X'r and
the information X' diag(v) X. Each takes one vector or a stack of them (an
m x p or m x n array) and gives every row of a stack the bits it would get
alone, so `fit_logistic_irls` fits a stack of response vectors against one
design in one loop. A `DesignMatrix` (or a raw array) forms the products
densely; a `CellDesign` holds the pooled layout as each row's subgroup-by-
arm cell and covariates, and forms them per cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import expit

from .data import CombinedDataset
from .errors import NotConverged, RankDeficient, SeparationDetected

MODEL_OVERALL = "overall_rct"
MODEL_POOLED = "pooled_subgroup"
MODEL_RCT_SUBGROUP = "rct_subgroup"
MODEL_BIAS_BLOCK = "pooled_subgroup_with_bias"
OVERALL_TREATMENT = 1  # the overall model's treatment column

# g(30) is 1 - 9.4e-14; beyond this the fit is effectively separated
SEPARATION_CAP = 30.0
RANK_TOL = 1e-10


@dataclass(frozen=True)
class DesignMatrix:
    """Dense design values in one of four fixed column layouts.

    The overall model has columns [intercept, treatment, covariates] on RCT
    rows only, so its treatment sits in column `OVERALL_TREATMENT`. The
    pooled subgroup model stacks RCT rows then EC rows with K subgroup
    intercepts, K subgroup-by-treatment indicators (zero on EC rows) and the
    shared covariates, so the subgroup effects sit in columns K:2K; the
    trial-only subgroup model is its RCT rows alone. The bias block holds
    the K EC-membership-by-subgroup indicators in the pooled row order.
    """

    values: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def linear_predictor(self, coef: np.ndarray) -> np.ndarray:
        return np.matmul(self.values, coef[..., None])[..., 0]

    def score(self, r: np.ndarray) -> np.ndarray:
        return np.matmul(self.values.T, r[..., None])[..., 0]

    def information(self, v: np.ndarray) -> np.ndarray:
        return np.matmul(self.values.T, self.values * v[..., None])


class CellDesign:
    """The pooled layout [onehot(g), a * onehot(g), x] of subgroup g, arm
    indicator a and covariates x, held as the cell c = g + K a of each row
    and the covariates.

    The rows are kept in cell order: row i of the design is row `order[i]`
    of the rows given, and every vector fitted against it (responses,
    weights) must follow that order. Its products with IRLS's vectors then
    sum each cell's contiguous run of rows, so the one-hot columns are never
    built.
    """

    def __init__(self, cell: np.ndarray, x: np.ndarray, k: int):
        self.k = k
        self.order = np.argsort(cell, kind="stable")
        self.counts = np.bincount(cell, minlength=2 * k)
        self.xt = np.ascontiguousarray(x[self.order].T)
        self._filled = self.counts > 0
        self._starts = (np.cumsum(self.counts) - self.counts)[self._filled]
        for a in (self.order, self.counts, self.xt):
            a.setflags(write=False)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.order.shape[0], 2 * self.k + self.xt.shape[0])

    def _cell_sums(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # sums of v's last axis against the subgroup columns and against the
        # treated-arm columns: two arrays of shape v.shape[:-1] + (K,)
        s = np.zeros(v.shape[:-1] + (2 * self.k,))
        s[..., self._filled] = np.add.reduceat(v, self._starts, axis=-1)
        return s[..., :self.k] + s[..., self.k:], s[..., self.k:]

    def linear_predictor(self, coef: np.ndarray) -> np.ndarray:
        k = self.k
        per_cell = np.concatenate([coef[..., :k], coef[..., :k] + coef[..., k:2 * k]], axis=-1)
        return (np.repeat(per_cell, self.counts, axis=-1)
                + np.matmul(coef[..., None, 2 * k:], self.xt)[..., 0, :])

    def score(self, r: np.ndarray) -> np.ndarray:
        g, a = self._cell_sums(r)
        return np.concatenate([g, a, np.matmul(self.xt, r[..., None])[..., 0]], axis=-1)

    def information(self, v: np.ndarray) -> np.ndarray:
        k, p = self.k, self.shape[1]
        xv = self.xt * v[..., None, :]
        g, a = self._cell_sums(np.concatenate([v[..., None, :], xv], axis=-2))
        diag = np.arange(k)
        info = np.zeros(v.shape[:-1] + (p, p))
        info[..., diag, diag] = g[..., 0, :]
        info[..., diag, k + diag] = info[..., k + diag, diag] = a[..., 0, :]
        info[..., k + diag, k + diag] = a[..., 0, :]
        info[..., 2 * k:, :k], info[..., 2 * k:, k:2 * k] = g[..., 1:, :], a[..., 1:, :]
        info[..., :k, 2 * k:] = np.swapaxes(g[..., 1:, :], -1, -2)
        info[..., k:2 * k, 2 * k:] = np.swapaxes(a[..., 1:, :], -1, -2)
        info[..., 2 * k:, 2 * k:] = np.matmul(xv, self.xt.T)
        return info


@dataclass
class GlmFit:
    """Coefficients with curvature information.

    `information` is X'WX for logistic fits (Fisher information at the
    optimum) and X'WX / dispersion for least squares whenever the
    dispersion is positive; exact fits keep the unscaled cross-product. A
    stacked logistic fit holds one row of coefficients per response vector
    and no information.
    """

    coefficients: np.ndarray
    information: np.ndarray | None
    dispersion: float | None
    converged: bool
    iterations: int

    @property
    def xtwx(self) -> np.ndarray:
        if self.dispersion is not None and self.dispersion > 0:
            return self.information * self.dispersion
        return self.information


def _onehot(idx: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros((len(idx), k))
    if len(idx):
        out[np.arange(len(idx)), idx] = 1.0
    return out


def build_design(ds: CombinedDataset, model: str) -> DesignMatrix:
    """Build the design matrix for one of the three model layouts."""
    k = ds.k
    if model == MODEL_OVERALL:
        return DesignMatrix(
            np.column_stack([np.ones(ds.n_rct), ds.t_rct.astype(float), ds.x_rct]))
    if model in (MODEL_POOLED, MODEL_RCT_SUBGROUP):
        h_r = _onehot(ds.w_rct, k)
        blocks = [[h_r, h_r * ds.t_rct[:, None], ds.x_rct]]
        if model == MODEL_POOLED:
            blocks.append([_onehot(ds.w_ec, k), np.zeros((ds.n_ec, k)), ds.x_ec])
        return DesignMatrix(np.block(blocks))
    if model == MODEL_BIAS_BLOCK:
        return DesignMatrix(np.vstack([np.zeros((ds.n_rct, k)), _onehot(ds.w_ec, k)]))
    raise ValueError(f"unknown design model {model!r}")


def _check_rank(x: np.ndarray) -> None:
    sv = np.linalg.svd(x, compute_uv=False)
    if sv.size == 0 or sv[-1] <= RANK_TOL * sv[0]:
        raise RankDeficient(
            f"design is rank deficient (singular values span {sv[0]:.3g}..{sv[-1] if sv.size else 0:.3g})")


def fit_ols(design: DesignMatrix | np.ndarray, y: np.ndarray,
            weights: np.ndarray | None = None) -> GlmFit:
    """Weighted least squares through a QR factorization.

    Zero-weight rows are retained but contribute nothing; the dispersion
    estimate divides by (number of positive-weight rows - p).
    """
    x = design.values if isinstance(design, DesignMatrix) else np.asarray(design, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[0] != y.shape[0]:
        raise ValueError("design rows and outcome length differ")
    w = np.ones(len(y)) if weights is None else np.asarray(weights, dtype=float)
    sw = np.sqrt(w)
    xw = x * sw[:, None]
    yw = y * sw
    _check_rank(xw)
    q, r = np.linalg.qr(xw)
    coef = solve_triangular(r, q.T @ yw)
    resid = yw - xw @ coef
    n_eff = int(np.count_nonzero(w))
    p = x.shape[1]
    rss = float(resid @ resid)
    dispersion = rss / (n_eff - p) if n_eff > p else (0.0 if rss < 1e-12 else float("nan"))
    xtwx = xw.T @ xw
    information = xtwx / dispersion if dispersion and dispersion > 0 else xtwx
    return GlmFit(coefficients=coef, information=information,
                  dispersion=dispersion, converged=True, iterations=1)


def _loglik(lp: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    # one value per row of lp; y may be fractional (binomial proportions);
    # log(1 + e^lp) as the overflow-free softplus log1p(e^-|lp|) + max(lp, 0)
    softplus = np.log1p(np.exp(-np.abs(lp))) + np.maximum(lp, 0.0)
    return np.sum(w * (y * lp - softplus), axis=-1)


def fit_logistic_irls(design: DesignMatrix | CellDesign | np.ndarray, y: np.ndarray,
                      weights: np.ndarray | None = None, tol: float = 1e-10,
                      max_iter: int = 100,
                      start: np.ndarray | None = None,
                      allow_unconverged: bool = False) -> GlmFit:
    """Weighted logistic regression by Fisher scoring with step halving.

    Convergence requires the weighted score's infinity norm to fall below
    `tol`. Responses may be fractional in [0, 1] (proportion rows); each
    row's log-likelihood contribution is multiplied by its weight. A
    coefficient escaping the +/-30 cap on the logit scale with a
    non-vanishing score raises SeparationDetected. Exhausting `max_iter`
    raises NotConverged unless `allow_unconverged` asks for the partial fit
    (flagged converged=False) instead.

    An m x n `y` fits m response vectors against the one design, weights
    and start. Each keeps its own score test, step halving, separation cap
    and iteration budget, gets the same bits as its one-row fit, and leaves
    the stack once it converges. The fit then holds m rows of coefficients,
    no information, and the iterations of its slowest row. A 1-D `y` is
    the one-row stack, and its fit carries the information at its
    coefficients.
    """
    x = design if isinstance(design, (DesignMatrix, CellDesign)) \
        else DesignMatrix(np.asarray(design, dtype=float))
    y = np.asarray(y, dtype=float)
    if not np.all((y >= 0) & (y <= 1)):
        raise ValueError("logistic responses must be numbers in [0, 1]")
    w = np.ones(y.shape[-1]) if weights is None else np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(w) & (w >= 0)):
        raise ValueError("weights must be finite and non-negative")
    p = x.shape[1]
    coef = np.zeros(p) if start is None else np.array(start, dtype=float)
    stack = y.ndim == 2
    if stack:
        coef = np.tile(coef, (len(y), 1))
        fitted, rows = coef.copy(), np.arange(len(y))  # rows: those still fitting
    lp = x.linear_predictor(coef)
    ll = _loglik(lp, y, w)
    for it in range(max_iter + 1):
        mu = expit(lp)
        score = x.score(w * (y - mu))
        big = np.abs(score).max(axis=-1)
        done = big < tol
        if done.all() if stack else done:
            break
        if stack and done.any():
            fitted[rows[done]] = coef[done]
            rows, coef, lp, ll, y, mu, score, big = (
                a[~done] for a in (rows, coef, lp, ll, y, mu, score, big))
        if it and np.abs(coef).max() > SEPARATION_CAP:  # a start may lie past the cap
            raise SeparationDetected(
                f"coefficient magnitude exceeded {SEPARATION_CAP} with score "
                f"{np.max(big):.3g}; data look separated")
        if it == max_iter:
            if not allow_unconverged:
                raise NotConverged(
                    f"IRLS did not reach tol={tol} in {max_iter} iterations "
                    f"(score {np.max(big):.3g})")
            break
        try:
            delta = np.linalg.solve(x.information(w * mu * (1.0 - mu)), score[..., None])[..., 0]
        except np.linalg.LinAlgError:
            raise RankDeficient("singular weighted information matrix") from None
        cand = coef + delta
        lp_c = x.linear_predictor(cand)
        ll_c = _loglik(lp_c, y, w)
        # the log-likelihood's rounding noise grows with its magnitude
        floor = ll - 1e-12 * np.maximum(1.0, abs(ll))
        halve, step, halvings = ll_c < floor, 1.0, 0
        while (halve.any() if stack else halve) and halvings < 20:
            # rows that took their step keep it and get the same bits again
            step = np.where(halve, 0.5 * step, step)
            halvings += 1
            cand = coef + step[..., None] * delta
            lp_c = x.linear_predictor(cand)
            ll_c = _loglik(lp_c, y, w)
            halve = ll_c < floor
        coef, lp, ll = cand, lp_c, ll_c
    if stack:
        fitted[rows] = coef
        return GlmFit(fitted, None, None, bool(done.all()), it)
    return GlmFit(coef, x.information(w * mu * (1.0 - mu)), None, bool(done), it)
