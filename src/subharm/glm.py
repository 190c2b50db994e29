"""Model fitting: design construction, weighted least squares, and
weighted logistic regression via iteratively reweighted least squares.

Every fit runs on a `CellDesign`: rows sorted into cells, and a map from
each cell to the indicator columns it sets. It forms the linear predictor
X b, the score X'r and the information X' diag(v) X by summing each cell's
run of rows; a raw array is fitted as one cell with an empty map. X'r also
takes a stack of vectors (an m x n array). `build_design` gives each model
its map over a dataset's one sort into the 3K cells RCT control g, RCT
treated K + g and EC 2K + g (`CombinedDataset.cell_design`), the
covariates following the mapped columns:

- pooled: `pooled_map(k)`, [onehot(g), a * onehot(g)], a = 1 on treated;
- trial-only: the pooled map's first 2K cells, the RCT rows;
- overall: [1, 0] on RCT control cells and [1, 1] on RCT treated cells;
- propensity: the pooled map's first K columns, the subgroup intercepts.

The logistic function `expit` lives here, computed on numpy's `exp`, and
`estimators`, `harmonize` and `sim` import it from this module. Fisher
scoring (`fit_logistic_irls`) takes one exponential per row per step:
e = e^-lp gives both the mean 1 / (1 + e), `expit`'s formula, and the
log-likelihood. Where e overflows to inf, on lp below -709.78, the mean is
0, and a log-likelihood the overflow leaves non-finite is taken again in
the overflow-free softplus form. It does no work that no caller reads: a
cold start takes lp = 0 and e = 1 as they are, unit weights (None) are
never multiplied in, and the fit's information is computed on first read,
since most callers read only its coefficients.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import NotConverged, RankDeficient, SeparationDetected

if TYPE_CHECKING:
    from .data import CombinedDataset

MODEL_OVERALL = "overall_rct"
MODEL_POOLED = "pooled_subgroup"
MODEL_RCT_SUBGROUP = "rct_subgroup"
MODEL_PROPENSITY = "propensity"
OVERALL_TREATMENT = 1  # the overall model's treatment column

# g(30) is 1 - 9.4e-14; beyond this the fit is effectively separated
SEPARATION_CAP = 30.0
RANK_TOL = 1e-10


def expit(x):
    """The logistic function 1 / (1 + e^-x), elementwise, scipy's formula.
    Below x = -709.78 e^-x overflows to inf and the result is 0, without a
    warning."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


@lru_cache
def pooled_map(k: int) -> np.ndarray:
    """The pooled subgroup model's 3K x 2K map from the cells RCT control
    g, RCT treated K + g and EC 2K + g to its indicator columns: subgroup g's
    intercept, plus its treatment column in the treated cell. Its first 2K
    rows are the trial-only model's map, and its first K columns the
    propensity model's."""
    eye, zero = np.eye(k), np.zeros((k, k))
    out = np.block([[eye, zero], [eye, eye], [eye, zero]])
    out.setflags(write=False)
    return out


class CellDesign:
    """The design [pattern[c], x] of rows in cells c = 0..C-1 with
    covariates x, where `pattern` is a C x m 0/1 map from each cell to the
    indicator columns it sets.

    The rows are kept in cell order: row i of the design is row `order[i]`
    of the rows given, and every vector fitted against it (responses,
    weights) must follow that order. Its products with IRLS's vectors then
    sum each cell's contiguous run of rows, so the indicator columns are
    never built. An empty cell is left out of the map: its indicator
    columns get no rows from it, and a column no row sets leaves the
    information singular, as the dense design's zero column does.
    """

    def __init__(self, cell: np.ndarray, x: np.ndarray, pattern: np.ndarray):
        # numpy radix-sorts 8- and 16-bit keys: the same stable order, sooner
        order = np.argsort(cell.astype(np.min_scalar_type(len(pattern))), kind="stable")
        # one C-ordered copy, the bits of x[order].T made contiguous
        self._layout(order, np.bincount(cell, minlength=len(pattern)),
                     np.take(x.T, order, axis=1), pattern)

    def _layout(self, order, counts, xt, pattern) -> None:
        self.order, self.counts, self.xt, self.pattern = order, counts, xt, pattern
        filled = counts > 0
        self._n = counts[filled]
        self._starts = np.cumsum(self._n) - self._n
        self._map = pattern[filled]
        for a in (order, counts, xt, pattern):
            a.setflags(write=False)

    def remap(self, pattern: np.ndarray) -> "CellDesign":
        """The same sorted rows under another map. A map of fewer cells
        keeps the rows of its cells, which come first in the sort."""
        c = len(pattern)
        n = int(self.counts[:c].sum())
        design = object.__new__(type(self))
        design._layout(self.order[:n], self.counts[:c], self.xt[:, :n], pattern)
        return design

    @property
    def shape(self) -> tuple[int, int]:
        return (self.order.shape[0], self.pattern.shape[1] + self.xt.shape[0])

    # np.dot rather than @: on designs of a few hundred rows the products
    # are bound by call overhead, which np.dot keeps lower
    def linear_predictor(self, coef: np.ndarray) -> np.ndarray:
        m = self.pattern.shape[1]
        lp = np.dot(coef[m:], self.xt)
        lp += np.repeat(np.dot(self._map, coef[:m]), self._n)
        return lp

    def score(self, r: np.ndarray) -> np.ndarray:
        cells = np.add.reduceat(r, self._starts, axis=-1)
        return np.concatenate([np.dot(cells, self._map), np.dot(r, self.xt.T)], axis=-1)

    def information(self, v: np.ndarray) -> np.ndarray:
        m = self.pattern.shape[1]
        xv = self.xt * v
        info = np.empty((self.shape[1], self.shape[1]))
        info[:m, :m] = np.dot(self._map.T * np.add.reduceat(v, self._starts), self._map)
        info[m:, :m] = np.dot(np.add.reduceat(xv, self._starts, axis=-1), self._map)
        info[:m, m:] = info[m:, :m].T
        info[m:, m:] = np.dot(xv, self.xt.T)
        return info


class GlmFit:
    """Coefficients with curvature information.

    `information` is X'WX for logistic fits (Fisher information at the
    optimum) and X'WX / dispersion for least squares whenever the
    dispersion is positive; exact fits keep the unscaled cross-product.
    `GlmFit(coefficients, information, dispersion, iterations)` holds the
    matrix given. A logistic fit instead keeps its design and converged
    weights and computes the matrix on first read, when it drops them:
    most callers read only the coefficients.
    """

    def __init__(self, coefficients: np.ndarray, information: np.ndarray | None,
                 dispersion: float | None, iterations: int):
        self.coefficients = coefficients
        self._information = information
        self._pending: tuple[CellDesign, np.ndarray] | None = None
        self.dispersion = dispersion
        self.iterations = iterations

    @property
    def information(self) -> np.ndarray:
        if self._pending is not None:
            design, v = self._pending
            with np.errstate(over="ignore", invalid="ignore"):  # as in the fit
                self._information, self._pending = design.information(v), None
        return self._information


def build_design(ds: CombinedDataset, model: str) -> CellDesign:
    """`model`'s map over `ds.cell_design` (see the module docstring).
    Responses and weights follow its `order` into the RCT then EC rows."""
    design, k = ds.cell_design, ds.k
    if model == MODEL_POOLED:
        return design
    if model == MODEL_RCT_SUBGROUP:
        return design.remap(design.pattern[:2 * k])
    if model == MODEL_OVERALL:
        # [intercept, treatment], the treatment in column OVERALL_TREATMENT
        return design.remap(np.repeat([[1.0, 0.0], [1.0, 1.0]], k, axis=0))
    if model == MODEL_PROPENSITY:
        return design.remap(design.pattern[:, :k])
    raise ValueError(f"unknown design model {model!r}")


def _fit_inputs(design: CellDesign | np.ndarray, y, weights, ones: bool = True
                ) -> tuple[CellDesign, np.ndarray, np.ndarray | None]:
    """The design, with a raw array taken as one cell with an empty map, the
    responses, one per design row, and the weights, which must be finite
    and non-negative. None stands for unit weights, and is returned as
    ones unless `ones` is false."""
    if not isinstance(design, CellDesign):
        x = np.asarray(design, dtype=float)
        design = CellDesign(np.zeros(len(x), dtype=np.intp), x, np.zeros((1, 0)))
    y = np.asarray(y, dtype=float)
    if y.shape != design.shape[:1]:
        raise ValueError("responses must be one vector, one per design row")
    if weights is None:
        return design, y, np.ones(len(y)) if ones else None
    w = np.asarray(weights, dtype=float)
    if w.shape != design.shape[:1] or not np.all(np.isfinite(w) & (w >= 0)):
        raise ValueError("weights must be finite and non-negative, one per design row")
    return design, y, w


def fit_ols(design: CellDesign | np.ndarray, y: np.ndarray,
            weights: np.ndarray | None = None) -> GlmFit:
    """Weighted least squares through the normal equations X'WX b = X'Wy.

    The rank rule and the solves use the Jacobi-scaled S = D^-1/2 X'WX D^-1/2,
    D = diag(X'WX), so the covariates' units do not matter: a zero column, or
    an eigenvalue of S at or below `RANK_TOL` times its largest (a
    singular-value ratio of 1e-5 between unit-norm weighted columns), raises
    RankDeficient. Zero-weight rows contribute nothing; the dispersion
    divides by (number of positive-weight rows - p). `y` and `weights`
    follow the design's row order.
    """
    x, y, w = _fit_inputs(design, y, weights)
    if not np.all(np.isfinite(y)):
        raise ValueError("least-squares responses must be finite")
    xtwx = x.information(w)
    # a zero column scales to zero, and its eigenvalue of 0 fails the rule
    diag = np.diag(xtwx)
    s = np.where(diag > 0, diag, np.inf) ** -0.5
    scaled = xtwx * s[:, None] * s
    ev = np.linalg.eigvalsh(scaled)
    if ev.size == 0 or not ev[0] > RANK_TOL * ev[-1]:
        span = f"{ev[0]:.3g}..{ev[-1]:.3g}" if ev.size else "none"
        raise RankDeficient(f"design is rank deficient (scaled X'WX eigenvalues {span})")
    coef = s * np.linalg.solve(scaled, s * x.score(w * y))
    # X'WX squares the condition number; a refinement step on the
    # residuals wins back the accuracy of a QR solve
    coef += s * np.linalg.solve(scaled, s * x.score(w * (y - x.linear_predictor(coef))))
    resid = y - x.linear_predictor(coef)
    n_eff = int(np.count_nonzero(w))
    p = x.shape[1]
    rss = float(w @ (resid * resid))
    dispersion = rss / (n_eff - p) if n_eff > p else (0.0 if rss < 1e-12 else float("nan"))
    information = xtwx / dispersion if dispersion and dispersion > 0 else xtwx
    return GlmFit(coefficients=coef, information=information,
                  dispersion=dispersion, iterations=1)


def _loglik(lp: np.ndarray, e: np.ndarray, w: np.ndarray, w1y: np.ndarray) -> float:
    # the weighted log-likelihood sum w (y lp - log(1 + e^lp)), y possibly
    # fractional (binomial proportions), as -(w (1 - y) lp + w log1p(e)) on
    # the mean's e = e^-lp. Below lp = -709.78 e overflows to inf, which
    # makes the sum -inf, or NaN on a zero-weight row: that one evaluation
    # takes the overflow-free softplus log1p(e^-|lp|) + max(-lp, 0) instead
    ll = -(np.dot(w1y, lp) + np.dot(w, np.log1p(e)))
    if math.isfinite(ll):
        return ll
    softplus = np.log1p(np.exp(-np.abs(lp))) + np.maximum(-lp, 0.0)
    return -(np.dot(w1y, lp) + np.dot(w, softplus))


def fit_logistic_irls(design: CellDesign | np.ndarray, y: np.ndarray,
                      weights: np.ndarray | None = None, tol: float = 1e-10,
                      max_iter: int = 100,
                      start: np.ndarray | None = None) -> GlmFit:
    """Weighted logistic regression by Fisher scoring with step halving.

    Convergence requires the weighted score's infinity norm to fall below
    `tol`. Responses form one vector and may be fractional in [0, 1]
    (proportion rows); each row's log-likelihood contribution is multiplied
    by its weight, and None stands for unit weights, which are never
    multiplied in. A coefficient escaping the +/-30 cap on the logit scale
    with a non-vanishing score raises SeparationDetected, and exhausting
    `max_iter` raises NotConverged. The fit's `information` at its
    coefficients is computed when first read. `y` and `weights` follow the
    design's row order; a raw array is one cell, so its rows keep theirs.

    Each linear predictor lp costs one exponential per row: e = e^-lp gives
    both the mean 1 / (1 + e), `expit(lp)` to the bit, and the
    log-likelihood (`_loglik`), and an accepted step's e serves the next
    scoring step. A cold start takes lp = 0 and e = 1 as they are. One
    error state covers the whole fit, because e may overflow to inf: the
    mean there is 0, and `_loglik` takes the log-likelihood again in an
    overflow-free form when the overflow leaves its fast sum -inf or NaN
    (0 * inf on a zero-weight row).
    """
    x, y, w = _fit_inputs(design, y, weights, ones=False)
    if not np.all((y >= 0) & (y <= 1)):
        raise ValueError("logistic responses must be numbers in [0, 1]")

    def weigh(a):  # w * a; unit weights leave a as it is, to the bit
        return a if w is None else w * a

    n = len(y)
    # the log-likelihood's dot keeps its sum order with unit weights too
    w_ll = np.ones(n) if w is None else w
    w1y = weigh(1.0 - y)

    def evaluate(b):
        lp = x.linear_predictor(b)
        e = np.exp(-lp)
        return e, _loglik(lp, e, w_ll, w1y)

    with np.errstate(over="ignore", invalid="ignore"):
        if start is None:
            coef, e = np.zeros(x.shape[1]), np.ones(n)
            ll = _loglik(np.zeros(n), e, w_ll, w1y)
        else:
            coef = np.array(start, dtype=float)
            e, ll = evaluate(coef)
        for it in range(max_iter + 1):
            mu = 1.0 / (1.0 + e)
            score = x.score(weigh(y - mu))
            big = np.abs(score).max()
            if big < tol:
                break
            if it and np.abs(coef).max() > SEPARATION_CAP:  # a start may lie past the cap
                raise SeparationDetected(
                    f"coefficient magnitude exceeded {SEPARATION_CAP} with score "
                    f"{big:.3g}; data look separated")
            if it == max_iter:
                raise NotConverged(
                    f"IRLS did not reach tol={tol} in {max_iter} iterations (score {big:.3g})")
            try:
                delta = np.linalg.solve(x.information(weigh(mu) * (1.0 - mu)), score)
            except np.linalg.LinAlgError:
                raise RankDeficient("singular weighted information matrix") from None
            cand = coef + delta
            e_c, ll_c = evaluate(cand)
            # the log-likelihood's rounding noise grows with its magnitude
            floor = ll - 1e-12 * max(1.0, abs(ll))
            step, halvings = 1.0, 0
            while ll_c < floor and halvings < 20:
                step *= 0.5
                halvings += 1
                cand = coef + step * delta
                e_c, ll_c = evaluate(cand)
            coef, e, ll = cand, e_c, ll_c
    fit = GlmFit(coef, None, None, it)
    fit._pending = (x, weigh(mu) * (1.0 - mu))
    return fit
