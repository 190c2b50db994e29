"""Interval estimation for harmonized subgroup effects: analytic normal
intervals, cut-distribution intervals, parametric-bootstrap intervals, and
the trial-only comparator interval, behind one dispatcher that `simulate`
and `estimate` share. The dispatcher, `interval`, reads a replicate's
dataset, design counts, harmonized estimate and analytic covariance from
its replicate context, `sim._ReplicateContext`.

The dispatcher's cut interval is the flat-prior cut in closed form
(`bayes.flat_cut`), per subgroup. The bootstrap's cell-mean draws are
`Generator.normal` draws, bit for bit, taken as standard normals scaled and
shifted in place, and its quantiles are `np.quantile`'s linear
interpolation between order statistics from one sort. The normal
quantile z of the analytic, cut and trial-only intervals is the standard
library's `statistics.NormalDist().inv_cdf`.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bayes import NormalPosterior, flat_cut
from .data import CONTINUOUS, CONTROL, EC_CONTROL, TREATED, CombinedDataset, DesignCounts
from .errors import (
    ConfigError,
    EmptySubgroupArm,
    InsufficientData,
    NegativeVariance,
    ReplicateFailure,
)
from .estimators import EffectEstimate, _first_subgroup, _pooled_cell_variance
from .harmonize import harmonize  # noqa: F401  (a binding that call tracers patch and check)
from .rng import (
    ROLE_BOOT_CONTROL,
    ROLE_BOOT_EXTERNAL,
    ROLE_BOOT_TREATED,
    stream,
)


BOOTSTRAP_R = 1000  # bootstrap draws unless the caller sets r; `estimate` has no setting


@dataclass(frozen=True)
class IntervalSet:
    """Per-subgroup (lower, upper) bounds around the point estimates."""

    lower: np.ndarray
    upper: np.ndarray
    point: np.ndarray

    def __post_init__(self):
        for a in (self.lower, self.upper, self.point):
            a.setflags(write=False)

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    def covers(self, truth) -> np.ndarray:
        t = np.asarray(truth, dtype=float)
        return (self.lower <= t) & (t <= self.upper)


def check_bootstrap_r(r: int) -> None:
    if r < 100:
        raise ConfigError(f"bootstrap needs bootstrap_r >= 100, got {r}")


@lru_cache(maxsize=None)
def _z(alpha: float) -> float:
    return statistics.NormalDist().inv_cdf(1.0 - alpha / 2.0)


def analytic_interval(theta_h, v_h, alpha: float = 0.05) -> IntervalSet:
    """Normal interval from the harmonized point estimates and their
    (analytic) covariance diagonal."""
    point = np.asarray(theta_h.theta_k if isinstance(theta_h, EffectEstimate) else theta_h,
                       dtype=float)
    v = np.asarray(v_h, dtype=float)
    var = np.diag(v) if v.ndim == 2 else v
    if np.any(var < 0):
        raise NegativeVariance(f"negative variance entries: {var[var < 0]}")
    half = _z(alpha) * np.sqrt(var)
    return IntervalSet(point - half, point + half, point)


def cut_interval(cutdist: NormalPosterior, alpha: float = 0.05) -> IntervalSet:
    """Normal interval centered at the cut mean with the cut variance."""
    var = np.diag(cutdist.cov).copy()
    var[(var < 0) & (var > -1e-12)] = 0.0
    if np.any(var < 0):
        raise NegativeVariance("cut covariance has negative diagonal entries")
    half = _z(alpha) * np.sqrt(var)
    point = cutdist.mean
    return IntervalSet(point - half, point + half, point.copy())


def rct_only_interval(ds: CombinedDataset, alpha: float = 0.05) -> IntervalSet:
    """Comparator interval from trial data alone: per-subgroup difference
    of means with plug-in arm variances."""
    cs = ds.cell_stats
    n1, n0 = cs.n[:, TREATED], cs.n[:, CONTROL]
    bad = _first_subgroup((n1 < 2) | (n0 < 2))
    if bad is not None:
        raise InsufficientData(f"subgroup {bad} needs at least 2 patients per RCT arm")
    point = cs.mean[:, TREATED] - cs.mean[:, CONTROL]
    var = cs.ss[:, TREATED] / (n1 - 1) / n1 + cs.ss[:, CONTROL] / (n0 - 1) / n0
    half = _z(alpha) * np.sqrt(var)
    return IntervalSet(point - half, point + half, point)


@dataclass(frozen=True)
class SimpleModelParams:
    """Generative parameters for the covariate-free normal outcome model:
    per-subgroup control levels, treatment effects, external distortions,
    and a common outcome variance."""

    mu: np.ndarray
    theta: np.ndarray
    gamma: np.ndarray
    phi2: float

    @classmethod
    def from_data(cls, ds: CombinedDataset) -> "SimpleModelParams":
        """Method-of-moments fit from the observed cell means."""
        cs = ds.cell_stats
        bad = _first_subgroup((cs.n[:, TREATED] == 0) | (cs.n[:, CONTROL] == 0))
        if bad is not None:
            raise EmptySubgroupArm(
                f"subgroup {bad} needs both RCT arms for moment estimation")
        mu = cs.mean[:, CONTROL]
        theta = cs.mean[:, TREATED] - mu
        gamma = np.where(cs.n[:, EC_CONTROL] > 0, cs.mean[:, EC_CONTROL] - mu, 0.0)
        phi2 = _pooled_cell_variance(cs)
        if not np.isfinite(phi2):
            raise InsufficientData("no cell has enough observations to estimate phi2")
        return cls(mu, theta, gamma, phi2)


def _cell_means(seed: int, replicate: int, role: int, loc, scale, r: int,
                empty=None) -> np.ndarray:
    """`stream(seed, replicate, role).normal(loc, scale, size=(r, K))`, bit
    for bit: the same Philox gaussians in the same order, scaled and shifted
    in place. The columns flagged `empty` are then zero."""
    draws = stream(seed, replicate, role).standard_normal((r, len(loc)))
    draws *= scale
    draws += loc
    if empty is not None:
        draws[:, empty] = 0.0
    return draws


def _quantiles(a: np.ndarray, probs) -> list[np.ndarray]:
    """`np.quantile(a, probs, axis=0)` (the linear method) for finite `a`,
    bit for bit, from one sort along axis 0, which beats a partition at
    several order statistics when `a` has few columns. It skips
    `np.quantile`'s general path (worth about 7% of `sim-dm-intervals`
    throughput on a 2-vCPU Xeon); the tests compare the two bit for bit.
    Except where -0.0 and +0.0 tie at an order statistic read: the sort and
    `np.quantile`'s partition may order them differently, so the zero's
    sign may differ. Bootstrap draws are continuous and never tie so."""
    n = a.shape[0]
    ordered = np.sort(a, axis=0)
    out = []
    for v in ((n - 1) * p for p in probs):
        # numpy's neighbours: index -1 twice at the top, so its weight is v + 1
        b = math.floor(v) if v < n - 1 else -1
        lo, hi = ordered[b], ordered[b + 1 if b >= 0 else -1]
        d, g = hi - lo, v - b
        out.append(hi - d * (1 - g) if g >= 0.5 else lo + d * g)
    return out


def bootstrap_interval(ds: CombinedDataset, dc: DesignCounts, point, u,
                       r: int = BOOTSTRAP_R, alpha: float = 0.05,
                       seed: int = 0, params: SimpleModelParams | None = None,
                       replicate: int = 0) -> IntervalSet:
    """Parametric-bootstrap interval for the harmonized difference-of-means
    pipeline.

    Cell means are sufficient for the pipeline, so the bootstrap perturbs
    them: it draws `r` sets of treated, control and external cell means
    from the (fitted or supplied) normal outcome model on the design `dc`,
    harmonizes each set at the prevalences `dc.pi` along `u`, the shift
    vector that made `point` (see `harmonize.shift_vector`), and reports
    intervals centred at `point`, the caller's harmonized estimate, whose
    width matches the distance between the draw quantiles.
    """
    check_bootstrap_r(r)
    params = params or SimpleModelParams.from_data(ds)
    pi = dc.pi
    point = np.array(point, dtype=float)

    n1 = dc.counts[:, 1, 0].astype(float)
    n0r = dc.counts[:, 0, 0].astype(float)
    ne = dc.counts[:, 0, 1].astype(float)
    if np.any(n1 == 0) or np.any(n0r + ne == 0):
        raise EmptySubgroupArm("bootstrap needs every subgroup estimable")
    sd = np.sqrt(params.phi2)
    m1 = _cell_means(seed, replicate, ROLE_BOOT_TREATED, params.mu + params.theta,
                     sd / np.sqrt(n1), r)
    m0 = _cell_means(seed, replicate, ROLE_BOOT_CONTROL, params.mu,
                     sd / np.sqrt(np.maximum(n0r, 1)), r, n0r == 0)
    me = _cell_means(seed, replicate, ROLE_BOOT_EXTERNAL, params.mu + params.gamma,
                     sd / np.sqrt(np.maximum(ne, 1)), r, ne == 0)
    # in place, each step the same operation on the same operands as
    # theta_pool = m1 - (n0r m0 + ne me) / (n0r + ne),
    # theta_r = (m1 n1).sum(1) / n1.sum() - (m0 n0r).sum(1) / n0r.sum()
    m0 *= n0r
    me *= ne
    me += m0
    me /= n0r + ne
    theta_r = (m1 * n1).sum(axis=1) / n1.sum() - m0.sum(axis=1) / n0r.sum()
    draws = m1
    draws -= me
    draws += (theta_r - draws @ pi)[:, None] * np.asarray(u, dtype=float)
    bad = ~np.isfinite(draws).all(axis=1)
    if bad.any():
        raise ReplicateFailure(int(np.argmax(bad)), "non-finite bootstrap estimate")
    lo, hi = _quantiles(draws, (alpha / 2.0, 1.0 - alpha / 2.0))
    half = (hi - lo) / 2.0
    return IntervalSet(point - half, point + half, point)


# --- one dispatcher for simulate and estimate ----------------------------------

# The harmonized pipeline, as (initial, overall) estimator kinds on
# continuous outcomes, that each interval method was derived for; None
# accepts any pipeline (the trial-only interval reads the trial alone).
DIFF_MEANS_PIPELINE = ("diff_means_pooled", "diff_means")
INTERVAL_PIPELINES = {
    "analytic": DIFF_MEANS_PIPELINE,
    "cut": DIFF_MEANS_PIPELINE,
    "bootstrap": DIFF_MEANS_PIPELINE,
    "rct_only": None,
}


def check_interval_methods(methods, target, outcome_family: str) -> None:
    """Reject, before any estimate is computed, an unknown interval method
    or one asked of a pipeline it was not derived for. `target` is the
    estimator configuration the intervals are centred on, or None."""
    for method in methods:
        if method not in INTERVAL_PIPELINES:
            raise ConfigError(f"unknown interval method {method!r}; "
                              f"choose from {sorted(INTERVAL_PIPELINES)}")
        need = INTERVAL_PIPELINES[method]
        if need is None:
            continue
        if target is None:
            raise ConfigError(f"interval {method!r} needs a harmonized estimator to target")
        harmonized = target.kind == "harmonized"
        if outcome_family != CONTINUOUS or not harmonized or (
                (target.initial, target.overall) != need):
            got = (f"initial {target.initial!r} and overall {target.overall!r}"
                   if harmonized else "a plain estimator")
            raise ConfigError(
                f"interval {method!r} is derived for a harmonized {need[0]!r} initial "
                f"with a {need[1]!r} overall on continuous outcomes; estimator "
                f"{target.name!r} is {got} on {outcome_family} outcomes")


def interval(method: str, ctx, target, alpha: float, phi2: float | None = None,
             r: int = BOOTSTRAP_R, seed: int = 0, replicate: int = 0) -> IntervalSet:
    """One interval of a method accepted by `check_interval_methods`, on the
    replicate that `ctx` (a `sim._ReplicateContext`) holds. The analytic and
    bootstrap intervals are centred on `ctx.harmonized(target)`, the estimate
    of the estimator configuration `target`, and the analytic one reads its
    covariance from `ctx.analytic_variance`. `phi2` is the outcome variance
    of the analytic and cut intervals, which raise `InsufficientData` unless
    it is positive and finite; `r`, `seed` and `replicate` drive the
    bootstrap draws."""
    ds, dc = ctx.ds, ctx.dc
    if method == "rct_only":
        return rct_only_interval(ds, alpha)
    if method in ("analytic", "cut") and not (phi2 is not None and 0 < phi2 < math.inf):
        raise InsufficientData(f"the {method} interval needs a positive, finite outcome "
                               f"variance; got phi2 = {phi2}")
    if method == "cut":
        return cut_interval(flat_cut(ds, phi2, dc.pi), alpha)
    if method == "analytic":
        point = ctx.harmonized(target)[0]
        return analytic_interval(point, ctx.analytic_variance(target, phi2), alpha)
    if method == "bootstrap":
        point, u = ctx.harmonized(target)
        return bootstrap_interval(ds, dc, point, u, r, alpha, seed, replicate=replicate)
    raise ConfigError(f"unknown interval method {method!r}")
