"""Interval estimation for harmonized subgroup effects: analytic normal
intervals, cut-distribution intervals, parametric-bootstrap intervals, and
the trial-only comparator interval, behind one dispatcher that `simulate`
and `estimate` share. The dispatcher, `interval`, reads a replicate's
dataset, design counts and harmonized estimate from its replicate context,
`sim._ReplicateContext`, and keeps each interval's per-design part as one
entry of the context's cache (`ctx.cached`): the cut's design part
(`bayes.flat_cut_design`) with its half-width, on the `DesignCounts`, and
the analytic half-width, from `harmonize.analytic_bias_variance`, on the
`DesignCounts` where the target's shift depends on the design alone
(`ctx.design_only`) and on the replicate otherwise. `cut_interval` and
`analytic_interval` build each half-width around a zero centre, whose
upper bound is the half-width, and a replicate adds only its centre.
The bootstrap's cell-mean draws are `Generator.normal` draws, bit for bit,
taken as standard normals scaled and shifted in place, and its quantiles
are `np.quantile`'s linear interpolation between order statistics from one
sort, whose first and last rows also hold any non-finite draw. What the
draws read from the design counts alone (`bootstrap_scales`) is kept on
the `DesignCounts`, so a replicate computes only its moment fit, its draws
and what follows them. The normal quantile z of the analytic, cut and
trial-only intervals is the standard library's
`statistics.NormalDist().inv_cdf`.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bayes import FlatCutDesign, NormalPosterior, flat_cut_design
from .config import choice, listing, refuse_repeats
from .data import CONTINUOUS, CONTROL, EC_CONTROL, TREATED, CombinedDataset, DesignCounts
from .errors import (
    ConfigError,
    EmptySubgroupArm,
    InsufficientData,
    NegativeVariance,
    ReplicateFailure,
)
from .estimators import EffectEstimate, _first_subgroup, _pooled_cell_variance
from .harmonize import analytic_bias_variance
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

    @classmethod
    def around(cls, point: np.ndarray, half) -> "IntervalSet":
        """The interval point - half to point + half."""
        return cls(point - half, point + half, point)

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
    return IntervalSet.around(point, _z(alpha) * np.sqrt(var))


def cut_interval(cutdist: NormalPosterior, alpha: float = 0.05) -> IntervalSet:
    """Normal interval centered at the cut mean with the cut variance."""
    var = np.diag(cutdist.cov).copy()
    var[(var < 0) & (var > -1e-12)] = 0.0
    if np.any(var < 0):
        raise NegativeVariance("cut covariance has negative diagonal entries")
    return IntervalSet.around(cutdist.mean.copy(), _z(alpha) * np.sqrt(var))


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
    return IntervalSet.around(point, _z(alpha) * np.sqrt(var))


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


def _cell_means(seed: int, replicate: int, role: int, loc, scale, r: int) -> np.ndarray:
    """`stream(seed, replicate, role).normal(loc, scale, size=(r, K))`, bit
    for bit: the same Philox gaussians in the same order, scaled and shifted
    in place."""
    draws = stream(seed, replicate, role).standard_normal((r, len(loc)))
    draws *= scale
    draws += loc
    return draws


def _quantiles(ordered: np.ndarray, probs) -> list[np.ndarray]:
    """`np.quantile(a, probs, axis=0)` (the linear method) for finite `a`,
    bit for bit, read from `ordered` = `np.sort(a, axis=0)`: one sort beats
    a partition at several order statistics when `a` has few columns. It
    skips `np.quantile`'s general path (worth about 7% of
    `sim-dm-intervals` throughput on a 2-vCPU Xeon); the tests compare the
    two bit for bit. Except where -0.0 and +0.0 tie at an order statistic
    read: the sort and `np.quantile`'s partition may order them
    differently, so the zero's sign may differ. Bootstrap draws are
    continuous and never tie so."""
    n = ordered.shape[0]
    out = []
    for v in ((n - 1) * p for p in probs):
        # numpy's neighbours: index -1 twice at the top, so its weight is v + 1
        b = math.floor(v) if v < n - 1 else -1
        lo, hi = ordered[b], ordered[b + 1 if b >= 0 else -1]
        d, g = hi - lo, v - b
        out.append(hi - d * (1 - g) if g >= 0.5 else lo + d * g)
    return out


@dataclass(frozen=True)
class BootstrapScales:
    """What the bootstrap draws read from the design counts alone: the float
    cell counts, the square roots that scale the cell means' standard
    deviations, the pooled control counts and the sums the trial-only
    overall divides by."""

    n1: np.ndarray
    n0r: np.ndarray
    ne: np.ndarray
    root_n1: np.ndarray
    root_n0r: np.ndarray
    root_ne: np.ndarray
    pooled: np.ndarray
    n1_sum: float
    n0r_sum: float


def bootstrap_scales(dc: DesignCounts) -> BootstrapScales:
    """The `BootstrapScales` of `dc`; raises EmptySubgroupArm unless every
    subgroup has treated patients and controls."""
    n1 = dc.counts[:, 1, 0].astype(float)
    n0r = dc.counts[:, 0, 0].astype(float)
    ne = dc.counts[:, 0, 1].astype(float)
    if np.any(n1 == 0) or np.any(n0r + ne == 0):
        raise EmptySubgroupArm("bootstrap needs every subgroup estimable")
    return BootstrapScales(
        n1, n0r, ne, np.sqrt(n1), np.sqrt(np.maximum(n0r, 1)), np.sqrt(np.maximum(ne, 1)),
        n0r + ne, n1.sum(), n0r.sum())


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
    width matches the distance between the draw quantiles. The design's
    `bootstrap_scales` are computed once per `dc` and kept on it.
    """
    check_bootstrap_r(r)
    params = params or SimpleModelParams.from_data(ds)
    sc = dc.cached("bootstrap_scales", lambda: bootstrap_scales(dc))
    pi = dc.pi
    point = np.array(point, dtype=float)

    sd = np.sqrt(params.phi2)
    m1 = _cell_means(seed, replicate, ROLE_BOOT_TREATED, params.mu + params.theta,
                     sd / sc.root_n1, r)
    m0 = _cell_means(seed, replicate, ROLE_BOOT_CONTROL, params.mu, sd / sc.root_n0r, r)
    me = _cell_means(seed, replicate, ROLE_BOOT_EXTERNAL, params.mu + params.gamma,
                     sd / sc.root_ne, r)
    # in place, each step the same operation on the same operands as
    # theta_pool = m1 - (n0r m0 + ne me) / (n0r + ne),
    # theta_r = (m1 n1).sum(1) / n1.sum() - (m0 n0r).sum(1) / n0r.sum();
    # an empty cell's zero count zeroes its draws
    m0 *= sc.n0r
    me *= sc.ne
    me += m0
    me /= sc.pooled
    theta_r = (m1 * sc.n1).sum(axis=1) / sc.n1_sum - m0.sum(axis=1) / sc.n0r_sum
    draws = m1
    draws -= me
    draws += (theta_r - draws @ pi)[:, None] * np.asarray(u, dtype=float)
    ordered = np.sort(draws, axis=0)
    # NaN and +inf sort last, -inf first: a non-finite draw leaves one at an end
    if not np.isfinite(ordered[[0, -1]]).all():
        bad = ~np.isfinite(draws).all(axis=1)
        raise ReplicateFailure(int(np.argmax(bad)), "non-finite bootstrap estimate")
    lo, hi = _quantiles(ordered, (alpha / 2.0, 1.0 - alpha / 2.0))
    return IntervalSet.around(point, (hi - lo) / 2.0)


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
INTERVALS = listing(choice(INTERVAL_PIPELINES),
                    f"interval methods ({', '.join(INTERVAL_PIPELINES)})")


def check_interval_methods(methods, target, outcome_family: str) -> None:
    """Reject, before any estimate is computed, a list of interval methods
    that is not of the kind `INTERVALS`, that names a method twice, or that
    asks a method of a pipeline it was not derived for. `target` is the
    estimator configuration the intervals are centred on, or None."""
    refuse_repeats("interval methods", INTERVALS.read(methods, "intervals"))
    for method in methods:
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


def _require_variance(method: str, phi2) -> None:
    if not (phi2 is not None and 0 < phi2 < math.inf):
        raise InsufficientData(f"the {method} interval needs a positive, finite outcome "
                               f"variance; got phi2 = {phi2}")


def _cut_part(dc: DesignCounts, phi2: float, alpha: float) -> tuple[FlatCutDesign, np.ndarray]:
    """The flat-prior cut's design part on `dc` at outcome variance phi2,
    and the cut interval's half-width at level alpha."""
    counts = dc.counts
    design = flat_cut_design(counts[:, 1, 0], counts[:, 0, 0], counts[:, 0, 1], phi2, dc.pi)
    zero = NormalPosterior(np.zeros(dc.k), design.cov, design.labels)
    return design, cut_interval(zero, alpha).upper


def interval(method: str, ctx, target, alpha: float, phi2: float | None = None,
             r: int = BOOTSTRAP_R, seed: int = 0, replicate: int = 0) -> IntervalSet:
    """One interval of a method accepted by `check_interval_methods`, on the
    replicate that `ctx` (a `sim._ReplicateContext`) holds. The analytic and
    bootstrap intervals are centred on `ctx.harmonized(target)`, the estimate
    of the estimator configuration `target`. `phi2` is the outcome variance
    of the analytic and cut intervals; the bootstrap fits its own. Each
    raises `InsufficientData` unless its variance is positive and finite.
    `r`, `seed` and `replicate` drive the bootstrap draws."""
    ds, dc = ctx.ds, ctx.dc
    if method == "rct_only":
        return rct_only_interval(ds, alpha)
    if method == "bootstrap":
        point, u = ctx.harmonized(target)
        params = SimpleModelParams.from_data(ds)
        _require_variance(method, params.phi2)
        return bootstrap_interval(ds, dc, point, u, r, alpha, seed, params, replicate)
    if method not in ("analytic", "cut"):
        raise ConfigError(f"unknown interval method {method!r}")
    _require_variance(method, phi2)
    if method == "cut":
        design, half = ctx.cached(("cut", phi2, alpha), lambda: _cut_part(dc, phi2, alpha),
                                  design_only=True)
        return IntervalSet.around(design.mean(ds.cell_stats), half)
    point, u = ctx.harmonized(target)
    half = ctx.cached(("analytic", target, phi2, alpha), lambda: analytic_interval(
        np.zeros(dc.k), analytic_bias_variance(dc, np.zeros(dc.k), u, phi2)[1], alpha).upper,
        design_only=ctx.design_only(target))
    return IntervalSet.around(point, half)
