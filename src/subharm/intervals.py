"""Interval estimation for harmonized subgroup effects: analytic normal
intervals, cut-distribution intervals, parametric-bootstrap intervals, and
the trial-only comparator interval, behind one dispatcher that `simulate`
and `estimate` share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.stats import norm

from .bayes import (
    NormalPosterior,
    analyst1_posterior,
    analyst2_posterior,
    cut_distribution,
    flat_prior,
)
from .data import CONTINUOUS, CONTROL, EC_CONTROL, TREATED, CombinedDataset, DesignCounts
from .errors import (
    ConfigError,
    EmptySubgroupArm,
    InsufficientData,
    NegativeVariance,
    ReplicateFailure,
)
from .estimators import EffectEstimate, _first_subgroup, _pooled_cell_variance
from .harmonize import HarmonizationConfig, _bias_variance, _shift
from .harmonize import harmonize  # noqa: F401  (a binding that call tracers patch and check)
from .rng import (
    ROLE_BOOT_CONTROL,
    ROLE_BOOT_EXTERNAL,
    ROLE_BOOT_TREATED,
    stream,
)


@dataclass(frozen=True)
class IntervalSet:
    """Per-subgroup (lower, upper) bounds at level 1 - alpha."""

    lower: np.ndarray
    upper: np.ndarray
    point: np.ndarray
    method: str
    alpha: float

    def __post_init__(self):
        self.lower.setflags(write=False)
        self.upper.setflags(write=False)
        self.point.setflags(write=False)

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    def covers(self, truth) -> np.ndarray:
        t = np.asarray(truth, dtype=float)
        return (self.lower <= t) & (t <= self.upper)


@lru_cache(maxsize=None)
def _z(alpha: float) -> float:
    return float(norm.ppf(1.0 - alpha / 2.0))


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
    return IntervalSet(point - half, point + half, point, "analytic", alpha)


def cut_interval(cutdist: NormalPosterior, alpha: float = 0.05) -> IntervalSet:
    """Normal interval centered at the cut mean with the cut variance."""
    var = np.diag(cutdist.cov).copy()
    var[(var < 0) & (var > -1e-12)] = 0.0
    if np.any(var < 0):
        raise NegativeVariance("cut covariance has negative diagonal entries")
    half = _z(alpha) * np.sqrt(var)
    point = cutdist.mean
    return IntervalSet(point - half, point + half, point.copy(), "cut", alpha)


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
    return IntervalSet(point - half, point + half, point, "rct_only", alpha)


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


def bootstrap_interval(ds: CombinedDataset, dc: DesignCounts, point,
                       cfg: HarmonizationConfig, r: int = 1000, alpha: float = 0.05,
                       seed: int = 0, params: SimpleModelParams | None = None,
                       replicate: int = 0) -> IntervalSet:
    """Parametric-bootstrap interval for the harmonized difference-of-means
    pipeline.

    Cell means are sufficient for the pipeline, so the bootstrap perturbs
    them: it draws `r` sets of treated, control and external cell means
    from the (fitted or supplied) normal outcome model on the design `dc`,
    harmonizes each set with `cfg` (which must carry the resolved sigma or
    direction) and the prevalences `dc.pi`, and reports intervals centred
    at `point`, the caller's harmonized estimate, whose width matches the
    distance between the draw quantiles.
    """
    if r < 100:
        raise ValueError("bootstrap needs r >= 100")
    params = params or SimpleModelParams.from_data(ds)
    pi = dc.pi
    point = np.array(point, dtype=float)

    n1 = dc.counts[:, 1, 0].astype(float)
    n0r = dc.counts[:, 0, 0].astype(float)
    ne = dc.counts[:, 0, 1].astype(float)
    if np.any(n1 == 0) or np.any(n0r + ne == 0):
        raise EmptySubgroupArm("bootstrap needs every subgroup estimable")
    sd = np.sqrt(params.phi2)
    m1 = stream(seed, replicate, ROLE_BOOT_TREATED).normal(
        params.mu + params.theta, sd / np.sqrt(n1), size=(r, dc.k))
    m0 = np.where(n0r > 0,
                  stream(seed, replicate, ROLE_BOOT_CONTROL).normal(
                      params.mu, sd / np.sqrt(np.maximum(n0r, 1)), size=(r, dc.k)),
                  0.0)
    me = np.where(ne > 0,
                  stream(seed, replicate, ROLE_BOOT_EXTERNAL).normal(
                      params.mu + params.gamma, sd / np.sqrt(np.maximum(ne, 1)),
                      size=(r, dc.k)),
                  0.0)
    pooled0 = (n0r * m0 + ne * me) / (n0r + ne)
    theta_pool = m1 - pooled0
    nr1, nr0 = n1.sum(), n0r.sum()
    theta_r = (m1 * n1).sum(axis=1) / nr1 - (m0 * n0r).sum(axis=1) / nr0
    u = _shift(cfg, pi)
    draws = theta_pool + (theta_r - theta_pool @ pi)[:, None] * u[None, :]
    bad = ~np.isfinite(draws).all(axis=1)
    if bad.any():
        raise ReplicateFailure(int(np.argmax(bad)), "non-finite bootstrap estimate")
    lo, hi = np.quantile(draws, [alpha / 2.0, 1.0 - alpha / 2.0], axis=0)
    half = (hi - lo) / 2.0
    return IntervalSet(point - half, point + half, point, "bootstrap", alpha)


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


def interval(method: str, ds: CombinedDataset, dc: DesignCounts, alpha: float,
             phi2: float | None = None, target=None, r: int = 1000, seed: int = 0,
             replicate: int = 0) -> IntervalSet:
    """One interval of a method accepted by `check_interval_methods`.

    `target()` returns the harmonized estimate the interval is centred on
    and the harmonization config that made it; `phi2` is the outcome
    variance of the analytic and cut intervals; `r`, `seed` and `replicate`
    drive the bootstrap draws.
    """
    if method == "rct_only":
        return rct_only_interval(ds, alpha)
    if method == "cut":
        p1 = analyst1_posterior(ds, phi2, flat_prior(2))
        p2 = analyst2_posterior(ds, phi2, flat_prior(2 * ds.k))
        return cut_interval(cut_distribution(p1, p2, dc.pi), alpha)
    if method == "analytic":
        point, hc = target()
        _, var = _bias_variance(dc, np.zeros(dc.k), _shift(hc, dc.pi), phi2)
        return analytic_interval(point, var, alpha)
    if method == "bootstrap":
        point, hc = target()
        return bootstrap_interval(ds, dc, point, hc, r, alpha, seed, replicate=replicate)
    raise ConfigError(f"unknown interval method {method!r}")
