"""Independent reference computations that the tests check the package
against. None of them is part of the package's API."""

import math

import numpy as np

from subharm.bayes import FLAT_PRIOR_VARIANCE, NormalPosterior, _mix_over_overall
from subharm.data import CONTROL, EC_CONTROL, TREATED
from subharm.errors import (
    ConfigError,
    EmptySubgroupArm,
    NegativeVariance,
    ReplicateFailure,
    SingularPosterior,
)
from subharm.intervals import IntervalSet, SimpleModelParams, _z, check_bootstrap_r
from subharm.rng import ROLE_BOOT_CONTROL, ROLE_BOOT_EXTERNAL, ROLE_BOOT_TREATED, stream


def harmonize_objective_oracle(theta, overall: float, prevalences, sigma,
                               lam: float) -> np.ndarray:
    """Minimize the penalized harmonization objective directly by solving
    its stationarity condition. Finite lam only."""
    theta = np.asarray(theta, dtype=float)
    pi = np.asarray(prevalences, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if math.isinf(lam):
        raise ConfigError("oracle handles finite lam only")
    sigma_inv = np.linalg.inv(sigma)
    lhs = sigma_inv + lam * np.outer(pi, pi)
    rhs = sigma_inv @ theta + lam * float(overall) * pi
    return np.linalg.solve(lhs, rhs)


def plug_in_distribution(p2: NormalPosterior, prevalences,
                         theta_hat_a1: float) -> NormalPosterior:
    """Condition the subgroup posterior on the prevalence-weighted average
    equalling a fixed overall point estimate. The support lies in that
    hyperplane, so the covariance is degenerate along the prevalences."""
    pi = np.asarray(prevalences, dtype=float)
    m2, s2 = p2.block("theta")
    return _mix_over_overall(m2, s2, s2 @ pi, pi, float(theta_hat_a1), 0.0)


# --- the cut and bootstrap intervals as one call computed them, frozen ------
# Each replicate rebuilt its design-only parts; the package now keeps those
# on the `DesignCounts`, and these copies check that every bit is the same.

def frozen_flat_cut(ds, phi2: float, prevalences) -> NormalPosterior:
    """The closed-form flat-prior cut, from the dataset's cell sums."""
    pi = np.asarray(prevalences, dtype=float)
    cs = ds.cell_stats

    def flat_theta(n1, n0, s1, s0):
        c = phi2 / FLAT_PRIOR_VARIANCE
        n = n0 + n1
        det = n1 * n0 + c * (n + n1) + c * c
        return ((n0 + c) * s1 - n1 * s0) / det, phi2 * (n + c) / det

    n1, s1 = cs.n[:, TREATED].astype(float), cs.total[:, TREATED]
    n0 = cs.n[:, CONTROL].astype(float)
    m1, v1 = flat_theta(n1.sum(), n0.sum(), s1.sum(), cs.total[:, CONTROL].sum())
    m2, s2 = flat_theta(n1, n0 + cs.n[:, EC_CONTROL], s1,
                        cs.total[:, CONTROL] + cs.total[:, EC_CONTROL])
    sp = s2 * pi
    v_theta2 = float(pi @ sp)
    if not v_theta2 > 0:
        raise SingularPosterior("subgroup posterior is degenerate along the prevalences")
    mean = m2 + sp / v_theta2 * (m1 - float(pi @ m2))
    cov = np.diag(s2) + (v1 - v_theta2) / v_theta2 ** 2 * np.outer(sp, sp)
    cov = 0.5 * (cov + cov.T)
    return NormalPosterior(mean, cov, tuple(f"theta[{i + 1}]" for i in range(len(pi))))


def frozen_cut_interval(cutdist: NormalPosterior, alpha: float = 0.05) -> IntervalSet:
    var = np.diag(cutdist.cov).copy()
    var[(var < 0) & (var > -1e-12)] = 0.0
    if np.any(var < 0):
        raise NegativeVariance("cut covariance has negative diagonal entries")
    half = _z(alpha) * np.sqrt(var)
    point = cutdist.mean
    return IntervalSet(point - half, point + half, point.copy())


def _frozen_cell_means(seed, replicate, role, loc, scale, r, empty=None):
    draws = stream(seed, replicate, role).standard_normal((r, len(loc)))
    draws *= scale
    draws += loc
    if empty is not None:
        draws[:, empty] = 0.0
    return draws


def _frozen_quantiles(a, probs):
    n = a.shape[0]
    ordered = np.sort(a, axis=0)
    out = []
    for v in ((n - 1) * p for p in probs):
        b = math.floor(v) if v < n - 1 else -1
        lo, hi = ordered[b], ordered[b + 1 if b >= 0 else -1]
        d, g = hi - lo, v - b
        out.append(hi - d * (1 - g) if g >= 0.5 else lo + d * g)
    return out


def frozen_bootstrap_interval(ds, dc, point, u, r=1000, alpha=0.05, seed=0, params=None,
                              replicate=0) -> IntervalSet:
    """The parametric-bootstrap interval, every count-derived scale
    computed in the call."""
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
    m1 = _frozen_cell_means(seed, replicate, ROLE_BOOT_TREATED, params.mu + params.theta,
                            sd / np.sqrt(n1), r)
    m0 = _frozen_cell_means(seed, replicate, ROLE_BOOT_CONTROL, params.mu,
                            sd / np.sqrt(np.maximum(n0r, 1)), r, n0r == 0)
    me = _frozen_cell_means(seed, replicate, ROLE_BOOT_EXTERNAL, params.mu + params.gamma,
                            sd / np.sqrt(np.maximum(ne, 1)), r, ne == 0)
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
    lo, hi = _frozen_quantiles(draws, (alpha / 2.0, 1.0 - alpha / 2.0))
    half = (hi - lo) / 2.0
    return IntervalSet(point - half, point + half, point)
