"""Conjugate-normal posteriors for a primary analyst (overall effect, trial
data only) and a subgroup analyst (subgroup effects, trial plus external
data), and the cut distribution that replaces the subgroup analyst's
overall marginal with the primary analyst's.

The cut mean reproduces full variance-directed harmonization exactly; the
cut covariance inherits the primary analyst's uncertainty along the
prevalence direction.

Under `flat_prior` the subgroup analyst's posterior precision is
block-diagonal in per-subgroup 2x2 [mu_k, theta_k] blocks, so the cut has
a closed form in the cell sums, without the 2K x 2K inversions of the
general route (`analyst1_posterior`, `analyst2_posterior`,
`cut_distribution`), which stays as its oracle. The closed form is two
steps: its design part (`flat_cut_design`), which the cell counts, the
outcome variance and the prevalences fix, and the means that a dataset's
outcome sums give (`FlatCutDesign.mean`). Nothing here caches: the
interval dispatcher (`intervals.interval`) keeps one design part per
design counts, outcome variance and level, so a `simulate` batch builds
it once and every replicate only the means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CONTROL, EC_CONTROL, TREATED, CellStats, CombinedDataset
from .errors import SingularPosterior, SingularPrior


@dataclass(frozen=True)
class NormalPosterior:
    """A multivariate normal over labelled parameters."""

    mean: np.ndarray
    cov: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        self.mean.setflags(write=False)
        self.cov.setflags(write=False)

    def block(self, prefix: str) -> tuple[np.ndarray, np.ndarray]:
        """Marginal (mean, cov) of all parameters whose label starts with
        `prefix` (e.g. "theta")."""
        idx = [i for i, lab in enumerate(self.labels) if lab.split("[")[0] == prefix]
        if not idx:
            raise KeyError(f"no parameters labelled {prefix!r}")
        return self.mean[idx], self.cov[np.ix_(idx, idx)]


FLAT_PRIOR_VARIANCE = 1e4


def flat_prior(dim: int, variance: float = FLAT_PRIOR_VARIANCE) -> NormalPosterior:
    """A proper, nearly flat normal prior (zero mean, large diagonal)."""
    return NormalPosterior(np.zeros(dim), variance * np.eye(dim),
                           tuple(f"p[{i}]" for i in range(dim)))


def _conjugate_update(xtx: np.ndarray, xty: np.ndarray, noise_var: float,
                      prior_mean: np.ndarray, prior_cov: np.ndarray,
                      labels: tuple[str, ...]) -> NormalPosterior:
    if noise_var <= 0:
        raise ValueError("noise variance must be positive")
    try:
        prior_prec = np.linalg.inv(prior_cov)
    except np.linalg.LinAlgError:
        raise SingularPrior("prior covariance is singular") from None
    post_prec = prior_prec + xtx / noise_var
    try:
        post_cov = np.linalg.inv(post_prec)
    except np.linalg.LinAlgError:
        raise SingularPosterior("posterior precision is singular") from None
    post_cov = 0.5 * (post_cov + post_cov.T)
    post_mean = post_cov @ (prior_prec @ prior_mean + xty / noise_var)
    return NormalPosterior(post_mean, post_cov, labels)


def analyst1_posterior(ds: CombinedDataset, sigma2: float,
                       prior: NormalPosterior | None = None) -> NormalPosterior:
    """Overall-effect posterior from trial data only, under the two-
    parameter normal outcome model with known noise variance."""
    prior = prior or flat_prior(2)
    cs = ds.cell_stats
    # design [1, t] over the RCT rows
    n1 = float(cs.n[:, TREATED].sum())
    n = n1 + float(cs.n[:, CONTROL].sum())
    s1 = float(cs.total[:, TREATED].sum())
    xtx = np.array([[n, n1], [n1, n1]])
    xty = np.array([s1 + float(cs.total[:, CONTROL].sum()), s1])
    return _conjugate_update(xtx, xty, sigma2, prior.mean, prior.cov, ("mu", "theta"))


def analyst2_posterior(ds: CombinedDataset, phi2: float,
                       prior: NormalPosterior | None = None) -> NormalPosterior:
    """Subgroup-effects posterior from trial plus external data, treating
    external outcomes as exchangeable with trial controls."""
    k = ds.k
    prior = prior or flat_prior(2 * k)
    cs = ds.cell_stats
    # design [onehot(w), onehot(w) * t] over the RCT rows, then the EC rows
    # with the treatment block zero
    n_all = np.diag(cs.n.sum(axis=1).astype(float))
    n1 = np.diag(cs.n[:, TREATED].astype(float))
    xtx = np.block([[n_all, n1], [n1, n1]])
    xty = np.concatenate([cs.total.sum(axis=1), cs.total[:, TREATED]])
    labels = (*(f"mu[{i + 1}]" for i in range(k)),
              *(f"theta[{i + 1}]" for i in range(k)))
    return _conjugate_update(xtx, xty, phi2, prior.mean, prior.cov, labels)


def _mix_design(s2: np.ndarray, sp: np.ndarray, pi: np.ndarray,
                v1: float) -> tuple[np.ndarray, np.ndarray]:
    """What `_mix_over_overall` computes without the means: the gain sp /
    (pi'sp) of the mean's correction and the covariance."""
    v_theta2 = float(pi @ sp)
    if not v_theta2 > 0:
        raise SingularPosterior("subgroup posterior is degenerate along the prevalences")
    cov = s2 + (v1 - v_theta2) / v_theta2 ** 2 * np.outer(sp, sp)
    return sp / v_theta2, 0.5 * (cov + cov.T)


def _mix_mean(m2: np.ndarray, gain: np.ndarray, pi: np.ndarray, m1: float) -> np.ndarray:
    return m2 + gain * (m1 - float(pi @ m2))


def _theta_labels(k: int) -> tuple[str, ...]:
    return tuple(f"theta[{i + 1}]" for i in range(k))


def _mix_over_overall(m2: np.ndarray, s2: np.ndarray, sp: np.ndarray, pi: np.ndarray,
                      m1: float, v1: float) -> NormalPosterior:
    """The subgroup posterior N(m2, s2) of theta, with sp = s2 pi,
    conditioned on pi'theta and mixed over pi'theta ~ N(m1, v1); v1 = 0
    conditions on pi'theta = m1."""
    gain, cov = _mix_design(s2, sp, pi, v1)
    return NormalPosterior(_mix_mean(m2, gain, pi, m1), cov, _theta_labels(len(pi)))


def cut_distribution(p1: NormalPosterior, p2: NormalPosterior,
                     prevalences) -> NormalPosterior:
    """Mix the subgroup analyst's conditional (given the overall effect)
    over the primary analyst's posterior for that overall effect."""
    pi = np.asarray(prevalences, dtype=float)
    m1, v1 = p1.block("theta")
    m2, s2 = p2.block("theta")
    return _mix_over_overall(m2, s2, s2 @ pi, pi, float(m1[0]), float(v1[0, 0]))


def _flat_theta(n1, n0, phi2: float):
    """The design part of theta's posterior in the model [mu, theta] with
    known noise variance phi2 and the `flat_prior`, from n1 treated and n0
    control outcomes (arrays work per subgroup): the weights and divisor
    (n0 + c, n1, det) of its mean ((n0 + c) s1 - n1 s0) / det, where s1 and
    s0 sum the treated and control outcomes (`_flat_mean`), and its
    variance. The 2x2 precision [[n, n1], [n1, n1]] / phi2 + I / 1e4 is
    inverted in closed form, its determinant times phi2^2 written without
    cancellation."""
    c = phi2 / FLAT_PRIOR_VARIANCE
    n = n0 + n1
    det = n1 * n0 + c * (n + n1) + c * c
    return (n0 + c, n1, det), phi2 * (n + c) / det


def _flat_mean(weights, s1, s0):
    a, b, det = weights
    return (a * s1 - b * s0) / det


@dataclass(frozen=True)
class FlatCutDesign:
    """The part of the flat-prior cut that the cell counts, the outcome
    variance and the prevalences fix: the weights of the primary analyst's
    theta (`overall`) and of the subgroup analyst's theta_k (`subgroups`),
    and the cut's gain and covariance. `mean` adds a dataset's outcome sums;
    the replicates of a batch share one design."""

    pi: np.ndarray
    overall: tuple
    subgroups: tuple
    gain: np.ndarray
    cov: np.ndarray
    labels: tuple[str, ...]

    def mean(self, cs: CellStats) -> np.ndarray:
        """The cut mean on the cell statistics `cs` of a dataset with this
        design."""
        s1 = cs.total[:, TREATED]
        m1 = _flat_mean(self.overall, s1.sum(), cs.total[:, CONTROL].sum())
        m2 = _flat_mean(self.subgroups, s1, cs.total[:, CONTROL] + cs.total[:, EC_CONTROL])
        return _mix_mean(m2, self.gain, self.pi, m1)


def flat_cut_design(n1, n0, ne, phi2: float, prevalences) -> FlatCutDesign:
    """The design part of the flat-prior cut, the `cut_distribution` of
    `analyst1_posterior` and `analyst2_posterior` under `flat_prior`, from
    the per-subgroup counts of treated, trial-control and external-control
    patients.

    Under the flat prior the subgroup analyst's theta_k are independent,
    with means m2 and variances s2, so with sp = s2 * pi the cut has mean
    m2 + sp / (pi'sp) (m1 - pi'm2) and covariance diag(s2) + (v1 - pi'sp) /
    (pi'sp)^2 sp sp', where (m1, v1) is the primary analyst's theta. Only
    m1 and m2 read the outcomes.
    """
    pi = np.asarray(prevalences, dtype=float)
    n1, n0 = n1.astype(float), n0.astype(float)
    overall, v1 = _flat_theta(n1.sum(), n0.sum(), phi2)
    subgroups, s2 = _flat_theta(n1, n0 + ne, phi2)
    gain, cov = _mix_design(np.diag(s2), s2 * pi, pi, v1)
    return FlatCutDesign(pi, overall, subgroups, gain, cov, _theta_labels(len(pi)))
