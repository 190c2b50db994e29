"""Independent reference computations that the tests check the package
against. None of them is part of the package's API."""

import math

import numpy as np

from subharm.bayes import NormalPosterior, _mix_over_overall
from subharm.errors import ConfigError


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
