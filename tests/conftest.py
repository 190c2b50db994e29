import numpy as np
import pytest

from subharm import CombinedDataset


def balanced_dataset(k=2, n_t=6, n_c=6, n_e=10, mu=None, theta=None, gamma=None,
                     phi=1.0, seed=0, family="continuous", d=0, beta=(),
                     x_mean_ec=0.0):
    """Deterministic-design dataset with normal (or Bernoulli) outcomes."""
    rng = np.random.default_rng(seed)
    mu = np.zeros(k) if mu is None else np.asarray(mu, float)
    theta = np.zeros(k) if theta is None else np.asarray(theta, float)
    gamma = np.zeros(k) if gamma is None else np.asarray(gamma, float)
    beta = np.asarray(beta, float)
    w_r = np.repeat(np.arange(k), n_t + n_c)
    t_r = np.tile(np.r_[np.ones(n_t, dtype=int), np.zeros(n_c, dtype=int)], k)
    w_e = np.repeat(np.arange(k), n_e)
    x_r = rng.normal(0, 1, (len(w_r), d)) if d else None
    x_e = rng.normal(x_mean_ec, 1, (len(w_e), d)) if d else None
    lp_r = mu[w_r] + theta[w_r] * t_r + (x_r @ beta if d else 0.0)
    lp_e = mu[w_e] + gamma[w_e] + (x_e @ beta if d else 0.0)
    if family == "continuous":
        y_r = lp_r + rng.normal(0, phi, len(w_r))
        y_e = lp_e + rng.normal(0, phi, len(w_e))
    else:
        from scipy.special import expit
        y_r = (rng.random(len(w_r)) < expit(lp_r)).astype(float)
        y_e = (rng.random(len(w_e)) < expit(lp_e)).astype(float)
    return CombinedDataset.from_arrays(
        y_rct=y_r, t_rct=t_r, w_rct=w_r, y_ec=y_e, w_ec=w_e, k=k,
        x_rct=x_r, x_ec=x_e, outcome_family=family)


def records_dataset(rows_rct, rows_ec, k, d=0, family="continuous"):
    """rows: list of (outcome, treatment, subgroup[, covariates]) with 1-based
    subgroups; external-control rows carry treatment 0."""
    def columns(rows):
        y = np.array([r[0] for r in rows], dtype=float)
        t = np.array([r[1] for r in rows], dtype=np.int64)
        w = np.array([r[2] - 1 for r in rows], dtype=np.int64)
        x = np.array([r[3] if len(r) > 3 else () for r in rows], dtype=float)
        return y, t, w, x.reshape(len(rows), d)

    y_r, t_r, w_r, x_r = columns(rows_rct)
    y_e, t_e, w_e, x_e = columns(rows_ec)
    assert not t_e.any(), "external-control rows must have treatment 0"
    return CombinedDataset.from_arrays(
        y_rct=y_r, t_rct=t_r, w_rct=w_r, y_ec=y_e, w_ec=w_e, k=k,
        x_rct=x_r, x_ec=x_e, outcome_family=family)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
