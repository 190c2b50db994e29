import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subharm import (
    CombinedDataset,
    NormalPosterior,
    analyst1_posterior,
    analyst2_posterior,
    compute_design_counts,
    cut_distribution,
    diff_means_overall,
    diff_means_pooled_subgroups,
    external_estimate,
    flat_prior,
    harmonize,
    shift_vector,
)
from subharm.bayes import flat_cut
from subharm.errors import SingularPrior

from conftest import balanced_dataset
from oracles import plug_in_distribution


def proportional_dataset(rng, k=3, base_t=4, base_c=3, ec=None):
    """Design with identical randomization ratios across subgroups."""
    mult = rng.integers(1, 4, size=k)
    n_t = base_t * mult
    n_c = base_c * mult
    n_e = rng.integers(2, 30, size=k) if ec is None else np.asarray(ec)
    w_r = np.repeat(np.arange(k), n_t + n_c)
    t_r = np.concatenate([np.r_[np.ones(a, dtype=int), np.zeros(b, dtype=int)]
                          for a, b in zip(n_t, n_c)])
    w_e = np.repeat(np.arange(k), n_e)
    y_r = rng.normal(0, 1, len(w_r)) + 0.5 * t_r
    y_e = rng.normal(0.8, 1, len(w_e))
    return CombinedDataset.from_arrays(y_rct=y_r, t_rct=t_r, w_rct=w_r,
                                       y_ec=y_e, w_ec=w_e, k=k)


class TestAnalyst1:
    def test_flat_prior_matches_diff_means(self, rng):
        ds = balanced_dataset(k=2, n_t=10, n_c=10, n_e=0, theta=[0.5, 0.5], seed=1)
        post = analyst1_posterior(ds, sigma2=1.0, prior=flat_prior(2, 1e8))
        target = diff_means_overall(ds)
        assert post.mean[1] == pytest.approx(target, abs=1e-6)

    def test_dogmatic_prior_stays_put(self, rng):
        ds = balanced_dataset(k=2, n_t=5, n_c=5, n_e=0, seed=2)
        prior = NormalPosterior(np.array([0.3, 1.7]), 1e-12 * np.eye(2),
                                ("mu", "theta"))
        post = analyst1_posterior(ds, sigma2=1.0, prior=prior)
        np.testing.assert_allclose(post.mean, prior.mean, atol=1e-6)

    def test_doubling_data_halves_variance(self):
        ds1 = balanced_dataset(k=1, n_t=20, n_c=20, n_e=0, seed=3)
        ds2 = CombinedDataset.from_arrays(
            y_rct=np.tile(ds1.y_rct, 2), t_rct=np.tile(ds1.t_rct, 2),
            w_rct=np.tile(ds1.w_rct, 2), y_ec=np.zeros(0),
            w_ec=np.zeros(0, dtype=int), k=1)
        v1 = analyst1_posterior(ds1, 1.0).block("theta")[1][0, 0]
        v2 = analyst1_posterior(ds2, 1.0).block("theta")[1][0, 0]
        assert v2 == pytest.approx(v1 / 2, rel=0.01)

    def test_singular_prior(self):
        ds = balanced_dataset(k=1, n_t=3, n_c=3, n_e=0)
        prior = NormalPosterior(np.zeros(2), np.zeros((2, 2)), ("mu", "theta"))
        with pytest.raises(SingularPrior):
            analyst1_posterior(ds, 1.0, prior)


class TestAnalyst2:
    def test_flat_prior_matches_pooled_diff_means(self, rng):
        ds = proportional_dataset(rng)
        post = analyst2_posterior(ds, phi2=1.0, prior=flat_prior(2 * ds.k, 1e8))
        target = diff_means_pooled_subgroups(ds).theta_k
        np.testing.assert_allclose(post.block("theta")[0], target, atol=1e-6)

    def test_no_ec_reduces_to_rct_only_model(self, rng):
        ds = balanced_dataset(k=2, n_t=6, n_c=6, n_e=4, seed=4)
        ds_no_ec = CombinedDataset.from_arrays(
            y_rct=ds.y_rct, t_rct=ds.t_rct, w_rct=ds.w_rct,
            y_ec=np.zeros(0), w_ec=np.zeros(0, dtype=int), k=2)
        post = analyst2_posterior(ds_no_ec, 1.0, flat_prior(4, 1e8))
        m1 = ds.rct_mask(0, 1)
        m0 = ds.rct_mask(0, 0)
        assert post.block("theta")[0][0] == pytest.approx(
            ds.y_rct[m1].mean() - ds.y_rct[m0].mean(), abs=1e-6)

    def test_empty_subgroup_keeps_prior(self):
        ds = CombinedDataset.from_arrays(
            y_rct=np.array([1.0, 0.0]), t_rct=np.array([1, 0]),
            w_rct=np.array([0, 0]), y_ec=np.zeros(0), w_ec=np.zeros(0, dtype=int),
            k=2)
        prior = NormalPosterior(np.array([0.0, 0.0, 0.25, -0.5]),
                                np.diag([1.0, 1.0, 1.0, 1.0]),
                                ("mu[1]", "mu[2]", "theta[1]", "theta[2]"))
        post = analyst2_posterior(ds, 1.0, prior)
        assert post.mean[3] == pytest.approx(-0.5)
        assert post.cov[3, 3] == pytest.approx(1.0)


class TestCut:
    def test_mean_equals_vd_full_harmonization(self, rng):
        for _ in range(10):
            ds = proportional_dataset(rng)
            dc = compute_design_counts(ds)
            p1 = analyst1_posterior(ds, 1.0)
            p2 = analyst2_posterior(ds, 1.0)
            cut = cut_distribution(p1, p2, dc.pi)
            m2, s2 = p2.block("theta")
            vd = harmonize(external_estimate(m2, s2), float(p1.block("theta")[0][0]),
                           dc.pi, shift_vector(dc.pi, s2))
            np.testing.assert_allclose(cut.mean, vd.theta_k, atol=1e-10)

    def test_matching_overall_variances_collapse_correction(self, rng):
        ds = proportional_dataset(rng)
        dc = compute_design_counts(ds)
        p2 = analyst2_posterior(ds, 1.0)
        m2, s2 = p2.block("theta")
        v2 = float(dc.pi @ s2 @ dc.pi)
        p1 = NormalPosterior(np.array([0.0, 0.1]), np.diag([1.0, v2]),
                             ("mu", "theta"))
        cut = cut_distribution(p1, p2, dc.pi)
        np.testing.assert_allclose(cut.cov, s2, atol=1e-12)

    def test_pi_quadratic_form_inherits_analyst1_variance(self, rng):
        ds = proportional_dataset(rng)
        dc = compute_design_counts(ds)
        p1 = analyst1_posterior(ds, 1.0)
        p2 = analyst2_posterior(ds, 1.0)
        cut = cut_distribution(p1, p2, dc.pi)
        v1 = float(p1.block("theta")[1][0, 0])
        assert float(dc.pi @ cut.cov @ dc.pi) == pytest.approx(v1, abs=1e-9)
        np.testing.assert_allclose(cut.cov, cut.cov.T, atol=1e-12)


class TestPlugIn:
    def test_mean_matches_cut_mean(self, rng):
        ds = proportional_dataset(rng)
        dc = compute_design_counts(ds)
        p1 = analyst1_posterior(ds, 1.0)
        p2 = analyst2_posterior(ds, 1.0)
        theta_a1 = float(p1.block("theta")[0][0])
        cut = cut_distribution(p1, p2, dc.pi)
        plug = plug_in_distribution(p2, dc.pi, theta_a1)
        np.testing.assert_allclose(plug.mean, cut.mean, atol=1e-12)

    def test_degenerate_along_prevalences(self, rng):
        ds = proportional_dataset(rng)
        dc = compute_design_counts(ds)
        p2 = analyst2_posterior(ds, 1.0)
        plug = plug_in_distribution(p2, dc.pi, 0.3)
        assert abs(float(dc.pi @ plug.cov @ dc.pi)) < 1e-10

    def test_bivariate_conditioning_oracle(self):
        # K=2: condition a known bivariate normal directly
        m = np.array([0.4, -0.2])
        s = np.array([[0.5, 0.1], [0.1, 0.3]])
        pi = np.array([0.5, 0.5])
        p2 = NormalPosterior(np.r_[np.zeros(2), m],
                             np.block([[np.eye(2), np.zeros((2, 2))],
                                       [np.zeros((2, 2)), s]]),
                             ("mu[1]", "mu[2]", "theta[1]", "theta[2]"))
        t = 0.25
        plug = plug_in_distribution(p2, pi, t)
        # direct conditioning of (theta1, theta2) on pi'theta = t
        a = s @ pi
        v = float(pi @ a)
        want_mean = m + a / v * (t - pi @ m)
        want_cov = s - np.outer(a, a) / v
        np.testing.assert_allclose(plug.mean, want_mean, atol=1e-12)
        np.testing.assert_allclose(plug.cov, want_cov, atol=1e-12)


@st.composite
def cut_designs(draw):
    """(cell sizes, prevalences, phi2, outcome seed) of designs with unequal
    arms, empty EC cells and subgroups with no treated patients; every
    subgroup has controls, as `compute_design_counts` requires. The
    prevalences are the user's or, when every subgroup is in the trial,
    the empirical ones."""
    k = draw(st.integers(1, 6))
    cells = st.lists(st.integers(0, 9), min_size=k, max_size=k)
    n_t, n_c, n_e = (np.array(draw(cells)) for _ in range(3))
    n_t[draw(st.integers(0, k - 1))] += 1
    n_c[draw(st.integers(0, k - 1))] += 1
    n_e[n_c + n_e == 0] = 1
    p = np.array(draw(st.lists(st.floats(0.01, 1), min_size=k, max_size=k)))
    pi = p / p.sum() if draw(st.booleans()) or np.any(n_t + n_c == 0) else None
    return n_t, n_c, n_e, pi, 10.0 ** draw(st.floats(-3, 3)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(cut_designs())
def test_closed_form_cut_matches_the_matrix_route(design):
    n_t, n_c, n_e, pi, phi2, seed = design
    k = len(n_t)
    rng = np.random.default_rng(seed)
    w_r = np.repeat(np.arange(k), n_t + n_c)
    t_r = np.concatenate([np.r_[np.ones(a, dtype=int), np.zeros(b, dtype=int)]
                          for a, b in zip(n_t, n_c)])
    w_e = np.repeat(np.arange(k), n_e)
    sd = np.sqrt(phi2)
    ds = CombinedDataset.from_arrays(
        y_rct=rng.normal(1.0 + 0.4 * t_r, sd), t_rct=t_r, w_rct=w_r,
        y_ec=rng.normal(1.6, sd, len(w_e)), w_ec=w_e, k=k)
    pi = compute_design_counts(ds, pi).pi
    p1 = analyst1_posterior(ds, phi2, flat_prior(2))
    p2 = analyst2_posterior(ds, phi2, flat_prior(2 * k))
    want = cut_distribution(p1, p2, pi)
    got = flat_cut(ds, phi2, pi)
    assert got.labels == want.labels
    # relative to the size of the terms each entry sums: theta's means are
    # differences of cell means, and a subgroup with no treated patients
    # keeps theta's prior variance, 1e4, which the cut covariance cancels
    # down to the primary analyst's scale
    m1, v1 = (float(a.ravel()[0]) for a in p1.block("theta"))
    m2, s2 = p2.block("theta")
    s2 = np.diag(s2)
    sp = s2 * pi
    v = float(pi @ sp)
    mean_terms = np.abs(ds.cell_stats.mean).max() + sp / v * (abs(m1) + pi @ np.abs(m2))
    var_terms = s2 + (v1 + v) / v ** 2 * sp ** 2
    assert np.all(np.abs(got.mean - want.mean) <= 1e-12 * mean_terms)
    assert np.all(np.abs(np.diag(got.cov) - np.diag(want.cov)) <= 1e-12 * var_terms)
