import numpy as np
import pytest

from subharm import (
    FULL,
    NormalPosterior,
    SimpleModelParams,
    analytic_interval,
    bootstrap_interval,
    compute_design_counts,
    cut_interval,
    diff_means_overall,
    diff_means_pooled_subgroups,
    harmonize,
    rct_only_interval,
    shift_vector,
)
from subharm.errors import ConfigError, InsufficientData, NegativeVariance
from subharm.estimators import EffectEstimate

from conftest import balanced_dataset, records_dataset


def _bootstrap(ds, **kw):
    """Bootstrap interval around the fully harmonized difference-of-means
    estimate (identity sigma) on the empirical design."""
    dc = compute_design_counts(ds)
    u = shift_vector(dc.pi)
    point = harmonize(diff_means_pooled_subgroups(ds), diff_means_overall(ds),
                      dc.pi, u).theta_k
    return bootstrap_interval(ds, dc, point, u, **kw)


class TestAnalytic:
    def test_zero_variance_zero_width(self):
        iv = analytic_interval(np.array([1.0, -1.0]), np.zeros((2, 2)), 0.05)
        np.testing.assert_array_equal(iv.lower, iv.upper)
        np.testing.assert_array_equal(iv.lower, [1.0, -1.0])

    def test_fig1_width(self):
        v = 0.23636363636363636
        iv = analytic_interval(np.zeros(1), np.array([[v]]), 0.05)
        assert iv.width[0] / 2 == pytest.approx(1.959964 * np.sqrt(v), abs=1e-4)
        assert iv.width[0] / 2 == pytest.approx(0.9529, abs=1e-3)

    def test_one_sigma_level(self):
        iv = analytic_interval(np.zeros(1), np.array([[0.04]]), alpha=0.3173)
        assert iv.width[0] / 2 == pytest.approx(0.2, rel=1e-3)

    def test_negative_variance(self):
        with pytest.raises(NegativeVariance):
            analytic_interval(np.zeros(1), np.array([[-0.1]]), 0.05)

    def test_accepts_effect_estimate(self):
        est = EffectEstimate(theta_k=np.array([0.5]))
        iv = analytic_interval(est, np.array([[1.0]]), 0.05)
        assert iv.point[0] == 0.5
        assert iv.lower[0] < 0.5 < iv.upper[0]


class TestCut:
    def test_alpha_one_zero_width(self):
        dist = NormalPosterior(np.array([0.2]), np.array([[0.5]]), ("theta[1]",))
        iv = cut_interval(dist, alpha=1.0)
        np.testing.assert_allclose(iv.width, 0.0, atol=1e-12)

    def test_width_monotone_in_primary_uncertainty(self):
        s2 = np.diag([0.2, 0.3])
        pi = np.array([0.5, 0.5])
        sp = s2 @ pi
        v2 = float(pi @ sp)
        widths = []
        for v1 in (0.5 * v2, v2, 2 * v2, 4 * v2):
            cov = s2 + (v1 - v2) / v2 ** 2 * np.outer(sp, sp)
            dist = NormalPosterior(np.zeros(2), cov, ("theta[1]", "theta[2]"))
            widths.append(cut_interval(dist, 0.05).width[0])
        assert np.all(np.diff(widths) > 0)


class TestRctOnly:
    def test_equal_arms_formula(self):
        # two arms with identical sample variance s^2 and size n
        ds = records_dataset(
            [(0.0, 1, 1), (2.0, 1, 1), (1.0, 0, 1), (3.0, 0, 1)], [], k=1)
        iv = rct_only_interval(ds, alpha=0.05)
        s2 = 2.0  # var of {0,2} with ddof=1
        want = 1.959964 * np.sqrt(2 * s2 / 2)
        assert iv.width[0] / 2 == pytest.approx(want, rel=1e-5)

    def test_insufficient_data(self):
        ds = records_dataset([(0.0, 1, 1), (1.0, 0, 1), (2.0, 0, 1)], [], k=1)
        with pytest.raises(InsufficientData):
            rct_only_interval(ds)

    def test_contains_point(self):
        ds = balanced_dataset(k=3, n_t=5, n_c=5, n_e=0, seed=6)
        iv = rct_only_interval(ds)
        assert np.all(iv.lower <= iv.point) and np.all(iv.point <= iv.upper)


class TestBootstrap:
    def test_zero_noise_zero_width(self):
        ds = balanced_dataset(k=2, n_t=4, n_c=4, n_e=6, seed=7)
        params = SimpleModelParams(mu=np.zeros(2), theta=np.zeros(2),
                                   gamma=np.zeros(2), phi2=0.0)
        iv = _bootstrap(ds, r=200, seed=1, params=params)
        np.testing.assert_allclose(iv.width, 0.0, atol=1e-12)

    def test_deterministic_for_fixed_seed(self):
        ds = balanced_dataset(k=2, n_t=6, n_c=6, n_e=10, seed=8)
        iv1 = _bootstrap(ds, r=300, seed=9)
        iv2 = _bootstrap(ds, r=300, seed=9)
        np.testing.assert_array_equal(iv1.lower, iv2.lower)
        np.testing.assert_array_equal(iv1.upper, iv2.upper)

    def test_width_converges_in_replicates(self):
        # fixed seed pair; nested replicate streams make the r=1000 run a
        # strict prefix of the r=4000 run
        ds = balanced_dataset(k=5, n_t=8, n_c=8, n_e=30, seed=9)
        w1 = _bootstrap(ds, r=1000, seed=3).width
        w2 = _bootstrap(ds, r=4000, seed=3).width
        assert np.all(np.abs(w1 / w2 - 1) < 0.05)

    def test_close_to_analytic_width(self):
        # moderate design: bootstrap and analytic widths agree within 10%
        from subharm import analytic_bias_variance

        ds = balanced_dataset(k=10, n_t=5, n_c=5, n_e=50, gamma=np.ones(10), seed=10)
        dc = compute_design_counts(ds)
        params = SimpleModelParams(mu=np.zeros(10), theta=np.zeros(10),
                                   gamma=np.ones(10), phi2=1.0)
        iv = _bootstrap(ds, r=4000, seed=11, params=params)
        _, vh = analytic_bias_variance(dc, np.ones(10), np.eye(10), FULL, 1.0)
        ana_width = 2 * 1.959964 * np.sqrt(np.diag(vh))
        assert np.all(np.abs(iv.width / ana_width - 1) < 0.10)

    def test_replicate_failure_carries_index(self):
        from subharm.errors import ReplicateFailure

        ds = balanced_dataset(k=2, n_t=4, n_c=4, n_e=6, seed=14)
        params = SimpleModelParams(mu=np.array([np.nan, 0.0]),
                                   theta=np.zeros(2), gamma=np.zeros(2), phi2=1.0)
        with pytest.raises(ReplicateFailure) as err:
            _bootstrap(ds, r=100, seed=2, params=params)
        assert err.value.replicate == 0

    def test_fewer_than_100_draws_is_a_config_error(self):
        ds = balanced_dataset(k=2, n_t=4, n_c=4, n_e=6, seed=15)
        with pytest.raises(ConfigError, match="bootstrap_r >= 100"):
            _bootstrap(ds, r=99)

    def test_centered_at_observed_estimate(self):
        ds = balanced_dataset(k=2, n_t=6, n_c=6, n_e=10, gamma=[1, 1], seed=12)
        iv = _bootstrap(ds, r=500, seed=13)
        np.testing.assert_allclose((iv.lower + iv.upper) / 2, iv.point, atol=1e-12)


class TestDispatcher:
    @pytest.mark.parametrize("mode", ["bd", "vd", "fixed"])
    @pytest.mark.parametrize("lam", [2.0, "full"])
    def test_intervals_use_the_target_shift(self, mode, lam):
        from functools import partial

        from subharm import analytic_bias_variance, solve_sigma_from_b, vd_sigma
        from subharm.harmonize import bd_direction_diff_means
        from subharm.intervals import interval
        from subharm.sim import _ReplicateContext, parse_estimator

        from subharm import ScenarioSpec, generate_scenario

        spec = ScenarioSpec(name="uneven", outcome_family="continuous", k=4,
                            n_rct_treated=(5, 6, 7, 8), n_rct_control=(6, 6, 5, 7),
                            n_ec=(10, 20, 30, 40), mu=(0,) * 4, theta=(0.5,) * 4,
                            distortion=(1, 0.5, 0, 1))
        ds = generate_scenario(spec, seed=21)
        dc = compute_design_counts(ds)
        ctx = _ReplicateContext(ds, dc)
        cfg = parse_estimator({"kind": "harmonized", "initial": "diff_means_pooled",
                               "overall": "diff_means", "lambda": lam, "sigma_mode": mode})
        sigma = {"bd": solve_sigma_from_b(bd_direction_diff_means(dc), dc.pi),
                 "vd": vd_sigma(diff_means_pooled_subgroups(ds)),
                 "fixed": np.eye(4)}[mode]
        u = shift_vector(dc.pi, sigma, cfg.lam)
        point = harmonize(diff_means_pooled_subgroups(ds), diff_means_overall(ds), dc.pi,
                          u).theta_k
        target = partial(ctx.harmonized, cfg)
        got = interval("analytic", ds, dc, 0.05, phi2=1.3, target=target)
        want = analytic_interval(point, analytic_bias_variance(dc, np.zeros(4), sigma,
                                                               cfg.lam, 1.3)[1])
        np.testing.assert_allclose(got.lower, want.lower, rtol=1e-12)
        np.testing.assert_allclose(got.upper, want.upper, rtol=1e-12)
        got = interval("bootstrap", ds, dc, 0.05, target=target, r=200, seed=4)
        want = bootstrap_interval(ds, dc, point, u, r=200, seed=4)
        np.testing.assert_allclose(got.lower, want.lower, rtol=1e-12)
        np.testing.assert_allclose(got.upper, want.upper, rtol=1e-12)
