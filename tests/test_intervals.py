import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from subharm import (
    FULL,
    CombinedDataset,
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
from subharm.intervals import _quantiles
from subharm.rng import ROLE_BOOT_CONTROL, ROLE_BOOT_EXTERNAL, ROLE_BOOT_TREATED, stream

from conftest import balanced_dataset, records_dataset

# a NaN or an overflow warning in an interval fails the test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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

    @pytest.mark.parametrize("skew", [{"prevalences": (0.05,) * 5 + (0.15,) * 5},
                                      {"n_rct_treated": (2, 2, 2, 3, 3, 5, 8, 8, 10, 10)}])
    def test_coverage_off_proportional_designs(self, skew):
        # the stratified variance assumed n1_k = pi_k n_r1 and n0_k = pi_k
        # n_r0, and covered 0.876-0.995 on these fig1-s1 designs
        from dataclasses import replace

        from subharm import load_preset, run_monte_carlo

        spec = replace(load_preset("fig1-s1"), **skew)
        bd = {"kind": "harmonized", "name": "bd", "initial": "diff_means_pooled",
              "lambda": "full", "sigma_mode": "bd"}
        rep = run_monte_carlo(spec, [bd], reps=4000, seed=11, intervals=("analytic",))
        coverage = rep.interval_stats["analytic"]["coverage"]
        assert np.all((0.93 <= coverage) & (coverage <= 0.97)), coverage

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

    def test_replicate_failure_survives_pickling(self):
        # what a worker process raises reaches the main process pickled
        import pickle

        from subharm.errors import ReplicateFailure

        back = pickle.loads(pickle.dumps(ReplicateFailure(3, "non-finite bootstrap estimate")))
        assert type(back) is ReplicateFailure and back.replicate == 3
        assert str(back) == "bootstrap draw 3: non-finite bootstrap estimate"

    def test_fewer_than_100_draws_is_a_config_error(self):
        ds = balanced_dataset(k=2, n_t=4, n_c=4, n_e=6, seed=15)
        with pytest.raises(ConfigError, match="bootstrap_r >= 100"):
            _bootstrap(ds, r=99)

    def test_centered_at_observed_estimate(self):
        ds = balanced_dataset(k=2, n_t=6, n_c=6, n_e=10, gamma=[1, 1], seed=12)
        iv = _bootstrap(ds, r=500, seed=13)
        np.testing.assert_allclose((iv.lower + iv.upper) / 2, iv.point, atol=1e-12)


def drawn_bootstrap_half_widths(dc, u, params, r, alpha, seed, replicate):
    """The bootstrap's half widths by its first draw path: broadcast
    `Generator.normal` draws of every cell-mean family and `np.quantile`."""
    n1 = dc.counts[:, 1, 0].astype(float)
    n0r = dc.counts[:, 0, 0].astype(float)
    ne = dc.counts[:, 0, 1].astype(float)
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
    theta_r = (m1 * n1).sum(axis=1) / n1.sum() - (m0 * n0r).sum(axis=1) / n0r.sum()
    draws = theta_pool + (theta_r - theta_pool @ dc.pi)[:, None] * u[None, :]
    lo, hi = np.quantile(draws, [alpha / 2.0, 1.0 - alpha / 2.0], axis=0)
    return (hi - lo) / 2.0


@st.composite
def bootstrap_cases(draw):
    """A design with an empty trial-control or EC cell in some subgroups,
    the outcome model, prevalences, a shift vector and the draw settings."""
    k = draw(st.integers(1, 6))
    cells = st.lists(st.integers(0, 9), min_size=k, max_size=k)
    n_t = np.array(draw(st.lists(st.integers(1, 9), min_size=k, max_size=k)))
    n_c, n_e = np.array(draw(cells)), np.array(draw(cells))
    n_c[draw(st.integers(0, k - 1))] += 1
    n_e[n_c + n_e == 0] = 1
    vec = st.lists(st.floats(-3, 3), min_size=k, max_size=k).map(np.array)
    params = SimpleModelParams(mu=draw(vec), theta=draw(vec), gamma=draw(vec),
                               phi2=draw(st.floats(1e-3, 1e3)))
    p = np.array(draw(st.lists(st.floats(0.01, 1), min_size=k, max_size=k)))
    return (n_t, n_c, n_e, params, p / p.sum(), draw(vec), draw(st.integers(100, 3000)),
            draw(st.floats(0.001, 0.5)), draw(st.integers(0, 2**32 - 1)),
            draw(st.integers(0, 10**6)))


@settings(max_examples=150, deadline=None)
@given(bootstrap_cases())
def test_bootstrap_bounds_equal_the_drawn_path(case):
    n_t, n_c, n_e, params, pi, u, r, alpha, seed, replicate = case
    k = len(n_t)
    w_r = np.repeat(np.arange(k), n_t + n_c)
    t_r = np.concatenate([np.r_[np.ones(a, dtype=int), np.zeros(b, dtype=int)]
                          for a, b in zip(n_t, n_c)])
    w_e = np.repeat(np.arange(k), n_e)
    ds = CombinedDataset.from_arrays(y_rct=np.zeros(len(w_r)), t_rct=t_r, w_rct=w_r,
                                     y_ec=np.zeros(len(w_e)), w_ec=w_e, k=k)
    dc = compute_design_counts(ds, pi)
    point = np.linspace(-1.0, 1.0, k)
    iv = bootstrap_interval(ds, dc, point, u, r, alpha, seed, params, replicate)
    half = drawn_bootstrap_half_widths(dc, u, params, r, alpha, seed, replicate)
    assert np.array_equal(iv.lower, point - half) and np.array_equal(iv.upper, point + half)


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 60), st.integers(1, 4)),
              elements=st.one_of(st.sampled_from([-2.5, -1.0, 0.0, 0.5, 3.0]),
                                 st.floats(-1e3, 1e3))),
       st.lists(st.one_of(st.just(0.0), st.just(1.0), st.floats(0, 1)), min_size=1,
                max_size=4))
def test_quantiles_are_numpys_linear_quantiles(a, probs):
    # the sampled values repeat, so order statistics tie
    want = np.quantile(a, probs, axis=0)
    got = np.array(_quantiles(a, probs))
    assert got.tobytes() == want.tobytes()


class TestDispatcher:
    @pytest.mark.parametrize("mode", ["bd", "vd", "fixed"])
    @pytest.mark.parametrize("lam", [2.0, "full"])
    def test_intervals_use_the_target_shift(self, mode, lam):
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
        got = interval("analytic", ctx, cfg, 0.05, phi2=1.3)
        want = analytic_interval(point, analytic_bias_variance(dc, np.zeros(4), sigma,
                                                               cfg.lam, 1.3)[1])
        np.testing.assert_allclose(got.lower, want.lower, rtol=1e-12)
        np.testing.assert_allclose(got.upper, want.upper, rtol=1e-12)
        got = interval("bootstrap", ctx, cfg, 0.05, r=200, seed=4)
        want = bootstrap_interval(ds, dc, point, u, r=200, seed=4)
        np.testing.assert_allclose(got.lower, want.lower, rtol=1e-12)
        np.testing.assert_allclose(got.upper, want.upper, rtol=1e-12)
