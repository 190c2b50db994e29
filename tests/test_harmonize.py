import numpy as np
import pytest

from subharm import (
    FULL,
    analytic_bias_variance,
    bd_direction_glm,
    bd_direction_linear,
    build_limit_map_spec,
    compute_design_counts,
    diff_means_overall,
    diff_means_pooled_subgroups,
    external_estimate,
    harmonize,
    harmonize_objective_oracle,
    limit_map_theta,
    mse_difference,
    parse_lambda,
    rct_only_subgroups,
    shift_vector,
    solve_sigma_from_b,
    vd_sigma,
)
from subharm.errors import (
    ConfigError,
    DegenerateDirection,
    InconsistentDimensions,
    MissingCovariance,
    NumericalError,
    SingularSigma,
)
from subharm.estimators import EffectEstimate
from subharm.harmonize import BiasModel

from conftest import balanced_dataset


def random_pd(rng, k):
    a = rng.normal(size=(k, k))
    return a @ a.T + k * np.eye(k) * 0.1


def random_simplex(rng, k):
    p = rng.uniform(0.2, 1.0, k)
    return p / p.sum()


class TestClosedForm:
    def test_lambda_zero_identity(self, rng):
        theta = rng.normal(size=4)
        est = external_estimate(theta)
        pi = random_simplex(rng, 4)
        out = harmonize(est, 2.0, pi, shift_vector(pi, random_pd(rng, 4), 0.0))
        np.testing.assert_array_equal(out.theta_k, theta)

    def test_full_worked_example(self):
        est = external_estimate([1.0, 0.0])
        out = harmonize(est, 1.0, [0.5, 0.5], shift_vector([0.5, 0.5]))
        np.testing.assert_allclose(out.theta_k, [1.5, 0.5], atol=1e-12)

    def test_lambda_one_worked_example(self):
        est = external_estimate([1.0, 0.0])
        out = harmonize(est, 1.0, [0.5, 0.5], shift_vector([0.5, 0.5], lam=1.0))
        np.testing.assert_allclose(out.theta_k, [7 / 6, 1 / 6], atol=1e-12)

    def test_matches_objective_oracle(self, rng):
        for _ in range(60):
            k = int(rng.integers(1, 7))
            theta = rng.normal(size=k)
            r = float(rng.normal())
            pi = random_simplex(rng, k)
            sigma = random_pd(rng, k)
            lam = float(rng.choice([0.0, 0.1, 1.0, 10.0, 1e6]))
            got = harmonize(external_estimate(theta), r, pi,
                            shift_vector(pi, sigma, lam)).theta_k
            want = harmonize_objective_oracle(theta, r, pi, sigma, lam)
            np.testing.assert_allclose(got, want, atol=1e-8)

    def test_shrinkage_matrix_identity(self, rng):
        # matrix-weighted-average form solved directly vs the shift form
        for lam in (0.1, 1.0, 10.0, 1e6):
            k = int(rng.integers(2, 9))
            theta = rng.normal(size=k)
            r = float(rng.normal())
            pi = random_simplex(rng, k)
            sigma = random_pd(rng, k)
            si = np.linalg.inv(sigma)
            direct = np.linalg.solve(si + lam * np.outer(pi, pi),
                                     si @ theta + lam * r * pi)
            got = harmonize(external_estimate(theta), r, pi,
                            shift_vector(pi, sigma, lam)).theta_k
            np.testing.assert_allclose(got, direct, atol=1e-8)

    def test_large_lambda_approaches_full(self, rng):
        k = 5
        theta = rng.normal(size=k)
        pi = random_simplex(rng, k)
        near = harmonize(external_estimate(theta), 0.3, pi,
                         shift_vector(pi, lam=1e8)).theta_k
        full = harmonize(external_estimate(theta), 0.3, pi,
                         shift_vector(pi)).theta_k
        np.testing.assert_allclose(near, full, atol=1e-6)

    def test_full_constraint(self, rng):
        for _ in range(25):
            k = int(rng.integers(1, 9))
            pi = random_simplex(rng, k)
            sigma = random_pd(rng, k)
            r = float(rng.normal())
            out = harmonize(external_estimate(rng.normal(size=k)), r, pi,
                            shift_vector(pi, sigma)).theta_k
            assert abs(pi @ out - r) < 1e-10

    def test_affine_superposition(self, rng):
        k = 4
        pi = random_simplex(rng, k)
        sigma = random_pd(rng, k)
        u = shift_vector(pi, sigma, 2.5)
        t1, t2 = rng.normal(size=k), rng.normal(size=k)
        r1, r2 = float(rng.normal()), float(rng.normal())
        a, b = 0.7, -1.3
        lhs = harmonize(external_estimate(a * t1 + b * t2), a * r1 + b * r2, pi, u).theta_k
        rhs = (a * harmonize(external_estimate(t1), r1, pi, u).theta_k
               + b * harmonize(external_estimate(t2), r2, pi, u).theta_k)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_sigma_equivalence_at_full(self, rng):
        k = 5
        pi = random_simplex(rng, k)
        b = rng.normal(size=k) + 2.0
        s1 = solve_sigma_from_b(b, pi)
        s2 = solve_sigma_from_b(3.7 * b, pi) + np.eye(k) * 0.0
        # different PD matrices whose product with pi is proportional to b
        theta = rng.normal(size=k)
        o1 = harmonize(external_estimate(theta), 0.4, pi,
                       shift_vector(pi, s1)).theta_k
        o2 = harmonize(external_estimate(theta), 0.4, pi,
                       shift_vector(pi, s2)).theta_k
        np.testing.assert_allclose(o1, o2, atol=1e-10)

    def test_direction_shortcut(self, rng):
        k = 3
        pi = random_simplex(rng, k)
        u = np.ones(k) / 1.0
        u = u / (pi @ u)
        theta = rng.normal(size=k)
        out = harmonize(external_estimate(theta), 1.0, pi, u).theta_k
        assert abs(pi @ out - 1.0) < 1e-10

    def test_validation_errors(self, rng):
        est = external_estimate([1.0, 2.0])
        with pytest.raises(InconsistentDimensions):
            harmonize(est, 0.0, [0.5, 0.3, 0.2], shift_vector([0.5, 0.3, 0.2]))
        with pytest.raises(SingularSigma):
            harmonize(est, 0.0, [0.5, 0.5],
                      shift_vector([0.5, 0.5], np.zeros((2, 2))))
        with pytest.raises(SingularSigma):
            harmonize(est, 0.0, [0.5, 0.5],
                      shift_vector([0.5, 0.5], np.array([[1.0, 2.0], [0.0, 1.0]])))

    def test_rejects_invalid_shift_vector(self):
        est, pi = external_estimate([1.0, 2.0]), [0.5, 0.5]
        with pytest.raises(InconsistentDimensions):
            harmonize(est, 0.0, pi, np.ones(3))
        with pytest.raises(NumericalError):
            harmonize(est, 0.0, pi, np.array([1.0, np.nan]))
        with pytest.raises(NumericalError):
            harmonize(est, 0.0, pi, np.array([np.inf, 1.0]))
        with pytest.raises(ConfigError):
            harmonize(est, 0.0, pi, np.array([2.0, 2.0]))
        with pytest.raises(ConfigError):
            harmonize(est, 0.0, pi, np.array([1.0, -1.5]))
        with pytest.raises(ConfigError):
            shift_vector(pi, lam=-1.0)
        # both ends of [0, 1] are shifts some lambda gives
        np.testing.assert_array_equal(harmonize(est, 0.0, pi, np.zeros(2)).theta_k, [1.0, 2.0])
        np.testing.assert_array_equal(harmonize(est, 0.0, pi, np.ones(2)).theta_k, [-0.5, 0.5])

    def test_parse_lambda(self):
        assert parse_lambda("full") == FULL
        assert parse_lambda(2) == 2.0
        with pytest.raises(ConfigError):
            parse_lambda(-1.0)
        with pytest.raises(ConfigError):
            parse_lambda("big")

    def test_joint_covariance_propagates(self, rng):
        k = 3
        pi = random_simplex(rng, k)
        s = random_pd(rng, k + 1)
        est = external_estimate(rng.normal(size=k))
        out0 = harmonize(est, 0.5, pi, shift_vector(pi, lam=0.0), joint_cov=s)
        np.testing.assert_allclose(out0.covariance, s[:k, :k], atol=1e-12)
        out = harmonize(est, 0.5, pi, shift_vector(pi), joint_cov=s)
        sp = np.eye(k) @ pi  # identity sigma
        u = sp / (pi @ sp)
        p = np.c_[np.eye(k) - np.outer(u, pi), u]
        np.testing.assert_allclose(out.covariance, p @ s @ p.T, atol=1e-10)


class TestBiasDirection:
    def test_linear_no_covariates_reduces_to_ratios(self):
        ds = balanced_dataset(k=3, n_t=4, n_c=4, n_e=8, seed=1)
        dc = compute_design_counts(ds)
        bm, u = bd_direction_linear(ds)
        np.testing.assert_allclose(bm.B, -np.diag(dc.q_ratio), atol=1e-8)
        np.testing.assert_allclose(u, np.ones(3), atol=1e-8)

    def test_uniform_b_gives_unit_direction(self):
        bm = BiasModel(B=np.eye(4), b=np.ones(4))
        np.testing.assert_allclose(bm.direction(np.full(4, 0.25)), np.ones(4))

    def test_degenerate_direction(self):
        bm = BiasModel(B=np.eye(2), b=np.array([1.0, -1.0]))
        with pytest.raises(DegenerateDirection):
            bm.direction([0.5, 0.5])


class TestSigmaConstruction:
    def test_b_equals_pi_gives_scaled_identity(self):
        pi = np.full(4, 0.25)
        sigma = solve_sigma_from_b(pi, pi)
        np.testing.assert_allclose(sigma, np.eye(4), atol=1e-12)

    def test_hand_example(self):
        sigma = solve_sigma_from_b([2.0, 1.0], [0.5, 0.5])
        np.testing.assert_allclose(sigma, np.diag([4.0, 2.0]))
        np.testing.assert_allclose(sigma @ [0.5, 0.5], [2.0, 1.0])

    def test_mixed_sign_random_instances(self, rng):
        for _ in range(40):
            k = int(rng.integers(2, 7))
            pi = rng.uniform(0.1, 1.0, k)
            pi = pi / pi.sum()
            b = rng.normal(size=k)
            if abs(pi @ b) < 0.05:
                continue
            sigma = solve_sigma_from_b(b, pi)
            ev = np.linalg.eigvalsh(sigma)
            assert ev[0] > 0
            prod = sigma @ pi
            ratio = prod / b
            np.testing.assert_allclose(ratio, ratio[0], atol=1e-8)

    def test_degenerate(self):
        with pytest.raises(DegenerateDirection):
            solve_sigma_from_b([1.0, -1.0], [0.5, 0.5])


@pytest.fixture(scope="module")
def fig5_like():
    return balanced_dataset(k=3, n_t=25, n_c=25, n_e=60, mu=[0.1, -0.2, 0.0],
                            theta=[1.0, 0.8, 0.9], d=1, beta=(0.2,),
                            x_mean_ec=1.0, family="binary", seed=21)


@pytest.fixture(scope="module")
def fig1_counts():
    ds = balanced_dataset(k=10, n_t=5, n_c=5, n_e=50, seed=30)
    return compute_design_counts(ds)


class TestLimitMap:
    def test_zero_distortion_returns_anchor(self, fig5_like):
        spec = build_limit_map_spec(fig5_like)
        anchor = rct_only_subgroups(fig5_like, "logistic").theta_k
        np.testing.assert_allclose(limit_map_theta(spec, np.zeros(3)), anchor,
                                   atol=1e-8)

    def test_taylor_remainder_shrinks(self, fig5_like):
        spec = build_limit_map_spec(fig5_like)
        bm, _ = bd_direction_glm(spec)
        anchor = limit_map_theta(spec, np.zeros(3))
        direction = np.array([0.9, -0.4, 0.6])
        direction /= np.abs(direction).sum()
        ratios = []
        for scale in (0.2, 0.1, 0.05):
            d = direction * scale
            r = np.abs(limit_map_theta(spec, d) - anchor - bm.B @ d).sum() / scale
            ratios.append(r)
        assert ratios[1] <= ratios[0] / 1.8
        assert ratios[2] <= ratios[1] / 1.8

    def test_monotone_drift(self, fig5_like):
        spec = build_limit_map_spec(fig5_like)
        vals = []
        for d1 in np.linspace(-1, 1, 7):
            delta = np.array([d1, 0.0, 0.0])
            vals.append(limit_map_theta(spec, delta)[0])
        diffs = np.diff(vals)
        assert np.all(diffs < 0)  # raising EC response lowers the estimate

    def test_fd_sensitivity_matches_closed_form_no_covariates(self):
        ds = balanced_dataset(k=2, n_t=40, n_c=40, n_e=80, mu=[0.3, -0.4],
                              theta=[0.7, 0.7], family="binary", seed=22)
        spec = build_limit_map_spec(ds)
        bm, u = bd_direction_glm(spec)
        from scipy.special import expit
        fit = rct_only_subgroups(ds, "logistic")
        # saturated case: only the same-subgroup control rate moves
        dc = compute_design_counts(ds)
        nu = np.array([np.log(ds.y_rct[ds.rct_mask(j, 0)].mean()
                              / (1 - ds.y_rct[ds.rct_mask(j, 0)].mean()))
                       for j in range(2)])
        expected = -dc.q_ratio * expit(nu) * (1 - expit(nu))
        np.testing.assert_allclose(np.diag(bm.B), expected, atol=1e-3)
        off = bm.B - np.diag(np.diag(bm.B))
        assert np.max(np.abs(off)) < 1e-3
        assert abs(dc.pi @ u - 1.0) < 1e-12

    def test_fd_step_halving_order(self, fig5_like):
        spec = build_limit_map_spec(fig5_like)
        b1, _ = bd_direction_glm(spec, fd_step=2e-3)
        b2, _ = bd_direction_glm(spec, fd_step=1e-3)
        b3, _ = bd_direction_glm(spec, fd_step=5e-4)
        # central differences: error drops ~4x per halving
        d12 = np.abs(b1.B - b2.B).max()
        d23 = np.abs(b2.B - b3.B).max()
        assert d23 < d12 / 2.5


class TestAnalytic:
    def test_full_bd_unbiased_under_systematic_distortion(self, fig1_counts):
        sigma = np.eye(10)
        bias, _ = analytic_bias_variance(fig1_counts, np.ones(10), sigma, FULL, 1.0)
        np.testing.assert_allclose(bias, 0.0, atol=1e-12)

    def test_lambda_zero_bias_is_pooled_bias(self, fig1_counts):
        bias, _ = analytic_bias_variance(fig1_counts, np.ones(10), np.eye(10), 0.0, 1.0)
        np.testing.assert_allclose(bias, -10 / 11, atol=1e-12)

    def test_full_variance_value(self, fig1_counts):
        _, var = analytic_bias_variance(fig1_counts, np.zeros(10), np.eye(10), FULL, 1.0)
        expected = (10 / 50) * (2 - 10 / 11) + (10 / 11) / 50
        np.testing.assert_allclose(np.diag(var), expected, atol=1e-12)

    def test_matches_balanced_closed_forms_on_grid(self, fig1_counts):
        # balanced special case: closed-form bias/variance with Sigma = I
        k, nr0, q = 10, 50, 10 / 11
        j_mat = np.ones((k, k))
        gamma = np.array([2.0, 0.0] * 5)
        for lam in (0.0, 1.0, 10.0, FULL):
            f = 1.0 if np.isinf(lam) else lam / (lam + k)
            want_bias = -q * (np.eye(k) - f / k * j_mat) @ gamma
            want_var = (k / nr0) * (2 - q) * np.eye(k) + f ** 2 * q / nr0 * j_mat
            bias, var = analytic_bias_variance(fig1_counts, gamma, np.eye(k), lam, 1.0)
            np.testing.assert_allclose(bias, want_bias, atol=1e-10)
            np.testing.assert_allclose(var, want_var, atol=1e-10)


class TestMseDifference:
    def test_no_distortion_pooling_slightly_better(self, fig1_counts):
        diff = mse_difference(fig1_counts, np.zeros(10), 1.0)
        np.testing.assert_allclose(diff, -(10 / 11) / 50, atol=1e-12)
        assert np.all(diff < 0)

    def test_systematic_distortion_harmonization_wins(self, fig1_counts):
        diff = mse_difference(fig1_counts, np.ones(10), 1.0)
        expected = (10 / 11) ** 2 - (10 / 11) / 50
        np.testing.assert_allclose(diff, expected, atol=1e-12)
        assert np.all(diff > 0)

    def test_zero_weighted_mean_distortion_leaves_variance_premium(self, fig1_counts):
        # weighted-average distortion zero: harmonization has nothing to
        # correct, so only its variance premium remains
        gamma = np.array([1.0, -1.0] * 5)
        diff = mse_difference(fig1_counts, gamma, 1.0)
        q = 10 / 11
        np.testing.assert_allclose(diff, -q ** 2 / (50 * q), atol=1e-12)

    def test_matches_analytic_mse_gap(self, fig1_counts):
        # independent check: assemble both MSEs from the exact formulas
        gamma = np.array([1.5, 0.2] * 5)
        pooled_bias, pooled_var = analytic_bias_variance(
            fig1_counts, gamma, np.eye(10), 0.0, 1.0)
        harm_bias, harm_var = analytic_bias_variance(
            fig1_counts, gamma, np.eye(10), FULL, 1.0)
        want = (pooled_bias ** 2 + np.diag(pooled_var)
                - harm_bias ** 2 - np.diag(harm_var))
        got = mse_difference(fig1_counts, gamma, 1.0)
        np.testing.assert_allclose(got, want, atol=1e-10)


class TestVdSigma:
    def test_passthrough(self):
        cov = np.diag([1.0, 2.0])
        est = EffectEstimate(theta_k=np.zeros(2), covariance=cov)
        np.testing.assert_allclose(vd_sigma(est), cov)

    def test_floors_singular(self):
        cov = np.array([[1.0, 1.0], [1.0, 1.0]])
        est = EffectEstimate(theta_k=np.zeros(2), covariance=cov)
        ev = np.linalg.eigvalsh(vd_sigma(est))
        assert ev[0] > 0

    def test_missing(self):
        with pytest.raises(MissingCovariance):
            vd_sigma(EffectEstimate(theta_k=np.zeros(2)))


class TestEndToEnd:
    def test_full_pipeline_on_dataset(self):
        ds = balanced_dataset(k=4, n_t=10, n_c=10, n_e=30, gamma=[1, 1, 1, 1],
                              seed=31)
        dc = compute_design_counts(ds)
        initial = diff_means_pooled_subgroups(ds)
        overall = diff_means_overall(ds)
        out = harmonize(initial, overall, dc.pi, shift_vector(dc.pi))
        assert abs(dc.pi @ out.theta_k - overall) < 1e-10
