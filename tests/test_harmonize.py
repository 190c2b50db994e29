import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subharm import (
    FULL,
    CombinedDataset,
    analytic_bias_variance,
    bd_direction_glm,
    bd_direction_linear,
    build_limit_map_spec,
    compute_design_counts,
    diff_means_overall,
    diff_means_pooled_subgroups,
    external_estimate,
    generate_scenario,
    harmonize,
    limit_map_theta,
    load_preset,
    logistic_marginal_effects,
    mse_difference,
    parse_lambda,
    shift_vector,
    solve_sigma_from_b,
    vd_sigma,
)
from subharm.errors import (
    ConfigError,
    DegenerateDirection,
    InconsistentDimensions,
    InvalidDesign,
    MissingCovariance,
    NumericalError,
    SingularSigma,
)
from subharm.estimators import EffectEstimate
from subharm.harmonize import _unit_direction

from conftest import balanced_dataset
from oracles import harmonize_objective_oracle

# a NaN or an overflow warning in a shift or a limit map fails the test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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

    @pytest.mark.parametrize("value", [None, [1], {"a": 1}, True, 10 ** 400])
    def test_parse_lambda_refuses_what_is_no_number(self, value):
        # float() raised TypeError on a null, a list or an object, and
        # OverflowError on an integer beyond any float
        with pytest.raises(ConfigError, match="lambda"):
            parse_lambda(value)


class TestBiasDirection:
    def test_linear_no_covariates_reduces_to_ratios(self):
        ds = balanced_dataset(k=3, n_t=4, n_c=4, n_e=8, seed=1)
        dc = compute_design_counts(ds)
        big_b, u = bd_direction_linear(ds)
        np.testing.assert_allclose(big_b, -np.diag(dc.q_ratio), atol=1e-8)
        np.testing.assert_allclose(u, np.ones(3), atol=1e-8)

    def test_uniform_b_gives_unit_direction(self):
        np.testing.assert_allclose(_unit_direction(np.ones(4), np.full(4, 0.25)), np.ones(4))

    def test_degenerate_direction(self):
        with pytest.raises(DegenerateDirection):
            _unit_direction(np.array([1.0, -1.0]), [0.5, 0.5])


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

    def test_same_sign_with_a_vanishing_entry(self):
        # diag(|b| / pi) = diag(4, 3e-245) is numerically singular, and
        # shift_vector refused it
        b, pi = np.array([2.0, 1.56430625e-245]), np.array([0.5, 0.5])
        sigma = solve_sigma_from_b(b, pi)
        np.testing.assert_allclose(sigma @ pi, b, rtol=0, atol=1e-14)
        np.testing.assert_allclose(shift_vector(pi, sigma, 1.0), b / 2, rtol=0, atol=1e-14)


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
        anchor = logistic_marginal_effects(fig5_like, rct_only=True).theta_k
        np.testing.assert_allclose(limit_map_theta(spec, np.zeros(3)), anchor,
                                   atol=1e-8)

    def test_taylor_remainder_shrinks(self, fig5_like):
        spec = build_limit_map_spec(fig5_like)
        big_b, _ = bd_direction_glm(spec)
        anchor = limit_map_theta(spec, np.zeros(3))
        direction = np.array([0.9, -0.4, 0.6])
        direction /= np.abs(direction).sum()
        ratios = []
        for scale in (0.2, 0.1, 0.05):
            d = direction * scale
            r = np.abs(limit_map_theta(spec, d) - anchor - big_b @ d).sum() / scale
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
        big_b, u = bd_direction_glm(spec)
        from scipy.special import expit
        fit = logistic_marginal_effects(ds, rct_only=True)
        # saturated case: only the same-subgroup control rate moves
        dc = compute_design_counts(ds)
        nu = np.array([np.log(ds.y_rct[ds.rct_mask(j, 0)].mean()
                              / (1 - ds.y_rct[ds.rct_mask(j, 0)].mean()))
                       for j in range(2)])
        expected = -dc.q_ratio * expit(nu) * (1 - expit(nu))
        np.testing.assert_allclose(np.diag(big_b), expected, atol=1e-3)
        off = big_b - np.diag(np.diag(big_b))
        assert np.max(np.abs(off)) < 1e-3
        assert abs(dc.pi @ u - 1.0) < 1e-12

    def test_fd_step_halving_order(self, fig5_like):
        spec = build_limit_map_spec(fig5_like)
        b1, _ = bd_direction_glm(spec, fd_step=2e-3)
        b2, _ = bd_direction_glm(spec, fd_step=1e-3)
        b3, _ = bd_direction_glm(spec, fd_step=5e-4)
        # the central difference is theta' + h^2/6 theta''' + O(h^4), so its
        # error drops 4x per halving
        d12 = np.abs(b1 - b2).max()
        d23 = np.abs(b2 - b3).max()
        assert d12 / d23 == pytest.approx(4.0, rel=1e-6)


class TestAnalytic:
    def test_full_bd_unbiased_under_systematic_distortion(self, fig1_counts):
        sigma = np.eye(10)
        u = shift_vector(fig1_counts.pi, sigma, FULL)
        bias, _ = analytic_bias_variance(fig1_counts, np.ones(10), u, 1.0)
        np.testing.assert_allclose(bias, 0.0, atol=1e-12)

    def test_lambda_zero_bias_is_pooled_bias(self, fig1_counts):
        u = shift_vector(fig1_counts.pi, np.eye(10), 0.0)
        bias, _ = analytic_bias_variance(fig1_counts, np.ones(10), u, 1.0)
        np.testing.assert_allclose(bias, -10 / 11, atol=1e-12)

    def test_full_variance_value(self, fig1_counts):
        u = shift_vector(fig1_counts.pi, np.eye(10), FULL)
        _, var = analytic_bias_variance(fig1_counts, np.zeros(10), u, 1.0)
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
            u = shift_vector(fig1_counts.pi, np.eye(k), lam)
            bias, var = analytic_bias_variance(fig1_counts, gamma, u, 1.0)
            np.testing.assert_allclose(bias, want_bias, atol=1e-10)
            np.testing.assert_allclose(var, want_var, atol=1e-10)


@st.composite
def covariance_cases(draw, proportional):
    """(cell sizes, prevalences or None for the empirical ones, shift
    vector, phi2, share pi'u to harmonize with). Proportional designs split
    every subgroup's trial in one treated : control ratio and use the
    empirical prevalences; the others have unequal arms, empty control or
    EC cells and user prevalences when drawn."""
    k = draw(st.integers(1, 6))
    cells = st.lists(st.integers(0, 9), min_size=k, max_size=k).map(np.array)
    n_e = draw(cells)
    if proportional:
        mult = np.array(draw(st.lists(st.integers(1, 4), min_size=k, max_size=k)))
        n_t, n_c, pi = draw(st.integers(1, 6)) * mult, draw(st.integers(1, 6)) * mult, None
    else:
        n_t, n_c = draw(cells) + 1, draw(cells)
        n_c[draw(st.integers(0, k - 1))] += 1
        p = np.array(draw(st.lists(st.floats(0.01, 1), min_size=k, max_size=k)))
        pi = p / p.sum() if draw(st.booleans()) else None
    n_e[n_c + n_e == 0] = 1
    u = np.array(draw(st.lists(st.floats(-2, 2), min_size=k, max_size=k)))
    return n_t, n_c, n_e, pi, u, 10.0 ** draw(st.floats(-3, 3)), draw(st.floats(0, 1))


def cell_dataset(n_t, n_c, n_e, y_cells=None):
    """A dataset with every outcome of cell (subgroup, treated / control /
    EC) equal to y_cells[subgroup, cell] (zero when omitted)."""
    k = len(n_t)
    y_cells = np.zeros((k, 3)) if y_cells is None else y_cells
    w_r = np.repeat(np.arange(k), n_t + n_c)
    t_r = np.concatenate([np.r_[np.ones(a, dtype=int), np.zeros(b, dtype=int)]
                          for a, b in zip(n_t, n_c)])
    w_e = np.repeat(np.arange(k), n_e)
    return CombinedDataset.from_arrays(
        y_rct=y_cells[w_r, 1 - t_r], t_rct=t_r, w_rct=w_r, y_ec=y_cells[w_e, 2],
        w_ec=w_e, k=k)


class TestHarmonizedCovariance:
    @settings(max_examples=200, deadline=None)
    @given(covariance_cases(proportional=True))
    def test_proportional_designs_keep_the_stratified_formula(self, case):
        n_t, n_c, n_e, _, u, phi2, _ = case
        dc = compute_design_counts(cell_dataset(n_t, n_c, n_e))
        nr1, nr0 = n_t.sum(), n_c.sum()
        stratified = (np.diag(phi2 * (1 / nr1 + (1 - dc.q_ratio) / nr0) / dc.pi)
                      + dc.q_bar * phi2 / nr0 * np.outer(u, u))
        _, var = analytic_bias_variance(dc, np.zeros(len(u)), u, phi2)
        np.testing.assert_allclose(np.diag(var), np.diag(stratified), rtol=1e-12)
        np.testing.assert_allclose(var, stratified, rtol=0,
                                   atol=1e-12 * np.abs(np.diag(stratified)).max())

    @settings(max_examples=200, deadline=None)
    @given(covariance_cases(proportional=False))
    def test_equals_the_covariance_of_the_estimator_linear_map(self, case):
        # the harmonized estimate is linear in the cell means: raising one
        # cell's outcomes by 1 moves it by that cell's row of A_s, which
        # carries the cell mean's variance phi2 / n
        n_t, n_c, n_e, pi, u, phi2, share = case
        k = len(u)
        dc = compute_design_counts(cell_dataset(n_t, n_c, n_e), pi)
        u = u + (share - dc.pi @ u)  # harmonize takes pi'u in [0, 1]

        def estimate(y_cells):
            ds = cell_dataset(n_t, n_c, n_e, y_cells)
            return harmonize(diff_means_pooled_subgroups(ds), diff_means_overall(ds),
                             dc.pi, u).theta_k

        sizes = np.column_stack([n_t, n_c, n_e])
        want = np.zeros((k, k))
        for j, c in zip(*np.nonzero(sizes)):
            y_cells = np.zeros((k, 3))
            y_cells[j, c] = 1.0
            row = estimate(y_cells) - estimate(np.zeros((k, 3)))
            want += phi2 / sizes[j, c] * np.outer(row, row)
        _, var = analytic_bias_variance(dc, np.zeros(k), u, phi2)
        np.testing.assert_allclose(var, want, rtol=0, atol=1e-12 * np.abs(want).max())


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
            fig1_counts, gamma, shift_vector(fig1_counts.pi, np.eye(10), 0.0), 1.0)
        harm_bias, harm_var = analytic_bias_variance(
            fig1_counts, gamma, shift_vector(fig1_counts.pi, np.eye(10), FULL), 1.0)
        want = (pooled_bias ** 2 + np.diag(pooled_var)
                - harm_bias ** 2 - np.diag(harm_var))
        got = mse_difference(fig1_counts, gamma, 1.0)
        np.testing.assert_allclose(got, want, atol=1e-10)


def _proportional_mse_difference(dc, gamma, phi2):
    """mse_difference's closed form on the proportional stratified design:
    q_k^2 [gamma_k^2 - (gamma_k - gbar)^2] less the harmonization premium
    q_k^2 phi2 / (n_r0 sum(pi q))."""
    q = dc.q_ratio
    piq = float(dc.pi @ q)
    gbar = float(dc.pi @ (q * gamma)) / piq
    return q ** 2 * (gamma ** 2 - (gamma - gbar) ** 2) - q ** 2 * phi2 / (
        dc.counts[:, 0, 0].sum() * piq)


@pytest.mark.parametrize("preset", ["fig1-s1", "fig1-s2", "fig1-s3"])
def test_mse_difference_matches_the_proportional_formula(preset):
    spec = load_preset(preset)
    dc = compute_design_counts(generate_scenario(spec, seed=0))
    gamma = np.asarray(spec.distortion)
    np.testing.assert_allclose(mse_difference(dc, gamma, spec.phi2),
                               _proportional_mse_difference(dc, gamma, spec.phi2),
                               rtol=0, atol=1e-15)


def test_mse_difference_needs_rct_and_external_controls():
    no_ec = compute_design_counts(balanced_dataset(k=2, n_t=5, n_c=5, n_e=0, seed=1))
    with pytest.raises(InvalidDesign, match="external controls"):
        mse_difference(no_ec, np.zeros(2), 1.0)
    no_rct_controls = compute_design_counts(balanced_dataset(k=2, n_t=5, n_c=0, n_e=5, seed=1))
    with pytest.raises(InvalidDesign):
        mse_difference(no_rct_controls, np.zeros(2), 1.0)


class TestVdSigma:
    def test_passthrough(self):
        cov = np.diag([1.0, 2.0])
        est = EffectEstimate(theta_k=np.zeros(2), covariance=cov)
        np.testing.assert_allclose(vd_sigma(est), cov)

    def test_rank_deficient_raises_singular_sigma(self):
        for cov in ([[1.0, 1.0], [1.0, 1.0]],
                    [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]):
            k = len(cov)
            sigma = vd_sigma(EffectEstimate(theta_k=np.zeros(k), covariance=np.array(cov)))
            for lam in (1.0, FULL):
                with pytest.raises(SingularSigma):
                    shift_vector(np.full(k, 1.0 / k), sigma, lam)

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
