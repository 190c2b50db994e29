import numpy as np
import pytest

from subharm import (
    CombinedDataset,
    diff_means_overall,
    diff_means_pooled_subgroups,
    ec_weights,
    fit_propensity,
    logistic_marginal_effects,
    ols_overall_effect,
    ols_subgroup_effects,
    oracle_subgroups,
    rct_only_subgroups,
)
from subharm.errors import EmptyArm, EmptySubgroupArm

from conftest import balanced_dataset, records_dataset


class TestDiffMeans:
    def test_overall_hand_example(self):
        ds = records_dataset([(2, 1, 1), (4, 1, 1), (1, 0, 1), (3, 0, 1)], [], k=1)
        assert diff_means_overall(ds) == pytest.approx(1.0)

    def test_overall_constant_outcomes(self):
        ds = records_dataset([(2, 1, 1), (2, 0, 1)], [], k=1)
        assert diff_means_overall(ds) == 0.0

    def test_overall_empty_arm(self):
        ds = records_dataset([(1, 1, 1)], [], k=1)
        with pytest.raises(EmptyArm):
            diff_means_overall(ds)

    def test_pooled_hand_example(self):
        # RCT control mean 0 (n=1), EC mean 2 (n=3), treated mean 1
        ds = records_dataset([(1, 1, 1), (0, 0, 1)],
                             [(2, 0, 1), (2, 0, 1), (2, 0, 1)], k=1)
        est = diff_means_pooled_subgroups(ds)
        assert est.theta_k[0] == pytest.approx(1 - 1.5)

    def test_pooled_k1_collapse(self):
        ds = balanced_dataset(k=1, n_t=5, n_c=5, n_e=5, seed=3)
        pooled = diff_means_pooled_subgroups(ds).theta_k[0]
        manual = ds.y_rct[ds.t_rct == 1].mean() - np.r_[ds.y_rct[ds.t_rct == 0], ds.y_ec].mean()
        assert pooled == pytest.approx(manual, abs=1e-12)

    def test_pooled_missing_treated(self):
        ds = records_dataset([(1, 0, 1)], [(0, 0, 1)], k=1)
        with pytest.raises(EmptySubgroupArm):
            diff_means_pooled_subgroups(ds)


class TestRctOnly:
    def test_ec_independence(self):
        ds1 = balanced_dataset(k=2, n_t=4, n_c=4, n_e=6, gamma=[3, 3], seed=1)
        ds2 = CombinedDataset.from_arrays(
            y_rct=ds1.y_rct, t_rct=ds1.t_rct, w_rct=ds1.w_rct,
            y_ec=np.full(4, 99.0), w_ec=np.array([0, 0, 1, 1]), k=2)
        for model in ("diff_means", "ols"):
            a = rct_only_subgroups(ds1, model).theta_k
            b = rct_only_subgroups(ds2, model).theta_k
            np.testing.assert_array_equal(a, b)

    def test_ols_reduces_to_diff_means_without_covariates(self):
        ds = balanced_dataset(k=3, n_t=4, n_c=5, n_e=0, seed=7)
        a = rct_only_subgroups(ds, "diff_means").theta_k
        b = rct_only_subgroups(ds, "ols").theta_k
        np.testing.assert_allclose(a, b, atol=1e-8)

    def test_logistic_k1_closed_form(self):
        # 3/4 treated respond, 1/4 control respond
        ds = records_dataset(
            [(1, 1, 1), (1, 1, 1), (1, 1, 1), (0, 1, 1),
             (1, 0, 1), (0, 0, 1), (0, 0, 1), (0, 0, 1)], [], k=1, family="binary")
        est = logistic_marginal_effects(ds, rct_only=True)
        assert est.theta_k[0] == pytest.approx(0.75 - 0.25, abs=1e-8)


class TestOracle:
    def test_identity_and_subtraction(self):
        ds = records_dataset([(1.2, 1, 1), (0.0, 0, 1)], [], k=1)
        assert oracle_subgroups(ds, [1.2]).theta_k[0] == pytest.approx(0.0)
        assert oracle_subgroups(ds, [1.0]).theta_k[0] == pytest.approx(0.2)

    def test_variance_matches_design(self, rng):
        # treated cell mean variance is phi^2 / n_treated = K phi^2 / n_arm
        k, n_t, reps = 4, 5, 800
        draws = np.empty((reps, k))
        for r in range(reps):
            ds = balanced_dataset(k=k, n_t=n_t, n_c=2, n_e=0, seed=1000 + r)
            draws[r] = oracle_subgroups(ds, np.zeros(k)).theta_k
        target = 1.0 / n_t
        assert np.allclose(draws.var(axis=0, ddof=1), target, rtol=0.25)


class TestOls:
    def test_matches_diff_means_on_covariate_free_data(self):
        ds = balanced_dataset(k=2, n_t=6, n_c=6, n_e=8, gamma=[1, 1], seed=2)
        a = ols_subgroup_effects(ds).theta_k
        b = diff_means_pooled_subgroups(ds).theta_k
        np.testing.assert_allclose(a, b, atol=1e-8)

    def test_overall_matches_diff_means(self):
        ds = balanced_dataset(k=2, n_t=6, n_c=6, n_e=8, seed=2)
        a = ols_overall_effect(ds)
        b = diff_means_overall(ds)
        assert a == pytest.approx(b, abs=1e-8)

    def test_bias_matches_design_sensitivity(self, rng):
        # with distortions, mean error tracks the design-only bias matrix
        from subharm import bd_direction_linear

        gamma = np.array([1.0, 1.0])
        reps = 400
        errs = np.empty((reps, 2))
        for r in range(reps):
            ds = balanced_dataset(k=2, n_t=8, n_c=8, n_e=20, gamma=gamma,
                                  d=1, beta=(0.4,), x_mean_ec=1.0, seed=r)
            errs[r] = ols_subgroup_effects(ds).theta_k
        big_b, _ = bd_direction_linear(
            balanced_dataset(k=2, n_t=8, n_c=8, n_e=20, gamma=gamma, d=1,
                             beta=(0.4,), x_mean_ec=1.0, seed=0))
        # B varies with the covariate draw; compare against its average scale
        mean_err = errs.mean(axis=0)
        mc_se = errs.std(axis=0, ddof=1) / np.sqrt(reps)
        pred = big_b @ gamma
        assert np.all(np.abs(mean_err - pred) < 6 * mc_se + 0.05)


class TestLogisticMarginal:
    def test_covariate_free_reduction(self):
        ds = balanced_dataset(k=2, n_t=30, n_c=30, n_e=40, mu=[0.2, -0.1],
                              theta=[0.8, 0.5], family="binary", seed=4)
        est = logistic_marginal_effects(ds)
        # saturated model: effects equal differences of cell response rates
        for k in range(2):
            m1 = ds.rct_mask(k, 1)
            pooled = np.r_[ds.y_rct[ds.rct_mask(k, 0)], ds.y_ec[ds.w_ec == k]]
            assert est.theta_k[k] == pytest.approx(
                ds.y_rct[m1].mean() - pooled.mean(), abs=1e-7)

    def test_symmetric_null(self):
        from subharm.estimators import marginal_effects

        ds = balanced_dataset(k=2, n_t=5, n_c=5, n_e=5, d=1, beta=(0.3,), seed=8)
        theta = marginal_effects(ds.rct_subgroups, ds.x_rct, np.zeros(2), np.zeros(2),
                                 np.zeros(1))
        np.testing.assert_allclose(theta, 0.0, atol=1e-12)

    def test_delta_cov_close_to_bootstrap(self, rng):
        ds = balanced_dataset(k=2, n_t=100, n_c=100, n_e=100, mu=[0.0, 0.3],
                              theta=[0.7, 0.4], d=1, beta=(0.5,),
                              family="binary", seed=11)
        est = logistic_marginal_effects(ds)
        boot = np.empty((800, 2))
        for b in range(800):
            idx_r = rng.integers(0, ds.n_rct, ds.n_rct)
            idx_e = rng.integers(0, ds.n_ec, ds.n_ec)
            ds_b = CombinedDataset.from_arrays(
                y_rct=ds.y_rct[idx_r], t_rct=ds.t_rct[idx_r], w_rct=ds.w_rct[idx_r],
                y_ec=ds.y_ec[idx_e], w_ec=ds.w_ec[idx_e], k=2,
                x_rct=ds.x_rct[idx_r], x_ec=ds.x_ec[idx_e], outcome_family="binary")
            boot[b] = logistic_marginal_effects(ds_b).theta_k
        boot_var = boot.var(axis=0, ddof=1)
        delta_var = np.diag(est.covariance)
        assert np.all(np.abs(delta_var / boot_var - 1) < 0.15)


    def test_marginalization_matches_per_subgroup_means_bit_for_bit(self, rng):
        # the grouped reductions sum each subgroup's rows in the same order
        # as a mean over its masked rows
        from subharm.estimators import _marginal_gradient, marginal_effects
        from subharm.glm import expit

        ds = balanced_dataset(k=5, n_t=37, n_c=29, n_e=11, d=3, beta=[0.4, -0.2, 0.1],
                              seed=8, family="binary")
        order = rng.permutation(ds.n_rct)
        ds = CombinedDataset.from_arrays(
            y_rct=ds.y_rct[order], t_rct=ds.t_rct[order], w_rct=ds.w_rct[order],
            y_ec=ds.y_ec, w_ec=ds.w_ec, k=ds.k, x_rct=ds.x_rct[order], x_ec=ds.x_ec)
        nu, eta, beta = rng.normal(size=5), rng.normal(size=5), rng.normal(size=3)
        xb = ds.x_rct @ beta
        want_theta, want_grad = np.empty(5), np.zeros((5, 13))
        for j in range(5):
            m = ds.w_rct == j
            pa, pb = expit(nu[j] + eta[j] + xb[m]), expit(nu[j] + xb[m])
            ga, gb = pa * (1 - pa), pb * (1 - pb)
            want_theta[j] = np.mean(pa - pb)
            want_grad[j, j], want_grad[j, 5 + j] = np.mean(ga - gb), np.mean(ga)
            want_grad[j, 10:] = np.mean((ga - gb)[:, None] * ds.x_rct[m], axis=0)
        np.testing.assert_array_equal(
            marginal_effects(ds.rct_subgroups, ds.x_rct, nu, eta, beta), want_theta)
        np.testing.assert_array_equal(_marginal_gradient(ds.rct_subgroups, ds.x_rct, nu, eta, beta), want_grad)

    def test_marginalization_names_first_empty_subgroup(self):
        from subharm.estimators import marginal_effects

        ds = CombinedDataset.from_arrays(y_rct=np.zeros(4), t_rct=[1, 0, 1, 0],
                                         w_rct=[0, 0, 2, 2], y_ec=[], w_ec=[], k=4)
        with pytest.raises(EmptySubgroupArm, match="subgroup 2 has no RCT patients"):
            marginal_effects(ds.rct_subgroups, ds.x_rct, np.zeros(4), np.zeros(4), np.zeros(0))


class TestPropensity:
    def test_identical_distributions_give_unit_weights(self):
        x = np.linspace(-1, 1, 12).reshape(-1, 1)
        w = np.tile([0, 1], 6)
        ds = CombinedDataset.from_arrays(
            y_rct=np.zeros(12), t_rct=np.tile([0, 1], 6).astype(int), w_rct=w,
            y_ec=np.zeros(12), w_ec=w, k=2, x_rct=x, x_ec=x)
        pm = fit_propensity(ds)
        np.testing.assert_allclose(ec_weights(pm), 1.0, atol=1e-9)

    def test_far_record_gets_small_weight_and_max_is_one(self, rng):
        # EC shifted upward: membership odds decrease in x, so the record
        # far outside the trial support gets a near-zero weight
        n = 100
        x_r = rng.normal(0, 1, (n, 1))
        x_e = np.vstack([rng.normal(1.5, 1, (n - 1, 1)), [[6.0]]])
        ds = CombinedDataset.from_arrays(
            y_rct=np.zeros(n), t_rct=(rng.random(n) < 0.5).astype(int),
            w_rct=np.zeros(n, dtype=int),
            y_ec=np.zeros(n), w_ec=np.zeros(n, dtype=int), k=1,
            x_rct=x_r, x_ec=x_e)
        pm = fit_propensity(ds)
        wts = ec_weights(pm)
        assert wts.max() == pytest.approx(1.0, abs=0)
        assert pm.coefficients[-1] < 0
        assert wts[-1] < 0.05
        assert np.all((wts > 0) & (wts <= 1))


class TestWeightedLogistic:
    def test_unit_weights_reduce_to_pooled(self):
        ds = balanced_dataset(k=2, n_t=20, n_c=20, n_e=30, theta=[0.6, 0.6],
                              family="binary", seed=9)
        a = logistic_marginal_effects(ds, weights=np.ones(ds.n_rct + ds.n_ec)).theta_k
        b = logistic_marginal_effects(ds).theta_k
        np.testing.assert_array_equal(a, b)

    def test_zero_ec_weights_reduce_to_rct_only(self):
        ds = balanced_dataset(k=2, n_t=25, n_c=25, n_e=30, theta=[0.6, 0.6],
                              family="binary", seed=10)
        w = np.r_[np.ones(ds.n_rct), np.zeros(ds.n_ec)]
        a = logistic_marginal_effects(ds, weights=w).theta_k
        b = logistic_marginal_effects(ds, rct_only=True).theta_k
        np.testing.assert_allclose(a, b, atol=1e-6)


class TestInvariants:
    def test_prevalence_weighted_rct_subgroups_match_overall(self):
        # equal randomization proportions across subgroups
        ds = balanced_dataset(k=3, n_t=4, n_c=6, n_e=0, seed=13)
        sub = rct_only_subgroups(ds, "diff_means").theta_k
        pi = np.bincount(ds.w_rct, minlength=3) / ds.n_rct
        overall = diff_means_overall(ds)
        assert pi @ sub == pytest.approx(overall, abs=1e-10)

    def test_row_permutation_invariance(self, rng):
        ds = balanced_dataset(k=2, n_t=6, n_c=6, n_e=8, gamma=[0.5, 0.5], seed=14)
        perm_r = rng.permutation(ds.n_rct)
        perm_e = rng.permutation(ds.n_ec)
        ds2 = CombinedDataset.from_arrays(
            y_rct=ds.y_rct[perm_r], t_rct=ds.t_rct[perm_r], w_rct=ds.w_rct[perm_r],
            y_ec=ds.y_ec[perm_e], w_ec=ds.w_ec[perm_e], k=2)
        for fn in (diff_means_pooled_subgroups, ols_subgroup_effects):
            np.testing.assert_allclose(fn(ds).theta_k, fn(ds2).theta_k, atol=1e-10)
