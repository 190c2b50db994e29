import numpy as np
import pytest
from scipy.special import expit

from subharm import build_design, fit_logistic_irls, fit_ols
from subharm.errors import RankDeficient, SeparationDetected
from subharm.glm import (
    MODEL_OVERALL,
    MODEL_POOLED,
    MODEL_PROPENSITY,
    MODEL_RCT_SUBGROUP,
    OVERALL_TREATMENT,
)

from conftest import balanced_dataset, records_dataset


def expanded(design):
    """The dense matrix a cell design stands for, in the dataset's row order
    (RCT rows, then EC rows): each row's cell map, then its covariates."""
    cells = np.repeat(np.arange(len(design.counts)), design.counts)
    out = np.empty(design.shape)
    out[design.order] = np.column_stack([design.pattern[cells], design.xt.T])
    return out


class TestBuildDesign:
    """Each model's layout through the dense expansion of its cell design."""

    def test_minimal_pooled_blocks(self):
        ds = balanced_dataset(k=1, n_t=2, n_c=2, n_e=3)
        dm = expanded(build_design(ds, MODEL_POOLED))
        assert dm.shape == (7, 2)
        np.testing.assert_array_equal(dm[:, 0], np.ones(7))
        np.testing.assert_array_equal(dm[:, 1], [1, 1, 0, 0, 0, 0, 0])

    def test_hand_constructed_small_design(self):
        rows_rct = [(1.0, 1, 1, (0.5,)), (0.0, 0, 1, (0.1,)), (2.0, 1, 2, (0.2,))]
        rows_ec = [(0.5, 0, 1, (0.3,)), (0.9, 0, 2, (0.4,))]
        ds = records_dataset(rows_rct, rows_ec, k=2, d=1)
        # RCT rows carry treatment in the interaction block, EC rows only
        # their subgroup's intercept
        np.testing.assert_array_equal(expanded(build_design(ds, MODEL_POOLED)), [
            [1, 0, 1, 0, 0.5],
            [1, 0, 0, 0, 0.1],
            [0, 1, 0, 1, 0.2],
            [1, 0, 0, 0, 0.3],
            [0, 1, 0, 0, 0.4]])

    def test_overall_layout(self):
        ds = balanced_dataset(k=2, n_t=2, n_c=2, n_e=3, d=1, beta=(0.5,))
        dm = expanded(build_design(ds, MODEL_OVERALL))
        assert dm.shape == (8, 3)
        np.testing.assert_array_equal(dm[:, 0], np.ones(8))
        np.testing.assert_array_equal(dm[:, OVERALL_TREATMENT], ds.t_rct)
        np.testing.assert_array_equal(dm[:, 2:], ds.x_rct)

    def test_onehot_row_sums(self):
        ds = balanced_dataset(k=3, n_t=2, n_c=2, n_e=2)
        dm = expanded(build_design(ds, MODEL_POOLED))
        mu_block = dm[:, :ds.k]
        assert set(np.unique(mu_block.sum(axis=1))) == {1.0}

    def test_trial_only_and_propensity_layouts(self):
        # the pooled layout's RCT rows, and its intercepts and covariates
        ds = balanced_dataset(k=3, n_t=2, n_c=3, n_e=2, d=2, beta=(0.5, -0.2))
        pooled = expanded(build_design(ds, MODEL_POOLED))
        np.testing.assert_array_equal(expanded(build_design(ds, MODEL_RCT_SUBGROUP)),
                                      pooled[:ds.n_rct])
        np.testing.assert_array_equal(expanded(build_design(ds, MODEL_PROPENSITY)),
                                      np.delete(pooled, np.s_[ds.k:2 * ds.k], axis=1))

    def test_every_layout_shares_the_dataset_sort(self):
        ds = balanced_dataset(k=2, n_t=2, n_c=2, n_e=3, d=1, beta=(0.5,))
        for model in (MODEL_POOLED, MODEL_RCT_SUBGROUP, MODEL_OVERALL, MODEL_PROPENSITY):
            design = build_design(ds, model)
            np.testing.assert_array_equal(design.order,
                                          ds.cell_design.order[:design.shape[0]])

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown design model"):
            build_design(balanced_dataset(k=1), "pooled_subgroup_with_bias")


class TestOls:
    def test_exact_fit(self):
        x = np.array([[1.0], [2.0], [3.0]])
        fit = fit_ols(x, 2.0 * x[:, 0])
        assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-12)
        assert fit.dispersion == pytest.approx(0.0, abs=1e-20)

    def test_intercept_only_mean(self):
        fit = fit_ols(np.ones((2, 1)), np.array([1.0, 3.0]))
        assert fit.coefficients[0] == pytest.approx(2.0)

    def test_duplicate_column_rank_deficient(self):
        x = np.ones((5, 2))
        with pytest.raises(RankDeficient):
            fit_ols(x, np.arange(5.0))

    def test_normal_equations(self, rng):
        x = rng.normal(size=(40, 4))
        y = rng.normal(size=40)
        w = rng.uniform(0.5, 2.0, size=40)
        fit = fit_ols(x, y, weights=w)
        resid = y - x @ fit.coefficients
        assert np.max(np.abs(x.T @ (w * resid))) < 1e-8

    def test_zero_weight_rows_ignored(self, rng):
        x = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        w = np.ones(30)
        w[20:] = 0.0
        fit = fit_ols(x, y, weights=w)
        ref = fit_ols(x[:20], y[:20])
        np.testing.assert_allclose(fit.coefficients, ref.coefficients, atol=1e-10)
        assert fit.dispersion == pytest.approx(ref.dispersion)

    @pytest.mark.parametrize("bad_y,bad_w,words", [
        (np.nan, 1.0, "responses"), (np.inf, 1.0, "responses"), (0.5, np.nan, "weights"),
        (0.5, -1.0, "weights"), (0.5, np.inf, "weights")],
        ids=["nan-response", "inf-response", "nan-weight", "negative-weight", "inf-weight"])
    def test_bad_input_is_a_value_error(self, rng, bad_y, bad_w, words):
        # a NaN response gave NaN coefficients, and a NaN or negative weight
        # numpy's "SVD did not converge"
        x = np.c_[np.ones(6), rng.normal(size=6)]
        y, w = np.full(6, 0.5), np.ones(6)
        y[2], w[4] = bad_y, bad_w
        with pytest.raises(ValueError, match=words):
            fit_ols(x, y, weights=w)

    def test_rank_rule_on_the_information_eigenvalues(self):
        # a column 1e-6 from a multiple of another: singular values a ratio
        # of about 3e-7 apart, so the information's eigenvalues about 1e-13
        x = np.c_[np.ones(4), [0.0, 1.0, 2.0, 3.0]]
        x = np.c_[x, x[:, 1] + 1e-6 * np.array([1.0, -1.0, -1.0, 1.0])]
        with pytest.raises(RankDeficient, match="eigenvalues"):
            fit_ols(x, np.arange(4.0))
        fit_ols(x[:, :2], np.arange(4.0))


    @pytest.mark.parametrize("mean,sd", [(2000.0, 5.0), (5e4, 2e4)], ids=["year", "income"])
    def test_rank_rule_ignores_the_covariates_units(self, rng, mean, sd):
        # [1, x] alone puts X'X's eigenvalues about sd^2 / (mean^2 + sd^2)^2 apart
        x = np.c_[np.ones(50), rng.normal(mean, sd, 50)]
        y = 0.01 * (x[:, 1] - mean) + rng.normal(size=50)
        np.testing.assert_allclose(fit_ols(x, y).coefficients,
                                   np.linalg.lstsq(x, y, rcond=None)[0], rtol=1e-9)


class TestLogistic:
    def test_intercept_three_of_four(self):
        x = np.ones((4, 1))
        y = np.array([1.0, 1.0, 1.0, 0.0])
        fit = fit_logistic_irls(x, y)
        assert fit.coefficients[0] == pytest.approx(np.log(3.0), abs=1e-8)

    def test_intercept_symmetric(self):
        fit = fit_logistic_irls(np.ones((4, 1)), np.array([1.0, 1.0, 0.0, 0.0]))
        assert fit.coefficients[0] == pytest.approx(0.0, abs=1e-10)

    def test_separation_detected(self):
        x = np.c_[np.ones(8), np.r_[np.zeros(4), np.ones(4)]]
        y = np.r_[np.zeros(4), np.ones(4)]
        with pytest.raises(SeparationDetected):
            fit_logistic_irls(x, y)

    def test_score_at_solution(self, rng):
        x = np.c_[np.ones(200), rng.normal(size=(200, 3))]
        p = expit(x @ np.array([0.2, 0.5, -0.7, 0.1]))
        y = (rng.random(200) < p).astype(float)
        w = rng.uniform(0.2, 1.0, 200)
        fit = fit_logistic_irls(x, y, weights=w)
        mu = expit(x @ fit.coefficients)
        assert np.max(np.abs(x.T @ (w * (y - mu)))) < 1e-10
        ev = np.linalg.eigvalsh(fit.information)
        assert ev[0] >= -1e-10

    def test_fractional_responses(self):
        # proportion rows equal expanded 0/1 rows with matching weights
        x = np.c_[np.ones(3), np.array([0.0, 1.0, 2.0])]
        y_frac = np.array([0.25, 0.5, 0.75])
        w = np.array([4.0, 4.0, 4.0])
        fit = fit_logistic_irls(x, y_frac, weights=w)
        x_full = np.repeat(x, 4, axis=0)
        y_full = np.concatenate([[1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 0]]).astype(float)
        ref = fit_logistic_irls(x_full, y_full)
        np.testing.assert_allclose(fit.coefficients, ref.coefficients, atol=1e-8)

    def test_loglik_nondecreasing_across_iterations(self, rng, monkeypatch):
        # step halving must keep the weighted log-likelihood from decreasing:
        # the value in force at each scoring step is the last one computed
        # before its score
        import subharm.glm as glm

        x = np.c_[np.ones(80), rng.normal(size=(80, 2)) * 3.0]
        y = (rng.random(80) < expit(x @ np.array([-1.0, 2.0, -1.5]))).astype(float)
        w = rng.uniform(0.2, 1.5, 80)
        events = []
        loglik = glm._loglik
        monkeypatch.setattr(glm, "_loglik", lambda *a: events.append(loglik(*a)) or events[-1])

        class Recording(glm.CellDesign):
            def score(self, r):
                events.append(None)
                return super().score(r)

        # one cell with an empty map: the layout a raw array is fitted on
        fit_logistic_irls(Recording(np.zeros(80, dtype=int), x, np.zeros((1, 0))), y, weights=w)
        lls = [events[i - 1] for i, e in enumerate(events) if e is None]
        assert len(lls) > 3
        assert np.all(np.diff(lls) >= -1e-12)

    @pytest.mark.parametrize("bad_y,bad_w,words", [
        (np.nan, 1.0, "responses"), (0.5, np.nan, "weights"), (0.5, np.inf, "weights")],
        ids=["nan-response", "nan-weight", "inf-weight"])
    def test_non_finite_input_fails_before_any_iteration(self, rng, monkeypatch, bad_y,
                                                         bad_w, words):
        # they passed the range checks and churned through every iteration
        import subharm.glm

        def refuse(*args):
            raise AssertionError("an iteration ran")
        monkeypatch.setattr(subharm.glm, "_loglik", refuse)
        x = np.c_[np.ones(6), rng.normal(size=6)]
        y, w = np.full(6, 0.5), np.ones(6)
        y[2], w[4] = bad_y, bad_w
        with pytest.raises(ValueError, match=words):
            fit_logistic_irls(x, y, weights=w)

    def test_warm_start(self, rng):
        x = np.c_[np.ones(50), rng.normal(size=50)]
        y = (rng.random(50) < 0.4).astype(float)
        ref = fit_logistic_irls(x, y)
        warm = fit_logistic_irls(x, y, start=ref.coefficients)
        assert warm.iterations <= 1
        np.testing.assert_allclose(warm.coefficients, ref.coefficients, atol=1e-9)


class TestNumpyOnlyFunctions:
    """The program's own logistic function and normal quantile against
    scipy's, which the program does not import."""

    def test_expit_within_rounding_of_scipy(self):
        # the same formula on numpy's exp instead of libm's: the two exps
        # differ by about an ulp, and taking the reciprocal of 1 + e^-x can
        # double that when it crosses a power of two (2.3 eps at most over
        # 2e7 random x in [-800, 800])
        from subharm.glm import expit as ours

        x = np.concatenate([np.linspace(-800, 800, 200_001), np.linspace(-40, 40, 100_001)])
        np.testing.assert_array_max_ulp(ours(x), expit(x), maxulp=4)

    def test_expit_limits_and_nan(self):
        from subharm.glm import expit as ours

        got = ours(np.array([0.0, np.inf, -np.inf, np.nan]))
        assert got[0] == 0.5 and got[1] == 1.0 and got[2] == 0.0
        assert np.isnan(got[3])

    def test_expit_underflows_to_zero_without_a_warning(self):
        import warnings

        from subharm.glm import expit as ours

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ours(-1000.0) == 0.0
            np.testing.assert_array_equal(ours(np.array([-1000.0, -710.0])), [0.0, expit(-710.0)])

    def test_normal_quantile_matches_scipy(self):
        from scipy.stats import norm

        from subharm.intervals import _z

        for alpha in np.concatenate([np.geomspace(1e-4, 0.5, 400), [0.05, 0.1, 0.01]]):
            want = norm.ppf(1 - alpha / 2)
            np.testing.assert_allclose(_z(float(alpha)), want, rtol=2e-15, atol=0)
