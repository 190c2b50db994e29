import numpy as np
import pytest
from scipy.special import expit

from subharm import build_design, fit_logistic_irls, fit_ols
from subharm.errors import RankDeficient, SeparationDetected
from subharm.glm import MODEL_BIAS_BLOCK, MODEL_OVERALL, MODEL_POOLED, OVERALL_TREATMENT

from conftest import balanced_dataset, records_dataset


class TestBuildDesign:
    def test_minimal_pooled_blocks(self):
        ds = balanced_dataset(k=1, n_t=2, n_c=2, n_e=3)
        dm = build_design(ds, MODEL_POOLED)
        assert dm.values.shape == (7, 2)
        np.testing.assert_array_equal(dm.values[:, 0], np.ones(7))
        np.testing.assert_array_equal(dm.values[:, 1], [1, 1, 0, 0, 0, 0, 0])

    def test_hand_constructed_small_design(self):
        rows_rct = [(1.0, 1, 1, (0.5,)), (0.0, 0, 1, (0.1,)), (2.0, 1, 2, (0.2,))]
        rows_ec = [(0.5, 0, 1, (0.3,)), (0.9, 0, 2, (0.4,))]
        ds = records_dataset(rows_rct, rows_ec, k=2, d=1)
        m1 = build_design(ds, MODEL_POOLED)
        m2 = build_design(ds, MODEL_BIAS_BLOCK)
        assert m1.values.shape == (5, 5)
        assert m2.values.shape == (5, 2)
        np.testing.assert_array_equal(m2.values[:3], np.zeros((3, 2)))
        np.testing.assert_array_equal(m2.values[3:], np.eye(2))
        # RCT rows carry treatment in the interaction block, EC rows do not
        np.testing.assert_array_equal(m1.values[:, 2], [1, 0, 0, 0, 0])
        np.testing.assert_array_equal(m1.values[:, 3], [0, 0, 1, 0, 0])

    def test_overall_layout(self):
        ds = balanced_dataset(k=1, n_t=2, n_c=2, n_e=0, d=1, beta=(0.5,))
        dm = build_design(ds, MODEL_OVERALL)
        assert dm.values.shape == (4, 3)
        np.testing.assert_array_equal(dm.values[:, 0], np.ones(4))
        np.testing.assert_array_equal(dm.values[:, OVERALL_TREATMENT], ds.t_rct)

    def test_onehot_row_sums(self):
        ds = balanced_dataset(k=3, n_t=2, n_c=2, n_e=2)
        dm = build_design(ds, MODEL_POOLED)
        mu_block = dm.values[:, :ds.k]
        assert set(np.unique(mu_block.sum(axis=1))) == {1.0}


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


class TestLogistic:
    def test_intercept_three_of_four(self):
        x = np.ones((4, 1))
        y = np.array([1.0, 1.0, 1.0, 0.0])
        fit = fit_logistic_irls(x, y)
        assert fit.converged
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

    def test_loglik_nondecreasing_across_iterations(self, rng):
        # drive the fit one scoring step at a time; step halving must keep
        # the weighted log-likelihood from decreasing
        from subharm.glm import _loglik

        x = np.c_[np.ones(80), rng.normal(size=(80, 2)) * 3.0]
        y = (rng.random(80) < expit(x @ np.array([-1.0, 2.0, -1.5]))).astype(float)
        w = rng.uniform(0.2, 1.5, 80)
        coef = np.zeros(3)
        lls = [_loglik(x @ coef, y, w)]
        for _ in range(12):
            fit = fit_logistic_irls(x, y, weights=w, max_iter=1, start=coef,
                                    allow_unconverged=True)
            coef = fit.coefficients
            lls.append(_loglik(x @ coef, y, w))
            if fit.converged:
                break
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
