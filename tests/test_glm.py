import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import subharm.glm as glm
from subharm import build_design, fit_logistic_irls, fit_ols
from subharm.errors import NotConverged, RankDeficient, SeparationDetected
from subharm.glm import (
    MODEL_OVERALL,
    MODEL_POOLED,
    MODEL_PROPENSITY,
    MODEL_RCT_SUBGROUP,
    OVERALL_TREATMENT,
    CellDesign,
    pooled_map,
)

from conftest import balanced_dataset, records_dataset

# an overflow or a NaN anywhere in the fitting layer fails the test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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
        x, y, w, start = halving_data(rng)
        events = []
        loglik = glm._loglik
        monkeypatch.setattr(glm, "_loglik", lambda *a: events.append(loglik(*a)) or events[-1])

        class Recording(glm.CellDesign):
            def score(self, r):
                events.append(None)
                return super().score(r)

        # one cell with an empty map: the layout a raw array is fitted on
        fit_logistic_irls(Recording(np.zeros(80, dtype=int), x, np.zeros((1, 0))), y, weights=w,
                          start=start)
        lls = [events[i - 1] for i, e in enumerate(events) if e is None]
        assert len(lls) > 3
        assert np.all(np.diff(lls) >= -1e-12)

    @pytest.mark.parametrize("bad_y,bad_w,words", [
        (np.nan, 1.0, "responses"), (0.5, np.nan, "weights"), (0.5, np.inf, "weights")],
        ids=["nan-response", "nan-weight", "inf-weight"])
    def test_non_finite_input_fails_before_any_iteration(self, rng, monkeypatch, bad_y,
                                                         bad_w, words):
        # they passed the range checks and churned through every iteration
        def refuse(*args):
            raise AssertionError("an iteration ran")
        monkeypatch.setattr(glm, "_loglik", refuse)
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


def halving_data(rng):
    """80 weighted rows of [1, x1, x2] with covariates of sd 3, and a start
    that gets x2's sign wrong: the first steps overshoot and are halved (a
    cold start converges in full steps)."""
    x = np.c_[np.ones(80), rng.normal(size=(80, 2)) * 3.0]
    y = (rng.random(80) < expit(x @ np.array([-1.0, 2.0, -1.5]))).astype(float)
    return x, y, rng.uniform(0.2, 1.5, 80), np.array([0.0, 2.0, 2.0])


def _oracle_loglik(lp, y, w):
    # the fit's log-likelihood before it shared the mean's exponential
    softplus = np.log1p(np.exp(-np.abs(lp))) + np.maximum(lp, 0.0)
    return np.sum(w * (y * lp - softplus))


def oracle_fit(design, y, weights=None, tol=1e-10, max_iter=100, start=None):
    """Fisher scoring as it stood with two exponentials per step, frozen:
    the fit must keep its coefficients, information and iterations to the
    bit, and its errors."""
    x, y, w = glm._fit_inputs(design, y, weights)
    if not np.all((y >= 0) & (y <= 1)):
        raise ValueError("logistic responses must be numbers in [0, 1]")
    coef = np.zeros(x.shape[1]) if start is None else np.array(start, dtype=float)
    lp = x.linear_predictor(coef)
    ll = _oracle_loglik(lp, y, w)
    for it in range(max_iter + 1):
        mu = glm.expit(lp)
        score = x.score(w * (y - mu))
        big = np.abs(score).max()
        if big < tol:
            break
        if it and np.abs(coef).max() > glm.SEPARATION_CAP:
            raise SeparationDetected("separated")
        if it == max_iter:
            raise NotConverged("not converged")
        try:
            delta = np.linalg.solve(x.information(w * mu * (1.0 - mu)), score[:, None])[:, 0]
        except np.linalg.LinAlgError:
            raise RankDeficient("singular") from None
        cand = coef + delta
        lp_c = x.linear_predictor(cand)
        ll_c = _oracle_loglik(lp_c, y, w)
        floor = ll - 1e-12 * max(1.0, abs(ll))
        step, halvings = 1.0, 0
        while ll_c < floor and halvings < 20:
            step *= 0.5
            halvings += 1
            cand = coef + step * delta
            lp_c = x.linear_predictor(cand)
            ll_c = _oracle_loglik(lp_c, y, w)
        coef, lp, ll = cand, lp_c, ll_c
    return glm.GlmFit(coef, x.information(w * mu * (1.0 - mu)), None, it)


def assert_same_fit(got, want):
    np.testing.assert_array_equal(got.coefficients, want.coefficients)
    np.testing.assert_array_equal(got.information, want.information)
    assert got.iterations == want.iterations


@st.composite
def logistic_problems(draw):
    """A fit on a `CellDesign` of the pooled map, or its trial-only or
    propensity slice: K = 1..6 with cells of 0..30 rows, 0..3 covariates,
    binary or fractional responses, unit weights given as None or weights
    of which some may be zero, and a cold start, a start near the
    coefficients that drew the responses or one at a drawn point."""
    k = draw(st.integers(1, 6))
    model = draw(st.sampled_from(["pooled", "trial", "propensity"]))
    pattern = pooled_map(k)
    pattern = {"pooled": pattern, "trial": pattern[:2 * k],
               "propensity": pattern[:, :k]}[model]
    sizes = np.array(draw(st.lists(st.integers(0, 30), min_size=len(pattern),
                                   max_size=len(pattern))))
    d = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cell = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    design = CellDesign(cell, rng.normal(size=(len(cell), d)), pattern)
    n, p = design.shape
    truth = rng.normal(0.0, draw(st.sampled_from([0.5, 1.5])), p)
    prob = expit(np.dot(np.c_[pattern[np.sort(cell)], design.xt.T], truth))
    y = rng.random(n) if draw(st.booleans()) else (rng.random(n) < prob).astype(float)
    zeros = draw(st.sampled_from([None, 0.0, 0.3]))  # None: unit weights, given as None
    w = None if zeros is None else rng.uniform(0.1, 2.0, n) * (rng.random(n) >= zeros)
    start = draw(st.sampled_from([None, "near", "drawn"]))
    if start == "near":
        start = truth + rng.normal(0.0, 0.1, p)
    elif start == "drawn":
        start = rng.normal(0.0, 2.0, p)
    return design, y, w, start


class TestAgainstTheOracle:
    """`fit_logistic_irls` against `oracle_fit`, the fit it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(logistic_problems())
    def test_matches_the_oracle_bit_for_bit(self, problem):
        design, y, w, start = problem
        try:
            want = oracle_fit(design, y, w, start=start)
        except (RankDeficient, SeparationDetected, NotConverged) as err:
            with pytest.raises(type(err)):
                fit_logistic_irls(design, y, w, start=start)
            return
        assert_same_fit(fit_logistic_irls(design, y, w, start=start), want)

    def test_a_halving_fit_matches_the_oracle(self, rng, monkeypatch):
        x, y, w, start = halving_data(rng)
        evals = []
        loglik = glm._loglik
        monkeypatch.setattr(glm, "_loglik", lambda *a: evals.append(1) or loglik(*a))
        fit = fit_logistic_irls(x, y, weights=w, start=start)
        # one evaluation per step and the start's; more when a step halves
        assert len(evals) > fit.iterations + 1
        assert_same_fit(fit, oracle_fit(x, y, w, start=start))

    @pytest.mark.parametrize("w0", [0.0, 1.0], ids=["zero-weight", "unit-weight"])
    def test_overflowing_row(self, rng, monkeypatch, w0):
        # e^-lp overflows to inf on row 0, which makes the fast sum -inf, or
        # NaN by 0 * inf at zero weight: the log-likelihood must stay finite
        # and warn of nothing
        x = np.c_[np.ones(200), rng.normal(size=200)]
        y = (rng.random(200) < expit(x @ np.array([0.3, 0.8]))).astype(float)
        x[0, 1], y[0] = -5000.0, 0.0
        w = np.ones(200)
        w[0] = w0
        calls = []
        loglik = glm._loglik
        monkeypatch.setattr(glm, "_loglik", lambda *a: calls.append((a[1], loglik(*a)))
                            or calls[-1][1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_logistic_irls(x, y, weights=w)
            want = oracle_fit(x, y, w)
        assert any(np.isinf(e[0]) for e, _ in calls)
        assert all(np.isfinite(ll) for _, ll in calls)
        assert_same_fit(fit, want)


class TestWorkNoCallerReads:
    """A fit's information is computed on first read, and a cold start
    evaluates the log-likelihood at lp = 0 without forming lp."""

    @staticmethod
    def recording_design(rng, k, calls):
        class Recording(CellDesign):
            def information(self, v):
                calls.append("information")
                return super().information(v)

            def linear_predictor(self, coef):
                calls.append("linear_predictor")
                return super().linear_predictor(coef)

        cell = rng.permutation(np.repeat(np.arange(3 * k), 25))
        return Recording(cell, rng.normal(size=(len(cell), 2)), pooled_map(k))

    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
    def test_information_computed_once_when_first_read(self, rng, weighted):
        import pickle

        calls = []
        design = self.recording_design(rng, 3, calls)
        n = design.shape[0]
        y = (rng.random(n) < 0.4).astype(float)
        w = rng.uniform(0.2, 2.0, n) if weighted else None
        fit = fit_logistic_irls(design, y, weights=w)
        assert calls.count("information") == fit.iterations  # one per Fisher step
        info = fit.information
        assert fit.information is info and calls.count("information") == fit.iterations + 1
        mu = glm.expit(design.linear_predictor(fit.coefficients))
        at_optimum = design.information((np.ones(n) if w is None else w) * mu * (1.0 - mu))
        np.testing.assert_array_equal(info, at_optimum)
        # a fit whose information is still to come pickles
        raw = fit_logistic_irls(np.c_[np.ones(n), rng.normal(size=n)], y, weights=w)
        np.testing.assert_array_equal(pickle.loads(pickle.dumps(raw)).information,
                                      raw.information)
        # an eager fit holds the matrix it was given
        eager = glm.GlmFit(fit.coefficients, at_optimum, None, fit.iterations)
        assert eager.information is at_optimum

    def test_cold_start_forms_no_linear_predictor(self, rng, monkeypatch):
        calls, evaluated = [], []
        loglik = glm._loglik
        monkeypatch.setattr(glm, "_loglik",
                            lambda *a: evaluated.append(a[:2]) or loglik(*a))
        design = self.recording_design(rng, 2, calls)
        n = design.shape[0]
        fit = fit_logistic_irls(design, (rng.random(n) < 0.6).astype(float))
        lp, e = evaluated[0]
        np.testing.assert_array_equal(lp, np.zeros(n))
        np.testing.assert_array_equal(e, np.ones(n))
        # every later evaluation forms its lp, one per full step
        assert calls.count("linear_predictor") == len(evaluated) - 1 == fit.iterations


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
