"""Scenario generation, Monte-Carlo replication, pool-resampling
experiments, and metric aggregation.

Replicates draw from counter-based streams keyed by (seed, replicate,
role), so reports are deterministic for a fixed seed regardless of the
worker count. Failed replicates are recorded with their reason and
excluded from aggregates; the exclusion counts appear in the report.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Sequence

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from scipy.special import expit

from .data import (
    BINARY,
    CONTINUOUS,
    CombinedDataset,
    CsvSchema,
    DesignCounts,
    compute_design_counts,
    load_dataset,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateDirection,
    InconsistentDimensions,
    InvalidEffect,
    InvalidSpec,
    NumericalError,
    PoolTooSmall,
    SingularSigma,
)
from .estimators import (
    EffectEstimate,
    _pooled_logistic_fit,
    diff_means_overall,
    diff_means_pooled_subgroups,
    ec_weights,
    fit_propensity,
    logistic_marginal_effects,
    logistic_overall_effect,
    marginalize_logistic,
    ols_overall_effect,
    ols_subgroup_effects,
    oracle_subgroups,
    rct_only_subgroups,
    weighted_logistic_effects,
)
from .glm import GlmFit
from .harmonize import (
    FULL,
    _SigmaShift,
    _validate_sigma,
    bd_direction_diff_means,
    bd_direction_glm,
    bd_direction_linear,
    build_limit_map_spec,
    harmonize,
    parse_lambda,
    shift_vector,
    solve_sigma_from_b,
    vd_sigma,
)
from .intervals import check_bootstrap_r, check_interval_methods, interval
from .rng import ROLE_COVARIATE, ROLE_OUTCOME, ROLE_RESAMPLE, ROLE_SPIKE, stream

logger = logging.getLogger("subharm")


# --- scenario specification ---------------------------------------------------

@dataclass(frozen=True)
class ScenarioSpec:
    """Generative model for one experiment.

    For the continuous family, `mu`, `theta`, and `distortion` live on the
    outcome scale and outcomes are normal with variance `phi2`; for the
    binary family they live on the logit scale and outcomes are Bernoulli.
    External outcomes shift the control level by `distortion` per
    subgroup. Covariates are independent normals with study-specific
    moments; `fixed_covariates` freezes the covariate panel across
    replicates.
    """

    name: str
    outcome_family: str
    k: int
    n_rct_treated: tuple[int, ...]
    n_rct_control: tuple[int, ...]
    n_ec: tuple[int, ...]
    mu: tuple[float, ...]
    theta: tuple[float, ...]
    distortion: tuple[float, ...]
    phi2: float = 1.0
    n_covariates: int = 0
    beta: tuple[float, ...] = ()
    x_mean_rct: float = 0.0
    x_sd_rct: float = 1.0
    x_mean_ec: float = 0.0
    x_sd_ec: float = 1.0
    fixed_covariates: bool = False
    prevalences: tuple[float, ...] | None = None
    version: int = 1

    def __post_init__(self):
        k = self.k
        if self.outcome_family not in (CONTINUOUS, BINARY):
            raise InvalidSpec(f"unknown outcome family {self.outcome_family!r}")
        for fname in ("n_rct_treated", "n_rct_control", "n_ec", "mu", "theta", "distortion"):
            if len(getattr(self, fname)) != k:
                raise InvalidSpec(f"{fname} must have length K={k}")
        if any(n < 0 for n in (*self.n_rct_treated, *self.n_rct_control, *self.n_ec)):
            raise InvalidSpec("cell sizes must be non-negative")
        if sum(self.n_rct_treated) == 0 or sum(self.n_rct_control) == 0:
            raise InvalidSpec("both RCT arms need patients")
        if self.outcome_family == CONTINUOUS and not self.phi2 > 0:
            raise InvalidSpec("phi2 must be positive for continuous outcomes")
        if len(self.beta) != self.n_covariates:
            raise InvalidSpec("beta length must equal n_covariates")
        if self.prevalences is not None:
            pi = np.asarray(self.prevalences, float)
            if pi.shape != (k,) or np.any(pi <= 0) or abs(pi.sum() - 1) > 1e-12:
                raise InvalidSpec("prevalences must be a strictly positive simplex vector")

    def with_distortion(self, distortion) -> "ScenarioSpec":
        d = tuple(float(v) for v in np.broadcast_to(distortion, (self.k,)))
        return replace(self, distortion=d)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "ScenarioSpec":
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = set(obj) - known
        if unknown:
            raise InvalidSpec(f"unknown scenario keys: {sorted(unknown)}")
        kw = dict(obj)
        for fname in ("n_rct_treated", "n_rct_control", "n_ec", "mu", "theta",
                      "distortion", "beta"):
            if fname in kw and kw[fname] is not None:
                kw[fname] = tuple(kw[fname])
        if kw.get("prevalences") is not None:
            kw["prevalences"] = tuple(kw["prevalences"])
        kw.setdefault("name", "inline")
        return cls(**kw)


def generate_scenario(spec: ScenarioSpec, seed: int, replicate: int = 0) -> CombinedDataset:
    """Draw one dataset pair. Cell counts are deterministic; outcomes (and
    covariates, unless frozen) are stochastic."""
    k = spec.k
    w_r = np.repeat(np.arange(k), [t + c for t, c in zip(spec.n_rct_treated, spec.n_rct_control)])
    t_r = np.concatenate([
        np.r_[np.ones(t, dtype=np.int64), np.zeros(c, dtype=np.int64)]
        for t, c in zip(spec.n_rct_treated, spec.n_rct_control)
    ]) if len(w_r) else np.zeros(0, dtype=np.int64)
    w_e = np.repeat(np.arange(k), spec.n_ec)
    d = spec.n_covariates
    cov_rng = stream(seed, 0 if spec.fixed_covariates else replicate, ROLE_COVARIATE)
    x_r = cov_rng.normal(spec.x_mean_rct, spec.x_sd_rct, size=(len(w_r), d)) if d else None
    x_e = cov_rng.normal(spec.x_mean_ec, spec.x_sd_ec, size=(len(w_e), d)) if d else None

    mu = np.asarray(spec.mu)
    th = np.asarray(spec.theta)
    dist = np.asarray(spec.distortion)
    beta = np.asarray(spec.beta)
    lp_r = mu[w_r] + th[w_r] * t_r + (x_r @ beta if d else 0.0)
    lp_e = mu[w_e] + dist[w_e] + (x_e @ beta if d else 0.0)
    out_rng = stream(seed, replicate, ROLE_OUTCOME)
    if spec.outcome_family == CONTINUOUS:
        y_r = lp_r + out_rng.normal(0.0, np.sqrt(spec.phi2), len(w_r))
        y_e = lp_e + out_rng.normal(0.0, np.sqrt(spec.phi2), len(w_e))
    else:
        y_r = (out_rng.random(len(w_r)) < expit(lp_r)).astype(float)
        y_e = (out_rng.random(len(w_e)) < expit(lp_e)).astype(float)
    return CombinedDataset.from_arrays(
        y_rct=y_r, t_rct=t_r, w_rct=w_r, y_ec=y_e, w_ec=w_e, k=k,
        x_rct=x_r, x_ec=x_e, outcome_family=spec.outcome_family)


def true_effects(spec: ScenarioSpec, seed: int = 0) -> np.ndarray:
    """True subgroup effects on the reporting scale: the model effects for
    continuous outcomes; for binary outcomes, the response-probability
    difference averaged over the trial covariate distribution (the frozen
    panel when covariates are fixed, otherwise by quadrature)."""
    if spec.outcome_family == CONTINUOUS:
        return np.asarray(spec.theta, dtype=float)
    mu = np.asarray(spec.mu)
    th = np.asarray(spec.theta)
    if spec.n_covariates == 0:
        return expit(mu + th) - expit(mu)
    beta = np.asarray(spec.beta)
    if spec.fixed_covariates:
        return marginalize_logistic(generate_scenario(spec, seed, 0), mu, th, beta)
    # linear predictor is scalar normal: Gauss-Hermite over beta'X
    m_lp = spec.x_mean_rct * float(beta.sum())
    s_lp = spec.x_sd_rct * float(np.sqrt((beta ** 2).sum()))
    nodes, wts = hermegauss(80)
    wts = wts / wts.sum()
    z = m_lp + s_lp * nodes
    out = np.empty(spec.k)
    for j in range(spec.k):
        out[j] = float(wts @ (expit(mu[j] + th[j] + z) - expit(mu[j] + z)))
    return out


# --- estimator configuration ---------------------------------------------------

INITIAL_KINDS = ("diff_means_pooled", "diff_means_rct", "oracle", "ols_pooled",
                 "ols_rct", "logistic_pooled", "logistic_rct", "logistic_ipw")
OVERALL_KINDS = ("diff_means", "ols", "logistic")
MODE_FIXED = "fixed"
MODE_BD = "bd"
MODE_VD = "vd"
SIGMA_MODES = ("identity", MODE_FIXED, MODE_BD, MODE_VD)
# The initials a sigma mode can never resolve for: bd needs a bias
# direction and vd the initial estimate's covariance.
UNDEFINED_MODES = {MODE_BD: ("diff_means_rct", "ols_rct", "oracle", "logistic_rct"),
                   MODE_VD: ("diff_means_rct", "ols_rct", "oracle")}


@dataclass(frozen=True)
class EstimatorConfig:
    """One estimator column in a report: either a plain initial estimator
    or a harmonized transform of one."""

    name: str
    kind: str
    initial: str = ""
    overall: str = "diff_means"
    lam: float = FULL
    sigma_mode: str = "bd"
    sigma: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        if self.kind == "harmonized":
            if self.initial not in INITIAL_KINDS:
                raise ConfigError(f"harmonized initial must be one of {INITIAL_KINDS}")
            if self.overall not in OVERALL_KINDS:
                raise ConfigError(f"overall must be one of {OVERALL_KINDS}")
            if self.sigma_mode not in SIGMA_MODES:
                raise ConfigError(f"sigma_mode must be one of {SIGMA_MODES}")
        elif self.kind not in INITIAL_KINDS:
            raise ConfigError(f"unknown estimator kind {self.kind!r}")


HARMONIZATION_KEYS = {"initial", "overall", "lambda", "sigma_mode", "sigma"}


def parse_estimator(obj) -> EstimatorConfig:
    """Accept a plain kind name or a dict with harmonization options.
    Unknown keys, harmonization options on a plain estimator and a sigma
    outside the fixed mode are errors."""
    if isinstance(obj, str):
        return EstimatorConfig(name=obj, kind=obj)
    if not isinstance(obj, dict):
        raise ConfigError(f"estimator entries must be strings or objects, got {type(obj)}")
    unknown = set(obj) - {"name", "kind"} - HARMONIZATION_KEYS
    if unknown:
        raise ConfigError(f"unknown estimator keys: {sorted(unknown)}")
    kind = obj.get("kind")
    if kind is None:
        raise ConfigError("estimator objects need a 'kind'")
    options = sorted(set(obj) & HARMONIZATION_KEYS)
    if kind != "harmonized" and options:
        raise ConfigError(f"plain estimator {kind!r} takes no {options}")
    mode, sigma = obj.get("sigma_mode", "bd"), obj.get("sigma")
    if sigma is not None and mode != MODE_FIXED:
        raise ConfigError(f"a sigma needs sigma_mode 'fixed', not {mode!r}")
    lam = parse_lambda(obj.get("lambda", "full"))
    if sigma is not None:
        try:
            sigma = tuple(tuple(float(v) for v in row) for row in sigma)
        except (TypeError, ValueError):
            raise ConfigError("sigma must be a matrix of numbers") from None
    lam_str = "full" if np.isinf(lam) else format(lam, "g")
    default_name = (f"harmonized[{obj.get('initial')},lam={lam_str},{mode}]"
                    if kind == "harmonized" else kind)
    return EstimatorConfig(
        name=obj.get("name", default_name), kind=kind,
        initial=obj.get("initial", ""), overall=obj.get("overall", "diff_means"),
        lam=lam, sigma_mode=mode, sigma=sigma)


def check_fixed_sigmas(est_cfgs, k: int) -> None:
    """Reject, before any estimate is computed, a fixed sigma that is not a
    K x K symmetric positive-definite matrix."""
    for cfg in est_cfgs:
        if cfg.sigma is not None:
            try:
                _validate_sigma(cfg.sigma, k)
            except (ValueError, InconsistentDimensions, SingularSigma) as exc:
                raise ConfigError(f"estimator {cfg.name!r} has an invalid sigma: {exc}") from None


class _ReplicateContext:
    """Caches shared fits within one replicate or `estimate` call, and
    resolves each harmonized estimator to its shift vector u and mode
    (`shift`), which its estimate and the intervals centred on it share."""

    def __init__(self, ds: CombinedDataset, dc: DesignCounts, mu_true=None):
        self.ds = ds
        self.dc = dc
        self.mu_true = mu_true
        self._cache: dict = {}

    def _cached(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def initial(self, kind: str) -> EffectEstimate:
        return self._cached(kind, lambda: self._initial(kind))

    def _initial(self, kind: str) -> EffectEstimate:
        ds = self.ds
        if kind == "diff_means_pooled":
            return diff_means_pooled_subgroups(ds)
        if kind == "oracle":
            if self.mu_true is None:
                raise ConfigError("oracle estimator needs known control levels")
            return oracle_subgroups(ds, self.mu_true)
        if kind == "ols_pooled":
            return ols_subgroup_effects(ds)
        if kind == "logistic_pooled":
            return logistic_marginal_effects(ds)
        if kind == "logistic_ipw":
            return weighted_logistic_effects(ds)
        if kind == "logistic_rct":
            return logistic_marginal_effects(ds, rct_only=True, fit=self.trial_logistic_fit())
        if kind in ("diff_means_rct", "ols_rct"):
            return rct_only_subgroups(ds, kind.removesuffix("_rct"))
        raise ConfigError(f"unknown estimator kind {kind!r}")

    def trial_logistic_fit(self) -> GlmFit:
        """The trial-only logistic fit behind the logistic_rct estimate, the
        logistic overall effect and every limit map's anchor."""
        return self._cached("trial_logistic_fit",
                            lambda: _pooled_logistic_fit(self.ds, None, rct_only=True))

    def overall(self, kind: str) -> float:
        fits = {"diff_means": diff_means_overall, "ols": ols_overall_effect,
                "logistic": lambda ds: logistic_overall_effect(ds, self.trial_logistic_fit())}
        if kind not in fits:
            raise ConfigError(f"unknown overall kind {kind!r}")
        return self._cached(f"overall:{kind}", lambda: fits[kind](self.ds))

    def bd_direction(self, initial_kind: str) -> np.ndarray:
        return self._cached(f"bd:{initial_kind}", lambda: self._bd_direction(initial_kind))

    def _bd_direction(self, initial_kind: str) -> np.ndarray:
        """The bias direction of an initial that `UNDEFINED_MODES` allows bd."""
        pi = self.dc.pi
        if initial_kind == "diff_means_pooled":
            return bd_direction_diff_means(self.dc)
        if initial_kind == "ols_pooled":
            return bd_direction_linear(self.ds, pi)[1]
        w = (self._cached("ipw", lambda: ec_weights(fit_propensity(self.ds)))
             if initial_kind == "logistic_ipw" else None)
        spec = build_limit_map_spec(self.ds, w, pi, self.trial_logistic_fit())
        return bd_direction_glm(spec)[1]

    def bd_sigma(self, initial_kind: str) -> np.ndarray:
        return solve_sigma_from_b(self.bd_direction(initial_kind), self.dc.pi)

    def shift(self, cfg: EstimatorConfig) -> tuple[np.ndarray, str]:
        """Resolve a harmonized estimator's sigma mode to its shift vector u
        and the mode that made it: fixed, bd or vd.

        bd uses the bias direction as u at full harmonization and the matrix
        built from it below, and falls back to vd when that direction is
        degenerate; vd uses the initial estimate's covariance; fixed (and
        its alias identity) the given matrix or the identity. Each matrix,
        and a degenerate bias direction, is found once per replicate and
        family (mode and initial estimator), and each u once per family and
        lambda, so every lambda of a family shares one checked matrix and
        the intervals centred on an estimator use its u itself.
        """
        key = ("shift", cfg.initial, cfg.sigma_mode, cfg.sigma, cfg.lam)
        return self._cached(key, lambda: self._resolve(cfg))

    def _resolve(self, cfg: EstimatorConfig) -> tuple[np.ndarray, str]:
        lam, initial, pi = cfg.lam, cfg.initial, self.dc.pi
        if cfg.sigma_mode not in (MODE_BD, MODE_VD):  # fixed, or its alias identity
            sigma = self._checked(MODE_FIXED, cfg.sigma, lambda: (
                np.eye(self.ds.k) if cfg.sigma is None else np.asarray(cfg.sigma, float)))
            return shift_vector(pi, sigma, lam), MODE_FIXED
        degenerate = ("degenerate", initial)
        if cfg.sigma_mode == MODE_BD and degenerate not in self._cache:
            try:
                if np.isinf(lam):
                    return self.bd_direction(initial), MODE_BD
                sigma = self._checked(MODE_BD, initial, lambda: self.bd_sigma(initial))
                return shift_vector(pi, sigma, lam), MODE_BD
            except DegenerateDirection:
                self._cache[degenerate] = True
                logger.warning("bias direction degenerate; falling back to "
                               "variance-directed harmonization")
        sigma = self._checked(MODE_VD, initial, lambda: vd_sigma(self.initial(initial)))
        return shift_vector(pi, sigma, lam), MODE_VD

    def _checked(self, mode: str, source, build) -> _SigmaShift:
        return self._cached(("sigma", mode, source), lambda: _SigmaShift(build(), self.dc.pi))

    def shift_mode(self, cfg: EstimatorConfig) -> str:
        """fixed, bd, vd or "vd (bd fallback)", as resolved for `cfg`."""
        mode = self.shift(cfg)[1]
        if cfg.sigma_mode == MODE_BD and mode == MODE_VD:
            return "vd (bd fallback)"
        return mode

    def harmonized(self, cfg: EstimatorConfig) -> tuple[np.ndarray, np.ndarray]:
        """The harmonized estimate of `cfg` and the shift vector u that made it."""
        def build():
            initial, overall = self.initial(cfg.initial), self.overall(cfg.overall)
            u = self.shift(cfg)[0]
            return harmonize(initial, overall, self.dc.pi, u).theta_k, u
        key = ("harmonized", cfg.initial, cfg.overall, cfg.sigma_mode, cfg.sigma, cfg.lam)
        return self._cached(key, build)

    def evaluate(self, cfg: EstimatorConfig) -> np.ndarray:
        if cfg.kind != "harmonized":
            return self.initial(cfg.kind).theta_k
        return self.harmonized(cfg)[0]


# --- reports -------------------------------------------------------------------

@dataclass
class MonteCarloReport:
    """Per-estimator and per-interval operating characteristics."""

    scenario: str
    reps: int
    seed: int
    truth: np.ndarray
    estimator_stats: dict[str, dict]
    interval_stats: dict[str, dict]
    failures: list[tuple[int, str, str]]
    prevalence_source: str
    replicate_estimates: dict[str, np.ndarray] | None = None
    extra: dict = field(default_factory=dict)

    def to_long_rows(self) -> list[dict]:
        rows = []
        for name, st in self.estimator_stats.items():
            for metric in ("bias", "sd", "rmse"):
                # rmse noise is dominated by the sd component
                se = st["mc_se_bias"] if metric == "bias" else st["mc_se_sd"]
                for k in range(len(self.truth)):
                    rows.append(dict(scenario=self.scenario, estimator=name,
                                     subgroup=k + 1, metric=metric,
                                     value=float(st[metric][k]), mc_se=float(se[k])))
            rows.append(dict(scenario=self.scenario, estimator=name, subgroup=0,
                             metric="n_used", value=int(st["n_used"]), mc_se=0.0))
        for name, st in self.interval_stats.items():
            for k in range(len(self.truth)):
                rows.append(dict(scenario=self.scenario, estimator=f"interval:{name}",
                                 subgroup=k + 1, metric="coverage",
                                 value=float(st["coverage"][k]),
                                 mc_se=float(st["mc_se_coverage"][k])))
                rows.append(dict(scenario=self.scenario, estimator=f"interval:{name}",
                                 subgroup=k + 1, metric="mean_width",
                                 value=float(st["mean_width"][k]),
                                 mc_se=float(st["mc_se_width"][k])))
            rows.append(dict(scenario=self.scenario, estimator=f"interval:{name}",
                             subgroup=0, metric="n_used", value=int(st["n_used"]), mc_se=0.0))
        return rows

    def to_json_dict(self) -> dict:
        def arr(a):
            return [float(v) for v in np.asarray(a).ravel()]
        return {
            "scenario": self.scenario, "reps": self.reps, "seed": self.seed,
            "truth": arr(self.truth),
            "prevalence_source": self.prevalence_source,
            "estimators": {
                name: {key: (arr(val) if isinstance(val, np.ndarray) else val)
                       for key, val in st.items()}
                for name, st in self.estimator_stats.items()},
            "intervals": {
                name: {key: (arr(val) if isinstance(val, np.ndarray) else val)
                       for key, val in st.items()}
                for name, st in self.interval_stats.items()},
            "failures": [list(f) for f in self.failures],
            "extra": self.extra,
        }


def _aggregate(scenario: str, reps: int, seed: int, truth: np.ndarray,
               names: Sequence[str], est: np.ndarray,
               interval_methods: Sequence[str], cover: np.ndarray,
               width: np.ndarray, failures: list,
               prevalence_source: str, keep_replicates: bool) -> MonteCarloReport:
    est_stats = {}
    for i, name in enumerate(names):
        vals = est[:, i, :]
        ok = np.isfinite(vals).all(axis=1)
        used = vals[ok]
        n = len(used)
        if n < 2:
            raise NumericalError(f"estimator {name!r} failed in all but {n} replicates")
        bias = used.mean(axis=0) - truth
        sd = used.std(axis=0, ddof=1)
        est_stats[name] = dict(
            bias=bias, sd=sd, rmse=np.sqrt(bias ** 2 + sd ** 2),
            mc_se_bias=sd / np.sqrt(n), mc_se_sd=sd / np.sqrt(2.0 * (n - 1)),
            n_used=n, n_failed=int(reps - n))
    int_stats = {}
    for i, name in enumerate(interval_methods):
        cv = cover[:, i, :]
        ok = np.isfinite(cv).all(axis=1)
        n = int(ok.sum())
        if n == 0:
            raise NumericalError(f"interval {name!r} failed in every replicate")
        p = cv[ok].mean(axis=0)
        wd = width[ok][:, i, :]
        int_stats[name] = dict(
            coverage=p, mean_width=wd.mean(axis=0),
            mc_se_coverage=np.sqrt(p * (1 - p) / n),
            mc_se_width=wd.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros_like(p),
            n_used=n, n_failed=int(reps - n))
    rep_est = None
    if keep_replicates:
        rep_est = {name: est[:, i, :].copy() for i, name in enumerate(names)}
    return MonteCarloReport(scenario=scenario, reps=reps, seed=seed, truth=truth,
                            estimator_stats=est_stats, interval_stats=int_stats,
                            failures=failures, prevalence_source=prevalence_source,
                            replicate_estimates=rep_est)


# --- Monte-Carlo driver ----------------------------------------------------------

def _interval_rows(ctx, target, methods, phi2, alpha, bootstrap_r, seed, rep, truth):
    cover = np.full((len(methods), ctx.ds.k), np.nan)
    width = np.full((len(methods), ctx.ds.k), np.nan)
    fails = []
    harmonized = None if target is None else partial(ctx.harmonized, target)
    for i, method in enumerate(methods):
        try:
            iv = interval(method, ctx.ds, ctx.dc, alpha, phi2=phi2, target=harmonized,
                          r=bootstrap_r, seed=seed, replicate=rep)
            cover[i] = iv.covers(truth).astype(float)
            width[i] = iv.width
        except (NumericalError, DataError) as exc:
            fails.append((rep, f"interval:{method}", str(exc)))
    return cover, width, fails


def _scenario_batch(args) -> tuple:
    (spec, est_cfgs, methods, alpha, bootstrap_r, seed, truth, interval_cfg,
     rep_indices) = args
    n_est, n_int, k = len(est_cfgs), len(methods), spec.k
    est = np.full((len(rep_indices), n_est, k), np.nan)
    cover = np.full((len(rep_indices), n_int, k), np.nan)
    width = np.full((len(rep_indices), n_int, k), np.nan)
    failures = []
    mu_true = np.asarray(spec.mu) if spec.outcome_family == CONTINUOUS else None
    for row, rep in enumerate(rep_indices):
        ds = generate_scenario(spec, seed, rep)
        dc = compute_design_counts(ds, spec.prevalences)
        ctx = _ReplicateContext(ds, dc, mu_true)
        for i, cfg in enumerate(est_cfgs):
            try:
                est[row, i] = ctx.evaluate(cfg)
            except (NumericalError, DataError) as exc:
                failures.append((rep, cfg.name, str(exc)))
        if methods:
            cover[row], width[row], fl = _interval_rows(
                ctx, interval_cfg, methods, spec.phi2, alpha, bootstrap_r, seed, rep, truth)
            failures.extend(fl)
    return est, cover, width, failures


def _run_batches(batch_fn, common_args, reps: int, workers: int):
    indices = np.arange(reps)
    if workers <= 1:
        return [batch_fn((*common_args, indices))]
    chunks = np.array_split(indices, min(workers * 4, reps))
    results = [None] * len(chunks)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(batch_fn, (*common_args, chunk)): i
                   for i, chunk in enumerate(chunks) if len(chunk)}
        for fut, i in futures.items():
            results[i] = fut.result()
    return [r for r in results if r is not None]


def _stack_batches(results):
    est = np.concatenate([r[0] for r in results], axis=0)
    cover = np.concatenate([r[1] for r in results], axis=0)
    width = np.concatenate([r[2] for r in results], axis=0)
    failures = sorted((f for r in results for f in r[3]), key=lambda f: (f[0], f[1]))
    return est, cover, width, failures


def plan_estimators(entries: Sequence, family: str, intervals: Sequence[str] = (),
                    interval_estimator: str | None = None,
                    bootstrap_r: int = 500) -> tuple[list[EstimatorConfig], EstimatorConfig | None]:
    """Parse the estimator entries and pick the one the intervals are
    centred on: the estimator named `interval_estimator`, else the first
    harmonized estimator at full lambda, else the first harmonized one.
    An empty list, duplicate names, bd on an initial without a bias
    direction, vd on one without a covariance, an interval on a pipeline it
    was not derived for and too few bootstrap draws are config errors."""
    cfgs = [e if isinstance(e, EstimatorConfig) else parse_estimator(e) for e in entries]
    if not cfgs:
        raise ConfigError("estimators must name at least one estimator")
    for c in cfgs:
        if c.kind == "harmonized" and c.initial in UNDEFINED_MODES.get(c.sigma_mode, ()):
            need = "a bias direction" if c.sigma_mode == MODE_BD else "a covariance"
            raise ConfigError(f"estimator {c.name!r}: sigma_mode {c.sigma_mode!r} needs "
                              f"{need}, which initial {c.initial!r} never has")
    names = [c.name for c in cfgs]
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        raise ConfigError(f"estimator names must be unique; repeated: {dupes}")
    harmonized = [c for c in cfgs if c.kind == "harmonized"]
    if interval_estimator is not None:
        target = next((c for c in cfgs if c.name == interval_estimator), None)
        if target is None:
            raise ConfigError(f"interval_estimator {interval_estimator!r} "
                              "names none of the estimators")
    else:
        target = next((c for c in harmonized if np.isinf(c.lam)),
                      harmonized[0] if harmonized else None)
    check_interval_methods(intervals, target, family)
    if "bootstrap" in intervals:
        check_bootstrap_r(bootstrap_r)
    return cfgs, target


def run_monte_carlo(spec: ScenarioSpec, estimators: Sequence, reps: int, seed: int,
                    intervals: Sequence[str] = (), alpha: float = 0.05,
                    bootstrap_r: int = 500, workers: int = 1,
                    keep_replicates: bool = False,
                    interval_estimator: str | None = None) -> MonteCarloReport:
    """Replicate the scenario and aggregate estimator and interval
    operating characteristics against the true subgroup effects."""
    if reps < 2:
        raise ConfigError("need at least 2 replicates")
    est_cfgs, interval_cfg = plan_estimators(estimators, spec.outcome_family, intervals,
                                             interval_estimator, bootstrap_r)
    check_fixed_sigmas(est_cfgs, spec.k)
    truth = true_effects(spec, seed)
    common = (spec, est_cfgs, tuple(intervals), alpha, bootstrap_r, seed, truth,
              interval_cfg)
    results = _run_batches(_scenario_batch, common, reps, workers)
    est, cover, width, failures = _stack_batches(results)
    source = "user_supplied" if spec.prevalences is not None else "rct_empirical"
    return _aggregate(spec.name, reps, seed, truth, [c.name for c in est_cfgs], est,
                      tuple(intervals), cover, width, failures, source, keep_replicates)


# --- pool resampling --------------------------------------------------------------

def _spike_amounts(spike, k: int) -> np.ndarray:
    """`spike` as a number or K numbers, all non-negative."""
    try:
        amounts = np.asarray(spike, dtype=float)
    except (TypeError, ValueError):
        amounts = np.full(1, np.nan)
    if amounts.shape not in ((), (k,)) or not np.all(amounts >= 0):
        raise InvalidEffect(f"spike must be a non-negative number or {k} of them, "
                            f"got {spike!r}")
    return amounts


def spike_effect(y: np.ndarray, w: np.ndarray, k: int, amounts,
                 rng: np.random.Generator) -> np.ndarray:
    """Raise the response rate of a binary arm by `amounts[k]` in
    expectation, flipping zeros to ones with the matching per-subgroup
    probability."""
    amounts = np.broadcast_to(_spike_amounts(amounts, k), (k,))
    y = y.copy()
    for j in range(k):
        m = w == j
        if not m.any() or amounts[j] == 0:
            continue
        rate = float(y[m].mean())
        if rate + amounts[j] > 1 + 1e-12:
            raise InvalidEffect(
                f"subgroup {j + 1}: target rate {rate + amounts[j]:.3f} exceeds 1")
        flip_p = min(1.0, amounts[j] / max(1e-300, 1.0 - rate)) if rate < 1 else 0.0
        zeros = m & (y == 0)
        y[zeros] = (rng.random(int(zeros.sum())) < flip_p).astype(float)
    return y


@dataclass(frozen=True)
class ResamplePools:
    """Source pools for in-silico trials: the actual trial control records
    and the external dataset."""

    y_ctrl: np.ndarray
    w_ctrl: np.ndarray
    x_ctrl: np.ndarray
    y_ec: np.ndarray
    w_ec: np.ndarray
    x_ec: np.ndarray
    k: int
    labels: tuple[str, ...]


def load_resample_pools(trial_csv: str, ec_csv: str, schema: CsvSchema,
                        subgroup_levels=None) -> ResamplePools:
    ds = load_dataset(trial_csv, ec_csv, schema, outcome_family=BINARY,
                      subgroup_levels=subgroup_levels)
    ctrl = ds.t_rct == 0
    if not ctrl.any():
        raise PoolTooSmall("trial file has no control records")
    if ds.n_ec == 0:
        raise PoolTooSmall("external file has no records")
    missing = [lab for j, lab in enumerate(ds.subgroup_labels)
               if not ((ds.w_rct[ctrl] == j).any() and (ds.w_ec == j).any())]
    if missing:
        raise PoolTooSmall(f"subgroups {missing} missing from a source pool")
    return ResamplePools(
        y_ctrl=ds.y_rct[ctrl], w_ctrl=ds.w_rct[ctrl], x_ctrl=ds.x_rct[ctrl],
        y_ec=ds.y_ec, w_ec=ds.w_ec, x_ec=ds.x_ec, k=ds.k, labels=ds.subgroup_labels)


DEFAULT_RESAMPLE_ESTIMATORS = (
    "logistic_pooled",
    "logistic_ipw",
    {"kind": "harmonized", "name": "harmonized_ipw", "initial": "logistic_ipw",
     "overall": "diff_means", "lambda": "full", "sigma_mode": "identity"},
    "logistic_rct",
)


def _resample_batch(args) -> tuple:
    (pools, est_cfgs, n_control, n_experimental, n_ec, seed, spike_amounts,
     fixed_pi, rep_indices) = args
    k = pools.k
    est = np.full((len(rep_indices), len(est_cfgs), k), np.nan)
    cover = np.zeros((len(rep_indices), 0, k))
    width = np.zeros((len(rep_indices), 0, k))
    failures = []
    d = pools.x_ctrl.shape[1]
    for row, rep in enumerate(rep_indices):
        rng = stream(seed, rep, ROLE_RESAMPLE)
        i_ctrl = rng.integers(0, len(pools.y_ctrl), n_control)
        i_exp = rng.integers(0, len(pools.y_ctrl), n_experimental)
        i_ec = rng.integers(0, len(pools.y_ec), n_ec)
        y_exp = pools.y_ctrl[i_exp]
        w_exp = pools.w_ctrl[i_exp]
        if spike_amounts is not None:
            try:
                y_exp = spike_effect(y_exp, w_exp, k, spike_amounts,
                                     stream(seed, rep, ROLE_SPIKE))
            except InvalidEffect as exc:
                failures.append((rep, "spike", str(exc)))
                continue
        y_r = np.concatenate([y_exp, pools.y_ctrl[i_ctrl]])
        w_r = np.concatenate([w_exp, pools.w_ctrl[i_ctrl]])
        t_r = np.concatenate([np.ones(n_experimental, dtype=np.int64),
                              np.zeros(n_control, dtype=np.int64)])
        x_r = np.concatenate([pools.x_ctrl[i_exp], pools.x_ctrl[i_ctrl]]) if d else None
        x_e = pools.x_ec[i_ec] if d else None
        try:
            ds = CombinedDataset.from_arrays(
                y_rct=y_r, t_rct=t_r, w_rct=w_r, y_ec=pools.y_ec[i_ec],
                w_ec=pools.w_ec[i_ec], k=k, x_rct=x_r, x_ec=x_e,
                outcome_family=BINARY, subgroup_labels=pools.labels)
            dc = compute_design_counts(ds, fixed_pi)
        except (DataError, NumericalError) as exc:
            failures.append((rep, "design", str(exc)))
            continue
        ctx = _ReplicateContext(ds, dc)
        for i, cfg in enumerate(est_cfgs):
            try:
                est[row, i] = ctx.evaluate(cfg)
            except (NumericalError, DataError) as exc:
                failures.append((rep, cfg.name, str(exc)))
    return est, cover, width, failures


def run_resampling(trial_csv: str, ec_csv: str, n_control: int = 100,
                   n_experimental: int = 200, n_ec: int = 600,
                   reps: int = 1000, estimators: Sequence | None = None,
                   seed: int = 0, schema: CsvSchema | None = None,
                   workers: int = 1, spike=None,
                   prevalence_mode: str = "replicate",
                   keep_replicates: bool = True) -> MonteCarloReport:
    """Generate in-silico trials by resampling both trial arms from the
    actual control pool (so true effects are zero) and external controls
    from the external pool, then compare estimators across replicates."""
    if prevalence_mode not in ("replicate", "pool"):
        raise ConfigError("prevalence_mode must be 'replicate' or 'pool'")
    if min(n_control, n_experimental, n_ec) < 1 or reps < 2:
        raise ConfigError("resampling sizes and reps must be positive")
    est_cfgs, _ = plan_estimators(
        DEFAULT_RESAMPLE_ESTIMATORS if estimators is None else estimators, BINARY)
    pools = load_resample_pools(trial_csv, ec_csv, schema or CsvSchema())
    check_fixed_sigmas(est_cfgs, pools.k)
    spike_amounts = None if spike is None else _spike_amounts(spike, pools.k)
    fixed_pi = None
    if prevalence_mode == "pool":
        counts = np.bincount(pools.w_ctrl, minlength=pools.k).astype(float)
        fixed_pi = tuple(counts / counts.sum())
    common = (pools, est_cfgs, n_control, n_experimental, n_ec, seed,
              spike_amounts, fixed_pi)
    results = _run_batches(_resample_batch, common, reps, workers)
    est, cover, width, failures = _stack_batches(results)
    truth = np.zeros(pools.k)
    report = _aggregate("resample", reps, seed, truth, [c.name for c in est_cfgs], est,
                        (), cover, width, failures,
                        "pool" if fixed_pi is not None else "replicate_empirical",
                        keep_replicates)
    report.extra.update(n_control=n_control, n_experimental=n_experimental,
                        n_ec=n_ec, subgroup_labels=list(pools.labels))
    return report
