"""Scenario generation, Monte-Carlo replication, pool-resampling
experiments, and metric aggregation.

`simulate` and `resample` run one replicate loop, `_run_replicates`: a
batch only says how a replicate is drawn, and a `resample` replicate that
cannot be drawn is recorded as "design". `evaluate_replicate`
computes the estimates and intervals of a drawn replicate, or of one
`estimate` call, and is where their failures are caught. A failed estimate
or interval is recorded with its reason and left out of the aggregates,
whose reports count what was left out; `estimate` raises the first failure
and writes nothing. Every report carries each replicate's estimates.
Estimators and intervals read a replicate through one handle, its
`_ReplicateContext`. What each estimator kind is (its estimate, its bias
direction, the sigma modes it allows, whether it is logistic) is declared
once, in one record per kind: `INITIALS` and `OVERALLS`.

Replicates draw from counter-based streams keyed by (seed, replicate,
role), so reports are deterministic for a fixed seed regardless of the
worker count.
"""

from __future__ import annotations

import logging
import os
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .bayes import FlatCutDesign, flat_cut_design
from .config import (
    FLAG,
    FULL,
    LAMBDA,
    MATRIX,
    TEXT,
    Vector,
    choice,
    declared,
    instance,
    read_fields,
    real,
    record,
    refuse_below,
    refuse_repeats,
    refuse_unknown,
    whole,
)
from .data import (
    BINARY,
    CONTINUOUS,
    OUTCOME_FAMILY,
    SIMPLEX,
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
    SeparationDetected,
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
    marginal_effects,
    ols_overall_effect,
    ols_subgroup_effects,
    oracle_subgroups,
    rct_only_subgroups,
    weighted_logistic_effects,
)
from .glm import GlmFit, expit
from .harmonize import (
    LimitMapSpec,
    _SigmaShift,
    _validate_sigma,
    analytic_bias_variance,
    bd_direction_diff_means,
    bd_direction_glm,
    bd_direction_linear,
    build_limit_map_spec,
    harmonize,
    solve_sigma_from_b,
    vd_sigma,
)
from .intervals import check_bootstrap_r, check_interval_methods, interval
from .rng import ROLE_COVARIATE, ROLE_OUTCOME, ROLE_RESAMPLE, ROLE_SPIKE, stream

logger = logging.getLogger("subharm")


# --- scenario specification ---------------------------------------------------

FINITE = real(strings=False)
CELLS = Vector(whole(0, strict=True))
EFFECTS = Vector(FINITE)
SD = real(0.0, FULL, (True, False), strings=False)


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

    name: str = declared(TEXT)
    outcome_family: str = declared(OUTCOME_FAMILY)
    k: int = declared(whole(1, strict=True))
    n_rct_treated: tuple[int, ...] = declared(CELLS)
    n_rct_control: tuple[int, ...] = declared(CELLS)
    n_ec: tuple[int, ...] = declared(CELLS)
    mu: tuple[float, ...] = declared(EFFECTS)
    theta: tuple[float, ...] = declared(EFFECTS)
    distortion: tuple[float, ...] = declared(EFFECTS)
    phi2: float = declared(FINITE, 1.0)
    n_covariates: int = declared(whole(0, strict=True), 0)
    beta: tuple[float, ...] = declared(Vector(FINITE, "n_covariates"), ())
    x_mean_rct: float = declared(FINITE, 0.0)
    x_sd_rct: float = declared(SD, 1.0)
    x_mean_ec: float = declared(FINITE, 0.0)
    x_sd_ec: float = declared(SD, 1.0)
    fixed_covariates: bool = declared(FLAG, False)
    prevalences: tuple[float, ...] | None = declared(SIMPLEX.or_null(), None)
    version: int = declared(whole(1, strict=True), 1)

    def __post_init__(self):
        read_fields(self, InvalidSpec)
        if sum(self.n_rct_treated) == 0 or sum(self.n_rct_control) == 0:
            raise InvalidSpec("both RCT arms need patients")
        if self.outcome_family == CONTINUOUS and not self.phi2 > 0:
            raise InvalidSpec("phi2 must be positive for continuous outcomes")

    def with_distortion(self, distortion) -> "ScenarioSpec":
        d = tuple(float(v) for v in np.broadcast_to(distortion, (self.k,)))
        return replace(self, distortion=d)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "ScenarioSpec":
        return SCENARIO.read(obj, "scenario", InvalidSpec)


SCENARIO = record(ScenarioSpec, "scenario", InvalidSpec, name="inline")


def shares_design(spec: ScenarioSpec) -> bool:
    """Whether every replicate of `spec` at one seed has the same design:
    its covariates are frozen, or it has none."""
    return bool(spec.fixed_covariates) or spec.n_covariates == 0


@dataclass(frozen=True)
class ScenarioDesign:
    """What one draw of `spec` at `seed` holds besides its outcomes:
    `dataset` has the cell layout and the covariates, with outcomes of 0
    in their place, and `mean_rct` and `mean_ec` are the outcomes'
    expectations, the linear predictor for continuous outcomes and its
    logistic function for binary ones."""

    spec: ScenarioSpec
    seed: int
    dataset: CombinedDataset
    mean_rct: np.ndarray
    mean_ec: np.ndarray


def scenario_design(spec: ScenarioSpec, seed: int, replicate: int = 0) -> ScenarioDesign:
    """Draw the covariates of one replicate, unless they are frozen, and
    lay out its design: each subgroup's treated rows, then its control
    rows, and the EC rows in subgroup order. The columns are validated
    here, once per design."""
    w_r = np.repeat(np.arange(spec.k), np.add(spec.n_rct_treated, spec.n_rct_control))
    t_r = np.concatenate([np.repeat(np.array([1, 0], dtype=np.int64), cells)
                          for cells in zip(spec.n_rct_treated, spec.n_rct_control)])
    w_e = np.repeat(np.arange(spec.k), spec.n_ec)
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
    if spec.outcome_family == BINARY:
        lp_r, lp_e = expit(lp_r), expit(lp_e)
    ds = CombinedDataset.from_arrays(
        y_rct=np.zeros(len(w_r)), t_rct=t_r, w_rct=w_r, y_ec=np.zeros(len(w_e)), w_ec=w_e,
        k=spec.k, x_rct=x_r, x_ec=x_e, outcome_family=spec.outcome_family)
    return ScenarioDesign(spec, seed, ds, lp_r, lp_e)


def generate_scenario(spec: ScenarioSpec, seed: int, replicate: int = 0,
                      design: ScenarioDesign | None = None) -> CombinedDataset:
    """Draw one dataset pair. Cell counts are deterministic; outcomes (and
    covariates, unless frozen) are stochastic.

    A `simulate` batch of a spec that `shares_design` draws its design
    once, as `scenario_design(spec, seed)`, and passes it as `design`:
    each replicate then draws only its outcomes, and its dataset shares
    the design's columns and what is built from them alone (see
    `CombinedDataset`). The dataset is the same, array for array, as
    without `design`."""
    if design is None:
        design = scenario_design(spec, seed, replicate)
    elif not (design.spec is spec and design.seed == seed and shares_design(spec)):
        raise ValueError("a design is shared only among the replicates of its own "
                         "spec and seed, whose covariates are frozen or absent")
    ds = design.dataset
    out_rng = stream(seed, replicate, ROLE_OUTCOME)
    if spec.outcome_family == CONTINUOUS:
        y_r = design.mean_rct + out_rng.normal(0.0, np.sqrt(spec.phi2), ds.n_rct)
        y_e = design.mean_ec + out_rng.normal(0.0, np.sqrt(spec.phi2), ds.n_ec)
    else:
        y_r = (out_rng.random(ds.n_rct) < design.mean_rct).astype(float)
        y_e = (out_rng.random(ds.n_ec) < design.mean_ec).astype(float)
    return ds.with_outcomes(y_r, y_e)


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
        ds = scenario_design(spec, seed).dataset
        return marginal_effects(ds.rct_subgroups, ds.x_rct, mu, th, beta)
    # linear predictor is scalar normal: Gauss-Hermite over beta'X; imported
    # here, as no other path loads numpy.polynomial
    from numpy.polynomial.hermite_e import hermegauss

    m_lp = spec.x_mean_rct * float(beta.sum())
    s_lp = spec.x_sd_rct * float(np.sqrt((beta ** 2).sum()))
    nodes, wts = hermegauss(80)
    wts = wts / wts.sum()
    z = m_lp + s_lp * nodes
    return np.array([float(wts @ (expit(mu[j] + th[j] + z) - expit(mu[j] + z)))
                     for j in range(spec.k)])


# --- estimator configuration ---------------------------------------------------

MODE_FIXED = "fixed"
MODE_BD = "bd"
MODE_VD = "vd"
SIGMA_MODES = ("identity", MODE_FIXED, MODE_BD, MODE_VD)
SIGMA_MODE = choice(SIGMA_MODES)


@dataclass(frozen=True)
class InitialEstimator:
    """What an initial kind is. `estimate` and `bias_direction` take a
    `_ReplicateContext`, and each calls its estimator through this
    module's namespace when it runs, so a binding patched there is the one
    called. `bias_direction` is None where bd is never defined;
    `covariance` is whether the estimate carries the covariance that vd
    reads; `design_only_bd` is whether the bias direction depends on the
    design counts alone; `reads_truth` is whether the estimate reads the
    true control levels, which only a continuous scenario knows."""

    estimate: Callable
    bias_direction: Callable | None = None
    covariance: bool = True
    logistic: bool = False
    design_only_bd: bool = False
    reads_truth: bool = False


@dataclass(frozen=True)
class OverallEstimator:
    """What an overall kind is: its estimate on a `_ReplicateContext`,
    called as `InitialEstimator.estimate` is, and whether it is logistic."""

    estimate: Callable
    logistic: bool = False


INITIALS = {
    "diff_means_pooled": InitialEstimator(
        lambda ctx: diff_means_pooled_subgroups(ctx.ds),
        lambda ctx: bd_direction_diff_means(ctx.dc), design_only_bd=True),
    "diff_means_rct": InitialEstimator(lambda ctx: rct_only_subgroups(ctx.ds), covariance=False),
    "oracle": InitialEstimator(
        lambda ctx: oracle_subgroups(ctx.ds, ctx.mu_true), covariance=False, reads_truth=True),
    "ols_pooled": InitialEstimator(
        lambda ctx: ols_subgroup_effects(ctx.ds),
        lambda ctx: bd_direction_linear(ctx.ds, ctx.dc.pi)[1]),
    "ols_rct": InitialEstimator(lambda ctx: rct_only_subgroups(ctx.ds, "ols"), covariance=False),
    "logistic_pooled": InitialEstimator(
        lambda ctx: logistic_marginal_effects(ctx.ds),
        lambda ctx: bd_direction_glm(ctx.limit_map_spec("logistic_pooled"))[1], logistic=True),
    "logistic_rct": InitialEstimator(lambda ctx: logistic_marginal_effects(
        ctx.ds, fit=ctx.trial_logistic_fit()), logistic=True),
    "logistic_ipw": InitialEstimator(
        lambda ctx: weighted_logistic_effects(ctx.ds, ctx.ipw_weights()),
        lambda ctx: bd_direction_glm(ctx.limit_map_spec("logistic_ipw"))[1], logistic=True),
}
OVERALLS = {
    "diff_means": OverallEstimator(lambda ctx: diff_means_overall(ctx.ds)),
    "ols": OverallEstimator(lambda ctx: ols_overall_effect(ctx.ds)),
    "logistic": OverallEstimator(
        lambda ctx: logistic_overall_effect(ctx.ds, ctx.trial_logistic_fit()), logistic=True),
}


@dataclass(frozen=True)
class EstimatorConfig:
    """One estimator column in a report: either a plain initial estimator
    or a harmonized transform of one."""

    # a plain estimator's fields are its kind and name; an entry's "lambda" is `lam`
    kind: str = declared(choice(("harmonized", *INITIALS)))
    name: str = declared(TEXT)
    initial: str = declared(choice(INITIALS), "")
    overall: str = declared(choice(OVERALLS), "diff_means")
    lam: float = declared(LAMBDA, FULL)
    sigma_mode: str = declared(SIGMA_MODE, "bd")
    sigma: tuple[tuple[float, ...], ...] | None = declared(MATRIX.or_null(), None)

    def __post_init__(self):
        read_fields(self, prefix="estimator ",
                    names=None if self.kind == "harmonized" else ("kind", "name"))
        if self.sigma is not None and self.sigma_mode != MODE_FIXED:
            raise ConfigError(f"a sigma needs sigma_mode 'fixed', not {self.sigma_mode!r}")


ENTRY = instance("a string or an object", (str, dict))
HARMONIZATION_KEYS = {"initial", "overall", "lambda", "sigma_mode", "sigma"}


def parse_estimator(obj) -> EstimatorConfig:
    """The reader of an estimator entry (the kind `ENTRY`): a plain kind
    name, or an object whose fields are read by their kinds
    (`EstimatorConfig`). Unknown keys and harmonization options on a plain
    estimator are errors too; a field's error quotes the entry. An object
    without a name is named after its kind, or a harmonized one after its
    initial, lambda and sigma mode."""
    ENTRY.read(obj, "estimator entry")
    if isinstance(obj, str):
        return EstimatorConfig(name=obj, kind=obj)
    refuse_unknown("estimator", obj, {"name", "kind", *HARMONIZATION_KEYS})
    kind = obj.get("kind")
    if kind is None:
        raise ConfigError("estimator objects need a 'kind'")
    options = sorted(set(obj) & HARMONIZATION_KEYS)
    if kind != "harmonized" and options:
        raise ConfigError(f"plain estimator {kind!r} takes no {options}")
    fields = {("lam" if key == "lambda" else key): value for key, value in obj.items()}
    try:
        if kind == "harmonized":
            fields["lam"] = LAMBDA.read(obj.get("lambda", "full"), "estimator lambda")
            lam = "full" if np.isinf(fields["lam"]) else format(fields["lam"], "g")
            fields.setdefault("name", f"harmonized[{obj.get('initial')},lam={lam},"
                                      f"{obj.get('sigma_mode', 'bd')}]")
        return EstimatorConfig(**{"name": kind, **fields})
    except ConfigError as exc:
        raise ConfigError(f"{exc} in entry {obj!r}") from None


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
    """The one handle on a replicate, or an `estimate` call: its dataset
    `ds`, design counts `dc` and the fits made from them, each cached on
    first use. It resolves each harmonized estimator to its shift vector u
    and mode (`shift`), which its estimate and the intervals centred on it
    share.

    What depends on the design counts alone is kept in `dc.cache`, which
    the contexts of a `simulate` batch share with its `dc`: the bias
    direction of an initial whose record has `design_only_bd`, each
    checked fixed (or identity) matrix, the analytic interval's covariance
    along a u made from them (`design_only`), and the cut's design part
    (`cut_design`); the interval dispatcher keeps the analytic and cut
    half-widths there, and the bootstrap its scales
    (`intervals.bootstrap_scales`). Where the batch's covariates are
    frozen or absent, its datasets also share one design
    (`generate_scenario`), so the cell index, the cell sort, the subgroup
    grouping and the limit map's layout are built once per batch.
    """

    def __init__(self, ds: CombinedDataset, dc: DesignCounts, mu_true=None):
        self.ds = ds
        self.dc = dc
        self.mu_true = mu_true
        self._cache: dict = {}

    def _cached(self, key, build, design_only: bool = False):
        if design_only:
            return self.dc.cached(key, build)
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def initial(self, kind: str) -> EffectEstimate:
        return self._cached(kind, lambda: INITIALS[kind].estimate(self))

    def trial_logistic_fit(self) -> GlmFit:
        """The trial-only logistic fit behind the logistic_rct estimate, the
        logistic overall effect and every limit map's anchor."""
        return self._cached("trial_logistic_fit",
                            lambda: _pooled_logistic_fit(self.ds, None, rct_only=True))

    def ipw_weights(self) -> np.ndarray:
        """The EC records' propensity weights, shared by the logistic_ipw
        estimate and its limit map."""
        return self._cached("ipw", lambda: ec_weights(fit_propensity(self.ds)))

    def overall(self, kind: str) -> float:
        return self._cached(f"overall:{kind}", lambda: OVERALLS[kind].estimate(self))

    def bd_direction(self, initial_kind: str) -> np.ndarray:
        """The bias direction of an initial that has one; once per batch
        where it depends on the design counts alone."""
        initial = INITIALS[initial_kind]
        return self._cached(f"bd:{initial_kind}", lambda: initial.bias_direction(self),
                            design_only=initial.design_only_bd)

    def limit_map_spec(self, initial_kind: str) -> LimitMapSpec:
        """The limit map of a logistic initial. One layout (`CellDesign`,
        pseudo-responses and EC rows) serves the pooled and IPW maps, which
        differ only in the EC rows' weights. Raises SeparationDetected when
        an RCT (subgroup, arm) cell's responses are all 0 or all 1: the
        trial-only fit it is anchored at then has no finite maximum."""
        spec = self._cached("limit_map", self._limit_map)
        if initial_kind != "logistic_ipw":
            return spec
        weights = spec.weights.copy()
        weights[spec.ec_rows] = self.ipw_weights()
        return replace(spec, weights=weights)

    def _limit_map(self) -> LimitMapSpec:
        self._refuse_boundary("logistic_rct", "the bias-directed limit map's trial-only "
                                              "anchor has no finite maximum")
        return build_limit_map_spec(self.ds, self.dc.pi, self.trial_logistic_fit())

    def _refuse_boundary(self, initial_kind: str, consequence: str) -> None:
        """Raise SeparationDetected, naming the subgroup, the cell and
        `consequence`, when a non-empty cell with its own intercept in
        `initial_kind`'s logistic fit has responses all 0 or all 1: an RCT
        (subgroup, arm) cell of the trial-only fit, or an RCT treated cell
        or a subgroup's RCT and EC controls pooled in the pooled and IPW
        fits. One tally of the replicate's responses serves every check."""
        ds = self.ds
        # subgroup, cell (RCT control, RCT treated, EC), response
        tally = self._cached("responses", lambda: np.bincount(np.concatenate([
            6 * ds.w_rct + 2 * ds.t_rct + ds.y_rct.astype(np.int64),
            6 * ds.w_ec + 4 + ds.y_ec.astype(np.int64)]),
            minlength=6 * ds.k).reshape(ds.k, 3, 2).tolist())
        pooled = initial_kind != "logistic_rct"
        control_cell = "pooled control" if pooled else "RCT control"
        for label, (control, treated, ec) in zip(ds.subgroup_labels, tally):
            if pooled:
                control = [c + e for c, e in zip(control, ec)]
            for cell, (zeros, ones) in ((control_cell, control), ("RCT treated", treated)):
                if (zeros == 0) != (ones == 0):  # a non-empty cell with a single response
                    raise SeparationDetected(f"the {cell} responses of subgroup {label!r} are "
                                             f"all {int(ones > 0)}: {consequence}")

    def bd_sigma(self, initial_kind: str) -> np.ndarray:
        """A positive-definite matrix whose shift is bd's at every lambda;
        `shift` needs none, so this serves as its check."""
        return solve_sigma_from_b(self.bd_direction(initial_kind), self.dc.pi)

    def shift(self, cfg: EstimatorConfig) -> tuple[np.ndarray, str]:
        """Resolve a harmonized estimator's sigma mode to its shift vector u
        and the mode that made it: fixed, bd or vd.

        bd takes the unit bias direction d as u at full harmonization and
        lam / (lam + 1) d at finite lam, the shift of any Sigma with Sigma
        pi proportional to d, and falls back to vd when d is degenerate; vd
        uses the initial estimate's covariance; fixed (and its alias
        identity) the given matrix or the identity. Each matrix, and a
        degenerate bias direction, is found once per replicate and family
        (mode and initial estimator), and each u once per family and
        lambda, so the intervals centred on an estimator use its u itself.
        """
        key = ("shift", cfg.initial, cfg.sigma_mode, cfg.sigma, cfg.lam)
        return self._cached(key, lambda: self._resolve(cfg))

    def _resolve(self, cfg: EstimatorConfig) -> tuple[np.ndarray, str]:
        """`shift`, uncached. A DegenerateDirection from `bd_direction` sends
        bd to vd. vd on a logistic initial refuses a cell at the boundary
        (`_refuse_boundary`): its Wald variance is about 0, so vd would move
        that subgroup least where its estimate is least reliable."""
        lam, initial = cfg.lam, cfg.initial
        if cfg.sigma_mode not in (MODE_BD, MODE_VD):  # fixed, or its alias identity
            return self._checked(MODE_FIXED, cfg.sigma, lambda: (
                np.eye(self.ds.k) if cfg.sigma is None else cfg.sigma)).u(lam), MODE_FIXED
        degenerate = ("degenerate", initial)
        if cfg.sigma_mode == MODE_BD and degenerate not in self._cache:
            try:
                d = self.bd_direction(initial)
                return (d if np.isinf(lam) else d * (lam / (lam + 1.0))), MODE_BD
            except DegenerateDirection:
                self._cache[degenerate] = True
                logger.warning("bias direction degenerate for initial %r; falling back "
                               "to variance-directed harmonization", initial)
        if INITIALS[initial].logistic:
            self._refuse_boundary(initial, f"the {initial!r} fit has no finite maximum, so "
                                           "its covariance cannot direct the shift")
        return self._checked(MODE_VD, initial,
                             lambda: vd_sigma(self.initial(initial))).u(lam), MODE_VD

    def _checked(self, mode: str, source, build) -> _SigmaShift:
        return self._cached(("sigma", mode, source), lambda: _SigmaShift(build(), self.dc.pi),
                            design_only=mode == MODE_FIXED)

    def design_only(self, cfg: EstimatorConfig) -> bool:
        """Whether `cfg`'s shift vector u, and so its analytic covariance,
        depends on the design counts alone: a fixed shift, or bd on an
        initial whose bias direction does."""
        mode = self.shift(cfg)[1]
        return mode == MODE_FIXED or (mode == MODE_BD and INITIALS[cfg.initial].design_only_bd)

    def analytic_variance(self, cfg: EstimatorConfig, phi2: float) -> np.ndarray:
        """The covariance of `cfg`'s harmonized difference-of-means estimate
        at outcome variance phi2, which the analytic interval reads; once
        per batch when its shift vector u depends on the design alone."""
        u = self.shift(cfg)[0]
        return self._cached(
            ("variance", cfg.initial, cfg.sigma_mode, cfg.sigma, cfg.lam, phi2),
            lambda: analytic_bias_variance(self.dc, np.zeros(self.dc.k), u, phi2)[1],
            design_only=self.design_only(cfg))

    def cut_design(self, phi2: float) -> FlatCutDesign:
        """The design part of the flat-prior cut (`bayes.flat_cut`) at
        outcome variance phi2, which the cut interval reads; once per batch."""
        counts = self.dc.counts
        return self._cached(("cut", phi2), lambda: flat_cut_design(
            counts[:, 1, 0], counts[:, 0, 0], counts[:, 0, 1], phi2, self.dc.pi),
            design_only=True)

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
    replicate_estimates: dict[str, np.ndarray]
    extra: dict = field(default_factory=dict)

    def to_long_rows(self) -> list[dict]:
        rows = []

        def add(estimator, subgroup, metric, value, mc_se):
            rows.append(dict(scenario=self.scenario, estimator=estimator, subgroup=subgroup,
                             metric=metric, value=value, mc_se=mc_se))
        for name, st in self.estimator_stats.items():
            for metric in ("bias", "sd", "rmse"):
                # rmse noise is dominated by the sd component
                se = st["mc_se_bias"] if metric == "bias" else st["mc_se_sd"]
                for k in range(len(self.truth)):
                    add(name, k + 1, metric, float(st[metric][k]), float(se[k]))
            add(name, 0, "n_used", int(st["n_used"]), 0.0)
        for name, st in self.interval_stats.items():
            for k in range(len(self.truth)):
                add(f"interval:{name}", k + 1, "coverage", float(st["coverage"][k]),
                    float(st["mc_se_coverage"][k]))
                add(f"interval:{name}", k + 1, "mean_width", float(st["mean_width"][k]),
                    float(st["mc_se_width"][k]))
            add(f"interval:{name}", 0, "n_used", int(st["n_used"]), 0.0)
        return rows

    def to_json_dict(self) -> dict:
        def arr(a):
            return [float(v) for v in np.asarray(a).ravel()]

        def stats(by_name):
            return {name: {key: (arr(val) if isinstance(val, np.ndarray) else val)
                           for key, val in st.items()} for name, st in by_name.items()}
        return {
            "scenario": self.scenario, "reps": self.reps, "seed": self.seed,
            "truth": arr(self.truth),
            "prevalence_source": self.prevalence_source,
            "estimators": stats(self.estimator_stats),
            "intervals": stats(self.interval_stats),
            "failures": [list(f) for f in self.failures],
            "extra": self.extra,
        }


def _aggregate(scenario: str, reps: int, seed: int, truth: np.ndarray,
               names: Sequence[str], est: np.ndarray,
               interval_methods: Sequence[str], cover: np.ndarray,
               width: np.ndarray, failures: list,
               prevalence_source: str) -> MonteCarloReport:
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
    return MonteCarloReport(scenario=scenario, reps=reps, seed=seed, truth=truth,
                            estimator_stats=est_stats, interval_stats=int_stats,
                            failures=failures, prevalence_source=prevalence_source,
                            replicate_estimates={name: est[:, i, :]
                                                 for i, name in enumerate(names)})


# --- Monte-Carlo driver ----------------------------------------------------------

def _attempt(failures: list, name: str, failed, compute, *args, **kwargs):
    """`compute(*args, **kwargs)`, or `failed` once (name, exception) is
    appended to `failures` when it raises a NumericalError or DataError."""
    try:
        return compute(*args, **kwargs)
    except (NumericalError, DataError) as exc:
        failures.append((name, exc))
        return failed


def _interval_rows(ctx, target, methods, phi2, alpha, r, seed, rep, failures) -> list:
    """One `IntervalSet` per method, None where it failed."""
    return [_attempt(failures, f"interval:{method}", None, interval, method, ctx, target,
                     alpha, phi2=phi2, r=r, seed=seed, replicate=rep) for method in methods]


def evaluate_replicate(ctx, rep, est_cfgs, methods, target, phi2, alpha, r, seed) -> tuple:
    """Evaluate one replicate, or one `estimate` call, in `ctx`: a K-row per
    estimator (NaN where it failed), an `IntervalSet` per interval method
    centred on `target` (None where it failed), and each NumericalError
    or DataError as (name, exception), estimators in list order first."""
    failures: list = []
    nan = np.full(ctx.ds.k, np.nan)
    est = np.array([_attempt(failures, cfg.name, nan, ctx.evaluate, cfg) for cfg in est_cfgs])
    ivs = _interval_rows(ctx, target, methods, phi2, alpha, r, seed, rep, failures)
    return est, ivs, failures


def _run_replicates(rep_indices, draw, est_cfgs, k: int, methods=(), target=None, phi2=None,
                    alpha=None, r=None, seed=None, truth=None) -> tuple:
    """Every batch's replicate loop: `evaluate_replicate` on the context
    `draw(rep, failures)` makes, unless it appends (name, exception) and
    returns None. The (est, cover, width) rows are NaN where a replicate,
    an estimator or an interval failed; failures are (rep, name, message)."""
    est = np.full((len(rep_indices), len(est_cfgs), k), np.nan)
    cover = np.full((len(rep_indices), len(methods), k), np.nan)
    width = cover.copy()
    failures = []
    for row, rep in enumerate(map(int, rep_indices)):
        fails: list = []
        ctx = draw(rep, fails)
        if ctx is not None:
            est[row], ivs, evaluated = evaluate_replicate(ctx, rep, est_cfgs, methods, target,
                                                          phi2, alpha, r, seed)
            fails += evaluated
            for i, iv in enumerate(ivs):
                if iv is not None:
                    cover[row, i], width[row, i] = iv.covers(truth), iv.width
        failures += [(rep, name, str(exc)) for name, exc in fails]
    return est, cover, width, failures


def _scenario_batch(rep_indices, *, spec, est_cfgs, methods, alpha, bootstrap_r, seed, truth,
                    interval_cfg) -> tuple:
    """`simulate`'s replicates `rep_indices`, whose design counts are fixed;
    where `spec` `shares_design`, they draw only their outcomes."""
    design = scenario_design(spec, seed)
    dc = compute_design_counts(design.dataset, spec.prevalences)
    shared = design if shares_design(spec) else None
    mu_true = np.asarray(spec.mu) if spec.outcome_family == CONTINUOUS else None

    def draw(rep, failures):
        return _ReplicateContext(generate_scenario(spec, seed, rep, shared), dc, mu_true)
    return _run_replicates(rep_indices, draw, est_cfgs, spec.k, methods, interval_cfg,
                           spec.phi2, alpha, bootstrap_r, seed, truth)


_BATCH = None  # a pool worker's batch function, set once by `_set_batch`


def _set_batch(batch_fn) -> None:
    global _BATCH
    _BATCH = batch_fn


def _run_chunk(rep_indices) -> tuple:
    return _BATCH(rep_indices)


def _run_batches(batch_fn, reps: int, workers: int) -> tuple:
    """`batch_fn` over replicates 0..reps-1, in one batch or in chunks on
    worker processes: the (est, cover, width) arrays stacked in replicate
    order, and the failures sorted by replicate and name. A pool starts
    all its processes at once, so `workers` only caps their count, which
    exceeds neither the replicates nor the CPUs this process may use.

    Each worker gets `batch_fn` once, from the pool's initializer (a fork
    inherits it; spawn pickles it once per worker), and each task carries
    only its replicate indices. The min(16 workers, reps) chunks are small
    enough that no worker idles long while another finishes its last."""
    indices = np.arange(reps)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(workers, reps, cpus)
    if workers <= 1:
        results = [batch_fn(indices)]
    else:
        # imported here: a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        chunks = np.array_split(indices, min(workers * 16, reps))
        with ProcessPoolExecutor(max_workers=workers, initializer=_set_batch,
                                 initargs=(batch_fn,)) as pool:
            futures = [pool.submit(_run_chunk, chunk) for chunk in chunks]
            results = [fut.result() for fut in futures]
    stacked = (np.concatenate([r[i] for r in results]) for i in range(3))
    failures = sorted((f for r in results for f in r[3]), key=lambda f: (f[0], f[1]))
    return (*stacked, failures)


def plan_estimators(entries: Sequence, family: str, intervals: Sequence[str] = (),
                    interval_estimator: str | None = None, bootstrap_r: int = 500,
                    control_levels_known: bool = False) -> tuple[list, EstimatorConfig | None]:
    """Parse the estimator entries and pick the one the intervals are
    centred on: the estimator named `interval_estimator`, else the first
    harmonized estimator at full lambda, else the first harmonized one.
    An empty list, duplicate names or interval methods, a logistic
    estimator or overall on continuous outcomes, bd on an initial without a
    bias direction, vd on one without a covariance, an oracle unless
    `control_levels_known`, an interval on a pipeline it was not derived
    for and too few bootstrap draws are config errors; each estimator
    reads what its kinds are from `INITIALS` and `OVERALLS`."""
    cfgs = [e if isinstance(e, EstimatorConfig) else parse_estimator(e) for e in entries]
    if not cfgs:
        raise ConfigError("estimators must name at least one estimator")
    for c in cfgs:
        is_harmonized = c.kind == "harmonized"
        initial = INITIALS[c.initial if is_harmonized else c.kind]
        need = {MODE_BD: None if initial.bias_direction else "a bias direction",
                MODE_VD: None if initial.covariance else "a covariance"}.get(c.sigma_mode)
        if is_harmonized and need:
            raise ConfigError(f"estimator {c.name!r}: sigma_mode {c.sigma_mode!r} needs "
                              f"{need}, which initial {c.initial!r} never has")
        if family == CONTINUOUS and (initial.logistic
                                     or is_harmonized and OVERALLS[c.overall].logistic):
            raise ConfigError(f"estimator {c.name!r} fits a logistic model, which needs "
                              "binary outcomes, not continuous ones")
        if initial.reads_truth and not control_levels_known:
            raise ConfigError(f"estimator {c.name!r} reads the true control levels, which "
                              "only a continuous simulate scenario knows")
    refuse_repeats("estimator names", [c.name for c in cfgs])
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
                    interval_estimator: str | None = None) -> MonteCarloReport:
    """Replicate the scenario and aggregate estimator and interval
    operating characteristics against the true subgroup effects."""
    refuse_below("reps", reps, 2)
    est_cfgs, interval_cfg = plan_estimators(estimators, spec.outcome_family, intervals,
                                             interval_estimator, bootstrap_r,
                                             spec.outcome_family == CONTINUOUS)
    check_fixed_sigmas(est_cfgs, spec.k)
    truth = true_effects(spec, seed)
    batch = partial(_scenario_batch, spec=spec, est_cfgs=est_cfgs, methods=tuple(intervals),
                    alpha=alpha, bootstrap_r=bootstrap_r, seed=seed, truth=truth,
                    interval_cfg=interval_cfg)
    est, cover, width, failures = _run_batches(batch, reps, workers)
    source = "user_supplied" if spec.prevalences is not None else "rct_empirical"
    return _aggregate(spec.name, reps, seed, truth, [c.name for c in est_cfgs], est,
                      tuple(intervals), cover, width, failures, source)


# --- pool resampling --------------------------------------------------------------

# a non-negative response-rate increase, or one per subgroup
SPIKE = Vector(real(0.0, FULL, (True, True)), scalar=True)
PREVALENCE_MODE = choice(("replicate", "pool"))


def _flip_probabilities(y: np.ndarray, w: np.ndarray, k: int, amounts) -> list:
    """Per subgroup j, the probability amounts[j] / (1 - rate_j) that a 0 of
    y becomes a 1, which raises y's response rate rate_j by amounts[j] in
    expectation; None where nothing flips. `amounts` is of the kind `SPIKE`,
    and rate_j + amounts[j] at most 1, else InvalidEffect naming j."""
    amounts = SPIKE.read(amounts, "spike", InvalidEffect, {"k": k})
    flip_p = []
    for j, amount in enumerate(amounts):
        m = w == j
        if not m.any() or amount == 0:
            flip_p.append(None)
            continue
        rate = float(y[m].mean())
        if rate + amount > 1 + 1e-12:
            raise InvalidEffect(f"spike {amount:g} on subgroup {j + 1}, whose response rate "
                                f"is {rate:.3f}, asks a rate of {rate + amount:.3f}, above 1")
        flip_p.append((m, min(1.0, amount / max(1e-300, 1.0 - rate)) if rate < 1 else 0.0))
    return flip_p


def spike_effect(y: np.ndarray, w: np.ndarray, k: int, amounts,
                 rng: np.random.Generator) -> np.ndarray:
    """Raise the response rate of a binary sample by `amounts[k]` in
    expectation, flipping zeros to ones with the matching per-subgroup
    probability (`_flip_probabilities`)."""
    y = y.copy()
    for flip in _flip_probabilities(y, w, k, amounts):
        if flip is not None:
            m, p = flip
            zeros = m & (y == 0)
            y[zeros] = (rng.random(int(zeros.sum())) < p).astype(float)
    return y


def load_resample_pools(trial_csv: str, ec_csv: str, schema: CsvSchema,
                        subgroup_levels=None) -> CombinedDataset:
    """The source pools of in-silico trials: the trial's control records,
    as the RCT rows, and the external records."""
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
    return CombinedDataset.from_arrays(
        y_rct=ds.y_rct[ctrl], t_rct=ds.t_rct[ctrl], w_rct=ds.w_rct[ctrl], y_ec=ds.y_ec,
        w_ec=ds.w_ec, k=ds.k, x_rct=ds.x_rct[ctrl], x_ec=ds.x_ec, outcome_family=BINARY,
        subgroup_labels=ds.subgroup_labels)


DEFAULT_RESAMPLE_ESTIMATORS = (
    "logistic_pooled",
    "logistic_ipw",
    {"kind": "harmonized", "name": "harmonized_ipw", "initial": "logistic_ipw",
     "overall": "diff_means", "lambda": "full", "sigma_mode": "identity"},
    "logistic_rct",
)


def _resample_batch(rep_indices, *, pools, est_cfgs, n_control, n_experimental, n_ec, seed,
                    spike_amounts, fixed_pi) -> tuple:
    """`resample`'s replicates `rep_indices`: both trial arms drawn from the
    control pool and the external controls from the external pool. Unless
    `spike_amounts` is None, the experimental arm is drawn from the control
    pool spiked afresh for each replicate, so its expected response rate is
    the pool's plus the amount in each subgroup."""
    t_r = np.repeat(np.array([1, 0], dtype=np.int64), (n_experimental, n_control))

    def draw(rep, failures):
        rng = stream(seed, rep, ROLE_RESAMPLE)
        i_ctrl = rng.integers(0, pools.n_rct, n_control)
        i_exp = rng.integers(0, pools.n_rct, n_experimental)
        i_ec = rng.integers(0, pools.n_ec, n_ec)
        i_r = np.concatenate([i_exp, i_ctrl])
        y_r = pools.y_rct[i_r]
        if spike_amounts is not None:
            y_r[:n_experimental] = spike_effect(pools.y_rct, pools.w_rct, pools.k, spike_amounts,
                                                stream(seed, rep, ROLE_SPIKE))[i_exp]
        try:
            ds = CombinedDataset.from_arrays(
                y_rct=y_r, t_rct=t_r, w_rct=pools.w_rct[i_r], y_ec=pools.y_ec[i_ec],
                w_ec=pools.w_ec[i_ec], k=pools.k, x_rct=pools.x_rct[i_r],
                x_ec=pools.x_ec[i_ec], outcome_family=BINARY,
                subgroup_labels=pools.subgroup_labels)
            return _ReplicateContext(ds, compute_design_counts(ds, fixed_pi))
        except (DataError, NumericalError) as exc:
            failures.append(("design", exc))
            return None
    return _run_replicates(rep_indices, draw, est_cfgs, pools.k)


def run_resampling(trial_csv: str, ec_csv: str, n_control: int = 100,
                   n_experimental: int = 200, n_ec: int = 600,
                   reps: int = 1000, estimators: Sequence | None = None,
                   seed: int = 0, schema: CsvSchema | None = None,
                   workers: int = 1, spike=None,
                   prevalence_mode: str = "replicate") -> MonteCarloReport:
    """Generate in-silico trials by resampling both trial arms from the
    actual control pool and external controls from the external pool, then
    compare estimators across replicates. The true effects are zero, or
    the `spike` amounts, on the risk-difference scale; a spike that would
    raise a subgroup's pool response rate above 1 is refused before any
    replicate runs."""
    PREVALENCE_MODE.read(prevalence_mode, "prevalence_mode")
    for key, size in (("n_control", n_control), ("n_experimental", n_experimental),
                      ("n_ec", n_ec)):
        refuse_below(key, size, 1)
    refuse_below("reps", reps, 2)
    est_cfgs, _ = plan_estimators(
        DEFAULT_RESAMPLE_ESTIMATORS if estimators is None else estimators, BINARY)
    pools = load_resample_pools(trial_csv, ec_csv, schema or CsvSchema())
    check_fixed_sigmas(est_cfgs, pools.k)
    spike_amounts = None if spike is None else SPIKE.read(spike, "spike", InvalidEffect,
                                                          {"k": pools.k})
    if spike_amounts is not None:
        _flip_probabilities(pools.y_rct, pools.w_rct, pools.k, spike_amounts)
    # every replicate takes the control pool's subgroup shares as its prevalences
    fixed_pi = compute_design_counts(pools).pi if prevalence_mode == "pool" else None
    batch = partial(_resample_batch, pools=pools, est_cfgs=est_cfgs, n_control=n_control,
                    n_experimental=n_experimental, n_ec=n_ec, seed=seed,
                    spike_amounts=spike_amounts, fixed_pi=fixed_pi)
    est, cover, width, failures = _run_batches(batch, reps, workers)
    source = "pool" if fixed_pi is not None else "replicate_empirical"
    truth = np.zeros(pools.k) if spike_amounts is None else np.array(spike_amounts, dtype=float)
    report = _aggregate("resample", reps, seed, truth, [c.name for c in est_cfgs],
                        est, (), cover, width, failures, source)
    report.extra.update(n_control=n_control, n_experimental=n_experimental,
                        n_ec=n_ec, subgroup_labels=list(pools.subgroup_labels))
    return report
