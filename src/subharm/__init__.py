"""Harmonized subgroup treatment-effect estimation with external controls.

Core workflow: load or simulate a trial + external-control dataset, compute
an initial subgroup estimate that borrows external data, compute a
trial-only overall estimate, and harmonize the two so the prevalence-
weighted subgroup average agrees with the overall estimate.
"""

__version__ = "0.1.0"

from .bayes import (
    NormalPosterior,
    analyst1_posterior,
    analyst2_posterior,
    cut_distribution,
    flat_prior,
    plug_in_distribution,
)
from .data import (
    BINARY,
    CONTINUOUS,
    CombinedDataset,
    CsvSchema,
    DesignCounts,
    compute_design_counts,
    load_dataset,
    save_dataset,
)
from .estimators import (
    EffectEstimate,
    PropensityModel,
    diff_means_overall,
    diff_means_pooled_subgroups,
    ec_weights,
    external_estimate,
    fit_propensity,
    logistic_marginal_effects,
    logistic_overall_effect,
    ols_joint_covariance,
    ols_overall_effect,
    ols_subgroup_effects,
    oracle_subgroups,
    rct_only_subgroups,
    weighted_logistic_effects,
)
from .glm import (
    DesignMatrix,
    GlmFit,
    build_design,
    fit_logistic_irls,
    fit_ols,
)
from .harmonize import (
    FULL,
    BiasModel,
    LimitMapSpec,
    analytic_bias_variance,
    bd_direction_glm,
    bd_direction_linear,
    build_limit_map_spec,
    harmonize,
    harmonize_objective_oracle,
    limit_map_theta,
    mse_difference,
    parse_lambda,
    shift_vector,
    solve_sigma_from_b,
    vd_sigma,
)
from .intervals import (
    IntervalSet,
    SimpleModelParams,
    analytic_interval,
    bootstrap_interval,
    cut_interval,
    rct_only_interval,
)
from .presets import list_presets, load_preset
from .sim import (
    EstimatorConfig,
    MonteCarloReport,
    ScenarioSpec,
    generate_scenario,
    parse_estimator,
    run_monte_carlo,
    run_resampling,
    spike_effect,
    true_effects,
)
