"""Command-line surface: config-driven estimate / simulate / resample runs
with reproducible artifacts.

Every run writes a manifest echoing the fully resolved configuration
(defaults included) and the package version, so any artifact can be
regenerated from its manifest alone. Config files are strict: unknown keys
are errors. Flags override file values.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    BINARY,
    CONTINUOUS,
    CsvSchema,
    compute_design_counts,
    load_dataset,
)
from .errors import ConfigError, DataError, NumericalError, SubharmError
from .estimators import _pooled_cell_variance
from .harmonize import parse_lambda
from .intervals import check_interval_methods, interval
from .presets import load_preset
from .sim import (
    DEFAULT_RESAMPLE_ESTIMATORS,
    EstimatorConfig,
    MonteCarloReport,
    ScenarioSpec,
    _ReplicateContext,
    parse_estimator,
    run_monte_carlo,
    run_resampling,
)

COMMON_KEYS = {"seed", "out_dir", "workers"}
ESTIMATE_KEYS = COMMON_KEYS | {
    "rct_csv", "ec_csv", "schema", "outcome_family", "subgroup_levels",
    "estimators", "intervals", "alpha", "prevalences", "lambda", "sigma_mode",
    "sigma",
}
SIMULATE_KEYS = COMMON_KEYS | {
    "preset", "scenario", "reps", "estimators", "intervals", "alpha",
    "bootstrap_r", "harmonized_lambdas", "sigma_mode", "lambda",
    "interval_estimator",
}
RESAMPLE_KEYS = COMMON_KEYS | {
    "trial_csv", "ec_csv", "schema", "n_control", "n_experimental", "n_ec",
    "reps", "estimators", "spike", "prevalence_mode",
}
SCHEMA_KEYS = {"outcome", "treatment", "subgroup", "covariates"}


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    return obj


def _check_keys(cfg: dict, allowed: set[str], where: str) -> None:
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


def _schema_from_config(cfg: dict) -> CsvSchema:
    obj = cfg.get("schema", {})
    if not isinstance(obj, dict):
        raise ConfigError("schema must be an object")
    _check_keys(obj, SCHEMA_KEYS, "schema")
    return CsvSchema.from_dict(obj)


def _apply_overrides(cfg: dict, ns: argparse.Namespace) -> dict:
    cfg = dict(cfg)
    for flag, key in (("seed", "seed"), ("reps", "reps"), ("workers", "workers"),
                      ("out_dir", "out_dir"), ("preset", "preset"),
                      ("lam", "lambda"), ("sigma_mode", "sigma_mode"),
                      ("alpha", "alpha")):
        val = getattr(ns, flag, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _manifest(out_dir: Path, command: str, resolved: dict, checks: dict) -> None:
    manifest = {"command": command, "version": __version__,
                "config": resolved, "checks": checks}
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    raise TypeError(f"not JSON serializable: {type(v)}")


def _report_artifacts(out_dir: Path, report: MonteCarloReport,
                      write_replicates: bool = False) -> None:
    rows = [[r["scenario"], r["estimator"], r["subgroup"], r["metric"],
             r["value"], r["mc_se"]] for r in report.to_long_rows()]
    _write_csv(out_dir / "report.csv",
               ["scenario", "estimator", "subgroup", "metric", "value", "mc_se"], rows)
    with open(out_dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, default=_json_default)
        fh.write("\n")
    if write_replicates and report.replicate_estimates:
        rrows = []
        for name, arr in report.replicate_estimates.items():
            for rep in range(arr.shape[0]):
                if not np.isfinite(arr[rep]).all():
                    continue
                for k in range(arr.shape[1]):
                    rrows.append([rep, name, k + 1, arr[rep, k]])
        _write_csv(out_dir / "replicates.csv",
                   ["replicate", "estimator", "subgroup", "estimate"], rrows)


# --- estimate ----------------------------------------------------------------

def cmd_estimate(cfg: dict) -> int:
    _check_keys(cfg, ESTIMATE_KEYS, "estimate config")
    for key in ("rct_csv", "ec_csv"):
        if key not in cfg:
            raise ConfigError(f"estimate config needs {key!r}")
    out_dir = Path(cfg.get("out_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    schema = _schema_from_config(cfg)
    family = cfg.get("outcome_family", CONTINUOUS)
    if family not in (CONTINUOUS, BINARY):
        raise ConfigError("outcome_family must be continuous or binary")
    lam = parse_lambda(cfg.get("lambda", "full"))
    sigma_mode = cfg.get("sigma_mode", "bd")
    alpha = float(cfg.get("alpha", 0.05))
    seed = int(cfg.get("seed", 0))

    pooled_kind = "diff_means_pooled" if family == CONTINUOUS else "logistic_pooled"
    rct_kind = "diff_means_rct" if family == CONTINUOUS else "logistic_rct"
    default_est = [
        pooled_kind,
        rct_kind,
        {"kind": "harmonized", "name": "harmonized", "initial": pooled_kind,
         "overall": "diff_means",
         "lambda": "full" if np.isinf(lam) else lam, "sigma_mode": sigma_mode,
         **({"sigma": cfg["sigma"]} if "sigma" in cfg else {})},
    ]
    est_cfgs = [parse_estimator(e) for e in cfg.get("estimators", default_est)]
    harmonized_cfgs = [c for c in est_cfgs if c.kind == "harmonized"]
    target = harmonized_cfgs[0] if harmonized_cfgs else None
    methods = cfg.get("intervals", ["rct_only"] if family == BINARY
                      else ["analytic", "rct_only"])
    check_interval_methods(methods, target, family)

    ds = load_dataset(cfg["rct_csv"], cfg["ec_csv"], schema, outcome_family=family,
                      subgroup_levels=cfg.get("subgroup_levels"))
    dc = compute_design_counts(ds, cfg.get("prevalences"))
    ctx = _ReplicateContext(ds, dc)
    est_rows = []
    results: dict[str, np.ndarray] = {}
    for ecfg in est_cfgs:
        theta = ctx.evaluate(ecfg)
        results[ecfg.name] = theta
        for k in range(ds.k):
            est_rows.append([ecfg.name, k + 1, ds.subgroup_labels[k], float(theta[k])])
    overall = ctx.overall("diff_means" if family == CONTINUOUS else "logistic")
    est_rows.append(["overall_rct", 0, "(all)", overall.require_overall()])
    _write_csv(out_dir / "estimates.csv",
               ["estimator", "subgroup", "label", "estimate"], est_rows)

    interval_rows = []
    phi2 = _pooled_cell_variance(ds.cell_stats)
    harmonized = None if target is None else partial(ctx.harmonized, target)
    for method in methods:
        iv = interval(method, ds, dc, alpha, phi2=phi2, target=harmonized, seed=seed)
        for k in range(ds.k):
            interval_rows.append([method, k + 1, ds.subgroup_labels[k],
                                  float(iv.lower[k]), float(iv.upper[k]),
                                  float(iv.point[k]), alpha])
    _write_csv(out_dir / "intervals.csv",
               ["method", "subgroup", "label", "lower", "upper", "point", "alpha"],
               interval_rows)

    checks = {}
    for ecfg in harmonized_cfgs:
        checks[f"shift_mode[{ecfg.name}]"] = ctx.shift_mode(ecfg)
        if np.isinf(ecfg.lam):
            gap = abs(float(dc.pi @ results[ecfg.name]) - overall_for(ctx, ecfg))
            checks[f"full_harmonization_gap[{ecfg.name}]"] = gap
            if not gap <= 1e-10:
                raise NumericalError(
                    f"full harmonization constraint violated ({gap:.3g})")
    resolved = {
        "rct_csv": cfg["rct_csv"], "ec_csv": cfg["ec_csv"],
        "schema": asdict(schema), "outcome_family": family,
        "subgroup_levels": list(ds.subgroup_labels),
        "estimators": cfg.get("estimators", default_est),
        "intervals": methods, "alpha": alpha,
        "lambda": "full" if np.isinf(lam) else lam, "sigma_mode": sigma_mode,
        "prevalences": list(dc.pi), "seed": seed, "workers": int(cfg.get("workers", 1)),
        "out_dir": str(out_dir),
    }
    checks["prevalence_source"] = dc.prevalence_source
    checks["design_summary"] = {
        "pi": list(dc.pi), "q_ratio": list(dc.q_ratio), "q_bar": dc.q_bar,
        "q": dc.q, "counts": dc.counts.tolist(),
        "subgroup_labels": list(ds.subgroup_labels),
    }
    _manifest(out_dir, "estimate", resolved, checks)
    return 0


def overall_for(ctx: _ReplicateContext, ecfg: EstimatorConfig) -> float:
    return ctx.overall(ecfg.overall).require_overall()


# --- simulate ----------------------------------------------------------------

def cmd_simulate(cfg: dict) -> int:
    _check_keys(cfg, SIMULATE_KEYS, "simulate config")
    out_dir = Path(cfg.get("out_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    if "preset" in cfg and "scenario" in cfg:
        raise ConfigError("give either preset or scenario, not both")
    if "preset" in cfg:
        spec = load_preset(cfg["preset"])
    elif "scenario" in cfg:
        spec = ScenarioSpec.from_dict(cfg["scenario"])
    else:
        raise ConfigError("simulate config needs a preset or an inline scenario")
    reps = int(cfg.get("reps", 1000))
    seed = int(cfg.get("seed", 0))
    workers = int(cfg.get("workers", 1))
    alpha = float(cfg.get("alpha", 0.05))
    bootstrap_r = int(cfg.get("bootstrap_r", 500))
    sigma_mode = cfg.get("sigma_mode", "bd")
    continuous = spec.outcome_family == CONTINUOUS

    if "estimators" in cfg:
        estimators = cfg["estimators"]
    else:
        pooled = "diff_means_pooled" if continuous else "logistic_pooled"
        rct = "diff_means_rct" if continuous else "logistic_rct"
        if "lambda" in cfg:
            lambdas = [cfg["lambda"]]
        else:
            lambdas = cfg.get("harmonized_lambdas", [0, 1, 10, "full"])
        estimators = [pooled, rct] + (["oracle"] if continuous else []) + [
            {"kind": "harmonized", "initial": pooled, "overall": "diff_means",
             "lambda": lam, "sigma_mode": sigma_mode}
            for lam in lambdas
        ]
    intervals = cfg.get("intervals", [])
    report = run_monte_carlo(spec, estimators, reps=reps, seed=seed,
                             intervals=intervals, alpha=alpha,
                             bootstrap_r=bootstrap_r, workers=workers,
                             interval_estimator=cfg.get("interval_estimator"))
    _report_artifacts(out_dir, report)
    resolved = {
        "scenario": spec.to_dict(), "reps": reps,
        "estimators": estimators, "intervals": intervals, "alpha": alpha,
        "bootstrap_r": bootstrap_r, "sigma_mode": sigma_mode,
        "interval_estimator": cfg.get("interval_estimator"), "seed": seed,
        "workers": workers, "out_dir": str(out_dir),
    }
    checks = {"preset": cfg.get("preset"), "n_failures": len(report.failures),
              "truth": list(report.truth),
              "prevalence_source": report.prevalence_source}
    _manifest(out_dir, "simulate", resolved, checks)
    return 0


# --- resample ----------------------------------------------------------------

def cmd_resample(cfg: dict) -> int:
    _check_keys(cfg, RESAMPLE_KEYS, "resample config")
    for key in ("trial_csv", "ec_csv"):
        if key not in cfg:
            raise ConfigError(f"resample config needs {key!r}")
    out_dir = Path(cfg.get("out_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    schema = _schema_from_config(cfg)
    estimators = cfg.get("estimators", list(DEFAULT_RESAMPLE_ESTIMATORS))
    opts = {
        "n_control": int(cfg.get("n_control", 100)),
        "n_experimental": int(cfg.get("n_experimental", 200)),
        "n_ec": int(cfg.get("n_ec", 600)),
        "reps": int(cfg.get("reps", 1000)),
        "seed": int(cfg.get("seed", 0)),
        "workers": int(cfg.get("workers", 1)),
        "spike": cfg.get("spike"),
        "prevalence_mode": cfg.get("prevalence_mode", "replicate"),
    }
    report = run_resampling(cfg["trial_csv"], cfg["ec_csv"], estimators=estimators,
                            schema=schema, **opts)
    _report_artifacts(out_dir, report, write_replicates=True)
    resolved = {"trial_csv": cfg["trial_csv"], "ec_csv": cfg["ec_csv"],
                "schema": asdict(schema), "estimators": estimators,
                "out_dir": str(out_dir), **opts}
    checks = {"n_failures": len(report.failures), "extra": report.extra}
    _manifest(out_dir, "resample", resolved, checks)
    return 0


# --- entry point ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subharm",
        description="Harmonized subgroup treatment-effect estimation with "
                    "external controls")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("estimate", "estimate effects from CSV data"),
                            ("simulate", "Monte-Carlo operating characteristics"),
                            ("resample", "in-silico trials resampled from data pools")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--reps", type=int, default=None)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--out-dir", dest="out_dir", default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--lambda", dest="lam", default=None,
                       help="harmonization strength (number or 'full')")
        p.add_argument("--sigma-mode", dest="sigma_mode", default=None,
                       choices=["fixed", "bd", "vd"])
        if name == "simulate":
            p.add_argument("--preset", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        cfg = _apply_overrides(_load_config(ns.config), ns)
        if ns.command == "estimate":
            return cmd_estimate(cfg)
        if ns.command == "simulate":
            return cmd_simulate(cfg)
        return cmd_resample(cfg)
    except SubharmError as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        if isinstance(exc, ConfigError):
            return 2
        if isinstance(exc, DataError):
            return 3
        return 4


if __name__ == "__main__":
    sys.exit(main())
