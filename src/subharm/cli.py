"""Command-line surface: config-driven estimate / simulate / resample runs
with reproducible artifacts.

One table per command, `SETTINGS`, declares that command's config keys and
their defaults: a key with a whole-number default takes only non-negative
whole numbers, and each key named in `FLAGS` is also the command's flag
(`out_dir` is `--out-dir`), which overrides the file. Unknown keys are
errors. Every run writes a manifest echoing the resolved settings
(defaults included) and the package version, so any artifact can be
regenerated from its manifest alone.

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
from .intervals import interval
from .presets import load_preset
from .sim import (
    DEFAULT_RESAMPLE_ESTIMATORS,
    EstimatorConfig,
    MonteCarloReport,
    ScenarioSpec,
    _ReplicateContext,
    check_fixed_sigmas,
    plan_estimators,
    run_monte_carlo,
    run_resampling,
)

REQUIRED = object()  # a key the config must give
COMMON = {"seed": 0, "out_dir": ".", "workers": 1}
CSV_PAIR = {"ec_csv": REQUIRED, "schema": {}}
# Settings that only build the default estimator list. Beside an explicit
# `estimators` they would do nothing, and the manifest records the list
# they built instead of them.
LIST_KEYS = ("lambda", "harmonized_lambdas", "sigma_mode", "sigma")
SETTINGS = {
    "estimate": {**COMMON, "rct_csv": REQUIRED, **CSV_PAIR,
                 "outcome_family": CONTINUOUS, "subgroup_levels": None,
                 "estimators": None, "intervals": None, "alpha": 0.05,
                 "prevalences": None, "lambda": "full", "sigma_mode": "bd",
                 "sigma": None},
    "simulate": {**COMMON, "preset": None, "scenario": None, "reps": 1000,
                 "estimators": None, "intervals": [], "alpha": 0.05,
                 "bootstrap_r": 500, "interval_estimator": None, "lambda": None,
                 "harmonized_lambdas": [0, 1, 10, "full"], "sigma_mode": "bd"},
    "resample": {**COMMON, "trial_csv": REQUIRED, **CSV_PAIR, "n_control": 100,
                 "n_experimental": 200, "n_ec": 600, "reps": 1000,
                 "estimators": list(DEFAULT_RESAMPLE_ESTIMATORS), "spike": None,
                 "prevalence_mode": "replicate"},
}
# the keys a subcommand also takes as a flag, when its table has them
FLAGS = {
    "seed": "random seed",
    "reps": "replicates",
    "workers": "worker processes",
    "out_dir": "artifact directory",
    "alpha": "interval level, in (0, 1)",
    "lambda": "harmonization strength (number or 'full')",
    "sigma_mode": "shift direction: fixed, identity, bd or vd",
    "preset": "named scenario",
}


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


def _whole(key: str, value) -> int:
    try:
        n = int(value)
        whole = n == float(value) and n >= 0
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise ConfigError(f"{key} must be a non-negative whole number, got {value!r}")
    return n


def _settings(command: str, cfg: dict) -> dict:
    """`cfg` merged over the command's defaults. Unknown and missing keys,
    list keys beside an explicit `estimators`, a key with a whole-number
    default given anything but a non-negative whole number, and an `alpha`
    outside (0, 1) are config errors."""
    table = SETTINGS[command]
    unknown = sorted(set(cfg) - set(table))
    if unknown:
        raise ConfigError(f"unknown {command} config keys: {unknown}")
    missing = [key for key, default in table.items() if default is REQUIRED and key not in cfg]
    if missing:
        raise ConfigError(f"{command} config needs {missing}")
    clash = sorted(set(cfg) & set(LIST_KEYS))
    if cfg.get("estimators") is not None and clash:
        raise ConfigError(f"{clash} only build the default estimator list; "
                          "give them in the 'estimators' entries instead")
    s = {**table, **cfg}
    for key, default in table.items():
        if type(default) is int:
            s[key] = _whole(key, s[key])
    if "alpha" in s:
        try:
            alpha = float(s["alpha"])
        except (TypeError, ValueError):
            alpha = float("nan")
        if not 0 < alpha < 1:
            raise ConfigError(f"alpha must lie in (0, 1), got {s['alpha']!r}")
        s["alpha"] = alpha
    return s


def _apply_overrides(cfg: dict, ns: argparse.Namespace) -> dict:
    flags = {key: val for key, val in vars(ns).items() if key in FLAGS and val is not None}
    return {**cfg, **flags}


def _manifest(out_dir: Path, command: str, resolved: dict, checks: dict) -> None:
    config = {key: val for key, val in resolved.items() if key not in LIST_KEYS}
    manifest = {"command": command, "version": __version__,
                "config": config, "checks": checks}
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
    s = _settings("estimate", cfg)
    out_dir = Path(s["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    schema = CsvSchema.from_dict(s["schema"])
    family = s["outcome_family"]
    if family not in (CONTINUOUS, BINARY):
        raise ConfigError("outcome_family must be continuous or binary")
    if s["estimators"] is None:
        pooled = "diff_means_pooled" if family == CONTINUOUS else "logistic_pooled"
        lam = parse_lambda(s["lambda"])
        s["estimators"] = [
            pooled,
            "diff_means_rct" if family == CONTINUOUS else "logistic_rct",
            {"kind": "harmonized", "name": "harmonized", "initial": pooled,
             "overall": "diff_means", "lambda": "full" if np.isinf(lam) else lam,
             "sigma_mode": s["sigma_mode"],
             **({} if s["sigma"] is None else {"sigma": s["sigma"]})},
        ]
    if s["intervals"] is None:
        s["intervals"] = ["rct_only"] if family == BINARY else ["analytic", "rct_only"]
    est_cfgs, target = plan_estimators(s["estimators"], family, s["intervals"])

    ds = load_dataset(s["rct_csv"], s["ec_csv"], schema, outcome_family=family,
                      subgroup_levels=s["subgroup_levels"])
    check_fixed_sigmas(est_cfgs, ds.k)
    dc = compute_design_counts(ds, s["prevalences"])
    ctx = _ReplicateContext(ds, dc)
    est_rows = []
    results: dict[str, np.ndarray] = {}
    for ecfg in est_cfgs:
        theta = ctx.evaluate(ecfg)
        results[ecfg.name] = theta
        for k in range(ds.k):
            est_rows.append([ecfg.name, k + 1, ds.subgroup_labels[k], float(theta[k])])
    overall = ctx.overall("diff_means" if family == CONTINUOUS else "logistic")
    est_rows.append(["overall_rct", 0, "(all)", overall])
    _write_csv(out_dir / "estimates.csv",
               ["estimator", "subgroup", "label", "estimate"], est_rows)

    interval_rows = []
    alpha = s["alpha"]
    phi2 = _pooled_cell_variance(ds.cell_stats)
    harmonized = None if target is None else partial(ctx.harmonized, target)
    for method in s["intervals"]:
        iv = interval(method, ds, dc, alpha, phi2=phi2, target=harmonized, seed=s["seed"])
        for k in range(ds.k):
            interval_rows.append([method, k + 1, ds.subgroup_labels[k],
                                  float(iv.lower[k]), float(iv.upper[k]),
                                  float(iv.point[k]), alpha])
    _write_csv(out_dir / "intervals.csv",
               ["method", "subgroup", "label", "lower", "upper", "point", "alpha"],
               interval_rows)

    checks = {}
    for ecfg in est_cfgs:
        if ecfg.kind != "harmonized":
            continue
        checks[f"shift_mode[{ecfg.name}]"] = ctx.shift_mode(ecfg)
        if np.isinf(ecfg.lam):
            gap = abs(float(dc.pi @ results[ecfg.name]) - overall_for(ctx, ecfg))
            checks[f"full_harmonization_gap[{ecfg.name}]"] = gap
            if not gap <= 1e-10:
                raise NumericalError(
                    f"full harmonization constraint violated ({gap:.3g})")
    s.update(schema=asdict(schema), subgroup_levels=list(ds.subgroup_labels),
             prevalences=list(dc.pi))
    checks["prevalence_source"] = dc.prevalence_source
    checks["design_summary"] = {
        "pi": list(dc.pi), "q_ratio": list(dc.q_ratio), "q_bar": dc.q_bar,
        "q": dc.q, "counts": dc.counts.tolist(),
        "subgroup_labels": list(ds.subgroup_labels),
    }
    _manifest(out_dir, "estimate", s, checks)
    return 0


def overall_for(ctx: _ReplicateContext, ecfg: EstimatorConfig) -> float:
    return ctx.overall(ecfg.overall)


# --- simulate ----------------------------------------------------------------

def cmd_simulate(cfg: dict) -> int:
    s = _settings("simulate", cfg)
    if s["lambda"] is not None and "harmonized_lambdas" in cfg:
        raise ConfigError("give either 'lambda' or 'harmonized_lambdas', not both")
    out_dir = Path(s["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    preset = s.pop("preset")
    if preset is not None and s["scenario"] is not None:
        raise ConfigError("give either preset or scenario, not both")
    if preset is not None:
        spec = load_preset(preset)
    elif s["scenario"] is not None:
        spec = ScenarioSpec.from_dict(s["scenario"])
    else:
        raise ConfigError("simulate config needs a preset or an inline scenario")
    s["scenario"] = spec.to_dict()

    if s["estimators"] is None:
        continuous = spec.outcome_family == CONTINUOUS
        pooled = "diff_means_pooled" if continuous else "logistic_pooled"
        rct = "diff_means_rct" if continuous else "logistic_rct"
        lambdas = s["harmonized_lambdas"] if s["lambda"] is None else [s["lambda"]]
        s["estimators"] = [pooled, rct] + (["oracle"] if continuous else []) + [
            {"kind": "harmonized", "initial": pooled, "overall": "diff_means",
             "lambda": lam, "sigma_mode": s["sigma_mode"]}
            for lam in lambdas
        ]
    report = run_monte_carlo(spec, s["estimators"], reps=s["reps"], seed=s["seed"],
                             intervals=s["intervals"], alpha=s["alpha"],
                             bootstrap_r=s["bootstrap_r"], workers=s["workers"],
                             interval_estimator=s["interval_estimator"])
    _report_artifacts(out_dir, report)
    checks = {"preset": preset, "n_failures": len(report.failures),
              "truth": list(report.truth),
              "prevalence_source": report.prevalence_source}
    _manifest(out_dir, "simulate", s, checks)
    return 0


# --- resample ----------------------------------------------------------------

def cmd_resample(cfg: dict) -> int:
    s = _settings("resample", cfg)
    out_dir = Path(s["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    schema = CsvSchema.from_dict(s["schema"])
    report = run_resampling(
        s["trial_csv"], s["ec_csv"], schema=schema,
        **{key: s[key] for key in ("n_control", "n_experimental", "n_ec", "reps",
                                   "estimators", "seed", "workers", "spike",
                                   "prevalence_mode")})
    _report_artifacts(out_dir, report, write_replicates=True)
    s["schema"] = asdict(schema)
    checks = {"n_failures": len(report.failures), "extra": report.extra}
    _manifest(out_dir, "resample", s, checks)
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
        for key in (key for key in FLAGS if key in SETTINGS[name]):
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=FLAGS[key])
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
