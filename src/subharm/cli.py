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
from .intervals import BOOTSTRAP_R
from .presets import load_preset
from .sim import (
    DEFAULT_RESAMPLE_ESTIMATORS,
    EstimatorConfig,
    MonteCarloReport,
    ScenarioSpec,
    _ReplicateContext,
    check_fixed_sigmas,
    evaluate_replicate,
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
# keys that hold a JSON list when given; a string would be read letter by letter
LIST_VALUED = ("estimators", "intervals", "harmonized_lambdas", "prevalences")
# file and directory keys; a number would be opened as a file descriptor
PATH_KEYS = ("rct_csv", "ec_csv", "trial_csv", "out_dir")
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
    return format(v, ".17g") if isinstance(v, float) else str(v)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    return obj


def _out_dir(path) -> Path:
    """The artifact directory, made if it is missing."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file of that name, say
        raise ConfigError(f"cannot make out_dir {path}: {exc}") from None
    return Path(path)


def _whole(key: str, value) -> int:
    # int() reads a JSON true or false as 1 or 0; neither is a number
    try:
        n = int(value)
        whole = n == float(value) and n >= 0 and not isinstance(value, bool)
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise ConfigError(f"{key} must be a non-negative whole number, got {value!r}")
    return n


def _settings(command: str, cfg: dict) -> dict:
    """`cfg` merged over the command's defaults. Unknown and missing keys,
    list keys beside an explicit `estimators`, a `LIST_VALUED` key that is
    not a list (a null only stands for a null default or the default
    estimators), a `PATH_KEYS` path that is not a non-empty string, a
    `scenario` that is not an object, a key with a whole-number default
    given anything but a non-negative whole number, and an `alpha` outside
    (0, 1) are config errors. A JSON boolean is no whole number, and as an
    `alpha` it reads as 1 or 0, outside the range."""
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
    for key in (key for key in LIST_VALUED if key in table):
        nullable = key == "estimators" or table[key] is None
        if not (isinstance(s[key], list) or (s[key] is None and nullable)):
            raise ConfigError(f"{key} must be a list, got {s[key]!r}")
    for key in (key for key in PATH_KEYS if key in table):
        if not (isinstance(s[key], str) and s[key]):
            raise ConfigError(f"{key} must be a non-empty string, got {s[key]!r}")
    if s.get("scenario") is not None and not isinstance(s["scenario"], dict):
        raise ConfigError(f"scenario must be an object, got {s['scenario']!r}")
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


def _manifest(out_dir: Path, command: str, resolved: dict, checks: dict) -> None:
    config = {key: val for key, val in resolved.items() if key not in LIST_KEYS}
    manifest = {"command": command, "version": __version__,
                "config": config, "checks": checks}
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(v):
    if isinstance(v, (np.ndarray, np.generic)):
        return v.tolist()
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
    if write_replicates:
        # one finiteness check per estimator, and the rows as Python floats
        rrows = [[rep, name, k, value]
                 for name, arr in report.replicate_estimates.items()
                 for rep, (ok, est) in enumerate(zip(np.isfinite(arr).all(axis=1),
                                                     arr.tolist())) if ok
                 for k, value in enumerate(est, 1)]
        _write_csv(out_dir / "replicates.csv",
                   ["replicate", "estimator", "subgroup", "estimate"], rrows)


# --- estimate ----------------------------------------------------------------

def cmd_estimate(cfg: dict) -> int:
    s = _settings("estimate", cfg)
    out_dir = _out_dir(s["out_dir"])
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
    est, ivs, failures = evaluate_replicate(
        ctx, 0, est_cfgs, s["intervals"], target, _pooled_cell_variance(ds.cell_stats),
        s["alpha"], BOOTSTRAP_R, s["seed"])
    if failures:
        raise failures[0][1]
    labels = ds.subgroup_labels
    est_rows = [[ecfg.name, k + 1, labels[k], float(theta[k])]
                for ecfg, theta in zip(est_cfgs, est) for k in range(ds.k)]
    overall = ctx.overall("diff_means" if family == CONTINUOUS else "logistic")
    est_rows.append(["overall_rct", 0, "(all)", overall])
    interval_rows = [[method, k + 1, labels[k], float(iv.lower[k]), float(iv.upper[k]),
                      float(iv.point[k]), s["alpha"]]
                     for method, iv in zip(s["intervals"], ivs) for k in range(ds.k)]

    checks = {}
    for ecfg, theta in zip(est_cfgs, est):
        if ecfg.kind != "harmonized":
            continue
        checks[f"shift_mode[{ecfg.name}]"] = ctx.shift_mode(ecfg)
        if np.isinf(ecfg.lam):
            gap = abs(float(dc.pi @ theta) - overall_for(ctx, ecfg))
            checks[f"full_harmonization_gap[{ecfg.name}]"] = gap
            if not gap <= 1e-10:
                raise NumericalError(f"full harmonization constraint violated ({gap:.3g})")
    s.update(schema=asdict(schema), subgroup_levels=list(ds.subgroup_labels),
             prevalences=list(dc.pi))
    checks["prevalence_source"] = dc.prevalence_source
    checks["design_summary"] = {
        "pi": list(dc.pi), "q_ratio": list(dc.q_ratio), "q_bar": dc.q_bar,
        "q": dc.q, "counts": dc.counts.tolist(),
        "subgroup_labels": list(ds.subgroup_labels),
    }
    _write_csv(out_dir / "estimates.csv",
               ["estimator", "subgroup", "label", "estimate"], est_rows)
    _write_csv(out_dir / "intervals.csv",
               ["method", "subgroup", "label", "lower", "upper", "point", "alpha"],
               interval_rows)
    _manifest(out_dir, "estimate", s, checks)
    return 0


def overall_for(ctx: _ReplicateContext, ecfg: EstimatorConfig) -> float:
    return ctx.overall(ecfg.overall)


# --- simulate ----------------------------------------------------------------

def cmd_simulate(cfg: dict) -> int:
    s = _settings("simulate", cfg)
    if s["lambda"] is not None and "harmonized_lambdas" in cfg:
        raise ConfigError("give either 'lambda' or 'harmonized_lambdas', not both")
    out_dir = _out_dir(s["out_dir"])
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
        lambdas = [s["lambda"]]
        if s["lambda"] is None:
            lambdas = s["harmonized_lambdas"]
            try:
                for lam in lambdas:
                    parse_lambda(lam)
            except ConfigError as exc:  # name the key that gave the bad entry
                raise ConfigError(f"harmonized_lambdas: {exc}") from None
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
    _manifest(out_dir, "simulate", s, {
        "preset": preset, "n_failures": len(report.failures), "truth": list(report.truth),
        "prevalence_source": report.prevalence_source})
    return 0


# --- resample ----------------------------------------------------------------

def cmd_resample(cfg: dict) -> int:
    s = _settings("resample", cfg)
    out_dir = _out_dir(s["out_dir"])
    schema = CsvSchema.from_dict(s["schema"])
    report = run_resampling(
        s["trial_csv"], s["ec_csv"], schema=schema,
        **{key: s[key] for key in ("n_control", "n_experimental", "n_ec", "reps",
                                   "estimators", "seed", "workers", "spike",
                                   "prevalence_mode")})
    _report_artifacts(out_dir, report, write_replicates=True)
    s["schema"] = asdict(schema)
    _manifest(out_dir, "resample", s, {"n_failures": len(report.failures), "extra": report.extra})
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
        flags = {key: val for key, val in vars(ns).items() if key in FLAGS and val is not None}
        cfg = {**_load_config(ns.config), **flags}
        if ns.command == "estimate":
            return cmd_estimate(cfg)
        if ns.command == "simulate":
            return cmd_simulate(cfg)
        return cmd_resample(cfg)
    except SubharmError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 3 if isinstance(exc, DataError) else 4


if __name__ == "__main__":
    sys.exit(main())
