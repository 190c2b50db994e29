"""Command-line surface: config-driven estimate / simulate / resample runs
with reproducible artifacts.

One table per command, `SETTINGS`, declares each of its config keys with
its kind (`config`) and its default, and `_settings` reads every value by
its kind. Each key named in `FLAGS` is also the command's flag (`out_dir`
is `--out-dir`), which overrides the file. Unknown keys are errors. Every
run writes a manifest echoing the resolved settings (defaults included)
and the package version, so any artifact can be regenerated from its
manifest alone.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict
from functools import lru_cache
from math import isfinite
from pathlib import Path

import numpy as np

from . import __version__
from .config import LAMBDA, MATRIX, TEXT, listing, real, refuse_unknown, whole
from .data import (
    BINARY,
    CONTINUOUS,
    LEVELS,
    OUTCOME_FAMILY,
    SCHEMA,
    SIMPLEX,
    compute_design_counts,
    load_dataset,
)
from .errors import ConfigError, DataError, NumericalError, SubharmError
from .estimators import _pooled_cell_variance
from .intervals import BOOTSTRAP_R, INTERVALS
from .presets import load_preset
from .sim import (
    DEFAULT_RESAMPLE_ESTIMATORS,
    ENTRY,
    PREVALENCE_MODE,
    SCENARIO,
    SIGMA_MODE,
    SPIKE,
    MonteCarloReport,
    _ReplicateContext,
    check_fixed_sigmas,
    evaluate_replicate,
    plan_estimators,
    run_monte_carlo,
    run_resampling,
)

REQUIRED = object()  # a key the config must give
WHOLE, ALPHA = whole(), real(0.0, 1.0)
ESTIMATORS = listing(ENTRY, "estimator entries, each a string or an object").or_null()
# key: (kind, default)
COMMON = {"seed": (WHOLE, 0), "out_dir": (TEXT, "."), "workers": (WHOLE, 1)}
CSV_PAIR = {"ec_csv": (TEXT, REQUIRED), "schema": (SCHEMA, {})}
# Settings that only build the default estimator list. Beside an explicit
# `estimators` they would do nothing, and the manifest records the list
# they built instead of them.
LIST_KEYS = ("lambda", "harmonized_lambdas", "sigma_mode", "sigma")
SETTINGS = {
    "estimate": {**COMMON, "rct_csv": (TEXT, REQUIRED), **CSV_PAIR,
                 "outcome_family": (OUTCOME_FAMILY, CONTINUOUS),
                 "subgroup_levels": (LEVELS.or_null(), None), "estimators": (ESTIMATORS, None),
                 "intervals": (INTERVALS.or_null(), None), "alpha": (ALPHA, 0.05),
                 "prevalences": (SIMPLEX.or_null(), None), "lambda": (LAMBDA, "full"),
                 "sigma_mode": (SIGMA_MODE, "bd"), "sigma": (MATRIX.or_null(), None)},
    "simulate": {**COMMON, "preset": (TEXT.or_null(), None),
                 "scenario": (SCENARIO.or_null(), None), "reps": (WHOLE, 1000),
                 "estimators": (ESTIMATORS, None), "intervals": (INTERVALS, []),
                 "alpha": (ALPHA, 0.05), "bootstrap_r": (WHOLE, 500),
                 "interval_estimator": (TEXT.or_null(), None),
                 "lambda": (LAMBDA.or_null(), None),
                 "harmonized_lambdas": (listing(LAMBDA, "lambdas"), [0, 1, 10, "full"]),
                 "sigma_mode": (SIGMA_MODE, "bd")},
    "resample": {**COMMON, "trial_csv": (TEXT, REQUIRED), **CSV_PAIR,
                 "n_control": (WHOLE, 100), "n_experimental": (WHOLE, 200),
                 "n_ec": (WHOLE, 600), "reps": (WHOLE, 1000),
                 "estimators": (ESTIMATORS, list(DEFAULT_RESAMPLE_ESTIMATORS)),
                 "spike": (SPIKE.or_null(), None),
                 "prevalence_mode": (PREVALENCE_MODE, "replicate")},
}
# Per outcome family, the default estimator list's pooled and trial-only
# initials and the overall its harmonized estimators target, which is also
# the overall of `estimate`'s `overall_rct` row.
DEFAULT_KINDS = {CONTINUOUS: ("diff_means_pooled", "diff_means_rct", "diff_means"),
                 BINARY: ("logistic_pooled", "logistic_rct", "logistic")}
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


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """The header and rows (each of at least two cells) as `csv.writer`
    writes them, a float as format(v, ".17g") and any other cell as str(v).
    Each distinct text is quoted once, by `csv.writer` itself, so a cell
    costs one conversion and one lookup."""
    quoted: dict[str, str] = {}

    def quote(text: str) -> str:
        buf = io.StringIO()
        csv.writer(buf).writerow([text, ""])
        quoted[text] = buf.getvalue()[:-3]  # less the empty cell's ",\r\n"
        return quoted[text]

    lines = []
    for row in (header, *rows):
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append("%.17g" % v)
            else:
                text = str(v)
                cells.append(quoted[text] if text in quoted else quote(text))
        lines.append(",".join(cells))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


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


def _settings(command: str, cfg: dict) -> dict:
    """`cfg` merged over the command's defaults, each value read by its kind
    in `SETTINGS` into its typed value; the one reader of command settings.
    Unknown and missing keys, and list keys beside an explicit
    `estimators`, are config errors too."""
    table = SETTINGS[command]
    refuse_unknown(f"{command} config", cfg, table)
    missing = [key for key, (_, default) in table.items()
               if default is REQUIRED and key not in cfg]
    if missing:
        raise ConfigError(f"{command} config needs {missing}")
    clash = sorted(set(cfg) & set(LIST_KEYS))
    if cfg.get("estimators") is not None and clash:
        raise ConfigError(f"{clash} only build the default estimator list; "
                          "give them in the 'estimators' entries instead")
    return {key: kind.read(cfg.get(key, default), key) for key, (kind, default) in table.items()}


def _manifest(out_dir: Path, command: str, resolved: dict, checks: dict) -> None:
    config = {key: val for key, val in resolved.items() if key not in LIST_KEYS}
    manifest = {"command": command, "version": __version__,
                "config": config, "checks": checks}
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        fh.write(_json_text(manifest, sort_keys=True) + "\n")


def _json_default(v):
    if isinstance(v, (np.ndarray, np.generic)):
        return v.tolist()
    raise TypeError(f"not JSON serializable: {type(v)}")


# the characters `json` writes as a short escape; the other control
# characters, DEL and every non-ASCII one it writes as \uXXXX
_SHORT_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t",
                  "\b": "\\b", "\f": "\\f"}


def _json_string(s: str) -> str:
    """`s` as a JSON string literal, ASCII only, as `json.dumps(s)` writes it."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    out = []
    for ch in s:
        n = ord(ch)
        if ch in _SHORT_ESCAPES:
            out.append(_SHORT_ESCAPES[ch])
        elif 0x20 <= n < 0x7F:
            out.append(ch)
        elif n > 0xFFFF:  # a surrogate pair
            n -= 0x10000
            out.append("\\u%04x\\u%04x" % (0xD800 | n >> 10, 0xDC00 | n & 0x3FF))
        else:
            out.append("\\u%04x" % n)
    return '"' + "".join(out) + '"'


def _json_text(obj, sort_keys: bool = False) -> str:
    """`obj` exactly as `json.dumps(obj, indent=2, sort_keys=sort_keys,
    default=_json_default)` writes it. With an indent set, `json` runs its
    pure-Python encoder, a chain of generators; this is one recursive pass
    in which each container joins its items' texts, so their pieces are
    freed once it is joined (one flat list of every piece raised the peak
    RSS of a `simulate` call by about 0.5 MB). Dict keys must be str."""
    def text(o, pad: str) -> str:
        if type(o) is float and isfinite(o):  # most of a report
            return float.__repr__(o)
        if isinstance(o, str):
            return _json_string(o)
        if o is None or o is True or o is False:
            return "null" if o is None else "true" if o else "false"
        if isinstance(o, int):
            return int.__repr__(o)
        if isinstance(o, float):
            return (float.__repr__(o) if isfinite(o)
                    else "NaN" if o != o else "Infinity" if o > 0 else "-Infinity")
        inner = pad + "  "
        if isinstance(o, (list, tuple)):
            return ("[\n" + inner + (",\n" + inner).join([text(v, inner) for v in o])
                    + "\n" + pad + "]") if o else "[]"
        if isinstance(o, dict):
            items = sorted(o.items()) if sort_keys else o.items()
            return ("{\n" + inner + (",\n" + inner).join(
                [_json_string(key) + ": " + text(v, inner) for key, v in items])
                + "\n" + pad + "}") if o else "{}"
        return text(_json_default(o), pad)
    return text(obj, "")


def _report_artifacts(out_dir: Path, report: MonteCarloReport,
                      write_replicates: bool = False) -> None:
    rows = [[r["scenario"], r["estimator"], r["subgroup"], r["metric"],
             r["value"], r["mc_se"]] for r in report.to_long_rows()]
    _write_csv(out_dir / "report.csv",
               ["scenario", "estimator", "subgroup", "metric", "value", "mc_se"], rows)
    with open(out_dir / "report.json", "w", encoding="utf-8") as fh:
        fh.write(_json_text(report.to_json_dict()) + "\n")
    if write_replicates:
        # one finiteness check per estimator, and the rows as Python floats
        rrows = [[rep, name, k, value]
                 for name, arr in report.replicate_estimates.items()
                 for rep, (ok, est) in enumerate(zip(np.isfinite(arr).all(axis=1),
                                                     arr.tolist())) if ok
                 for k, value in enumerate(est, 1)]
        _write_csv(out_dir / "replicates.csv",
                   ["replicate", "estimator", "subgroup", "estimate"], rrows)


def _default_list(family: str, lambdas, sigma_mode: str, plain=(), **fields) -> list:
    """The default estimator list: `family`'s pooled and trial-only
    initials (`DEFAULT_KINDS`), the kinds `plain`, and the pooled initial
    harmonized toward `family`'s overall at each of `lambdas`, each of
    these entries with `fields`."""
    pooled, rct, overall = DEFAULT_KINDS[family]
    return [pooled, rct, *plain] + [{"kind": "harmonized", "initial": pooled, "overall": overall,
                                     "lambda": "full" if np.isinf(lam) else lam,
                                     "sigma_mode": sigma_mode, **fields} for lam in lambdas]


# --- estimate ----------------------------------------------------------------

def cmd_estimate(cfg: dict) -> int:
    s = _settings("estimate", cfg)
    out_dir = _out_dir(s["out_dir"])
    schema, family = s["schema"], s["outcome_family"]
    if s["estimators"] is None:
        sigma = {} if s["sigma"] is None else {"sigma": s["sigma"]}
        s["estimators"] = _default_list(family, [s["lambda"]], s["sigma_mode"],
                                        name="harmonized", **sigma)
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
    est_rows.append(["overall_rct", 0, "(all)", ctx.overall(DEFAULT_KINDS[family][2])])
    interval_rows = [[method, k + 1, labels[k], float(iv.lower[k]), float(iv.upper[k]),
                      float(iv.point[k]), s["alpha"]]
                     for method, iv in zip(s["intervals"], ivs) for k in range(ds.k)]

    checks = {}
    for ecfg, theta in zip(est_cfgs, est):
        if ecfg.kind != "harmonized":
            continue
        checks[f"shift_mode[{ecfg.name}]"] = ctx.shift_mode(ecfg)
        if np.isinf(ecfg.lam):
            gap = abs(float(dc.pi @ theta) - ctx.overall(ecfg.overall))
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


# --- simulate ----------------------------------------------------------------

def cmd_simulate(cfg: dict) -> int:
    s = _settings("simulate", cfg)
    if s["lambda"] is not None and "harmonized_lambdas" in cfg:
        raise ConfigError("give either 'lambda' or 'harmonized_lambdas', not both")
    out_dir = _out_dir(s["out_dir"])
    preset = s.pop("preset")
    if preset is not None and s["scenario"] is not None:
        raise ConfigError("give either preset or scenario, not both")
    spec = load_preset(preset) if preset is not None else s["scenario"]
    if spec is None:
        raise ConfigError("simulate config needs a preset or an inline scenario")
    s["scenario"] = spec.to_dict()

    if s["estimators"] is None:
        lambdas = s["harmonized_lambdas"] if s["lambda"] is None else [s["lambda"]]
        # a continuous scenario's control levels are known, so the oracle is listed
        oracle = ["oracle"] if spec.outcome_family == CONTINUOUS else []
        s["estimators"] = _default_list(spec.outcome_family, lambdas, s["sigma_mode"], oracle)
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
    schema = s["schema"]
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


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """`build_parser()`, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    ns = _parser().parse_args(argv)
    try:
        flags = {key: val for key, val in vars(ns).items() if key in FLAGS and val is not None}
        cfg = {**_load_config(ns.config), **flags}
        if ns.command == "estimate":
            return cmd_estimate(cfg)
        if ns.command == "simulate":
            return cmd_simulate(cfg)
        return cmd_resample(cfg)
    except SubharmError as exc:
        print('{"error": %s, "message": %s}' % (_json_string(type(exc).__name__),
                                                 _json_string(str(exc))), file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 3 if isinstance(exc, DataError) else 4


if __name__ == "__main__":
    sys.exit(main())
