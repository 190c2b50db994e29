"""The four pinned workloads: how their inputs are made from the seed, the
CLI call each one repeats, and the checks its outputs must pass.

Every input file is generated here from the seed through `subharm`'s own
`generate_scenario` and `save_dataset`; the program under test only ever
receives files and a config.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

from subharm import CsvSchema, ScenarioSpec, generate_scenario, load_preset, save_dataset

DEFAULT_SEED = 0
GAP_TOL = 1e-10  # the CLI's own full-harmonization tolerance
REF_RTOL = 1e-9
REF_ATOL = 1e-12

INTERVALS = ["analytic", "cut", "bootstrap", "rct_only"]
LOGIT_BD_ESTIMATORS = [
    "logistic_pooled",
    {"kind": "harmonized", "name": "bd", "initial": "logistic_pooled",
     "overall": "logistic", "lambda": "full", "sigma_mode": "bd"},
    {"kind": "harmonized", "name": "vd", "initial": "logistic_pooled",
     "overall": "logistic", "lambda": "full", "sigma_mode": "vd"},
]
ESTIMATE_ESTIMATORS = [
    "logistic_pooled", "logistic_rct", "logistic_ipw",
    {"kind": "harmonized", "name": "bd_pooled", "initial": "logistic_pooled",
     "overall": "logistic", "lambda": "full", "sigma_mode": "bd"},
    {"kind": "harmonized", "name": "bd_ipw", "initial": "logistic_ipw",
     "overall": "logistic", "lambda": "full", "sigma_mode": "bd"},
    {"kind": "harmonized", "name": "vd_pooled", "initial": "logistic_pooled",
     "overall": "logistic", "lambda": "full", "sigma_mode": "vd"},
]
# trial-scale binary pair: K = 8, 2 covariates, 250 per arm per subgroup in
# the trial (4,000 rows) and 1,250 per subgroup external (10,000 rows)
ESTIMATE_SPEC = ScenarioSpec(
    name="estimate-binary", outcome_family="binary", k=8,
    n_rct_treated=(250,) * 8, n_rct_control=(250,) * 8, n_ec=(1250,) * 8,
    mu=(-0.8, -0.6, -0.4, -0.2, 0.0, 0.2, 0.4, 0.6), theta=(0.4,) * 8,
    distortion=(0.3,) * 8, n_covariates=2, beta=(0.5, -0.3),
    x_mean_ec=0.5)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # simulate | resample | estimate
    why: str
    reps: int             # replicates per call (0: one estimate per call)
    smoke_reps: int
    workers: int
    outputs: tuple[str, ...]   # files compared with the reference
    op_mark: str          # span that opens an op in the traced run

    def ops_per_call(self, smoke: bool) -> int:
        return (self.smoke_reps if smoke else self.reps) or 1

    def make_inputs(self, where: Path, seed: int, smoke: bool) -> Path:
        """Write this workload's inputs and config under `where`; return
        the config path."""
        where.mkdir(parents=True, exist_ok=True)
        reps = self.smoke_reps if smoke else self.reps
        if self.name == "sim-dm-intervals":
            cfg = {"preset": "fig1-s2", "reps": reps, "intervals": INTERVALS,
                   "bootstrap_r": 500}
        elif self.name == "sim-logit-bd":
            cfg = {"preset": "fig5", "reps": reps, "estimators": LOGIT_BD_ESTIMATORS}
        elif self.name == "resample-ipw":
            pools = generate_scenario(load_preset("gbm-like"), seed)
            trial, ec = where / "trial.csv", where / "ec.csv"
            save_dataset(pools, str(trial), str(ec), CsvSchema(covariates=("x1",)))
            cfg = {"trial_csv": str(trial), "ec_csv": str(ec),
                   "schema": {"covariates": ["x1"]}, "n_control": 100,
                   "n_experimental": 200, "n_ec": 600, "reps": reps}
        else:
            ds = generate_scenario(ESTIMATE_SPEC, seed)
            rct, ec = where / "rct.csv", where / "ec.csv"
            save_dataset(ds, str(rct), str(ec))
            cfg = {"rct_csv": str(rct), "ec_csv": str(ec),
                   "schema": {"covariates": ["x1", "x2"]},
                   "outcome_family": "binary", "estimators": ESTIMATE_ESTIMATORS,
                   "intervals": ["rct_only"]}
        cfg.update(seed=seed, workers=self.workers)
        path = where / "config.json"
        path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
        return path

    def argv(self, config: Path, out_dir: Path, workers: int | None = None,
             reps: int | None = None) -> list[str]:
        argv = [self.command, "--config", str(config), "--out-dir", str(out_dir)]
        if workers is not None:
            argv += ["--workers", str(workers)]
        if reps is not None and self.reps:
            argv += ["--reps", str(reps)]
        return argv

    def check(self, out_dir: Path, reps: int) -> tuple[list[str], int]:
        """Invariants that hold at any seed. Returns (problems, failed ops)."""
        if self.command == "estimate":
            return check_estimate(out_dir), 0
        return check_report(out_dir, reps)


WORKLOADS = {w.name: w for w in (
    Workload("sim-dm-intervals", "simulate",
             "difference-of-means path with all four interval methods: estimators, "
             "intervals, bayes, rng and harmonize, no glm",
             reps=25, smoke_reps=3, workers=1, outputs=("report.csv",),
             op_mark="sim.generate_scenario"),
    Workload("sim-logit-bd", "simulate",
             "logistic bd and vd on fig5: warm-started IRLS refits inside the "
             "harmonize limit map dominate",
             reps=25, smoke_reps=2, workers=1, outputs=("report.csv",),
             op_mark="sim.generate_scenario"),
    Workload("resample-ipw", "resample",
             "gbm-like pool resampling on 2 worker processes: 4 cold-start weighted "
             "glm fits and a fresh dataset per replicate",
             reps=100, smoke_reps=4, workers=2, outputs=("report.csv",),
             op_mark="data.CombinedDataset.from_arrays"),
    Workload("estimate-binary", "estimate",
             "the analyst's call on a 14k-row binary CSV pair: CSV ingest, IPW and "
             "bd limit maps on large designs, artifact writing",
             reps=0, smoke_reps=0, workers=1,
             outputs=("estimates.csv", "intervals.csv"), op_mark="cli.main"),
)}


# --- output checks -----------------------------------------------------------

def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_report(out_dir: Path, reps: int) -> tuple[list[str], int]:
    """`report.csv` values are finite, every `n_used` equals the
    replicates minus the replicates recorded as failed for that row, and
    no replicate failed. Returns (problems, failed replicates)."""
    problems = []
    rows = _read_csv(out_dir / "report.csv")
    if not rows:
        problems.append("report.csv is empty")
    failures = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))["failures"]
    failed_reps = {int(f[0]) for f in failures}
    if failed_reps:
        problems.append(f"{len(failed_reps)} replicates failed, the first: {failures[0]}")
    for row in rows:
        for col in ("value", "mc_se"):
            if not _finite(row[col]):
                problems.append(f"non-finite {col} in report.csv: {row}")
        if row["metric"] != "n_used":
            continue
        name = row["estimator"]
        lost = {name, "intervals"} if name.startswith("interval:") else {name, "design", "spike"}
        expected = reps - len({int(f[0]) for f in failures if f[1] in lost})
        if not (_finite(row["value"]) and float(row["value"]) == expected):
            problems.append(f"{name}: n_used {row['value']} != {expected}")
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    if manifest["checks"]["n_failures"] != len(failures):
        problems.append("manifest n_failures disagrees with the report")
    return problems, len(failed_reps)


def check_estimate(out_dir: Path) -> list[str]:
    """Estimates and intervals are finite, and every recorded full-
    harmonization gap passes a NaN-safe check."""
    problems = []
    for name, cols in (("estimates.csv", ("estimate",)),
                       ("intervals.csv", ("lower", "upper", "point"))):
        rows = _read_csv(out_dir / name)
        if not rows:
            problems.append(f"{name} is empty")
        for row in rows:
            for col in cols:
                if not _finite(row[col]):
                    problems.append(f"non-finite {col} in {name}: {row}")
    checks = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))["checks"]
    gaps = {k: v for k, v in checks.items() if k.startswith("full_harmonization_gap[")}
    expected = sum(1 for e in ESTIMATE_ESTIMATORS
                   if isinstance(e, dict) and e["lambda"] == "full")
    if len(gaps) != expected:
        problems.append(f"manifest records {len(gaps)} harmonization gaps, expected {expected}")
    for key, gap in gaps.items():
        if not (isinstance(gap, (int, float)) and gap <= GAP_TOL):
            problems.append(f"{key} = {gap!r} fails <= {GAP_TOL}")
    return problems


def compare_csv(actual: str, reference: str, label: str) -> list[str]:
    """Cell-by-cell comparison: numbers within REF_RTOL / REF_ATOL (NaN
    never matches), everything else exactly."""
    a_rows = list(csv.reader(io.StringIO(actual)))
    r_rows = list(csv.reader(io.StringIO(reference)))
    if len(a_rows) != len(r_rows):
        return [f"{label}: {len(a_rows)} rows, reference has {len(r_rows)}"]
    problems = []
    for i, (a_row, r_row) in enumerate(zip(a_rows, r_rows)):
        if len(a_row) != len(r_row):
            problems.append(f"{label} line {i + 1}: column count differs")
            continue
        for a, r in zip(a_row, r_row):
            try:
                fa, fr = float(a), float(r)
            except ValueError:
                if a != r:
                    problems.append(f"{label} line {i + 1}: {a!r} != {r!r}")
                continue
            if not abs(fa - fr) <= REF_ATOL + REF_RTOL * abs(fr):
                problems.append(f"{label} line {i + 1}: {a} differs from reference {r}")
    return problems
