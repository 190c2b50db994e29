"""Check that two source trees write the same artifacts.

    python tools/cmp_artifacts.py PARENT_TREE CHANGE_TREE

Each tree is a checkout with the package under `src/`. The inputs (trial,
external and pool CSV files) are generated once, by PARENT_TREE's
`generate_scenario` and `save_dataset`, and both trees read the same files.
Then a pinned list of `simulate`, `resample` and `estimate` runs goes
through each tree's CLI, one subprocess per run with `PYTHONPATH` set to
the tree's `src/`, at seeds 0-2 and `--workers` 1 and 2.

`report.csv`, `report.json`, `replicates.csv`, `estimates.csv` and
`intervals.csv` are compared byte for byte, and `manifest.json` as JSON
without `config.out_dir`. The script prints each file that differs and
each run that failed, and exits 1 if there is any; 0 when every artifact
is identical. Standard library only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SEEDS = (0, 1, 2)
WORKERS = (1, 2)
REPS = 20
BYTE_FILES = ("report.csv", "report.json", "replicates.csv", "estimates.csv", "intervals.csv")
ALL_INTERVALS = ["analytic", "cut", "bootstrap", "rct_only"]


def harmonized(name, initial, overall, mode, lam="full", **fields):
    return {"kind": "harmonized", "name": name, "initial": initial, "overall": overall,
            "lambda": lam, "sigma_mode": mode, **fields}


LOGISTIC = ["logistic_pooled", "logistic_ipw", "logistic_rct",
            harmonized("bd", "logistic_pooled", "logistic", "bd"),
            harmonized("vd", "logistic_pooled", "logistic", "vd"),
            harmonized("ipw_bd", "logistic_ipw", "logistic", "bd")]
FIXED_SIGMA = [[0.55 if i == j else 0.05 for j in range(10)] for i in range(10)]
# continuous outcomes with one covariate drawn anew in each replicate, so
# every replicate builds its own design
DRAWN_COVARIATES = {
    "name": "drawn-covariates", "outcome_family": "continuous", "k": 4,
    "n_rct_treated": [10, 12, 8, 10], "n_rct_control": [10, 8, 12, 10],
    "n_ec": [40, 50, 30, 60], "mu": [0.0, 0.5, -0.5, 1.0], "theta": [0.2, 0.4, 0.0, -0.2],
    "distortion": [0.5, 0.0, 1.0, 0.5], "n_covariates": 1, "beta": [0.5],
    "x_mean_ec": 1.0, "fixed_covariates": False}


def runs(inputs: Path, seed: int) -> dict[str, tuple[str, dict]]:
    """name: (command, config) of each pinned run at `seed`, out_dir and
    workers aside."""
    pools = {"trial_csv": str(inputs / f"pools{seed}_trial.csv"),
             "ec_csv": str(inputs / f"pools{seed}_ec.csv"),
             "schema": {"covariates": ["x1"]}, "n_control": 60, "n_experimental": 90,
             "n_ec": 150, "reps": REPS}
    sim = {"reps": REPS}
    return {
        **{f"simulate-{p}": ("simulate", dict(sim, preset=p, intervals=ALL_INTERVALS))
           for p in ("fig1-s1", "fig1-s2", "fig1-s3", "fig4")},
        "simulate-fig5-bd-vd": ("simulate", dict(sim, preset="fig5", estimators=[
            "logistic_pooled", harmonized("bd", "logistic_pooled", "logistic", "bd"),
            harmonized("vd", "logistic_pooled", "logistic", "vd")])),
        "simulate-fig5-ipw-bd-lam2": ("simulate", dict(sim, preset="fig5", estimators=[
            "logistic_ipw", harmonized("ipw_bd", "logistic_ipw", "logistic", "bd", 2)])),
        "simulate-fig1-s2-fixed": ("simulate", dict(
            sim, preset="fig1-s2", intervals=ALL_INTERVALS, estimators=[
                "diff_means_pooled",
                harmonized("fixed", "diff_means_pooled", "diff_means", "fixed", 2,
                           sigma=FIXED_SIGMA)])),
        "simulate-drawn-covariates": ("simulate", dict(
            sim, scenario=DRAWN_COVARIATES, intervals=ALL_INTERVALS)),
        "simulate-fig1-s2-vd-target": ("simulate", dict(
            sim, preset="fig1-s2", intervals=ALL_INTERVALS, interval_estimator="vd",
            estimators=["diff_means_pooled",
                        harmonized("bd", "diff_means_pooled", "diff_means", "bd"),
                        harmonized("vd", "diff_means_pooled", "diff_means", "vd")])),
        "simulate-gbm-like-bd": ("simulate", dict(sim, preset="gbm-like", estimators=[
            "logistic_pooled", harmonized("bd", "logistic_pooled", "logistic", "bd")])),
        "simulate-fig4-ols": ("simulate", dict(
            sim, preset="fig4", intervals=["rct_only"], estimators=[
                "ols_pooled", "ols_rct", harmonized("bd", "ols_pooled", "ols", "bd"),
                harmonized("vd", "ols_pooled", "ols", "vd"),
                harmonized("fixed", "ols_pooled", "ols", "fixed", 2, sigma=FIXED_SIGMA)])),
        "resample-default": ("resample", pools),
        "resample-spike": ("resample", dict(pools, spike=0.1)),
        "resample-pool": ("resample", dict(pools, prevalence_mode="pool")),
        "estimate-binary": ("estimate", {
            "rct_csv": str(inputs / f"binary{seed}_rct.csv"),
            "ec_csv": str(inputs / f"binary{seed}_ec.csv"), "schema": {"covariates": ["x1"]},
            "outcome_family": "binary", "estimators": LOGISTIC, "intervals": ["rct_only"]}),
        # the default list, whose harmonized estimator targets the binary
        # family's overall
        "estimate-binary-default": ("estimate", {
            "rct_csv": str(inputs / f"binary{seed}_rct.csv"),
            "ec_csv": str(inputs / f"binary{seed}_ec.csv"), "schema": {"covariates": ["x1"]},
            "outcome_family": "binary"}),
        "estimate-continuous": ("estimate", {
            "rct_csv": str(inputs / f"continuous{seed}_rct.csv"),
            "ec_csv": str(inputs / f"continuous{seed}_ec.csv"), "intervals": ALL_INTERVALS}),
    }


GENERATE = """
import sys
from subharm import CsvSchema, generate_scenario, load_preset, save_dataset
where = sys.argv[1]
for seed in map(int, sys.argv[2:]):
    for name, preset, files, covariates in (
            ("pools", "gbm-like", ("trial", "ec"), ("x1",)),
            ("binary", "fig5", ("rct", "ec"), ("x1",)),
            ("continuous", "fig1-s2", ("rct", "ec"), ())):
        ds = generate_scenario(load_preset(preset), seed=seed)
        save_dataset(ds, *(f"{where}/{name}{seed}_{f}.csv" for f in files),
                     CsvSchema(covariates=covariates))
"""


def env_for(tree: Path) -> dict:
    # one BLAS thread, as the benchmark runs
    return dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
                OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def run_cli(tree: Path, command: str, config: Path, out: Path, workers: int):
    proc = subprocess.run(
        [sys.executable, "-m", "subharm.cli", command, "--config", str(config),
         "--out-dir", str(out), "--workers", str(workers)],
        env=env_for(tree), capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stderr.strip()


def manifest_without_out_dir(path: Path):
    obj = json.loads(path.read_text(encoding="utf-8"))
    obj.get("config", {}).pop("out_dir", None)
    return obj


def compare(a: Path, b: Path) -> list[str]:
    """The artifacts of run directories a and b that differ."""
    differ = []
    for name in BYTE_FILES:
        fa, fb = a / name, b / name
        if fa.exists() != fb.exists():
            differ.append(f"{name} (written on one side only)")
        elif fa.exists() and fa.read_bytes() != fb.read_bytes():
            differ.append(name)
    if manifest_without_out_dir(a / "manifest.json") != manifest_without_out_dir(
            b / "manifest.json"):
        differ.append("manifest.json")
    return differ


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    trees = [Path(t).resolve() for t in argv]
    with tempfile.TemporaryDirectory(prefix="cmp_artifacts_") as tmp:
        work = Path(tmp)
        inputs = work / "inputs"
        inputs.mkdir()
        subprocess.run([sys.executable, "-c", GENERATE, str(inputs), *map(str, SEEDS)],
                       env=env_for(trees[0]), check=True)
        jobs = []
        for seed in SEEDS:
            for name, (command, cfg) in runs(inputs, seed).items():
                config = work / "configs" / f"{name}-{seed}.json"
                config.parent.mkdir(exist_ok=True)
                config.write_text(json.dumps(dict(cfg, seed=seed)), encoding="utf-8")
                for workers in WORKERS:
                    label = f"{name} seed {seed} workers {workers}"
                    outs = [work / side / f"{name}-{seed}-w{workers}"
                            for side in ("parent", "change")]
                    jobs.append((label, command, config, workers, outs))

        def run_job(job):
            label, command, config, workers, outs = job
            return [run_cli(tree, command, config, out, workers)
                    for tree, out in zip(trees, outs)]

        problems = 0
        identical = 0
        with ThreadPoolExecutor(max_workers=2) as pool:
            for job, results in zip(jobs, pool.map(run_job, jobs)):
                label, outs = job[0], job[4]
                failed = [f"{side} exited {code}: {err}" for side, (code, err)
                          in zip(("parent", "change"), results) if code != 0]
                if failed:
                    problems += 1
                    print(f"FAILED  {label}: " + "; ".join(failed))
                    continue
                differ = compare(*outs)
                if differ:
                    problems += 1
                    print(f"DIFFER  {label}: {', '.join(differ)}")
                else:
                    identical += 1
        print(f"{identical} of {len(jobs)} runs identical, {problems} differ or failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
