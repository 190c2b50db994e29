"""Tests of the benchmark itself: every metric is printed with its unit, the
output checks fail closed, and the untraced run executes unwrapped code."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for p in (str(ROOT / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SECOND_SEED = 7


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, _target in tracer.LAYER_METRICS]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace,seed", [(0, workloads.DEFAULT_SEED), (1, SECOND_SEED)])
def test_smoke_prints_every_metric_with_its_unit(workload, trace, seed):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-logit-bd", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_calibration_check_prints_a_ratio_per_workload():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "check_calibration.py"), "--smoke", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [ln.split() for ln in proc.stdout.strip().splitlines()[1:]]
    assert [r[0] for r in rows] == list(run.WORKLOAD_NAMES)
    assert all(float(v) > 0 for r in rows for v in r[2:])


def _simulate_report(tmp_path) -> Path:
    from subharm import cli

    w = workloads.WORKLOADS["sim-dm-intervals"]
    config = w.make_inputs(tmp_path / "inputs", workloads.DEFAULT_SEED, smoke=True)
    out = tmp_path / "out"
    assert cli.main(w.argv(config, out, workers=1)) == 0
    return out


def test_report_check_fails_on_perturbed_or_nan_value(tmp_path):
    out = _simulate_report(tmp_path)
    w = workloads.WORKLOADS["sim-dm-intervals"]
    problems, failed = w.check(out, w.smoke_reps)
    assert problems == [] and failed == 0
    text = (out / "report.csv").read_text(encoding="utf-8")
    reference = (run.reference_dir(w, smoke=True) / "report.csv").read_text(encoding="utf-8")
    assert workloads.compare_csv(text, reference, "report.csv") == []

    header, first, *rest = text.splitlines()
    cells = first.split(",")
    cells[4] = repr(float(cells[4]) * (1 + 1e-6))
    perturbed = "\n".join([header, ",".join(cells), *rest]) + "\n"
    assert workloads.compare_csv(perturbed, reference, "report.csv")

    cells[4] = "nan"
    with_nan = "\n".join([header, ",".join(cells), *rest]) + "\n"
    assert workloads.compare_csv(with_nan, with_nan, "report.csv")  # NaN never matches
    (out / "report.csv").write_text(with_nan, encoding="utf-8")
    problems, _ = w.check(out, w.smoke_reps)
    assert any("non-finite value" in p for p in problems)


def test_report_check_fails_on_wrong_n_used(tmp_path):
    out = _simulate_report(tmp_path)
    w = workloads.WORKLOADS["sim-dm-intervals"]
    problems, _ = w.check(out, w.smoke_reps + 1)
    assert any("n_used" in p for p in problems)


def test_recorded_failure_fails_every_call(tmp_path):
    out = _simulate_report(tmp_path)
    w = workloads.WORKLOADS["sim-dm-intervals"]
    # record one failed replicate, with n_used and the manifest consistent
    # with it, so that only the failure itself is left to catch
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    report["failures"] = [[0, "oracle", "injected"]]
    (out / "report.json").write_text(json.dumps(report), encoding="utf-8")
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    manifest["checks"]["n_failures"] = 1
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    lines = (out / "report.csv").read_text(encoding="utf-8").splitlines()
    lines = [f"fig1-s2,oracle,0,n_used,{w.smoke_reps - 1},0"
             if ln.startswith("fig1-s2,oracle,0,n_used,") else ln for ln in lines]
    (out / "report.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    problems, failed = w.check(out, w.smoke_reps)
    assert failed == 1
    assert len(problems) == 1 and "replicates failed" in problems[0]

    runner = run.Runner(w, workloads.DEFAULT_SEED, smoke=True, tmp=tmp_path)
    ph = run.Phase(w.smoke_reps)
    for _ in range(3):
        runner._check(out, w.smoke_reps, ph, check_reference=False)
    assert ph.failed == 3
    assert sum("replicates failed" in p for p in ph.problems) == 3


def test_estimate_check_fails_on_nan_gap(tmp_path):
    (tmp_path / "estimates.csv").write_text(
        "estimator,subgroup,label,estimate\nbd_pooled,1,1,0.25\n", encoding="utf-8")
    (tmp_path / "intervals.csv").write_text(
        "method,subgroup,label,lower,upper,point,alpha\nrct_only,1,1,0.1,0.4,0.25,0.05\n",
        encoding="utf-8")
    names = [e["name"] for e in workloads.ESTIMATE_ESTIMATORS if isinstance(e, dict)]
    gaps = {f"full_harmonization_gap[{n}]": 0.0 for n in names}
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"checks": gaps}), encoding="utf-8")
    assert workloads.check_estimate(tmp_path) == []
    gaps[f"full_harmonization_gap[{names[0]}]"] = float("nan")
    manifest.write_text(json.dumps({"checks": gaps}), encoding="utf-8")
    assert any("fails" in p for p in workloads.check_estimate(tmp_path))


def test_untraced_run_executes_unwrapped_functions(tmp_path):
    import subharm
    from subharm import cli

    harmonize_mod = sys.modules["subharm.harmonize"]
    bindings = [(subharm.glm, "fit_logistic_irls"), (harmonize_mod, "harmonize"),
                (subharm.sim, "harmonize"), (subharm.intervals, "harmonize"),
                (subharm.sim, "stream"), (cli, "_write_csv"), (cli, "main")]
    originals = [getattr(m, k) for m, k in bindings]
    from_arrays = subharm.data.CombinedDataset.__dict__["from_arrays"]
    assert tracer.wrapped_bindings() == []

    w = workloads.WORKLOADS["sim-dm-intervals"]
    config = w.make_inputs(tmp_path / "inputs", workloads.DEFAULT_SEED, smoke=True)
    argv = w.argv(config, tmp_path / "out", workers=1)
    t = tracer.Tracer(w.op_mark)
    with t:
        assert all(tracer.is_wrapped(getattr(m, k)) for m, k in bindings)
        assert cli.main(argv) == 0
    names = {s[0] for s in t.spans}
    # the module-level bindings callers use were the ones patched
    assert {"harmonize.harmonize", "rng.stream", "cli._write_csv",
            "data.CombinedDataset.rct_mask"} <= names
    assert t.op == w.smoke_reps

    assert tracer.wrapped_bindings() == []
    assert [getattr(m, k) for m, k in bindings] == originals
    assert subharm.data.CombinedDataset.__dict__["from_arrays"] is from_arrays
    recorded = len(t.spans)
    assert cli.main(argv) == 0
    assert len(t.spans) == recorded
