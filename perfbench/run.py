"""Benchmark for subharm: four pinned workloads run through the public CLI
in-process, with output checks, end-to-end metrics and a traced per-layer
split.

    python3 perfbench/run.py --workload sim-dm-intervals --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. Each run makes its inputs from `--seed` in a temporary directory
under `.bench_build/`, sets up several times (fresh-interpreter import,
input generation, one warm-up op) and reports the median as `setup_s`, then
repeats the workload's CLI call closed-loop from this single process for
`--seconds`. Every call's outputs are checked; at the default seed they
must also match the committed reference under `perfbench/reference/`.

The host's speed drifts by up to a third between runs, so every timed
interval is rescaled by a calibration kernel timed just before and after
it (see `Calibration`). `ops_per_s` is the run's ops over its total
rescaled call time, `op_ms_p50` the median call, and `cpu_s_per_op` and
`setup_s` are medians. The line before the result holds the figures as
measured, before rescaling, and `op_ms_p90`, the 90th-percentile call.
It carries no bound: on the two-worker `resample-ipw` workload its
spread over ten seeds (IQR over median) reached 0.28, as other tenants'
load slows the parallel calls more than it slows the calibration kernel.

`--trace 0` prints the end-to-end metrics. `--trace 1` prints the
per-layer metrics instead: it measures an untraced phase and a traced
phase, both at one worker, and reports their throughput ratio as
`trace.overhead_frac`; the spans are written to `.bench_build/traces/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds
the environment. The exit code is 0 only when every check passed.
Per-layer targets are listed in `tracer.LAYER_METRICS`, and the figures
measured when the benchmark was defined in `perfbench/baseline.json`.

`--smoke` shrinks every call to a few replicates (for the benchmark's own
tests). `--make-reference` rewrites the reference outputs of a workload
at the default seed, one worker.
"""

from __future__ import annotations

import os

# one BLAS thread per process, set before numpy loads: the resample workers
# would otherwise each start a BLAS pool on the same two cores
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
SCRATCH = ROOT / ".bench_build"
WORKLOAD_NAMES = ("sim-dm-intervals", "sim-logit-bd", "resample-ipw", "estimate-binary")
SETUP_REPEATS = 7
# time of the calibration kernel on the reference CPU; see `Calibration`
CAL_REFERENCE_S = 0.010
# time of `IMPORT_PROBE`'s pure-Python kernel on the reference CPU
PY_REFERENCE_S = 0.010

# A fresh interpreter times its own import of the CLI between passes of a
# pure-Python kernel. The import is rescaled by the kernel run in the same
# process: the parent's `Calibration` does not track the child, which the
# scheduler may put on the other core.
IMPORT_PROBE = """
from time import perf_counter
def kernel():
    start = perf_counter()
    s = 0
    for i in range(150000):
        s += i * i
    return perf_counter() - start
before = min(kernel(), kernel())
start = perf_counter()
import subharm.cli
took = perf_counter() - start
print(took, before, min(kernel(), kernel()))
"""

# name -> (unit, better)
END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "op_ms_p50": ("ms", "lower"),
    "cpu_s_per_op": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}


class Calibration:
    """A fixed kernel timed between calls to read the host's current speed.

    The host's speed drifts by up to a third over tens of seconds (other
    tenants share its cores), which moves CPU time as much as wall time.
    The kernel mixes the program's kinds of work (interpreter loops, small
    numpy calls, a BLAS product) and calls no `subharm` code. Each timed
    interval is rescaled by CAL_REFERENCE_S over the mean of the kernel
    times just before and just after it, wall time by the kernel's wall
    time and CPU time by its CPU time: the reported times are those of a
    host that runs the kernel in CAL_REFERENCE_S.

    The kernel runs in the benchmark's own process, after the program's
    call, so what the call leaves behind (heap, caches, a forked pool)
    could slow it. `check_calibration.py` times it against the same
    kernel in a separate process that never imports `subharm`, with the
    four workloads interleaved: its in-process time was 0.97 to 1.01 of
    the separate one, in wall and in CPU time, on every workload.
    """

    def __init__(self):
        import numpy

        self.x = numpy.random.default_rng(0).random((4000, 16))
        self.last = self.time()

    def time(self) -> tuple[float, float]:
        """Wall and CPU seconds of one pass of the kernel."""
        import numpy

        x, v = self.x, self.x[:400, 0]
        start, cpu = perf_counter(), process_time()
        s = 0
        for i in range(75000):
            s += i * i
        for _ in range(750):
            s += float((v * v + 1.0).sum())
        for _ in range(12):
            s += float(numpy.trace(x.T @ x))
        return perf_counter() - start, process_time() - cpu

    def factor(self) -> tuple[float, float]:
        """Wall and CPU speed factors for the interval since the previous
        call."""
        before, self.last = self.last, self.time()
        return tuple(CAL_REFERENCE_S / (0.5 * (b + a)) for b, a in zip(before, self.last))


@dataclass
class Phase:
    """What one closed-loop measurement saw, per call. `speed` and
    `cpu_speed` hold each call's wall and CPU calibration factors;
    `call_s` and `cpu_s` are as measured."""

    per_call: int
    call_s: list[float] = field(default_factory=list)
    cpu_s: list[float] = field(default_factory=list)
    speed: list[float] = field(default_factory=list)
    cpu_speed: list[float] = field(default_factory=list)
    worker_cpu_s: float = 0.0
    failed: int = 0
    bytes_written: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return self.per_call * len(self.call_s)

    def rescaled_call_s(self) -> list[float]:
        return [v * f for v, f in zip(self.call_s, self.speed)]

    def rescaled_cpu_s(self) -> list[float]:
        return [v * f for v, f in zip(self.cpu_s, self.cpu_speed)]

    @property
    def ops_per_s(self) -> float:
        """All ops over the total rescaled time of the calls."""
        return self.ops / sum(self.rescaled_call_s())


def _cpu(who) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def import_seconds() -> tuple[float, float]:
    """Time of a fresh interpreter importing the CLI, as measured and
    rescaled (see `IMPORT_PROBE`)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    took, before, after = map(float, proc.stdout.split())
    return took, took * PY_REFERENCE_S / (0.5 * (before + after))


class Runner:
    """Runs one workload's calls and checks their outputs."""

    def __init__(self, workload, seed: int, smoke: bool, tmp: Path):
        from subharm import cli

        self.cli = cli
        self.w = workload
        self.seed = seed
        self.smoke = smoke
        self.tmp = tmp
        self.config: Path | None = None
        self.first: dict[str, bytes] = {}
        self.first_failed = 0
        self.problems: list[str] = []
        self.cal = Calibration()

    def setup(self, i: int) -> tuple[float, float]:
        """One set-up: import in a fresh interpreter, make the inputs, run one
        warm-up op. Returns its time as measured and rescaled."""
        raw_import, ref_import = import_seconds()
        self.cal.factor()
        start = perf_counter()
        self.config = self.w.make_inputs(self.tmp / f"inputs{i}", self.seed, self.smoke)
        out = self.tmp / f"warmup{i}"
        code = self.cli.main(self.w.argv(self.config, out, reps=2))
        if code != 0:
            self.problems.append(f"warm-up call exited {code}")
        t_rest = perf_counter() - start
        return raw_import + t_rest, ref_import + t_rest * self.cal.factor()[0]

    def measure(self, seconds: float, workers: int, check_reference: bool) -> Phase:
        """Repeat the call until `seconds` have passed (at least once)."""
        per_call = self.w.ops_per_call(self.smoke)
        ph = Phase(per_call)
        out = self.tmp / "out"
        argv = self.w.argv(self.config, out, workers=workers)
        begin = perf_counter()
        self.cal.factor()
        while True:
            cpu0, ch0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
            start = perf_counter()
            code = self.cli.main(argv)
            ph.call_s.append(perf_counter() - start)
            ch = _cpu(resource.RUSAGE_CHILDREN) - ch0
            ph.cpu_s.append(_cpu(resource.RUSAGE_SELF) - cpu0 + ch)
            ph.worker_cpu_s += ch
            speed, cpu_speed = self.cal.factor()
            ph.speed.append(speed)
            ph.cpu_speed.append(cpu_speed)
            if code != 0:
                ph.failed += per_call
                ph.problems.append(f"{self.w.command} exited {code}")
            else:
                self._check(out, per_call, ph, check_reference)
            if perf_counter() - begin >= seconds:
                break
        return ph

    def _check(self, out: Path, reps: int, ph: Phase, check_reference: bool) -> None:
        ph.bytes_written += sum(p.stat().st_size for p in out.iterdir())
        outputs = {name: (out / name).read_bytes() for name in self.w.outputs}
        if self.first:
            # every later call repeats the first, at any worker count, so it
            # also repeats the first call's failures
            for name, data in outputs.items():
                if data != self.first[name]:
                    ph.problems.append(f"{name} differs from the first call's")
            ph.failed += self.first_failed
            if self.first_failed:
                ph.problems.append(f"{self.first_failed} replicates failed")
            return
        self.first = outputs
        problems, self.first_failed = self.w.check(out, reps)
        ph.problems += problems
        ph.failed += self.first_failed
        if check_reference:
            ph.problems += compare_reference(self.w, self.smoke, outputs)


def reference_dir(workload, smoke: bool) -> Path:
    return BENCH / "reference" / ("smoke" if smoke else "full") / workload.name


def compare_reference(workload, smoke: bool, outputs: dict[str, bytes]) -> list[str]:
    from workloads import compare_csv

    problems = []
    for name, data in outputs.items():
        ref = reference_dir(workload, smoke) / name
        if not ref.is_file():
            problems.append(f"missing reference {ref.relative_to(ROOT)}")
            continue
        problems += compare_csv(data.decode("utf-8"), ref.read_text(encoding="utf-8"),
                                f"{workload.name}/{name}")
    return problems


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), cpu_model)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    return {
        "git_sha": git_sha, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_ENV, "nproc": os.cpu_count(), "cpu_model": cpu_model,
        "note": ("bytes moved are computed from design sizes, not measured; the host's "
                 "large shared L3 makes bandwidth ratios meaningless here"),
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children covers the resample workers
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def run(args) -> tuple[dict, int, int, list[str], dict]:
    from tracer import LAYER_METRICS, FallbackCounter, Tracer, layer_metrics, wrapped_bindings
    from workloads import DEFAULT_SEED, WORKLOADS

    w = WORKLOADS[args.workload]
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=SCRATCH))
    fallbacks = FallbackCounter()
    logger = logging.getLogger("subharm")
    logger.addHandler(fallbacks)
    try:
        runner = Runner(w, args.seed, args.smoke, tmp)
        ref = args.seed == DEFAULT_SEED
        repeats = 1 if (args.smoke or args.trace) else SETUP_REPEATS
        setups = [runner.setup(i) for i in range(repeats)]
        phases = []
        info = {}

        def untraced(seconds, workers):
            leaked = wrapped_bindings()
            if leaked:
                runner.problems.append(f"untraced run found wrappers on {leaked}")
            ph = runner.measure(seconds, workers, ref)
            phases.append(ph)
            return ph

        if not args.trace:
            ph = untraced(args.seconds, w.workers)
            calls_ms = [s * 1e3 for s in ph.rescaled_call_s()]
            metrics = {
                "ops_per_s": ph.ops_per_s,
                "op_ms_p50": _percentile(calls_ms, 50),
                "cpu_s_per_op": statistics.median(ph.rescaled_cpu_s()) / ph.per_call,
                "peak_rss_mb": _peak_rss_mb(),
                "setup_s": statistics.median(ref_s for _raw, ref_s in setups),
            }
            info["op_ms_p90"] = _percentile(calls_ms, 90)
            info["as_measured"] = {
                "ops_per_s": ph.ops / sum(ph.call_s),
                "op_ms_p50": _percentile([s * 1e3 for s in ph.call_s], 50),
                "cpu_s_per_op": statistics.median(ph.cpu_s) / ph.per_call,
                "setup_s": statistics.median(raw for raw, _ref_s in setups),
                "speed_factor_median": statistics.median(ph.speed),
                "cpu_speed_factor_median": statistics.median(ph.cpu_speed),
                "calls": len(ph.call_s),
            }
            units = {k: v[0] for k, v in END_TO_END.items()}
        else:
            parallel = 0.0
            if w.workers > 1:
                par = untraced(0.2 * args.seconds, w.workers)
                parallel = par.worker_cpu_s / (sum(par.call_s) * w.workers)
            base = untraced(0.4 * args.seconds, 1)
            tracer = Tracer(w.op_mark)
            with tracer:
                traced = runner.measure(0.4 * args.seconds, 1, ref)
            phases.append(traced)
            leaked = wrapped_bindings()
            if leaked:
                runner.problems.append(f"wrappers left after the traced run: {leaked}")
            metrics = layer_metrics(
                tracer, ops=traced.ops, reps=traced.ops if w.reps else 0, calls=len(traced.call_s),
                bytes_written=traced.bytes_written, fallbacks=fallbacks.count)
            metrics["sim.parallel_efficiency"] = parallel
            metrics["trace.overhead_frac"] = 1.0 - traced.ops_per_s / base.ops_per_s
            traces = SCRATCH / "traces"
            traces.mkdir(exist_ok=True)
            tracer.write(traces / f"{w.name}-seed{args.seed}.csv.gz")
            units = {name: unit for name, unit, _better, _target in LAYER_METRICS}
            metrics = {k: metrics[k] for k in units}
        if fallbacks.count:
            runner.problems.append(f"{fallbacks.count} bd -> vd fallbacks")
        problems = runner.problems + [p for ph in phases for p in ph.problems]
        attempted = sum(ph.ops for ph in phases)
        failed = sum(ph.failed for ph in phases)
        result = {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}
        return result, attempted, failed, problems, info
    finally:
        logger.removeHandler(fallbacks)
        shutil.rmtree(tmp, ignore_errors=True)


def _percentile(values, q) -> float:
    import numpy

    return float(numpy.percentile(values, q))


def make_reference(name: str) -> None:
    """Write the default-seed outputs, produced at one worker, as the
    reference for both the full and the smoke sizes."""
    from subharm import cli
    from workloads import DEFAULT_SEED, WORKLOADS

    w = WORKLOADS[name]
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        for smoke in (False, True):
            where = Path(tmp) / ("smoke" if smoke else "full")
            config = w.make_inputs(where / "inputs", DEFAULT_SEED, smoke)
            out = where / "out"
            code = cli.main(w.argv(config, out, workers=1))
            problems, _failed = w.check(out, w.ops_per_call(smoke)) if code == 0 else (
                [f"exit {code}"], 0)
            if problems:
                raise SystemExit(f"{name}: reference run failed checks: {problems}")
            dest = reference_dir(w, smoke)
            dest.mkdir(parents=True, exist_ok=True)
            for f in w.outputs:
                shutil.copyfile(out / f, dest / f)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--make-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "subharm" / "__init__.py").is_file():
        print(f"error: no subharm sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import subharm

    if Path(subharm.__file__).resolve().parent != SRC / "subharm":
        print(f"error: imported subharm from {subharm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.make_reference:
        make_reference(args.workload)
        return 0

    metrics, attempted, failed, problems, info = run(args)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed, "smoke": args.smoke, **info}))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
