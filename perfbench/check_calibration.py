"""Check that the calibration kernel's speed does not depend on the workload
that ran before it.

    python3 perfbench/check_calibration.py --seconds 120

`run.py` rescales every timed call by `run.Calibration`'s kernel, timed in
the benchmark's own process right after the call. If what a call leaves
behind (heap, caches, a forked worker pool) slowed the kernel, a change to
the program could move the factor and hide part of its own gain. This
script runs the four workloads' CLI calls interleaved in one process.
After each call it times the kernel here and in a helper process that
never imports `subharm`, in alternating order, and prints per workload the
median ratio of the two times, wall and CPU. Ratios near 1 on every
workload mean the factor reads the host, not the workload.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402  (pins BLAS threads before numpy loads)

HELPER = """
import sys
import run
cal = run.Calibration()
for _ in sys.stdin:
    print(*cal.time(), flush=True)
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=120.0)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    from subharm import cli
    from workloads import WORKLOADS

    cal = run.Calibration()
    helper = subprocess.Popen([sys.executable, "-c", HELPER], cwd=BENCH, text=True,
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def in_helper():
        helper.stdin.write("\n")
        helper.stdin.flush()
        return tuple(map(float, helper.stdout.readline().split()))

    ratios = {name: [] for name in WORKLOADS}
    run.SCRATCH.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=run.SCRATCH) as tmp:
            argvs = {}
            for name, w in WORKLOADS.items():
                config = w.make_inputs(Path(tmp) / name, args.seed, args.smoke)
                argvs[name] = w.argv(config, Path(tmp) / name / "out")
            end = perf_counter() + args.seconds
            i = 0
            while True:
                for name, argv in argvs.items():
                    if cli.main(argv) != 0:
                        print(f"{name} exited non-zero", file=sys.stderr)
                        return 1
                    if i % 2:
                        here, there = cal.time(), in_helper()
                    else:
                        there, here = in_helper(), cal.time()
                    ratios[name].append([h / t for h, t in zip(here, there)])
                    i += 1
                if perf_counter() >= end:
                    break
    finally:
        helper.stdin.close()
        helper.wait(timeout=60)
    print(f"{'workload':18s} {'calls':>5s} {'wall':>7s} {'cpu':>7s}  (kernel here / in helper)")
    for name, rows in ratios.items():
        wall, cpu = (statistics.median(r[j] for r in rows) for j in (0, 1))
        print(f"{name:18s} {len(rows):5d} {wall:7.4f} {cpu:7.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
