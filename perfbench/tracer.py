"""Spans recorded from outside the program, and the per-layer split.

The tracer replaces selected functions of `subharm` with timing wrappers
for the length of one traced phase, then puts the originals back. Every
binding a caller could look a function up through is patched: a module
that did `from .glm import fit_logistic_irls` holds its own reference, so
each `subharm.*` module namespace is scanned for the original object.
`subharm.harmonize` is the re-exported function; the module is reached
through `sys.modules["subharm.harmonize"]`, which the scan covers.

A span is `[name, start, end, parent, op]`: times from `perf_counter`,
`parent` the index of the enclosing span (-1 at the top) and `op` the id of
the operation (replicate or `estimate` call) that was running when the span
opened. Spans stay in memory until `write` is called at the end of a run.
"""

from __future__ import annotations

import gzip
import logging
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

MARK = "_perfbench_original"

# Public, module-level entry points of each layer, plus the private seams
# the per-layer metrics and the stage split need. Dotted names reach into a
# class.
TRACED = {
    "sim": ("generate_scenario", "true_effects", "run_monte_carlo",
            "run_resampling", "load_resample_pools", "spike_effect",
            "_scenario_batch", "_resample_batch", "_interval_rows", "_aggregate",
            "_ReplicateContext.initial", "_ReplicateContext.overall",
            "_ReplicateContext.bd_direction", "_ReplicateContext.bd_sigma"),
    "rng": ("stream",),
    "data": ("load_dataset", "save_dataset", "compute_design_counts",
             "CombinedDataset.from_arrays", "CombinedDataset.rct_mask"),
    "estimators": ("diff_means_overall", "diff_means_pooled_subgroups",
                   "_diff_means_rct_subgroups", "oracle_subgroups",
                   "rct_only_subgroups", "ols_subgroup_effects", "ols_overall_effect",
                   "logistic_marginal_effects", "logistic_overall_effect",
                   "fit_propensity", "weighted_logistic_effects",
                   "_pooled_cell_variance"),
    "glm": ("build_design", "fit_ols", "fit_logistic_irls", "_loglik"),
    "harmonize": ("harmonize", "bd_direction_linear", "bd_direction_glm",
                  "build_limit_map_spec", "limit_map_theta", "solve_sigma_from_b",
                  "vd_sigma", "analytic_bias_variance"),
    "intervals": ("analytic_interval", "cut_interval", "rct_only_interval",
                  "bootstrap_interval", "SimpleModelParams.from_data"),
    "bayes": ("analyst1_posterior", "analyst2_posterior", "cut_distribution"),
    "cli": ("main", "cmd_estimate", "cmd_simulate", "cmd_resample",
            "_write_csv", "_manifest", "_report_artifacts"),
}

# ROADMAP stages. A span counts toward a stage when its name is one of the
# stage's roots and no enclosing span is a root of any stage, so stages
# never double count (the pooled estimate inside the bootstrap is interval
# work, not an initial fit).
STAGES = {
    "generate": ("sim.generate_scenario", "data.CombinedDataset.from_arrays",
                 "data.load_dataset"),
    "initial_fit": ("sim._ReplicateContext.initial",),
    "overall_fit": ("sim._ReplicateContext.overall", "estimators.diff_means_overall",
                    "estimators.logistic_overall_effect", "estimators.ols_overall_effect"),
    "shift_direction": ("sim._ReplicateContext.bd_direction",
                        "sim._ReplicateContext.bd_sigma", "harmonize.vd_sigma",
                        "harmonize.solve_sigma_from_b"),
    "harmonize": ("harmonize.harmonize",),
    "intervals": ("sim._interval_rows", "intervals.analytic_interval",
                  "intervals.cut_interval", "intervals.rct_only_interval",
                  "intervals.bootstrap_interval", "harmonize.analytic_bias_variance",
                  "bayes.analyst1_posterior", "bayes.analyst2_posterior",
                  "bayes.cut_distribution", "estimators._pooled_cell_variance"),
    "aggregate": ("sim._aggregate",),
    "write": ("cli._report_artifacts", "cli._write_csv", "cli._manifest"),
}

BATCHES = ("sim._scenario_batch", "sim._resample_batch")
REPLICATE_MARKS = ("sim.generate_scenario", "data.CombinedDataset.from_arrays")
FALLBACK_MESSAGE = "bias direction degenerate"

SIM = "sim-dm-intervals, sim-logit-bd, resample-ipw: ops_per_s"
# name, unit, better, and the workloads and end-to-end metric it should move
LAYER_METRICS = (
    ("sim.replicate_ms_p50", "ms", "lower", SIM),
    ("sim.replicate_ms_p99", "ms", "lower", SIM),
    ("sim.self_ms_per_rep", "ms", "lower", SIM),
    ("sim.generate_scenario.ms_per_call", "ms", "lower", SIM),
    ("sim.aggregate.ms", "ms", "lower", SIM),
    ("sim.parallel_efficiency", "ratio", "higher", "resample-ipw: ops_per_s"),
    ("rng.stream.calls_per_rep", "count", "lower", "sim-dm-intervals, resample-ipw: ops_per_s"),
    ("rng.stream.us_per_call", "us", "lower", "sim-dm-intervals, resample-ipw: ops_per_s"),
    ("data.load_dataset.ms_per_call", "ms", "lower",
     "estimate-binary: op_ms_p50; resample-ipw: setup_s"),
    ("data.rows_ingested_per_s", "1/s", "higher",
     "estimate-binary: op_ms_p50; resample-ipw: setup_s"),
    ("data.from_arrays.us_per_call", "us", "lower", SIM),
    ("data.compute_design_counts.us_per_call", "us", "lower", SIM),
    ("data.rct_mask.calls_per_rep", "count", "lower", "sim-dm-intervals: ops_per_s"),
    ("estimators.pooled_cell_variance.calls_per_rep", "count", "lower",
     "sim-dm-intervals: ops_per_s"),
    ("estimators.pooled_cell_variance.ms_per_rep", "ms", "lower", "sim-dm-intervals: ops_per_s"),
    ("estimators.diff_means.ms_per_rep", "ms", "lower", "sim-dm-intervals: ops_per_s"),
    ("estimators.logistic_marginal_effects.calls_per_op", "count", "lower",
     "sim-logit-bd, resample-ipw: ops_per_s; estimate-binary: op_ms_p50"),
    ("estimators.logistic_marginal_effects.ms_per_call", "ms", "lower",
     "sim-logit-bd, resample-ipw: ops_per_s; estimate-binary: op_ms_p50"),
    ("estimators.fit_propensity.ms_per_call", "ms", "lower",
     "resample-ipw: ops_per_s; estimate-binary: op_ms_p50"),
    ("estimators.logistic_overall_effect.ms_per_call", "ms", "lower", "sim-logit-bd: ops_per_s"),
    ("glm.fit_logistic_irls.calls_per_op", "count", "lower", GLM := (
        "sim-logit-bd, resample-ipw: ops_per_s; estimate-binary: op_ms_p50")),
    ("glm.fit_logistic_irls.ms_per_call", "ms", "lower", GLM),
    ("glm.fit_logistic_irls.frac", "ratio", "lower", GLM),
    ("glm.irls_iterations_per_fit", "count", "lower", GLM),
    ("glm.loglik_evals_per_fit", "count", "lower", GLM),
    ("glm.irls_useful_step_ratio", "ratio", "higher", GLM),
    ("glm.irls_design_mb_per_op", "MB", "lower", "estimate-binary: op_ms_p50 (computed)"),
    ("glm.build_design.ms_per_call", "ms", "lower", GLM),
    ("harmonize.harmonize.calls_per_op", "count", "lower", "sim-dm-intervals: ops_per_s"),
    ("harmonize.harmonize.us_per_call", "us", "lower", "sim-dm-intervals: ops_per_s"),
    ("harmonize.bd_direction_glm.ms_per_call", "ms", "lower", LIMIT := (
        "sim-logit-bd: ops_per_s; estimate-binary: op_ms_p50")),
    ("harmonize.limit_map_theta.calls_per_op", "count", "lower", LIMIT),
    ("harmonize.build_limit_map_spec.ms_per_call", "ms", "lower", LIMIT),
    ("harmonize.bd_fallbacks", "count", "lower", "all: must stay 0"),
    ("intervals.bootstrap_interval.ms_per_call", "ms", "lower", "sim-dm-intervals: ops_per_s"),
    ("intervals.model_params.us_per_call", "us", "lower", "sim-dm-intervals: ops_per_s"),
    ("intervals.rct_only_interval.us_per_call", "us", "lower", "sim-dm-intervals: ops_per_s"),
    ("intervals.analytic.us_per_rep", "us", "lower", "sim-dm-intervals: ops_per_s"),
    ("bayes.cut.us_per_rep", "us", "lower", "sim-dm-intervals: ops_per_s"),
    ("cli.main.ms_per_call", "ms", "lower", CLI := "estimate-binary: op_ms_p50; others per call"),
    ("cli.self_ms_per_call", "ms", "lower", CLI),
    ("cli.write.ms_per_op", "ms", "lower", CLI),
    ("cli.bytes_written_per_op", "bytes", "lower", CLI),
    *((f"stage.{stage}_frac", "ratio", "lower", "per workload: ops_per_s or op_ms_p50")
      for stage in STAGES),
    ("trace.overhead_frac", "ratio", "lower", "traced vs untraced ops_per_s"),
)


class FallbackCounter(logging.Handler):
    """Counts bd -> vd fallbacks reported on the `subharm` logger."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if record.getMessage().startswith(FALLBACK_MESSAGE):
            self.count += 1


class Tracer:
    """In-memory span recorder. `install` patches, `remove` restores."""

    def __init__(self, op_mark: str):
        # op_mark names the span that opens a new operation: "cli.main" for
        # estimate, a replicate mark (inside a batch) for the simulations
        self.op_mark = op_mark
        self.spans: list[list] = []
        self.results: dict[int, object] = {}
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # --- patching ----------------------------------------------------

    def _wrap(self, name: str, fn, keep_result: bool):
        spans, stack, results = self.spans, self._stack, self.results
        batch_mark = self.op_mark in REPLICATE_MARKS

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if name == self.op_mark and (
                    not batch_mark or (parent >= 0 and spans[parent][0] in BATCHES)):
                self.op += 1
            idx = len(spans)
            rec = [name, 0.0, 0.0, parent, self.op]
            spans.append(rec)
            stack.append(idx)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if keep_result:
                results[idx] = _summarize(name, args, out)
            return out

        setattr(wrapper, MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "subharm" or n.startswith("subharm.")) and m is not None]
        for layer, names in TRACED.items():
            mod = sys.modules[f"subharm.{layer}"]
            for dotted in names:
                span_name = f"{layer}.{dotted}"
                keep = span_name in ("glm.fit_logistic_irls", "data.load_dataset")
                if "." in dotted:
                    cls_name, attr = dotted.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(span_name, raw.__func__, keep))
                    else:
                        new = self._wrap(span_name, raw, keep)
                    self._patched.append((cls, attr, raw))
                    setattr(cls, attr, new)
                    continue
                original = mod.__dict__[dotted]
                wrapper = self._wrap(span_name, original, keep)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is original:
                            self._patched.append((m, key, original))
                            setattr(m, key, wrapper)

    def remove(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    # --- output ------------------------------------------------------

    def replicate_spans(self) -> list[tuple[int, float, float, int]]:
        """One (batch, start, end, op) per replicate: from its mark to the
        next mark in the same batch, or to the end of the batch."""
        marks: dict[int, list[int]] = defaultdict(list)
        for i, (name, _s, _e, parent, _op) in enumerate(self.spans):
            if name == self.op_mark and parent >= 0 and self.spans[parent][0] in BATCHES:
                marks[parent].append(i)
        out = []
        for batch, idx in marks.items():
            ends = [self.spans[j][1] for j in idx[1:]] + [self.spans[batch][2]]
            out.extend((batch, self.spans[i][1], end, self.spans[i][4])
                       for i, end in zip(idx, ends))
        return out

    def write(self, path) -> None:
        """Write spans as gzip CSV: name,start_us,end_us,parent,op."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,start_us,end_us,parent,op\n")
            for i, (name, s, e, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{name},{(s - t0) * 1e6:.3f},{(e - t0) * 1e6:.3f},{parent},{op}\n")
            for batch, s, e, op in self.replicate_spans():
                fh.write(f"r,sim.replicate,{(s - t0) * 1e6:.3f},{(e - t0) * 1e6:.3f},{batch},{op}\n")


def is_wrapped(fn) -> bool:
    inner = fn.__func__ if isinstance(fn, classmethod) else fn
    return hasattr(inner, MARK)


def wrapped_bindings() -> list[str]:
    """Every `subharm` binding that still holds a tracer wrapper."""
    found = []
    for n, m in sorted(sys.modules.items()):
        if m is None or not (n == "subharm" or n.startswith("subharm.")):
            continue
        for key, val in vars(m).items():
            if callable(val) and is_wrapped(val):
                found.append(f"{n}.{key}")
            if isinstance(val, type) and val.__module__ == n:
                found += [f"{n}.{key}.{a}" for a, v in vars(val).items()
                          if (callable(v) or isinstance(v, classmethod)) and is_wrapped(v)]
    return found


def _summarize(name, args, out):
    if name == "glm.fit_logistic_irls":
        design = args[0]
        x = getattr(design, "values", design)
        return (out.iterations, x.shape[0], x.shape[1])
    return out.n_rct + out.n_ec  # data.load_dataset: rows ingested


# --- per-layer metrics ------------------------------------------------------

def layer_metrics(tracer: Tracer, *, ops: int, reps: int, calls: int,
                  bytes_written: int, fallbacks: int) -> dict[str, float]:
    """Per-layer numbers from one traced phase.

    `ops` counts replicates (simulations) or `estimate` calls, `reps` the
    replicates (0 for `estimate`) and `calls` the CLI calls.
    """
    spans = tracer.spans
    n = len(spans)
    dur = np.array([s[2] - s[1] for s in spans]) if n else np.zeros(0)
    parent = np.array([s[3] for s in spans], dtype=np.int64) if n else np.zeros(0, np.int64)
    names = np.array([s[0] for s in spans], dtype=object)
    child_time = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child_time, parent[has_parent], dur[has_parent])
    self_time = dur - child_time
    by_name: dict[str, np.ndarray] = defaultdict(list)
    for i, nm in enumerate(names):
        by_name[nm].append(i)
    by_name = {k: np.asarray(v) for k, v in by_name.items()}

    def idx(name):
        return by_name.get(name, np.zeros(0, dtype=np.int64))

    def count(name):
        return len(idx(name))

    def total(name):
        return float(dur[idx(name)].sum())

    def per_call(name, scale):
        c = count(name)
        return total(name) * scale / c if c else 0.0

    def outermost(family) -> np.ndarray:
        """Spans named in `family` with no enclosing span in `family`."""
        inside = np.zeros(n, dtype=bool)
        keep = np.zeros(n, dtype=bool)
        fam = set(family)
        for i in range(n):
            p = parent[i]
            anc = p >= 0 and (inside[p] or names[p] in fam)
            inside[i] = anc
            keep[i] = names[i] in fam and not anc
        return keep

    op_time = total("cli.main")

    # divide rather than multiply by a reciprocal, so that a count per op
    # reads the same whatever the number of calls the phase fitted
    def per_op(x):
        return x / ops if ops else 0.0

    def per_rep(x):
        return x / reps if reps else 0.0

    m: dict[str, float] = {}

    rep_ms = np.array([(e - s) * 1e3 for _b, s, e, _o in tracer.replicate_spans()])
    m["sim.replicate_ms_p50"] = float(np.percentile(rep_ms, 50)) if rep_ms.size else 0.0
    m["sim.replicate_ms_p99"] = float(np.percentile(rep_ms, 99)) if rep_ms.size else 0.0
    sim_self = float(self_time[np.char.startswith(names.astype(str), "sim.")].sum()) if n else 0.0
    m["sim.self_ms_per_rep"] = per_rep(sim_self * 1e3)
    m["sim.generate_scenario.ms_per_call"] = per_call("sim.generate_scenario", 1e3)
    m["sim.aggregate.ms"] = total("sim._aggregate") * 1e3 / calls if calls else 0.0

    m["rng.stream.calls_per_rep"] = per_rep(count("rng.stream"))
    m["rng.stream.us_per_call"] = per_call("rng.stream", 1e6)

    rows = sum(tracer.results[i] for i in idx("data.load_dataset") if i in tracer.results)
    load_s = total("data.load_dataset")
    m["data.load_dataset.ms_per_call"] = per_call("data.load_dataset", 1e3)
    m["data.rows_ingested_per_s"] = rows / load_s if load_s else 0.0
    m["data.from_arrays.us_per_call"] = per_call("data.CombinedDataset.from_arrays", 1e6)
    m["data.compute_design_counts.us_per_call"] = per_call("data.compute_design_counts", 1e6)
    m["data.rct_mask.calls_per_rep"] = per_rep(count("data.CombinedDataset.rct_mask"))

    m["estimators.pooled_cell_variance.calls_per_rep"] = per_rep(
        count("estimators._pooled_cell_variance"))
    m["estimators.pooled_cell_variance.ms_per_rep"] = per_rep(
        total("estimators._pooled_cell_variance") * 1e3)
    dm = outermost(("estimators.diff_means_overall", "estimators.diff_means_pooled_subgroups",
                    "estimators._diff_means_rct_subgroups", "estimators.oracle_subgroups"))
    m["estimators.diff_means.ms_per_rep"] = per_rep(float(dur[dm].sum()) * 1e3)
    m["estimators.logistic_marginal_effects.calls_per_op"] = per_op(
        count("estimators.logistic_marginal_effects"))
    m["estimators.logistic_marginal_effects.ms_per_call"] = per_call(
        "estimators.logistic_marginal_effects", 1e3)
    m["estimators.fit_propensity.ms_per_call"] = per_call("estimators.fit_propensity", 1e3)
    m["estimators.logistic_overall_effect.ms_per_call"] = per_call(
        "estimators.logistic_overall_effect", 1e3)

    fits = idx("glm.fit_logistic_irls")
    evals = np.zeros(n, dtype=np.int64)
    loglik = idx("glm._loglik")
    np.add.at(evals, parent[loglik], 1)
    iters = steps_tried = design_bytes = 0
    for i in fits:
        info = tracer.results.get(i)
        if info is None:  # the fit raised; its evaluations still count
            continue
        it, rows_i, cols_i = info
        iters += it
        steps_tried += evals[i] - 1
        design_bytes += rows_i * cols_i * 8 * evals[i]
    m["glm.fit_logistic_irls.calls_per_op"] = per_op(len(fits))
    m["glm.fit_logistic_irls.ms_per_call"] = per_call("glm.fit_logistic_irls", 1e3)
    m["glm.fit_logistic_irls.frac"] = total("glm.fit_logistic_irls") / op_time if op_time else 0.0
    m["glm.irls_iterations_per_fit"] = iters / len(fits) if len(fits) else 0.0
    m["glm.loglik_evals_per_fit"] = len(loglik) / len(fits) if len(fits) else 0.0
    m["glm.irls_useful_step_ratio"] = iters / steps_tried if steps_tried else 0.0
    m["glm.irls_design_mb_per_op"] = per_op(int(design_bytes)) / 1e6
    m["glm.build_design.ms_per_call"] = per_call("glm.build_design", 1e3)

    m["harmonize.harmonize.calls_per_op"] = per_op(count("harmonize.harmonize"))
    m["harmonize.harmonize.us_per_call"] = per_call("harmonize.harmonize", 1e6)
    m["harmonize.bd_direction_glm.ms_per_call"] = per_call("harmonize.bd_direction_glm", 1e3)
    m["harmonize.limit_map_theta.calls_per_op"] = per_op(count("harmonize.limit_map_theta"))
    m["harmonize.build_limit_map_spec.ms_per_call"] = per_call(
        "harmonize.build_limit_map_spec", 1e3)
    m["harmonize.bd_fallbacks"] = float(fallbacks)

    m["intervals.bootstrap_interval.ms_per_call"] = per_call("intervals.bootstrap_interval", 1e3)
    m["intervals.model_params.us_per_call"] = per_call("intervals.SimpleModelParams.from_data", 1e6)
    m["intervals.rct_only_interval.us_per_call"] = per_call("intervals.rct_only_interval", 1e6)
    m["intervals.analytic.us_per_rep"] = per_rep(
        (total("harmonize.analytic_bias_variance") + total("intervals.analytic_interval")) * 1e6)
    m["bayes.cut.us_per_rep"] = per_rep(sum(
        total(k) for k in ("bayes.analyst1_posterior", "bayes.analyst2_posterior",
                           "bayes.cut_distribution", "intervals.cut_interval")) * 1e6)

    cli_self = float(self_time[np.char.startswith(names.astype(str), "cli.")].sum()) if n else 0.0
    write = outermost(STAGES["write"])
    m["cli.main.ms_per_call"] = per_call("cli.main", 1e3)
    m["cli.self_ms_per_call"] = cli_self * 1e3 / calls if calls else 0.0
    m["cli.write.ms_per_op"] = per_op(float(dur[write].sum()) * 1e3)
    m["cli.bytes_written_per_op"] = per_op(bytes_written)

    all_roots = {r: stage for stage, roots in STAGES.items() for r in roots}
    stage_keep = outermost(all_roots)
    stage_time = defaultdict(float)
    for i in np.flatnonzero(stage_keep):
        stage_time[all_roots[names[i]]] += dur[i]
    for stage in STAGES:
        m[f"stage.{stage}_frac"] = stage_time[stage] / op_time if op_time else 0.0
    return m
