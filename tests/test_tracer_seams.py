"""The benchmark's tracer patches `subharm` functions by name and finds each
replicate by its first traced span. A refactor that renames a traced
function, or hides the replicate marks, would leave the per-layer metrics
reading 0 while the smoke runs still pass; these tests fail instead."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from subharm import CsvSchema, generate_scenario, load_preset, save_dataset
from subharm.cli import main

TRACER_PY = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(tracer):
    for layer, names in tracer.TRACED.items():
        module = sys.modules[f"subharm.{layer}"]
        for dotted in names:
            owner, _, attr = dotted.rpartition(".")
            # `Tracer.install` reads the binding from the module's or the
            # class's own namespace
            scope = vars(getattr(module, owner)) if owner else vars(module)
            assert attr in scope, f"{layer}.{dotted}"


def traced_replicates(tracer, mark, argv):
    with tracer.Tracer(mark) as t:
        assert main(argv) == 0
    assert tracer.wrapped_bindings() == []
    return t.replicate_spans()


def test_simulate_marks_each_replicate(tracer, tmp_path):
    argv = ["simulate", "--preset", "fig1-s2", "--reps", "3", "--out-dir", str(tmp_path)]
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"intervals": ["analytic", "cut", "bootstrap", "rct_only"]}))
    spans = traced_replicates(tracer, "sim.generate_scenario",
                              [*argv, "--config", str(config)])
    assert len(spans) == 3


def assert_each_fit_follows_its_design(t):
    """Every logistic fit's span follows a `glm.build_design` span from the
    same caller; the fits' spans."""
    fit_spans = [i for i, span in enumerate(t.spans) if span[0] == "glm.fit_logistic_irls"]
    for i in fit_spans:
        parent = t.spans[i][3]
        before = [j for j in range(i) if t.spans[j][3] == parent]
        assert before and t.spans[before[-1]][0] == "glm.build_design", t.spans[i]
    return fit_spans


def test_logistic_simulate_marks_each_replicate(tracer, tmp_path):
    # fig5's covariates are frozen, so its replicates share one design;
    # each replicate still draws its outcomes through `generate_scenario`,
    # and each of its two logistic fits (pooled and trial-only) still
    # reads its design through `glm.build_design`
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"estimators": ["logistic_pooled", *(
        {"kind": "harmonized", "name": mode, "initial": "logistic_pooled",
         "overall": "logistic", "lambda": "full", "sigma_mode": mode} for mode in ("bd", "vd"))]}))
    with tracer.Tracer("sim.generate_scenario") as t:
        assert main(["simulate", "--preset", "fig5", "--reps", "3", "--config", str(config),
                     "--out-dir", str(tmp_path / "o")]) == 0
    assert tracer.wrapped_bindings() == []
    assert len(t.replicate_spans()) == 3
    assert len(assert_each_fit_follows_its_design(t)) == 2 * 3


def test_resample_marks_each_replicate(tracer, tmp_path):
    trial, ec = str(tmp_path / "t.csv"), str(tmp_path / "e.csv")
    save_dataset(generate_scenario(load_preset("gbm-like"), seed=20), trial, ec,
                 CsvSchema(covariates=("x1",)))
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"trial_csv": trial, "ec_csv": ec, "reps": 3,
                                  "schema": {"covariates": ["x1"]}}))
    spans = traced_replicates(tracer, "data.CombinedDataset.from_arrays",
                              ["resample", "--config", str(config), "--out-dir",
                               str(tmp_path / "o")])
    assert len(spans) == 3


def test_estimate_shows_each_logistic_fit(tracer, tmp_path):
    # a binary estimate fits four logistic models (trial-only, pooled, IPW
    # and propensity), each span carrying the design shape that the IRLS
    # layer metrics read, and each design made by `glm.build_design` just
    # before its fit, by the same caller
    ds = generate_scenario(load_preset("fig5"), seed=2)
    rct, ec = str(tmp_path / "r.csv"), str(tmp_path / "e.csv")
    save_dataset(ds, rct, ec, CsvSchema(covariates=("x1",)))
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "rct_csv": rct, "ec_csv": ec, "outcome_family": "binary",
        "schema": {"covariates": ["x1"]},
        "estimators": ["logistic_pooled", "logistic_rct", "logistic_ipw", {
            "kind": "harmonized", "name": "bd", "initial": "logistic_pooled",
            "overall": "logistic", "lambda": "full", "sigma_mode": "bd"}],
        "intervals": ["rct_only"], "out_dir": str(tmp_path / "o")}))
    with tracer.Tracer("cli.main") as t:
        assert main(["estimate", "--config", str(config)]) == 0
    assert tracer.wrapped_bindings() == []
    fit_spans = assert_each_fit_follows_its_design(t)
    k, d, n = ds.k, ds.d, ds.n_rct + ds.n_ec
    assert sorted(t.results[i][1:] for i in fit_spans) == sorted(
        [(ds.n_rct, 2 * k + d), (n, 2 * k + d), (n, 2 * k + d), (n, k + d)])


CLOSED_FORM_CUT = ("the cut interval takes the closed form of bayes.flat_cut_design "
                   "and FlatCutDesign.mean")
# The traced names that no command enters, each with its reason. The check
# is two-sided: a name that turns live, or a traced name that turns dead,
# fails it, so the set shrinks with `TRACED` and grows with a refactor
# that routes a command around a traced function.
NEVER_ENTERED = {
    "sim._ReplicateContext.bd_sigma": "bd resolves to its unit direction; no command "
                                      "builds a bd matrix",
    "harmonize.solve_sigma_from_b": "the bd matrix itself, read only by bd_sigma",
    "bayes.analyst1_posterior": CLOSED_FORM_CUT,
    "bayes.analyst2_posterior": CLOSED_FORM_CUT,
    "bayes.cut_distribution": CLOSED_FORM_CUT,
    "harmonize.limit_map_theta": "the refitting oracle of bd_direction_glm: a command "
                                 "that entered it would refit",
    "data.save_dataset": "writes CSV inputs, which no command does",
}


def harmonized(name, initial, overall, mode, lam="full", **fields):
    return {"kind": "harmonized", "name": name, "initial": initial, "overall": overall,
            "lambda": lam, "sigma_mode": mode, **fields}


def test_traced_names_are_live(tracer, tmp_path):
    # six 3-replicate calls that cover every command, pipeline and interval
    # method; `cli.main` is called through its module, where it is wrapped
    import subharm.cli as cli

    def config(name, obj):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        return ["--config", str(path), "--out-dir", str(tmp_path / name)]

    def csv_pair(name, preset, seed):
        rct, ec = str(tmp_path / f"{name}_r.csv"), str(tmp_path / f"{name}_e.csv")
        ds = generate_scenario(load_preset(preset), seed=seed)
        covariates = [f"x{j + 1}" for j in range(ds.d)]
        save_dataset(ds, rct, ec, CsvSchema(covariates=tuple(covariates)))
        return rct, ec, {"covariates": covariates}

    all_intervals = ["analytic", "cut", "bootstrap", "rct_only"]
    simulate = ["simulate", "--reps", "3"]
    fig4 = [*simulate, "--preset", "fig4", *config("fig4", {"estimators": [
        "ols_pooled", "ols_rct", harmonized("bd", "ols_pooled", "ols", "bd"),
        harmonized("vd", "ols_pooled", "ols", "vd"),
        harmonized("fixed", "ols_pooled", "ols", "fixed", 2, sigma=np.eye(10).tolist())]})]
    fig5 = [*simulate, "--preset", "fig5", *config("fig5", {"estimators": [
        "logistic_pooled", "logistic_ipw", "logistic_rct",
        harmonized("bd", "logistic_pooled", "logistic", "bd"),
        harmonized("vd", "logistic_pooled", "logistic", "vd"),
        harmonized("ipw_bd", "logistic_ipw", "logistic", "bd", 2)]})]
    trial, ec, schema = csv_pair("pools", "gbm-like", 20)
    resample = ["resample", *config("resample", {"trial_csv": trial, "ec_csv": ec, "reps": 3,
                                                 "schema": schema, "spike": 0.05})]
    rct, ec, schema = csv_pair("binary", "fig5", 2)
    binary = ["estimate", *config("binary", {
        "rct_csv": rct, "ec_csv": ec, "schema": schema, "outcome_family": "binary",
        "estimators": [harmonized("ipw_bd", "logistic_ipw", "logistic", "bd")],
        "intervals": ["rct_only"]})]
    rct, ec, schema = csv_pair("continuous", "fig1-s2", 2)
    continuous = ["estimate", *config("continuous", {
        "rct_csv": rct, "ec_csv": ec, "schema": schema, "intervals": all_intervals})]
    fig1 = [*simulate, "--preset", "fig1-s2", *config("fig1", {"intervals": all_intervals})]
    with tracer.Tracer("cli.main") as t:
        for argv in (fig1, fig4, fig5, resample, binary, continuous):
            assert cli.main(argv) == 0, argv
    assert tracer.wrapped_bindings() == []
    traced = {f"{layer}.{name}" for layer, names in tracer.TRACED.items() for name in names}
    assert traced - {span[0] for span in t.spans} == set(NEVER_ENTERED)
