"""The README's Python examples, run in order as one script on CSV pairs
written to a temporary directory under the file names they read."""

import re
from dataclasses import replace
from pathlib import Path

import numpy as np

from subharm import CsvSchema, ScenarioSpec, generate_scenario, save_dataset

README = Path(__file__).resolve().parents[1] / "README.md"
SCHEMA = CsvSchema(outcome="y", treatment="arm", subgroup="grp", covariates=("age",))
CONTINUOUS_PAIR = ScenarioSpec(
    name="readme", outcome_family="continuous", k=3, n_rct_treated=(20, 25, 30),
    n_rct_control=(20, 25, 30), n_ec=(60, 70, 80), mu=(0.0, 0.2, 0.4),
    theta=(0.5, 0.5, 0.5), distortion=(0.3, 0.3, 0.3), n_covariates=1, beta=(0.4,))
BINARY_PAIR = replace(CONTINUOUS_PAIR, outcome_family="binary", mu=(-0.5, -0.3, 0.0))


def python_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_python_blocks_run_in_order(tmp_path, monkeypatch):
    save_dataset(generate_scenario(CONTINUOUS_PAIR, seed=1), str(tmp_path / "rct.csv"),
                 str(tmp_path / "ec.csv"), SCHEMA)
    save_dataset(generate_scenario(BINARY_PAIR, seed=2), str(tmp_path / "rct_binary.csv"),
                 str(tmp_path / "ec_binary.csv"), SCHEMA)
    monkeypatch.chdir(tmp_path)
    blocks = python_blocks()
    assert len(blocks) == 3
    names: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), names)
    # both harmonized examples are full harmonization: pi'v = r
    assert abs(names["dc"].pi @ names["result"].theta_k - names["overall"]) <= 1e-10
    overall = names["sh"].logistic_overall_effect(names["bin_ds"])
    assert abs(names["bin_dc"].pi @ names["out"].theta_k - overall) <= 1e-10
    np.testing.assert_array_equal(names["iv"].point, names["result"].theta_k)


FILE_SUFFIXES = {"csv", "json", "toml", "md", "py"}


def code_names() -> set[str]:
    """Every `<module>.<name>` of a subharm module, with or without the
    `subharm.` prefix, every `subharm.<module>`, and every `ctx.<method>`
    in the README's inline code spans, file names such as `intervals.csv`
    aside."""
    import pkgutil

    import subharm

    modules = "|".join(m.name for m in pkgutil.iter_modules(subharm.__path__))
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    pattern = re.compile(rf"(?<![\w.])(subharm(?:\.\w+)+|(?:{modules})(?:\.\w+)+|ctx\.\w+)")
    return {name for span in re.findall(r"`([^`]+)`", text) for name in pattern.findall(span)
            if name.rsplit(".", 1)[1] not in FILE_SUFFIXES}


def test_code_names_resolve():
    import importlib

    from subharm.sim import _ReplicateContext

    names = code_names()
    assert {"sim._ReplicateContext", "ctx.harmonized", "subharm.intervals.interval"} <= names
    stale = []
    for name in sorted(names):
        first, *rest = name.removeprefix("subharm.").split(".")
        if first == "ctx":
            owner = _ReplicateContext
        else:
            owner = importlib.import_module(f"subharm.{first}")
        for attr in rest:
            owner = getattr(owner, attr, None)
        if owner is None:
            stale.append(name)
    assert stale == []
