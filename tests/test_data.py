import csv
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subharm import (
    CombinedDataset,
    CsvSchema,
    compute_design_counts,
    load_dataset,
    save_dataset,
)
from subharm.errors import (
    ConfigError,
    DataError,
    DimensionMismatch,
    EcTreatedPatient,
    EmptySubgroupError,
    MalformedRow,
    UnknownSubgroup,
)

from subharm.data import CellStats

from conftest import balanced_dataset


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


@pytest.fixture
def csv_pair(tmp_path):
    rct = tmp_path / "rct.csv"
    ec = tmp_path / "ec.csv"
    write_csv(rct, ["y", "arm", "grp", "age"], [
        (1.5, 1, "a", 0.3), (0.5, 0, "a", -0.2),
        (2.5, 1, "b", 1.1), (1.0, 0, "b", 0.0),
    ])
    write_csv(ec, ["y", "arm", "grp", "age"], [
        (0.7, 0, "a", 0.1), (1.2, 0, "b", -0.5), (0.9, 0, "b", 0.4),
    ])
    return str(rct), str(ec)


SCHEMA = CsvSchema(outcome="y", treatment="arm", subgroup="grp", covariates=("age",))


class TestLoad:
    def test_round_trip_counts(self, csv_pair):
        ds = load_dataset(*csv_pair, SCHEMA)
        assert ds.k == 2 and ds.d == 1
        assert ds.n_rct == 4 and ds.n_ec == 3
        assert ds.subgroup_labels == ("a", "b")
        dc = compute_design_counts(ds)
        assert dc.counts.sum() == 7
        assert dc.counts[0, 1, 0] == 1 and dc.counts[1, 0, 1] == 2

    def test_serialize_round_trip(self, csv_pair, tmp_path):
        ds = load_dataset(*csv_pair, SCHEMA)
        r2, e2 = str(tmp_path / "r2.csv"), str(tmp_path / "e2.csv")
        save_dataset(ds, r2, e2, SCHEMA)
        ds2 = load_dataset(r2, e2, SCHEMA)
        assert ds2.n_rct == ds.n_rct and ds2.n_ec == ds.n_ec
        np.testing.assert_array_equal(ds2.y_rct, ds.y_rct)
        np.testing.assert_array_equal(ds2.t_rct, ds.t_rct)
        np.testing.assert_array_equal(ds2.x_ec, ds.x_ec)

    def test_ec_treated_patient(self, tmp_path, csv_pair):
        ec_bad = tmp_path / "ec_bad.csv"
        write_csv(ec_bad, ["y", "arm", "grp", "age"], [(0.7, 1, "a", 0.1)])
        with pytest.raises(EcTreatedPatient):
            load_dataset(csv_pair[0], str(ec_bad), SCHEMA)

    def test_unknown_subgroup(self, csv_pair):
        with pytest.raises(UnknownSubgroup):
            load_dataset(*csv_pair, SCHEMA, subgroup_levels=["a"])

    def test_declared_levels_accept_superset(self, csv_pair):
        ds = load_dataset(*csv_pair, SCHEMA, subgroup_levels=["a", "b", "c", "d"])
        assert ds.k == 4

    def test_malformed_cell(self, tmp_path, csv_pair):
        bad = tmp_path / "bad.csv"
        write_csv(bad, ["y", "arm", "grp", "age"], [("oops", 1, "a", 0.1)])
        with pytest.raises(MalformedRow):
            load_dataset(str(bad), csv_pair[1], SCHEMA)

    def test_missing_covariate_cell_is_hard_error(self, tmp_path, csv_pair):
        bad = tmp_path / "bad.csv"
        write_csv(bad, ["y", "arm", "grp", "age"], [(1.0, 1, "a", "")])
        with pytest.raises(MalformedRow):
            load_dataset(str(bad), csv_pair[1], SCHEMA)

    def test_missing_column(self, tmp_path, csv_pair):
        bad = tmp_path / "bad.csv"
        write_csv(bad, ["y", "arm", "grp"], [(1.0, 1, "a")])
        with pytest.raises(MalformedRow):
            load_dataset(str(bad), csv_pair[1], SCHEMA)

    @pytest.mark.parametrize("study", [0, 1], ids=["rct", "ec"])
    def test_byte_order_mark_is_ignored(self, tmp_path, csv_pair, study):
        # spreadsheet exports often start UTF-8 text with EF BB BF
        paths = list(csv_pair)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(paths[study]).read_bytes())
        paths[study] = str(marked)
        got, want = load_dataset(*paths, SCHEMA), load_dataset(*csv_pair, SCHEMA)
        assert got.subgroup_labels == want.subgroup_labels
        for name in ("y_rct", "t_rct", "w_rct", "x_rct", "y_ec", "w_ec", "x_ec"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name

    def test_lexicographic_mapping(self, tmp_path):
        rct = tmp_path / "r.csv"
        ec = tmp_path / "e.csv"
        write_csv(rct, ["y", "arm", "grp"], [
            (1, 1, "MGMT-pos"), (0, 0, "MGMT-pos"), (1, 1, "MGMT-neg"), (0, 0, "MGMT-neg")])
        write_csv(ec, ["y", "arm", "grp"], [(1, 0, "MGMT-neg")])
        schema = CsvSchema(outcome="y", treatment="arm", subgroup="grp")
        ds = load_dataset(str(rct), str(ec), schema)
        assert ds.subgroup_labels == ("MGMT-neg", "MGMT-pos")


    def test_blank_lines_skipped_and_not_counted(self, tmp_path, csv_pair):
        rct = tmp_path / "blank.csv"
        rct.write_text("y,arm,grp,age\n1.5,1,a,0.3\n\n0.5,0,a,-0.2\n\n"
                       "2.5,1,b,1.1\n1.0,0,b,0.0\n")
        ds = load_dataset(str(rct), csv_pair[1], SCHEMA)
        np.testing.assert_array_equal(ds.y_rct, [1.5, 0.5, 2.5, 1.0])
        assert ds.x_rct.flags["C_CONTIGUOUS"] and ds.x_rct.shape == (4, 1)
        rct.write_text("y,arm,grp,age\n1.5,1,a,0.3\n\n0.5,0,a,oops\n")
        with pytest.raises(MalformedRow, match=rf"{rct}:3: cannot parse 'age'"):
            load_dataset(str(rct), csv_pair[1], SCHEMA)

    @pytest.mark.parametrize("row,fields", [("1.0,1,a", 3), ("1.0,1,a,0.1,7", 5)])
    def test_row_width_must_match_header(self, tmp_path, csv_pair, row, fields):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"y,arm,grp,age\n0.5,0,a,0.2\n{row}\n")
        with pytest.raises(MalformedRow, match=rf"{bad}:3: {fields} fields where the header has 4"):
            load_dataset(str(bad), csv_pair[1], SCHEMA)

    @pytest.mark.parametrize("row", ["1.0,1,a,0.1", "1.0,1,a,0.1,7,8"])
    def test_ragged_row_beside_an_unused_column(self, tmp_path, csv_pair, row):
        # every header column is read, so a row that still covers the
        # schema's columns fails on its width
        bad = tmp_path / "bad.csv"
        bad.write_text(f"y,arm,grp,age,note\n0.5,0,a,0.2,n\n{row}\n")
        fields = row.count(",") + 1
        with pytest.raises(MalformedRow, match=rf"{bad}:3: {fields} fields where the header has 5"):
            load_dataset(str(bad), csv_pair[1], SCHEMA)

    def test_header_only_ec_file_warns_nothing(self, tmp_path, csv_pair, capsys):
        from subharm.cli import main

        ec = tmp_path / "ec.csv"
        ec.write_text("y,arm,grp,age\n")
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "rct_csv": csv_pair[0], "ec_csv": str(ec), "out_dir": str(tmp_path / "o"),
            "schema": {"outcome": "y", "treatment": "arm", "subgroup": "grp",
                       "covariates": ["age"]}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = load_dataset(csv_pair[0], str(ec), SCHEMA)
            assert ds.n_ec == 0 and ds.x_ec.shape == (0, 1) and ds.k == 2
            assert main(["estimate", "--config", str(config)]) == 3
        assert json.loads(capsys.readouterr().err.splitlines()[-1]) == {
            "error": "MissingCovariance",
            "message": "variance-directed harmonization needs the initial estimate's covariance"}

    @pytest.mark.parametrize("cell", ["1_0", "\u0661", "1.\u0665"])
    def test_numbers_must_be_ascii_decimal_literals(self, tmp_path, csv_pair, cell):
        # float() reads these, the C reader does not
        bad = tmp_path / "bad.csv"
        bad.write_text(f"y,arm,grp,age\n0.5,0,a,0.2\n{cell},1,a,0.3\n", encoding="utf-8")
        with pytest.raises(MalformedRow,
                           match=rf"{bad}:3: 'y' value '{cell}' is not an ASCII decimal literal"):
            load_dataset(str(bad), csv_pair[1], SCHEMA)

    @pytest.mark.parametrize("schema", [
        dict(outcome="y", treatment="y"), dict(subgroup="grp", covariates=["grp"]),
        dict(covariates=["age", "age"])])
    def test_schema_roles_need_distinct_columns(self, schema):
        with pytest.raises(ConfigError, match="more than one role to column"):
            CsvSchema.from_dict({"outcome": "y", "treatment": "arm", "subgroup": "grp",
                                 **schema})

    def test_first_bad_row_is_reported(self, tmp_path, csv_pair):
        bad = tmp_path / "bad.csv"
        write_csv(bad, ["y", "arm", "grp", "age"], [
            (1.0, 1, "a", 0.1), (1.0, 2, "a", 0.1), ("x", 1, "a", 0.1)])
        with pytest.raises(MalformedRow, match=rf"{bad}:3: treatment must be 0 or 1"):
            load_dataset(str(bad), csv_pair[1], SCHEMA)


class TestRecords:
    def test_ragged_covariates(self):
        with pytest.raises(DimensionMismatch, match="x_rct is ragged"):
            CombinedDataset.from_arrays(y_rct=np.zeros(2), t_rct=[1, 0], w_rct=[0, 0],
                                        y_ec=[], w_ec=[], k=1, x_rct=[[0.1, 0.2], [0.1]])
        with pytest.raises(DimensionMismatch, match="x_ec has 1 covariate columns where x_rct has 2"):
            CombinedDataset.from_arrays(y_rct=np.zeros(2), t_rct=[1, 0], w_rct=[0, 0],
                                        y_ec=np.zeros(1), w_ec=[0], k=1,
                                        x_rct=np.zeros((2, 2)), x_ec=np.zeros((1, 1)))

    def test_binary_family_checks_outcomes(self):
        with pytest.raises(MalformedRow):
            CombinedDataset.from_arrays(y_rct=[0.5], t_rct=[1], w_rct=[0], y_ec=[],
                                        w_ec=[], k=1, outcome_family="binary")

    def test_array_treatment_outside_0_1(self):
        for t in (np.array([0, 2]), np.array([0.5, 1.0])):  # a cast would truncate 0.5
            with pytest.raises(MalformedRow):
                CombinedDataset.from_arrays(y_rct=np.zeros(2), t_rct=t,
                                            w_rct=np.zeros(2, int), y_ec=np.zeros(0),
                                            w_ec=np.zeros(0, int), k=1)

    @pytest.mark.parametrize("name,value", [("w_rct", [0.0, 0.5, 1.0, 1.0]),
                                            ("w_ec", [0, 1.7])])
    def test_from_arrays_rejects_fractional_subgroups(self, name, value):
        # a cast would truncate 0.5 to 0 and 1.7 to 1
        arrays = dict(y_rct=np.zeros(4), t_rct=[1, 0, 1, 0], w_rct=[0.0, 0.0, 1.0, 1.0],
                      y_ec=np.zeros(2), w_ec=[0, 1])
        assert CombinedDataset.from_arrays(k=2, **arrays).w_rct.dtype == np.int64
        arrays[name] = value
        with pytest.raises(MalformedRow, match=f"{name} holds a non-integral"):
            CombinedDataset.from_arrays(k=2, **arrays)

    @pytest.mark.parametrize("name,value", [
        ("t_rct", [1, 0, 1]),
        ("w_rct", [0, 0, 1, 1, 1]),
        ("w_ec", [0]),
        ("y_rct", np.zeros((4, 1))),
        ("x_rct", np.zeros((3, 2))),
        ("x_ec", np.zeros((3, 2))),
        ("x_ec", np.zeros((2, 3))),
        ("x_rct", None),
    ], ids=["t_rct-short", "w_rct-long", "w_ec-short", "y_rct-matrix", "x_rct-rows",
            "x_ec-rows", "x_ec-width", "x_ec-without-x_rct"])
    def test_from_arrays_rejects_mismatched_shapes(self, name, value):
        arrays = dict(y_rct=np.zeros(4), t_rct=[1, 0, 1, 0], w_rct=[0, 0, 1, 1],
                      y_ec=np.zeros(2), w_ec=[0, 1], x_rct=np.zeros((4, 2)),
                      x_ec=np.zeros((2, 2)))
        arrays[name] = value
        with pytest.raises(DimensionMismatch, match="x_ec" if value is None else name):
            CombinedDataset.from_arrays(k=2, **arrays)

    @pytest.mark.parametrize("name", ["y_rct", "x_rct", "y_ec", "x_ec"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_from_arrays_rejects_non_finite(self, name, value):
        arrays = dict(y_rct=np.zeros(4), t_rct=[1, 0, 1, 0], w_rct=[0, 0, 1, 1],
                      y_ec=np.zeros(2), w_ec=[0, 1], x_rct=np.zeros((4, 2)),
                      x_ec=np.zeros((2, 2)))
        arrays[name][1] = value
        with pytest.raises(MalformedRow, match=f"non-finite value in {name}"):
            CombinedDataset.from_arrays(k=2, **arrays)


class TestWithOutcomes:
    """`with_outcomes` keeps the design and what is built from it alone,
    and checks the new outcomes as `from_arrays` does."""

    @staticmethod
    def pair(family="continuous"):
        ds = balanced_dataset(k=3, d=1, beta=(0.4,), family=family, seed=1)
        other = balanced_dataset(k=3, d=1, beta=(0.4,), family=family, seed=2)
        return ds, CombinedDataset.from_arrays(
            y_rct=other.y_rct, t_rct=ds.t_rct, w_rct=ds.w_rct, y_ec=other.y_ec, w_ec=ds.w_ec,
            k=3, x_rct=ds.x_rct, x_ec=ds.x_ec, outcome_family=family)

    @pytest.mark.parametrize("family", ["continuous", "binary"])
    def test_shares_the_design_but_not_the_cell_stats(self, family):
        ds, fresh = self.pair(family)
        built = (ds.cell_stats, ds.cell_design, ds.rct_subgroups, ds.limit_map_layout)
        other = ds.with_outcomes(fresh.y_rct, fresh.y_ec)
        for name in ("k", "d", "outcome_family", "subgroup_labels", "t_rct", "w_rct",
                     "x_rct", "w_ec", "x_ec"):
            assert getattr(other, name) is getattr(ds, name)
        assert other.cell_design is built[1] and other.rct_subgroups is built[2]
        assert other.limit_map_layout is built[3]
        assert other.cell_stats is not built[0]
        want = CellStats.from_dataset(fresh)
        for name in ("n", "total", "mean", "ss"):
            np.testing.assert_array_equal(getattr(other.cell_stats, name), getattr(want, name))
        for column in (other.y_rct, other.y_ec):
            assert not column.flags.writeable

    @pytest.mark.parametrize("study, value, family", [
        ("rct", np.nan, "continuous"), ("ec", np.inf, "continuous"), ("rct", 0.5, "binary")],
        ids=["nan", "inf", "not-binary"])
    def test_outcomes_checked_as_from_arrays_checks_them(self, study, value, family):
        ds, _ = self.pair(family)
        y = {"rct": ds.y_rct.copy(), "ec": ds.y_ec.copy()}
        y[study][0] = value
        with pytest.raises(MalformedRow) as got:
            ds.with_outcomes(y["rct"], y["ec"])
        with pytest.raises(MalformedRow) as want:
            CombinedDataset.from_arrays(
                y_rct=y["rct"], t_rct=ds.t_rct, w_rct=ds.w_rct, y_ec=y["ec"], w_ec=ds.w_ec,
                k=3, x_rct=ds.x_rct, x_ec=ds.x_ec, outcome_family=family)
        assert str(got.value) == str(want.value)

    def test_outcomes_keep_the_design_length(self):
        ds, _ = self.pair()
        with pytest.raises(DimensionMismatch, match="y_rct"):
            ds.with_outcomes(ds.y_rct[1:], ds.y_ec)


class TestDesignCounts:
    def test_empirical_prevalences(self):
        # subgroup 1 has more RCT patients than subgroup 2
        ds = CombinedDataset.from_arrays(
            y_rct=np.zeros(10), t_rct=np.r_[np.ones(5), np.zeros(5)].astype(int),
            w_rct=np.array([0, 0, 0, 1, 1, 0, 0, 0, 1, 1]),
            y_ec=np.zeros(2), w_ec=np.array([0, 1]), k=2)
        dc = compute_design_counts(ds)
        np.testing.assert_allclose(dc.pi, [0.6, 0.4])
        assert abs(dc.pi.sum() - 1.0) == 0.0

    def test_q_ratio_fig1_design(self):
        # 50 RCT controls and 500 EC per subgroup
        k = 10
        ds = CombinedDataset.from_arrays(
            y_rct=np.zeros(k * 100),
            t_rct=np.tile(np.r_[np.ones(50, dtype=int), np.zeros(50, dtype=int)], k),
            w_rct=np.repeat(np.arange(k), 100),
            y_ec=np.zeros(k * 500), w_ec=np.repeat(np.arange(k), 500), k=k)
        dc = compute_design_counts(ds)
        np.testing.assert_allclose(dc.q_ratio, 500 / 550)
        assert dc.q_bar == pytest.approx(500 / 550, abs=1e-12)

    def test_zero_ec_subgroup(self):
        ds = CombinedDataset.from_arrays(
            y_rct=np.zeros(6), t_rct=np.array([1, 0, 1, 0, 1, 0]),
            w_rct=np.array([0, 0, 1, 1, 2, 2]),
            y_ec=np.zeros(2), w_ec=np.array([0, 1]), k=3)
        dc = compute_design_counts(ds)
        assert dc.q_ratio[2] == 0.0
        assert dc.q_bar == pytest.approx(dc.pi @ dc.q_ratio)

    def test_totals_match(self):
        ds = balanced_dataset(k=3, n_t=4, n_c=5, n_e=7)
        dc = compute_design_counts(ds)
        assert dc.counts[:, 1, 0].sum() == 12
        assert dc.counts[:, 0, 0].sum() == 15
        assert dc.counts[:, 0, 1].sum() == 21
        assert dc.counts[:, 1, 1].sum() == 0

    def test_user_prevalences(self):
        ds = balanced_dataset(k=2, n_t=2, n_c=2, n_e=2)
        dc = compute_design_counts(ds, [0.3, 0.7])
        np.testing.assert_allclose(dc.pi, [0.3, 0.7])
        assert dc.prevalence_source == "user_supplied"
        with pytest.raises(DataError):
            compute_design_counts(ds, [0.5, 0.6])
        with pytest.raises(DataError):
            compute_design_counts(ds, [1.0, 0.0])

    @pytest.mark.parametrize("prevalences", [
        ["a", 0.5], "abc", {"a": 1}, [0.5, None], np.array([True])])
    def test_non_numeric_prevalences(self, prevalences):
        # each raised a ValueError or TypeError; a boolean read as 1
        k = np.size(prevalences) if isinstance(prevalences, np.ndarray) else 2
        ds = balanced_dataset(k=k, n_t=2, n_c=2, n_e=2)
        with pytest.raises(DataError, match="prevalences must be numbers"):
            compute_design_counts(ds, prevalences)

    def test_empty_pooled_control_subgroup(self):
        ds = CombinedDataset.from_arrays(
            y_rct=np.zeros(4), t_rct=np.array([1, 0, 1, 1]),
            w_rct=np.array([0, 0, 1, 1]),
            y_ec=np.zeros(1), w_ec=np.array([0]), k=2)
        with pytest.raises(EmptySubgroupError):
            compute_design_counts(ds)


# --- differential test against a `csv`-module reader --------------------------

def _ref_parse_cell(raw, kind, path, line, column):
    raw = raw.strip()
    if raw == "":
        raise MalformedRow(f"{path}:{line}: empty {column!r} cell")
    try:
        value = float(raw) if kind == "float" else int(raw)
    except ValueError:
        raise MalformedRow(
            f"{path}:{line}: cannot parse {column!r} value {raw!r}") from None
    if kind == "float" and not math.isfinite(value):
        raise MalformedRow(f"{path}:{line}: non-finite {column!r} value {raw!r}")
    return value


def _ref_read_columns(path, schema, study):
    """Every row through `csv.reader`, every cell through float() or int()."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise MalformedRow(f"{path}: empty file (header row required)")
        needed = [schema.outcome, schema.treatment, schema.subgroup, *schema.covariates]
        missing = [c for c in needed if c not in header]
        if missing:
            raise MalformedRow(f"{path}: missing columns {missing}")
        rows = list(filter(None, reader))
    col = {name: i for i, name in enumerate(header)}
    for line, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise MalformedRow(
                f"{path}:{line}: {len(row)} fields where the header has {len(header)}")
        _ref_parse_cell(row[col[schema.outcome]], "float", path, line, schema.outcome)
        treatment = _ref_parse_cell(row[col[schema.treatment]], "int", path, line,
                                    schema.treatment)
        if treatment not in (0, 1):
            raise MalformedRow(f"{path}:{line}: treatment must be 0 or 1")
        if study == "EC" and treatment == 1:
            raise EcTreatedPatient(f"{path}:{line}: external-control row with treatment = 1")
        if row[col[schema.subgroup]].strip() == "":
            raise MalformedRow(f"{path}:{line}: empty subgroup cell")
        for c in schema.covariates:
            _ref_parse_cell(row[col[c]], "float", path, line, c)
    y = np.array([float(r[col[schema.outcome]]) for r in rows])
    t = np.array([int(r[col[schema.treatment]]) for r in rows], dtype=np.int64)
    x = np.array([[float(r[col[c]]) for c in schema.covariates] for r in rows])
    labels = [r[col[schema.subgroup]].strip() for r in rows]
    return y, t, labels, x.reshape(len(rows), len(schema.covariates))


def reference_load(rct_csv, ec_csv, schema, subgroup_levels=None):
    y_r, t_r, labels_r, x_r = _ref_read_columns(rct_csv, schema, "RCT")
    y_e, _t_e, labels_e, x_e = _ref_read_columns(ec_csv, schema, "EC")
    if subgroup_levels is not None:
        labels = [str(v) for v in subgroup_levels]
    else:
        labels = sorted(set(labels_r) | set(labels_e))
    index = {lab: i for i, lab in enumerate(labels)}

    def codes(found):
        try:
            return np.array([index[lab] for lab in found], dtype=np.int64)
        except KeyError as exc:
            raise UnknownSubgroup(
                f"subgroup label {exc.args[0]!r} not among declared levels {labels}") from None

    return CombinedDataset.from_arrays(
        y_rct=y_r, t_rct=t_r, w_rct=codes(labels_r), y_ec=y_e, w_ec=codes(labels_e),
        k=len(labels), x_rct=x_r, x_ec=x_e, subgroup_labels=labels)


# each cell draws from its column's first pool, and one time in 40 from
# its second, whose cells the readers reject or part on
CELLS = {
    "y": (["0", "1", "1.5", " 2 ", "-0.25", "+1", "01", "1e-3", "1.0", "\u00a01\u00a0"],
          ["", " ", "x", "0x1", "1e400", "nan", "inf", "-Infinity", "1_0", "\u0661"]),
    "arm": (["0", "1", " 0 ", "+1"], ["2", "1.0", "", "99999999999999999999", "1_0"]),
    "grp": (["a", " a ", "b", "a b", "\u00e9", "x,y", 'q"t', "two\nlines", "a\x00"],
            ["", " "]),
}
CELLS["age"] = CELLS["y"]
CELLS["note"] = (CELLS["grp"][0] + CELLS["y"][1], [""])


def _field(draw, value):
    """`value` as a CSV field: quoted with doubled quotes where it needs it,
    and at random where it does not."""
    if any(c in value for c in ',"\n\r') or draw(st.integers(0, 4)) == 0:
        return '"' + value.replace('"', '""') + '"'
    return value


@st.composite
def csv_text(draw, ec=False):
    """A CSV file over the columns y, arm, grp and age, with an unused
    column, sometimes a duplicate header name, blank and whitespace-only
    lines, ragged rows and cells of every kind. External-control files
    draw treatment 1 among the rare cells."""
    header = draw(st.permutations(["y", "arm", "grp", "age", "note"]))
    if draw(st.booleans()):
        header = header + [draw(st.sampled_from(header))]  # the last one is read
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
            continue
        fields = []
        for name in header:
            usual, rare = CELLS[name]
            if ec and name == "arm":
                usual, rare = ["0", " 0 "], ["1"] + rare
            cell = draw(st.sampled_from(rare if draw(st.integers(0, 39)) == 0 else usual))
            fields.append(_field(draw, cell))
        if draw(st.integers(0, 19)) == 0:
            fields = fields[:-1] if draw(st.booleans()) else fields + ["7"]
        lines.append(",".join(fields))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def _outcome(load, *args, **kwargs):
    try:
        ds = load(*args, **kwargs)
    except Exception as exc:  # the class and message are compared
        return type(exc), str(exc)
    return ds


def _literal_class(message, paths):
    """Whether `message` names a cell that float() or int() reads and that
    is not an ASCII decimal literal."""
    m = re.fullmatch(r"(.*):(\d+): '(\w+)' value '(.*)' is not an ASCII decimal literal",
                     message, flags=re.S)
    if m is None or m[1] not in paths:
        return False
    with open(m[1], newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(filter(None, reader))
    raw = rows[int(m[2]) - 2][max(i for i, c in enumerate(header) if c == m[3])].strip()
    (float if m[3] != "arm" else int)(raw)
    return raw == m[4] and ("_" in raw or not raw.isascii())


@settings(max_examples=300, deadline=None)
@given(rct=csv_text(), ec=csv_text(ec=True), with_age=st.booleans(),
       levels=st.none() | st.lists(st.sampled_from(["a", "b", "a b", "\u00e9", "x,y"]),
                                   unique=True))
def test_reader_matches_the_csv_module_reader(rct, ec, with_age, levels):
    schema = CsvSchema(outcome="y", treatment="arm", subgroup="grp",
                       covariates=("age",) if with_age else ())
    with tempfile.TemporaryDirectory() as where:
        paths = [str(Path(where) / "rct.csv"), str(Path(where) / "ec.csv")]
        for path, text in zip(paths, (rct, ec)):
            Path(path).write_text(text, encoding="utf-8", newline="")
        want = _outcome(reference_load, *paths, schema, levels)
        got = _outcome(load_dataset, *paths, schema, subgroup_levels=levels)
        if isinstance(got, tuple) and got != want:
            # the one class the two readers part on: numbers that only
            # Python's float() and int() read
            assert got[0] is MalformedRow and _literal_class(got[1], paths), (got, want)
            return
    assert isinstance(want, tuple) == isinstance(got, tuple), (got, want)
    if isinstance(want, tuple):
        return
    assert got.subgroup_labels == want.subgroup_labels
    assert all(type(label) is str for label in got.subgroup_labels)
    for name in ("y_rct", "t_rct", "w_rct", "x_rct", "y_ec", "w_ec", "x_ec"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
