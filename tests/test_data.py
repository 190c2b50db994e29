import numpy as np
import pytest

from subharm import (
    CombinedDataset,
    CsvSchema,
    compute_design_counts,
    load_dataset,
    save_dataset,
)
from subharm.errors import (
    DataError,
    DimensionMismatch,
    EcTreatedPatient,
    EmptySubgroupError,
    MalformedRow,
    UnknownSubgroup,
)

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

    def test_empty_pooled_control_subgroup(self):
        ds = CombinedDataset.from_arrays(
            y_rct=np.zeros(4), t_rct=np.array([1, 0, 1, 1]),
            w_rct=np.array([0, 0, 1, 1]),
            y_ec=np.zeros(1), w_ec=np.array([0]), k=2)
        with pytest.raises(EmptySubgroupError):
            compute_design_counts(ds)
