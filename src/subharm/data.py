"""Patient-level data model: validated datasets, CSV ingestion, and
subgroup/design bookkeeping shared by all estimators.

A `CombinedDataset` stores the randomized-trial (RCT) and external-control
(EC) collections as column arrays, built and validated by
`CombinedDataset.from_arrays`. Subgroup labels ingest as arbitrary strings
and are mapped to 1..K by lexicographic order; the mapping is kept on the
dataset and echoed into run manifests.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DimensionMismatch,
    EcTreatedPatient,
    EmptySubgroupError,
    MalformedRow,
    UnknownSubgroup,
)

RCT = "RCT"
EC = "EC"

CONTINUOUS = "continuous"
BINARY = "binary"

# column order of the CellStats arrays
TREATED, CONTROL, EC_CONTROL = 0, 1, 2


@dataclass(frozen=True)
class CsvSchema:
    """Column mapping for CSV ingestion."""

    outcome: str = "outcome"
    treatment: str = "treatment"
    subgroup: str = "subgroup"
    covariates: tuple[str, ...] = ()

    @classmethod
    def from_dict(cls, obj: dict) -> "CsvSchema":
        if not isinstance(obj, dict):
            raise ConfigError("schema must be an object")
        unknown = set(obj) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown schema keys: {sorted(unknown)}")
        return cls(**{**obj, "covariates": tuple(obj.get("covariates", ()))})


def _vector(values, dtype, name: str, n: int | None = None) -> np.ndarray:
    """`values` as a 1-D array, of length `n` when given."""
    a = np.asarray(values, dtype=dtype)
    if a.ndim != 1 or (n is not None and len(a) != n):
        raise DimensionMismatch(
            f"{name} has shape {a.shape}; expected a vector"
            + ("" if n is None else f" of length {n}"))
    return a


def _covariates(x, n: int, name: str) -> np.ndarray:
    """`x` as an (n, d) matrix: None has no columns, a vector one."""
    if x is None:
        return np.zeros((n, 0))
    try:
        x = np.asarray(x, dtype=float)
    except ValueError:
        raise DimensionMismatch(f"{name} is ragged or not numeric") from None
    if x.ndim not in (1, 2) or len(x) != n:
        raise DimensionMismatch(f"{name} has shape {x.shape}; expected {n} rows")
    return x.reshape(n, 1 if x.ndim == 1 else x.shape[1])


class CombinedDataset:
    """Validated RCT + EC column arrays with subgroup bookkeeping.

    Built only by `from_arrays`. Immutable after construction; safe for
    concurrent read. Column arrays use 0-based subgroup indices internally;
    `subgroup_labels[k]` gives the original label of 1-based subgroup k+1.
    """

    @classmethod
    def from_arrays(
        cls,
        *,
        y_rct: np.ndarray,
        t_rct: np.ndarray,
        w_rct: np.ndarray,
        y_ec: np.ndarray,
        w_ec: np.ndarray,
        k: int,
        x_rct: np.ndarray | None = None,
        x_ec: np.ndarray | None = None,
        outcome_family: str = CONTINUOUS,
        subgroup_labels: Sequence[str] | None = None,
    ) -> "CombinedDataset":
        """Validate and store the column arrays. `w_*` are 0-based subgroup
        indices; every EC patient is a control. Each vector must match its
        study's outcome vector in length and the covariate matrices must
        share one width, else `DimensionMismatch`."""
        if outcome_family not in (CONTINUOUS, BINARY):
            raise DataError(f"unknown outcome family {outcome_family!r}")
        y_r, y_e = _vector(y_rct, float, "y_rct"), _vector(y_ec, float, "y_ec")
        n_r, n_e = len(y_r), len(y_e)
        t_r = _vector(t_rct, None, "t_rct", n_r)
        w_r, w_e = _vector(w_rct, None, "w_rct", n_r), _vector(w_ec, None, "w_ec", n_e)
        x_r, x_e = _covariates(x_rct, n_r, "x_rct"), _covariates(x_ec, n_e, "x_ec")
        d = x_r.shape[1]
        if x_e.shape[1] != d:
            raise DimensionMismatch(
                f"x_ec has {x_e.shape[1]} covariate columns where x_rct has {d}")
        # before the casts, which would truncate 0.5
        if np.any((t_r != 0) & (t_r != 1)):
            raise MalformedRow("treatment must be 0 or 1")
        for name, w in (("w_rct", w_r), ("w_ec", w_e)):
            if np.any(np.mod(w, 1) != 0):
                raise MalformedRow(f"{name} holds a non-integral subgroup index")
        t_r, w_r, w_e = (a.astype(np.int64, copy=False) for a in (t_r, w_r, w_e))
        for study, y, w, x in (("rct", y_r, w_r, x_r), ("ec", y_e, w_e, x_e)):
            for name, a in (("y", y), ("x", x)):
                if not np.isfinite(a).all():
                    raise MalformedRow(f"non-finite value in {name}_{study}")
            if w.size and (w.min() < 0 or w.max() >= k):
                bad = int(w.min() if w.min() < 0 else w.max())
                raise UnknownSubgroup(f"subgroup index {bad + 1} outside 1..{k}")
            if outcome_family == BINARY and not np.isin(y, (0.0, 1.0)).all():
                raise MalformedRow("binary outcome family requires outcomes in {0, 1}")
        labels = tuple(subgroup_labels) if subgroup_labels is not None \
            else tuple(str(i + 1) for i in range(k))
        if len(labels) != k:
            raise DataError("subgroup_labels length must equal K")
        ds = cls.__new__(cls)
        ds.k, ds.d = int(k), int(d)
        ds.outcome_family = outcome_family
        ds.subgroup_labels = labels
        ds.y_rct, ds.t_rct, ds.w_rct, ds.x_rct = y_r, t_r, w_r, x_r
        ds.y_ec, ds.w_ec, ds.x_ec = y_e, w_e, x_e
        for arr in (y_r, t_r, w_r, x_r, y_e, w_e, x_e):
            arr.setflags(write=False)
        return ds

    # --- views ---------------------------------------------------------

    @property
    def n_rct(self) -> int:
        return len(self.y_rct)

    @property
    def n_ec(self) -> int:
        return len(self.y_ec)

    def rct_mask(self, subgroup: int | None = None, arm: int | None = None) -> np.ndarray:
        """Boolean mask over RCT rows; `subgroup` is 0-based."""
        m = np.ones(self.n_rct, dtype=bool)
        if subgroup is not None:
            m &= self.w_rct == subgroup
        if arm is not None:
            m &= self.t_rct == arm
        return m

    @cached_property
    def cell_stats(self) -> "CellStats":
        """Per-cell outcome statistics, computed on first use."""
        return CellStats.from_dataset(self)


@dataclass(frozen=True)
class CellStats:
    """Outcome sufficient statistics per (subgroup, cell).

    Row k is 0-based subgroup k; the columns are the treated RCT, control
    RCT and EC cells (`TREATED`, `CONTROL`, `EC_CONTROL`). `n` holds counts,
    `total` outcome sums, `mean` the cell means (0 for an empty cell) and
    `ss` the sums of squares about the cell mean. The sums of squares are
    two-pass, never sum(y^2) - n*mean^2, so they keep full precision when a
    cell's mean is large against its spread. Every difference-of-means
    quantity is a function of these arrays.
    """

    n: np.ndarray
    total: np.ndarray
    mean: np.ndarray
    ss: np.ndarray
    outcome_family: str = CONTINUOUS

    def __post_init__(self):
        for a in (self.n, self.total, self.mean, self.ss):
            a.setflags(write=False)

    @classmethod
    def from_dataset(cls, ds: CombinedDataset) -> "CellStats":
        cell = np.concatenate([3 * ds.w_rct + ds.rct_mask(arm=0),
                               3 * ds.w_ec + EC_CONTROL])
        y = np.concatenate([ds.y_rct, ds.y_ec])
        size = 3 * ds.k
        n = np.bincount(cell, minlength=size)
        total = np.bincount(cell, weights=y, minlength=size)
        mean = total / np.maximum(n, 1)
        ss = np.bincount(cell, weights=(y - mean[cell]) ** 2, minlength=size)
        shape = (ds.k, 3)
        return cls(n.reshape(shape), total.reshape(shape), mean.reshape(shape),
                   ss.reshape(shape), ds.outcome_family)


@dataclass(frozen=True)
class DesignCounts:
    """Subgroup/arm/study counts and derived design ratios.

    `counts[k, t, s]` holds the count for 0-based subgroup k, arm t, and
    study s (0 = RCT, 1 = EC). `q_ratio[k]` is the external fraction of
    control patients in subgroup k, `q_bar` its prevalence-weighted mean,
    and `q` the overall external fraction of controls.
    """

    counts: np.ndarray
    pi: np.ndarray
    q_ratio: np.ndarray
    q_bar: float
    q: float
    prevalence_source: str = "rct_empirical"

    def __post_init__(self):
        self.counts.setflags(write=False)
        self.pi.setflags(write=False)
        self.q_ratio.setflags(write=False)

    @property
    def k(self) -> int:
        return self.counts.shape[0]


def compute_design_counts(
    ds: CombinedDataset,
    prevalences: np.ndarray | Sequence[float] | None = None,
) -> DesignCounts:
    """Tally per-cell counts and derive prevalences and control ratios.

    Prevalences default to the empirical RCT subgroup frequencies and are
    normalized to sum to exactly 1; a user-supplied vector overrides them
    (it must be strictly positive on the simplex).
    """
    k = ds.k
    n = ds.cell_stats.n
    counts = np.zeros((k, 2, 2), dtype=np.int64)
    counts[:, 1, 0] = n[:, TREATED]
    counts[:, 0, 0] = n[:, CONTROL]
    counts[:, 0, 1] = n[:, EC_CONTROL]

    if prevalences is not None:
        pi = np.asarray(prevalences, dtype=float)
        if pi.shape != (k,):
            raise DataError(f"prevalences must have length {k}")
        if np.any(pi <= 0):
            raise DataError("user-supplied prevalences must be strictly positive")
        if abs(pi.sum() - 1.0) > 1e-12:
            raise DataError("user-supplied prevalences must sum to 1 within 1e-12")
        source = "user_supplied"
    else:
        per_sub = counts[:, :, 0].sum(axis=1).astype(float)
        if ds.n_rct == 0:
            raise EmptySubgroupError("no RCT records; cannot derive empirical prevalences")
        if np.any(per_sub == 0):
            raise EmptySubgroupError(
                f"subgroup {int(np.argmax(per_sub == 0)) + 1} has no RCT patients")
        pi = per_sub / per_sub.sum()
        source = "rct_empirical"

    n_ec_sub = counts[:, 0, 1]
    n_ctrl_pooled = counts[:, 0, 0] + n_ec_sub
    if np.any(n_ctrl_pooled == 0):
        raise EmptySubgroupError(
            f"subgroup {int(np.argmax(n_ctrl_pooled == 0)) + 1} has no control "
            "patients in either study; Q is undefined")
    q_ratio = n_ec_sub / n_ctrl_pooled
    q_bar = float(pi @ q_ratio)
    nr0 = int(counts[:, 0, 0].sum())
    ne0 = int(n_ec_sub.sum())
    q = ne0 / (nr0 + ne0) if nr0 + ne0 > 0 else 0.0
    return DesignCounts(counts=counts, pi=pi, q_ratio=q_ratio,
                        q_bar=q_bar, q=q, prevalence_source=source)


# --- CSV ingestion ---------------------------------------------------------

def _parse_cell(raw: str, kind: str, path: str, line: int, column: str):
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


def _check_rows(path: str, schema: CsvSchema, study: str, header: list[str],
                rows: list[list[str]]) -> None:
    """Raise on the first bad row, naming its file, line and column."""
    col = {name: i for i, name in enumerate(header)}
    for line, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise MalformedRow(
                f"{path}:{line}: {len(row)} fields where the header has {len(header)}")
        _parse_cell(row[col[schema.outcome]], "float", path, line, schema.outcome)
        treatment = _parse_cell(row[col[schema.treatment]], "int", path, line, schema.treatment)
        if treatment not in (0, 1):
            raise MalformedRow(f"{path}:{line}: treatment must be 0 or 1")
        if study == EC and treatment == 1:
            raise EcTreatedPatient(f"{path}:{line}: external-control row with treatment = 1")
        if row[col[schema.subgroup]].strip() == "":
            raise MalformedRow(f"{path}:{line}: empty subgroup cell")
        for c in schema.covariates:
            _parse_cell(row[col[c]], "float", path, line, c)


def _read_columns(path: str, schema: CsvSchema, study: str
                  ) -> tuple[np.ndarray, np.ndarray, list[str], np.ndarray]:
    """Outcomes, treatments, stripped subgroup labels and covariates (n x d)
    of one CSV file. Blank lines are skipped; line numbers in messages
    count the header as line 1 and each non-blank row after it."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise MalformedRow(f"{path}: empty file (header row required)")
        needed = [schema.outcome, schema.treatment, schema.subgroup, *schema.covariates]
        missing = [c for c in needed if c not in header]
        if missing:
            raise MalformedRow(f"{path}: missing columns {missing}")
        rows = list(filter(None, reader))  # blank lines read as []
    n, d = len(rows), len(schema.covariates)
    col = {name: i for i, name in enumerate(header)}

    def parse(kind, name):
        return np.fromiter(map(kind, cells[col[name]]), np.int64 if kind is int else float, n)

    clean = set(map(len, rows)) <= {len(header)}
    if clean:
        cells = list(zip(*rows)) or [()] * len(header)
        try:
            y, t = parse(float, schema.outcome), parse(int, schema.treatment)
            x = np.empty((n, d))
            for j, c in enumerate(schema.covariates):
                x[:, j] = parse(float, c)
        except ValueError:
            clean = False
    if clean:
        labels = [label.strip() for label in cells[col[schema.subgroup]]]
        clean = (np.isfinite(y).all() and np.isfinite(x).all()
                 and np.isin(t, (0, 1) if study == RCT else (0,)).all()
                 and "" not in labels)
    if not clean:
        _check_rows(path, schema, study, header, rows)
    return y, t, labels, x


def load_dataset(
    rct_csv: str,
    ec_csv: str,
    schema: CsvSchema,
    outcome_family: str = CONTINUOUS,
    subgroup_levels: Sequence[str] | None = None,
) -> CombinedDataset:
    """Load and validate an RCT + EC dataset pair from CSV files.

    Subgroup labels found in the files are mapped to 1..K in lexicographic
    order unless `subgroup_levels` declares the levels explicitly, in which
    case any label outside that set raises UnknownSubgroup. Every row must
    have as many fields as the header.
    """
    y_r, t_r, labels_r, x_r = _read_columns(rct_csv, schema, RCT)
    y_e, _t_e, labels_e, x_e = _read_columns(ec_csv, schema, EC)
    if subgroup_levels is not None:
        labels = [str(v) for v in subgroup_levels]
    else:
        labels = sorted(set(labels_r) | set(labels_e))
    index = {lab: i for i, lab in enumerate(labels)}

    def codes(found):
        try:
            return np.fromiter(map(index.__getitem__, found), np.int64, len(found))
        except KeyError as exc:
            raise UnknownSubgroup(
                f"subgroup label {exc.args[0]!r} not among declared levels {labels}") from None

    return CombinedDataset.from_arrays(
        y_rct=y_r, t_rct=t_r, w_rct=codes(labels_r), y_ec=y_e, w_ec=codes(labels_e),
        k=len(labels), x_rct=x_r, x_ec=x_e, outcome_family=outcome_family,
        subgroup_labels=labels)


def save_dataset(ds: CombinedDataset, rct_csv: str, ec_csv: str,
                 schema: CsvSchema | None = None) -> None:
    """Write the dataset back to a CSV pair (round-trips within 1e-15)."""
    schema = schema or CsvSchema(covariates=tuple(f"x{j + 1}" for j in range(ds.d)))
    header = [schema.outcome, schema.treatment, schema.subgroup, *schema.covariates]

    def write(path, y, t, w, x):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for i in range(len(y)):
                row = [format(y[i], ".17g"), int(t[i]), ds.subgroup_labels[int(w[i])]]
                row += [format(v, ".17g") for v in x[i]]
                writer.writerow(row)

    write(rct_csv, ds.y_rct, ds.t_rct, ds.w_rct, ds.x_rct)
    write(ec_csv, ds.y_ec, np.zeros(ds.n_ec, dtype=int), ds.w_ec, ds.x_ec)
