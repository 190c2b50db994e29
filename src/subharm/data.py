"""Patient-level data model: validated datasets, CSV ingestion, and
subgroup/design bookkeeping shared by all estimators.

A `CombinedDataset` stores the randomized-trial (RCT) and external-control
(EC) collections as column arrays, built and validated by
`CombinedDataset.from_arrays`. Subgroup labels ingest as arbitrary strings
and are mapped to 1..K by lexicographic order; the mapping is kept on the
dataset and echoed into run manifests.

`load_dataset` parses each CSV file in one `np.loadtxt` pass, which
quotes and splits fields as the default `csv` dialect does. Numbers must
be ASCII decimal literals: float() and int() also read `1_0` and
non-ASCII digits, the C parser does not, and such a cell is an error.
Only a file that fails is read again row by row with `csv`, to name its
first bad line and column.

What a dataset's design alone fixes, its cell index among them, is built
once for every dataset `CombinedDataset.with_outcomes` makes from it.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .config import (
    LABEL,
    Vector,
    choice,
    declared,
    instance,
    listing,
    read_fields,
    real,
    record,
    repeated,
)
from .errors import (
    ConfigError,
    DataError,
    DimensionMismatch,
    EcTreatedPatient,
    EmptySubgroupArm,
    EmptySubgroupError,
    MalformedRow,
    UnknownSubgroup,
)
from .glm import CellDesign, pooled_map

RCT = "RCT"
EC = "EC"

CONTINUOUS = "continuous"
BINARY = "binary"

# column order of the CellStats arrays
TREATED, CONTROL, EC_CONTROL = 0, 1, 2

OUTCOME_FAMILY = choice((CONTINUOUS, BINARY))
COLUMN = instance("a string", str)
LEVELS = listing(LABEL, "labels")
# K positive prevalences on the simplex; a data error where data give K
SIMPLEX = Vector(real(0.0, math.inf, strings=False), total=1.0)


@dataclass(frozen=True)
class CsvSchema:
    """Column mapping for CSV ingestion."""

    outcome: str = declared(COLUMN, "outcome")
    treatment: str = declared(COLUMN, "treatment")
    subgroup: str = declared(COLUMN, "subgroup")
    covariates: tuple[str, ...] = declared(listing(COLUMN, "column names, each a string"), ())

    def __post_init__(self):
        read_fields(self, prefix="schema ")
        # one column holds one kind of value; the subgroup indicators
        # already span any column that is a function of the subgroup
        twice = repeated([self.outcome, self.treatment, self.subgroup, *self.covariates])
        if twice:
            raise ConfigError(f"schema maps more than one role to column {twice[0]!r}")

    @classmethod
    def from_dict(cls, obj: dict) -> "CsvSchema":
        return SCHEMA.read(obj, "schema")


SCHEMA = record(CsvSchema, "schema")


def _vector(values, dtype, name: str, n: int | None = None) -> np.ndarray:
    """`values` as a 1-D array, of length `n` when given."""
    a = np.asarray(values, dtype=dtype)
    if a.ndim != 1 or (n is not None and len(a) != n):
        raise DimensionMismatch(
            f"{name} has shape {a.shape}; expected a vector"
            + ("" if n is None else f" of length {n}"))
    return a


def _outcomes(y, name: str, outcome_family: str, n: int | None = None) -> np.ndarray:
    """`y` as a vector of finite outcomes, each 0 or 1 in the binary family."""
    y = _vector(y, float, name, n)
    if not np.isfinite(y).all():
        raise MalformedRow(f"non-finite value in {name}")
    if outcome_family == BINARY and not np.isin(y, (0.0, 1.0)).all():
        raise MalformedRow("binary outcome family requires outcomes in {0, 1}")
    return y


def _design_only(build):
    """A property built on first use from the design columns alone and
    kept in the cache that `with_outcomes` hands on, so every dataset of
    one design builds it once."""
    name = build.__name__

    def get(self):
        cache = self._design_cache
        if name not in cache:
            cache[name] = build(self)
        return cache[name]
    return property(get, doc=build.__doc__)


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

    Built by `from_arrays`, or by `with_outcomes` from a dataset of the
    same design. Immutable after construction; safe for concurrent read.
    Column arrays use 0-based subgroup indices internally;
    `subgroup_labels[k]` gives the original label of 1-based subgroup k+1.

    The design is every column but the outcomes. What is built from it
    alone (`cell_index`, `cell_design`, `rct_subgroups` and
    `limit_map_layout`) is built once for all the datasets `with_outcomes`
    makes from one design, as the replicates of a `simulate` batch whose
    design is frozen are; `cell_stats` reads the outcomes and is each
    dataset's own.
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
        OUTCOME_FAMILY.read(outcome_family, "outcome_family", DataError)
        y_r = _outcomes(y_rct, "y_rct", outcome_family)
        y_e = _outcomes(y_ec, "y_ec", outcome_family)
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
        for name, w, x in (("rct", w_r, x_r), ("ec", w_e, x_e)):
            if not np.isfinite(x).all():
                raise MalformedRow(f"non-finite value in x_{name}")
            if w.size and (w.min() < 0 or w.max() >= k):
                bad = int(w.min() if w.min() < 0 else w.max())
                raise UnknownSubgroup(f"subgroup index {bad + 1} outside 1..{k}")
        labels = tuple(subgroup_labels) if subgroup_labels is not None \
            else tuple(str(i + 1) for i in range(k))
        if len(labels) != k:
            raise DataError("subgroup_labels length must equal K")
        ds = cls.__new__(cls)
        ds.k, ds.d = int(k), int(d)
        ds.outcome_family = outcome_family
        ds.subgroup_labels = labels
        ds.t_rct, ds.w_rct, ds.x_rct = t_r, w_r, x_r
        ds.w_ec, ds.x_ec = w_e, x_e
        for arr in (t_r, w_r, x_r, w_e, x_e):
            arr.setflags(write=False)
        ds._design_cache = {}
        return ds._store_outcomes(y_r, y_e)

    def with_outcomes(self, y_rct: np.ndarray, y_ec: np.ndarray) -> "CombinedDataset":
        """This design with other outcomes, checked as `from_arrays` checks
        them: a dataset that shares every other column, and what is built
        from them alone, with this one."""
        ds = self.__new__(type(self))
        for name in ("k", "d", "outcome_family", "subgroup_labels", "t_rct", "w_rct",
                     "x_rct", "w_ec", "x_ec", "_design_cache"):
            setattr(ds, name, getattr(self, name))
        return ds._store_outcomes(_outcomes(y_rct, "y_rct", self.outcome_family, self.n_rct),
                                  _outcomes(y_ec, "y_ec", self.outcome_family, self.n_ec))

    def _store_outcomes(self, y_r: np.ndarray, y_e: np.ndarray) -> "CombinedDataset":
        self.y_rct, self.y_ec = y_r, y_e
        y_r.setflags(write=False)
        y_e.setflags(write=False)
        return self

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

    @_design_only
    def rct_subgroups(self) -> "SubgroupRows":
        """The RCT rows grouped by subgroup, built on first use. Raises
        EmptySubgroupArm while a subgroup has no RCT patients."""
        return SubgroupRows.of(self.w_rct, self.k)

    @_design_only
    def cell_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Each RCT then EC row's `CellStats` cell, 3 g + column for 0-based
        subgroup g, and the rows per cell, built on first use."""
        cell = np.concatenate([3 * self.w_rct + self.rct_mask(arm=0),
                               3 * self.w_ec + EC_CONTROL])
        n = np.bincount(cell, minlength=3 * self.k)
        for a in (cell, n):
            a.setflags(write=False)
        return cell, n

    @_design_only
    def limit_map_layout(self) -> "LimitMapLayout":
        """The pseudo rows of the logistic limit map
        (`harmonize.LimitMapLayout`), built on first use."""
        from .harmonize import LimitMapLayout  # harmonize imports this module

        return LimitMapLayout.of(self)

    @_design_only
    def cell_design(self) -> CellDesign:
        """The pooled logistic design of the RCT rows then the EC rows,
        sorted once into 3K cells: RCT control g, RCT treated K + g and EC
        2K + g of 0-based subgroup g, so the RCT rows come first. Every
        least-squares and logistic fit reads this one sort, under the map
        `glm.build_design` gives its model."""
        k = self.k
        cell = np.concatenate([self.w_rct + k * self.t_rct, self.w_ec + 2 * k])
        return CellDesign(cell, np.vstack([self.x_rct, self.x_ec]), pooled_map(k))


@dataclass(frozen=True)
class SubgroupRows:
    """`order`, a stable sort of the subgroup column `w[order]` = `w`, and
    `means` over each subgroup's run of rows in that order, `n` the rows
    per subgroup. Summing a subgroup's contiguous run of rows gives the
    same bits as np.mean over its masked rows."""

    order: np.ndarray
    w: np.ndarray
    n: np.ndarray
    runs: tuple[slice, ...]

    def __post_init__(self):
        for a in (self.order, self.w, self.n):
            a.setflags(write=False)

    @classmethod
    def of(cls, w: np.ndarray, k: int) -> "SubgroupRows":
        """Group the 0-based subgroup column `w` of K subgroups; raises
        EmptySubgroupArm when one has no rows."""
        n = np.bincount(w, minlength=k)
        if not n.all():
            raise EmptySubgroupArm(f"subgroup {int(np.argmin(n)) + 1} has no RCT patients")
        order = np.argsort(w.astype(np.min_scalar_type(k)), kind="stable")  # a radix sort
        ends = np.cumsum(n).tolist()
        return cls(order, w[order], n, tuple(slice(a, b) for a, b in zip([0, *ends], ends)))

    def means(self, v: np.ndarray) -> np.ndarray:
        """Each subgroup's mean of the rows of `v`, given in `order`."""
        sums = np.array([np.add.reduce(v[r]) for r in self.runs])
        return sums / (self.n if v.ndim == 1 else self.n[:, None])


@dataclass(frozen=True)
class CellStats:
    """Outcome sufficient statistics per (subgroup, cell).

    Row k is 0-based subgroup k; the columns are the treated RCT, control
    RCT and EC cells (`TREATED`, `CONTROL`, `EC_CONTROL`). `n` holds counts,
    `total` outcome sums, `mean` the cell means (0 for an empty cell) and
    `ss` the sums of squares about the cell mean. The sums of squares are
    two-pass, never sum(y^2) - n*mean^2, so they keep full precision when a
    cell's mean is large against its spread. Every difference-of-means
    quantity is a function of these arrays. The cells and counts `n` come
    from the design's `cell_index`; a dataset sums only its outcomes.
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
        cell, n = ds.cell_index
        y = np.concatenate([ds.y_rct, ds.y_ec])
        size = 3 * ds.k
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
    and `q` the overall external fraction of controls. `cache` keeps what
    is computed from these counts and prevalences alone (`cached`), for
    every replicate context built on them: in a `simulate` batch, the
    difference-of-means bias direction, the checked fixed matrices, the
    analytic covariance and half-width, the cut's design part and
    half-width, and the bootstrap's scales.
    `dataclasses.replace` starts an empty one.
    """

    counts: np.ndarray
    pi: np.ndarray
    q_ratio: np.ndarray
    q_bar: float
    q: float
    prevalence_source: str = "rct_empirical"
    cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        self.counts.setflags(write=False)
        self.pi.setflags(write=False)
        self.q_ratio.setflags(write=False)

    @property
    def k(self) -> int:
        return self.counts.shape[0]

    def cached(self, key, build):
        """`build()`, computed once per design counts and kept in `cache`
        under `key`."""
        if key not in self.cache:
            self.cache[key] = build()
        return self.cache[key]


def compute_design_counts(
    ds: CombinedDataset,
    prevalences: np.ndarray | Sequence[float] | None = None,
) -> DesignCounts:
    """Tally per-cell counts and derive prevalences and control ratios.

    Prevalences default to the empirical RCT subgroup frequencies and are
    normalized to sum to exactly 1; a user-supplied vector overrides them
    and must be of the kind `SIMPLEX`, else DataError.
    """
    k = ds.k
    n = ds.cell_stats.n
    counts = np.zeros((k, 2, 2), dtype=np.int64)
    counts[:, 1, 0] = n[:, TREATED]
    counts[:, 0, 0] = n[:, CONTROL]
    counts[:, 0, 1] = n[:, EC_CONTROL]

    if prevalences is not None:
        SIMPLEX.read(prevalences, "prevalences", DataError, {"k": k})
        pi = np.asarray(prevalences, dtype=float)
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
    if "_" in raw or not raw.isascii():
        raise MalformedRow(
            f"{path}:{line}: {column!r} value {raw!r} is not an ASCII decimal literal")
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
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Outcomes, treatments, unstripped subgroup labels and covariates (n x
    d) of one CSV file. Every header column is parsed, so a short or a long
    row fails. Blank lines are skipped; line numbers in messages
    count the header as line 1 and each non-blank row after it."""
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from None
    try:
        with fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise MalformedRow(f"{path}: empty file (header row required)")
            needed = [schema.outcome, schema.treatment, schema.subgroup, *schema.covariates]
            missing = [c for c in needed if c not in header]
            if missing:
                raise MalformedRow(f"{path}: missing columns {missing}")
            col = {name: f"f{i}" for i, name in enumerate(header)}  # the last of a name
            kinds = {col[c]: float for c in (schema.outcome, *schema.covariates)}
            kinds[col[schema.treatment]] = np.int64
            dtype = [(f"f{i}", kinds.get(f"f{i}", object)) for i in range(len(header))]
            try:
                with warnings.catch_warnings():
                    # a header-only file is an empty study
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                            UserWarning)
                    table = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None,
                                       quotechar='"', ndmin=1)
            except ValueError as exc:  # UnicodeDecodeError too: `csv` raises it again
                table, problem = None, exc
        if table is not None:
            y, t = table[col[schema.outcome]].copy(), table[col[schema.treatment]].copy()
            x = np.empty((len(table), len(schema.covariates)))
            for j, c in enumerate(schema.covariates):
                x[:, j] = table[col[c]]
            labels = table[col[schema.subgroup]]
            if (np.isfinite(y).all() and np.isfinite(x).all()
                    and np.isin(t, (0, 1) if study == RCT else (0,)).all()
                    and "" not in map(str.strip, set(labels.tolist()))):
                return y, t, labels, x
            problem = "a value breaks a column rule"
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(filter(None, csv.reader(fh)))[1:]  # blank lines read as []
    except UnicodeDecodeError:
        with open(path, "rb") as fh:  # "\n" is never part of a multi-byte character
            lines = [text for text in fh.read().split(b"\n") if text.strip(b"\r")]
        line = next(i for i, text in enumerate(lines, start=1)
                    if text.decode("utf-8", "ignore").encode() != text)
        raise MalformedRow(f"{path}:{line}: not UTF-8 text") from None
    _check_rows(path, schema, study, header, rows)
    raise MalformedRow(f"{path}: {problem}")  # only if `csv` splits rows otherwise


def load_dataset(
    rct_csv: str,
    ec_csv: str,
    schema: CsvSchema,
    outcome_family: str = CONTINUOUS,
    subgroup_levels: Sequence[str] | None = None,
) -> CombinedDataset:
    """Load and validate an RCT + EC dataset pair from CSV files.

    Subgroup labels found in the files are mapped to 1..K in lexicographic
    order unless `subgroup_levels` declares the levels explicitly, as a
    list of distinct labels, in which case any label outside that set
    raises UnknownSubgroup. Every row must have as many fields as the
    header.
    """
    y_r, t_r, labels_r, x_r = _read_columns(rct_csv, schema, RCT)
    y_e, _t_e, labels_e, x_e = _read_columns(ec_csv, schema, EC)
    found = np.concatenate([labels_r, labels_e])
    stripped = {label: label.strip() for label in set(found.tolist())}
    if subgroup_levels is not None:
        labels = list(LEVELS.read(subgroup_levels, "subgroup_levels"))
        twice = repeated(labels)
        if twice:
            raise ConfigError(f"subgroup_levels lists {twice[0]!r} more than once")
    else:
        labels = sorted(set(stripped.values()))
    index = {lab: i for i, lab in enumerate(labels)}
    code = {label: index.get(name, -1) for label, name in stripped.items()}
    w = np.fromiter(map(code.__getitem__, found), np.int64, len(found))
    if (w < 0).any():
        raise UnknownSubgroup(f"subgroup label {stripped[found[np.argmax(w < 0)]]!r} "
                              f"not among declared levels {labels}")

    return CombinedDataset.from_arrays(
        y_rct=y_r, t_rct=t_r, w_rct=w[:len(y_r)], y_ec=y_e, w_ec=w[len(y_r):],
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
