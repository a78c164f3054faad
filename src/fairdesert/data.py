"""Observed-data container, covariate scaling, and CSV I/O.

One observation is O = (S, Z, X, Y): binary sensitive attribute (1 = advantaged
group), binary auxiliary variable, real covariate vector, binary observed
decision (1 = favourable).  All estimation routines expect covariates scaled
into the unit cube; the affine (min, max) map used for scaling is kept with the
dataset so the identical map can be replayed on prediction data.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateCovariateError,
    EmptyDataError,
    ParseError,
    PositivityError,
    SchemaError,
)

_DEFAULT_BINARY = {"0": 0, "1": 1, "0.0": 0, "1.0": 1}


@dataclass(frozen=True)
class CsvSchema:
    """Column-name mapping for CSV ingestion.

    ``binary_values`` optionally extends the accepted encodings of the s/z/y
    columns, e.g. ``{"white": 1, "black": 0}``.  Covariate columns must be
    numeric; categorical covariates are expected to arrive already dummy-coded.
    """

    s: str = "s"
    z: str = "z"
    y: str = "y"
    covariates: tuple[str, ...] = ()
    binary_values: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("s", "z", "y"):
            if not isinstance(getattr(self, name), str):
                raise SchemaError(f"{name} must be a column name; got {getattr(self, name)!r}")
        codes = self.binary_values
        if not isinstance(codes, dict) or any(v not in (0, 1) for v in codes.values()):
            raise SchemaError(f"binary_values must map cell text to 0 or 1; got {codes!r}")
        names = self.covariates
        if not isinstance(names, (list, tuple)) or not all(isinstance(c, str) for c in names):
            raise SchemaError(f"covariates must be a list of column names; got {names!r}")
        # a desert rule may not depend on S; Z and Y enter the model on their own
        bad = sorted({c for c in names if names.count(c) > 1 or c in (self.s, self.z, self.y)})
        if bad:
            raise SchemaError("covariates must name distinct columns other than the s, z "
                              f"and y columns; got {', '.join(bad)}")
        object.__setattr__(self, "covariates", tuple(names))

    def binary_map(self):
        mapping = dict(_DEFAULT_BINARY)
        mapping.update({str(k): int(v) for k, v in self.binary_values.items()})
        return mapping


def _readonly(arr):
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Dataset:
    """Immutable collection of observations plus covariate metadata.

    ``scaling`` holds one (lo, hi) pair per covariate: the affine map
    x -> (x - lo) / (hi - lo) that takes raw values into [0, 1].  ``scaled``
    records whether ``x`` already lives on the unit cube.
    """

    s: np.ndarray
    z: np.ndarray
    y: np.ndarray
    x: np.ndarray
    covariate_names: tuple[str, ...]
    scaling: tuple[tuple[float, float], ...]
    scaled: bool = False

    def __post_init__(self):
        s, z, y = (np.asarray(col) for col in (self.s, self.z, self.y))
        x = np.asarray(self.x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("x must be a 2-d array (n rows, d covariates)")
        n, d = x.shape
        if not (s.shape == z.shape == y.shape == (n,)):
            raise ValueError("s, z, y must be length-n vectors matching x")
        # the values as given: the cast to int8 would take 0.5 to 0 and 256 to 0
        for name, col in (("s", s), ("z", z), ("y", y)):
            if not ((col == 0) | (col == 1)).all():
                raise ValueError(f"{name} must contain only 0/1 values")
        s, z, y = (col.astype(np.int8, copy=False) for col in (s, z, y))
        if len(self.covariate_names) != d:
            raise ValueError("covariate_names length must equal covariate dimension")
        if len(self.scaling) != d:
            raise ValueError("scaling must provide one (lo, hi) pair per covariate")
        for name, (lo, hi) in zip(self.covariate_names, self.scaling):
            if not lo < hi:
                raise DegenerateCovariateError(
                    f"covariate {name!r} has degenerate scaling bounds ({lo}, {hi})"
                )
        if not np.isfinite(x).all():
            raise ValueError("covariates must be finite (missing values are rejected)")
        if self.scaled and (x.min(initial=0.0) < -1e-12 or x.max(initial=1.0) > 1 + 1e-12):
            raise ValueError("scaled dataset has covariates outside [0, 1]")
        object.__setattr__(self, "s", _readonly(s))
        object.__setattr__(self, "z", _readonly(z))
        object.__setattr__(self, "y", _readonly(y))
        object.__setattr__(self, "x", _readonly(x))
        object.__setattr__(self, "covariate_names", tuple(self.covariate_names))
        object.__setattr__(
            self, "scaling", tuple((float(lo), float(hi)) for lo, hi in self.scaling)
        )

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def d(self):
        return self.x.shape[1]

    def subset(self, idx) -> "Dataset":
        """Row-subset (or resample) preserving covariate metadata."""
        idx = np.asarray(idx)
        return Dataset(
            self.s[idx], self.z[idx], self.y[idx], self.x[idx],
            self.covariate_names, self.scaling, self.scaled,
        )


def read_csv(path, schema: CsvSchema, binary_columns):
    """Read the given binary columns and the covariates of a UTF-8,
    comma-delimited, headered CSV.

    Returns one int8 array per binary column, in order, and the raw (n, d)
    covariate matrix.  Binary cells must parse to {0, 1} under the schema's
    binary map and covariates must be finite numbers; a ParseError names the
    first offending row.

    The body is read column by column by numpy's C tokenizer when that is
    known to give what the row-wise parser gives: no ``"`` or NUL in the
    file, no line longer than ``csv.field_size_limit()``, every row long
    enough, every binary cell exactly a key of the binary map (one that
    ``strip`` leaves as it is, mapped to 0 or 1), and every covariate finite.
    Any other file, and every file with an error, goes through the row-wise
    parser, so each file yields the same arrays, or the same error with the
    same row number, either way.
    """
    path = Path(path)
    binmap = schema.binary_map()
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyDataError(f"{path} has no header row")
        # as with csv.DictReader: the last of duplicate names wins
        position = {name: k for k, name in enumerate(header)}
        missing = [
            col for col in (*binary_columns, *schema.covariates) if col not in position
        ]
        if missing:
            raise SchemaError(f"missing columns in {path}: {', '.join(missing)}")
        binary_at = [position[col] for col in binary_columns]
        covariates_at = [position[col] for col in schema.covariates]
        width = max(binary_at + covariates_at) + 1
        columns = _read_columns(path, binary_at, covariates_at, binmap)
        if columns is not None:
            return columns
        binary = [[] for _ in binary_columns]
        rows = []
        for i, row in enumerate(filter(None, reader), start=1):  # blank lines skipped
            if len(row) < width:
                raise ParseError(f"row {i} has {len(row)} cells, needs {width}", row=i)
            for col, k, out in zip(binary_columns, binary_at, binary):
                raw = row[k].strip()
                if raw not in binmap:
                    raise ParseError(
                        f"non-binary value {raw!r} in column {col!r} at row {i}", row=i
                    )
                out.append(binmap[raw])
            try:
                rows.append([float(row[k]) for k in covariates_at])
            except ValueError as exc:
                raise ParseError(f"non-numeric covariate at row {i}: {exc}", row=i) from exc
    if not rows:
        raise EmptyDataError(f"{path} contains no data rows")
    x = np.asarray(rows, dtype=np.float64)
    if not np.isfinite(x).all():
        bad = int(np.argwhere(~np.isfinite(x).all(axis=1))[0][0]) + 1
        raise ParseError(f"non-finite covariate at row {bad}", row=bad)
    return [np.asarray(col, dtype=np.int8) for col in binary], x


def _read_columns(path, binary_at, covariates_at, binmap):
    """The body of ``path`` parsed by ``np.loadtxt``: the same result as
    `read_csv`'s row-wise loop, or None when that cannot be shown."""
    if not _plain_text(path):
        return None
    # one character wider than any key, so a cut-off cell never equals a key
    key_width = max(map(len, binmap)) + 1
    fields = ([(f"b{k}", f"U{key_width}") for k in range(len(binary_at))]
              + [(f"x{j}", "f8") for j in range(len(covariates_at))])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. an empty body
            # with no quote in the file, the header is its first line
            table = np.loadtxt(path, dtype=fields, comments=None, delimiter=",", skiprows=1,
                               usecols=binary_at + covariates_at, ndmin=1, encoding="utf-8")
    except (ValueError, Warning):
        return None
    binary = []
    for k in range(len(binary_at)):
        cells = table[f"b{k}"]
        codes = np.full(cells.shape, -1, dtype=np.int8)
        for key, value in binmap.items():
            # the row-wise loop strips a cell before looking it up
            if key == key.strip():
                codes[cells == key] = value
        if (codes < 0).any():
            return None
        binary.append(codes)
    x = np.empty((table.size, len(covariates_at)))
    for j in range(len(covariates_at)):
        x[:, j] = table[f"x{j}"]
    if not np.isfinite(x).all():
        return None
    return binary, x


# bytes `_plain_text` reads at a time
_SCAN_CHUNK_BYTES = 1 << 20


def _plain_text(path):
    """Whether ``path`` holds no ``"`` or NUL byte and no line longer than
    ``csv.field_size_limit()`` bytes; ``\\r`` and ``\\n`` each end a line.

    The file is read in chunks of ``_SCAN_CHUNK_BYTES``, so memory does not
    grow with its size.
    """
    limit = csv.field_size_limit()
    run = 0  # the length of the line that the chunks so far leave open
    with path.open("rb") as fh:
        while chunk := fh.read(_SCAN_CHUNK_BYTES):
            if b'"' in chunk or b"\0" in chunk:
                return False
            codes = np.frombuffer(chunk, dtype=np.uint8)
            ends = np.flatnonzero((codes == ord("\n")) | (codes == ord("\r")))
            # the lengths of the lines that end in this chunk, then of the open one
            lengths = np.diff(ends, prepend=-1 - run, append=codes.size) - 1
            if lengths.max() > limit:
                return False
            run = int(lengths[-1])
    return True


def load_csv(path, schema: CsvSchema) -> Dataset:
    """Read a UTF-8, comma-delimited, headered CSV into a raw Dataset.

    Raw covariate values are retained; per-column (min, max) scaling metadata
    is computed here so that `scale_covariates` and prediction-time replay use
    identical bounds.  s/z/y cells must parse to {0, 1} under the schema's
    binary map.
    """
    (s, z, y), x = read_csv(path, schema, (schema.s, schema.z, schema.y))
    scaling = compute_scaling(x, schema.covariates)
    return Dataset(s, z, y, x, tuple(schema.covariates), scaling, scaled=False)


def write_csv(data: Dataset, path, schema: CsvSchema | None = None):
    """Write a Dataset back to CSV at full (repr round-trip) precision."""
    schema = schema or CsvSchema(covariates=data.covariate_names)
    write_columns(path, [schema.s, schema.z, schema.y, *schema.covariates],
                  [data.s, data.z, data.y, *data.x.T])


_WRITE_BLOCK_ROWS = 8192


def write_columns(path, header, columns):
    """Write equal-length integer or float arrays as the columns of a CSV with
    a header row.

    The bytes are those of ``csv.writer`` given one row of Python numbers at a
    time: ``str(int)``, ``repr(float)`` and ``\\r\\n`` line ends.  Rows are
    formatted in blocks of fixed size, so memory does not grow with the row
    count.
    """
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, len(columns[0]), _WRITE_BLOCK_ROWS):
            cells = (map(repr, col[start:start + _WRITE_BLOCK_ROWS].tolist()) for col in columns)
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def compute_scaling(x, names):
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    constant = np.flatnonzero(~(lo < hi))
    if constant.size:
        names = tuple(names)
        bad = ", ".join(names[j] if j < len(names) else str(j) for j in constant)
        raise DegenerateCovariateError(f"constant covariate column(s): {bad}")
    return tuple((float(a), float(b)) for a, b in zip(lo, hi))


def apply_scaling(scaling, x_raw):
    """Map raw covariates into [0, 1] with the stored bounds.

    Values outside the training range are clamped; returns the scaled matrix
    and a per-row flag marking rows where clamping occurred.
    """
    x_raw = np.atleast_2d(np.asarray(x_raw, dtype=np.float64))
    lo = np.array([a for a, _ in scaling])
    hi = np.array([b for _, b in scaling])
    scaled = (x_raw - lo) / (hi - lo)
    clamped = (scaled < 0) | (scaled > 1)
    return np.clip(scaled, 0.0, 1.0), clamped.any(axis=1)


def scale_covariates(raw: Dataset) -> Dataset:
    """Return a Dataset with covariates mapped affinely into [0, 1].

    Idempotent: applying to an already-scaled dataset is the identity.
    """
    if raw.scaled:
        return raw
    x_scaled, _ = apply_scaling(raw.scaling, raw.x)
    return replace(raw, x=x_scaled, scaled=True)


def stratum_counts(data: Dataset, counts=None):
    """2x2 table of counts n_sz indexed [s][z]; with ``counts``, a count per
    row of ``data`` (``np.bincount(rows, minlength=data.n)``), those of the
    resample that repeats each row that often."""
    table = np.zeros((2, 2), dtype=np.int64)
    for s in (0, 1):
        for z in (0, 1):
            mask = (data.s == s) & (data.z == z)
            table[s, z] = int(np.sum(mask) if counts is None else np.sum(counts[mask]))
    return table


def require_positivity(data: Dataset, counts=None):
    """Positivity precheck: every (s, z) stratum must be non-empty (in the
    resample that ``counts`` names; see `stratum_counts`)."""
    table = stratum_counts(data, counts)
    if (table == 0).any():
        empty = [f"(s={s}, z={z})" for s in (0, 1) for z in (0, 1) if table[s, z] == 0]
        raise PositivityError(f"empty stratum {', '.join(empty)}: cannot fit")
    return table
