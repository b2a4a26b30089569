"""Data containers and CSV ingestion for the replicate-based heteroscedastic EIV model.

The observed sample consists of an outcome ``y_j``, error-free covariates
``z_j`` (with a synthesized intercept), and ``n_j >= 2`` replicate surrogate
measurements of the error-prone covariates. Replicate counts may vary across
observations; the replicates are stored once, as a zero-padded (n, R_max, p)
array with each row's n_j replicates packed to the front, together with the
counts n_j and the replicate means.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass

import numpy as np

from .errors import CsvParseError, ValidationError

__all__ = [
    "ParamVector",
    "Dataset",
    "RegressionDesign",
    "CsvSchema",
    "make_dataset",
    "build_design",
    "load_csv",
    "write_csv",
]


@dataclass(frozen=True)
class ParamVector:
    """Coefficient vector split into the error-prone block ``beta`` (length p)
    and the error-free block ``gamma`` (length q+1, ``gamma[0]`` is the intercept)."""

    beta: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "beta", np.atleast_1d(np.asarray(self.beta, dtype=float)))
        object.__setattr__(self, "gamma", np.atleast_1d(np.asarray(self.gamma, dtype=float)))
        if not (np.all(np.isfinite(self.beta)) and np.all(np.isfinite(self.gamma))):
            raise ValidationError("parameter vector contains non-finite entries")

    @property
    def theta(self) -> np.ndarray:
        """Flat parameter vector ordered [beta, gamma]."""
        return np.concatenate([self.beta, self.gamma])

    @classmethod
    def from_theta(cls, theta, p: int) -> "ParamVector":
        theta = np.asarray(theta, dtype=float)
        return cls(beta=theta[:p], gamma=theta[p:])


def as_theta(theta_like) -> np.ndarray:
    """Coerce a ParamVector or array-like to a flat [beta, gamma] vector."""
    if isinstance(theta_like, ParamVector):
        return theta_like.theta
    return np.asarray(theta_like, dtype=float)


@dataclass(frozen=True)
class Dataset:
    """Immutable observed sample.

    Attributes
    ----------
    y : (n,) outcomes.
    z : (n, q+1) error-free design, first column identically one.
    w : (n, R_max, p) replicate surrogates; row j holds its n_rep[j] complete
        replicates in slots 0..n_rep[j]-1 and zeros in the slots after them.
    n_rep : (n,) replicate counts n_j >= 2; R_max is their maximum.
    w_bar : (n, p) replicate means.
    n, p, q : dimensions.

    All arrays are read-only.
    """

    y: np.ndarray
    z: np.ndarray
    w: np.ndarray
    n_rep: np.ndarray
    w_bar: np.ndarray
    n: int
    p: int
    q: int

    @property
    def w_reps(self) -> list:
        """Per-row views w[j, :n_rep[j]], each (n_j, p)."""
        return [wj[:r] for wj, r in zip(self.w, self.n_rep)]


def make_dataset(y, z, w_reps) -> Dataset:
    """Build and validate a Dataset.

    Parameters
    ----------
    y : (n,) outcomes.
    z : (n, q) error-free covariates WITHOUT the intercept column (q may be 0).
    w_reps : sequence of n arrays of shape (n_j, p); an (n, R, p) array is one.
    """
    y = np.array(y, dtype=float).reshape(-1)  # a copy: callers keep their arrays writable
    blocks = [np.asarray(w, dtype=float) for w in w_reps]
    if y.size == 0:
        raise ValidationError("no observations")
    if len(blocks) != y.size:
        raise ValidationError(f"got {len(blocks)} replicate blocks for {y.size} outcomes")
    shapes = [w.shape for w in blocks]
    p = shapes[0][-1] if shapes[0] else 0
    for j, shape in enumerate(shapes):
        if shape[1:] != (p,):
            raise ValidationError(f"row {j}: replicate block has shape {shape}, expected (n_j, {p})")
    if p == 0:
        raise ValidationError("replicate blocks have no columns")
    n_rep = np.array([shape[0] for shape in shapes], dtype=int)
    return _dataset(y, z, np.concatenate(blocks), n_rep)


def _dataset(y, z, flat, n_rep) -> Dataset:
    """Pack ``flat`` (sum n_j, p), the replicates of row 0, then row 1, ...,
    into the dense layout and validate the sample."""
    n = y.size
    z = np.asarray(z, dtype=float)
    if z.size == 0:
        z = np.empty((n, 0))
    elif z.shape == (n,):
        z = z[:, None]
    if z.ndim != 2 or z.shape[0] != n:
        raise ValidationError(f"error-free covariates have shape {z.shape}, expected ({n}, q)")
    q = z.shape[1]
    p = flat.shape[1]
    bad = np.flatnonzero(n_rep < 2)
    if bad.size:
        raise ValidationError(
            f"n_j<2: rows {bad.tolist()} have fewer than 2 complete replicates")
    w = np.zeros((n, n_rep.max(), p))
    w[np.arange(w.shape[1]) < n_rep[:, None]] = flat
    full_z = np.column_stack([np.ones(n), z])
    if not np.all(np.isfinite(y)):
        raise ValidationError("non-finite outcome values")
    if not np.all(np.isfinite(full_z)):
        raise ValidationError("non-finite error-free covariate values")
    bad = np.flatnonzero(~np.isfinite(w).all(axis=(1, 2)))
    if bad.size:
        raise ValidationError(f"row {bad[0]}: non-finite replicate values")
    if n < p + q + 2:
        raise ValidationError(f"need n >= p+q+2 = {p + q + 2}, got n = {n}")
    w_bar = w.sum(axis=1) / n_rep[:, None]
    for arr in (y, full_z, w, n_rep, w_bar):
        arr.setflags(write=False)
    return Dataset(y=y, z=full_z, w=w, n_rep=n_rep, w_bar=w_bar, n=n, p=p, q=q)


@dataclass(frozen=True)
class RegressionDesign:
    """Combined regression design ``v = [w_bar | z]`` with the (p, q) split."""

    v: np.ndarray  # (n, p+q+1)
    p: int
    q: int

    @property
    def k(self) -> int:
        return self.p + self.q + 1


def build_design(d: Dataset) -> RegressionDesign:
    return RegressionDesign(v=np.column_stack([d.w_bar, d.z]), p=d.p, q=d.q)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CsvSchema:
    """Column mapping for the wide CSV layout.

    Replicate columns are named ``{w_prefix}{k}_r{r}`` for covariate k = 1..p and
    replicate r = 1..R; p and R are inferred from the header. Empty replicate
    cells mark missing replicates; a replicate vector counts only if all p of
    its cells are present.
    """

    y: str
    z: tuple = ()
    w_prefix: str = "w"


def _parse_cells(cells, locate):
    """Parse a sequence of cells as floats. ``locate(m)`` gives the (row,
    column) of cell m, named in the CsvParseError for the first bad cell."""
    try:
        return np.fromiter(map(float, cells), dtype=float, count=len(cells))
    except ValueError:
        for m, text in enumerate(cells):
            try:
                float(text)
            except ValueError:
                row, column = locate(m)
                raise CsvParseError(
                    f"row {row}, column '{column}': cannot parse {text!r} as a number",
                    row=row,
                    column=column,
                ) from None
        raise


def load_csv(path, schema: CsvSchema) -> Dataset:
    """Load a wide-format CSV file into a Dataset.

    Raises CsvParseError for malformed numeric cells and for rows with more
    or fewer cells than the header, and ValidationError for an empty file,
    schema problems or rows with fewer than 2 complete replicate vectors.
    Data rows are numbered from 0; blank lines are skipped.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [line for line in csv.reader(fh) if line]
    if not lines:
        raise ValidationError("empty file: no header row")
    header, rows = lines[0], lines[1:]
    duplicates = sorted({name for name in header if header.count(name) > 1})
    if duplicates:
        raise ValidationError(f"duplicate column names {duplicates} in header")

    if schema.y not in header:
        raise ValidationError(f"outcome column '{schema.y}' not in header {header}")
    for name in schema.z:
        if name not in header:
            raise ValidationError(f"error-free column '{name}' not in header {header}")

    pat = re.compile(rf"^{re.escape(schema.w_prefix)}(\d+)_r(\d+)$")
    rep_cols = {}
    for name in header:
        m = pat.match(name)
        if m:
            rep_cols[(int(m.group(1)), int(m.group(2)))] = name
    if not rep_cols:
        raise ValidationError(
            f"no replicate columns matching '{schema.w_prefix}<k>_r<r>' in header {header}"
        )
    p = max(k for k, _ in rep_cols)
    n_rep_cols = max(r for _, r in rep_cols)
    missing = [(k, r) for k in range(1, p + 1) for r in range(1, n_rep_cols + 1)
               if (k, r) not in rep_cols]
    if missing:
        raise ValidationError(f"incomplete replicate column grid; missing {missing}")
    if n_rep_cols < 2:
        raise ValidationError("n_j<2: schema provides a single replicate column per covariate")
    if not rows:
        raise ValidationError("no data rows after the header")
    lengths = np.fromiter(map(len, rows), dtype=int, count=len(rows))
    bad = np.flatnonzero(lengths != len(header))
    if bad.size:
        i, cells = int(bad[0]), int(lengths[bad[0]])
        # a short row names its first missing column, a long row its first extra cell
        column = header[cells] if cells < len(header) else len(header)
        raise CsvParseError(
            f"row {i}: {cells} cells, header has {len(header)}", row=i, column=column)

    n = len(rows)
    cols = dict(zip(header, zip(*rows)))
    y = _parse_cells(cols[schema.y], lambda m: (m, schema.y))
    z = np.array([_parse_cells(cols[name], lambda m, name=name: (m, name))
                  for name in schema.z]).reshape(len(schema.z), n).T
    # text[j, r, k] is the cell of covariate k+1, replicate r+1 in row j
    text = np.array([cols[rep_cols[(k, r)]] for r in range(1, n_rep_cols + 1)
                     for k in range(1, p + 1)], dtype=object).T.reshape(n, n_rep_cols, p)
    filled = np.fromiter(map(bool, map(str.strip, text.flat)), dtype=bool, count=text.size)
    complete = filled.reshape(text.shape).all(axis=2)
    row_of, slot_of = np.nonzero(complete)
    cells = text[complete].ravel()
    flat = _parse_cells(cells, lambda m: (int(row_of[m // p]),
                                          rep_cols[(m % p + 1, int(slot_of[m // p]) + 1)]))
    return _dataset(y, z, flat.reshape(-1, p), complete.sum(axis=1))


def write_csv(d: Dataset, path, schema: CsvSchema | None = None) -> None:
    """Write a Dataset in the wide CSV layout read by load_csv.

    Floats are written with repr so a load_csv round trip is bit-identical.
    The intercept column is never written; padded replicate slots are empty
    cells.
    """
    if schema is None:
        schema = CsvSchema(y="y", z=tuple(f"z{i + 1}" for i in range(d.q)))
    if len(schema.z) != d.q:
        raise ValidationError(
            f"schema names {len(schema.z)} error-free columns, dataset has q = {d.q}")
    r_max = d.w.shape[1]
    header = [schema.y, *schema.z]
    header += [f"{schema.w_prefix}{k}_r{r}" for r in range(1, r_max + 1)
               for k in range(1, d.p + 1)]
    # w[j].ravel() runs over replicates, then covariates: the header's order
    values = np.column_stack([d.y, d.z[:, 1:], d.w.reshape(d.n, -1)])
    filled = np.column_stack([np.ones((d.n, 1 + d.q), dtype=bool),
                              np.repeat(np.arange(r_max) < d.n_rep[:, None], d.p, axis=1)])
    table = np.full(values.shape, "", dtype=object)
    table[filled] = list(map(repr, values[filled].tolist()))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(table.tolist())
