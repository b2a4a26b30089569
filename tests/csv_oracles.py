"""Whole-file CSV writer and reader, kept as test oracles for the streaming
`eivgmm.model_data.write_csv` and `load_csv`, which format and parse the
file in blocks of rows. These hold the whole file as Python strings at once:
the writer an object table of every cell's text, the reader every row's
list of cells."""

import csv
import re

import numpy as np

from eivgmm.errors import CsvParseError
from eivgmm.model_data import CsvSchema, _dataset, _parse_cells


def write_csv_whole(d, path, schema=None):
    """write_csv through one object table of every cell and csv.writer."""
    if schema is None:
        schema = CsvSchema(y="y", z=tuple(f"z{i + 1}" for i in range(d.q)))
    r_max = d.w.shape[1]
    header = [schema.y, *schema.z]
    header += [f"{schema.w_prefix}{k}_r{r}" for r in range(1, r_max + 1)
               for k in range(1, d.p + 1)]
    values = np.column_stack([d.y, d.z[:, 1:], d.w.reshape(d.n, -1)])
    filled = np.column_stack([np.ones((d.n, 1 + d.q), dtype=bool),
                              np.repeat(np.arange(r_max) < d.n_rep[:, None], d.p, axis=1)])
    table = np.full(values.shape, "", dtype=object)
    table[filled] = list(map(repr, values[filled].tolist()))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(table.tolist())


def load_csv_whole(path, schema):
    """load_csv over the list of every row, for a header load_csv accepts:
    every row's length is checked before any cell is parsed."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [line for line in csv.reader(fh) if line]
    header, rows = lines[0], lines[1:]
    pat = re.compile(rf"^{re.escape(schema.w_prefix)}(\d+)_r(\d+)$")
    rep_cols = {}
    for name in header:
        m = pat.match(name)
        if m:
            rep_cols[(int(m.group(1)), int(m.group(2)))] = name
    p = max(k for k, _ in rep_cols)
    n_rep_cols = max(r for _, r in rep_cols)
    lengths = np.fromiter(map(len, rows), dtype=int, count=len(rows))
    bad = np.flatnonzero(lengths != len(header))
    if bad.size:
        i, cells = int(bad[0]), int(lengths[bad[0]])
        column = header[cells] if cells < len(header) else len(header)
        raise CsvParseError(
            f"row {i}: {cells} cells, header has {len(header)}", row=i, column=column)

    n = len(rows)
    cols = dict(zip(header, zip(*rows)))
    y = _parse_cells(cols[schema.y], lambda m: (m, schema.y))
    z = np.array([_parse_cells(cols[name], lambda m, name=name: (m, name))
                  for name in schema.z]).reshape(len(schema.z), n).T
    text = np.array([cols[rep_cols[(k, r)]] for r in range(1, n_rep_cols + 1)
                     for k in range(1, p + 1)], dtype=object).T.reshape(n, n_rep_cols, p)
    filled = np.fromiter(map(bool, map(str.strip, text.flat)), dtype=bool, count=text.size)
    complete = filled.reshape(text.shape).all(axis=2)
    row_of, slot_of = np.nonzero(complete)
    cells = text[complete].ravel()
    flat = _parse_cells(cells, lambda m: (int(row_of[m // p]),
                                          rep_cols[(m % p + 1, int(slot_of[m // p]) + 1)]))
    return _dataset(y, z, flat.reshape(-1, p), complete.sum(axis=1))
