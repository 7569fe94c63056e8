"""Delimited text tables with commented headers.

Every output table starts with '# key: value' metadata lines (schema
name, config digest, tool version), then a whitespace-separated column
header line, then one row per line.  Floats are written with repr so a
rerun with the same seed produces byte-identical files; timestamps never
appear here (sidecar metadata only).
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Sequence

import numpy as np

from .errors import SchemaError


def _format_value(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _format_column(values) -> list:
    """Cells of one column.  A bool, int or float array is formatted one
    distinct bit pattern at a time, so signed zeros and every NaN keep
    their own cells; anything else is formatted value by value."""
    dtype = getattr(values, "dtype", None)
    if dtype is None or dtype.kind not in "biuf" or dtype.itemsize > 8:
        return list(map(_format_value, values))
    bits, where = np.unique(
        np.ascontiguousarray(values).view(f"u{dtype.itemsize}"),
        return_inverse=True)
    cells = np.array(list(map(_format_value, bits.view(dtype))), dtype=object)
    return cells[where].tolist()


# rows formatted per write: bounds the cells held in memory at once
_CHUNK_ROWS = 2048


def write_table(path, columns: Sequence[str], rows: Iterable[Sequence] | dict,
                meta: dict | None = None) -> None:
    """Write a table from an iterable of rows, or from a dict mapping each
    column name to a 1-D array of equal length."""
    if isinstance(rows, dict):
        data = [rows[name] for name in columns]
    else:
        data = list(zip(*rows)) or [()]
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in (meta or {}).items():
            fh.write(f"# {key}: {value}\n")
        fh.write(" ".join(columns) + "\n")
        for start in range(0, len(data[0]), _CHUNK_ROWS):
            cells = [_format_column(col[start:start + _CHUNK_ROWS])
                     for col in data]
            fh.write("\n".join(map(" ".join, zip(*cells))) + "\n")


def append_row(path, columns: Sequence[str], row: Sequence,
               meta: dict | None = None) -> None:
    """Append one row, creating the file with headers on first use.

    An existing file must be a table that `read_table` accepts with the
    `# schema:` (when `meta` names one) and column line of the file this
    call would create; anything else raises SchemaError.
    """
    if not os.path.exists(path):
        write_table(path, columns, [row], meta)
        return
    read_table(path, (meta or {}).get("schema"), columns)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(" ".join(map(_format_value, row)) + "\n")
        fh.flush()
        os.fsync(fh.fileno())


# floats hold every integer below this exactly
_EXACT = 2 ** 53


class Table:
    """Parsed table: metadata dict plus named float columns."""

    def __init__(self, meta: dict, columns: Sequence[str], data: np.ndarray,
                 path):
        self.meta = meta
        self.columns = list(columns)
        self.data = data
        self.path = path

    def __len__(self) -> int:
        return self.data.shape[0]

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self.data[:, self.columns.index(name)]
        except ValueError:
            raise SchemaError(f"{self.path} has no column {name!r}; has "
                              f"{self.columns}") from None

    def counts(self, names: Sequence[str], high: int = _EXACT) -> np.ndarray:
        """The named columns as an (n, len(names)) int64 array; SchemaError
        unless every entry is an integer in [0, high)."""
        values = np.stack([self[name] for name in names], axis=1)
        if not np.all((values >= 0) & (values < high)
                      & (values == np.trunc(values))):
            raise SchemaError(f"{self.path}: {', '.join(names)} must be "
                              f"integers in [0, {high})")
        return values.astype(np.int64)


def read_table(path, schema: str | None = None,
               columns: Sequence[str] | None = None) -> Table:
    """Parse a table; malformed content raises SchemaError, and so does a
    `# schema:` tag other than `schema` or a column line other than
    `columns` when they are given.

    The column line is the first line that is neither blank nor a
    comment; the '# key: value' lines before it are the metadata.  The
    body after it is parsed by one numpy call, which skips blank
    lines and everything from a '#' to the end of its line."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8 text: {exc}") from None
    meta, have, lines = {}, None, text.split("\n")
    for count, line in enumerate(lines, 1):
        fields = line.split()
        if fields and fields[0].startswith("#"):
            key, colon, value = line.strip()[1:].partition(":")
            if colon:
                meta[key.strip()] = value.strip()
        elif fields:
            have = fields
            break
    if have is None:
        raise SchemaError(f"{path} has no column header line")
    if schema is not None and meta.get("schema") != schema:
        raise SchemaError(f"{path} holds a {meta.get('schema')} table, "
                          f"not a {schema} table")
    if columns is not None and have != list(columns):
        raise SchemaError(f"{path}: columns '{' '.join(have)}' are not "
                          f"'{' '.join(columns)}'")
    import warnings

    try:
        with warnings.catch_warnings():   # an empty body is no table error
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(lines[count:], dtype=float, comments="#",
                              ndmin=2)
    except ValueError as exc:
        raise SchemaError(f"malformed rows in {path}: {exc}") from None
    if not len(data):
        data = np.empty((0, len(have)))
    elif data.shape[1] != len(have):
        raise SchemaError(f"row width {data.shape[1]} != header width "
                          f"{len(have)} in {path}")
    return Table(meta, have, data, path)


def read_document(path, schema: str | None = None) -> dict:
    """Load a JSON object, checking its schema tag when one is given;
    malformed content raises SchemaError."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # invalid JSON or undecodable bytes
        raise SchemaError(f"{path}: {exc}") from None
    if not isinstance(doc, dict) or \
            (schema is not None and doc.get("schema") != schema):
        raise SchemaError(f"{path} is not a {schema or 'JSON object'} document")
    return doc


# a JSON number may be written without a fraction; a bool is never a number
_JSON_TYPES = {int: int, float: (int, float), bool: bool, list: list}


def require_fields(doc, fields: dict, where: str) -> dict:
    """Check that `doc` is an object holding each key of `fields` with a
    value of the mapped type (int, float, bool or list); anything missing
    or ill-typed raises SchemaError naming `where`."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{where} is not a JSON object")
    for key, kind in fields.items():
        value = doc.get(key)
        if not isinstance(value, _JSON_TYPES[kind]) or \
                (kind is not bool and isinstance(value, bool)):
            raise SchemaError(f"{where}: {key!r} is missing or not "
                              f"{kind.__name__}")
    return doc


def write_document(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
