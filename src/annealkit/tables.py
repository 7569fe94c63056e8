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


def format_row(row: Sequence) -> str:
    return " ".join(_format_value(x) for x in row)


def write_table(path, columns: Sequence[str], rows: Iterable[Sequence],
                meta: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in (meta or {}).items():
            fh.write(f"# {key}: {value}\n")
        fh.write(" ".join(columns) + "\n")
        for row in rows:
            fh.write(format_row(row) + "\n")


def append_row(path, columns: Sequence[str], row: Sequence,
               meta: dict | None = None) -> None:
    """Append one row, creating the file with headers on first use."""
    if not os.path.exists(path):
        write_table(path, columns, [row], meta)
        return
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(format_row(row) + "\n")
        fh.flush()
        os.fsync(fh.fileno())


class Table:
    """Parsed table: metadata dict plus named float columns."""

    def __init__(self, meta: dict, columns: Sequence[str], data: np.ndarray):
        self.meta = meta
        self.columns = list(columns)
        self.data = data

    def __len__(self) -> int:
        return self.data.shape[0]

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self.data[:, self.columns.index(name)]
        except ValueError:
            raise SchemaError(f"table has no column {name!r}; has {self.columns}")

    def has_column(self, name: str) -> bool:
        return name in self.columns

    def rows(self):
        return (tuple(r) for r in self.data)


def read_table(path) -> Table:
    """Parse a table; malformed content raises SchemaError."""
    meta = {}
    columns = None
    rows = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8 text: {exc}") from None
    for line in lines:
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if ":" in body:
                key, _, value = body.partition(":")
                meta[key.strip()] = value.strip()
            continue
        if columns is None:
            columns = line.split()
            continue
        parts = line.split()
        if len(parts) != len(columns):
            raise SchemaError(f"row width {len(parts)} != header width "
                              f"{len(columns)} in {path}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise SchemaError(f"non-numeric entry in {path}: {line!r}") from None
    if columns is None:
        raise SchemaError(f"{path} has no column header line")
    data = np.array(rows, dtype=float) if rows else np.empty((0, len(columns)))
    return Table(meta, columns, data)


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
