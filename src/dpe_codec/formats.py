"""Deterministic JSON file formats: matrices, (read) vectors with null-coded
erasures, and free-form documents (scheme sidecars, fault logs, reports).

Files are written with sorted keys and a fixed indent so identical inputs
produce byte-identical outputs.
"""

from __future__ import annotations

import json
from pathlib import Path

from .core import QMatrix, ReadVector


def write_json(path: str | Path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path: str | Path):
    return json.loads(Path(path).read_text())


def write_matrix(path: str | Path, matrix: QMatrix) -> None:
    write_json(
        path,
        {
            "q": matrix.q,
            "rows": matrix.ell,
            "cols": matrix.ncols,
            "data": [v for row in matrix.rows for v in row],
        },
    )


def _read_table(path: str | Path, sizes: tuple[str, ...], entry_types: tuple[type, ...]) -> dict:
    """The object in a matrix or vector file: its size fields must be ints
    and `data` a list of `entry_types` (bool is not an int here)."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(data).__name__}")
    for key in sizes:
        if type(data.get(key)) is not int:
            raise ValueError(f"{path}: {key} must be an integer, got {data.get(key)!r}")
    flat = data.get("data")
    if not isinstance(flat, list):
        raise ValueError(f"{path}: data must be a list")
    for j, v in enumerate(flat):
        if type(v) not in entry_types:
            raise ValueError(f"{path}: data entry {j} = {v!r} is not an integer")
    return data


def read_matrix(path: str | Path) -> QMatrix:
    data = _read_table(path, ("rows", "cols"), (int,))
    rows, cols = data["rows"], data["cols"]
    flat = data["data"]
    if len(flat) != rows * cols:
        raise ValueError(f"{path}: data length {len(flat)} != rows*cols = {rows * cols}")
    return QMatrix(
        data.get("q"), tuple(tuple(flat[i * cols : (i + 1) * cols]) for i in range(rows))
    )


def write_vector(path: str | Path, vector: ReadVector, bound: int) -> None:
    data = list(vector.entries)
    for j in vector.erased:
        data[j] = None
    write_json(
        path,
        {
            "q": bound,
            "rows": 1,
            "cols": vector.n,
            "data": data,
            "erasures": list(vector.erased),
        },
    )


def read_vector(path: str | Path) -> tuple[ReadVector, int]:
    data = _read_table(path, ("q", "cols"), (int, type(None)))
    values = data["data"]
    if len(values) != data["cols"]:
        raise ValueError(f"{path}: data length {len(values)} != cols = {data['cols']}")
    listed = data.get("erasures", [])
    if not isinstance(listed, list) or not all(type(j) is int for j in listed):
        raise ValueError(f"{path}: erasures must be a list of column indices")
    erased = set(listed)
    erased.update(j for j, v in enumerate(values) if v is None)
    return ReadVector.with_erasures(values, erased), data["q"]
