"""JSON codecs shared by the file formats.

Complex matrices are stored as nested rows of [re, im] pairs of finite
numbers; floats go through Python's repr, so a save/load round trip is
exact at double precision.  This module alone maps that wire format to
arrays and validated operators; the other file formats decode their
matrices through ``operator_from_json`` and ``matrices_from_json``.

Every JSON text the package writes comes from ``dumps``, which reproduces
``json.dumps(obj, indent=2, sort_keys=True)`` byte for byte, with each
matrix leaf written as its nested lists would be.  ``matrix_to_json``
returns a float64 (r, c, 2) array, not lists: ``dumps`` writes a pair
whose parts are both +0.0 as one constant string per indent level, and
every other pair from one C-encoder pass over the nonzero parts.  A matrix
read back from a file, nested lists of float pairs, goes through the same
array writer; every other list is written item by item.
"""

from __future__ import annotations

import gc
import json
from pathlib import Path
from typing import Any, Union

import numpy as np

from .operators import DimVector, HermitianOperator


class SchemaError(ValueError):
    """A file does not match the expected schema; the message names the field."""


def matrix_to_json(mat: np.ndarray) -> np.ndarray:
    """The float64 (r, c, 2) array of [re, im] pairs; ``dumps`` writes it as nested lists."""
    mat = np.asarray(mat, dtype=np.complex128)
    return np.stack((mat.real, mat.imag), axis=-1)


def matrix_from_json(data: Any, field: str) -> np.ndarray:
    """Decode a square matrix of finite [re, im] pairs.

    The array is built without a target dtype, so strings, nulls and
    out-of-range integers give a non-numeric dtype and are rejected rather
    than coerced; ragged rows fail the conversion or the shape check.
    """
    try:
        arr = np.array(data)
    except (TypeError, ValueError):
        arr = np.empty(0)
    side = len(arr) if arr.ndim else 0
    if arr.shape != (side, side, 2) or arr.dtype.kind not in "biuf" or not np.isfinite(arr).all():
        raise SchemaError(f"{field}: expected a non-empty square list of rows of finite [re, im] pairs")
    return np.ascontiguousarray(arr, dtype=np.float64).view(np.complex128).reshape(side, side)


def matrices_from_json(data: Any, field: str) -> tuple[np.ndarray, ...]:
    if not isinstance(data, list) or not data:
        raise SchemaError(f"{field}: expected a non-empty list of matrices")
    return tuple(matrix_from_json(m, f"{field}[{k}]") for k, m in enumerate(data))


def operator_from_json(data: Any, dims: DimVector, field: str) -> HermitianOperator:
    mat = matrix_from_json(data, field)
    try:
        return HermitianOperator(mat, dims)
    except ValueError as exc:
        raise SchemaError(f"{field}: {exc}") from exc


def _is_int(value: Any) -> bool:
    """A JSON integer: ``int`` but not ``bool``, which subclasses it."""
    return isinstance(value, int) and not isinstance(value, bool)


def dims_from_json(data: Any, field: str = "dims") -> DimVector:
    if not isinstance(data, list) or not data or not all(_is_int(d) and d > 0 for d in data):
        raise SchemaError(f"{field}: expected a list of positive integers")
    return DimVector(tuple(data))


def operator_to_dict(op: HermitianOperator) -> dict:
    return {"dims": list(op.dims.dims), "matrix": matrix_to_json(op.matrix)}


def operator_from_dict(data: Any, field: str = "operator") -> HermitianOperator:
    if not isinstance(data, dict):
        raise SchemaError(f"{field}: expected an object")
    dims = dims_from_json(data.get("dims"), f"{field}.dims")
    return operator_from_json(data.get("matrix"), dims, f"{field}.matrix")


_encode = json.JSONEncoder(sort_keys=True).encode


def dumps(obj: Any) -> str:
    """The text of ``json.dumps(obj, indent=2, sort_keys=True)``."""
    parts: list[str] = []
    _write(obj, "\n", parts.append)
    return "".join(parts)


def _write(obj: Any, newline: str, out) -> None:
    """Append the indented text of obj; ``newline`` is "\\n" plus its indent."""
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            out("{}")
            return
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                if not (key is None or isinstance(key, (int, float))):
                    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
                key = _encode(key)
            out(sep + _encode(key) + ": ")
            _write(value, inner, out)
            sep = "," + inner
        out(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out("[]")
            return
        pairs = _as_pairs(obj)
        if pairs is not None:
            _write_matrix(pairs, newline, out)
            return
        sep = "[" + inner
        for item in obj:
            out(sep)
            _write(item, inner, out)
            sep = "," + inner
        out(newline + "]")
    elif isinstance(obj, np.ndarray):
        _write_matrix(obj, newline, out)
    else:
        out(_encode(obj))


def _write_matrix(arr: np.ndarray, newline: str, out) -> None:
    """Append the indented text of ``arr.tolist()`` for a float64 (r, c, 2) array.

    A pair of two +0.0 (by bit pattern, so -0.0 is not zero) is one
    constant string.  The nonzero pairs' parts go through the C encoder as
    one flat list, which prints ``float.__repr__`` and NaN/Infinity as
    ``json.dumps`` does, and builds no list per pair.
    """
    if arr.dtype != np.float64 or arr.ndim != 3 or arr.shape[2] != 2:
        raise TypeError(f"an array leaf must be float64 of shape (r, c, 2), not {arr.dtype} {arr.shape}")
    if not arr.size:
        _write(arr.tolist(), newline, out)
        return
    rows, cols, _ = arr.shape
    p0, p1, p2, p3 = (newline + "  " * t for t in range(4))
    pairs = arr.reshape(-1, 2)
    nonzero = np.flatnonzero(pairs.view(np.uint64).any(axis=1))
    # each cell carries its own leading newline, so the cells join with ","
    cells = [p2 + "[" + p3 + "0.0," + p3 + "0.0" + p2 + "]"] * (rows * cols)
    if nonzero.size:
        parts = _encode(pairs[nonzero].ravel().tolist())[1:-1].split(", ")
        pair = (p2 + "[" + p3 + "{}," + p3 + "{}" + p2 + "]").format
        for k, text in zip(nonzero.tolist(), map(pair, parts[0::2], parts[1::2])):
            cells[k] = text
    for first in range(0, rows * cols, cols):
        cells[first] = p1 + "[" + cells[first]
        cells[first + cols - 1] += p1 + "]"
    out("[")
    out(",".join(cells))
    out(p0 + "]")


def _as_pairs(obj: Union[list, tuple]) -> Union[np.ndarray, None]:
    """The float64 (r, c, 2) array of nested rows of [re, im] float pairs, else None.

    A matrix read back from a file arrives in this form.  Only ``float``
    leaves qualify, so an int, bool or string keeps its own text; ragged
    rows fail the conversion or the shape check.
    """
    try:
        if not all(type(x) is float for row in obj for pair in row for x in pair):
            return None
        arr = np.array(obj, dtype=np.float64)
    except (TypeError, ValueError):
        return None
    return arr if arr.ndim == 3 and arr.shape[2] == 2 and arr.size else None


def write_json(path: Union[str, Path], payload: dict) -> str:
    """Write ``dumps(payload)`` and a newline to ``path``; return the text written."""
    text = dumps(payload) + "\n"
    Path(path).write_text(text, encoding="utf-8")
    return text


def read_json(path: Union[str, Path]) -> Any:
    text = Path(path).read_text(encoding="utf-8")
    # The parse builds an acyclic tree of one list per [re, im] pair, so a
    # cyclic collection during it frees nothing and only re-traverses the
    # growing tree; pause the collector, restoring the caller's setting.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from exc
    finally:
        if enabled:
            gc.enable()


def save_certificate(op: HermitianOperator, path: Union[str, Path]) -> None:
    write_json(path, operator_to_dict(op))


def load_certificate(path: Union[str, Path]) -> HermitianOperator:
    return operator_from_dict(read_json(path), field=str(path))
