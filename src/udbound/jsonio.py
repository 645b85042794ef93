"""JSON codecs shared by the file formats.

Complex matrices are stored as nested rows of [re, im] pairs of finite
numbers; floats go through Python's repr, so a save/load round trip is
exact at double precision.  This module alone maps that wire format to
arrays and validated operators; the other file formats decode their
matrices through ``operator_from_json`` and ``matrices_from_json``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Union

import numpy as np

from .operators import DimVector, HermitianOperator


class SchemaError(ValueError):
    """A file does not match the expected schema; the message names the field."""


def matrix_to_json(mat: np.ndarray) -> list:
    mat = np.asarray(mat, dtype=np.complex128)
    return np.stack((mat.real, mat.imag), axis=-1).tolist()


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


def dims_from_json(data: Any, field: str = "dims") -> DimVector:
    if not isinstance(data, list) or not data or not all(isinstance(d, int) and d > 0 for d in data):
        raise SchemaError(f"{field}: expected a list of positive integers")
    return DimVector(tuple(data))


def operator_to_dict(op: HermitianOperator) -> dict:
    return {"dims": list(op.dims.dims), "matrix": matrix_to_json(op.matrix)}


def operator_from_dict(data: Any, field: str = "operator") -> HermitianOperator:
    if not isinstance(data, dict):
        raise SchemaError(f"{field}: expected an object")
    dims = dims_from_json(data.get("dims"), f"{field}.dims")
    return operator_from_json(data.get("matrix"), dims, f"{field}.matrix")


def write_json(path: Union[str, Path], payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    Path(path).write_text(text + "\n", encoding="utf-8")


def read_json(path: Union[str, Path]) -> Any:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from exc


def save_certificate(op: HermitianOperator, path: Union[str, Path]) -> None:
    write_json(path, operator_to_dict(op))


def load_certificate(path: Union[str, Path]) -> HermitianOperator:
    return operator_from_dict(read_json(path), field=str(path))
