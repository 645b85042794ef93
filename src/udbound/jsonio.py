"""JSON codecs shared by the file formats.

A complex matrix is stored in one of two forms, and every decoder reads
both, wherever a matrix may appear:

- dense: nested rows of [re, im] pairs of finite numbers;
- coordinate, for a square matrix: ``{"side": n, "rows": [...],
  "cols": [...], "re": [...], "im": [...]}``, one list item per stored
  entry, the layout of a Matrix Market coordinate file.  Every entry not
  listed is +0.0.

Floats go through Python's repr, so a save/load round trip is exact at
double precision in either form.  The writer picks the form by one rule,
:func:`_is_sparse`, from the matrix alone: an entry counts as nonzero by
its bit pattern (so -0.0 is kept), and a square matrix at most half of
whose entries are nonzero is written as coordinates.  This module alone
maps the wire format to arrays and validated operators; the other file
formats decode their matrices through ``operator_from_json``,
``matrices_from_json`` and ``matrix_groups_from_json``.

A file is loaded in one pass, ``read_json(path, decode)``: the text is read
and parsed, then released, and the parsed tree is decoded and validated,
all under one pause of the cyclic garbage collector; the tree is dropped
before the collector resumes.  A dense matrix is decoded from one flat list
of its numbers through one ``np.array`` call, after the row and pair
lengths are checked, and a list of same-side dense matrices shares one such
call.  Coordinate objects have one decoder, :func:`_coordinate_stack`,
whose docstring states their rules and the order they are checked in: a
single object is decoded as a list of one, its rows and cols through one
``np.array`` call and its re and im through another, and a list of
same-side objects in one pass, each key's lists concatenated first.  A
list of lists, such as a decomposition's terms or a protocol's site POVMs,
is decoded as one such list.  If a one-pass check fails, each matrix is
decoded on its own, so an error names the first bad field.

Every JSON text the package writes comes from ``dumps``, which reproduces
``json.dumps(obj, indent=2, sort_keys=True)`` byte for byte.
``matrix_to_json`` returns the coordinate form as a dict of lists, and the
dense form as a float64 (r, c, 2) array, not lists: ``dumps`` writes a
pair whose parts are both +0.0 as one constant string per indent level,
and every other pair from one C-encoder pass over the nonzero parts.  A
list of ints and floats, such as a coordinate list, is written from one
C-encoder pass, and so is a dense matrix read back from a file, nested
lists of float pairs; every other list is written item by item.
"""

from __future__ import annotations

import gc
import json
from itertools import accumulate, chain
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Optional, Union

import numpy as np

from .operators import DimVector, HermitianOperator


class SchemaError(ValueError):
    """A file does not match the expected schema; the message names the field."""


def matrix_to_json(mat: np.ndarray) -> Union[dict, np.ndarray]:
    """The coordinate object of ``mat`` if :func:`_is_sparse` holds, else its float64 (r, c, 2) array of
    [re, im] pairs; ``dumps`` writes either."""
    mat = np.asarray(mat, dtype=np.complex128)
    pairs = np.stack((mat.real, mat.imag), axis=-1)
    nonzero = pairs.view(np.uint64).any(axis=-1)
    if not _is_sparse(nonzero):
        return pairs
    rows, cols = np.nonzero(nonzero)
    entries = pairs[rows, cols]
    return {
        "side": len(pairs),
        "rows": rows.tolist(),
        "cols": cols.tolist(),
        "re": entries[:, 0].tolist(),
        "im": entries[:, 1].tolist(),
    }


def _is_sparse(nonzero: np.ndarray) -> bool:
    """The writer's one rule, on the mask of entries whose bits are not all zero: a non-empty square
    matrix with at most half of its entries nonzero is written as coordinates."""
    rows, cols = nonzero.shape
    return rows == cols > 0 and 2 * np.count_nonzero(nonzero) <= nonzero.size


def matrix_from_json(data: Any, field: str) -> np.ndarray:
    """Decode a square matrix, a coordinate object or dense [re, im] pairs of finite numbers.

    A dict is read by :func:`_coordinate_stack` as a list of one, a list as
    a JSON tree through :func:`_stack`.  Any other value, such as the
    float64 (r, c, 2) array of :func:`matrix_to_json`, goes through one
    ``np.array`` call under the dense rules.
    """
    if isinstance(data, dict):
        return _coordinate_stack([data], field)[0]
    if isinstance(data, list):
        stack = _stack([data])
    else:
        try:
            arr = np.array(data)
        except (TypeError, ValueError):
            arr = np.empty(0)
        side = len(arr) if arr.ndim else 0
        stack = _complex(arr, (1, side, side)) if arr.shape == (side, side, 2) else None
    if stack is None:
        raise SchemaError(f"{field}: expected a non-empty square list of rows of finite [re, im] pairs")
    return stack[0]


def matrices_from_json(data: Any, field: str) -> tuple[np.ndarray, ...]:
    """Decode a non-empty list of matrices, in one pass when all are in one form and share one side.

    Otherwise, or if one is malformed, each is decoded on its own, so an
    error names the first bad ``field[k]``.
    """
    if not isinstance(data, list) or not data:
        raise SchemaError(f"{field}: expected a non-empty list of matrices")
    stack = _one_pass(data, field)
    if stack is None:
        return tuple(matrix_from_json(m, f"{field}[{k}]") for k, m in enumerate(data))
    return tuple(stack)


def matrix_groups_from_json(data: list, field: str) -> tuple[tuple[np.ndarray, ...], ...]:
    """Decode a list of non-empty lists of matrices, such as a decomposition's terms, in one pass over all of them.

    Otherwise, or if one is malformed, each list goes through
    :func:`matrices_from_json` as ``field[t]``, so an error names the
    first bad ``field[t]`` or ``field[t][k]``.
    """
    if data and all(isinstance(group, list) and group for group in data):
        stack = _one_pass(list(chain.from_iterable(data)), field)
        if stack is not None:
            ends = accumulate(map(len, data))
            return tuple(tuple(stack[end - len(group) : end]) for group, end in zip(data, ends))
    return tuple(matrices_from_json(group, f"{field}[{t}]") for t, group in enumerate(data))


def _one_pass(mats: list, field: str) -> Optional[np.ndarray]:
    """The complex (k, n, n) stack of k matrices that are all dense or all coordinate objects, of one side n;
    None if they are not, or if one is malformed."""
    coordinate = [isinstance(m, dict) for m in mats]
    if all(coordinate):
        try:
            return _coordinate_stack(mats, field)
        except SchemaError:
            return None
    return None if any(coordinate) else _stack(mats)


_COORDINATE_KEYS = frozenset({"side", "rows", "cols", "re", "im"})
_LISTS = itemgetter("rows", "cols", "re", "im")


def _coordinate_stack(mats: list[dict], field: str) -> np.ndarray:
    """The complex (k, n, n) stack of k >= 1 coordinate objects of one side n.

    The rules, checked in this order over all k objects; the first one
    broken is a SchemaError naming ``field``:

    1. exactly the five keys;
    2. ``side`` a positive JSON integer below 2**31, so that row * side +
       col fits in 64 bits, and one side for all;
    3. rows, cols, re and im lists of one length in each object;
    4. JSON integers in [0, side) as rows, then as cols;
    5. no (matrix, row, col) listed twice;
    6. room in memory for the k * side**2 entries;
    7. finite JSON numbers as re, then as im.

    The rows and cols go through one ``np.array`` call, and so do the re
    and im: one object's lists as they are, k objects' lists concatenated
    per key, each row then offset by its matrix.  Only when a call's items
    break a rule are the rows, or the re, checked alone, to name the key.
    """
    if not all(m.keys() == _COORDINATE_KEYS for m in mats):
        raise SchemaError(f"{field}: expected a coordinate object with exactly the keys cols, im, re, rows, side")
    side = mats[0]["side"]
    if not (_is_int(side) and 0 < side < 2**31):
        raise SchemaError(f"{field}.side: expected a positive integer below 2**31")
    if not all(_is_int(m["side"]) and m["side"] == side for m in mats):
        raise SchemaError(f"{field}.side: expected one side for all matrices")
    lists = list(map(_LISTS, mats))
    if not all(isinstance(v, list) for each in lists for v in each) or any(
        len(set(map(len, each))) != 1 for each in lists
    ):
        raise SchemaError(f"{field}: expected rows, cols, re and im as lists of one length")
    rows, cols, re, im = lists[0] if len(mats) == 1 else map(list, map(chain.from_iterable, zip(*lists)))
    index = _indices(rows + cols, side)
    if index is None:
        key = "rows" if _indices(rows, side) is None else "cols"
        raise SchemaError(f"{field}.{key}: expected integers in [0, side)")
    flat = index[: len(rows)] * side + index[len(rows) :]
    if len(mats) > 1:  # k * side**2 can pass 2**64 only where the allocation below fails
        flat += np.repeat(np.arange(len(mats), dtype=np.uint64) * (side * side), [len(each[0]) for each in lists])
    ordered = np.sort(flat)
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    if repeated.size:
        raise SchemaError(f"{field}: entry {divmod(int(repeated[0]) % (side * side), side)} is listed twice")
    try:
        pairs = np.zeros((len(mats) * side * side, 2))
    except (MemoryError, ValueError) as exc:  # a few bytes of file can ask for petabytes, past numpy's largest size
        raise SchemaError(f"{field}.side: {side}**2 entries do not fit in memory") from exc
    values = _finite(re + im)
    if values is None:
        key = "re" if _finite(re) is None else "im"
        raise SchemaError(f"{field}.{key}: expected finite numbers")
    pairs[flat] = values.reshape(2, -1).T
    return pairs.view(np.complex128).reshape(len(mats), side, side)


def _indices(values: list, side: int) -> Optional[np.ndarray]:
    """``values`` as a uint64 array if each is a JSON integer in [0, side), else None."""
    index = _numbers(values, (int,), np.uint64)
    # as uint64 a negative index fails (numpy 1 wraps it past 2**63), so one maximum checks the range
    return None if index is None or (index.size and index.max() >= side) else index


def _finite(values: list) -> Optional[np.ndarray]:
    """``values`` as a float64 array if each is a finite JSON number, else None."""
    array = _numbers(values, (int, float), np.float64)
    return None if array is None or not np.isfinite(array).all() else array


def _numbers(values: list, types: tuple[type, ...], dtype) -> Optional[np.ndarray]:
    """``values`` as an array of ``dtype`` if each item's type is one of ``types`` (so never a bool), else None."""
    if not set(map(type, values)) <= set(types):
        return None
    try:
        return np.array(values, dtype=dtype)
    except OverflowError:
        return None


def _stack(mats: list) -> Optional[np.ndarray]:
    """The complex (k, n, n) stack of k matrices of one side n, each n rows of n
    [re, im] pairs; None if one is malformed.

    The row and pair lengths are checked first.  Then every number goes, in
    one flat list, through one ``np.array`` call without a target dtype, so
    strings, nulls and out-of-range integers give a non-numeric dtype and are
    rejected rather than coerced.
    """
    try:
        side = len(mats[0])
        rows = list(chain.from_iterable(mats))
        if (
            set(map(len, mats)) != {side}
            or set(map(len, rows)) != {side}
            or set(map(len, chain.from_iterable(rows))) != {2}
        ):
            return None
        flat = np.array(list(chain.from_iterable(chain.from_iterable(rows))))
    except (TypeError, ValueError):
        return None
    if flat.shape != (2 * side * len(rows),):
        return None
    return _complex(flat, (len(mats), side, side))


def _complex(arr: np.ndarray, shape: tuple[int, ...]) -> Optional[np.ndarray]:
    """The finite numbers of ``arr``, read as [re, im] pairs, as a complex array of ``shape``; else None."""
    if arr.dtype.kind not in "biuf" or not np.isfinite(arr).all():
        return None
    return np.ascontiguousarray(arr, dtype=np.float64).view(np.complex128).reshape(shape)


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
# list items written together by one C-encoder pass: no text of theirs contains ", "
_NUMBER_TYPES = (int, float)


def dumps(obj: Any) -> str:
    """The text of ``json.dumps(obj, indent=2, sort_keys=True)``."""
    return "".join(_parts(obj))


def _parts(obj: Any) -> list[str]:
    """The text of :func:`dumps` in pieces, unjoined."""
    parts: list[str] = []
    _write(obj, "\n", parts.append)
    return parts


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
        if all(type(x) in _NUMBER_TYPES for x in obj):
            out("[" + inner + ("," + inner).join(_encode(obj)[1:-1].split(", ")) + newline + "]")
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


def write_json(path: Union[str, Path], payload: dict) -> list[str]:
    """Write ``dumps(payload)`` and a newline to ``path``; return the pieces written.

    The pieces go to the file one by one, so the whole text is never held
    as one string; joined, they are the text written.
    """
    parts = _parts(payload)
    parts.append("\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(parts)
    return parts


def read_json(path: Union[str, Path], decode: Optional[Callable[[Any], Any]] = None) -> Any:
    """Parse the JSON file at ``path``; with ``decode``, return ``decode`` of the parsed tree.

    The parse builds an acyclic tree, of one list per dense [re, im] pair,
    so a cyclic collection while the tree lives frees nothing and only
    traverses it.  The collector is paused from the read until the tree is
    dropped, after ``decode``, and the caller's setting is then restored;
    the text is released before decoding.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        text = Path(path).read_text(encoding="utf-8")
        try:
            tree = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: invalid JSON ({exc})") from exc
        del text
        if decode is not None:
            tree = decode(tree)  # rebinding drops the parsed tree while the collector is paused
        return tree
    finally:
        if enabled:
            gc.enable()


def save_certificate(op: HermitianOperator, path: Union[str, Path]) -> None:
    write_json(path, operator_to_dict(op))


def load_certificate(path: Union[str, Path]) -> HermitianOperator:
    return read_json(path, lambda data: operator_from_dict(data, field=str(path)))
