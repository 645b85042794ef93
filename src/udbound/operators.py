"""Dense complex Hermitian linear algebra on multipartite spaces.

Operators carry their local-dimension signature, and constructors reject
non-finite entries, symmetrize and record the Hermiticity deviation.  All
values are immutable; every function here is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

import numpy as np

#: constructors reject matrices whose Hermiticity deviation exceeds this
HERMITICITY_LIMIT = 1e-8
#: default eigenvalue threshold for positive-semidefiniteness tests
PSD_TOL = 1e-9

_ORTHONORMAL_TOL = 1e-10
_UNIT_NORM_TOL = 1e-10


@dataclass(frozen=True)
class DimVector:
    """Ordered local dimensions (d_1, ..., d_m); site 1 is the slowest index."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        if len(dims) < 1:
            raise ValueError("at least one site is required")
        if any(d < 1 for d in dims):
            raise ValueError(f"local dimensions must be positive, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def total(self) -> int:
        """Total dimension of the composite space."""
        return math.prod(self.dims)

    @property
    def sites(self) -> int:
        return len(self.dims)

    def __iter__(self):
        return iter(self.dims)

    def __len__(self) -> int:
        return len(self.dims)


def _as_dims(dims: Union[DimVector, Sequence[int]]) -> DimVector:
    return dims if isinstance(dims, DimVector) else DimVector(tuple(dims))


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A Hermitian matrix on a multipartite space.

    The stored matrix is the symmetrized input (A + A^dag)/2; the max-entry
    deviation |A - A^dag| of the raw input is recorded and inputs beyond
    ``HERMITICITY_LIMIT``, or with a non-finite entry, are rejected.
    """

    matrix: np.ndarray
    dims: DimVector
    deviation: float = field(init=False)

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {mat.shape}")
        dims = _as_dims(self.dims)
        if mat.shape[0] != dims.total:
            raise ValueError(
                f"matrix side {mat.shape[0]} does not match total dimension {dims.total}"
            )
        # a non-finite entry makes the deviation NaN or inf (inf - inf is NaN, quietly)
        with np.errstate(invalid="ignore"):
            deviation = float(np.abs(mat - mat.conj().T).max()) if mat.size else 0.0
        if not deviation <= HERMITICITY_LIMIT:
            bad = np.argwhere(~np.isfinite(mat))
            if bad.size:
                row, col = (int(k) for k in bad[0])
                raise ValueError(f"matrix entry ({row}, {col}) is {mat[row, col]}, not finite")
            raise ValueError(
                f"hermiticity deviation {deviation:.3e} exceeds tolerance {HERMITICITY_LIMIT:.1e}"
            )
        mat = (mat + mat.conj().T) / 2
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "deviation", deviation)

    @property
    def side(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(self.matrix.trace().real)

    def _require_same_dims(self, other: "HermitianOperator") -> None:
        if self.dims != other.dims:
            raise ValueError(f"dimension mismatch: {self.dims.dims} vs {other.dims.dims}")

    def __add__(self, other: "HermitianOperator") -> "HermitianOperator":
        self._require_same_dims(other)
        return HermitianOperator(self.matrix + other.matrix, self.dims)

    def __sub__(self, other: "HermitianOperator") -> "HermitianOperator":
        self._require_same_dims(other)
        return HermitianOperator(self.matrix - other.matrix, self.dims)

    def __mul__(self, scalar: float) -> "HermitianOperator":
        return HermitianOperator(self.matrix * float(scalar), self.dims)

    __rmul__ = __mul__


def _reject_nonfinite(amp: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first non-finite amplitude, if there is one."""
    bad = np.flatnonzero(~np.isfinite(amp))
    if bad.size:
        raise ValueError(f"amplitude {bad[0]} is {amp[bad[0]]}, not finite")


@dataclass(frozen=True, eq=False)
class StateVector:
    """A unit vector on a multipartite space (finite amplitudes and unit norm checked at construction)."""

    amplitudes: np.ndarray
    dims: DimVector

    def __post_init__(self) -> None:
        amp = np.array(self.amplitudes, dtype=np.complex128).reshape(-1)
        dims = _as_dims(self.dims)
        if amp.size != dims.total:
            raise ValueError(f"vector length {amp.size} does not match total dimension {dims.total}")
        norm = float(np.linalg.norm(amp))
        if not abs(norm - 1.0) <= _UNIT_NORM_TOL:  # a non-finite amplitude makes the norm NaN or inf
            _reject_nonfinite(amp)
            raise ValueError(f"vector norm {norm!r} is not 1 within {_UNIT_NORM_TOL:.1e}")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "dims", dims)

    @classmethod
    def normalized(cls, amplitudes: Sequence[complex], dims: Union[DimVector, Sequence[int]]) -> "StateVector":
        amp = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(amp))
        if not math.isfinite(norm):
            _reject_nonfinite(amp)
            # finite amplitudes whose norm overflows: scale by the largest real or imaginary part first
            amp = amp / max(np.abs(amp.real).max(), np.abs(amp.imag).max())
            norm = float(np.linalg.norm(amp))
        if norm < 1e-14:
            raise ValueError("cannot normalize a (near-)zero vector")
        return cls(amp / norm, _as_dims(dims))

    def projector(self) -> HermitianOperator:
        return HermitianOperator(np.outer(self.amplitudes, self.amplitudes.conj()), self.dims)

    def overlap(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def basis_state(dims: Union[DimVector, Sequence[int]], indices: Sequence[int]) -> StateVector:
    """Computational basis state |indices[0], indices[1], ...>."""
    dims = _as_dims(dims)
    if len(indices) != dims.sites:
        raise ValueError("one basis index per site is required")
    amp = np.ones(1, dtype=np.complex128)
    for d, k in zip(dims, indices):
        if not 0 <= k < d:
            raise ValueError(f"basis index {k} out of range for local dimension {d}")
        e = np.zeros(d, dtype=np.complex128)
        e[k] = 1.0
        amp = np.kron(amp, e)
    return StateVector(amp, dims)


def identity(dims: Union[DimVector, Sequence[int]]) -> HermitianOperator:
    dims = _as_dims(dims)
    return HermitianOperator(np.eye(dims.total, dtype=np.complex128), dims)


def kron_sum(terms: Sequence[Sequence[np.ndarray]], sides: Sequence[int]) -> np.ndarray:
    """Sum over terms of the Kronecker product of their factors; factor 0 varies slowest.

    Factor k of every term must be sides[k] x sides[k].  Each half of the
    sites is multiplied out per term, and one matrix product sums the terms.
    """
    count, half = len(terms), len(sides) // 2
    for t, term in enumerate(terms):
        shapes = [np.shape(f) for f in term]
        if shapes != [(s, s) for s in sides]:
            raise ValueError(f"term {t} has factor shapes {shapes}, expected sides {tuple(sides)}")
    halves = []
    for group in (range(half), range(half, len(sides))):
        part = np.ones((count, 1, 1), dtype=np.complex128)
        for k in group:
            f = np.array([term[k] for term in terms], dtype=np.complex128).reshape(count, sides[k], sides[k])
            n = part.shape[1] * sides[k]
            part = (part[:, :, None, :, None] * f[:, None, :, None, :]).reshape(count, n, n)
        halves.append(part.reshape(count, part.shape[1] ** 2))
    a, b = math.prod(sides[:half]), math.prod(sides[half:])
    out = halves[0].T @ halves[1]
    return out.reshape(a, a, b, b).transpose(0, 2, 1, 3).reshape(a * b, a * b)


def tensor(ops: Sequence[HermitianOperator]) -> HermitianOperator:
    """Kronecker product of operators; the first factor varies slowest."""
    if not ops:
        raise ValueError("no factors")
    dims = tuple(d for op in ops for d in op.dims.dims)
    return HermitianOperator(kron_sum(([op.matrix for op in ops],), [op.side for op in ops]), DimVector(dims))


def _matrix_and_dims(
    op: Union[HermitianOperator, np.ndarray], dims: Union[DimVector, Sequence[int], None]
) -> tuple[np.ndarray, DimVector]:
    if isinstance(op, HermitianOperator):
        return op.matrix, op.dims
    if dims is None:
        raise ValueError("dims are required when passing a bare matrix")
    mat = np.asarray(op, dtype=np.complex128)
    d = _as_dims(dims)
    if mat.shape != (d.total, d.total):
        raise ValueError(f"matrix shape {mat.shape} does not match dims {d.dims}")
    return mat, d


def _normalize_sites(sites: Union[int, Iterable[int]], n_sites: int) -> tuple[int, ...]:
    idx = (sites,) if isinstance(sites, (int, np.integer)) else tuple(sites)
    out = sorted(set(int(k) for k in idx))
    for k in out:
        if not 0 <= k < n_sites:
            raise ValueError(f"site index {k} out of range for {n_sites} sites")
    return tuple(out)


def partial_transpose(
    op: Union[HermitianOperator, np.ndarray],
    sites: Union[int, Iterable[int]],
    dims: Union[DimVector, Sequence[int], None] = None,
):
    """Transpose the given sites (0-based), leaving the rest untouched."""
    mat, dv = _matrix_and_dims(op, dims)
    swapped = _normalize_sites(sites, dv.sites)
    m = dv.sites
    t = mat.reshape(*dv.dims, *dv.dims)
    axes = list(range(2 * m))
    for site in swapped:
        axes[site], axes[site + m] = axes[site + m], axes[site]
    out = t.transpose(axes).reshape(dv.total, dv.total)
    if isinstance(op, HermitianOperator):
        return HermitianOperator(out, dv)
    return out


def _by_arithmetic(herm: np.ndarray) -> list[tuple[Union[slice, np.ndarray], np.ndarray]]:
    """(rows, matrices) of a (count, side, side) Hermitian stack: real where a matrix has no imaginary entry."""
    complex_ = herm.imag.any(axis=(1, 2))
    count = np.count_nonzero(complex_)
    if count in (0, len(herm)):
        return [(slice(None), herm if count else herm.real)]
    return [(~complex_, herm.real[~complex_]), (complex_, herm[complex_])]


def min_eigenvalues(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Smallest eigenvalue of each square matrix's Hermitian part; NaN if an entry is not finite.

    LAPACK does not propagate NaN: eigvalsh of [[nan, 0], [0, 1]] returns
    [0, -0], which would read as PSD.  A Hermitian part with no imaginary
    entry is decomposed in real arithmetic, several times faster.  One
    batched ``eigvalsh`` per side and arithmetic gives each matrix the
    value it gets alone, bit for bit.
    """
    out = np.full(len(mats), math.nan)
    sides: dict[int, list[int]] = {}
    for k, m in enumerate(mats):
        sides.setdefault(m.shape[0], []).append(k)
    for idx in map(np.array, sides.values()):
        stack = mats[idx[0]][None] if len(idx) == 1 else np.stack([mats[k] for k in idx])
        if not np.isfinite(stack).all():
            finite = np.isfinite(stack).all(axis=(1, 2))
            idx, stack = idx[finite], stack[finite]
        for rows, herm in _by_arithmetic((stack + stack.conj().swapaxes(1, 2)) / 2):
            out[idx[rows]] = np.linalg.eigvalsh(herm)[:, 0]
    return out


def min_eigenvalue(op: Union[HermitianOperator, np.ndarray]) -> float:
    """:func:`min_eigenvalues` of one operator or square matrix."""
    return float(min_eigenvalues((op.matrix if isinstance(op, HermitianOperator) else np.asarray(op),))[0])


def psd_part(stack: np.ndarray) -> np.ndarray:
    """PSD projection (eigenvalues clipped at 0) of each Hermitian matrix of a (count, side, side) stack."""
    out = np.empty(stack.shape, dtype=np.complex128)
    for rows, herm in _by_arithmetic(stack):
        vals, vecs = np.linalg.eigh(herm)
        out[rows] = (vecs * np.maximum(vals, 0.0)[:, None, :]) @ vecs.conj().swapaxes(1, 2)
    return out


def nan_max(values: Iterable[float]) -> float:
    """The largest value; NaN if any is NaN (the builtin max drops a NaN after the first place)."""
    vals = list(values)
    return math.nan if any(math.isnan(v) for v in vals) else max(vals)


def psd_violation(op: Union[HermitianOperator, np.ndarray]) -> float:
    """max(0, -smallest eigenvalue); NaN for a non-finite operator, so it fails ``<= tol``."""
    return nan_max((0.0, -min_eigenvalue(op)))


def compress(op: HermitianOperator, basis: np.ndarray) -> HermitianOperator:
    """Compression B^dag A B onto an orthonormal column set B."""
    basis = np.asarray(basis, dtype=np.complex128)
    if basis.ndim != 2 or basis.shape[0] != op.side or basis.shape[1] < 1:
        raise ValueError(f"basis shape {basis.shape} incompatible with operator side {op.side}")
    gram = basis.conj().T @ basis
    if np.abs(gram - np.eye(basis.shape[1])).max() > _ORTHONORMAL_TOL:
        raise ValueError("basis columns are not orthonormal")
    small = basis.conj().T @ op.matrix @ basis
    return HermitianOperator(small, DimVector((basis.shape[1],)))


def hs_inner(a: HermitianOperator, b: HermitianOperator) -> float:
    """Hilbert-Schmidt pairing Tr(AB); real for Hermitian inputs."""
    if a.side != b.side:
        raise ValueError(f"dimension mismatch: {a.side} vs {b.side}")
    return float(np.tensordot(a.matrix, b.matrix.T, axes=2).real)
