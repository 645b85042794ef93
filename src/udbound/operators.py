"""Dense complex Hermitian linear algebra on multipartite spaces.

Operators carry their local-dimension signature.  Operators and the local
factors of decompositions, protocols and product forms obey one validity
rule, checked where they are built: finite, within the Hermiticity limit,
then symmetrized.  The types hold checked data, with no arithmetic but
``HermitianOperator * s``: a combination is built by the constructor on
arrays.  Every computational routine takes and returns arrays, one
routine per primitive: ``kron_sum``, ``partial_transpose``,
``min_eigenvalues``, ``psd_part`` and ``hs_inner``.  All values are
immutable; every function here is pure.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Union

import numpy as np

#: constructors reject matrices whose Hermiticity deviation exceeds this
HERMITICITY_LIMIT = 1e-8
#: default eigenvalue threshold for positive-semidefiniteness tests
PSD_TOL = 1e-9

_UNIT_NORM_TOL = 1e-10


def _as_index(value: object, *what: object) -> int:
    """``value`` as an ``int``: an integer (numpy's too), not a ``bool``; else ``ValueError`` naming it by ``what``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{' '.join(map(str, what))} is {value!r}, not an integer")


@dataclass(frozen=True)
class DimVector:
    """Ordered local dimensions (d_1, ..., d_m); site 1 is the slowest index."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(_as_index(d, "local dimension") for d in self.dims)
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


def _as_dims(dims: Union[DimVector, Sequence[int]]) -> DimVector:
    return dims if isinstance(dims, DimVector) else DimVector(tuple(dims))


def _hermitian_parts(stack: np.ndarray, name: Callable[[int], str] = lambda k: "") -> np.ndarray:
    """The read-only Hermitian parts (A + A^dag)/2 of a complex (count, side, side) stack.

    The one validity rule for operators and local factors: square, finite,
    within ``HERMITICITY_LIMIT`` of the adjoint entrywise, and a Hermitian
    part that does not overflow.  The first matrix k that breaks it raises
    ``ValueError`` led by ``name(k)``.
    """
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"{name(0)}matrix must be square, got shape {stack.shape[1:]}")
    adj = stack.conj().swapaxes(1, 2)
    # a non-finite entry makes its deviation NaN or inf (inf - inf is NaN, quietly); huge finite ones overflow the sum
    with np.errstate(invalid="ignore", over="ignore"):
        deviation = np.abs(stack - adj)
        herm = (stack + adj) / 2
    if not (deviation.max(initial=0.0) <= HERMITICITY_LIMIT and np.isfinite(herm).all()):
        worst = deviation.max(axis=(1, 2))
        k = int(np.flatnonzero(~((worst <= HERMITICITY_LIMIT) & np.isfinite(herm).all(axis=(1, 2))))[0])
        entries = np.argwhere(~np.isfinite(stack[k]))
        if entries.size:
            row, col = (int(i) for i in entries[0])
            raise ValueError(f"{name(k)}matrix entry ({row}, {col}) is {stack[k, row, col]}, not finite")
        if not worst[k] <= HERMITICITY_LIMIT:
            raise ValueError(
                f"{name(k)}hermiticity deviation {worst[k]:.3e} exceeds tolerance {HERMITICITY_LIMIT:.1e}"
            )
        row, col = (int(i) for i in np.argwhere(~np.isfinite(herm[k]))[0])
        raise ValueError(f"{name(k)}matrix entry ({row}, {col}) overflows in (A + A^dag)/2")
    herm.setflags(write=False)
    return herm


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A Hermitian matrix on a multipartite space.

    The stored matrix is the symmetrized input (A + A^dag)/2; an input
    that breaks the rule of :func:`_hermitian_parts` is rejected.
    """

    matrix: np.ndarray
    dims: DimVector

    def __post_init__(self) -> None:
        (mat,) = _hermitian_parts(np.asarray(self.matrix, dtype=np.complex128)[None])
        dims = _as_dims(self.dims)
        if mat.shape[0] != dims.total:
            raise ValueError(
                f"matrix side {mat.shape[0]} does not match total dimension {dims.total}"
            )
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", dims)

    @property
    def trace(self) -> float:
        return float(self.matrix.trace().real)

    def __mul__(self, scalar: float) -> "HermitianOperator":
        """``op * s``, the scalar product ``bench/test_bench.py`` calls; other code uses the constructor on arrays."""
        return HermitianOperator(self.matrix * float(scalar), self.dims)


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


def _normalize_sites(sites: Union[int, Iterable[int]], n_sites: int) -> tuple[int, ...]:
    idx = (sites,) if isinstance(sites, (int, np.integer)) else tuple(sites)
    out = sorted(set(int(k) for k in idx))
    for k in out:
        if not 0 <= k < n_sites:
            raise ValueError(f"site index {k} out of range for {n_sites} sites")
    return tuple(out)


def partial_transpose(op: HermitianOperator, sites: Union[int, Iterable[int]]) -> np.ndarray:
    """The matrix of ``op`` with the given sites (0-based) transposed and the rest untouched.

    It permutes the entries of a stored, exactly Hermitian matrix, so the
    result is exactly Hermitian too.
    """
    dv = op.dims
    swapped = _normalize_sites(sites, dv.sites)
    m = dv.sites
    t = op.matrix.reshape(*dv.dims, *dv.dims)
    axes = list(range(2 * m))
    for site in swapped:
        axes[site], axes[site + m] = axes[site + m], axes[site]
    return t.transpose(axes).reshape(dv.total, dv.total)


def _by_arithmetic(herm: np.ndarray) -> list[tuple[Union[slice, np.ndarray], np.ndarray]]:
    """(rows, matrices) of a (count, side, side) Hermitian stack: real where a matrix has no imaginary entry."""
    complex_ = herm.imag.any(axis=(1, 2))
    count = np.count_nonzero(complex_)
    if count in (0, len(herm)):
        return [(slice(None), herm if count else herm.real)]
    return [(~complex_, herm.real[~complex_]), (complex_, herm[complex_])]


def min_eigenvalues(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Smallest eigenvalue of each Hermitian matrix, stored as operators and local factors store them.

    A matrix with no imaginary entry is decomposed in real arithmetic,
    several times faster.  One batched ``eigvalsh`` per side and arithmetic
    gives each matrix the value it gets alone, bit for bit.
    """
    out = np.empty(len(mats))
    sides: dict[int, list[int]] = {}
    for k, m in enumerate(mats):
        sides.setdefault(m.shape[0], []).append(k)
    for idx in map(np.array, sides.values()):
        for rows, herm in _by_arithmetic(np.stack([mats[k] for k in idx])):
            out[idx[rows]] = np.linalg.eigvalsh(herm)[:, 0]
    return out


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


def hs_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Hilbert-Schmidt pairing Tr(AB) of two square matrices of one side; real for Hermitian inputs."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: shapes {a.shape} vs {b.shape}")
    return float(np.tensordot(a, b.T, axes=2).real)
