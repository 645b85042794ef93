"""Small conic optimizer over products of Hermitian PSD blocks.

Problems are linear objectives over a tuple of PSD variable blocks (a
side-1 block is a nonnegative scalar) subject to scalar affine constraints
whose coefficients are Hermitian operators per block.  The solver is an
over-relaxed ADMM splitting, written as a fixed-point map v -> F(v): an
eigenvalue-clipping projection z onto the cone with remainder u = v - z,
an exact projection x of z - u onto the affine constraints (G = A A^T is
Cholesky-factored and G^-1 A and G^-1 b are formed once per solve, so each
iteration takes one product with G^-1 A whatever the ADMM penalty), and
F(v) = v + alpha (x - z); the linear algebra is numpy's.  An iteration
is one application of F, that is one cone projection, and checks the
residuals of its own (z, multipliers, u), so "optimal" certifies the same
thing however v was reached.  F is accelerated by safeguarded type-II
Anderson acceleration with memory 10 (Walker & Ni 2011; Zhang, O'Donoghue
& Boyd 2020), which extrapolates from the last differences of v and
g = F(v) - v.  An extrapolated point is kept only if its |g| is no larger
than the last kept point's; otherwise the plain step from that point is
taken and the memory cleared, as it is when residual balancing changes
the ADMM penalty.  Everything is deterministic given the inputs; the seed
is carried through to the report for provenance only.

The iteration runs on the program with its right-hand side b and its
objective c each scaled to a largest absolute entry of 1, so the
tolerance is relative to max|b| and max|c|; the reported value, blocks,
multipliers and residuals are scaled back, and the residuals are
absolute, in the program's own units.

Hermitian blocks are handled in an isometric real parameterization
("svec"): diagonal entries first, then sqrt(2) times the real and
imaginary parts of the upper triangle, so that Tr(AB) becomes the
Euclidean dot product and the PSD cone stays self-dual.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .operators import HermitianOperator

_SQRT2 = math.sqrt(2.0)
_SIGMA = 1.0  # initial ADMM penalty; residual balancing doubles or halves it
_OVER_RELAX = 1.6  # over-relaxation factor of the affine step
_MEMORY = 10  # Anderson acceleration: secant pairs kept for the extrapolation


@functools.lru_cache(maxsize=64)
def _indices(side: int) -> tuple[np.ndarray, ...]:
    """Index tables of a side x side matrix; shared, so read-only.

    Diagonal and upper-triangle (rows, cols) indices, then two gather
    tables: the svec coordinates in the float64 view of the flattened
    matrix (diagonal re, upper re, upper im), and each flattened matrix
    entry in the columns ``[diag | upper | conj(upper)]``.
    """
    diag, rows, cols = np.arange(side), *np.triu_indices(side, 1)
    k = len(rows)
    upper = rows * side + cols
    to_svec = np.concatenate([2 * diag * (side + 1), 2 * upper, 2 * upper + 1])
    to_mat = np.empty((side, side), dtype=np.intp)
    to_mat[diag, diag] = diag
    to_mat[rows, cols] = side + np.arange(k)
    to_mat[cols, rows] = side + k + np.arange(k)
    out = (diag, rows, cols, to_svec, to_mat.ravel())
    for arr in out:
        arr.setflags(write=False)
    return out


def cho_factor(gram: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L of G = L L^T; ``LinAlgError`` if G is not numerically positive definite."""
    return np.linalg.cholesky(gram)


def cho_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """G^-1 rhs from the lower Cholesky factor L of G = L L^T.

    numpy has no triangular solve: ``np.linalg.solve`` runs a full LU on L
    as on any matrix, so one LU of the rebuilt G costs about half of two,
    and it is backward stable for the positive definite G all the same.
    """
    return np.linalg.solve(factor @ factor.T, rhs)


def svec(mat: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian matrix, or of a stack of them; an isometry for Tr(AB)."""
    mat = np.ascontiguousarray(mat, dtype=np.complex128)
    side = mat.shape[-1]
    out = mat.reshape(*mat.shape[:-2], side * side).view(np.float64)[..., _indices(side)[3]]
    out[..., side:] *= _SQRT2
    return out


def smat(vec: np.ndarray, side: int) -> np.ndarray:
    """Inverse of :func:`svec`, over the last axis of ``vec``."""
    k = side * (side - 1) // 2
    off = (vec[..., side : side + k] + 1j * vec[..., side + k :]) / _SQRT2
    cols = np.concatenate([vec[..., :side].astype(np.complex128), off, off.conj()], axis=-1)
    return cols[..., _indices(side)[4]].reshape(*vec.shape[:-1], side, side)


def hermitian_basis(side: int) -> np.ndarray:
    """The (side², side, side) stack of Hermitian matrices whose svec images are the standard basis."""
    diag, rows, cols = _indices(side)[:3]
    k = len(rows)
    re, im = side + np.arange(k), side + k + np.arange(k)
    basis = np.zeros((side * side, side, side), dtype=np.complex128)
    basis[diag, diag, diag] = 1.0
    basis[re, rows, cols] = basis[re, cols, rows] = 1.0 / _SQRT2
    basis[im, rows, cols] = 1.0j / _SQRT2
    basis[im, cols, rows] = -1.0j / _SQRT2
    return basis


@dataclass(frozen=True)
class Block:
    """One PSD variable block; side 1 means a nonnegative scalar."""

    name: str
    side: int

    def __post_init__(self) -> None:
        if self.side < 1:
            raise ValueError(f"block {self.name!r} must have positive side")


@dataclass(frozen=True, eq=False)
class Constraint:
    """Scalar affine constraint sum_b <coeffs[b], X_b> (=, >=) rhs."""

    coeffs: dict[str, np.ndarray]
    rhs: float
    sense: str = "eq"

    def __post_init__(self) -> None:
        if self.sense not in ("eq", "ge"):
            raise ValueError(f"constraint sense must be 'eq' or 'ge', got {self.sense!r}")


@dataclass(frozen=True, eq=False)
class ConicProgram:
    blocks: tuple[Block, ...]
    objective: dict[str, np.ndarray]
    constraints: tuple[Constraint, ...]
    sense: str = "min"

    def __post_init__(self) -> None:
        object.__setattr__(self, "_assembled", _assemble(self))  # solve reads this: later edits go unseen


@dataclass
class SolveReport:
    """Solver outcome: value, primal blocks, certificates, residuals.

    ``multipliers`` are the affine-constraint duals in the minimization
    convention (objective negated internally for a max program); the
    ``residuals`` entries are absolute: affine feasibility of the conic
    iterate, stationarity of the dual pair, and the primal-dual gap (which
    doubles as the complementary-slackness defect, the cone pairing of the
    returned iterate being exactly zero by construction).
    """

    status: str
    value: float
    blocks: dict[str, np.ndarray]
    residuals: dict[str, float]
    iterations: int
    seed: int
    tolerance: float
    multipliers: Optional[np.ndarray] = None
    dual_certificate: Optional[HermitianOperator] = None
    measurement: Optional[object] = None
    never_conclusive: list[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        from .ensembles import measurement_to_dict
        from .jsonio import matrix_to_json, operator_to_dict

        payload: dict = {
            "status": self.status,
            "value": self.value,
            "residuals": dict(self.residuals),
            "iterations": self.iterations,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "blocks": {k: matrix_to_json(v) for k, v in self.blocks.items()},
        }
        if self.never_conclusive:
            payload["never_conclusive"] = list(self.never_conclusive)
        if self.dual_certificate is not None:
            payload["dual_certificate"] = operator_to_dict(self.dual_certificate)
        if self.measurement is not None:
            payload["measurement"] = measurement_to_dict(self.measurement)
        return payload


@dataclass
class _Assembled:
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    layout: list[tuple[str, int, slice]]
    flip: bool


def _assemble(program: ConicProgram) -> _Assembled:
    """Check a program and lay out its c, A and b over the svec coordinates of its blocks and slacks."""
    if program.sense not in ("min", "max"):
        raise ValueError(f"program sense must be 'min' or 'max', got {program.sense!r}")
    names = [b.name for b in program.blocks]
    if len(set(names)) != len(names):
        raise ValueError("block names must be unique")
    for k, con in enumerate(program.constraints):
        if not math.isfinite(con.rhs):
            raise ValueError(f"constraint {k} rhs {con.rhs} is not finite")

    ge = [k for k, con in enumerate(program.constraints) if con.sense == "ge"]
    blocks = list(program.blocks) + [Block(f"__slack{k}", 1) for k in ge]
    layout: list[tuple[str, int, slice]] = []
    offset = 0
    for blk in blocks:
        size = blk.side * blk.side
        layout.append((blk.name, blk.side, slice(offset, offset + size)))
        offset += size
    total = offset
    index = {name: (side, sl) for name, side, sl in layout[: len(program.blocks)]}

    # names and shapes one coefficient at a time, up to the first bad one; per block,
    # each coefficient's position in that order, its row (-1 for the objective) and matrix
    where_name: list[tuple[str, str]] = []
    stacks: dict[str, tuple[list[int], list[int], list[np.ndarray]]] = {}
    malformed = None
    for row, where, coeffs in [(-1, "objective", program.objective)] + [
        (k, f"constraint {k}", c.coeffs) for k, c in enumerate(program.constraints)
    ]:
        for name, mat in coeffs.items():
            if name not in index:
                malformed = f"{where} references unknown block {name!r}"
                break
            mat = np.asarray(mat)
            if mat.shape != (index[name][0],) * 2:
                malformed = f"{where} coefficient for {name!r} has shape {mat.shape}"
                break
            pos, rows, mats = stacks.setdefault(name, ([], [], []))
            pos.append(len(where_name))
            rows.append(row)
            mats.append(mat)
            where_name.append((where, name))
        if malformed:
            break

    # values one stack per block, so the first bad coefficient is reported; a clean stack fills c and A
    c = np.zeros(total)
    A = np.zeros((len(program.constraints), total))
    bad = []  # per block, the first coefficient that is not finite and the first not Hermitian
    for name, (pos, rows, mats) in stacks.items():
        stack = np.stack(mats)
        top = np.abs(stack).max(axis=(1, 2))
        with np.errstate(invalid="ignore"):
            skew = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2))
        unhermitian = skew > 1e-9 * np.maximum(1.0, top)
        for flags, what in ((~np.isfinite(top), "is not finite"), (unhermitian, "is not Hermitian")):
            hits = np.flatnonzero(flags)
            if hits.size:
                bad.append((pos[hits[0]], what))
        if not (bad or malformed):
            coords, sl = svec(stack), index[name][1]
            if rows[0] < 0:  # the objective's coefficient comes first
                c[sl], coords, rows = coords[0], coords[1:], rows[1:]
            A[rows, sl] = coords
        del stack  # before the next block's stack is built
    if bad:
        first, what = min(bad, key=lambda hit: hit[0])  # a tie keeps "is not finite"
        where, name = where_name[first]
        raise ValueError(f"{where} coefficient for {name!r} {what}")
    if malformed:
        raise ValueError(malformed)

    flip = program.sense == "max"
    if flip:
        c = -c
    A[ge, range(total - len(ge), total)] = -1.0  # the slack blocks close the layout
    b = np.array([con.rhs for con in program.constraints], dtype=np.float64)
    return _Assembled(c, A, b, layout, flip)


def _side_groups(layout) -> list[tuple[int, np.ndarray]]:
    """For each distinct block side, the stacked coordinate indices of its blocks."""
    rows: dict[int, list[np.ndarray]] = {}
    for _, side, sl in layout:
        rows.setdefault(side, []).append(np.arange(sl.start, sl.stop))
    return [(side, np.stack(idx)) for side, idx in rows.items()]


def _project_cone(vec: np.ndarray, groups) -> np.ndarray:
    """Project onto the product cone, one batched eigendecomposition per side group."""
    out = np.empty_like(vec)
    for side, idx in groups:
        x = vec[idx]
        if side == 1:
            out[idx] = np.where(x > 0.0, x, 0.0)  # max(0.0, x): NaN and -0.0 give +0.0
            continue
        w, v = np.linalg.eigh(smat(x, side))
        w = np.maximum(w, 0.0)
        clipped = (v * w[:, None, :]) @ v.conj().swapaxes(-1, -2)
        # svec of each clipped matrix: gather its real coordinates, scale the off-diagonal ones
        coords = clipped.reshape(len(idx), side * side).view(np.float64)[:, _indices(side)[3]]
        coords[:, side:] *= _SQRT2
        out[idx] = coords
    return out


def solve(
    program: ConicProgram,
    tol: float = 1e-7,
    max_iter: int = 200_000,
    seed: int = 0,
) -> SolveReport:
    """Run the splitting iteration until all three residuals fall below tol.

    The iteration runs on the program with its right-hand side b and its
    objective c each divided by its largest absolute entry, so ``tol`` is
    relative to max|b| and max|c|: it stops with status ``optimal`` once
    the affine residual is within tol·max|b|, the stationarity residual
    within tol·max|c|, and the gap within tol times the larger of
    max|b|·max|c| and the objective values.  Otherwise it stops with
    ``max_iterations`` and the last iterate, or ``infeasible`` when the
    multipliers diverge while the affine residual stalls.  A program with
    no constraints reports X = 0, with status ``unbounded`` when its
    objective has no finite optimum.  An iteration is one cone projection
    (see the module docstring for the accelerated map), and every
    iteration checks the residuals.  The reported value, blocks,
    multipliers and residuals are scaled back to the program's own units,
    so the residuals are absolute.  Raises
    ``LinAlgError`` when the constraint rows are linearly dependent
    (A A^T numerically singular), and ``ValueError`` when an iterate, the
    value or a block is not finite.
    """
    data = program._assembled
    A, layout = data.A, data.layout
    m, total = A.shape
    groups = _side_groups(layout)
    # unit scaling: the loop solves min c'·z s.t. A z = b', with b' = b / b_unit and c' = c / c_unit
    b_unit = float(np.abs(data.b).max(initial=0.0)) or 1.0
    c_unit = float(np.abs(data.c).max(initial=0.0)) or 1.0
    b, c = data.b / b_unit, data.c / c_unit

    def finish(status, z, nu, res, iters):
        z = z * b_unit
        value = float(data.c @ z)
        if not (math.isfinite(value) and np.isfinite(z).all()):
            raise ValueError(f"iterate is not finite at iteration {iters} (value {value})")
        blocks = {name: smat(z[sl], side) for name, side, sl in layout if not name.startswith("__slack")}
        return SolveReport(
            status=status,
            value=-value if data.flip else value,
            blocks=blocks,
            residuals={"primal": res[0] * b_unit, "dual": res[1] * c_unit, "gap": res[2] * b_unit * c_unit},
            iterations=iters,
            seed=seed,
            tolerance=tol,
            multipliers=None if nu is None else nu * c_unit,
        )

    if m == 0:
        z = _project_cone(-c, groups)  # any cone point works; 0 is optimal iff c in dual
        if float(c @ z) < -tol:
            return finish("unbounded", np.zeros(total), None, (0.0, 0.0, 0.0), 0)
        return finish("optimal", np.zeros(total), np.zeros(0), (0.0, 0.0, 0.0), 0)

    try:
        factor = cho_factor(A @ A.T)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("affine constraint Gram matrix is numerically singular") from exc

    # The affine step's multipliers are nu = G^-1 (sigma (A w - b) - A c) with G = A A^T,
    # that is sigma (G^-1 A) w - shift(sigma): one product per iteration, and G^-1 [A | b]
    # is formed once, so a change of sigma costs no solve.
    solved = cho_solve(factor, np.column_stack([A, b]))
    gram_a, gram_b = solved[:, :-1], solved[:, -1]
    gram_ac = gram_a @ c

    def shift(sigma):
        return sigma * gram_b + gram_ac

    sigma = _SIGMA
    offset = shift(sigma)
    v = z = np.zeros(total)
    nu = np.zeros(m)
    res = (np.inf, np.inf, np.inf)
    status = "max_iterations"
    iters = max_iter
    stall_mark = None
    stall_pres = np.inf
    # Anderson memory: differences of g = F(v) - v and of F(v) between successive accepted points
    dg = np.empty((_MEMORY, total))
    df = np.empty((_MEMORY, total))
    stored = 0
    base = None  # the last accepted point's F(v), g and |g|^2
    extrapolated = False

    for it in range(1, max_iter + 1):
        try:
            z = _project_cone(v, groups)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"iterate cannot be projected at iteration {it} ({exc})") from exc
        u = v - z
        w = z - u
        nu = sigma * (gram_a @ w) - offset
        r = c + A.T @ nu
        g = _OVER_RELAX * (w - r / sigma - z)  # F(v) - v, with x = w - r / sigma the affine step

        pres = float(np.abs(A @ z - b).max())
        dres = float(np.abs(r + sigma * u).max())
        if not (math.isfinite(pres) and math.isfinite(dres)):
            raise ValueError(f"iterate is not finite at iteration {it} (primal {pres}, dual {dres})")
        pobj = float(c @ z)
        dobj = -float(b @ nu)
        gap = abs(pobj - dobj)
        res = (pres, dres, gap)
        if pres <= tol and dres <= tol and gap <= tol * max(1.0, abs(pobj), abs(dobj)):
            status = "optimal"
            iters = it
            break

        # multiplier blowup with a stalled affine residual signals infeasibility
        if it % 5000 == 0:
            y_norm = sigma * float(np.abs(u).max())
            if stall_mark is not None and pres > 1e-4 and pres > 0.999 * stall_pres and y_norm > 1e3:
                status = "infeasible"
                iters = it
                break
            stall_mark = it
            stall_pres = pres

        # residual balancing keeps the two residuals comparable; it changes the map, so the memory goes
        if it % 100 == 0 and max(pres, dres) > 50 * tol and max(pres, dres) > 10 * min(pres, dres):
            step = 2.0 if pres > dres else 0.5
            sigma *= step
            v = z + u / step
            offset = shift(sigma)
            stored, base, extrapolated = 0, None, False
            continue

        # safeguard: an extrapolation that grew |g| gives way to the plain step from the last accepted point
        gg = float(g @ g)
        if extrapolated and gg > base[2]:
            v = base[0]
            stored, extrapolated = 0, False
            continue
        f = v + g
        if base is not None:
            k = stored % _MEMORY
            dg[k] = g - base[1]
            df[k] = f - base[0]
            stored += 1
        base = (f, g, gg)
        v, extrapolated = f, False
        n = min(stored, _MEMORY)
        if n:
            # type-II step: gamma minimizes |g - dG^T gamma|, through its ridged normal equations.
            # A singular system or a non-finite gamma keeps the plain step.
            gram = dg[:n] @ dg[:n].T
            gram.flat[:: n + 1] += 1e-10 * gram.trace()
            try:
                gamma = np.linalg.solve(gram, dg[:n] @ g)
            except np.linalg.LinAlgError:
                continue
            if np.isfinite(gamma).all():
                v, extrapolated = f - gamma @ df[:n], True

    return finish(status, z, nu, res, iters)
