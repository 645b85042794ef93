"""Shared test utilities: random instances, forged measurements, an independent two-state oracle,
the certificate program that strong duality is checked against, and the reference decoders that
faster code is checked against."""

from __future__ import annotations

import math

import numpy as np

from udbound import (
    Block,
    ConicProgram,
    DimVector,
    Ensemble,
    HermitianOperator,
    LoccProtocol,
    Measurement,
    SchemaError,
    SeparableDecomposition,
    StateVector,
    basis_state,
    programs,
)


def random_state_vector(rng, dims) -> StateVector:
    total = int(np.prod(tuple(dims)))
    amp = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    return StateVector.normalized(amp, dims)


def random_hermitian(rng, dims) -> HermitianOperator:
    total = int(np.prod(tuple(dims)))
    mat = rng.standard_normal((total, total)) + 1j * rng.standard_normal((total, total))
    return HermitianOperator((mat + mat.conj().T) / 2, DimVector(tuple(dims)))


def random_psd(rng, dims, rank=None) -> HermitianOperator:
    total = int(np.prod(tuple(dims)))
    rank = rank or total
    factor = rng.standard_normal((total, rank)) + 1j * rng.standard_normal((total, rank))
    return HermitianOperator(factor @ factor.conj().T, DimVector(tuple(dims)))


def random_density(rng, dims, rank=1) -> HermitianOperator:
    op = random_psd(rng, dims, rank=rank)
    return HermitianOperator(op.matrix / op.trace, op.dims)


def random_ensemble(rng, dims, n) -> Ensemble:
    """n states on dims: pure with probability 2/3, else rank-2 mixed."""
    weights = rng.exponential(size=n) + 0.05
    priors = tuple(float(w) for w in weights / weights.sum())
    states = tuple(
        random_density(rng, dims, rank=1 if rng.random() < 2 / 3 else 2) for _ in range(n)
    )
    return Ensemble(DimVector(tuple(dims)), priors, states)


def nested_support_ensemble() -> Ensemble:
    """|00>, |01> and their even mixture: every state's support lies inside the others'."""
    dims = DimVector((2, 2))
    e0, e1 = basis_state(dims, (0, 0)), basis_state(dims, (0, 1))
    plus = StateVector.normalized(e0.amplitudes + e1.amplitudes, dims)
    minus = StateVector.normalized(e0.amplitudes - e1.amplitudes, dims)
    mixed = HermitianOperator((plus.projector().matrix + minus.projector().matrix) / 2, dims)
    return Ensemble(dims, (0.4, 0.4, 0.2), (e0.projector(), e1.projector(), mixed))


def forged_global_as_separable(ensemble, fixtures):
    """The entangled global measurement, each element claimed as a one-term product."""
    g = fixtures.global_measurement
    decompositions = tuple(SeparableDecomposition(((el.matrix, np.eye(1)),)) for el in g.elements)
    return Measurement(ensemble.dims, g.elements, decompositions=decompositions)


def forged_global_as_protocol(ensemble, fixtures):
    """The entangled global measurement, claimed as a protocol whose site 0 is the whole space."""
    g = fixtures.global_measurement
    site_povms = (tuple(el.matrix for el in g.elements), (np.eye(1),))
    protocol = LoccProtocol("forged", site_povms, {(k, 0): k for k in range(len(g.elements))})
    return Measurement(ensemble.dims, g.elements, locc_protocol=protocol)


def one_site_global(fixtures, protocol=False):
    """The entangled global measurement recast on one site of side 4, each element its own product.

    With ``protocol`` the elements come from a one-site protocol whose POVM
    is the four elements, else each carries a one-term decomposition.
    """
    dims = DimVector((4,))
    elements = tuple(HermitianOperator(el.matrix, dims) for el in fixtures.global_measurement.elements)
    if protocol:
        povm = LoccProtocol("one site", (tuple(el.matrix for el in elements),), {(k,): k for k in range(4)})
        return Measurement(dims, elements, locc_protocol=povm)
    return Measurement(dims, elements, decompositions=tuple(SeparableDecomposition(((el.matrix,),)) for el in elements))


def mixed_shape_protocol(ensemble, fixtures):
    """The example1 LOCC measurement with one site-0 POVM element widened to 3x3."""
    locc = fixtures.locc_measurement
    protocol = locc.locc_protocol
    site0 = protocol.site_povms[0][:2] + (np.eye(3) / 3,)
    mixed = LoccProtocol(protocol.description, (site0, protocol.site_povms[1]), protocol.assignment)
    return Measurement(ensemble.dims, locc.elements, locc_protocol=mixed)


def idp_oracle(psi1: StateVector, psi2: StateVector, prior1: float) -> float:
    """Brute-force optimum for unambiguously telling two pure states apart.

    Parameterizes the two conclusive elements directly: each is a
    nonnegative multiple of the unique direction in span{psi1, psi2}
    orthogonal to the other state, optimal supports never leave the span.
    The weight of the second element is maximized by bisection on the
    smallest eigenvalue of the inconclusive element, and the concave
    one-dimensional profile is maximized by a coarse grid plus golden
    section refinement.  Shares no code path with the conic solver.
    """
    a1 = psi1.amplitudes
    raw2 = psi2.amplitudes - np.vdot(a1, psi2.amplitudes) * a1
    norm2 = np.linalg.norm(raw2)
    if norm2 < 1e-8:
        raise ValueError("states are (nearly) parallel")
    e2 = raw2 / norm2

    # coordinates of the two states in the span basis {psi1, e2}
    c1 = np.array([1.0, 0.0], dtype=complex)
    c2 = np.array([np.vdot(a1, psi2.amplitudes), np.vdot(e2, psi2.amplitudes)])

    def perp(vec):
        out = np.array([vec[1].conjugate(), -vec[0].conjugate()])
        return out / np.linalg.norm(out)

    phi1 = perp(c2)  # conclusive direction for state 1
    phi2 = perp(c1)  # conclusive direction for state 2
    p1 = np.outer(phi1, phi1.conj())
    p2 = np.outer(phi2, phi2.conj())
    gain1 = abs(np.vdot(phi1, c1)) ** 2
    gain2 = abs(np.vdot(phi2, c2)) ** 2
    eye = np.eye(2)

    def feasible(a, b):
        return np.linalg.eigvalsh(eye - a * p1 - b * p2)[0] >= -1e-14

    def best_b(a):
        if not feasible(a, 0.0):
            return None
        lo, hi = 0.0, 2.0
        for _ in range(60):
            mid = (lo + hi) / 2
            if feasible(a, mid):
                lo = mid
            else:
                hi = mid
        return lo

    def objective(a):
        b = best_b(a)
        if b is None:
            return -np.inf
        return prior1 * a * gain1 + (1.0 - prior1) * b * gain2

    grid = np.linspace(0.0, 1.0, 201)
    vals = [objective(a) for a in grid]
    k = int(np.argmax(vals))
    lo = grid[max(0, k - 1)]
    hi = grid[min(len(grid) - 1, k + 1)]
    inv_gold = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_gold * (hi - lo)
    x2 = lo + inv_gold * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    for _ in range(80):
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_gold * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_gold * (hi - lo)
            f2 = objective(x2)
    return max(max(vals), f1, f2)


def solve_global_certificate(ensemble, tol=1e-7) -> tuple[HermitianOperator, float]:
    """Trace-minimal certificate solved on its own, without the measurement.

    Minimizes the trace of a PSD operator whose compression onto each
    no-error subspace dominates the weighted state there; by strong duality
    its trace equals the optimal success probability of ``solve_global``.
    Built through ``programs``' own helpers and solved by ``programs.solve``.
    """
    dims = ensemble.dims
    lift, data = programs._conclusive_data(ensemble)
    if not data:
        return HermitianOperator(np.zeros((dims.total,) * 2), dims), 0.0

    w = lift.shape[1]
    blocks = [Block("k", w)] + [Block(f"y{i}", basis.shape[1]) for i, (basis, _, _) in data.items()]
    constraints = []
    for i, (_, reduced, target) in data.items():
        constraints += programs._matrix_equality(target, {"k": reduced.conj().T, f"y{i}": -1.0})
    program = ConicProgram(tuple(blocks), {"k": np.eye(w)}, tuple(constraints), sense="min")
    report = programs.solve(program, tol=tol)
    certificate = HermitianOperator(lift @ report.blocks["k"] @ lift.conj().T, dims)
    return certificate, report.value


def reference_matrix_from_json(data, field):
    """The whole-tree decoder: one ``np.array`` call on the nested payload, then checks."""
    try:
        arr = np.array(data)
    except (TypeError, ValueError):
        arr = np.empty(0)
    side = len(arr) if arr.ndim else 0
    if arr.shape != (side, side, 2) or arr.dtype.kind not in "biuf" or not np.isfinite(arr).all():
        raise SchemaError(f"{field}: expected a non-empty square list of rows of finite [re, im] pairs")
    return np.ascontiguousarray(arr, dtype=np.float64).view(np.complex128).reshape(side, side)


def reference_min_eigenvalue(mat):
    """The one-matrix smallest eigenvalue: NaN if not finite, Hermitian part, real path iff imag is exactly 0."""
    mat = np.asarray(mat)
    if not np.isfinite(mat).all():
        return math.nan
    mat = (mat + mat.conj().T) / 2
    if not mat.imag.any():
        mat = mat.real
    return float(np.linalg.eigvalsh(mat)[0])
