"""Discrimination programs: global optimum with its certificate, separable bound.

The global program maximizes the success probability over unambiguous
measurements, with each conclusive element parameterized on its no-error
subspace K_i so the zero-probability constraints hold by construction;
its certificate comes from the completeness multipliers.  The
separable-bound program minimizes the trace of a PSD operator H whose
pairing with every cone generator dominates the weighted state's.

Each program is posed, through ``cones.split_support``, on the space its
constraints can see, and both sizings are exact:

- global program: on the ensemble support S = range(sum_j rho_j), with
  K_i ∩ S from ``cones.no_error_subspaces``.  Every
  state vanishes on S⊥, so S⊥ ⊆ K_i and K_i = S⊥ ⊕ (K_i ∩ S): the value,
  condition 7c of the lifted certificate and the completed measurement
  are unchanged.  Completeness is imposed on the joint span of the K_i ∩ S,
  the range of sum_i k_i k_i† through the same split, so that every basis,
  and with it every lifted element and certificate, keeps the ensemble's
  exact zeros.
- separable bound: on the joint support V of the generators (plus K_i for
  an empty cone).  Every constraint sees H only through V and the
  objective is Tr H, so P_V H P_V stays feasible with no larger trace, and
  the certificate V h V† meets each full-space constraint as posed.
"""

from __future__ import annotations

import numpy as np

from .cones import ConeGenerators, conclusive_subspace, no_error_subspaces, split_support
from .ensembles import Ensemble, Measurement
from .operators import HermitianOperator, hs_inner, psd_part
from .solver import Block, ConicProgram, Constraint, SolveReport, _check_bounds, hermitian_basis, smat, solve


def _constraints(stack: np.ndarray, terms: dict, rhs: list[float], sense: str = "eq") -> list[Constraint]:
    """Scalar constraints sum_b <S_k, L_b(X_b)> (sense) rhs[k], one per matrix S_k of ``stack``.

    ``terms`` maps a block name to its linear map: a matrix M stands for
    X -> M X M†, a scalar s for X -> s X.  Each block's coefficients, the
    adjoint map applied to every S_k, come from one batched product.
    """
    coeffs = {b: m.conj().T @ stack @ m if isinstance(m, np.ndarray) else m * stack for b, m in terms.items()}
    return [Constraint({b: c[k] for b, c in coeffs.items()}, r, sense) for k, r in enumerate(rhs)]


def _matrix_equality(target: np.ndarray, terms: dict[str, float | np.ndarray]) -> list[Constraint]:
    """Scalar constraints imposing sum_b L_b(X_b) = target, one per Hermitian basis element."""
    basis = hermitian_basis(target.shape[0])
    return _constraints(basis, terms, [hs_inner(f, target) for f in basis])


def _conclusive_data(ensemble: Ensemble):
    """No-error subspaces K_i ∩ S of the ensemble support S, and their joint span.

    Returns the isometry from joint-span coordinates into the full space
    and, per state with a nonzero subspace, its basis in the full space and
    in joint-span coordinates and the weighted state compressed onto it.
    """
    support, _, states, kernels = no_error_subspaces(ensemble)
    kernels = {i: kernel for i, kernel in enumerate(kernels) if kernel.shape[1]}
    joint = split_support(sum((k @ k.conj().T for k in kernels.values()), np.zeros((support.shape[1],) * 2)))[0]
    data = {
        i: (support @ k, joint.conj().T @ k, ensemble.priors[i] * (k.conj().T @ states[i] @ k))
        for i, k in kernels.items()
    }
    return support @ joint, data


def _zero_report(ensemble: Ensemble, tol: float, max_iter: int, seed: int) -> SolveReport:
    """Report of a program with nothing to solve: value 0, zero certificate, bounds checked as by a solve."""
    _check_bounds(tol, max_iter)
    zero = HermitianOperator(np.zeros((ensemble.dims.total,) * 2), ensemble.dims)
    residuals = dict.fromkeys(("primal", "dual", "gap"), 0.0)
    return SolveReport(
        "optimal", 0.0, {}, residuals, 0, seed, tol, multipliers=np.zeros(0), dual_certificate=zero
    )


def solve_global(
    ensemble: Ensemble,
    tol: float = 1e-7,
    max_iter: int = 200_000,
    seed: int = 0,
) -> SolveReport:
    """Optimal unambiguous success probability with measurement and certificate.

    The report carries the recovered measurement (conclusive elements
    eigenvalue-clipped to PSD, the inconclusive element rebuilt so the
    family sums to the identity exactly), the trace-minimal dual
    certificate reconstructed from the completeness multipliers, and the
    indices of states that can never be identified conclusively.  The
    report's ``blocks`` are in the coordinates of the compressed program.
    """
    dims = ensemble.dims
    lift, data = _conclusive_data(ensemble)
    w = lift.shape[1]
    if data:
        blocks = [Block(f"x{i}", basis.shape[1]) for i, (basis, _, _) in data.items()] + [Block("slack", w)]
        objective = {f"x{i}": target for i, (_, _, target) in data.items()}
        terms = {f"x{i}": reduced for i, (_, reduced, _) in data.items()} | {"slack": 1.0}
        program = ConicProgram(tuple(blocks), objective, tuple(_matrix_equality(np.eye(w), terms)), sense="max")
        report = solve(program, tol=tol, max_iter=max_iter, seed=seed)
    else:
        report = _zero_report(ensemble, tol, max_iter, seed)

    mats = [np.zeros((dims.total,) * 2, dtype=np.complex128) for _ in range(ensemble.n)]
    value = 0.0
    for i, (basis, _, _) in data.items():
        mats[i] = basis @ psd_part(report.blocks[f"x{i}"][None])[0] @ basis.conj().T
        value += ensemble.priors[i] * hs_inner(ensemble.states[i].matrix, mats[i])
    elements = [HermitianOperator(np.eye(dims.total) - sum(mats), dims)]
    elements += [HermitianOperator(mat, dims) for mat in mats]

    cert_small = smat(report.multipliers, w)
    report.dual_certificate = HermitianOperator(lift @ cert_small @ lift.conj().T, dims)
    report.measurement = Measurement(dims, tuple(elements), label="global-optimal")
    report.value = value
    report.never_conclusive = [i for i in range(ensemble.n) if i not in data]
    return report


def solve_separable_bound(
    ensemble: Ensemble,
    cones: list[ConeGenerators],
    tol: float = 1e-7,
    max_iter: int = 200_000,
    seed: int = 0,
) -> SolveReport:
    """Upper bound on the locally attainable success probability.

    Minimizes the trace of a PSD operator H with Tr[(H - eta_i rho_i) g]
    nonnegative for every generator g of cone i.  The value upper-bounds
    the success probability of any unambiguous measurement whose conclusive
    elements lie in the generated cones; when the generators span the full
    separable no-error cones the value is the separable optimum, which a
    complementary-slackness certificate can confirm afterwards.  A state
    with an empty generator list falls back to the conservative full
    no-error dual constraint (compression PSD on its no-error subspace),
    which keeps the bound valid.  The report's ``blocks`` are in the
    coordinates of the joint support of the generators.
    """
    if len(cones) != ensemble.n:
        raise ValueError(f"expected {ensemble.n} generator cones, got {len(cones)}")
    dims = ensemble.dims
    for k, cone in enumerate(cones):
        if cone.dims != dims:
            raise ValueError(f"cone {k} dims {cone.dims.dims} do not match ensemble {dims.dims}")

    fallback = {i: conclusive_subspace(ensemble, i) for i, cone in enumerate(cones) if not len(cone)}
    generators = [np.array([g.matrix / np.linalg.norm(g.matrix) for g in cone.generators]) for cone in cones]
    cover = [g for gens in generators for g in gens] + [b @ b.conj().T for b in fallback.values()]
    support, _ = split_support(sum(cover, np.zeros((dims.total,) * 2)))
    w = support.shape[1]
    if not w:
        return _zero_report(ensemble, tol, max_iter, seed)

    blocks = [Block("h", w)]
    constraints = []
    for i, gens in enumerate(generators):
        rho = ensemble.states[i].matrix
        prior = ensemble.priors[i]
        basis = fallback.get(i)
        if basis is None:  # a nonempty cone: one pairing row per generator
            rhs = [prior * hs_inner(rho, g) for g in gens]
            constraints += _constraints(gens, {"h": support}, rhs, "ge")
        elif basis.shape[1]:
            blocks.append(Block(f"pos{i}", basis.shape[1]))
            target = prior * (basis.conj().T @ rho @ basis)
            constraints += _matrix_equality(target, {"h": basis.conj().T @ support, f"pos{i}": -1.0})

    program = ConicProgram(tuple(blocks), {"h": np.eye(w)}, tuple(constraints), sense="min")
    report = solve(program, tol=tol, max_iter=max_iter, seed=seed)
    report.dual_certificate = HermitianOperator(support @ report.blocks["h"] @ support.conj().T, dims)
    report.value = report.dual_certificate.trace
    return report
