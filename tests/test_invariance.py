"""Invariances the mathematics guarantees, as derandomised properties.

Relabelling the states relabels every per-state output, and a local
unitary U_1 x U_2 (or U_1 x U_2 x U_3 on three qubits, applied to the
states and to the cone generators) changes neither the global optimum p_G
nor the separable bound q.
"""

import functools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from udbound import (
    ConeGenerators,
    Ensemble,
    HermitianOperator,
    build_example1,
    conclusive_subspace,
    example_cone_generators,
    solve_global,
    solve_separable_bound,
)
from helpers import nested_support_ensemble, random_ensemble

TOL = 1e-8


def _random_two_qubit(seed: int, n: int) -> Ensemble:
    return random_ensemble(np.random.default_rng(seed), (2, 2), n)


def _projectors(ensemble: Ensemble) -> list[np.ndarray]:
    return [b @ b.conj().T for b in (conclusive_subspace(ensemble, i) for i in range(ensemble.n))]


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(
    ensemble=st.builds(_random_two_qubit, st.integers(0, 2**32 - 1), st.integers(2, 4)),
    order=st.permutations(range(4)),
)
@example(ensemble=build_example1()[0], order=[2, 0, 3, 1])
@example(ensemble=nested_support_ensemble(), order=[1, 2, 0, 3])
def test_permuting_the_states_permutes_the_per_state_outputs(ensemble, order):
    order = [j for j in order if j < ensemble.n]
    permuted = Ensemble(
        ensemble.dims,
        tuple(ensemble.priors[j] for j in order),
        tuple(ensemble.states[j] for j in order),
    )
    before, after = _projectors(ensemble), _projectors(permuted)
    for k, j in enumerate(order):
        assert np.abs(after[k] - before[j]).max() <= 1e-10
    report, permuted_report = solve_global(ensemble, tol=TOL), solve_global(permuted, tol=TOL)
    assert permuted_report.never_conclusive == [k for k, j in enumerate(order) if j in report.never_conclusive]
    assert abs(permuted_report.value - report.value) <= 2 * TOL


def _haar(rng: np.random.Generator, side: int) -> np.ndarray:
    z = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_product_cone(rng: np.random.Generator, ensemble: Ensemble) -> ConeGenerators:
    """Zero to two random pure product generators; an empty cone takes the no-error fallback."""
    forms = []
    for _ in range(int(rng.integers(0, 3))):
        vecs = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in ensemble.dims]
        forms.append(tuple(np.outer(v, v.conj()) / np.vdot(v, v).real for v in vecs))
    gens = tuple(HermitianOperator(np.kron(*form), ensemble.dims) for form in forms)
    return ConeGenerators(ensemble.dims, gens, tuple(forms))


def _rotated(op: HermitianOperator, u: np.ndarray) -> HermitianOperator:
    return HermitianOperator(u @ op.matrix @ u.conj().T, op.dims)


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), use_example1=st.booleans())
def test_local_unitaries_leave_p_global_and_q_unchanged(seed, n, use_example1):
    rng = np.random.default_rng(seed)
    if use_example1:
        ensemble = build_example1()[0]
        cones = [example_cone_generators(ensemble, "example1", i) for i in range(ensemble.n)]
    else:
        ensemble = _random_two_qubit(seed, n)
        cones = [_random_product_cone(rng, ensemble) for _ in range(ensemble.n)]
    local = [_haar(rng, d) for d in ensemble.dims]
    u = np.kron(*local)
    rotated = Ensemble(ensemble.dims, ensemble.priors, tuple(_rotated(rho, u) for rho in ensemble.states))
    rotated_cones = [
        ConeGenerators(
            cone.dims,
            tuple(_rotated(g, u) for g in cone.generators),
            tuple(tuple(uk @ f @ uk.conj().T for uk, f in zip(local, form)) for form in cone.product_form),
        )
        for cone in cones
    ]
    p, p_rotated = solve_global(ensemble, tol=TOL), solve_global(rotated, tol=TOL)
    assert abs(p_rotated.value - p.value) <= 2 * TOL
    q = solve_separable_bound(ensemble, cones, tol=TOL)
    q_rotated = solve_separable_bound(rotated, rotated_cones, tol=TOL)
    assert abs(q_rotated.value - q.value) <= 2 * TOL


def _random_product_cone_on(rng: np.random.Generator, ensemble: Ensemble) -> ConeGenerators:
    """Zero to two random pure product generators on any number of sites; empty takes the fallback."""
    forms = []
    for _ in range(int(rng.integers(0, 3))):
        vecs = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in ensemble.dims]
        forms.append(tuple(np.outer(v, v.conj()) / np.vdot(v, v).real for v in vecs))
    gens = tuple(HermitianOperator(functools.reduce(np.kron, form), ensemble.dims) for form in forms)
    return ConeGenerators(ensemble.dims, gens, tuple(forms))


@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4))
def test_three_site_local_unitaries_leave_p_global_and_q_unchanged(seed, n):
    rng = np.random.default_rng(seed)
    ensemble = random_ensemble(rng, (2, 2, 2), n)
    cones = [_random_product_cone_on(rng, ensemble) for _ in range(ensemble.n)]
    local = [_haar(rng, d) for d in ensemble.dims]
    u = functools.reduce(np.kron, local)
    rotated = Ensemble(ensemble.dims, ensemble.priors, tuple(_rotated(rho, u) for rho in ensemble.states))
    rotated_cones = [
        ConeGenerators(
            cone.dims,
            tuple(_rotated(g, u) for g in cone.generators),
            tuple(tuple(uk @ f @ uk.conj().T for uk, f in zip(local, form)) for form in cone.product_form),
        )
        for cone in cones
    ]
    p, p_rotated = solve_global(ensemble, tol=TOL), solve_global(rotated, tol=TOL)
    assert abs(p_rotated.value - p.value) <= 2 * TOL
    q = solve_separable_bound(ensemble, cones, tol=TOL)
    q_rotated = solve_separable_bound(rotated, rotated_cones, tol=TOL)
    assert abs(q_rotated.value - q.value) <= 2 * TOL
