"""Invariances the mathematics guarantees, as derandomised properties.

Relabelling the states relabels every per-state output, and a local
unitary U_1 x U_2 (or U_1 x U_2 x U_3 on three qubits, applied to the
states and to the cone generators) changes neither the global optimum p_G
nor the separable bound q.  Relabelling the sites, or the basis states of
one site, leaves p_G, q and every verdict unchanged.
"""

import functools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from udbound import (
    ConeGenerators,
    DimVector,
    Ensemble,
    HermitianOperator,
    LoccProtocol,
    Measurement,
    SeparableDecomposition,
    build_example1,
    build_example2,
    conclusive_subspace,
    example_cone_generators,
    solve_global,
    solve_separable_bound,
    verify_locc_equality,
    verify_optimality,
    verify_separable_certificate,
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


class _Relabelling:
    """Permute the basis states of site ``site`` by ``local``, then reorder the sites: new site k is old site ``order[k]``.

    Both are permutations of the product basis, so they act on a full matrix by permuting its rows
    and columns alike, and on a product by permuting its local factors and their entries.
    """

    def __init__(self, dims, order, site, local):
        self.order, self.site, self.local = list(order), site, list(local)
        self.dims = DimVector(tuple(dims[k] for k in self.order))
        index = np.take(np.arange(int(np.prod(dims))).reshape(dims), self.local, axis=site)
        self.index = index.transpose(self.order).reshape(-1)

    def matrix(self, mat: np.ndarray) -> np.ndarray:
        return mat[np.ix_(self.index, self.index)]

    def operator(self, op: HermitianOperator) -> HermitianOperator:
        return HermitianOperator(self.matrix(op.matrix), self.dims)

    def sites(self, per_site: tuple) -> tuple:
        """A per-site tuple (a product's factors, a protocol's POVMs or outcome) in the new site order."""
        return tuple(per_site[k] for k in self.order)

    def factor(self, old_site: int, f: np.ndarray) -> np.ndarray:
        return f[np.ix_(self.local, self.local)] if old_site == self.site else f

    def product(self, factors: tuple) -> tuple:
        return self.sites(tuple(self.factor(k, f) for k, f in enumerate(factors)))

    def measurement(self, m: Measurement) -> Measurement:
        decompositions = tuple(
            None if dec is None else SeparableDecomposition(tuple(map(self.product, dec.terms)))
            for dec in m.decompositions
        )
        protocol = m.locc_protocol
        if protocol is not None:
            protocol = LoccProtocol(
                protocol.description,
                self.sites(tuple(tuple(self.factor(k, f) for f in povm) for k, povm in enumerate(protocol.site_povms))),
                {self.sites(outcome): element for outcome, element in protocol.assignment.items()},
                protocol.default_element,
            )
        elements = tuple(map(self.operator, m.elements))
        return Measurement(self.dims, elements, decompositions, protocol, m.label)

    def cone(self, cone: ConeGenerators) -> ConeGenerators:
        forms = tuple(None if form is None else self.product(form) for form in cone.product_form)
        return ConeGenerators(self.dims, tuple(map(self.operator, cone.generators)), forms)


def _outcomes(ensemble, fixtures, cones, certificates):
    """p_G, q and the (passed, failing, value) of prop1, thm3 and cor3 on the fixtures and ``certificates``."""
    p = solve_global(ensemble, tol=TOL).value
    q = solve_separable_bound(ensemble, cones, tol=TOL).value
    locc = fixtures["locc"]
    reports = [
        verify_optimality(ensemble, fixtures["global"], certificates["global"]),
        verify_optimality(ensemble, locc, certificates["sep"]),
        verify_locc_equality(ensemble, locc, certificates["sep"], cones),
    ] + [verify_separable_certificate(ensemble, locc, certificates[name], cones) for name in certificates]
    return p, q, [(r.passed, r.failing, r.value) for r in reports]


@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(
    family=st.sampled_from(["example1", "example2"]),
    order=st.permutations(range(2)),
    site=st.integers(0, 1),
    local=st.permutations(range(3)),
)
@example(family="example1", order=[1, 0], site=0, local=[0, 1, 2])
@example(family="example1", order=[0, 1], site=1, local=[1, 0, 2])
@example(family="example2", order=[1, 0], site=0, local=[2, 0, 1])
def test_relabelling_sites_or_local_basis_states_leaves_every_verdict_unchanged(family, order, site, local):
    ensemble, fixtures = build_example1() if family == "example1" else build_example2(3)
    cones = [example_cone_generators(ensemble, family, i) for i in range(ensemble.n)]
    side = ensemble.dims.total
    # the swap of the two sites has eigenvalue -1; 14a certifies it by a partial transpose across a cut
    swap = HermitianOperator(np.eye(side)[np.arange(side).reshape(ensemble.dims.dims).T.reshape(-1)], ensemble.dims)
    certificates = {"global": fixtures.global_certificate, "sep": fixtures.sep_certificate, "swap": swap}
    measurements = {"global": fixtures.global_measurement, "locc": fixtures.locc_measurement}

    relabel = _Relabelling(ensemble.dims.dims, order, site, [k for k in local if k < ensemble.dims.dims[site]])
    relabelled = Ensemble(relabel.dims, ensemble.priors, tuple(map(relabel.operator, ensemble.states)), ensemble.label)
    before = _outcomes(ensemble, measurements, cones, certificates)
    after = _outcomes(
        relabelled,
        {name: relabel.measurement(m) for name, m in measurements.items()},
        [relabel.cone(cone) for cone in cones],
        {name: relabel.operator(c) for name, c in certificates.items()},
    )
    assert abs(after[0] - before[0]) <= 2 * TOL and abs(after[1] - before[1]) <= 2 * TOL
    assert [r[:2] for r in after[2]] == [r[:2] for r in before[2]]
    for (_, _, value), (_, _, reference) in zip(after[2], before[2]):
        assert abs(value - reference) <= 1e-12 * abs(reference)
