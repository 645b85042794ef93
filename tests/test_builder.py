"""The batched constraint builder against the per-basis builder it replaced.

``reference_basis`` and ``reference_matrix_equality`` are the generator and
the one-row-at-a-time builder the programs used before every constraint went
through ``programs._constraints``; ``reference_rows`` is its per-matrix loop
for an arbitrary stack, and ``reference_separable_bound_program`` builds the
separable bound one generator row at a time.  The batched builder must give
the same coefficients, right-hand sides and assembled programs bit for bit.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import udbound.programs as programs
from udbound import ConeGenerators, HermitianOperator, build_example1, build_example2, example_cone_generators
from udbound.cones import conclusive_subspace, split_support
from udbound.solver import Block, ConicProgram, Constraint, _assemble, _indices, hermitian_basis
from helpers import random_ensemble, solve_global_certificate

_SQRT2 = math.sqrt(2.0)


def reference_basis(side):
    for a in range(side):
        f = np.zeros((side, side), dtype=np.complex128)
        f[a, a] = 1.0
        yield f
    _, rows, cols = _indices(side)[:3]
    for a, b in zip(rows, cols):
        f = np.zeros((side, side), dtype=np.complex128)
        f[a, b] = 1.0 / _SQRT2
        f[b, a] = 1.0 / _SQRT2
        yield f
    for a, b in zip(rows, cols):
        f = np.zeros((side, side), dtype=np.complex128)
        f[a, b] = 1.0j / _SQRT2
        f[b, a] = -1.0j / _SQRT2
        yield f


def reference_matrix_equality(target, terms):
    constraints = []
    for f in reference_basis(target.shape[0]):
        coeffs = {b: m.conj().T @ f @ m if isinstance(m, np.ndarray) else m * f for b, m in terms.items()}
        constraints.append(Constraint(coeffs, float(np.tensordot(f, target.T, axes=2).real)))
    return constraints


def reference_rows(stack, terms, rhs, sense="eq"):
    rows = []
    for s, r in zip(stack, rhs):
        coeffs = {b: m.conj().T @ s @ m if isinstance(m, np.ndarray) else m * s for b, m in terms.items()}
        rows.append(Constraint(coeffs, r, sense))
    return rows


def assert_same_rows(rows, expected):
    assert len(rows) == len(expected)
    for row, ref in zip(rows, expected):
        assert row.sense == ref.sense
        assert np.float64(row.rhs).tobytes() == np.float64(ref.rhs).tobytes()
        assert list(row.coeffs) == list(ref.coeffs)
        for name, coeff in row.coeffs.items():
            assert coeff.dtype == ref.coeffs[name].dtype and coeff.shape == ref.coeffs[name].shape
            assert coeff.tobytes() == ref.coeffs[name].tobytes()


@pytest.mark.parametrize("side", range(9))
def test_basis_stack_equals_the_generator(side):
    stack = hermitian_basis(side)
    expected = list(reference_basis(side))
    assert stack.shape == (side * side, side, side) and stack.dtype == np.complex128
    assert [f.tobytes() for f in stack] == [f.tobytes() for f in expected]


def _signed_zeros(rng, mat):
    """``mat`` with about a third of its real and imaginary parts set to +0.0 or -0.0."""
    mat = np.array(mat, dtype=np.complex128)
    for part in (mat.real, mat.imag):
        hit = rng.random(part.shape) < 1 / 3
        part[hit] = np.where(rng.random(part.shape) < 0.5, 0.0, -0.0)[hit]
    return mat


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _linear_map(rng, target_side, kind):
    """A scalar, or a (target_side, side) matrix of full or deficient rank."""
    if kind == "scalar":
        return float(rng.choice([1.0, -1.0, -0.0, rng.standard_normal()]))
    side = int(rng.integers(1, 7))
    if kind == "full":
        return _signed_zeros(rng, _complex(rng, (target_side, side)))
    rank = int(rng.integers(0, min(target_side, side)))  # deficient; rank 0 is the zero map
    return _signed_zeros(rng, _complex(rng, (target_side, rank)) @ _complex(rng, (rank, side)))


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    side=st.integers(1, 6),
    kinds=st.lists(st.sampled_from(["full", "deficient", "scalar"]), min_size=1, max_size=3),
    real_target=st.booleans(),
)
@example(seed=0, side=1, kinds=["deficient", "scalar"], real_target=True)
@example(seed=1, side=6, kinds=["full", "deficient", "scalar"], real_target=False)
def test_builder_matches_the_per_basis_reference(seed, side, kinds, real_target):
    rng = np.random.default_rng(seed)
    target = _signed_zeros(rng, _complex(rng, (side, side)))
    if real_target:
        target = target.real.copy()
    terms = {f"b{k}": _linear_map(rng, side, kind) for k, kind in enumerate(kinds)}
    assert_same_rows(programs._matrix_equality(target, terms), reference_matrix_equality(target, terms))

    stack = _signed_zeros(rng, _complex(rng, (int(rng.integers(0, 5)), side, side)))
    rhs = [float(r) for r in rng.standard_normal(len(stack))]
    assert_same_rows(programs._constraints(stack, terms, rhs, "ge"), reference_rows(stack, terms, rhs, "ge"))


def reference_separable_bound_program(ensemble, cones):
    """The separable-bound program as built one generator row at a time."""
    dims = ensemble.dims
    fallback = {i: conclusive_subspace(ensemble, i) for i, cone in enumerate(cones) if not len(cone)}
    generators = [[gen.matrix / np.linalg.norm(gen.matrix) for gen in cone.generators] for cone in cones]
    cover = [g for gens in generators for g in gens] + [b @ b.conj().T for b in fallback.values()]
    support, _ = split_support(sum(cover, np.zeros((dims.total,) * 2)))
    w = support.shape[1]
    blocks = [Block("h", w)]
    constraints = []
    for i, gens in enumerate(generators):
        rho = ensemble.states[i].matrix
        prior = ensemble.priors[i]
        for g in gens:
            rhs = prior * float(np.tensordot(rho, g.T, axes=2).real)
            constraints.append(Constraint({"h": support.conj().T @ g @ support}, rhs, "ge"))
        basis = fallback.get(i)
        if basis is not None and basis.shape[1]:
            blocks.append(Block(f"pos{i}", basis.shape[1]))
            target = prior * (basis.conj().T @ rho @ basis)
            constraints += reference_matrix_equality(target, {"h": basis.conj().T @ support, f"pos{i}": -1.0})
    return ConicProgram(tuple(blocks), {"h": np.eye(w)}, tuple(constraints), sense="min")


class _Captured(Exception):
    pass


def _built_programs(monkeypatch, ensemble, cones):
    """The global, certificate and separable-bound programs as ``programs``' helpers build them.

    The certificate program is the test reference ``helpers.solve_global_certificate``,
    which builds through ``programs._matrix_equality`` and solves through ``programs.solve``.
    """
    built = []

    def capture(program, **_):
        built.append(program)
        raise _Captured

    with monkeypatch.context() as patch:
        patch.setattr(programs, "solve", capture)
        for build in (
            lambda: programs.solve_global(ensemble),
            lambda: solve_global_certificate(ensemble),
            lambda: programs.solve_separable_bound(ensemble, cones),
        ):
            with pytest.raises(_Captured):
                build()
    return built


def _random_product_cone(rng, ensemble):
    forms = []
    for _ in range(int(rng.integers(1, 3))):
        vecs = [_complex(rng, d) for d in ensemble.dims]
        forms.append(tuple(np.outer(v, v.conj()) / np.vdot(v, v).real for v in vecs))
    gens = tuple(HermitianOperator(functools.reduce(np.kron, form), ensemble.dims) for form in forms)
    return ConeGenerators(ensemble.dims, gens, tuple(forms))


def _case(name, cones_kind):
    if name == "example1":
        ensemble, which = build_example1()[0], "example1"
    elif name == "example2_d3":
        ensemble, which = build_example2(3)[0], "example2"
    else:
        ensemble = random_ensemble(np.random.default_rng(int(name[-1])), (2, 2, 2), 3 + int(name[-1]) % 2)
    rng = np.random.default_rng(7)
    if cones_kind == "empty":
        cones = [ConeGenerators(ensemble.dims, ()) for _ in range(ensemble.n)]
    elif cones_kind == "example":
        cones = [example_cone_generators(ensemble, which, i) for i in range(ensemble.n)]
    else:
        cones = [_random_product_cone(rng, ensemble) for _ in range(ensemble.n)]
    return ensemble, cones


@pytest.mark.parametrize(
    "name, cones_kind",
    [
        ("example1", "example"),
        ("example1", "empty"),
        ("example2_d3", "example"),
        ("example2_d3", "empty"),
        ("random_3qubit_1", "empty"),
        ("random_3qubit_1", "product"),
        ("random_3qubit_2", "empty"),
        ("random_3qubit_2", "product"),
    ],
)
def test_assembled_programs_equal_reference_built_ones(monkeypatch, name, cones_kind):
    ensemble, cones = _case(name, cones_kind)
    built = _built_programs(monkeypatch, ensemble, cones)
    monkeypatch.setattr(programs, "_matrix_equality", reference_matrix_equality)
    expected = _built_programs(monkeypatch, ensemble, cones)[:2]
    expected.append(reference_separable_bound_program(ensemble, cones))
    assert len(built) == 3
    for program, reference in zip(built, expected):
        assert program.blocks == reference.blocks
        assert [c.sense for c in program.constraints] == [c.sense for c in reference.constraints]
        ours, theirs = _assemble(program), _assemble(reference)
        assert ours.layout == theirs.layout and ours.flip == theirs.flip
        for got, want in ((ours.A, theirs.A), (ours.b, theirs.b), (ours.c, theirs.c)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
