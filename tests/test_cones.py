import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from udbound import (
    ConeGenerators,
    DimVector,
    HermitianOperator,
    ProductRayCertificate,
    SchemaError,
    StateVector,
    basis_state,
    build_example1,
    build_example2,
    build_two_pure,
    certify_unique_product_ray,
    conclusive_subspace,
    cones_to_dict,
    example_cone_generators,
    hs_inner,
    identity,
    in_generated_dual,
    is_product_state,
    load_cones,
    min_eigenvalue,
    partial_transpose,
    solve_global,
    tensor,
)
from udbound.cones import RANK_TOL, check_no_error_cone, no_error_subspaces, split_support
from udbound.operators import PSD_TOL
from udbound.jsonio import matrix_to_json, write_json
from helpers import nested_support_ensemble, random_ensemble, random_psd

SQ3 = math.sqrt(3.0)
PSI_M = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)


def proj_op(vec, dims):
    vec = np.asarray(vec, dtype=complex)
    return HermitianOperator(np.outer(vec, vec.conj()), DimVector(dims))


class TestConclusiveSubspace:
    def test_example1_span(self):
        ensemble, _ = build_example1()
        basis = conclusive_subspace(ensemble, 0)
        assert basis.shape == (4, 2)
        phi1 = np.array([3.0, 0.0, 0.0, -1.0]) / math.sqrt(10.0)
        target = np.outer(phi1, phi1.conj()) + np.outer(PSI_M, PSI_M.conj())
        assert np.abs(basis @ basis.conj().T - target).max() < 1e-9

    def test_example2_span(self):
        ensemble, fixtures = build_example2(3)
        basis = conclusive_subspace(ensemble, 0)
        assert basis.shape == (9, 2)
        a = fixtures.aligned_states[0].amplitudes
        s = fixtures.shifted_states[0].amplitudes
        target = np.outer(a, a.conj()) + np.outer(s, s.conj())
        assert np.abs(basis @ basis.conj().T - target).max() < 1e-9

    def test_orthogonal_pure_pair(self):
        ensemble = build_two_pure(basis_state((2, 2), (0, 0)), basis_state((2, 2), (1, 1)), 0.5)
        assert conclusive_subspace(ensemble, 0).shape == (4, 3)


def _pattern_components(nonzero):
    """The connected components of a symmetric nonzero pattern, each a sorted index array, by smallest index."""
    seen, out = set(), []
    for start in range(len(nonzero)):
        if start in seen:
            continue
        seen.add(start)
        stack, members = [start], []
        while stack:
            k = stack.pop()
            members.append(k)
            for j in np.flatnonzero(nonzero[k]).tolist():
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        out.append(np.array(sorted(members)))
    return out


def _reference_split_by_component(psd):
    """Range and kernel bases of a PSD matrix with one ``eigh`` per connected component of its Hermitian part's
    nonzero pattern (the whole matrix when it has no zero entry or is one component), components by smallest
    index, each with its eigenvectors in ascending order, in real arithmetic for a component with real data."""
    herm = (psd + psd.conj().T) / 2
    components = [np.arange(len(herm))] if (herm != 0).all() else _pattern_components(herm != 0)
    dtype = np.complex128 if herm.imag.any() else np.float64
    columns = ([], [])
    for members in components:
        block = herm[np.ix_(members, members)]
        if not block.imag.any():
            block = block.real
        w, v = np.linalg.eigh(block)
        for k in range(len(members)):
            column = np.zeros(len(herm), dtype=dtype)
            column[members] = v[:, k]
            columns[bool(w[k] <= RANK_TOL)].append(column)
    return tuple(np.ascontiguousarray(np.array(c, dtype=dtype).T.reshape(len(herm), len(c))) for c in columns)


def _reference_conclusive_subspace(ensemble, i):
    """The body of ``conclusive_subspace`` before it called ``split_support``, with the split taken one
    component at a time."""
    total = np.zeros((ensemble.dims.total,) * 2, dtype=np.complex128)
    for j, rho in enumerate(ensemble.states):
        if j != i:
            total += rho.matrix
    return _reference_split_by_component(total)[1]


_SPLIT_CASES = {
    "example1": lambda: build_example1()[0],
    "example2_d3": lambda: build_example2(3)[0],
    "example2_d4": lambda: build_example2(4)[0],
    "nested_support": nested_support_ensemble,
    **{
        f"random_{len(dims)}q_seed{seed}": (
            lambda dims=dims, seed=seed: random_ensemble(np.random.default_rng(seed), dims, 2 + seed % 3)
        )
        for dims in ((2, 2), (2, 2, 2))
        for seed in range(6)
    },
}


@pytest.mark.parametrize("case", sorted(_SPLIT_CASES))
def test_conclusive_subspace_matches_the_pre_split_body_bit_for_bit(case):
    """Bit for bit where the support is everything; else the same subspace, as S⊥ ⊕ (K_i ∩ S)."""
    ensemble = _SPLIT_CASES[case]()
    full = np.linalg.eigvalsh(sum(rho.matrix for rho in ensemble.states))[0] > RANK_TOL
    for i in range(ensemble.n):
        basis, reference = conclusive_subspace(ensemble, i), _reference_conclusive_subspace(ensemble, i)
        if full:
            assert basis.tobytes() == reference.tobytes()
        else:
            assert basis.shape == reference.shape
            assert np.abs(basis @ basis.conj().T - reference @ reference.conj().T).max() <= 1e-12


@pytest.mark.parametrize("case", ["example1", "example2_d3", "nested_support", "random_3q_seed0"])
def test_no_error_subspaces_split_the_support_once(case):
    ensemble = _SPLIT_CASES[case]()
    support, complement, states, kernels = no_error_subspaces(ensemble)
    total = ensemble.dims.total
    assert support.shape[1] + complement.shape[1] == total and len(kernels) == ensemble.n
    if not complement.shape[1]:
        assert np.array_equal(support, np.eye(total))
    for i, (rho, small) in enumerate(zip(ensemble.states, states)):
        assert np.abs(complement.conj().T @ rho.matrix @ complement).max(initial=0.0) <= RANK_TOL
        assert np.abs(support.conj().T @ rho.matrix @ support - small).max() <= 1e-12
        lifted = support @ kernels[i]
        for j, other in enumerate(ensemble.states):
            if j != i:
                assert np.abs(lifted.conj().T @ other.matrix @ lifted).max(initial=0.0) <= RANK_TOL


def _reference_split(psd):
    """The one-``eigh`` body of ``split_support`` before it split by component."""
    herm = (psd + psd.conj().T) / 2
    if not herm.imag.any():
        herm = herm.real
    vals, vecs = np.linalg.eigh(herm)
    return vecs[:, vals > RANK_TOL], vecs[:, vals <= RANK_TOL]


@st.composite
def _permuted_block_diagonal(draw):
    """A PSD matrix, block diagonal under a random permutation: blocks of side 1-4, real or complex, of any
    rank (a rank-0 block gives singletons), with nonzero eigenvalues in [0.5, 2]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = draw(st.lists(st.tuples(st.integers(1, 4), st.booleans(), st.integers(0, 4)), min_size=1, max_size=8))
    side = sum(s for s, _, _ in blocks)
    mat = np.zeros((side, side), dtype=np.complex128)
    start = 0
    for s, is_complex, rank in blocks:
        g = rng.standard_normal((s, s)) + (1j * rng.standard_normal((s, s)) if is_complex else 0)
        q = np.linalg.qr(g)[0]
        vals = np.r_[rng.uniform(0.5, 2.0, min(rank, s)), np.zeros(s - min(rank, s))]
        mat[start : start + s, start : start + s] = (q * vals) @ q.conj().T
        start += s
    perm = rng.permutation(side)
    mat = mat[np.ix_(perm, perm)]
    return mat if draw(st.booleans()) else mat.real if not mat.imag.any() else mat


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_permuted_block_diagonal())
@example(np.zeros((3, 3)))
@example(np.diag([1.0, 0.0, 2.0]))
def test_split_by_component_matches_the_dense_split(psd):
    """Range and kernel projectors are the one-``eigh`` split's, each column stays inside one component, and the
    bases are the per-component reference's bit for bit."""
    herm = (psd + psd.conj().T) / 2
    components = _pattern_components(herm != 0)
    for basis, per_component in zip(split_support(psd), _reference_split_by_component(psd)):
        assert basis.dtype == per_component.dtype and basis.tobytes() == per_component.tobytes()
    for basis, reference in zip(split_support(psd), _reference_split(psd)):
        assert basis.shape == reference.shape
        assert np.abs(basis.conj().T @ basis - np.eye(basis.shape[1])).max(initial=0.0) <= 1e-12
        assert np.abs(basis @ basis.conj().T - reference @ reference.conj().T).max(initial=0.0) <= 1e-12
        for column in basis.T:
            support = np.flatnonzero(column)
            assert any(np.isin(support, members).all() for members in components)


@pytest.mark.parametrize(
    "psd",
    [
        random_psd(np.random.default_rng(3), (6,), 4).matrix,
        random_psd(np.random.default_rng(4), (5,)).matrix.real,
        np.diag([2.0, 1.0, 1.0, 0.0]) + np.diag([1.0, 1.0, 1.0], 1) + np.diag([1.0, 1.0, 1.0], -1),  # a path
        np.array([[1.0, 0.0, 1j], [0.0, 1.0, 1.0], [-1j, 1.0, 2.0]]),  # one component, with zeros
    ],
    ids=["dense_complex", "dense_real", "real_path", "complex_with_zeros"],
)
def test_one_component_takes_the_one_eigh_split_bit_for_bit(psd):
    for basis, reference in zip(split_support(psd), _reference_split(psd)):
        assert basis.dtype == reference.dtype and basis.tobytes() == reference.tobytes()


@pytest.mark.parametrize("d", [3, 4])
def test_solved_example2_outputs_keep_the_union_pattern(d):
    """No solved measurement element or certificate entry outside the blocks of the states' union pattern is
    nonzero."""
    ensemble = build_example2(d)[0]
    union = sum(rho.matrix != 0 for rho in ensemble.states)
    labels = np.empty(len(union), dtype=int)
    for k, members in enumerate(_pattern_components(union)):
        labels[members] = k
    outside = labels[:, None] != labels[None, :]
    assert outside.any()
    report = solve_global(ensemble, tol=1e-7)
    assert report.status == "optimal"
    for op in report.measurement.elements + (report.dual_certificate,):
        assert not op.matrix[outside].any()


class TestInGeneratedDual:
    def test_example1_sep_certificate_residual_zero(self):
        ensemble, fixtures = build_example1()
        for i in range(3):
            cone = example_cone_generators(ensemble, "example1", i)
            shifted = fixtures.sep_certificate - ensemble.priors[i] * ensemble.states[i]
            ok, worst = in_generated_dual(shifted, cone, 1e-9)
            assert ok
            assert abs(worst) < 1e-12

    def test_example2_sep_certificate_residual_zero(self):
        ensemble, fixtures = build_example2(3)
        for i in range(3):
            cone = example_cone_generators(ensemble, "example2", i)
            shifted = fixtures.sep_certificate - ensemble.priors[i] * ensemble.states[i]
            ok, worst = in_generated_dual(shifted, cone, 1e-9)
            assert ok
            assert abs(worst) < 1e-12

    def test_negative_identity_fails(self):
        dims = DimVector((2, 2))
        cone = ConeGenerators(dims, (identity(dims),))
        ok, worst = in_generated_dual(-1.0 * identity(dims), cone, 1e-9)
        assert not ok
        assert worst < 0

    def test_empty_generator_list_dualizes_to_everything(self):
        dims = DimVector((2, 2))
        cone = ConeGenerators(dims, ())
        ok, worst = in_generated_dual(-1.0 * identity(dims), cone, 1e-9)
        assert ok
        assert worst == 0.0

    def test_psd_always_member(self):
        rng = np.random.default_rng(22)
        ensemble, _ = build_example1()
        cones = [example_cone_generators(ensemble, "example1", i) for i in range(3)]
        for _ in range(10):
            op = random_psd(rng, (2, 2), rank=2)
            for cone in cones:
                ok, _ = in_generated_dual(op, cone, 1e-9)
                assert ok


class TestExampleConeGenerators:
    def test_example1_state2_generators(self):
        ensemble, _ = build_example1()
        cone = example_cone_generators(ensemble, "example1", 1)
        mu_p = np.array([SQ3 / 2, 0.5])
        one = np.array([0.0, 1.0])
        expect = [
            np.kron(np.outer(mu_p, mu_p), np.outer(one, one)),
            np.kron(np.outer(one, one), np.outer(mu_p, mu_p)),
        ]
        assert len(cone) == 2
        for gen, want in zip(cone.generators, expect):
            assert np.abs(gen.matrix - want).max() < 1e-12

    def test_example2_single_generator(self):
        ensemble, fixtures = build_example2(3)
        cone = example_cone_generators(ensemble, "example2", 0)
        assert len(cone) == 1
        want = fixtures.aligned_states[0].projector().matrix
        assert np.abs(cone.generators[0].matrix - want).max() < 1e-12

    def test_generators_orthogonal_to_other_states(self):
        ensemble, _ = build_example1()
        for i in range(3):
            cone = example_cone_generators(ensemble, "example1", i)
            for gen in cone.generators:
                for j, rho in enumerate(ensemble.states):
                    if j != i:
                        assert abs(hs_inner(gen, rho)) < 1e-12

    def test_mismatched_ensemble_rejected(self):
        ensemble = build_two_pure(basis_state((2, 2), (0, 0)), basis_state((2, 2), (1, 1)), 0.5)
        with pytest.raises(ValueError, match="does not match"):
            example_cone_generators(ensemble, "example1", 0)


class TestProductForm:
    def test_factor_of_wrong_side_rejected(self):
        ensemble, _ = build_example1()
        cone = example_cone_generators(ensemble, "example1", 0)
        whole = (cone.generators[0].matrix, np.eye(1))
        with pytest.raises(ValueError, match=r"generator 0 product form: term 0 has factor shapes \[\(4, 4\), \(1, 1\)\]"):
            ConeGenerators(ensemble.dims, cone.generators, (whole, cone.product_form[1]))

    def test_load_cones_maps_wrong_side_to_schema_error(self, tmp_path):
        ensemble, _ = build_example1()
        cones = [example_cone_generators(ensemble, "example1", i) for i in range(3)]
        payload = cones_to_dict(cones)
        whole = (cones[0].generators[0].matrix, np.eye(1))
        payload["cones"][0][0]["factors"] = [matrix_to_json(f) for f in whole]
        path = tmp_path / "cones.json"
        write_json(path, payload)
        with pytest.raises(SchemaError, match=r"cones\[0\]: generator 0 product form"):
            load_cones(path)


class TestPptCheck:
    """Positivity of the partial transpose across a cut, a necessary condition for separability."""

    def test_product_operator_passes(self):
        rng = np.random.default_rng(23)
        a = random_psd(rng, (2,), rank=2)
        b = random_psd(rng, (2,), rank=1)
        assert min_eigenvalue(partial_transpose(tensor([a, b]), (0,))) >= -PSD_TOL

    def test_singlet_fails(self):
        op = proj_op(PSI_M, (2, 2))
        assert min_eigenvalue(partial_transpose(op, (0,))) == pytest.approx(-0.5, abs=1e-12)

    def test_shifted_state_entangled(self):
        _, fixtures = build_example2(3)
        omega = fixtures.shifted_states[0].projector()
        for cut in ((0,), (1,)):
            assert min_eigenvalue(partial_transpose(omega, cut)) < -PSD_TOL

    def test_decomposed_fixture_elements_pass_all_cuts(self):
        for builder, args in ((build_example1, ()), (build_example2, (3,))):
            _, fixtures = builder(*args)
            m = fixtures.locc_measurement
            sites = m.dims.sites
            cuts = [c for r in range(1, sites) for c in itertools.combinations(range(sites), r)]
            for el, dec in zip(m.elements, m.decompositions):
                assert dec is not None and dec.residual(el) < 1e-9
                for cut in cuts:
                    assert min_eigenvalue(partial_transpose(el, cut)) >= -PSD_TOL


class TestIsProductState:
    def test_product_basis_state(self):
        assert is_product_state(basis_state((2, 2), (0, 0)))

    def test_maximally_entangled_fails(self):
        phi_p = StateVector(np.array([1, 0, 0, 1]) / math.sqrt(2), DimVector((2, 2)))
        assert not is_product_state(phi_p)

    def test_shifted_state_fails(self):
        _, fixtures = build_example2(3)
        assert not is_product_state(fixtures.shifted_states[0])


class TestCertifyUniqueProductRay:
    def test_qudit_family_unique(self):
        _, fixtures = build_example2(3)
        cert = certify_unique_product_ray(fixtures.aligned_states[0], fixtures.shifted_states[0])
        assert cert.verdict == "unique"
        assert cert.cross_trace_residual < 1e-12

    def test_two_product_rays(self):
        cert = certify_unique_product_ray(basis_state((2, 2), (0, 0)), basis_state((2, 2), (1, 1)))
        assert cert.verdict == "not unique"

    def test_nonvanishing_cross_trace_inconclusive(self):
        psim = StateVector(PSI_M, DimVector((2, 2)))
        cert = certify_unique_product_ray(basis_state((2, 2), (0, 0)), psim)
        assert cert.verdict == "inconclusive"
        assert cert.cross_trace_residual == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_rejects_entangled_first_argument(self):
        psim = StateVector(PSI_M, DimVector((2, 2)))
        with pytest.raises(ValueError, match="not a product state"):
            certify_unique_product_ray(psim, basis_state((2, 2), (0, 0)))

    def test_result_holds_the_verdict_and_the_residual_only(self):
        assert [f.name for f in dataclasses.fields(ProductRayCertificate)] == ["verdict", "cross_trace_residual"]

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_qudit_family_unique_for_every_state(self, d):
        _, fixtures = build_example2(d)
        for aligned, shifted in zip(fixtures.aligned_states, fixtures.shifted_states):
            cert = certify_unique_product_ray(aligned, shifted)
            assert cert.verdict == "unique" and cert.cross_trace_residual < 1e-12

    def test_explicit_qutrit_pair_unique(self):
        pair = basis_state((3, 3), (1, 1)).amplitudes + basis_state((3, 3), (2, 2)).amplitudes
        cert = certify_unique_product_ray(basis_state((3, 3), (0, 0)), StateVector.normalized(pair, (3, 3)))
        assert cert.verdict == "unique" and cert.cross_trace_residual == 0.0


@functools.cache
def _example2_fixtures(d):
    return build_example2(d)[1]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    d=st.sampled_from([3, 4]),
    i=st.integers(0, 3),
    weight=st.floats(1e-3, 1.0),
    phases=st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi)),
)
@example(d=3, i=0, weight=1e-3, phases=(0.0, 0.0))
@example(d=4, i=3, weight=1.0, phases=(0.0, math.pi))
def test_no_superposition_with_a_shifted_component_is_a_product(d, i, weight, phases):
    """What the exact criterion proves, sampled: c1 aligned_i + c2 shifted_i is never a product for |c2| >= 1e-3."""
    fixtures = _example2_fixtures(d)
    i %= d
    c1 = math.sqrt(1.0 - weight**2) * complex(math.cos(phases[0]), math.sin(phases[0]))
    c2 = weight * complex(math.cos(phases[1]), math.sin(phases[1]))
    amp = c1 * fixtures.aligned_states[i].amplitudes + c2 * fixtures.shifted_states[i].amplitudes
    assert not is_product_state(StateVector.normalized(amp, fixtures.aligned_states[i].dims))


class TestSeparableDualTraceProperty:
    def test_random_members_have_positive_trace(self):
        # PSD operators and partial transposes of PSD operators both pair
        # nonnegatively with separable operators; nonzero ones must have
        # strictly positive trace.
        rng = np.random.default_rng(24)
        for k in range(100):
            op = random_psd(rng, (2, 2), rank=rng.integers(1, 5))
            if k % 2 == 1:
                mat = partial_transpose(op.matrix, (0,), dims=(2, 2))
                op = HermitianOperator(mat, DimVector((2, 2)))
            assert np.abs(op.matrix).max() > 1e-12
            assert op.trace > 1e-12


class TestNoErrorConeCheck:
    """``check_no_error_cone``: generators of cone i give zero probability on every state j != i."""

    def test_example_cones_pass(self):
        ensemble, _ = build_example1()
        for i in range(ensemble.n):
            check_no_error_cone(ensemble, i, example_cone_generators(ensemble, "example1", i), 1e-10)

    def test_cone_of_another_state_names_cone_generator_and_state(self):
        ensemble, _ = build_example1()
        cone = example_cone_generators(ensemble, "example1", 1)
        message = r"cone 0 generator 0 is not orthogonal to state 1 \(\|Tr\(g rho\)\| = "
        with pytest.raises(ValueError, match=message):
            check_no_error_cone(ensemble, 0, cone, 1e-8)

    def test_tolerance_scales_with_the_generator_norm(self):
        ensemble, _ = build_example1()
        gen = example_cone_generators(ensemble, "example1", 0).generators[0]
        tilted = HermitianOperator(gen.matrix + 1e-9 * ensemble.states[1].matrix, ensemble.dims)
        for scale in (1.0, 1e6):
            cone = ConeGenerators(ensemble.dims, (HermitianOperator(scale * tilted.matrix, ensemble.dims),))
            check_no_error_cone(ensemble, 0, cone, 1e-8)
            with pytest.raises(ValueError, match="generator 0 is not orthogonal to state 1"):
                check_no_error_cone(ensemble, 0, cone, 1e-10)

    def test_mismatched_dims_are_named(self):
        ensemble, _ = build_example1()
        cone = ConeGenerators(DimVector((4,)), ())
        with pytest.raises(ValueError, match=r"cone 2 dims \(4,\) do not match ensemble \(2, 2\)"):
            check_no_error_cone(ensemble, 2, cone, 1e-8)


class TestZeroGenerator:
    def test_rejected_at_construction(self):
        dims = DimVector((2, 2))
        zero = HermitianOperator(np.zeros((4, 4)), dims)
        with pytest.raises(ValueError, match="generator 1 is zero"):
            ConeGenerators(dims, (identity(dims), zero))

    def test_cone_file_is_a_schema_error(self, tmp_path):
        ensemble, _ = build_example1()
        payload = cones_to_dict([example_cone_generators(ensemble, "example1", i) for i in range(3)])
        payload["cones"][2].append({"matrix": matrix_to_json(np.zeros((4, 4)))})
        path = tmp_path / "cones.json"
        write_json(path, payload)
        with pytest.raises(SchemaError, match=r"cones\[2\]: generator 2 is zero"):
            load_cones(path)
