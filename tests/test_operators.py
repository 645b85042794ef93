import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udbound import (
    ConeGenerators,
    DimVector,
    HermitianOperator,
    SeparableDecomposition,
    StateVector,
    basis_state,
    build_example1,
    build_example2,
    compress,
    hs_inner,
    min_eigenvalue,
)
from udbound.operators import kron_sum, min_eigenvalues, nan_max, psd_part
from helpers import partial_trace, random_hermitian, random_psd, reference_min_eigenvalue


def proj_op(vec, dims):
    vec = np.asarray(vec, dtype=complex)
    return HermitianOperator(np.outer(vec, vec.conj()), DimVector(dims))


PSI_M = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
PHI_P = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)


class TestDimVector:
    def test_total_and_sites(self):
        dv = DimVector((2, 3, 4))
        assert dv.total == 24
        assert dv.sites == 3

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            DimVector((2, 0))
        with pytest.raises(ValueError):
            DimVector(())


class TestHermitianOperator:
    def test_symmetrizes_a_deviation_within_the_limit(self):
        mat = np.array([[1.0, 1e-10j], [0.0, 2.0]])
        op = HermitianOperator(mat, DimVector((2,)))
        assert op.matrix.tobytes() == ((mat + mat.conj().T) / 2).tobytes()
        assert np.array_equal(op.matrix, op.matrix.conj().T)

    def test_rejects_non_hermitian(self):
        mat = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="hermiticity deviation"):
            HermitianOperator(mat, DimVector((2,)))

    @pytest.mark.filterwarnings("error")  # no RuntimeWarning from inf - inf
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(math.inf, 0.0), complex(0.0, -math.inf)])
    @pytest.mark.parametrize("entry", [(1, 1), (0, 1)])
    def test_rejects_non_finite_entry(self, bad, entry):
        mat = np.eye(2, dtype=complex)
        mat[entry] = bad
        with pytest.raises(ValueError, match=rf"matrix entry \({entry[0]}, {entry[1]}\) is .*, not finite"):
            HermitianOperator(mat, DimVector((2,)))

    @pytest.mark.filterwarnings("error")  # no RuntimeWarning from the overflow
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_rejects_a_hermitian_part_that_overflows(self, entry):
        # finite and Hermitian, but (A + A^dag)/2 would store inf: no eigenvalue routine sees a non-finite entry
        mat = np.eye(2, dtype=complex)
        mat[entry] = mat[entry[::-1]] = 1.5e308
        with pytest.raises(ValueError, match=rf"^matrix entry \({entry[0]}, {entry[1]}\) overflows"):
            HermitianOperator(mat, DimVector((2,)))

    def test_dims_must_match_matrix(self):
        with pytest.raises(ValueError, match="total dimension"):
            HermitianOperator(np.eye(3), DimVector((2,)))


class TestStateVector:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("build", [StateVector, StateVector.normalized], ids=["constructor", "normalized"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(0.0, -math.inf)])
    @pytest.mark.parametrize("entry", [0, 3])
    def test_rejects_non_finite_amplitude(self, build, bad, entry):
        amp = np.zeros(4, dtype=complex)
        amp[entry] = bad
        with pytest.raises(ValueError, match=rf"amplitude {entry} is {re.escape(str(amp[entry]))}, not finite"):
            build(amp, DimVector((2, 2)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("top, phase", [(1e200, 1.0), (complex(1.5e308, 1.5e308), complex(1.0, 1.0) / math.sqrt(2))])
    def test_normalizes_finite_amplitudes_whose_norm_overflows(self, top, phase):
        state = StateVector.normalized([top, top, 0, 0], (2, 2))
        expected = np.array([phase, phase, 0, 0]) / math.sqrt(2)
        np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=1e-15)

    def test_rejects_non_unit_norm(self):
        with pytest.raises(ValueError, match="vector norm"):
            StateVector(np.array([1.0, 1.0, 0.0, 0.0]), DimVector((2, 2)))


def _kron_loop(terms, sides):
    """The per-term np.kron loop that kron_sum replaced, kept as the reference."""
    total = np.zeros((math.prod(sides),) * 2, dtype=np.complex128)
    for term in terms:
        part = np.ones((1, 1), dtype=np.complex128)
        for f in term:
            part = np.kron(part, f)
        total += part
    return total


@st.composite
def kron_cases(draw, binary):
    """1-4 sites of side 1-4 and 0-8 terms; complex normal factors, or entries 0/1."""
    sides = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    count = draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def factor(s):
        if binary:
            return rng.integers(0, 2, (s, s)).astype(np.complex128)
        return rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))

    return [tuple(factor(s) for s in sides) for _ in range(count)], sides


class TestKronSum:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(kron_cases(binary=False))
    def test_equals_kron_loop_to_rounding(self, case):
        terms, sides = case
        got = kron_sum(terms, sides)
        magnitude = _kron_loop([tuple(np.abs(f) for f in term) for term in terms], sides)
        assert got.shape == (math.prod(sides),) * 2
        assert np.all(np.abs(got - _kron_loop(terms, sides)) <= 1e-13 * max(1.0, magnitude.max()))

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(kron_cases(binary=True))
    def test_equals_kron_loop_bit_for_bit_on_binary_factors(self, case):
        terms, sides = case
        assert kron_sum(terms, sides).tobytes() == _kron_loop(terms, sides).tobytes()

    @pytest.mark.parametrize(
        "terms, message",
        [
            ([(np.eye(2), np.eye(2)), (np.eye(4), np.eye(1))], r"term 1 has factor shapes \[\(4, 4\), \(1, 1\)\]"),
            ([(np.eye(4),)], r"term 0 has factor shapes \[\(4, 4\)\]"),
            ([(np.eye(1), np.eye(1))], r"term 0 has factor shapes \[\(1, 1\), \(1, 1\)\]"),
        ],
    )
    def test_rejects_factors_off_the_site_sides(self, terms, message):
        with pytest.raises(ValueError, match=message + r", expected sides \(2, 2\)"):
            kron_sum(terms, (2, 2))


class TestPartialTrace:
    def test_factorization_identity(self):
        rng = np.random.default_rng(5)
        a = random_hermitian(rng, (2,))
        b = random_hermitian(rng, (3,))
        joint = HermitianOperator(kron_sum(((a.matrix, b.matrix),), (2, 3)), (2, 3))
        reduced = partial_trace(joint, 1)
        assert np.abs(reduced.matrix - b.trace * a.matrix).max() <= 1e-12
        assert reduced.dims == DimVector((2,))

    def test_maximally_entangled_marginal(self):
        reduced = partial_trace(proj_op(PHI_P, (2, 2)), 0)
        assert np.allclose(reduced.matrix, np.eye(2) / 2)

    def test_trace_preserved(self):
        rng = np.random.default_rng(6)
        op = random_hermitian(rng, (2, 2, 2))
        for sites in [(0,), (1, 2), (0, 2)]:
            reduced = partial_trace(op, sites)
            assert reduced.trace == pytest.approx(op.trace, abs=1e-12)

    def test_all_sites_gives_scalar(self):
        rng = np.random.default_rng(7)
        op = random_hermitian(rng, (2, 2))
        scalar = partial_trace(op, (0, 1))
        assert scalar.matrix.shape == (1, 1)
        assert scalar.matrix[0, 0].real == pytest.approx(op.trace, abs=1e-12)

    def test_cross_term_vanishes_for_qudit_family(self):
        # single-site traces of the aligned/shifted cross term are zero
        _, fixtures = build_example2(3)
        aligned, shifted = fixtures.aligned_states[0], fixtures.shifted_states[0]
        cross = np.outer(aligned.amplitudes, shifted.amplitudes.conj())
        for site in (0, 1):
            reduced = partial_trace(cross, site, dims=(3, 3))
            assert np.abs(reduced).max() < 1e-12

    def test_non_hermitian_matrix_input(self):
        # Tr_site2 |00><psi-| = -(1/sqrt2)|0><1|
        v00 = basis_state((2, 2), (0, 0))
        psim = StateVector(PSI_M, DimVector((2, 2)))
        reduced = partial_trace(np.outer(v00.amplitudes, psim.amplitudes.conj()), 1, dims=(2, 2))
        expect = np.zeros((2, 2), dtype=complex)
        expect[0, 1] = -1.0 / math.sqrt(2.0)
        assert np.abs(reduced - expect).max() < 1e-14


class TestIsPsd:
    """PSD-ness read off the smallest eigenvalue."""

    def test_identity(self):
        assert min_eigenvalue(HermitianOperator(np.eye(4), (2, 2))) >= -1e-9

    def test_indefinite(self):
        assert min_eigenvalue(proj_op(PSI_M, (2, 2)) - 0.5 * HermitianOperator(np.eye(4), (2, 2))) < -1e-9

    def test_example1_certificate(self):
        _, fixtures = build_example1()
        assert min_eigenvalue(fixtures.global_certificate) >= -1e-9

    def test_real_entries_in_complex_storage(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((12, 12))
        mat = (a + a.T).astype(np.complex128)
        assert min_eigenvalue(HermitianOperator(mat, (12,))) == pytest.approx(np.linalg.eigvalsh(mat)[0], abs=1e-12)

    def test_imaginary_part_is_kept(self):
        # the real part alone is the identity, whose smallest eigenvalue is 1
        op = HermitianOperator(np.array([[1.0, 1.0j], [-1.0j, 1.0]]), (2,))
        assert min_eigenvalue(op) == pytest.approx(0.0, abs=1e-12)


def _factor(rng, side, kind):
    """A square factor of one kind: Hermitian with real or complex entries, PSD, or holding NaN or inf."""
    a = rng.standard_normal((side, side))
    if kind == "real":
        return a + a.T
    if kind == "real in complex":
        return (a + a.T).astype(np.complex128)
    if kind == "psd":
        return (a @ a.T).astype(np.complex128)
    mat = a + 1j * rng.standard_normal((side, side))
    mat = mat + mat.conj().T
    if kind in ("nan", "inf"):
        mat[rng.integers(side), rng.integers(side)] = math.nan if kind == "nan" else math.inf
    return mat


HERMITIAN_KINDS = ["real", "real in complex", "psd", "complex"]
FACTOR_KINDS = HERMITIAN_KINDS + ["nan", "inf"]


def _hermitian_or_rejected(mat, kind):
    """The stored matrix of an operator built from ``mat``; for a non-finite or non-Hermitian kind, None
    after checking that both an operator and a decomposition factor reject it."""
    side = len(mat)
    if kind in HERMITIAN_KINDS:
        return HermitianOperator(mat, (side,)).matrix
    message = "not finite" if kind in ("nan", "inf") else "hermiticity deviation"
    with pytest.raises(ValueError, match=message):
        HermitianOperator(mat, (side,))
    with pytest.raises(ValueError, match="^term 0 factor 0: .*" + message):
        SeparableDecomposition(((mat,),))
    return None


def _float_bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestStackedMinEigenvalues:
    """One batched eigvalsh per side and kind gives each matrix the value it gets alone, bit for bit.

    Non-finite matrices never reach it: operators and local factors reject them when built.
    """

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(1, 4), st.sampled_from(FACTOR_KINDS)), min_size=1, max_size=8),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_one_matrix_at_a_time(self, specs, seed):
        rng = np.random.default_rng(seed)
        mats = [_hermitian_or_rejected(_factor(rng, side, kind), kind) for side, kind in specs]
        mats = [m for m in mats if m is not None]
        expected = _float_bits([reference_min_eigenvalue(m) for m in mats])
        assert np.array_equal(_float_bits(min_eigenvalues(mats)), expected)
        assert np.array_equal(_float_bits([min_eigenvalue(HermitianOperator(m, (len(m),))) for m in mats]), expected)

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(FACTOR_KINDS), min_size=2, max_size=12), st.integers(0, 2**32 - 1))
    def test_decomposition_residual_is_unchanged(self, kinds, seed):
        # factors of sides 2 and 3, term by term, against the residual built from one check per factor
        rng = np.random.default_rng(seed)
        terms = tuple((_factor(rng, 2, a), _factor(rng, 3, b)) for a, b in zip(kinds[::2], kinds[1::2]))
        if any(kind in ("nan", "inf") for kind in kinds[: 2 * len(terms)]):
            with pytest.raises(ValueError, match=r"^term \d+ factor [01]: matrix entry .* not finite"):
                SeparableDecomposition(terms)
            return
        dec = SeparableDecomposition(terms)
        target = random_hermitian(rng, (2, 3))
        worst = float(np.abs(dec.reconstruct(target.dims) - target.matrix).max())
        expected = nan_max([worst, *(nan_max((0.0, -reference_min_eigenvalue(f))) for t in dec.terms for f in t)])
        assert _float_bits(dec.residual(target)) == _float_bits(expected)

    def test_product_form_with_a_non_psd_factor_is_rejected(self):
        dims = DimVector((2, 2))
        good, bad = np.diag([1.0, 0.0]), np.diag([1.0, -0.5])
        generator = HermitianOperator(np.kron(good, np.abs(bad)), dims)
        ConeGenerators(dims, (generator,), ((good, np.abs(bad)),))
        with pytest.raises(ValueError, match="generator 0 has a non-PSD local factor"):
            ConeGenerators(dims, (generator,), ((good, bad),))


class TestOneSpectralRule:
    """Real arithmetic exactly where the Hermitian part has no imaginary entry, for eigenvalues and clips alike."""

    @pytest.mark.parametrize("side", [1, 4, 33])
    @pytest.mark.parametrize("kind", FACTOR_KINDS + ["not hermitian"])
    def test_min_eigenvalue_equals_the_reference_bit_for_bit(self, kind, side):
        rng = np.random.default_rng([side, len(kind)])
        if kind == "not hermitian":
            mat = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        else:
            mat = _factor(rng, side, kind)
        stored = _hermitian_or_rejected(mat, kind)
        if stored is not None:
            expected = _float_bits(reference_min_eigenvalue(stored))
            assert _float_bits(min_eigenvalue(HermitianOperator(mat, DimVector((side,))))) == expected
            assert _float_bits(min_eigenvalues([stored])[0]) == expected

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        st.integers(1, 4), st.integers(1, 8), st.integers(-8, 8), st.integers(0, 2**32 - 1),
        st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=8, max_size=8),
    )
    def test_real_clip_agrees_with_the_complex_clip(self, count, side, exponent, seed, signs):
        # real symmetric, with exact zero and repeated eigenvalues among the random ones
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.standard_normal((count, side, side)))[0]
        spectrum = np.array(signs[:side]) * rng.choice([1.0, rng.random()], size=(count, side)) * 10.0**exponent
        stack = (q * spectrum[:, None, :]) @ q.swapaxes(1, 2)
        stack = (stack + stack.swapaxes(1, 2)) / 2
        real = psd_part(stack.astype(np.complex128))
        assert not real.imag.any()  # no imaginary entry: decomposed in real arithmetic
        vals, vecs = np.linalg.eigh(stack.astype(np.complex128))
        complex_ = (vecs * np.maximum(vals, 0.0)[:, None, :]) @ vecs.conj().swapaxes(1, 2)
        scale = np.abs(stack).max()
        assert np.abs(real - complex_).max() <= 1e-12 * scale

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        st.integers(1, 5),
        st.lists(st.sampled_from(["real in complex", "psd", "complex"]), min_size=1, max_size=6),
        st.integers(0, 2**32 - 1),
    )
    def test_clip_of_a_stack_matches_one_matrix_at_a_time(self, side, kinds, seed):
        rng = np.random.default_rng(seed)
        stack = np.stack([np.asarray(_factor(rng, side, kind), dtype=np.complex128) for kind in kinds])
        assert psd_part(stack).tobytes() == np.stack([psd_part(m[None])[0] for m in stack]).tobytes()


class TestCompress:
    def test_identity_compression(self):
        rng = np.random.default_rng(15)
        basis = np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))[0]
        small = compress(HermitianOperator(np.eye(4), (2, 2)), basis)
        assert np.allclose(small.matrix, np.eye(2), atol=1e-12)

    def test_example1_certificate_compresses_to_zero(self):
        ensemble, fixtures = build_example1()
        phi1 = np.array([3.0, 0.0, 0.0, -1.0]) / math.sqrt(10.0)
        basis = np.column_stack([phi1, PSI_M])
        shifted = fixtures.global_certificate - ensemble.priors[0] * ensemble.states[0]
        small = compress(shifted, basis)
        assert np.abs(small.matrix).max() < 1e-12

    def test_example2_certificate_compresses_to_zero(self):
        ensemble, fixtures = build_example2(3)
        for i in range(3):
            basis = np.column_stack(
                [fixtures.aligned_states[i].amplitudes, fixtures.shifted_states[i].amplitudes]
            )
            shifted = fixtures.global_certificate - ensemble.priors[i] * ensemble.states[i]
            assert np.abs(compress(shifted, basis).matrix).max() < 1e-12

    def test_rejects_non_orthonormal(self):
        basis = np.column_stack([np.array([1.0, 0, 0, 0]), np.array([1.0, 1.0, 0, 0])])
        with pytest.raises(ValueError, match="orthonormal"):
            compress(HermitianOperator(np.eye(4), (2, 2)), basis)

    def test_preserves_psd(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            op = random_psd(rng, (2, 2), rank=3)
            q = np.linalg.qr(rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))[0]
            assert np.linalg.eigvalsh(compress(op, q).matrix)[0] >= -1e-12


class TestHsInner:
    def test_identity_pairing(self):
        eye = HermitianOperator(np.eye(4), (2, 2))
        assert hs_inner(eye, eye) == pytest.approx(4.0)

    def test_no_error_pairing_is_zero(self):
        ensemble, fixtures = build_example1()
        assert hs_inner(ensemble.states[0], fixtures.global_measurement.elements[2]) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_conclusive_pairing_value(self):
        ensemble, fixtures = build_example1()
        # (5/6) * |<00|phi_1>|^2 = (5/6)(9/10) = 3/4
        assert hs_inner(ensemble.states[0], fixtures.global_measurement.elements[1]) == pytest.approx(
            0.75, abs=1e-14
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            hs_inner(HermitianOperator(np.eye(2), (2,)), HermitianOperator(np.eye(4), (2, 2)))
