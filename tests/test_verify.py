import math

import numpy as np
import pytest

from udbound import (
    ConeGenerators,
    DimVector,
    HermitianOperator,
    LoccProtocol,
    Measurement,
    PrecheckError,
    ProtocolError,
    SeparableDecomposition,
    basis_state,
    build_example1,
    build_example2,
    build_two_pure,
    check_no_error,
    example_cone_generators,
    hs_inner,
    load_certificate,
    load_cones,
    load_ensemble,
    load_measurement,
    nlwe_witness,
    save_certificate,
    save_cones,
    save_ensemble,
    save_measurement,
    solve_separable_bound,
    verify_locc_equality,
    verify_optimality,
    verify_separable_certificate,
)
from helpers import (
    SINGLET,
    forged_global_as_protocol,
    forged_global_as_separable,
    mixed_shape_protocol,
    one_site_global,
    random_psd,
    unhermitian_singlet_povm,
    unhermitian_singlet_terms,
)


@pytest.fixture(scope="module")
def example1():
    ensemble, fixtures = build_example1()
    cones = [example_cone_generators(ensemble, "example1", i) for i in range(3)]
    return ensemble, fixtures, cones


@pytest.fixture(scope="module")
def example2_d3():
    ensemble, fixtures = build_example2(3)
    cones = [example_cone_generators(ensemble, "example2", i) for i in range(3)]
    return ensemble, fixtures, cones


class TestCheckNoError:
    def test_global_fixture_passes(self, example1):
        ensemble, fixtures, _ = example1
        assert check_no_error(ensemble, fixtures.global_measurement, tol=1e-8).passed

    def test_locc_fixture_passes(self, example1):
        ensemble, fixtures, _ = example1
        assert check_no_error(ensemble, fixtures.locc_measurement, tol=1e-8).passed

    def test_uniform_element_fails_with_quarter_residual(self, example1):
        ensemble, fixtures, _ = example1
        elements = list(fixtures.global_measurement.elements)
        elements[1] = HermitianOperator(0.25 * np.eye(4), ensemble.dims)
        broken = Measurement(ensemble.dims, tuple(elements))
        report = check_no_error(ensemble, broken, tol=1e-8)
        assert not report.passed
        assert report.details["3"]["i=2,j=1"] == pytest.approx(0.25, abs=1e-12)

    def test_size_mismatch_errors(self, example1):
        ensemble, fixtures, _ = example1
        short = Measurement(ensemble.dims, fixtures.global_measurement.elements[:3])
        with pytest.raises(ValueError, match="elements"):
            check_no_error(ensemble, short)


class TestVerifyOptimality:
    def test_example1_passes_with_value(self, example1):
        ensemble, fixtures, _ = example1
        report = verify_optimality(
            ensemble, fixtures.global_measurement, fixtures.global_certificate, tol=1e-8
        )
        assert report.passed
        assert report.value == pytest.approx(0.75, abs=1e-12)

    def test_example2_passes_with_value(self, example2_d3):
        ensemble, fixtures, _ = example2_d3
        report = verify_optimality(
            ensemble, fixtures.global_measurement, fixtures.global_certificate, tol=1e-8
        )
        assert report.passed
        assert report.value == pytest.approx(0.4, abs=1e-12)

    def test_scaled_certificate_fails_slackness(self, example1):
        ensemble, fixtures, _ = example1
        doubled = verify_optimality(
            ensemble, fixtures.global_measurement, 2.0 * fixtures.global_certificate, tol=1e-8
        )
        assert not doubled.passed
        assert "7d" in doubled.failing
        halved = verify_optimality(
            ensemble, fixtures.global_measurement, 0.5 * fixtures.global_certificate, tol=1e-8
        )
        assert not halved.passed
        assert {"7c", "7d"} <= set(halved.failing)

    def test_broken_povm_raises_precheck(self, example1):
        ensemble, fixtures, _ = example1
        elements = list(fixtures.global_measurement.elements)
        elements[0] = 0.5 * elements[0]
        broken = Measurement(ensemble.dims, tuple(elements))
        with pytest.raises(PrecheckError, match="completeness"):
            verify_optimality(ensemble, broken, fixtures.global_certificate)

    def test_swapped_elements_fail_no_error_precheck(self, example1):
        ensemble, fixtures, _ = example1
        elements = list(fixtures.global_measurement.elements)
        elements[1], elements[2] = elements[2], elements[1]
        swapped = Measurement(ensemble.dims, tuple(elements))
        with pytest.raises(PrecheckError, match="no-error precheck failed"):
            verify_optimality(ensemble, swapped, fixtures.global_certificate)


class TestVerifySeparableCertificate:
    def test_example1_passes(self, example1):
        ensemble, fixtures, cones = example1
        report = verify_separable_certificate(
            ensemble, fixtures.locc_measurement, fixtures.sep_certificate, cones, tol=1e-8
        )
        assert report.passed
        assert report.value == pytest.approx(0.5, abs=1e-12)
        assert not report.unverified

    def test_example2_passes(self, example2_d3):
        ensemble, fixtures, cones = example2_d3
        report = verify_separable_certificate(
            ensemble, fixtures.locc_measurement, fixtures.sep_certificate, cones, tol=1e-8
        )
        assert report.passed
        assert report.value == pytest.approx(0.2, abs=1e-12)

    def test_orthogonal_product_pair_trivial_certificate(self):
        dims = DimVector((2, 2))
        v00 = basis_state(dims, (0, 0))
        v11 = basis_state(dims, (1, 1))
        ensemble = build_two_pure(v00, v11, 0.5)
        certificate = HermitianOperator(0.5 * (v00.projector().matrix + v11.projector().matrix), dims)
        e0 = np.array([[1.0, 0.0], [0.0, 0.0]])
        e1 = np.array([[0.0, 0.0], [0.0, 1.0]])
        m0 = HermitianOperator(np.eye(4), dims) - v00.projector() - v11.projector()
        m0_dec = SeparableDecomposition(((e0, e1), (e1, e0)))
        measurement = Measurement(
            dims,
            (m0, v00.projector(), v11.projector()),
            decompositions=(m0_dec, SeparableDecomposition(((e0, e0),)), SeparableDecomposition(((e1, e1),))),
        )
        cones = [
            ConeGenerators(dims, (v00.projector(),)),
            ConeGenerators(dims, (v11.projector(),)),
        ]
        report = verify_separable_certificate(ensemble, measurement, certificate, cones, tol=1e-8)
        assert report.passed
        assert report.value == pytest.approx(1.0, abs=1e-12)

    def test_missing_decomposition_errors(self, example1):
        ensemble, fixtures, cones = example1
        stripped = Measurement(ensemble.dims, fixtures.locc_measurement.elements)
        with pytest.raises(PrecheckError, match="separability not certified"):
            verify_separable_certificate(ensemble, stripped, fixtures.sep_certificate, cones)

    def test_scaled_certificate_fails(self, example1):
        ensemble, fixtures, cones = example1
        doubled = verify_separable_certificate(
            ensemble, fixtures.locc_measurement, 2.0 * fixtures.sep_certificate, cones, tol=1e-8
        )
        assert not doubled.passed
        assert "16b" in doubled.failing
        halved = verify_separable_certificate(
            ensemble, fixtures.locc_measurement, 0.5 * fixtures.sep_certificate, cones, tol=1e-8
        )
        assert not halved.passed
        assert "14b" in halved.failing

    @pytest.mark.parametrize("scale", [2.0, 0.5])
    def test_scaling_breaks_slackness_on_qudit_family(self, example2_d3, scale):
        ensemble, fixtures, cones = example2_d3
        prop = verify_optimality(
            ensemble, fixtures.global_measurement, scale * fixtures.global_certificate, tol=1e-8
        )
        assert not prop.passed
        assert {"7c", "7d"} & set(prop.failing)
        thm = verify_separable_certificate(
            ensemble, fixtures.locc_measurement, scale * fixtures.sep_certificate, cones, tol=1e-8
        )
        assert not thm.passed
        assert {"14b", "16b"} & set(thm.failing)

    def test_indefinite_certificate_reported_unverified(self, example1):
        ensemble, fixtures, cones = example1
        indefinite = fixtures.sep_certificate - 0.05 * HermitianOperator(np.eye(4), ensemble.dims)
        report = verify_separable_certificate(
            ensemble, fixtures.locc_measurement, indefinite, cones, tol=1e-8
        )
        assert "14a" in report.unverified
        assert any("unverified" in note for note in report.notes)

    def test_certificate_certified_by_partial_transpose(self, example1):
        # the 2x2 swap has eigenvalue -1, and its partial transpose is 2|Phi+><Phi+|, PSD
        ensemble, fixtures, cones = example1
        swap = np.eye(4)[[0, 2, 1, 3]]
        report = verify_separable_certificate(
            ensemble, fixtures.locc_measurement, HermitianOperator(swap, ensemble.dims), cones, tol=1e-8
        )
        assert report.residuals["14a"] == 0.0
        assert "certified via partial transpose across sites (0,)" in report.notes
        assert report.details["14a"]["psd"] == -1.0


class TestVerifyLoccEquality:
    def test_example1_passes(self, example1):
        ensemble, fixtures, cones = example1
        report = verify_locc_equality(
            ensemble, fixtures.locc_measurement, fixtures.sep_certificate, cones, tol=1e-8
        )
        assert report.passed
        assert report.value == pytest.approx(0.5, abs=1e-12)
        assert report.residuals["locc"] < 1e-12

    def test_example2_passes(self, example2_d3):
        ensemble, fixtures, cones = example2_d3
        report = verify_locc_equality(
            ensemble, fixtures.locc_measurement, fixtures.sep_certificate, cones, tol=1e-8
        )
        assert report.passed
        assert report.value == pytest.approx(0.2, abs=1e-12)

    def test_decompositions_derived_from_protocol(self, example2_d3):
        ensemble, fixtures, cones = example2_d3
        bare = Measurement(
            ensemble.dims,
            fixtures.locc_measurement.elements,
            locc_protocol=fixtures.locc_measurement.locc_protocol,
        )
        report = verify_locc_equality(ensemble, bare, fixtures.sep_certificate, cones, tol=1e-8)
        assert report.passed

    def test_zeroed_local_element_fails_completeness(self, example1):
        ensemble, fixtures, cones = example1
        protocol = fixtures.locc_measurement.locc_protocol
        site0 = (np.zeros((2, 2)),) + protocol.site_povms[0][1:]
        broken = LoccProtocol(protocol.description, (site0, protocol.site_povms[1]), protocol.assignment)
        mutated = Measurement(
            ensemble.dims,
            fixtures.locc_measurement.elements,
            decompositions=fixtures.locc_measurement.decompositions,
            locc_protocol=broken,
        )
        with pytest.raises(ProtocolError, match="incomplete"):
            verify_locc_equality(ensemble, mutated, fixtures.sep_certificate, cones)

    def test_complete_but_indefinite_local_element_is_named(self, example1):
        # moving 0.5|v><v|, v orthogonal to mu+, from element 1 to element 2 keeps the sum I
        ensemble, fixtures, cones = example1
        protocol = fixtures.locc_measurement.locc_protocol
        v = np.array([-0.5, math.sqrt(3.0) / 2])
        shift = 0.5 * np.outer(v, v)
        site0 = list(protocol.site_povms[0])
        site0[1], site0[2] = site0[1] - shift, site0[2] + shift
        broken = LoccProtocol(protocol.description, (tuple(site0), protocol.site_povms[1]), protocol.assignment)
        mutated = Measurement(ensemble.dims, fixtures.locc_measurement.elements, locc_protocol=broken)
        with pytest.raises(ProtocolError, match=r"^local POVM element 1 at site 0 not PSD \(min eigenvalue -5\.000e-01\)$"):
            verify_locc_equality(ensemble, mutated, fixtures.sep_certificate, cones)

    def test_missing_protocol_errors(self, example1):
        ensemble, fixtures, cones = example1
        bare = Measurement(
            ensemble.dims,
            fixtures.locc_measurement.elements,
            decompositions=fixtures.locc_measurement.decompositions,
        )
        with pytest.raises(PrecheckError, match="protocol"):
            verify_locc_equality(ensemble, bare, fixtures.sep_certificate, cones)

    def test_misassigned_outcome_is_not_reproduced(self, example1):
        ensemble, fixtures, cones = example1
        protocol = fixtures.locc_measurement.locc_protocol
        moved = LoccProtocol(protocol.description, protocol.site_povms, {**protocol.assignment, (1, 2): 2})
        mutated = Measurement(
            ensemble.dims,
            fixtures.locc_measurement.elements,
            decompositions=fixtures.locc_measurement.decompositions,
            locc_protocol=moved,
        )
        with pytest.raises(ProtocolError, match="protocol does not reproduce element 1"):
            verify_locc_equality(ensemble, mutated, fixtures.sep_certificate, cones)


class TestForgedProductStructure:
    """Factors must have the site sides; otherwise the global optimum 3/4 passes as local."""

    def test_whole_space_factor_is_not_a_separable_decomposition(self, example1):
        ensemble, fixtures, cones = example1
        forged = forged_global_as_separable(ensemble, fixtures)
        with pytest.raises(PrecheckError, match=r"element 0 decomposition: term 0 has factor shapes \[\(4, 4\), \(1, 1\)\]"):
            verify_separable_certificate(ensemble, forged, fixtures.global_certificate, cones)

    def test_whole_space_site_is_not_a_local_protocol(self, example1):
        ensemble, fixtures, cones = example1
        forged = forged_global_as_protocol(ensemble, fixtures)
        with pytest.raises(ProtocolError, match=r"term 0 has factor shapes \[\(4, 4\), \(1, 1\)\]"):
            verify_locc_equality(ensemble, forged, fixtures.global_certificate, cones)


class TestNonHermitianFactors:
    """Local factors obey the operator rule: non-Hermitian ones whose Hermitian parts are PSD rebuild the
    entangled singlet, so they would certify it as separable, or as reached by a local protocol."""

    def test_decomposition_of_the_singlet_is_rejected(self):
        terms = unhermitian_singlet_terms()
        rebuilt = sum(np.kron(a, b) for a, b in terms)
        assert np.abs(rebuilt - 4 * np.outer(SINGLET, SINGLET)).max() < 1e-15
        with pytest.raises(ValueError, match=r"^term 0 factor 0: hermiticity deviation 1\.414e\+00 exceeds tolerance"):
            SeparableDecomposition(tuple(terms))

    def test_local_povm_of_the_singlet_is_rejected(self):
        povm = unhermitian_singlet_povm()
        assert np.abs(sum(povm) - np.eye(2)).max() < 1e-15
        rebuilt = sum(np.kron(e, e) for e in povm)
        assert np.abs(rebuilt - (2 / 3) * np.outer(SINGLET, SINGLET)).max() < 1e-15
        with pytest.raises(
            ValueError, match=r"^local POVM element 0 at site 0: hermiticity deviation 5\.774e-01 exceeds tolerance"
        ):
            LoccProtocol("singlet", (povm, povm), {(e, e): 1 for e in range(len(povm))})


class TestDimsMustMatchTheEnsemble:
    """example1's entangled optimum on one site of side 4: every factor fits that site, none fits 2x2."""

    @staticmethod
    def verify(kind, ensemble, measurement, certificate, cones):
        if kind == "prop1":
            return verify_optimality(ensemble, measurement, certificate)
        if kind == "thm3":
            return verify_separable_certificate(ensemble, measurement, certificate, cones)
        return verify_locc_equality(ensemble, measurement, certificate, cones)

    @pytest.mark.parametrize("kind", ["prop1", "thm3", "cor3"])
    def test_measurement_on_other_dims_is_rejected(self, example1, kind):
        ensemble, fixtures, cones = example1
        measurement = one_site_global(fixtures, protocol=kind == "cor3")
        with pytest.raises(PrecheckError, match=r"^measurement dims \(4,\) do not match ensemble \(2, 2\)$"):
            self.verify(kind, ensemble, measurement, fixtures.global_certificate, cones)

    @pytest.mark.parametrize("kind", ["prop1", "thm3", "cor3"])
    def test_certificate_on_other_dims_is_rejected(self, example1, kind):
        ensemble, fixtures, cones = example1
        measurement = fixtures.global_measurement if kind == "prop1" else fixtures.locc_measurement
        certificate = fixtures.global_certificate if kind == "prop1" else fixtures.sep_certificate
        flat = HermitianOperator(certificate.matrix, DimVector((4,)))
        with pytest.raises(PrecheckError, match=r"^certificate dims \(4,\) do not match ensemble \(2, 2\)$"):
            self.verify(kind, ensemble, measurement, flat, cones)

    def test_protocol_is_not_rebuilt_before_the_dims_check(self, example1, monkeypatch):
        ensemble, fixtures, cones = example1
        calls = []
        monkeypatch.setattr(LoccProtocol, "reconstruct_elements", lambda *args: calls.append(args))
        with pytest.raises(PrecheckError, match="measurement dims"):
            verify_locc_equality(ensemble, one_site_global(fixtures, protocol=True), fixtures.global_certificate, cones)
        assert not calls


def test_mixed_povm_element_shapes_name_the_site(example1):
    ensemble, fixtures, cones = example1
    mixed = mixed_shape_protocol(ensemble, fixtures)
    with pytest.raises(ProtocolError, match=r"local POVM at site 0 needs one element shape, has \[\(2, 2\), \(3, 3\)\]"):
        verify_locc_equality(ensemble, mixed, fixtures.sep_certificate, cones)


def test_empty_site_povm_names_the_site(example1):
    ensemble, fixtures, cones = example1
    empty = LoccProtocol("empty site 1", (fixtures.locc_measurement.locc_protocol.site_povms[0], ()))
    measurement = Measurement(ensemble.dims, fixtures.locc_measurement.elements, locc_protocol=empty)
    with pytest.raises(ProtocolError, match=r"local POVM at site 1 needs one element shape, has \[\]"):
        verify_locc_equality(ensemble, measurement, fixtures.sep_certificate, cones)


class TestExample2D5:
    """The 620-term inconclusive element at d=5 (4 sites of side 5)."""

    @pytest.fixture(scope="class")
    def example2_d5(self):
        ensemble, fixtures = build_example2(5)
        cones = [example_cone_generators(ensemble, "example2", i) for i in range(5)]
        return ensemble, fixtures, cones

    def test_thm3_passes(self, example2_d5):
        ensemble, fixtures, cones = example2_d5
        report = verify_separable_certificate(
            ensemble, fixtures.locc_measurement, fixtures.sep_certificate, cones, tol=1e-8
        )
        assert report.passed and not report.unverified
        assert report.value == pytest.approx(1 / 617, abs=1e-12)

    def test_cor3_passes(self, example2_d5):
        ensemble, fixtures, cones = example2_d5
        report = verify_locc_equality(
            ensemble, fixtures.locc_measurement, fixtures.sep_certificate, cones, tol=1e-8
        )
        assert report.passed and report.residuals["locc"] == 0.0
        assert report.value == pytest.approx(1 / 617, abs=1e-12)


class TestNlweWitness:
    def test_example1_witnessed(self, example1):
        ensemble, _, cones = example1
        result = nlwe_witness(ensemble, cones, tol=1e-7)
        assert result.witnessed
        assert result.p_global == pytest.approx(0.75, abs=1e-6)
        assert result.q_bound == pytest.approx(0.5, abs=1e-6)

    def test_unconverged_solves_witness_nothing(self, example1):
        # after two iterations p_global is above 1 and q_bound far below it
        ensemble, _, cones = example1
        result = nlwe_witness(ensemble, cones, tol=1e-7, max_iter=2)
        assert result.global_report.status == "max_iterations"
        assert result.q_bound < result.p_global - 2e-7
        assert not result.witnessed

    def test_orthogonal_product_pair_not_witnessed(self):
        dims = DimVector((2, 2))
        v00 = basis_state(dims, (0, 0))
        v11 = basis_state(dims, (1, 1))
        ensemble = build_two_pure(v00, v11, 0.5)
        cones = [
            ConeGenerators(dims, (v00.projector(),)),
            ConeGenerators(dims, (v11.projector(),)),
        ]
        result = nlwe_witness(ensemble, cones, tol=1e-7)
        assert not result.witnessed
        assert result.p_global == pytest.approx(1.0, abs=1e-6)
        assert result.q_bound == pytest.approx(1.0, abs=1e-6)


class TestWeakDualitySandwich:
    def test_randomized_feasible_pairs(self, example1):
        # scaling down an unambiguous separable measurement keeps it feasible;
        # adding any PSD operator to a feasible bound certificate keeps it
        # feasible: the success probability can never exceed the trace.
        ensemble, fixtures, cones = example1
        rng = np.random.default_rng(50)
        for _ in range(20):
            t = rng.uniform(0.1, 1.0)
            success = sum(
                prior * t * hs_inner(rho, fixtures.locc_measurement.elements[i + 1])
                for i, (prior, rho) in enumerate(ensemble.items)
            )
            bump = random_psd(rng, (2, 2), rank=int(rng.integers(1, 5)))
            certificate = fixtures.sep_certificate + bump
            for i, (prior, rho) in enumerate(ensemble.items):
                shifted = certificate - prior * rho
                from udbound import in_generated_dual

                ok, _ = in_generated_dual(shifted, cones[i], 1e-9)
                assert ok
            assert success <= certificate.trace + 1e-9


class TestReproducibilityFromSerializedInputs:
    def test_verdict_survives_round_trip(self, tmp_path, example1):
        ensemble, fixtures, cones = example1
        save_ensemble(ensemble, tmp_path / "e.json")
        save_measurement(fixtures.locc_measurement, tmp_path / "m.json")
        save_certificate(fixtures.sep_certificate, tmp_path / "h.json")
        save_cones(cones, tmp_path / "c.json")
        report = verify_locc_equality(
            load_ensemble(tmp_path / "e.json"),
            load_measurement(tmp_path / "m.json"),
            load_certificate(tmp_path / "h.json"),
            load_cones(tmp_path / "c.json"),
            tol=1e-8,
        )
        direct = verify_locc_equality(
            ensemble, fixtures.locc_measurement, fixtures.sep_certificate, cones, tol=1e-8
        )
        assert report.passed == direct.passed
        assert report.residuals == direct.residuals


class TestNanOperators:
    """No operator or local factor holds a NaN entry: each is rejected where it is built.

    LAPACK alone reads these matrices as PSD.
    """

    NAN_MATRICES = [
        [[math.nan, 0], [0, 1]],
        [[1, 0, 0], [0, 1, math.nan], [0, math.nan, 1]],
    ]

    @pytest.mark.parametrize("mat", NAN_MATRICES)
    def test_not_psd(self, mat):
        mat = np.array(mat, dtype=np.complex128)
        with pytest.raises(ValueError, match="not finite"):
            HermitianOperator(mat, DimVector((len(mat),)))
        with pytest.raises(ValueError, match=r"^term 0 factor 1: matrix entry \(\d, \d\) is \(nan\+0j\), not finite"):
            SeparableDecomposition(((np.eye(1), mat),))

    def test_nan_element_is_rejected(self, example1):
        ensemble, fixtures, _ = example1
        mat = np.array(fixtures.global_measurement.elements[1].matrix)
        mat[0, 0] = math.nan
        with pytest.raises(ValueError, match=r"matrix entry \(0, 0\) is \(nan\+0j\), not finite"):
            HermitianOperator(mat, ensemble.dims)

    def test_nan_local_povm_element_raises(self, example1):
        ensemble, fixtures, cones = example1
        protocol = fixtures.locc_measurement.locc_protocol
        nan_element = np.array(protocol.site_povms[0][0])
        nan_element[1, 1] = math.nan
        site0 = (nan_element,) + protocol.site_povms[0][1:]
        with pytest.raises(ValueError, match=r"^local POVM element 0 at site 0: matrix entry \(1, 1\) is \(nan\+0j\), not finite"):
            LoccProtocol(protocol.description, (site0, protocol.site_povms[1]), protocol.assignment)

    def test_nan_certificate_is_rejected(self, example1):
        ensemble, fixtures, _ = example1
        mat = np.array(fixtures.sep_certificate.matrix)
        mat[2, 2] = math.nan
        with pytest.raises(ValueError, match=r"matrix entry \(2, 2\) is \(nan\+0j\), not finite"):
            HermitianOperator(mat, ensemble.dims)


class TestConesOfOtherStates:
    """Cones 0 and 1 of example1 swapped: each generator gives probability to another state."""

    @pytest.fixture()
    def swapped(self, example1):
        ensemble, fixtures, cones = example1
        return ensemble, fixtures, [cones[1], cones[0], cones[2]]

    MESSAGE = r"cone 0 generator 0 is not orthogonal to state 1"

    def test_thm3_rejects(self, swapped):
        ensemble, fixtures, cones = swapped
        with pytest.raises(PrecheckError, match=self.MESSAGE):
            verify_separable_certificate(ensemble, fixtures.locc_measurement, fixtures.sep_certificate, cones)

    def test_cor3_rejects(self, swapped):
        ensemble, fixtures, cones = swapped
        with pytest.raises(PrecheckError, match=self.MESSAGE):
            verify_locc_equality(ensemble, fixtures.locc_measurement, fixtures.sep_certificate, cones)

    def test_nlwe_rejects(self, swapped):
        ensemble, _, cones = swapped
        with pytest.raises(ValueError, match=self.MESSAGE):
            nlwe_witness(ensemble, cones, tol=1e-7)

    def test_nlwe_cone_count_is_checked_first(self, example1):
        ensemble, _, cones = example1
        with pytest.raises(ValueError, match="expected 3 generator cones, got 2"):
            nlwe_witness(ensemble, cones[:2], tol=1e-7)

    def test_sep_bound_takes_cones_as_given(self, swapped):
        ensemble, _, cones = swapped
        assert solve_separable_bound(ensemble, cones, tol=1e-8).value == pytest.approx(0.3, abs=1e-6)


class TestCor3ChecksEachElementOnce:
    def test_bare_measurement_reconstructs_each_element_once(self, example2_d3, monkeypatch):
        ensemble, fixtures, cones = example2_d3
        decorated = fixtures.locc_measurement
        bare = Measurement(ensemble.dims, decorated.elements, locc_protocol=decorated.locc_protocol)
        calls = []
        reconstruct = SeparableDecomposition.reconstruct
        def counted(self, dims):
            calls.append(1)
            return reconstruct(self, dims)

        monkeypatch.setattr(SeparableDecomposition, "reconstruct", counted)
        assert verify_locc_equality(ensemble, bare, fixtures.sep_certificate, cones, tol=1e-8).passed
        assert len(calls) == len(bare.elements)

    @pytest.mark.parametrize("tol", [1e-8, 1e-14])
    def test_bare_report_equals_decorated_report(self, example2_d3, tol):
        ensemble, fixtures, cones = example2_d3
        decorated = fixtures.locc_measurement
        bare = Measurement(ensemble.dims, decorated.elements, locc_protocol=decorated.locc_protocol)
        reports = [
            verify_locc_equality(ensemble, m, fixtures.sep_certificate, cones, tol=tol).to_dict()
            for m in (bare, decorated)
        ]
        assert reports[0] == reports[1]
