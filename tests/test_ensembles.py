import numpy as np
import pytest

from udbound import (
    DimVector,
    Ensemble,
    LoccProtocol,
    SchemaError,
    SeparableDecomposition,
    basis_state,
    build_example1,
    build_example2,
    build_two_pure,
    hs_inner,
    identity,
    load_ensemble,
    load_measurement,
    save_ensemble,
    save_measurement,
    validate_ensemble,
)
from udbound.ensembles import ensemble_from_dict, ensemble_to_dict, measurement_from_dict, measurement_to_dict
from udbound.operators import PSD_TOL
from helpers import partial_trace


class TestValidation:
    def test_example_fixture_is_valid(self):
        ensemble, _ = build_example1()
        assert validate_ensemble(ensemble).ok

    def test_bad_priors_reported(self):
        ensemble, _ = build_example1()
        broken = Ensemble(ensemble.dims, (0.5, 0.6, 0.0), ensemble.states)
        report = validate_ensemble(broken)
        assert not report.ok
        assert any("priors sum 1.1" in str(v) for v in report.violations)

    def test_non_psd_state_reported(self):
        ensemble, _ = build_example1()
        shifted = ensemble.states[0] - 0.01 * identity(ensemble.dims)
        broken = Ensemble(ensemble.dims, ensemble.priors, (shifted,) + ensemble.states[1:])
        report = validate_ensemble(broken)
        assert any("not PSD" in str(v) for v in report.violations)


class TestExample1:
    def test_shape(self):
        ensemble, _ = build_example1()
        assert ensemble.n == 3
        assert ensemble.dims == DimVector((2, 2))
        assert all(p == pytest.approx(1 / 3) for p in ensemble.priors)

    def test_pairwise_overlap(self):
        # <v+|v-> = 1/4 - 3/4 = -1/2, so Tr(rho2 rho3) = (1/2)^4 = 1/16
        ensemble, _ = build_example1()
        assert hs_inner(ensemble.states[1], ensemble.states[2]) == pytest.approx(1 / 16, abs=1e-14)

    def test_measurements_are_povms(self):
        _, fixtures = build_example1()
        assert fixtures.global_measurement.completeness_residual() < 1e-12
        assert fixtures.locc_measurement.completeness_residual() < 1e-12
        for m in (fixtures.global_measurement, fixtures.locc_measurement):
            assert m.psd_residual() <= PSD_TOL and m.completeness_residual() <= PSD_TOL
            for el, dec in zip(m.elements, m.decompositions):
                assert dec is None or dec.residual(el) <= PSD_TOL

    def test_certificate_traces(self):
        _, fixtures = build_example1()
        assert fixtures.global_certificate.trace == pytest.approx(0.75, abs=1e-14)
        assert fixtures.sep_certificate.trace == pytest.approx(0.5, abs=1e-14)

    def test_locc_decompositions_reconstruct(self):
        _, fixtures = build_example1()
        m = fixtures.locc_measurement
        for el, dec in zip(m.elements, m.decompositions):
            assert dec is not None
            assert dec.residual(el) < 1e-12

    def test_locc_protocol_reconstructs(self):
        _, fixtures = build_example1()
        protocol = fixtures.locc_measurement.locc_protocol
        rebuilt = protocol.reconstruct_elements(DimVector((2, 2)), 4)
        for got, el in zip(rebuilt, fixtures.locc_measurement.elements):
            assert np.abs(got - el.matrix).max() < 1e-12


class TestProductStructure:
    @pytest.mark.parametrize("target", [-1, 2])
    def test_derive_decompositions_rejects_out_of_range_target(self, target):
        protocol = LoccProtocol("x", ((np.eye(2),), (np.eye(2),)), {(0, 0): target})
        with pytest.raises(ValueError, match=f"assigned to element {target} out of range"):
            protocol.derive_decompositions(DimVector((2, 2)), 2)

    def test_factors_are_read_only_complex_copies(self):
        a, b = np.eye(2), np.ones((3, 3))
        dec = SeparableDecomposition(((a, b), (b, a), (a, a)))
        protocol = LoccProtocol("x", ((a, a), (b,)))
        for group in dec.terms + protocol.site_povms:
            for f in group:
                assert f.dtype == np.complex128 and not f.flags.writeable
        assert [[f.shape for f in term] for term in dec.terms] == [[(2, 2), (3, 3)], [(3, 3), (2, 2)], [(2, 2)] * 2]
        a[0, 0] = 7.0
        assert dec.terms[0][0][0, 0] == 1.0 and protocol.site_povms[0][1][0, 0] == 1.0

    def test_one_by_one_factors_are_rejected(self):
        dec = SeparableDecomposition(((0.25 * np.eye(1), np.eye(1)),))
        with pytest.raises(ValueError, match=r"factor shapes \[\(1, 1\), \(1, 1\)\], expected sides \(2, 2\)"):
            dec.reconstruct(DimVector((2, 2)))


class TestExample2:
    def test_d3_shape(self):
        ensemble, _ = build_example2(3)
        assert ensemble.dims == DimVector((3, 3))
        assert ensemble.n == 3
        for rho in ensemble.states:
            assert rho.trace == pytest.approx(1.0, abs=1e-12)
            vals = np.linalg.eigvalsh(rho.matrix)
            assert (vals > 1e-9).sum() == 5

    @pytest.mark.parametrize("d", [3, 4])
    def test_orthonormal_family(self, d):
        _, fixtures = build_example2(d)
        vecs = [s.amplitudes for s in fixtures.aligned_states + fixtures.shifted_states]
        gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
        assert np.abs(gram - np.eye(2 * d)).max() < 1e-10

    @pytest.mark.parametrize("d", [3, 4])
    def test_cross_terms_traceless_on_every_site(self, d):
        _, fixtures = build_example2(d)
        dims = (d,) * (d - 1)
        for a, s in zip(fixtures.aligned_states, fixtures.shifted_states):
            cross = np.outer(a.amplitudes, s.amplitudes.conj())
            for site in range(d - 1):
                others = [k for k in range(d - 1) if k != site]
                assert np.abs(partial_trace(cross, others, dims=dims)).max() < 1e-12
                assert np.abs(partial_trace(cross, site, dims=dims)).max() < 1e-12

    def test_conclusive_pairing(self):
        ensemble, fixtures = build_example2(3)
        for i in range(3):
            got = hs_inner(ensemble.states[i], fixtures.global_measurement.elements[i + 1])
            assert got == pytest.approx(2 / 5, abs=1e-12)

    @pytest.mark.parametrize("d", [3, 4])
    def test_measurements_are_povms(self, d):
        _, fixtures = build_example2(d)
        for m in (fixtures.global_measurement, fixtures.locc_measurement):
            assert m.psd_residual() <= PSD_TOL and m.completeness_residual() <= PSD_TOL
            for el, dec in zip(m.elements, m.decompositions):
                assert dec is None or dec.residual(el) <= PSD_TOL

    def test_locc_protocol_reconstructs(self):
        _, fixtures = build_example2(3)
        protocol = fixtures.locc_measurement.locc_protocol
        rebuilt = protocol.reconstruct_elements(DimVector((3, 3)), 4)
        for got, el in zip(rebuilt, fixtures.locc_measurement.elements):
            assert np.abs(got - el.matrix).max() < 1e-12

    def test_rejects_small_d(self):
        with pytest.raises(ValueError, match="d must be >= 3"):
            build_example2(2)

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="exceeds cap"):
            build_example2(4, dim_cap=32)


class TestBuildTwoPure:
    def test_orthogonal_pair(self):
        ensemble = build_two_pure(basis_state((2,), (0,)), basis_state((2,), (1,)), 0.5)
        assert ensemble.n == 2
        assert hs_inner(ensemble.states[0], ensemble.states[1]) == pytest.approx(0.0, abs=1e-14)

    def test_overlapping_pair(self):
        from udbound import StateVector

        plus = StateVector.normalized([1, 1], (2,))
        ensemble = build_two_pure(basis_state((2,), (0,)), plus, 0.5)
        assert hs_inner(ensemble.states[0], ensemble.states[1]) == pytest.approx(0.5, abs=1e-12)

    def test_product_pair_dims(self):
        ensemble = build_two_pure(basis_state((2, 2), (0, 0)), basis_state((2, 2), (1, 1)), 0.5)
        assert ensemble.dims == DimVector((2, 2))

    def test_prior_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            build_two_pure(basis_state((2,), (0,)), basis_state((2,), (1,)), 1.0)


class TestJsonRoundTrip:
    def test_ensemble_round_trip_exact(self, tmp_path):
        ensemble, _ = build_example1()
        path = tmp_path / "ensemble.json"
        save_ensemble(ensemble, path)
        loaded = load_ensemble(path)
        assert loaded.label == "example1"
        assert loaded.priors == ensemble.priors
        for a, b in zip(loaded.states, ensemble.states):
            assert np.array_equal(a.matrix, b.matrix)

    def test_measurement_round_trip_exact(self, tmp_path):
        _, fixtures = build_example1()
        path = tmp_path / "measurement.json"
        save_measurement(fixtures.locc_measurement, path)
        loaded = load_measurement(path)
        for a, b in zip(loaded.elements, fixtures.locc_measurement.elements):
            assert np.array_equal(a.matrix, b.matrix)
        assert loaded.locc_protocol is not None
        assert loaded.locc_protocol.assignment == fixtures.locc_measurement.locc_protocol.assignment
        for dec, el in zip(loaded.decompositions, loaded.elements):
            assert dec is not None and dec.residual(el) < 1e-12

    def test_bad_priors_error(self, tmp_path):
        ensemble, _ = build_example1()
        from udbound.ensembles import ensemble_to_dict
        from udbound.jsonio import write_json

        payload = ensemble_to_dict(ensemble)
        payload["states"][0]["prior"] = 0.9 - 2 / 3  # priors now sum to 0.9
        path = tmp_path / "bad.json"
        write_json(path, payload)
        with pytest.raises(SchemaError, match="priors sum 0.9"):
            load_ensemble(path)

    def test_non_hermitian_error(self, tmp_path):
        ensemble, _ = build_example1()
        from udbound.ensembles import ensemble_to_dict
        from udbound.jsonio import write_json

        # entry (0, 1) breaks symmetry with entry (1, 0), in either matrix form; |00><00| is written as coordinates
        payload = ensemble_to_dict(ensemble)
        coordinates = payload["states"][0]["matrix"]
        coordinates["rows"].append(0)
        coordinates["cols"].append(1)
        coordinates["re"].append(0.5)
        coordinates["im"].append(0.0)
        dense = ensemble_to_dict(ensemble)
        dense["states"][0]["matrix"] = [[[0.0, 0.0]] * 4 for _ in range(4)]
        dense["states"][0]["matrix"][0][0] = [1.0, 0.0]
        dense["states"][0]["matrix"][0][1] = [0.5, 0.0]
        path = tmp_path / "bad.json"
        for bad in (payload, dense):
            write_json(path, bad)
            with pytest.raises(SchemaError, match="hermiticity deviation"):
                load_ensemble(path)

    def test_schema_error_names_field(self, tmp_path):
        from udbound.jsonio import write_json

        path = tmp_path / "bad.json"
        write_json(path, {"dims": [2, 2], "states": [{"prior": "x", "matrix": []}]})
        with pytest.raises(SchemaError, match=r"states\[0\].prior"):
            load_ensemble(path)


class TestStrictFields:
    """JSON booleans, strings and floats are not integers, and an assignment is a
    list of distinct in-range outcomes; each error names its field."""

    @staticmethod
    def _one_state_payload():
        dims = DimVector((2, 2))
        return ensemble_to_dict(Ensemble(dims, (1.0,), (basis_state(dims, (0, 0)).projector(),)))

    @staticmethod
    def _protocol_payload():
        return measurement_to_dict(build_example1()[1].locc_measurement)

    @pytest.mark.parametrize("dims", [[2, True, 2], [True, 2, 2], [2.0, 2], ["2", 2]])
    def test_dims(self, dims):
        payload = self._one_state_payload()
        payload["dims"] = dims
        with pytest.raises(SchemaError, match=r"^ensemble\.dims: expected a list of positive integers"):
            ensemble_from_dict(payload)

    @pytest.mark.parametrize("prior", [True, False, "1", None])
    def test_prior(self, prior):
        payload = self._one_state_payload()
        payload["states"][0]["prior"] = prior
        with pytest.raises(SchemaError, match=r"^ensemble\.states\[0\]\.prior: expected a finite number"):
            ensemble_from_dict(payload)

    @pytest.mark.parametrize(
        "outcome, entry",
        [
            (["1", 2.7], 0),
            (["1", 2], 0),
            ([1, 2.0], 0),
            ([True, 0], 0),
            ([0], 0),
            ([0, 0, 0], 0),
            ([3, 0], 0),  # each site's POVM has 3 elements
            ([0, -1], 0),
            ("repeat", 1),
        ],
    )
    def test_assignment_outcome(self, outcome, entry):
        payload = self._protocol_payload()
        assignment = payload["locc_protocol"]["assignment"]
        assignment[entry][0] = list(assignment[0][0]) if outcome == "repeat" else outcome
        with pytest.raises(SchemaError, match=rf"^measurement\.locc_protocol\.assignment\[{entry}\]\[0\]: "):
            measurement_from_dict(payload)

    @pytest.mark.parametrize("assignment", [5, {}, "01"])
    def test_assignment_is_a_list(self, assignment):
        payload = self._protocol_payload()
        payload["locc_protocol"]["assignment"] = assignment
        with pytest.raises(SchemaError, match=r"^measurement\.locc_protocol\.assignment: expected a list"):
            measurement_from_dict(payload)

    @pytest.mark.parametrize("element", [True, False, 1.0, "1", None])
    def test_assignment_element(self, element):
        payload = self._protocol_payload()
        payload["locc_protocol"]["assignment"][0][1] = element
        with pytest.raises(SchemaError, match=r"^measurement\.locc_protocol\.assignment\[0\]\[1\]: "):
            measurement_from_dict(payload)

    @pytest.mark.parametrize("default", [True, False, 0.0, "0"])
    def test_default_element(self, default):
        payload = self._protocol_payload()
        payload["locc_protocol"]["default_element"] = default
        with pytest.raises(SchemaError, match=r"^measurement\.locc_protocol\.default_element: expected an integer"):
            measurement_from_dict(payload)

    @pytest.mark.parametrize("description", [[1, None], None, 3, True, {"text": "x"}])
    def test_protocol_description(self, description):
        payload = self._protocol_payload()
        payload["locc_protocol"]["description"] = description
        with pytest.raises(SchemaError, match=r"^measurement\.locc_protocol\.description: expected a string$"):
            measurement_from_dict(payload)

    def test_missing_protocol_description_is_empty(self):
        payload = self._protocol_payload()
        del payload["locc_protocol"]["description"]
        assert measurement_from_dict(payload).locc_protocol.description == ""

    def test_valid_protocol_still_loads(self):
        payload = self._protocol_payload()
        loaded = measurement_from_dict(payload)
        assert loaded.locc_protocol.assignment == build_example1()[1].locc_measurement.locc_protocol.assignment
