"""Support compression of the global and separable-bound programs.

Both programs are posed on the space their constraints can see; these
tests check that the compressed programs keep the values and certificates
of the full space, and that they are as small as the support allows.
"""

import numpy as np
import pytest

from udbound import (
    ConeGenerators,
    DimVector,
    Ensemble,
    HermitianOperator,
    build_example1,
    build_example2,
    example_cone_generators,
    hs_inner,
    solve_global,
    solve_separable_bound,
    verify_optimality,
)
from helpers import nested_support_ensemble, random_state_vector


def _embed(op: HermitianOperator, dims: DimVector) -> HermitianOperator:
    """Pad every site of a two-qubit operator with unused levels."""
    local = np.eye(dims.dims[0], 2)
    iso = np.kron(local, local)
    return HermitianOperator(iso @ op.matrix @ iso.T, dims)


def _block_sides(report) -> dict[str, int]:
    return {name: block.shape[0] for name, block in report.blocks.items()}


def test_states_inside_the_others_support_are_never_conclusive():
    report = solve_global(nested_support_ensemble(), tol=1e-8)
    assert report.status == "optimal"
    assert report.value == 0.0
    assert report.iterations == 0
    assert report.never_conclusive == [0, 1, 2]
    assert np.allclose(report.measurement.elements[0].matrix, np.eye(4))


def test_padding_with_unused_levels_keeps_values_and_program_size():
    small, _ = build_example1()
    cones = [example_cone_generators(small, "example1", i) for i in range(small.n)]
    dims = DimVector((3, 3))
    padded = Ensemble(dims, small.priors, tuple(_embed(rho, dims) for rho in small.states))
    padded_cones = [ConeGenerators(dims, tuple(_embed(g, dims) for g in cone.generators)) for cone in cones]

    small_global = solve_global(small, tol=1e-8)
    big_global = solve_global(padded, tol=1e-8)
    assert big_global.value == pytest.approx(0.75, abs=1e-7)
    assert _block_sides(big_global) == _block_sides(small_global)
    assert verify_optimality(padded, big_global.measurement, big_global.dual_certificate, tol=1e-6).passed

    small_sep = solve_separable_bound(small, cones, tol=1e-8)
    big_sep = solve_separable_bound(padded, padded_cones, tol=1e-8)
    assert big_sep.value == pytest.approx(0.5, abs=1e-7)
    assert _block_sides(big_sep) == _block_sides(small_sep)


def test_pure_five_qubit_ensemble_compresses_to_its_span():
    rng = np.random.default_rng(1009)
    dims = DimVector((2,) * 5)
    weights = rng.exponential(size=4) + 0.05
    priors = tuple(float(w) for w in weights / weights.sum())
    states = tuple(random_state_vector(rng, dims).projector() for _ in range(4))
    ensemble = Ensemble(dims, priors, states)
    report = solve_global(ensemble, tol=1e-7)
    assert report.status == "optimal"
    assert report.blocks["slack"].shape[0] <= 4
    assert verify_optimality(ensemble, report.measurement, report.dual_certificate, tol=1e-6).passed


def test_example2_d5_separable_bound():
    ensemble, _ = build_example2(5)
    cones = [example_cone_generators(ensemble, "example2", i) for i in range(ensemble.n)]
    report = solve_separable_bound(ensemble, cones, tol=1e-8)
    assert report.status == "optimal"
    assert report.value == pytest.approx(1 / 617, abs=1e-7)
    cert = report.dual_certificate
    for i, cone in enumerate(cones):
        shifted = cert - ensemble.priors[i] * ensemble.states[i]
        for gen in cone.generators:
            assert hs_inner(shifted, gen) / np.linalg.norm(gen.matrix) >= -1e-8
