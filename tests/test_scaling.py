"""The solver's tolerance is relative to the data: small optima come out right, in few iterations."""

import math

import pytest

from udbound import (
    StateVector,
    basis_state,
    build_example1,
    build_example2,
    build_two_pure,
    example_cone_generators,
    solve_global,
    solve_separable_bound,
    verify_optimality,
)


@pytest.mark.parametrize("eps", [1e-4, 1e-5, 1e-6, 1e-7])
def test_small_optimum_is_solved_to_relative_accuracy(eps):
    # |00> against cos t|00> + sin t|01> with equal priors: the optimum is 1 - cos t = eps
    theta = math.acos(1.0 - eps)
    near = StateVector.normalized([math.cos(theta), math.sin(theta), 0.0, 0.0], (2, 2))
    ensemble = build_two_pure(basis_state((2, 2), (0, 0)), near, 0.5)
    report = solve_global(ensemble, tol=1e-7)
    assert report.status == "optimal"
    assert report.value == pytest.approx(eps, rel=1e-8)
    assert verify_optimality(ensemble, report.measurement, report.dual_certificate, tol=1e-7).passed


@pytest.mark.parametrize("d", [3, 4])
def test_example2_iterations_do_not_grow_with_d(d):
    ensemble, _ = build_example2(d)
    cones = [example_cone_generators(ensemble, "example2", i) for i in range(d)]
    for report in (solve_global(ensemble, tol=1e-7), solve_separable_bound(ensemble, cones, tol=1e-7)):
        assert report.status == "optimal"
        assert report.iterations <= 125


@pytest.mark.parametrize(
    "family, d, most",
    [("example1", None, 25), ("example2", 3, 10), ("example2", 4, 10)],
)
def test_accelerated_iterations(family, d, most):
    ensemble, _ = build_example2(d) if d else build_example1()
    cones = [example_cone_generators(ensemble, family, i) for i in range(ensemble.n)]
    for report in (solve_global(ensemble, tol=1e-7), solve_separable_bound(ensemble, cones, tol=1e-7)):
        assert report.status == "optimal"
        assert report.iterations <= most
