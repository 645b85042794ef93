import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from udbound import (
    Block,
    ConeGenerators,
    ConicProgram,
    Constraint,
    DimVector,
    Ensemble,
    HermitianOperator,
    StateVector,
    basis_state,
    build_example1,
    build_example2,
    build_two_pure,
    check_no_error,
    example_cone_generators,
    min_eigenvalue,
    solve,
    solve_global,
    solve_separable_bound,
    verify_optimality,
)
from udbound import programs, solver
from udbound.jsonio import dumps
from udbound.solver import _project_cone, _side_groups, hermitian_basis, smat, svec
from helpers import random_ensemble, solve_global_certificate


class TestSvec:
    def test_isometry(self):
        rng = np.random.default_rng(31)
        for side in (1, 2, 3, 5):
            a = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
            a = (a + a.conj().T) / 2
            b = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
            b = (b + b.conj().T) / 2
            assert svec(a) @ svec(b) == pytest.approx(np.trace(a @ b).real, abs=1e-12)
            assert np.abs(smat(svec(a), side) - a).max() < 1e-14

    def test_basis_matches_coordinates(self):
        for side in (2, 3):
            for k, f in enumerate(hermitian_basis(side)):
                coords = svec(f)
                expect = np.zeros(side * side)
                expect[k] = 1.0
                assert np.abs(coords - expect).max() < 1e-14


# The per-block projection as it was before blocks of one side were batched,
# kept as the reference the batched projection must reproduce bit for bit.
_SQRT2 = math.sqrt(2.0)


def _ref_svec(mat):
    rows, cols = np.triu_indices(mat.shape[0], 1)
    off = mat[rows, cols]
    return np.concatenate([mat.diagonal().real, _SQRT2 * off.real, _SQRT2 * off.imag])


def _ref_smat(vec, side):
    out = np.zeros((side, side), dtype=np.complex128)
    diag, (rows, cols) = np.arange(side), np.triu_indices(side, 1)
    k = len(rows)
    off = (vec[side : side + k] + 1j * vec[side + k :]) / _SQRT2
    out[diag, diag] = vec[:side]
    out[rows, cols] = off
    out[cols, rows] = off.conj()
    return out


def _ref_project_cone(vec, layout):
    out = np.empty_like(vec)
    for _, side, sl in layout:
        if side == 1:
            out[sl] = max(0.0, vec[sl][0])
            continue
        mat = _ref_smat(vec[sl], side)
        w, v = np.linalg.eigh(mat)
        w = np.maximum(w, 0.0)
        out[sl] = _ref_svec((v * w) @ v.conj().T)
    return out


# exact zeros of both signs and magnitudes from 1e-300 to 1e300
COORDS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(
        lambda sign, mant, exp: sign * mant * 10.0**exp,
        st.sampled_from([1.0, -1.0]),
        st.floats(1.0, 9.999),
        st.integers(-300, 299),
    ),
)


@st.composite
def layouts_and_vectors(draw):
    sides = draw(st.lists(st.integers(1, 6), min_size=1, max_size=7))
    layout, offset = [], 0
    for k, side in enumerate(sides):
        layout.append((f"b{k}", side, slice(offset, offset + side * side)))
        offset += side * side
    vec = np.array(draw(st.lists(COORDS, min_size=offset, max_size=offset)))
    # a few non-finite coordinates: a side-1 NaN must project to +0.0, as max(0.0, x) does
    bad = st.sampled_from([math.nan, math.inf, -math.inf])
    for pos, value in draw(st.lists(st.tuples(st.integers(0, offset - 1), bad), max_size=2)):
        vec[pos] = value
    return layout, vec


def _outcome(project):
    try:
        with np.errstate(all="ignore"):
            return project().tobytes()
    except np.linalg.LinAlgError:  # LAPACK may not converge on huge or non-finite entries
        return "eigh did not converge"


class TestBatchedProjection:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(layouts_and_vectors())
    @example(([("a", 1, slice(0, 1)), ("b", 1, slice(1, 2)), ("c", 2, slice(2, 6))],
              np.array([math.nan, -0.0, 1.0, -0.0, 0.0, math.nan])))
    def test_equals_per_block_loop(self, case):
        layout, vec = case
        batched = _outcome(lambda: _project_cone(vec, _side_groups(layout)))
        assert batched == _outcome(lambda: _ref_project_cone(vec, layout))

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 4), st.data())
    def test_stacked_coordinates_equal_per_matrix(self, side, count, data):
        size = side * side
        vecs = np.array(data.draw(st.lists(COORDS, min_size=count * size, max_size=count * size)))
        vecs = vecs.reshape(count, size)
        with np.errstate(all="ignore"):
            mats = smat(vecs, side)
            assert mats.tobytes() == np.stack([smat(x, side) for x in vecs]).tobytes()
            assert mats.tobytes() == np.stack([_ref_smat(x, side) for x in vecs]).tobytes()
            coords = svec(mats)
            assert coords.tobytes() == np.stack([svec(a) for a in mats]).tobytes()
            assert coords.tobytes() == np.stack([_ref_svec(a) for a in mats]).tobytes()
            grid = mats.reshape(2, -1, side, side) if count % 2 == 0 else mats[None]
            assert svec(grid).tobytes() == coords.tobytes()

    def test_side_groups_stack_repeated_sides(self):
        layout = [("a", 2, slice(0, 4)), ("s", 1, slice(4, 5)), ("b", 2, slice(5, 9))]
        groups = dict(_side_groups(layout))
        assert sorted(groups) == [1, 2]
        assert groups[2].tolist() == [[0, 1, 2, 3], [5, 6, 7, 8]]
        assert groups[1].tolist() == [[4]]


class TestNonFiniteData:
    @staticmethod
    def program(objective=None, coeff=None, rhs=1.0):
        eye = np.eye(2, dtype=complex)
        return ConicProgram(
            (Block("x", 2),),
            {"x": eye if objective is None else objective},
            (Constraint({"x": eye if coeff is None else coeff}, rhs),),
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_objective_rejected(self, bad):
        objective = np.eye(2, dtype=complex)
        objective[1, 1] = bad
        with pytest.raises(ValueError, match="objective coefficient for 'x' is not finite"):
            self.program(objective=objective)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_constraint_coefficient_rejected(self, bad):
        coeff = np.eye(2, dtype=complex)
        coeff[0, 1] = coeff[1, 0] = bad
        with pytest.raises(ValueError, match="constraint 0 coefficient for 'x' is not finite"):
            self.program(coeff=coeff)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rhs_rejected(self, bad):
        with pytest.raises(ValueError, match="constraint 0 rhs .* is not finite"):
            self.program(rhs=bad)

    def test_overflowing_iterate_raises(self):
        # 0.5 Tr X = 1e308 forces Tr X = 2e308: the optimum itself overflows
        program = self.program(coeff=0.5 * np.eye(2, dtype=complex), rhs=1e308)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite"):
            solve(program, max_iter=3000)

    def test_projection_failure_names_the_iteration(self, monkeypatch):
        project, calls = solver._project_cone, []

        def failing_third_time(vec, groups):
            calls.append(None)
            if len(calls) == 3:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return project(vec, groups)

        monkeypatch.setattr(solver, "_project_cone", failing_third_time)
        with pytest.raises(ValueError, match="at iteration 3 .*Eigenvalues did not converge"):
            solve(self.program())

    def test_huge_objective_solves(self):
        program = self.program(objective=np.diag([1e308, -1e308]).astype(complex))
        report = solve(program, max_iter=3000)
        assert report.status == "optimal"
        assert report.value == pytest.approx(-1e308, rel=1e-6)


class TestFirstBadCoefficientIsNamed:
    EYE = np.eye(2, dtype=complex)
    SKEW = np.array([[0, 1], [0, 0]], dtype=complex)
    INF = np.diag([math.inf, 1.0]).astype(complex)

    @pytest.mark.parametrize(
        "objective, rows, message",
        [
            (EYE, [{"x": EYE}, {"x": SKEW}, {"x": INF}], "constraint 1 coefficient for 'x' is not Hermitian"),
            (EYE, [{"x": EYE}, {"x": INF}, {"x": SKEW}], "constraint 1 coefficient for 'x' is not finite"),
            (EYE, [{"x": EYE}, {"z": EYE}, {"x": INF}], "constraint 1 references unknown block 'z'"),
            (EYE, [{"x": EYE}, {"x": np.eye(3)}, {"x": INF}], r"constraint 1 coefficient for 'x' has shape \(3, 3\)"),
            (EYE, [{"x": EYE, "y": INF}, {"x": SKEW}], "constraint 0 coefficient for 'y' is not finite"),
            (EYE, [{"x": SKEW, "y": INF}], "constraint 0 coefficient for 'x' is not Hermitian"),
            (EYE, [{"y": INF, "x": SKEW}], "constraint 0 coefficient for 'y' is not finite"),
            (EYE, [{"y": EYE, "z": EYE}, {"x": INF}], "constraint 0 references unknown block 'z'"),
            (SKEW, [{"x": INF}], "objective coefficient for 'x' is not Hermitian"),
        ],
    )
    def test_message(self, objective, rows, message):
        blocks = (Block("x", 2), Block("y", 2))
        with pytest.raises(ValueError, match=message):
            ConicProgram(blocks, {"x": objective}, tuple(Constraint(row, 1.0) for row in rows))


class TestSolveToys:
    def test_min_trace_with_pinned_entry(self):
        e00 = np.zeros((2, 2), dtype=complex)
        e00[0, 0] = 1.0
        program = ConicProgram(
            (Block("x", 2),),
            {"x": np.eye(2, dtype=complex)},
            (Constraint({"x": e00}, 1.0),),
        )
        report = solve(program, tol=1e-9)
        assert report.status == "optimal"
        assert report.value == pytest.approx(1.0, abs=1e-7)
        assert np.abs(report.blocks["x"] - np.diag([1.0, 0.0])).max() < 1e-6

    def test_bounded_overlap_maximization(self):
        rho = np.zeros((2, 2), dtype=complex)
        rho[0, 0] = 1.0
        constraints = tuple(
            Constraint({"m": f, "s": f}, float(np.trace(f).real)) for f in hermitian_basis(2)
        )
        program = ConicProgram(
            (Block("m", 2), Block("s", 2)), {"m": rho}, constraints, sense="max"
        )
        report = solve(program, tol=1e-9)
        assert report.status == "optimal"
        assert report.value == pytest.approx(1.0, abs=1e-7)

    def test_infeasible_detected(self):
        program = ConicProgram(
            (Block("x", 1),),
            {"x": np.eye(1, dtype=complex)},
            (Constraint({"x": np.eye(1, dtype=complex)}, -1.0),),
        )
        report = solve(program, tol=1e-9, max_iter=100_000)
        assert report.status == "infeasible"

    def test_iteration_cap(self):
        e00 = np.zeros((2, 2), dtype=complex)
        e00[0, 0] = 1.0
        program = ConicProgram(
            (Block("x", 2),), {"x": np.eye(2, dtype=complex)}, (Constraint({"x": e00}, 1.0),)
        )
        report = solve(program, tol=1e-16, max_iter=2)
        assert report.status == "max_iterations"
        assert report.iterations == 2

    def test_unbounded_without_constraints(self):
        # X = 0 is feasible and Tr(-X) decreases without limit: unbounded, not infeasible
        for sign, status in ((-1.0, "unbounded"), (1.0, "optimal")):
            report = solve(ConicProgram((Block("x", 2),), {"x": sign * np.eye(2)}, ()))
            assert report.status == status
            assert report.value == 0.0

    def test_deterministic_reports(self):
        ensemble, _ = build_example1()
        a = solve_global(ensemble, tol=1e-8, seed=0)
        b = solve_global(ensemble, tol=1e-8, seed=0)
        assert dumps(a.to_dict()) == dumps(b.to_dict())


class TestGlobalProgram:
    def test_example1_value_and_certificate(self):
        ensemble, _ = build_example1()
        report = solve_global(ensemble, tol=1e-8)
        assert report.status == "optimal"
        assert report.value == pytest.approx(0.75, abs=1e-6)
        cert = report.dual_certificate
        assert cert.trace == pytest.approx(0.75, abs=1e-6)
        assert verify_optimality(ensemble, report.measurement, cert, tol=1e-6).passed

    def test_example1_measurement_valid(self):
        ensemble, _ = build_example1()
        report = solve_global(ensemble, tol=1e-8)
        m = report.measurement
        assert m.completeness_residual() < 1e-12
        assert m.psd_residual() < 1e-6
        assert check_no_error(ensemble, m, tol=1e-8).passed

    @pytest.mark.parametrize("d,expect", [(3, 2 / 5), (4, 2 / 58)])
    def test_example2_values(self, d, expect):
        ensemble, _ = build_example2(d)
        report = solve_global(ensemble, tol=1e-8)
        assert report.status == "optimal"
        assert report.value == pytest.approx(expect, abs=1e-6)

    def test_two_pure_matches_closed_form(self):
        plus = StateVector.normalized([1, 1], (2,))
        ensemble = build_two_pure(basis_state((2,), (0,)), plus, 0.5)
        report = solve_global(ensemble, tol=1e-8)
        assert report.value == pytest.approx(1 - 1 / math.sqrt(2), abs=1e-5)

    def test_degenerate_state_flagged(self):
        # three states on one qubit: state 3 shares support with both others,
        # and the kernels of the other two intersect trivially for each i
        rng = np.random.default_rng(33)
        ensemble = random_ensemble(rng, (2,), 3)
        report = solve_global(ensemble, tol=1e-7)
        assert report.status == "optimal"
        assert report.value == pytest.approx(0.0, abs=1e-9)
        assert report.never_conclusive == [0, 1, 2]
        assert np.allclose(report.measurement.elements[0].matrix, np.eye(2))


class TestCertificateProgram:
    def test_example1(self):
        ensemble, _ = build_example1()
        cert, value = solve_global_certificate(ensemble, tol=1e-8)
        assert value == pytest.approx(0.75, abs=1e-6)
        assert cert.trace == pytest.approx(0.75, abs=1e-6)
        assert min_eigenvalue(cert) >= -1e-7

    def test_orthogonal_pair_perfectly_distinguishable(self):
        ensemble = build_two_pure(basis_state((2,), (0,)), basis_state((2,), (1,)), 0.5)
        _, value = solve_global_certificate(ensemble, tol=1e-8)
        assert value == pytest.approx(1.0, abs=1e-6)

    def test_example2_d3(self):
        ensemble, _ = build_example2(3)
        _, value = solve_global_certificate(ensemble, tol=1e-8)
        assert value == pytest.approx(2 / 5, abs=1e-6)


class TestSeparableBound:
    def test_example1(self):
        ensemble, _ = build_example1()
        cones = [example_cone_generators(ensemble, "example1", i) for i in range(3)]
        report = solve_separable_bound(ensemble, cones, tol=1e-8)
        assert report.status == "optimal"
        assert report.value == pytest.approx(0.5, abs=1e-6)
        assert report.dual_certificate.trace == pytest.approx(0.5, abs=1e-6)
        assert min_eigenvalue(report.dual_certificate) >= -1e-12

    @pytest.mark.parametrize("d,expect", [(3, 1 / 5), (4, 1 / 58)])
    def test_example2(self, d, expect):
        ensemble, _ = build_example2(d)
        cones = [example_cone_generators(ensemble, "example2", i) for i in range(d)]
        report = solve_separable_bound(ensemble, cones, tol=1e-8)
        assert report.value == pytest.approx(expect, abs=1e-6)

    def test_single_state_empty_cone_falls_back(self):
        dims = DimVector((2, 2))
        ensemble_state = basis_state(dims, (0, 0)).projector()
        from udbound import Ensemble

        single = Ensemble(dims, (1.0,), (ensemble_state,))
        report = solve_separable_bound(single, [ConeGenerators(dims, ())], tol=1e-8)
        assert report.value == pytest.approx(1.0, abs=1e-6)

    def test_no_support_gives_zero_report(self):
        # empty cones fall back to the no-error subspaces, and those of full-rank states are zero
        dims = DimVector((2,))
        states = (HermitianOperator(np.eye(2) / 2, dims), HermitianOperator(np.diag([0.7, 0.3]), dims))
        ensemble = Ensemble(dims, (0.5, 0.5), states)
        report = solve_separable_bound(ensemble, [ConeGenerators(dims, ())] * 2, tol=1e-8)
        assert (report.status, report.value, report.iterations) == ("optimal", 0.0, 0)

    def test_missing_cone_errors(self):
        ensemble, _ = build_example1()
        cones = [example_cone_generators(ensemble, "example1", i) for i in range(2)]
        with pytest.raises(ValueError, match="generator cones"):
            solve_separable_bound(ensemble, cones, tol=1e-7)

    def test_adding_generators_never_decreases_bound(self):
        ensemble, _ = build_example1()
        cones = [example_cone_generators(ensemble, "example1", i) for i in range(3)]
        full = solve_separable_bound(ensemble, cones, tol=1e-8).value
        for drop in range(2):
            reduced = list(cones)
            kept = tuple(
                g for k, g in enumerate(cones[0].generators) if k != drop
            )
            forms = tuple(f for k, f in enumerate(cones[0].product_form) if k != drop)
            reduced[0] = ConeGenerators(ensemble.dims, kept, forms)
            value = solve_separable_bound(ensemble, reduced, tol=1e-8).value
            assert full >= value - 2e-6
        restored = solve_separable_bound(ensemble, cones, tol=1e-8).value
        assert restored == pytest.approx(full, abs=2e-6)


class TestDualityOnRandomEnsembles:
    def test_gap_and_measurement_validity(self):
        rng = np.random.default_rng(40)
        for trial in range(12):
            ensemble = random_ensemble(rng, (2, 2), int(rng.integers(2, 4)))
            report = solve_global(ensemble, tol=1e-8)
            _, dual_value = solve_global_certificate(ensemble, tol=1e-8)
            assert report.status == "optimal"
            assert abs(report.value - dual_value) <= 2e-6
            m = report.measurement
            assert m.completeness_residual() < 1e-6
            assert m.psd_residual() < 1e-6
            assert check_no_error(ensemble, m, tol=1e-6).passed


class TestReportHonesty:
    """The report's residuals and value are those of the blocks and multipliers it returns."""

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 2), (2, 2, 2)]), st.integers(2, 4))
    def test_residuals_and_value_recompute_from_the_program(self, seed, dims, n):
        ensemble = random_ensemble(np.random.default_rng(seed), dims, n)
        solved = []

        def keep(program, **kwargs):
            report = solver.solve(program, **kwargs)
            solved.append((program, report, report.value))
            return report

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(programs, "solve", keep)
            solve_global(ensemble, tol=1e-8)
        if not solved:  # nothing conclusive: no program to solve
            return
        (program, report, value), = solved
        assert report.status == "optimal"
        assert program.sense == "max" and all(con.sense == "eq" for con in program.constraints)
        primal = max(
            abs(sum(np.tensordot(mat, report.blocks[name].T, axes=2).real for name, mat in con.coeffs.items()) - con.rhs)
            for con in program.constraints
        )
        rhs = np.array([con.rhs for con in program.constraints])
        dual = float(rhs @ report.multipliers)  # b·nu: the multipliers are in the minimization convention
        assert primal == pytest.approx(report.residuals["primal"], abs=1e-12)
        assert abs(value - dual) == pytest.approx(report.residuals["gap"], abs=1e-12)
        # and "optimal" holds of them: the stopping rule, up to rounding in the recomputation
        assert primal <= 1e-8 * np.abs(rhs).max() + 1e-12
        assert abs(value - dual) <= 1e-8 * max(1.0, abs(value), abs(dual)) + 1e-12


@pytest.mark.parametrize("copies", [2, 3])
def test_dependent_rows_raise_instead_of_solving_a_perturbed_projection(copies):
    e00 = np.zeros((2, 2), dtype=complex)
    e00[0, 0] = 1.0
    rows = (Constraint({"x": e00}, 1.0),) * copies
    program = ConicProgram((Block("x", 2),), {"x": np.eye(2, dtype=complex)}, rows)
    with pytest.raises(np.linalg.LinAlgError, match="Gram matrix is numerically singular"):
        solve(program, tol=1e-9)


class TestCholesky:
    @pytest.mark.parametrize("m", [1, 4, 30])
    def test_solve_agrees_with_numpy(self, m):
        rng = np.random.default_rng(m)
        a = rng.standard_normal((m, 2 * m + 3))
        gram = a @ a.T
        rhs = rng.standard_normal((m, 7))
        got = solver.cho_solve(solver.cho_factor(gram), rhs)
        want = np.linalg.solve(gram, rhs)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize(
        "gram",
        [
            np.array([[9.0, 12.0], [12.0, 16.0]]),  # rank 1: the second pivot is exactly 0
            np.diag([2.0, 0.0, 1.0]),
        ],
    )
    def test_rank_deficient_gram_raises(self, gram):
        with pytest.raises(np.linalg.LinAlgError):
            solver.cho_factor(gram)
