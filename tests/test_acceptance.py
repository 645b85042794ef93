"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import time

import numpy as np

from udbound import (
    ConeGenerators,
    DimVector,
    HermitianOperator,
    basis_state,
    build_example1,
    build_example2,
    build_two_pure,
    certify_unique_product_ray,
    check_no_error,
    example_cone_generators,
    nlwe_witness,
    partial_trace,
    partial_transpose,
    solve_global,
    solve_separable_bound,
    verify_locc_equality,
    verify_optimality,
    verify_separable_certificate,
)
from helpers import idp_oracle, random_ensemble, random_psd, random_state_vector, solve_global_certificate


def _report(num: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_1_example1_global_value():
    start = time.perf_counter()
    ensemble, fixtures = build_example1()
    report = solve_global(ensemble, tol=1e-8)
    solver_ok = report.status == "optimal" and abs(report.value - 0.75) <= 1e-6
    verification = verify_optimality(
        ensemble, fixtures.global_measurement, fixtures.global_certificate, tol=1e-8
    )
    verify_ok = verification.passed and abs(verification.value - 0.75) <= 1e-12
    elapsed = time.perf_counter() - start
    _report(
        1,
        f"two-qubit triple global value 3/4 (solver {report.value:.9f}, "
        f"fixtures verified, {elapsed:.1f}s)",
        solver_ok and verify_ok and elapsed < 10.0,
    )


def test_criterion_2_example1_separable_bound():
    start = time.perf_counter()
    ensemble, fixtures = build_example1()
    cones = [example_cone_generators(ensemble, "example1", i) for i in range(3)]
    report = solve_separable_bound(ensemble, cones, tol=1e-8)
    solver_ok = report.status == "optimal" and abs(report.value - 0.5) <= 1e-6
    thm = verify_separable_certificate(
        ensemble, fixtures.locc_measurement, fixtures.sep_certificate, cones, tol=1e-8
    )
    cor = verify_locc_equality(
        ensemble, fixtures.locc_measurement, fixtures.sep_certificate, cones, tol=1e-8
    )
    verify_ok = (
        thm.passed
        and cor.passed
        and abs(cor.value - 0.5) <= 1e-12
        and not thm.unverified
    )
    elapsed = time.perf_counter() - start
    _report(
        2,
        f"two-qubit triple separable bound 1/2 (solver {report.value:.9f}, "
        f"local attainment certified, {elapsed:.1f}s)",
        solver_ok and verify_ok and elapsed < 10.0,
    )


def test_criterion_3_example2_scan():
    start = time.perf_counter()
    ok = True
    values = []
    for d in (3, 4):
        denom = d ** (d - 1) - 2 * (d - 1)
        ensemble, fixtures = build_example2(d)
        cones = [example_cone_generators(ensemble, "example2", i) for i in range(d)]
        global_report = solve_global(ensemble, tol=1e-8)
        bound_report = solve_separable_bound(ensemble, cones, tol=1e-8)
        ok &= abs(global_report.value - 2.0 / denom) <= 1e-6
        ok &= abs(bound_report.value - 1.0 / denom) <= 1e-6
        prop = verify_optimality(
            ensemble, fixtures.global_measurement, fixtures.global_certificate, tol=1e-8
        )
        cor = verify_locc_equality(
            ensemble, fixtures.locc_measurement, fixtures.sep_certificate, cones, tol=1e-8
        )
        witness = nlwe_witness(ensemble, cones, tol=1e-7)
        ok &= prop.passed and cor.passed and witness.witnessed
        values.append((d, global_report.value, bound_report.value))
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    summary = "; ".join(f"d={d}: p={p:.6f}, q={q:.6f}" for d, p, q in values)
    _report(3, f"qudit family scan ({summary}, {elapsed:.1f}s)", ok)


def test_criterion_4_duality_property_suite():
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 4))
        ensemble = random_ensemble(rng, (2, 2), n)
        report = solve_global(ensemble, tol=1e-8)
        _, dual_value = solve_global_certificate(ensemble, tol=1e-8)
        gap = abs(report.value - dual_value)
        worst_gap = max(worst_gap, gap)
        ok &= report.status == "optimal" and gap <= 2e-6
        m = report.measurement
        ok &= m.completeness_residual() <= 1e-6
        ok &= m.psd_residual() <= 1e-6
        ok &= check_no_error(ensemble, m, tol=1e-6).passed
    _report(
        4,
        f"strong duality on 50 random qubit-pair ensembles (worst gap {worst_gap:.2e})",
        ok,
    )


def test_criterion_5_two_state_oracle_equivalence():
    rng = np.random.default_rng(777)
    worst = 0.0
    ok = True
    trials = 0
    while trials < 25:
        psi1 = random_state_vector(rng, (2, 2))
        psi2 = random_state_vector(rng, (2, 2))
        if abs(psi1.overlap(psi2)) > 0.999:
            continue
        trials += 1
        prior = float(rng.uniform(0.15, 0.85))
        ensemble = build_two_pure(psi1, psi2, prior)
        report = solve_global(ensemble, tol=1e-8)
        expected = idp_oracle(psi1, psi2, prior)
        diff = abs(report.value - expected)
        worst = max(worst, diff)
        ok &= diff <= 1e-4
    _report(
        5,
        f"solver matches the brute-force two-state oracle on 25 pairs "
        f"(worst deviation {worst:.2e})",
        ok,
    )


def test_criterion_6_structural_invariants():
    ok = True
    gram_worst = 0.0
    trace_worst = 0.0
    for d in (3, 4):
        _, fixtures = build_example2(d)
        vecs = [s.amplitudes for s in fixtures.aligned_states + fixtures.shifted_states]
        gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
        gram_worst = max(gram_worst, float(np.abs(gram - np.eye(2 * d)).max()))
        dims = (d,) * (d - 1)
        for a, s in zip(fixtures.aligned_states, fixtures.shifted_states):
            cross = a.outer(s)
            for site in range(d - 1):
                keep_one = [k for k in range(d - 1) if k != site]
                trace_worst = max(
                    trace_worst,
                    float(np.abs(partial_trace(cross, keep_one, dims=dims)).max()),
                    float(np.abs(partial_trace(cross, site, dims=dims)).max()),
                )
        cert = certify_unique_product_ray(fixtures.aligned_states[0], fixtures.shifted_states[0])
        ok &= cert.verdict == "unique"
    ok &= gram_worst <= 1e-10 and trace_worst <= 1e-12
    _report(
        6,
        f"qudit family structure (gram residual {gram_worst:.2e}, cross traces "
        f"{trace_worst:.2e}, unique product ray)",
        ok,
    )


def test_criterion_7_separable_dual_trace_property():
    rng = np.random.default_rng(4242)
    ok = True
    for k in range(100):
        op = random_psd(rng, (2, 2), rank=int(rng.integers(1, 5)))
        if k % 2 == 1:
            mat = partial_transpose(op.matrix, (0,), dims=(2, 2))
            op = HermitianOperator(mat, DimVector((2, 2)))
        ok &= np.abs(op.matrix).max() > 1e-12  # nonzero draw
        ok &= op.trace > 1e-12
    _report(7, "nonzero separable-dual members have positive trace (100 draws)", ok)


def test_criterion_8_negative_controls():
    ok = True
    failing_sets = []
    for builder, args in ((build_example1, ()), (build_example2, (3,))):
        ensemble, fixtures = builder(*args)
        which = "example1" if not args else "example2"
        cones = [example_cone_generators(ensemble, which, i) for i in range(ensemble.n)]
        doubled_k = verify_optimality(
            ensemble, fixtures.global_measurement, 2.0 * fixtures.global_certificate, tol=1e-8
        )
        doubled_h = verify_separable_certificate(
            ensemble, fixtures.locc_measurement, 2.0 * fixtures.sep_certificate, cones, tol=1e-8
        )
        ok &= not doubled_k.passed and len(doubled_k.failing) > 0
        ok &= not doubled_h.passed and len(doubled_h.failing) > 0
        failing_sets.append(f"{which}: K*2 -> {doubled_k.failing}, H*2 -> {doubled_h.failing}")

    dims = DimVector((2, 2))
    v00 = basis_state(dims, (0, 0))
    v11 = basis_state(dims, (1, 1))
    pair = build_two_pure(v00, v11, 0.5)
    pair_cones = [
        ConeGenerators(dims, (v00.projector(),)),
        ConeGenerators(dims, (v11.projector(),)),
    ]
    witness = nlwe_witness(pair, pair_cones, tol=1e-7)
    ok &= not witness.witnessed
    ok &= abs(witness.p_global - 1.0) <= 1e-6 and abs(witness.q_bound - 1.0) <= 1e-6
    _report(
        8,
        "scaled certificates fail with ids reported ("
        + "; ".join(failing_sets)
        + f"); orthogonal product pair p={witness.p_global:.6f}, q={witness.q_bound:.6f}, no witness",
        ok,
    )
