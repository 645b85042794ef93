"""Tests of the benchmark itself: gates, negative controls, tracing, inputs.

Run with ``python -m pytest bench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import udbound.jsonio as jsonio
import udbound.programs as programs
import udbound.solver as solver
from udbound.ensembles import SeparableDecomposition

import run
import workloads
from harness import Job, Ledger, RunResult, Verdict, run_round
from tracing import LAYERS, Tracer

HERE = Path(__file__).resolve().parent


def example1_jobs(tmp_path, p=0.75, q=0.5):
    jobs = workloads.family_jobs("example1", ["example1"], p, q, tmp_path, seed=0)
    return {job.key.split("/")[1]: job for job in jobs}


def test_workload_names_match():
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)


def test_example1_pipeline_passes_and_repeats_identically(tmp_path):
    jobs = list(example1_jobs(tmp_path).values())
    ledger = Ledger()
    for _ in range(2):
        run_round(jobs, ledger)
    assert ledger.failures == []
    assert ledger.attempted == 2 * len(jobs)
    assert max(ledger.value_errors) < 1e-6
    assert ledger.residual_ratios and max(ledger.residual_ratios) <= 1.0


def test_doubled_certificate_fails(tmp_path):
    jobs = example1_jobs(tmp_path)
    ledger = Ledger()
    run_round([jobs["example"]], ledger)
    path = tmp_path / "example1_certificate_global.json"
    cert = jsonio.load_certificate(path)
    jsonio.save_certificate(cert * 2.0, path)
    run_round([jobs["prop1-fixture"]], ledger)
    assert ledger.failed == 1
    assert "prop1-fixture" in ledger.failures[0]


def test_wrong_expected_value_fails(tmp_path):
    jobs = example1_jobs(tmp_path, p=0.76)
    ledger = Ledger()
    run_round([jobs["example"], jobs["solve-global"]], ledger)
    assert ledger.failed == 1
    assert "closed form" in ledger.failures[0]


def test_changed_output_bytes_fail():
    outputs = iter([b"a", b"b"])
    job = Job("k", "other", lambda: next(outputs), lambda out: Verdict(identity=out))
    ledger = Ledger()
    run_round([job, job], ledger)
    assert (ledger.attempted, ledger.failed) == (2, 1)


def test_crashing_job_fails_and_run_goes_on():
    def boom():
        raise RuntimeError("boom")

    ok = Job("ok", "other", lambda: None, lambda _: Verdict())
    ledger = Ledger()
    spent = run_round([Job("bad", "solve", boom, lambda _: Verdict()), ok], ledger)
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert spent["wall"] == pytest.approx(sum(spent[k] for k in ("solve", "verify", "other")))


def test_random_ensembles_follow_the_seed():
    a = workloads.random_ensemble(np.random.default_rng([3, 0, 1]), 3, 4)
    b = workloads.random_ensemble(np.random.default_rng([3, 0, 1]), 3, 4)
    c = workloads.random_ensemble(np.random.default_rng([4, 0, 1]), 3, 4)
    assert all(np.array_equal(x.matrix, y.matrix) for x, y in zip(a.states, b.states))
    assert not np.array_equal(a.states[0].matrix, c.states[0].matrix)
    assert sum(a.priors) == pytest.approx(1.0)
    for rho in a.states:
        assert rho.trace == pytest.approx(1.0)
        assert np.linalg.matrix_rank(rho.matrix, tol=1e-9) in (1, 2)


def test_local_rotation_keeps_value_and_iterations():
    base = workloads.random_ensemble(np.random.default_rng([0, 0, 3, 3]), 3, 3)
    rotated = workloads.local_rotation(base, np.random.default_rng(5))
    assert not np.allclose(base.states[0].matrix, rotated.states[0].matrix)
    a, b = programs.solve_global(base), programs.solve_global(rotated)
    assert a.value == pytest.approx(b.value, abs=1e-7)
    assert a.iterations == b.iterations


def test_tracer_spans_nest_and_self_times_add_up(tmp_path):
    originals = (programs.conclusive_subspace, solver.svec, SeparableDecomposition.reconstruct)
    tracer = Tracer()
    tracer.round = 0
    tracer.install()
    try:
        assert programs.conclusive_subspace is not originals[0]
        spent = run_round(list(example1_jobs(tmp_path).values()), Ledger(), tracer)
    finally:
        tracer.uninstall()
    assert (programs.conclusive_subspace, solver.svec, SeparableDecomposition.reconstruct) == originals

    layers = tracer.layer_self_s()
    assert set(layers) == set(LAYERS)
    assert all(v >= 0.0 for v in layers.values())
    covered = sum(layers.values())
    assert covered <= spent["wall"]
    assert spent["wall"] - covered < 0.2 * spent["wall"]
    assert tracer.calls["cli.main"] == 8
    assert tracer.calls["solver.svec"] > 0 and tracer.calls["ensembles.reconstruct"] > 0

    by_idx = {s[0]: s for s in tracer.spans}
    for idx, _name, start, end, parent, job in tracer.spans:
        assert start <= end
        if parent >= 0:
            p = by_idx[parent]
            assert p[2] <= start and end <= p[3] and p[5] == job


def test_missing_sources_exit_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", "qudit_cli", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_metric_names_match_benchmark_json(tmp_path):
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tracer = Tracer()
    tracer.round = 0
    jobs = list(example1_jobs(tmp_path).values())
    ledger = Ledger()
    untraced = [run_round(jobs, ledger)]
    tracer.install()
    try:
        traced = [run_round(jobs, ledger, tracer)]
    finally:
        tracer.uninstall()
    result = RunResult(ledger, untraced, traced)
    e2e = run.end_to_end(result, setup_s=1.0)
    layer = run.per_layer(result, tracer)
    assert [m["name"] for m in declared["end_to_end"]] == list(e2e)
    assert [m["name"] for m in declared["per_layer"]] == list(layer)
    for kind, produced in (("end_to_end", e2e), ("per_layer", layer)):
        for m in declared[kind]:
            assert produced[m["name"]]["unit"] == m["unit"]
    spans = sum(v["value"] for k, v in layer.items() if k.startswith("layer."))
    assert spans + layer["trace.unattributed_s"]["value"] == pytest.approx(layer["trace.wall_s"]["value"])
