"""The benchmark's three workloads, their inputs and their per-job gates.

- ``qudit_cli``: the whole CLI surface, in-process through
  ``udbound.cli.main``, on example1 and example2 at d=3,4.  Many small
  programs and many files: bound by ADMM per-iteration overhead, JSON
  encode/decode and loading, with both writes and reads.
- ``qudit_d5``: the Python API on ``build_example2(5)`` (D=625).  Dense
  625x625 linear algebra dominates (``conclusive_subspace`` eigh,
  ``min_eigenvalue``, the kron reconstructions in ``ensembles``); the
  solver loop is small and there is no JSON, so a JSON or solver-loop gain
  should read as no change here.
- ``random_global``: random ensembles on 2 to 5 qubits with n=3,4, each
  through CLI ``solve global`` and ``verify prop1`` on its extracted
  outputs.  A few large programs (dense A up to 1024x4050 at D=32):
  assembly, the Gram factor and big-A iterations dominate.  The ensembles
  come from a fixed pool, rotated by seeded random local unitaries: the
  iteration count of a random instance ranges over 75..650 at D=32, which
  would make the run's time follow the seed rather than the program.

Every call into udbound goes through a module attribute looked up at call
time (``cli.main``, ``programs.solve_global``, ...), so the tracer's
patches see it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import udbound.cli as cli
import udbound.cones as cones_mod
import udbound.ensembles as ensembles
import udbound.jsonio as jsonio
import udbound.programs as programs
import udbound.verify as verify
from udbound.operators import DimVector, HermitianOperator
from harness import Job, Verdict

# A value more than this far from its closed form fails the job.
VALUE_TOL = 1e-6
# Tolerance of ``verify prop1`` on the solver's own outputs.
SOLVED_TOL = 1e-6

# random_global draws POOL_BATCHES ensembles of each (qubits, states) shape
# from the generator at POOL_SEED, then rotates them by the run's seed.
SHAPES = tuple((q, n) for q in (2, 3, 4, 5) for n in (3, 4))
POOL_BATCHES = 1
POOL_SEED = 0


def closed_forms(d: int) -> tuple[float, float]:
    """(p_G, q) of the example2 family at d."""
    denom = d ** (d - 1) - 2 * (d - 1)
    return 2.0 / denom, 1.0 / denom


@dataclass
class Workload:
    """Inputs made by ``setup`` (timed as set-up), then ``jobs``, one round."""

    setup: Callable[[], None]
    jobs: list[Job]


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def call_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def inspect_payload(payload: dict, expect: dict[str, float], verdict: Verdict, exact: bool = True) -> None:
    """Gate a solve, verify or nlwe payload; record the margins it shows."""
    if "status" in payload and payload["status"] != "optimal":
        verdict.failures.append(f"status {payload['status']}")
    if "verdict" in payload:
        if payload["verdict"] != "pass":
            verdict.failures.append(f"verdict {payload['verdict']} (failing {payload.get('failing')})")
        else:
            worst = max(payload["residuals"].values())
            verdict.residual_ratios.append(worst / payload["tolerance"])
    if "witnessed" in payload and payload["witnessed"] is not True:
        verdict.failures.append("nonlocality not witnessed")
    for key, target in expect.items():
        err = abs(float(payload[key]) - target)
        if exact:
            verdict.value_errors.append(err)
        if err > VALUE_TOL:
            verdict.failures.append(f"{key}={payload[key]!r}, closed form {target!r}")


def cli_job(
    key: str,
    kind: str,
    argv: list[str],
    files: tuple[Path, ...] = (),
    report: Optional[Path] = None,
    expect: Optional[dict[str, float]] = None,
) -> Job:
    """A CLI call gated on exit code 0 and on its report or JSON stdout.

    ``files`` are the outputs that must repeat byte for byte; the payload
    is read from ``report`` when given, else from stdout when it is JSON.
    """

    def check(res: CliResult) -> Verdict:
        verdict = Verdict()
        if res.code != 0:
            verdict.failures.append(f"exit code {res.code}: {res.stderr.strip()[-300:]}")
        blobs = [str(res.code).encode(), res.stdout.encode(), res.stderr.encode()]
        blobs += [Path(f).read_bytes() for f in files]
        verdict.identity = b"\0".join(blobs)
        if res.code != 0:
            return verdict
        if report is not None:
            payload = json.loads(Path(report).read_text(encoding="utf-8"))
        elif res.stdout.startswith("{"):
            payload = json.loads(res.stdout)
        else:
            payload = {}
        inspect_payload(payload, expect or {}, verdict)
        return verdict

    return Job(key, kind, lambda: call_cli(argv), check)


def extract_job(key: str, report: Path, measurement: Path, certificate: Path) -> Job:
    """Split a solve report into measurement and certificate files."""

    def action() -> None:
        payload = jsonio.read_json(report)
        jsonio.write_json(measurement, payload["measurement"])
        jsonio.write_json(certificate, payload["dual_certificate"])

    def check(_result) -> Verdict:
        return Verdict(identity=measurement.read_bytes() + b"\0" + certificate.read_bytes())

    return Job(key, "other", action, check)


def table_job(key: str, workdir: Path, seed: int) -> Job:
    out = workdir / "table.csv"
    argv = ["table", "--d-min", "3", "--d-max", "4", "--seed", str(seed), "--out", str(out)]

    def check(res: CliResult) -> Verdict:
        verdict = Verdict(identity=f"{res.code}\0{res.stdout}\0{res.stderr}\0".encode() + out.read_bytes())
        if res.code != 0 or res.stderr:
            verdict.failures.append(f"exit code {res.code}, stderr {res.stderr.strip()[-300:]!r}")
            return verdict
        rows = {int(r["d"]): r for r in csv.DictReader(io.StringIO(out.read_text(encoding="utf-8")))}
        if sorted(rows) != [3, 4]:
            verdict.failures.append(f"table rows for d={sorted(rows)}")
            return verdict
        for d, row in rows.items():
            p, q = closed_forms(d)
            # the table prints 6 significant digits: gate the values, do not record them
            payload = {"p_G": row["p_G"], "q_bound": row["q_bound"], "witnessed": row["nlwe_witnessed"] == "true"}
            inspect_payload(payload, {"p_G": p, "q_bound": q}, verdict, exact=False)
        return verdict

    return Job(key, "solve", lambda: call_cli(argv), check)


def family_jobs(prefix: str, command: list[str], p: float, q: float, workdir: Path, seed: int) -> list[Job]:
    """Every CLI job on one example family, in pipeline order."""

    def f(suffix: str) -> Path:
        return workdir / f"{prefix}_{suffix}.json"

    ens, cones = str(f("ensemble")), str(f("cones"))
    fixtures = tuple(
        f(s)
        for s in (
            "ensemble",
            "measurement_global",
            "certificate_global",
            "measurement_locc",
            "certificate_sep",
            "cones",
        )
    )
    seeded = ["--seed", str(seed)]
    as_json = ["--format", "json"]
    locc = ["--measurement", str(f("measurement_locc")), "--certificate", str(f("certificate_sep"))]
    g, s = f("report_global"), f("report_sep")
    solved_m, solved_c = f("solved_measurement"), f("solved_certificate")
    return [
        cli_job(f"{prefix}/example", "other", command + ["--out", str(workdir)], files=fixtures),
        cli_job(
            f"{prefix}/solve-global", "solve",
            ["solve", "global", "--ensemble", ens, "--out", str(g)] + seeded,
            files=(g,), report=g, expect={"value": p},
        ),
        cli_job(
            f"{prefix}/solve-sep-bound", "solve",
            ["solve", "sep-bound", "--ensemble", ens, "--cones", cones, "--out", str(s)] + seeded,
            files=(s,), report=s, expect={"value": q},
        ),
        cli_job(
            f"{prefix}/prop1-fixture", "verify",
            ["verify", "prop1", "--ensemble", ens, "--measurement", str(f("measurement_global")),
             "--certificate", str(f("certificate_global"))] + as_json,
            expect={"value": p},
        ),
        extract_job(f"{prefix}/extract", g, solved_m, solved_c),
        cli_job(
            f"{prefix}/prop1-solved", "verify",
            ["verify", "prop1", "--tol", str(SOLVED_TOL), "--ensemble", ens, "--measurement", str(solved_m),
             "--certificate", str(solved_c)] + as_json,
            expect={"value": p},
        ),
        cli_job(
            f"{prefix}/thm3", "verify",
            ["verify", "thm3", "--ensemble", ens, "--cones", cones] + locc + as_json,
            expect={"value": q},
        ),
        cli_job(
            f"{prefix}/cor3", "verify",
            ["verify", "cor3", "--ensemble", ens, "--cones", cones] + locc + as_json,
            expect={"value": q},
        ),
        cli_job(
            f"{prefix}/nlwe", "solve",
            ["verify", "nlwe", "--ensemble", ens, "--cones", cones] + seeded + as_json,
            expect={"p_global": p, "q_bound": q},
        ),
    ]


def qudit_cli(seed: int, workdir: Path) -> Workload:
    families = [
        ("example1", ["example1"], 0.75, 0.5),
        ("example2_d3", ["example2", "--d", "3"], *closed_forms(3)),
        ("example2_d4", ["example2", "--d", "4"], *closed_forms(4)),
    ]
    order = np.random.default_rng(seed).permutation(len(families))
    jobs: list[Job] = []
    for k in order:
        prefix, command, p, q = families[k]
        jobs += family_jobs(prefix, command, p, q, workdir, seed)
    jobs.append(table_job("table", workdir, seed))
    return Workload(setup=lambda: workdir.mkdir(parents=True, exist_ok=True), jobs=jobs)


def _solve_identity(report) -> bytes:
    parts = [repr((report.status, report.value, report.iterations)).encode()]
    parts.append(report.dual_certificate.matrix.tobytes())
    parts += [el.matrix.tobytes() for el in report.measurement.elements]
    return b"\0".join(parts)


def _verify_verdict(report, expect: dict[str, float]) -> Verdict:
    payload = report.to_dict()
    verdict = Verdict(identity=json.dumps(payload, sort_keys=True).encode())
    inspect_payload(payload, expect, verdict)
    return verdict


def qudit_d5(seed: int, workdir: Path) -> Workload:
    d = 5
    p, q = closed_forms(d)
    inputs: dict = {}
    solved: dict = {}

    def setup() -> None:
        ensemble, fixtures = ensembles.build_example2(d)
        inputs["ensemble"] = ensemble
        inputs["fixtures"] = fixtures
        inputs["cones"] = [cones_mod.example_cone_generators(ensemble, "example2", i) for i in range(ensemble.n)]

    def solve():
        solved.clear()
        solved["report"] = programs.solve_global(inputs["ensemble"], tol=1e-7, seed=seed)
        return solved["report"]

    def check_solve(report) -> Verdict:
        verdict = Verdict(identity=_solve_identity(report))
        inspect_payload({"status": report.status, "value": report.value}, {"value": p}, verdict)
        return verdict

    def verify_job(name: str, call, expected: float) -> Job:
        return Job(f"d5/{name}", "verify", call, lambda rep: _verify_verdict(rep, {"value": expected}))

    return Workload(
        setup=setup,
        jobs=[
            Job("d5/solve_global", "solve", solve, check_solve),
            verify_job(
                "verify_optimality-fixture",
                lambda: verify.verify_optimality(
                    inputs["ensemble"], inputs["fixtures"].global_measurement,
                    inputs["fixtures"].global_certificate, tol=1e-7,
                ),
                p,
            ),
            verify_job(
                "verify_optimality-solved",
                lambda: verify.verify_optimality(
                    inputs["ensemble"], solved["report"].measurement,
                    solved["report"].dual_certificate, tol=SOLVED_TOL,
                ),
                p,
            ),
            verify_job(
                "verify_locc_equality-fixture",
                lambda: verify.verify_locc_equality(
                    inputs["ensemble"], inputs["fixtures"].locc_measurement,
                    inputs["fixtures"].sep_certificate, inputs["cones"], tol=1e-7,
                ),
                q,
            ),
        ],
    )


def random_ensemble(rng: np.random.Generator, qubits: int, n: int) -> ensembles.Ensemble:
    """n random states on ``qubits`` qubits: pure with probability 2/3, else rank 2."""
    dims = DimVector((2,) * qubits)
    weights = rng.exponential(size=n) + 0.05
    states = []
    for _ in range(n):
        rank = 1 if rng.random() < 2 / 3 else 2
        g = rng.standard_normal((dims.total, rank)) + 1j * rng.standard_normal((dims.total, rank))
        rho = g @ g.conj().T
        rho = (rho + rho.conj().T) / 2
        states.append(HermitianOperator(rho / np.trace(rho).real, dims))
    return ensembles.Ensemble(dims, tuple(weights / weights.sum()), tuple(states))


def haar_unitary(rng: np.random.Generator, side: int) -> np.ndarray:
    z = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def local_rotation(ensemble: ensembles.Ensemble, rng: np.random.Generator) -> ensembles.Ensemble:
    """The ensemble under a random local unitary U_1 x ... x U_m, states reordered.

    p_G is invariant under both, and so are the solver's iteration counts,
    so the run's inputs change with the seed while its work does not.
    """
    u = np.ones((1, 1), dtype=np.complex128)
    for d in ensemble.dims.dims:
        u = np.kron(u, haar_unitary(rng, d))
    order = rng.permutation(ensemble.n)
    states = []
    for j in order:
        rho = u @ ensemble.states[j].matrix @ u.conj().T
        states.append(HermitianOperator((rho + rho.conj().T) / 2, ensemble.dims))
    return ensembles.Ensemble(ensemble.dims, tuple(ensemble.priors[j] for j in order), tuple(states))


def random_global(seed: int, workdir: Path) -> Workload:
    pool = [(b, q, n) for b in range(POOL_BATCHES) for q, n in SHAPES]

    def path(k: int, suffix: str) -> Path:
        b, q, n = pool[k]
        return workdir / f"i{k}_q{q}_n{n}_{suffix}.json"

    def setup() -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        for k, (b, q, n) in enumerate(pool):
            base = random_ensemble(np.random.default_rng([POOL_SEED, b, q, n]), q, n)
            rotated = local_rotation(base, np.random.default_rng([seed, b, q, n]))
            ensembles.save_ensemble(rotated, path(k, "ensemble"))

    jobs: list[Job] = []
    for k, (_b, q, n) in enumerate(pool):
        key = f"i{k}/q{q}n{n}"
        ens, report = str(path(k, "ensemble")), path(k, "report")
        m, c = path(k, "measurement"), path(k, "certificate")
        jobs += [
            cli_job(f"{key}/solve-global", "solve",
                    ["solve", "global", "--ensemble", ens, "--out", str(report)],
                    files=(report,), report=report),
            extract_job(f"{key}/extract", report, m, c),
            cli_job(f"{key}/prop1-solved", "verify",
                    ["verify", "prop1", "--tol", str(SOLVED_TOL), "--ensemble", ens,
                     "--measurement", str(m), "--certificate", str(c), "--format", "json"]),
        ]
    return Workload(setup=setup, jobs=jobs)


WORKLOADS = {"qudit_cli": qudit_cli, "qudit_d5": qudit_d5, "random_global": random_global}
