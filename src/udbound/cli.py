"""Command-line entry point.

Exit codes: 0 success / verification pass / optimal solve, 1 verification
fail (or no witnessed gap), 2 usage or input error, 3 solver hit the
iteration cap, 4 detected infeasibility or unboundedness.  ``verify nlwe``
and ``table`` exit 3 or 4 when any of their solves stops short of optimal,
by the status of the first such solve, which stderr names; their output is
written all the same.  Written reports contain no timestamps and are
byte-identical across runs with the same inputs and seed.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .cones import example_cone_generators, load_cones, save_cones
from .ensembles import (
    build_example1,
    build_example2,
    load_ensemble,
    load_measurement,
    save_ensemble,
    save_measurement,
)
from .jsonio import SchemaError, dumps, load_certificate, save_certificate, write_json
from .programs import solve_global, solve_separable_bound
from .verify import (
    nlwe_witness,
    verify_locc_equality,
    verify_optimality,
    verify_separable_certificate,
)

DEFAULT_DIM_CAP = 1024

_STATUS_EXIT = {"optimal": 0, "max_iterations": 3, "infeasible": 4, "unbounded": 4}


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _dim_cap() -> int:
    raw = os.environ.get("UDBOUND_DIM_CAP")
    if raw is None:
        return DEFAULT_DIM_CAP
    try:
        return int(raw)
    except ValueError as exc:
        raise SchemaError(f"UDBOUND_DIM_CAP={raw!r} is not an integer") from exc


def _emit(payload: dict, fmt: str, out: str | None, text_lines: list[str]) -> None:
    parts = write_json(out, payload) if out else None
    if fmt == "json":
        print("".join(parts) if parts else dumps(payload) + "\n", end="")
    else:
        for line in text_lines:
            print(line)


def _cmd_example(args) -> int:
    if args.command == "example1":
        ensemble, fixtures = build_example1()
        prefix = which = "example1"
    else:
        ensemble, fixtures = build_example2(args.d, dim_cap=_dim_cap())
        prefix = f"example2_d{args.d}"
        which = "example2"

    outdir = Path(args.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    cones = [example_cone_generators(ensemble, which, i) for i in range(ensemble.n)]
    paths = {
        "ensemble": outdir / f"{prefix}_ensemble.json",
        "global_measurement": outdir / f"{prefix}_measurement_global.json",
        "global_certificate": outdir / f"{prefix}_certificate_global.json",
        "locc_measurement": outdir / f"{prefix}_measurement_locc.json",
        "sep_certificate": outdir / f"{prefix}_certificate_sep.json",
        "cones": outdir / f"{prefix}_cones.json",
    }
    save_ensemble(ensemble, paths["ensemble"])
    save_measurement(fixtures.global_measurement, paths["global_measurement"])
    save_certificate(fixtures.global_certificate, paths["global_certificate"])
    save_measurement(fixtures.locc_measurement, paths["locc_measurement"])
    save_certificate(fixtures.sep_certificate, paths["sep_certificate"])
    save_cones(cones, paths["cones"])

    dims = "x".join(str(d) for d in ensemble.dims)
    lines = [
        f"ensemble {prefix}: n={ensemble.n} states on dims {dims}",
        f"priors: [{', '.join(_fmt(p) for p in ensemble.priors)}]",
        f"fixture global value {_fmt(fixtures.global_certificate.trace)}, "
        f"separable bound {_fmt(fixtures.sep_certificate.trace)}",
    ]
    lines += [f"wrote {p}" for p in paths.values()]
    _emit({k: str(p) for k, p in paths.items()}, args.format, None, lines)
    return 0


def _cmd_solve(args) -> int:
    ensemble = load_ensemble(args.ensemble)
    kwargs = dict(tol=args.tol, max_iter=args.max_iter, seed=args.seed)
    if args.kind == "global":
        report = solve_global(ensemble, **kwargs)
    else:
        report = solve_separable_bound(ensemble, load_cones(args.cones), **kwargs)

    payload = report.to_dict()
    lines = [
        f"status: {report.status}",
        f"value: {_fmt(report.value)}",
        f"iterations: {report.iterations}",
        "residuals: "
        + ", ".join(f"{k}={report.residuals[k]:.3e}" for k in sorted(report.residuals)),
    ]
    if report.never_conclusive:
        states = ", ".join(str(i + 1) for i in report.never_conclusive)
        lines.append(f"states never conclusively identified: {states}")
    _emit(payload, args.format, args.out, lines)
    return _STATUS_EXIT.get(report.status, 1)


def _short_of_optimal(result, where: str = "") -> int:
    """Exit code of the first of nlwe's solves that is not optimal, named on stderr; 0 if both are."""
    for name, report in (("global", result.global_report), ("sep-bound", result.bound_report)):
        if report.status != "optimal":
            print(f"WARNING{where}: {name} solve stopped short of optimal ({report.status})", file=sys.stderr)
            return _STATUS_EXIT.get(report.status, 1)
    return 0


def _cmd_nlwe(args) -> int:
    ensemble = load_ensemble(args.ensemble)
    cones = load_cones(args.cones)
    result = nlwe_witness(ensemble, cones, tol=args.tol, max_iter=args.max_iter, seed=args.seed)
    payload = result.to_dict()
    lines = [
        f"p_global: {_fmt(result.p_global)}",
        f"q_bound: {_fmt(result.q_bound)}",
        f"witnessed: {'true' if result.witnessed else 'false'}",
    ]
    _emit(payload, args.format, args.out, lines)
    return _short_of_optimal(result) or (0 if result.witnessed else 1)


def _cmd_verify(args) -> int:
    ensemble = load_ensemble(args.ensemble)
    measurement = load_measurement(args.measurement)
    certificate = load_certificate(args.certificate)
    if args.kind == "prop1":
        report = verify_optimality(ensemble, measurement, certificate, tol=args.tol)
    else:
        cones = load_cones(args.cones)
        check = verify_separable_certificate if args.kind == "thm3" else verify_locc_equality
        report = check(ensemble, measurement, certificate, cones, tol=args.tol)

    payload = report.to_dict()
    lines = [f"verdict: {'pass' if report.passed else 'fail'}"]
    if report.value is not None:
        lines.append(f"value: {_fmt(report.value)}")
    lines.append(
        "residuals: " + ", ".join(f"{k}={report.residuals[k]:.3e}" for k in sorted(report.residuals))
    )
    if report.failing:
        lines.append("failing: " + ", ".join(report.failing))
    for note in report.notes:
        lines.append(f"note: {note}")
    _emit(payload, args.format, args.out, lines)
    return 0 if report.passed else 1


def _closed_forms(d: int) -> tuple[float, float]:
    denom = d ** (d - 1) - 2 * (d - 1)
    return 2.0 / denom, 1.0 / denom


def _cmd_table(args) -> int:
    cap = _dim_cap()
    rows = []
    code = 0
    for d in range(args.d_min, args.d_max + 1):
        ensemble, _ = build_example2(d, dim_cap=cap)
        cones = [example_cone_generators(ensemble, "example2", i) for i in range(ensemble.n)]
        result = nlwe_witness(ensemble, cones, tol=args.tol, max_iter=args.max_iter, seed=args.seed)
        p_form, q_form = _closed_forms(d)
        # relative: both forms shrink like 1 / d^(d-1)
        if abs(result.p_global - p_form) > 1e-5 * p_form or abs(result.q_bound - q_form) > 1e-5 * q_form:
            print(
                f"WARNING d={d}: solver values ({result.p_global!r}, {result.q_bound!r}) "
                f"deviate from closed forms ({p_form!r}, {q_form!r})",
                file=sys.stderr,
            )
        status_code = _short_of_optimal(result, f" d={d}")
        code = code or status_code
        rows.append(
            f"{d},{d ** (d - 1)},{_fmt(result.p_global)},{_fmt(result.q_bound)},"
            f"{'true' if result.witnessed else 'false'}"
        )
    csv = "d,dim,p_G,q_bound,nlwe_witnessed\n" + "".join(r + "\n" for r in rows)
    if args.out:
        Path(args.out).write_text(csv, encoding="utf-8")
    else:
        sys.stdout.write(csv)
    return code


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``udbound`` parser: each (sub)command accepts exactly the flags it reads."""
    parser = argparse.ArgumentParser(
        prog="udbound",
        description=(
            "Unambiguous discrimination of multipartite state ensembles: "
            "global optimum, dual certificates, separable-measurement bounds"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("--format", choices=["json", "text"], default="text")
        p.add_argument("--out", type=str, default=None)

    def solver(p, iterative=True):
        p.add_argument("--tol", type=float, default=1e-7)
        if iterative:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--max-iter", type=int, default=200_000)

    def kind(kinds, name, run, summary, inputs, iterative=True):
        p = kinds.add_parser(name, help=summary)
        p.set_defaults(run=run)
        for flag in inputs:
            p.add_argument(f"--{flag}", type=str, required=True)
        output(p)
        solver(p, iterative)

    p = sub.add_parser("example1", help="write the example1 ensemble and fixtures")
    p.set_defaults(run=_cmd_example)
    output(p)
    p = sub.add_parser("example2", help="write the example2 ensemble and fixtures")
    p.set_defaults(run=_cmd_example)
    p.add_argument("--d", type=int, required=True, help="family parameter, d >= 3")
    output(p)

    kinds = sub.add_parser("solve", help="run an optimization and write its report")
    kinds = kinds.add_subparsers(dest="kind", required=True)
    kind(kinds, "global", _cmd_solve, "the global optimum p_G, its measurement and certificate", ["ensemble"])
    kind(kinds, "sep-bound", _cmd_solve, "the bound q on separable measurements", ["ensemble", "cones"])

    kinds = sub.add_parser("verify", help="check certificates against supplied operators")
    kinds = kinds.add_subparsers(dest="kind", required=True)
    checked = ["ensemble", "measurement", "certificate"]
    kind(kinds, "prop1", _cmd_verify, "Prop. 1: the measurement is optimal", checked, False)
    checked += ["cones"]
    kind(kinds, "thm3", _cmd_verify, "Thm. 3: the certificate bounds separable measurements", checked, False)
    kind(kinds, "cor3", _cmd_verify, "Cor. 3: the LOCC protocol attains the bound", checked, False)
    kind(kinds, "nlwe", _cmd_nlwe, "solve both programs and witness p_G > q", ["ensemble", "cones"])

    p = sub.add_parser("table", help="scan the qudit family and emit CSV")
    p.set_defaults(run=_cmd_table)
    p.add_argument("--d-min", type=int, required=True)
    p.add_argument("--d-max", type=int, required=True)
    p.add_argument("--out", type=str, default=None)
    solver(p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:  # SchemaError, PrecheckError and ProtocolError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
