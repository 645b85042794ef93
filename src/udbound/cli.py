"""Command-line entry point.

Exit codes: 0 success / verification pass / optimal solve, 1 verification
fail (or no witnessed gap), 2 usage or input error, 3 solver hit the
iteration cap, 4 detected infeasibility or unboundedness.  Written reports
contain no timestamps and are byte-identical across runs with the same
inputs and seed.
"""

from __future__ import annotations

import argparse
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
    PrecheckError,
    ProtocolError,
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
    if args.format == "json":
        print(dumps({k: str(p) for k, p in paths.items()}))
    else:
        for line in lines:
            print(line)
    return 0


def _cmd_solve(args) -> int:
    ensemble = load_ensemble(args.ensemble)
    kwargs = dict(tol=args.tol, max_iter=args.max_iter, seed=args.seed)
    if args.kind == "global":
        report = solve_global(ensemble, **kwargs)
    else:
        if not args.cones:
            raise SchemaError("solve sep-bound requires --cones")
        cones = load_cones(args.cones)
        report = solve_separable_bound(ensemble, cones, **kwargs)

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


def _cmd_verify(args) -> int:
    ensemble = load_ensemble(args.ensemble)
    if args.kind == "nlwe":
        if not args.cones:
            raise SchemaError("verify nlwe requires --cones")
        cones = load_cones(args.cones)
        result = nlwe_witness(ensemble, cones, tol=args.tol, max_iter=args.max_iter, seed=args.seed)
        payload = result.to_dict()
        lines = [
            f"p_global: {_fmt(result.p_global)}",
            f"q_bound: {_fmt(result.q_bound)}",
            f"witnessed: {'true' if result.witnessed else 'false'}",
        ]
        _emit(payload, args.format, args.out, lines)
        return 0 if result.witnessed else 1

    if not args.measurement or not args.certificate:
        raise SchemaError(f"verify {args.kind} requires --measurement and --certificate")
    measurement = load_measurement(args.measurement)
    certificate = load_certificate(args.certificate)
    if args.kind == "prop1":
        report = verify_optimality(ensemble, measurement, certificate, tol=args.tol)
    else:
        if not args.cones:
            raise SchemaError(f"verify {args.kind} requires --cones")
        cones = load_cones(args.cones)
        if args.kind == "thm3":
            report = verify_separable_certificate(ensemble, measurement, certificate, cones, tol=args.tol)
        else:
            report = verify_locc_equality(ensemble, measurement, certificate, cones, tol=args.tol)

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
    for d in range(args.d_min, args.d_max + 1):
        ensemble, _ = build_example2(d, dim_cap=cap)
        cones = [example_cone_generators(ensemble, "example2", i) for i in range(ensemble.n)]
        result = nlwe_witness(ensemble, cones, tol=args.tol, max_iter=args.max_iter, seed=args.seed)
        p_form, q_form = _closed_forms(d)
        if abs(result.p_global - p_form) > 1e-5 or abs(result.q_bound - q_form) > 1e-5:
            print(
                f"WARNING d={d}: solver values ({result.p_global!r}, {result.q_bound!r}) "
                f"deviate from closed forms ({p_form!r}, {q_form!r})",
                file=sys.stderr,
            )
        rows.append(
            f"{d},{d ** (d - 1)},{_fmt(result.p_global)},{_fmt(result.q_bound)},"
            f"{'true' if result.witnessed else 'false'}"
        )
    csv = "d,dim,p_G,q_bound,nlwe_witnessed\n" + "".join(r + "\n" for r in rows)
    if args.out:
        Path(args.out).write_text(csv, encoding="utf-8")
    else:
        sys.stdout.write(csv)
    return 0


def build_parser() -> argparse.ArgumentParser:
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

    def solver(p):
        p.add_argument("--tol", type=float, default=1e-7)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-iter", type=int, default=200_000)

    p = sub.add_parser("example1", help="write the example1 ensemble and fixtures")
    output(p)
    p = sub.add_parser("example2", help="write the example2 ensemble and fixtures")
    p.add_argument("--d", type=int, required=True, help="family parameter, d >= 3")
    output(p)

    p = sub.add_parser("solve", help="run an optimization and write its report")
    p.add_argument("kind", choices=["global", "sep-bound"])
    p.add_argument("--ensemble", type=str, required=True)
    p.add_argument("--cones", type=str, default=None)
    output(p)
    solver(p)

    p = sub.add_parser("verify", help="check certificates against supplied operators")
    p.add_argument("kind", choices=["prop1", "thm3", "cor3", "nlwe"])
    p.add_argument("--ensemble", type=str, required=True)
    p.add_argument("--measurement", type=str, default=None)
    p.add_argument("--certificate", type=str, default=None)
    p.add_argument("--cones", type=str, default=None)
    output(p)
    solver(p)

    p = sub.add_parser("table", help="scan the qudit family and emit CSV")
    p.add_argument("--d-min", type=int, required=True)
    p.add_argument("--d-max", type=int, required=True)
    p.add_argument("--out", type=str, default=None)
    solver(p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("example1", "example2"):
            return _cmd_example(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_table(args)
    except (SchemaError, PrecheckError, ProtocolError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
