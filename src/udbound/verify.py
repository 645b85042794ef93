"""Independent verification of optimality and bound-tightness conditions.

Every check here recomputes its residuals from the supplied operators
alone, with no solver state, so a verdict is reproducible from serialized
inputs.  Condition identifiers in reports are short stable keys used by
downstream tooling: "3" (no-error pairings), "7a".."7d" (global-optimality
certificate), "14a"/"14b" (bound-certificate feasibility), "16a"/"16b"
(complementary slackness of the bound), "locc" (protocol reconstruction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .cones import ConeGenerators, _canonical_cuts, _conclusive_bases, check_no_error_cone, in_generated_dual
from .ensembles import Ensemble, Measurement
from .operators import (
    HermitianOperator,
    compress,
    hs_inner,
    min_eigenvalue,
    min_eigenvalues,
    nan_max,
    partial_transpose,
    psd_violation,
)
from .programs import solve_global, solve_separable_bound
from .solver import SolveReport


class PrecheckError(ValueError):
    """A verification precondition (POVM structure, annotations) failed."""


class ProtocolError(ValueError):
    """A local-protocol descriptor does not reproduce the measurement."""


@dataclass
class VerificationReport:
    """Named residuals against a tolerance; passes iff all are within it."""

    tolerance: float
    residuals: dict[str, float]
    details: dict[str, dict[str, float]] = field(default_factory=dict)
    value: Optional[float] = None
    unverified: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def failing(self) -> list[str]:
        return sorted(k for k, v in self.residuals.items() if not v <= self.tolerance)

    @property
    def passed(self) -> bool:
        return not self.failing

    def to_dict(self) -> dict:
        return {
            "verdict": "pass" if self.passed else "fail",
            "failing": self.failing,
            "tolerance": self.tolerance,
            "value": self.value,
            "residuals": dict(self.residuals),
            "details": {k: dict(v) for k, v in self.details.items()},
            "unverified": list(self.unverified),
            "notes": list(self.notes),
        }


def _success_probability(ensemble: Ensemble, measurement: Measurement) -> float:
    return sum(
        prior * hs_inner(rho, measurement.elements[i + 1])
        for i, (prior, rho) in enumerate(ensemble.items)
    )


def check_no_error(ensemble: Ensemble, measurement: Measurement, tol: float = 1e-8) -> VerificationReport:
    """Pairings of each state with the other conclusive elements."""
    if len(measurement.elements) != ensemble.n + 1:
        raise ValueError(
            f"measurement has {len(measurement.elements)} elements, expected {ensemble.n + 1}"
        )
    detail: dict[str, float] = {}
    for i, rho in enumerate(ensemble.states):
        for j in range(ensemble.n):
            if i != j:
                detail[f"i={i + 1},j={j + 1}"] = abs(hs_inner(rho, measurement.elements[j + 1]))
    worst = nan_max([0.0, *detail.values()])
    return VerificationReport(tolerance=tol, residuals={"3": worst}, details={"3": detail})


def _precheck(ensemble: Ensemble, measurement: Measurement, tol: float) -> None:
    report = check_no_error(ensemble, measurement, tol)
    if not report.passed:
        raise PrecheckError(
            f"no-error precheck failed (worst residual {report.residuals['3']:.3e})"
        )
    comp = nan_max((measurement.completeness_residual(), measurement.psd_residual()))
    if not comp <= tol:
        raise PrecheckError(f"POVM completeness precheck failed (residual {comp:.3e})")


def _check_dims(ensemble: Ensemble, measurement: Measurement, certificate: HermitianOperator) -> None:
    for name, dims in (("measurement", measurement.dims), ("certificate", certificate.dims)):
        if dims != ensemble.dims:
            raise PrecheckError(f"{name} dims {dims.dims} do not match ensemble {ensemble.dims.dims}")


def _conditions(ids, ensemble, measurement, certificate, tol, entry, dual) -> VerificationReport:
    """The four conditions Prop. 1 and Thm. 3 share, reported under ``ids``.

    (a) the certificate C in the dual cone: ``entry(C, tol)`` gives (residual,
    or None if unverified; note; details); (b) |Tr(E_0 C)|; (c) the violation
    of ``dual(i, C - p_i rho_i)`` >= 0 for each i; (d) |Tr(E_i (C - p_i rho_i))|.
    """
    res_a, note, cut_detail = entry(certificate, tol)
    shifted = [certificate - prior * rho for prior, rho in ensemble.items]
    detail_c = {f"i={i + 1}": nan_max((0.0, -dual(i, s))) for i, s in enumerate(shifted)}
    detail_d = {f"i={i + 1}": abs(hs_inner(measurement.elements[i + 1], s)) for i, s in enumerate(shifted)}
    res_b = abs(hs_inner(measurement.elements[0], certificate))
    residuals = (0.0 if res_a is None else res_a, res_b, nan_max(detail_c.values()), nan_max(detail_d.values()))
    return VerificationReport(
        tolerance=tol,
        residuals=dict(zip(ids, residuals)),
        details=({ids[0]: cut_detail} if cut_detail else {}) | {ids[2]: detail_c, ids[3]: detail_d},
        value=_success_probability(ensemble, measurement),
        unverified=[ids[0]] if res_a is None else [],
        notes=[note] if note else [],
    )


def verify_optimality(
    ensemble: Ensemble,
    measurement: Measurement,
    certificate: HermitianOperator,
    tol: float = 1e-8,
) -> VerificationReport:
    """Joint optimality of an unambiguous measurement and its certificate.

    Conditions: the certificate is PSD ("7a"), pairs to zero with the
    inconclusive element ("7b"), dominates each weighted state on its
    no-error subspace ("7c"), and pairs to zero with each conclusive
    element after subtracting the weighted state ("7d").  On a pass the
    certified value is the success probability, which then equals the
    certificate trace within the reported residuals.  K_i comes from the
    programs' own split, :func:`cones.no_error_subspaces`, taken once.
    """
    _check_dims(ensemble, measurement, certificate)
    _precheck(ensemble, measurement, tol)
    bases = _conclusive_bases(ensemble)
    return _conditions(
        ("7a", "7b", "7c", "7d"), ensemble, measurement, certificate, tol,
        entry=lambda c, _: (psd_violation(c), None, {}),
        dual=lambda i, shifted: min_eigenvalue(compress(shifted, bases[i])) if bases[i].shape[1] else 0.0,
    )


def _require_decompositions(measurement: Measurement, tol: float, rebuilt: bool) -> None:
    """Check each carried decomposition; with ``rebuilt``, a protocol reproduced the elements without one."""
    for k, dec in enumerate(measurement.decompositions):
        if dec is None:
            if rebuilt:
                continue
            raise PrecheckError(f"separability not certified: element {k} has no decomposition")
        scale = max(1.0, float(np.abs(measurement.elements[k].matrix).max()))
        try:
            res = dec.residual(measurement.elements[k])
        except ValueError as exc:
            raise PrecheckError(f"separability not certified: element {k} decomposition: {exc}") from exc
        if not res <= max(tol, 1e-9) * scale:
            raise PrecheckError(
                f"separability not certified: element {k} decomposition off by {res:.3e}"
            )


def _sep_dual_entry(certificate: HermitianOperator, tol: float):
    """Sufficient membership test in the dual of the separable cone.

    PSD operators qualify, and so does any operator whose partial transpose
    across some bipartition is PSD; if neither route certifies membership
    the condition is reported as unverified rather than failed.
    """
    lo = min_eigenvalue(certificate)
    if lo >= -tol:
        return max(0.0, -lo), None, {}
    cut_detail = {"psd": lo}
    for cut in _canonical_cuts(certificate.dims.sites):
        lo_cut = min_eigenvalue(partial_transpose(certificate, cut))
        cut_detail[f"cut={cut}"] = lo_cut
        if lo_cut >= -tol:
            note = f"certified via partial transpose across sites {cut}"
            return max(0.0, -lo_cut), note, cut_detail
    return None, "membership in the separable dual cone unverified", cut_detail


def _check_cones(ensemble: Ensemble, cones: Sequence[ConeGenerators], tol: float) -> None:
    """Raise ``ValueError`` unless each state i has one cone, inside its no-error cone."""
    if len(cones) != ensemble.n:
        raise ValueError(f"expected {ensemble.n} generator cones, got {len(cones)}")
    for i, cone in enumerate(cones):
        check_no_error_cone(ensemble, i, cone, tol)


def _tightness(
    ensemble: Ensemble,
    measurement: Measurement,
    certificate: HermitianOperator,
    cones: Sequence[ConeGenerators],
    tol: float,
    rebuilt: bool,
) -> VerificationReport:
    """Prechecks, then conditions 14a, 14b, 16a and 16b (see :func:`verify_separable_certificate`)."""
    try:
        _check_cones(ensemble, cones, tol)
    except ValueError as exc:
        raise PrecheckError(str(exc)) from exc
    _precheck(ensemble, measurement, tol)
    _require_decompositions(measurement, tol, rebuilt)
    return _conditions(
        ("14a", "16a", "14b", "16b"), ensemble, measurement, certificate, tol,
        entry=_sep_dual_entry,
        dual=lambda i, shifted: in_generated_dual(shifted, cones[i], tol)[1],
    )


def verify_separable_certificate(
    ensemble: Ensemble,
    measurement: Measurement,
    certificate: HermitianOperator,
    cones: Sequence[ConeGenerators],
    tol: float = 1e-8,
) -> VerificationReport:
    """Tightness certificate for the separable bound.

    Requires every generator of cone i to lie in the no-error cone of state
    i (see :func:`cones.check_no_error_cone`) and every element to carry a
    verified separable decomposition.
    Conditions: certificate in the separable dual cone ("14a", via the
    sufficient PSD / partial-transpose routes, else marked unverified),
    nonnegative pairings with each state's cone generators after
    subtracting the weighted state ("14b"), zero pairing with the
    inconclusive element ("16a"), and zero shifted pairings with the
    conclusive elements ("16b").  On a pass the bound equals both the
    certificate trace and the measurement's success probability.
    """
    _check_dims(ensemble, measurement, certificate)
    return _tightness(ensemble, measurement, certificate, cones, tol, rebuilt=False)


def _protocol_residual(measurement: Measurement, tol: float) -> float:
    protocol = measurement.locc_protocol
    if protocol is None:
        raise PrecheckError("LOCC protocol descriptor missing")
    for k, povm in enumerate(protocol.site_povms):
        shapes = sorted({el.shape for el in povm})
        if len(shapes) != 1:  # one shape per site; kron_sum checks it against the site side
            raise ProtocolError(f"local POVM at site {k} needs one element shape, has {shapes}")
    for k, resid in enumerate(protocol.local_completeness_residuals()):
        if not resid <= tol:
            raise ProtocolError(f"local POVM at site {k} incomplete (residual {resid:.3e})")
    for k, povm in enumerate(protocol.site_povms):
        for e, lo in enumerate(min_eigenvalues(povm)):
            if not lo >= -tol:
                raise ProtocolError(
                    f"local POVM element {e} at site {k} not PSD (min eigenvalue {lo:.3e})"
                )
    try:
        rebuilt = protocol.reconstruct_elements(measurement.dims, len(measurement.elements))
    except ValueError as exc:
        raise ProtocolError(f"protocol does not match the space: {exc}") from exc
    worst = 0.0
    for k, el in enumerate(measurement.elements):
        diff = float(np.abs(rebuilt[k] - el.matrix).max())
        if not diff <= max(tol, 1e-9) * max(1.0, float(np.abs(el.matrix).max())):
            raise ProtocolError(
                f"protocol does not reproduce element {k} (entrywise residual {diff:.3e})"
            )
        worst = max(worst, diff)
    return worst


def verify_locc_equality(
    ensemble: Ensemble,
    measurement: Measurement,
    certificate: HermitianOperator,
    cones: Sequence[ConeGenerators],
    tol: float = 1e-8,
) -> VerificationReport:
    """Certify that the separable bound is attained by a local protocol.

    The measurement's one-round protocol descriptor is reconstructed
    numerically (local completeness, PSD elements, coarse-grained product
    elements matching the measurement entrywise); the tightness conditions
    are then verified.  The reconstruction already certifies every element
    as a sum of products of PSD local factors, so only the decompositions
    the elements carry are checked again.  On a pass the locally attainable
    optimum equals the certified bound.
    """
    _check_dims(ensemble, measurement, certificate)
    recon = _protocol_residual(measurement, tol)
    report = _tightness(ensemble, measurement, certificate, cones, tol, rebuilt=True)
    report.residuals["locc"] = recon
    report.notes.append(f"protocol: {measurement.locc_protocol.description}")
    return report


@dataclass
class NlweReport:
    """Gap between the global optimum and the separable bound.

    ``witnessed`` is sound evidence of a local-global gap only when the
    bound is confirmed tight by a passing tightness certificate.
    """

    witnessed: bool
    p_global: float
    q_bound: float
    tolerance: float
    global_report: Optional[SolveReport] = None
    bound_report: Optional[SolveReport] = None

    def to_dict(self) -> dict:
        """The verdict, both values and the status of each solve; neither status key is ``status``."""
        return {
            "witnessed": self.witnessed,
            "p_global": self.p_global,
            "q_bound": self.q_bound,
            "tolerance": self.tolerance,
            "global_status": None if self.global_report is None else self.global_report.status,
            "bound_status": None if self.bound_report is None else self.bound_report.status,
        }


def nlwe_witness(
    ensemble: Ensemble,
    cones: Sequence[ConeGenerators],
    tol: float = 1e-7,
    max_iter: int = 200_000,
    seed: int = 0,
) -> NlweReport:
    """Solve both programs and compare: a strict gap witnesses nonlocality.

    Only two optimal solves witness a gap: the value of an iterate that
    stopped short says nothing about the optimum.  Raises ``ValueError``
    unless each cone i lies in the no-error cone of state i (see
    :func:`cones.check_no_error_cone`).
    """
    _check_cones(ensemble, cones, tol)
    global_report = solve_global(ensemble, tol=tol, max_iter=max_iter, seed=seed)
    bound_report = solve_separable_bound(ensemble, list(cones), tol=tol, max_iter=max_iter, seed=seed)
    p = global_report.value
    q = bound_report.value
    return NlweReport(
        witnessed=bool(global_report.status == bound_report.status == "optimal" and q < p - 2 * tol),
        p_global=p,
        q_bound=q,
        tolerance=tol,
        global_report=global_report,
        bound_report=bound_report,
    )
