"""Ensemble and measurement model, exact example fixtures, JSON persistence.

An ensemble is a list of priors and density operators on a common
multipartite space.  A measurement is an indexed family of PSD elements
whose index 0 is the inconclusive outcome; elements may carry explicit
separable decompositions, and a whole measurement may carry a one-round
local-protocol descriptor (the same structure used to certify that it is
implementable by local measurements plus classical communication).
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Union

import numpy as np

from .jsonio import (
    SchemaError,
    _is_int,
    dims_from_json,
    matrices_from_json,
    matrix_to_json,
    operator_from_json,
    read_json,
    write_json,
)
from .operators import (
    PSD_TOL,
    DimVector,
    HermitianOperator,
    StateVector,
    kron_sum,
    min_eigenvalue,
    nan_max,
    psd_violation,
)

_SQ3 = math.sqrt(3.0)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Preparation priors and states on a common multipartite space."""

    dims: DimVector
    priors: tuple[float, ...]
    states: tuple[HermitianOperator, ...]
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if len(self.priors) != len(self.states) or not self.states:
            raise ValueError("priors and states must be non-empty and aligned")
        for k, rho in enumerate(self.states):
            if rho.dims != self.dims:
                raise ValueError(f"state {k} has dims {rho.dims.dims}, expected {self.dims.dims}")
        object.__setattr__(self, "priors", tuple(float(p) for p in self.priors))

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def items(self) -> tuple[tuple[float, HermitianOperator], ...]:
        return tuple(zip(self.priors, self.states))


def _frozen_factors(groups) -> tuple[tuple[np.ndarray, ...], ...]:
    """Read-only complex copies of nested factor lists (decomposition terms, site POVMs)."""
    frozen = tuple(tuple(np.array(f, dtype=np.complex128) for f in group) for group in groups)
    for group in frozen:
        for f in group:
            f.setflags(write=False)
    return frozen


@dataclass(frozen=True, eq=False)
class SeparableDecomposition:
    """Explicit sum-of-product-PSD-factors witness for one operator."""

    terms: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", _frozen_factors(self.terms))

    def reconstruct(self, dims: DimVector) -> np.ndarray:
        return kron_sum(self.terms, dims.dims)

    def residual(self, op: HermitianOperator) -> float:
        """Max of the reconstruction error and any factor's PSD violation."""
        worst = float(np.abs(self.reconstruct(op.dims) - op.matrix).max())
        return nan_max([worst, *(psd_violation(f) for term in self.terms for f in term)])


@dataclass(frozen=True, eq=False)
class LoccProtocol:
    """One-round product protocol: independent local POVMs plus an outcome map.

    ``site_povms[k]`` lists the POVM applied at site k; an outcome tuple
    (one local index per site) is mapped through ``assignment`` to a
    measurement element, defaulting to the inconclusive element.
    """

    description: str
    site_povms: tuple[tuple[np.ndarray, ...], ...]
    assignment: dict[tuple[int, ...], int] = field(default_factory=dict)
    default_element: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "site_povms", _frozen_factors(self.site_povms))
        object.__setattr__(
            self, "assignment", {tuple(int(i) for i in k): int(v) for k, v in self.assignment.items()}
        )

    def local_completeness_residuals(self) -> list[float]:
        out = []
        for povm in self.site_povms:
            side = povm[0].shape[0]
            total = sum(povm)
            out.append(float(np.abs(total - np.eye(side)).max()))
        return out

    def reconstruct_elements(self, dims: DimVector, count: int) -> list[np.ndarray]:
        """Coarse-grained measurement elements induced by the protocol."""
        return [dec.reconstruct(dims) for dec in self.derive_decompositions(dims, count)]

    def derive_decompositions(self, dims: DimVector, count: int) -> list[SeparableDecomposition]:
        """Per-element separable decompositions read off the product outcomes."""
        groups: list[list[tuple[np.ndarray, ...]]] = [[] for _ in range(count)]
        for outcome in itertools.product(*(range(len(p)) for p in self.site_povms)):
            target = self.assignment.get(outcome, self.default_element)
            if not 0 <= target < count:
                raise ValueError(f"outcome {outcome} assigned to element {target} out of range")
            groups[target].append(tuple(self.site_povms[k][idx] for k, idx in enumerate(outcome)))
        return [SeparableDecomposition(tuple(g)) for g in groups]


@dataclass(frozen=True, eq=False)
class Measurement:
    """POVM with element 0 the inconclusive outcome, plus optional annotations."""

    dims: DimVector
    elements: tuple[HermitianOperator, ...]
    decompositions: tuple[Optional[SeparableDecomposition], ...] = ()
    locc_protocol: Optional[LoccProtocol] = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.elements:
            raise ValueError("a measurement needs at least one element")
        for k, el in enumerate(self.elements):
            if el.dims != self.dims:
                raise ValueError(f"element {k} has dims {el.dims.dims}, expected {self.dims.dims}")
        decs = self.decompositions or (None,) * len(self.elements)
        if len(decs) != len(self.elements):
            raise ValueError("one decomposition slot per element is required")
        object.__setattr__(self, "decompositions", tuple(decs))

    def completeness_residual(self) -> float:
        total = sum(el.matrix for el in self.elements)
        return float(np.abs(total - np.eye(self.dims.total)).max())

    def psd_residual(self) -> float:
        return nan_max(psd_violation(el) for el in self.elements)


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "; ".join(self.violations)


def validate_ensemble(ensemble: Ensemble) -> ValidationReport:
    """Report every violated ensemble invariant."""
    violations: list[str] = []
    total = sum(ensemble.priors)
    if abs(total - 1.0) > 1e-10:
        violations.append(f"priors sum {total:.12g}")
    for k, (prior, rho) in enumerate(ensemble.items, start=1):
        if not math.isfinite(prior):
            violations.append(f"prior {k} is {prior!r}, not finite")
        elif prior <= 0:
            violations.append(f"prior {k} is {prior:.12g}, not positive")
        lo = min_eigenvalue(rho)
        if not lo >= -PSD_TOL:
            violations.append(f"state {k} not PSD (min eigenvalue {lo:.3e})")
        tr = rho.trace
        if abs(tr - 1.0) > PSD_TOL:
            violations.append(f"state {k} trace {tr:.12g}")
    return ValidationReport(tuple(violations))


# ---------------------------------------------------------------------------
# exact fixture families


@dataclass(frozen=True, eq=False)
class ExampleFixtures:
    """Closed-form companions of a builder ensemble.

    ``global_measurement``/``global_certificate`` attain and certify the
    unrestricted optimum; ``sep_certificate``/``locc_measurement`` attain and
    certify the separable bound (the latter with explicit decompositions and
    a local protocol descriptor).  The product-basis families used by the
    second family are exposed for structural tests.
    """

    global_measurement: Measurement
    global_certificate: HermitianOperator
    sep_certificate: HermitianOperator
    locc_measurement: Measurement
    aligned_states: tuple[StateVector, ...] = ()
    shifted_states: tuple[StateVector, ...] = ()


def _proj(vec: np.ndarray) -> np.ndarray:
    return np.outer(vec, vec.conj())


def build_example1() -> tuple[Ensemble, ExampleFixtures]:
    """Two-qubit triple of symmetric product states with equal priors.

    The three states are |00>, |v+ v+>, |v- v->, with v+- the +-120-degree
    rotations of |0>.  Fixtures: the optimal global measurement and its
    certificate (value 3/4), and the optimal one-round local measurement
    with its certificate (value 1/2).
    """
    dims = DimVector((2, 2))
    zero = np.array([1.0, 0.0])
    one = np.array([0.0, 1.0])
    nu_p = np.array([0.5, _SQ3 / 2])
    nu_m = np.array([0.5, -_SQ3 / 2])
    mu_p = np.array([_SQ3 / 2, 0.5])
    mu_m = np.array([_SQ3 / 2, -0.5])

    states = tuple(
        HermitianOperator(_proj(np.kron(v, v)), dims) for v in (zero, nu_p, nu_m)
    )
    ensemble = Ensemble(dims, (1 / 3, 1 / 3, 1 / 3), states, label="example1")

    phi = [
        np.array([3.0, 0.0, 0.0, -1.0]) / math.sqrt(10.0),
        np.array([0.0, _SQ3, _SQ3, 2.0]) / math.sqrt(10.0),
        np.array([0.0, _SQ3, _SQ3, -2.0]) / math.sqrt(10.0),
    ]
    bell_phi_p = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    bell_phi_m = np.array([1.0, 0.0, 0.0, -1.0]) / math.sqrt(2.0)
    bell_psi_p = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
    bell_psi_m = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)

    m0 = 0.5 * _proj(bell_phi_p) + _proj(bell_psi_m)
    global_elements = (m0,) + tuple((5.0 / 6.0) * _proj(p) for p in phi)
    global_measurement = Measurement(
        dims,
        tuple(HermitianOperator(m, dims) for m in global_elements),
        label="example1-global",
    )
    global_certificate = HermitianOperator(
        (3.0 / 8.0) * (_proj(bell_phi_m) + _proj(bell_psi_p)), dims
    )
    sep_certificate = HermitianOperator(0.5 * _proj(bell_psi_m), dims)

    p_one, p_mu_p, p_mu_m = _proj(one), _proj(mu_p), _proj(mu_m)
    c = 4.0 / 9.0
    locc_terms = [
        [(c * p_one, p_one), (c * p_mu_p, p_mu_p), (c * p_mu_m, p_mu_m)],
        [(c * p_mu_p, p_mu_m), (c * p_mu_m, p_mu_p)],
        [(c * p_mu_p, p_one), (c * p_one, p_mu_p)],
        [(c * p_mu_m, p_one), (c * p_one, p_mu_m)],
    ]
    locc_elements = []
    decompositions = []
    for terms in locc_terms:
        total = sum(np.kron(a, b) for a, b in terms)
        locc_elements.append(HermitianOperator(total, dims))
        decompositions.append(SeparableDecomposition(tuple(terms)))
    local = (2.0 / 3.0 * p_one, 2.0 / 3.0 * p_mu_p, 2.0 / 3.0 * p_mu_m)
    protocol = LoccProtocol(
        description=(
            "same local measurement {(2/3)|1><1|, (2/3)|mu+><mu+|, (2/3)|mu-><mu-|} "
            "on two subsystems"
        ),
        site_povms=(local, local),
        assignment={
            (1, 2): 1,
            (2, 1): 1,
            (1, 0): 2,
            (0, 1): 2,
            (2, 0): 3,
            (0, 2): 3,
        },
        default_element=0,
    )
    locc_measurement = Measurement(
        dims,
        tuple(locc_elements),
        decompositions=tuple(decompositions),
        locc_protocol=protocol,
        label="example1-locc",
    )
    fixtures = ExampleFixtures(
        global_measurement=global_measurement,
        global_certificate=global_certificate,
        sep_certificate=sep_certificate,
        locc_measurement=locc_measurement,
    )
    return ensemble, fixtures


def _aligned_vector(d: int, j: int) -> np.ndarray:
    sites = d - 1
    e = np.zeros(d)
    e[j - 1] = 1.0
    vec = np.ones(1)
    for _ in range(sites):
        vec = np.kron(vec, e)
    return vec


def _shifted_vector(d: int, j: int) -> np.ndarray:
    """Uniform superposition of the cyclic-shift product strings avoiding j-1.

    For each starting symbol k != j-1 the term is the product over sites
    l = 0, 1, ... (in increasing order, skipping the single l whose shifted
    symbol would hit j-1) of the basis vector |k+l mod d>.
    """
    sites = d - 1
    total = np.zeros(d**sites)
    for k in range(d):
        if k == j - 1:
            continue
        vec = np.ones(1)
        for l in range(d):
            sym = (k + l) % d
            if sym == j - 1:
                continue
            e = np.zeros(d)
            e[sym] = 1.0
            vec = np.kron(vec, e)
        total += vec
    return total / math.sqrt(d - 1)


def build_example2(d: int, dim_cap: int = 1024) -> tuple[Ensemble, ExampleFixtures]:
    """Family of d equal-prior mixed states on (d-1) qudits, d >= 3.

    Each state is the normalized projector complementary to the other
    states' aligned/shifted pairs; the global optimum is attained by the
    rank-two conclusive projectors and the local optimum by measuring the
    computational basis at every site.
    """
    if d < 3:
        raise ValueError("d must be >= 3")
    sites = d - 1
    total_dim = d**sites
    if total_dim > dim_cap:
        raise ValueError(f"total dimension {total_dim} exceeds cap {dim_cap}")
    dims = DimVector((d,) * sites)

    aligned = [_aligned_vector(d, j) for j in range(1, d + 1)]
    shifted = [_shifted_vector(d, j) for j in range(1, d + 1)]
    pair_projs = [_proj(a) + _proj(s) for a, s in zip(aligned, shifted)]

    norm = total_dim - 2 * (d - 1)
    eye = np.eye(total_dim)
    states = []
    for i in range(d):
        removed = sum(pair_projs[j] for j in range(d) if j != i)
        states.append(HermitianOperator((eye - removed) / norm, dims))
    ensemble = Ensemble(dims, (1.0 / d,) * d, tuple(states), label=f"example2:d={d}")

    m0_global = eye - sum(pair_projs)
    global_measurement = Measurement(
        dims,
        (HermitianOperator(m0_global, dims),)
        + tuple(HermitianOperator(p, dims) for p in pair_projs),
        label=f"example2-global:d={d}",
    )
    global_certificate = HermitianOperator(sum(pair_projs) / (d * norm), dims)
    sep_certificate = HermitianOperator(sum(_proj(a) for a in aligned) / (d * norm), dims)

    local_basis = tuple(_proj(np.eye(d)[k]) for k in range(d))
    m0_locc = eye - sum(_proj(a) for a in aligned)
    m0_terms = []
    for tup in itertools.product(range(d), repeat=sites):
        if len(set(tup)) == 1:
            continue
        m0_terms.append(tuple(local_basis[k] for k in tup))
    locc_elements = [HermitianOperator(m0_locc, dims)]
    decompositions = [SeparableDecomposition(tuple(m0_terms))]
    for j in range(d):
        locc_elements.append(HermitianOperator(_proj(aligned[j]), dims))
        decompositions.append(
            SeparableDecomposition(((tuple(local_basis[j] for _ in range(sites))),))
        )
    protocol = LoccProtocol(
        description="same local measurement {|i><i|} on all subsystems",
        site_povms=(local_basis,) * sites,
        assignment={(j,) * sites: j + 1 for j in range(d)},
        default_element=0,
    )
    locc_measurement = Measurement(
        dims,
        tuple(locc_elements),
        decompositions=tuple(decompositions),
        locc_protocol=protocol,
        label=f"example2-locc:d={d}",
    )
    fixtures = ExampleFixtures(
        global_measurement=global_measurement,
        global_certificate=global_certificate,
        sep_certificate=sep_certificate,
        locc_measurement=locc_measurement,
        aligned_states=tuple(StateVector(a, dims) for a in aligned),
        shifted_states=tuple(StateVector(s, dims) for s in shifted),
    )
    return ensemble, fixtures


def build_two_pure(psi1: StateVector, psi2: StateVector, prior: float) -> Ensemble:
    """Two-pure-state ensemble {(prior, psi1), (1 - prior, psi2)}."""
    if not 0.0 < prior < 1.0:
        raise ValueError(f"prior {prior!r} out of range (0, 1)")
    if psi1.dims != psi2.dims:
        raise ValueError("state dimensions differ")
    return Ensemble(
        psi1.dims,
        (prior, 1.0 - prior),
        (psi1.projector(), psi2.projector()),
        label="two-pure",
    )


# ---------------------------------------------------------------------------
# JSON persistence


def ensemble_to_dict(ensemble: Ensemble) -> dict:
    payload = {
        "dims": list(ensemble.dims.dims),
        "states": [
            {"prior": prior, "matrix": matrix_to_json(rho.matrix)}
            for prior, rho in ensemble.items
        ],
    }
    if ensemble.label:
        payload["label"] = ensemble.label
    return payload


def ensemble_from_dict(data: Any, source: str = "ensemble") -> Ensemble:
    if not isinstance(data, dict):
        raise SchemaError(f"{source}: expected an object")
    dims = dims_from_json(data.get("dims"), f"{source}.dims")
    raw_states = data.get("states")
    if not isinstance(raw_states, list) or not raw_states:
        raise SchemaError(f"{source}.states: expected a non-empty list")
    priors = []
    states = []
    for k, entry in enumerate(raw_states):
        if not isinstance(entry, dict):
            raise SchemaError(f"{source}.states[{k}]: expected an object")
        prior = entry.get("prior")
        if isinstance(prior, bool) or not isinstance(prior, (int, float)) or not abs(prior) <= sys.float_info.max:
            raise SchemaError(f"{source}.states[{k}].prior: expected a finite number")
        priors.append(float(prior))
        states.append(operator_from_json(entry.get("matrix"), dims, f"{source}.states[{k}].matrix"))
    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise SchemaError(f"{source}.label: expected a string")
    ensemble = Ensemble(dims, tuple(priors), tuple(states), label=label)
    report = validate_ensemble(ensemble)
    if not report.ok:
        raise SchemaError(f"{source}: invalid ensemble: {report}")
    return ensemble


def save_ensemble(ensemble: Ensemble, path: Union[str, Path]) -> None:
    write_json(path, ensemble_to_dict(ensemble))


def load_ensemble(path: Union[str, Path]) -> Ensemble:
    return ensemble_from_dict(read_json(path), source=str(path))


def _decomposition_to_json(dec: SeparableDecomposition) -> dict:
    return {"terms": [[matrix_to_json(f) for f in term] for term in dec.terms]}


def _decomposition_from_json(data: Any, field_name: str) -> SeparableDecomposition:
    if not isinstance(data, dict) or not isinstance(data.get("terms"), list):
        raise SchemaError(f"{field_name}: expected an object with a 'terms' list")
    return SeparableDecomposition(
        tuple(matrices_from_json(term, f"{field_name}.terms[{t}]") for t, term in enumerate(data["terms"]))
    )


def _protocol_to_json(protocol: LoccProtocol) -> dict:
    return {
        "description": protocol.description,
        "site_povms": [[matrix_to_json(el) for el in povm] for povm in protocol.site_povms],
        "assignment": [[list(k), v] for k, v in sorted(protocol.assignment.items())],
        "default_element": protocol.default_element,
    }


def _protocol_from_json(data: Any, field_name: str) -> LoccProtocol:
    if not isinstance(data, dict):
        raise SchemaError(f"{field_name}: expected an object")
    desc = data.get("description", "")
    if not isinstance(desc, str):
        raise SchemaError(f"{field_name}.description: expected a string")
    raw_povms = data.get("site_povms")
    if not isinstance(raw_povms, list) or not raw_povms:
        raise SchemaError(f"{field_name}.site_povms: expected a non-empty list")
    povms = [matrices_from_json(povm, f"{field_name}.site_povms[{k}]") for k, povm in enumerate(raw_povms)]
    raw_assignment = data.get("assignment", [])
    if not isinstance(raw_assignment, list):
        raise SchemaError(f"{field_name}.assignment: expected a list of [outcome, element] pairs")
    assignment = {}
    for a, pair in enumerate(raw_assignment):
        where = f"{field_name}.assignment[{a}]"
        if not isinstance(pair, list) or len(pair) != 2 or not isinstance(pair[0], list):
            raise SchemaError(f"{where}: expected an [outcome, element] pair")
        outcome, element = pair
        if len(outcome) != len(povms) or not all(
            _is_int(i) and 0 <= i < len(povm) for i, povm in zip(outcome, povms)
        ):
            raise SchemaError(f"{where}[0]: expected one local outcome index per site, within its POVM")
        if tuple(outcome) in assignment:
            raise SchemaError(f"{where}[0]: outcome {outcome} is assigned twice")
        if not _is_int(element):
            raise SchemaError(f"{where}[1]: expected an integer element index")
        assignment[tuple(outcome)] = element
    default = data.get("default_element", 0)
    if not _is_int(default):
        raise SchemaError(f"{field_name}.default_element: expected an integer")
    return LoccProtocol(desc, tuple(povms), assignment, default)


def measurement_to_dict(measurement: Measurement) -> dict:
    elements = []
    for el, dec in zip(measurement.elements, measurement.decompositions):
        entry: dict[str, Any] = {"matrix": matrix_to_json(el.matrix)}
        if dec is not None:
            entry["decomposition"] = _decomposition_to_json(dec)
        elements.append(entry)
    payload: dict[str, Any] = {"dims": list(measurement.dims.dims), "elements": elements}
    if measurement.locc_protocol is not None:
        payload["locc_protocol"] = _protocol_to_json(measurement.locc_protocol)
    if measurement.label:
        payload["label"] = measurement.label
    return payload


def measurement_from_dict(data: Any, source: str = "measurement") -> Measurement:
    if not isinstance(data, dict):
        raise SchemaError(f"{source}: expected an object")
    dims = dims_from_json(data.get("dims"), f"{source}.dims")
    raw = data.get("elements")
    if not isinstance(raw, list) or not raw:
        raise SchemaError(f"{source}.elements: expected a non-empty list")
    elements = []
    decompositions = []
    for k, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise SchemaError(f"{source}.elements[{k}]: expected an object")
        elements.append(operator_from_json(entry.get("matrix"), dims, f"{source}.elements[{k}].matrix"))
        dec = entry.get("decomposition")
        decompositions.append(
            None if dec is None else _decomposition_from_json(dec, f"{source}.elements[{k}].decomposition")
        )
    protocol = data.get("locc_protocol")
    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise SchemaError(f"{source}.label: expected a string")
    return Measurement(
        dims,
        tuple(elements),
        decompositions=tuple(decompositions),
        locc_protocol=None if protocol is None else _protocol_from_json(protocol, f"{source}.locc_protocol"),
        label=label,
    )


def save_measurement(measurement: Measurement, path: Union[str, Path]) -> None:
    write_json(path, measurement_to_dict(measurement))


def load_measurement(path: Union[str, Path]) -> Measurement:
    return measurement_from_dict(read_json(path), source=str(path))
