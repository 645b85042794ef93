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
    matrix_groups_from_json,
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
    _as_index,
    _hermitian_parts,
    basis_state,
    kron_sum,
    min_eigenvalues,
    nan_max,
)

_SQ3 = math.sqrt(3.0)
#: example1's local vectors: |0>, |1>, nu+- (|0> rotated by +-120 degrees) and mu+- (orthogonal to nu-+)
_EXAMPLE1_VECTORS = {
    "zero": np.array([1.0, 0.0]),
    "one": np.array([0.0, 1.0]),
    "nu_p": np.array([0.5, _SQ3 / 2]),
    "nu_m": np.array([0.5, -_SQ3 / 2]),
    "mu_p": np.array([_SQ3 / 2, 0.5]),
    "mu_m": np.array([_SQ3 / 2, -0.5]),
}
#: largest total dimension build_example2 builds unless told otherwise (the CLI reads UDBOUND_DIM_CAP)
DIM_CAP = 1024
#: how an error names a factor of a decomposition term or a product form, the latter as term 0
_TERM_FACTOR = "term {group} factor {member}"


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


def _completeness_residual(povm) -> float:
    """|sum E - I|max of a nonempty family of square matrices of one side: a POVM's completeness residual."""
    return float(np.abs(sum(povm) - np.eye(len(povm[0]))).max())


def _frozen_factors(groups, name: str) -> tuple[tuple[np.ndarray, ...], ...]:
    """Checked, read-only Hermitian parts of nested factor lists (decomposition terms, site POVMs), one stack per shape.

    Every factor obeys the operator rule (see ``operators._hermitian_parts``);
    an error names the first bad factor by ``name.format(group=g, member=m)``.
    """
    groups = [tuple(group) for group in groups]
    flat = list(itertools.chain.from_iterable(groups))
    shapes: dict[tuple[int, ...], list[int]] = {}
    for k, f in enumerate(flat):
        shapes.setdefault(np.shape(f), []).append(k)
    try:
        for idx in shapes.values():
            stack = _hermitian_parts(np.array([flat[k] for k in idx], dtype=np.complex128))
            for k, f in zip(idx, stack):
                flat[k] = f
    except ValueError:  # checked one at a time, in order, the first bad factor raises, named
        for g, group in enumerate(groups):
            for m, f in enumerate(group):
                _hermitian_parts(np.array([f], dtype=np.complex128), lambda _: name.format(group=g, member=m) + ": ")
        raise
    ends = itertools.accumulate(map(len, groups))
    return tuple(tuple(flat[end - len(group) : end]) for group, end in zip(groups, ends))


@dataclass(frozen=True, eq=False)
class SeparableDecomposition:
    """Explicit sum-of-product-PSD-factors witness for one operator."""

    terms: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", _frozen_factors(self.terms, _TERM_FACTOR))

    def reconstruct(self, dims: DimVector) -> np.ndarray:
        return kron_sum(self.terms, dims.dims)

    def residual(self, op: HermitianOperator) -> float:
        """Max of the reconstruction error and any factor's PSD violation."""
        worst = float(np.abs(self.reconstruct(op.dims) - op.matrix).max())
        # worst >= 0 leads the list, so each -lo stands for the factor's PSD violation max(0, -lo)
        lows = min_eigenvalues([f for term in self.terms for f in term])
        return nan_max([worst, *(-lows).tolist()])


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
        site_povms = _frozen_factors(self.site_povms, "local POVM element {member} at site {group}")
        object.__setattr__(self, "site_povms", site_povms)
        assignment = {
            tuple(_as_index(i, "index of outcome", k) for i in k): _as_index(v, "element of outcome", k)
            for k, v in self.assignment.items()
        }
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "default_element", _as_index(self.default_element, "default_element"))

    def reconstruct_elements(self, dims: DimVector, count: int) -> list[np.ndarray]:
        """Coarse-grained measurement elements induced by the protocol, built from the frozen site POVMs."""
        return [kron_sum(terms, dims.dims) for terms in self._grouped_terms(count)]

    def derive_decompositions(self, dims: DimVector, count: int) -> list[SeparableDecomposition]:
        """Per-element separable decompositions read off the product outcomes."""
        return [SeparableDecomposition(terms) for terms in self._grouped_terms(count)]

    def _grouped_terms(self, count: int) -> list[tuple[tuple[np.ndarray, ...], ...]]:
        """Per element, the product terms (one site POVM element per site) of the outcomes assigned to it."""
        groups: list[list[tuple[np.ndarray, ...]]] = [[] for _ in range(count)]
        for outcome in itertools.product(*(range(len(p)) for p in self.site_povms)):
            target = self.assignment.get(outcome, self.default_element)
            if not 0 <= target < count:
                raise ValueError(f"outcome {outcome} assigned to element {target} out of range")
            groups[target].append(tuple(self.site_povms[k][idx] for k, idx in enumerate(outcome)))
        return [tuple(g) for g in groups]


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
        return _completeness_residual([el.matrix for el in self.elements])

    def psd_residual(self) -> float:
        """The largest PSD violation max(0, -smallest eigenvalue) of an element."""
        return max(0.0, -float(min_eigenvalues([el.matrix for el in self.elements]).min()))


def validate_ensemble(ensemble: Ensemble) -> tuple[str, ...]:
    """Every violated ensemble invariant, one message each; empty for a valid ensemble."""
    violations: list[str] = []
    total = sum(ensemble.priors)
    if abs(total - 1.0) > 1e-10:
        violations.append(f"priors sum {total:.12g}")
    lows = min_eigenvalues([rho.matrix for rho in ensemble.states]).tolist()
    for k, (prior, rho, lo) in enumerate(zip(ensemble.priors, ensemble.states, lows), start=1):
        if not math.isfinite(prior):
            violations.append(f"prior {k} is {prior!r}, not finite")
        elif prior <= 0:
            violations.append(f"prior {k} is {prior:.12g}, not positive")
        if not lo >= -PSD_TOL:
            violations.append(f"state {k} not PSD (min eigenvalue {lo:.3e})")
        tr = rho.trace
        if abs(tr - 1.0) > PSD_TOL:
            violations.append(f"state {k} trace {tr:.12g}")
    return tuple(violations)


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
    v = _EXAMPLE1_VECTORS
    states = tuple(
        HermitianOperator(_proj(np.kron(v[k], v[k])), dims) for k in ("zero", "nu_p", "nu_m")
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

    p_one, p_mu_p, p_mu_m = (_proj(v[k]) for k in ("one", "mu_p", "mu_m"))
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


def build_example2(d: int, dim_cap: int = DIM_CAP) -> tuple[Ensemble, ExampleFixtures]:
    """Family of d equal-prior mixed states on (d-1) qudits, d >= 3.

    State j's aligned vector is the basis string |j...j>; its shifted
    vector is the normalized sum of the d-1 strings that run cyclically
    from each k != j, skipping the symbol j.  Each state is the normalized
    projector complementary to the other states' aligned/shifted pairs; the
    global optimum is attained by the rank-two conclusive projectors and
    the local optimum by measuring the computational basis at every site.
    """
    if d < 3:
        raise ValueError("d must be >= 3")
    sites = d - 1
    total_dim = d**sites
    if total_dim > dim_cap:
        raise ValueError(f"total dimension {total_dim} exceeds cap {dim_cap}")
    dims = DimVector((d,) * sites)

    def vector(strings) -> np.ndarray:
        # real amplitudes, so the states below are divided in real arithmetic
        return sum(basis_state(dims, s).amplitudes.real for s in strings) / math.sqrt(len(strings))

    aligned = [vector([(j,) * sites]) for j in range(d)]
    shifted = [
        vector([tuple((k + l) % d for l in range(d) if (k + l) % d != j) for k in range(d) if k != j])
        for j in range(d)
    ]
    pair_projs = [_proj(a) + _proj(s) for a, s in zip(aligned, shifted)]
    aligned_projs = [_proj(a) for a in aligned]

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
    sep_certificate = HermitianOperator(sum(aligned_projs) / (d * norm), dims)

    local_basis = tuple(_proj(np.eye(d)[k]) for k in range(d))
    protocol = LoccProtocol(
        description="same local measurement {|i><i|} on all subsystems",
        site_povms=(local_basis,) * sites,
        assignment={(j,) * sites: j + 1 for j in range(d)},
        default_element=0,
    )
    # closed-form elements, so that verify cor3 checks the protocol against operators it did not build
    locc_elements = [eye - sum(aligned_projs)] + aligned_projs
    locc_measurement = Measurement(
        dims,
        tuple(HermitianOperator(m, dims) for m in locc_elements),
        decompositions=tuple(protocol.derive_decompositions(dims, d + 1)),
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
    violations = validate_ensemble(ensemble)
    if violations:
        raise SchemaError(f"{source}: invalid ensemble: {'; '.join(violations)}")
    return ensemble


def save_ensemble(ensemble: Ensemble, path: Union[str, Path]) -> None:
    write_json(path, ensemble_to_dict(ensemble))


def load_ensemble(path: Union[str, Path]) -> Ensemble:
    return read_json(path, lambda data: ensemble_from_dict(data, source=str(path)))


def _decomposition_to_json(dec: SeparableDecomposition) -> dict:
    return {"terms": [[matrix_to_json(f) for f in term] for term in dec.terms]}


def _decomposition_from_json(data: Any, field_name: str) -> SeparableDecomposition:
    if not isinstance(data, dict) or not isinstance(data.get("terms"), list):
        raise SchemaError(f"{field_name}: expected an object with a 'terms' list")
    terms = matrix_groups_from_json(data["terms"], f"{field_name}.terms")
    try:
        return SeparableDecomposition(terms)
    except ValueError as exc:
        raise SchemaError(f"{field_name}: {exc}") from exc


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
    povms = matrix_groups_from_json(raw_povms, f"{field_name}.site_povms")
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
    try:
        return LoccProtocol(desc, tuple(povms), assignment, default)
    except ValueError as exc:
        raise SchemaError(f"{field_name}: {exc}") from exc


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
    return read_json(path, lambda data: measurement_from_dict(data, source=str(path)))
