"""No-error cone machinery.

For state i of an ensemble, the conclusive cone is the set of PSD operators
that give zero probability on every other state; it equals the PSD cone
over the joint kernel of the other states.  The separable part of that cone
is handled through explicit finite generator lists, and an exact
certification, from vanishing cross marginals, that a given product ray is
the only one in a two-dimensional subspace.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .ensembles import _EXAMPLE1_VECTORS, _TERM_FACTOR, Ensemble, _frozen_factors
from .jsonio import (
    SchemaError,
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
    _by_arithmetic,
    basis_state,
    hs_inner,
    kron_sum,
    min_eigenvalues,
)

#: eigenvalue threshold separating support from kernel
RANK_TOL = 1e-9
#: largest second eigenvalue of a single-site marginal of a product state
_PRODUCT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ConeGenerators:
    """Finite list of PSD product operators generating a cone.

    ``product_form``, when given for a generator, lists its local PSD
    factors; the tensor product must reproduce the generator.
    """

    dims: DimVector
    generators: tuple[HermitianOperator, ...]
    product_form: tuple[Optional[tuple[np.ndarray, ...]], ...] = ()

    def __post_init__(self) -> None:
        forms = self.product_form or (None,) * len(self.generators)
        if len(forms) != len(self.generators):
            raise ValueError("one product form slot per generator is required")
        frozen_forms = []
        lows = min_eigenvalues([gen.matrix for gen in self.generators]).tolist()
        for k, (gen, form, lo) in enumerate(zip(self.generators, forms, lows)):
            if gen.dims != self.dims:
                raise ValueError(f"generator {k} has dims {gen.dims.dims}, expected {self.dims.dims}")
            scale = max(1.0, float(np.abs(gen.matrix).max()))
            if not lo >= -PSD_TOL * scale:
                raise ValueError(f"generator {k} not PSD (min eigenvalue {lo:.3e})")
            if not np.linalg.norm(gen.matrix) > 0.0:
                raise ValueError(f"generator {k} is zero")
            if form is None:
                frozen_forms.append(None)
                continue
            try:
                (factors,) = _frozen_factors((form,), _TERM_FACTOR)
                prod = kron_sum((factors,), self.dims.dims)
            except ValueError as exc:
                raise ValueError(f"generator {k} product form: {exc}") from exc
            for f, lo in zip(factors, min_eigenvalues(factors)):
                if not lo >= -PSD_TOL * max(1.0, float(np.abs(f).max())):
                    raise ValueError(f"generator {k} has a non-PSD local factor")
            if np.abs(prod - gen.matrix).max() > 1e-10 * scale:
                raise ValueError(f"generator {k} product form does not reconstruct it")
            frozen_forms.append(factors)
        object.__setattr__(self, "product_form", tuple(frozen_forms))

    def __len__(self) -> int:
        return len(self.generators)


def split_support(psd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (columns) of the range and kernel of a PSD matrix, split at ``RANK_TOL``; real for real data.

    The Hermitian part is decomposed per connected component of its exact
    nonzero pattern, so each column is supported inside one component and
    the bases keep the matrix's zeros; a matrix with no zero entry, or one
    component, takes one ``eigh``.
    """
    herm = (psd + psd.conj().T) / 2
    nonzero = herm != 0
    labels = None if nonzero.all() else _components(nonzero)
    if labels is None or not labels.any():
        ((_, (herm,)),) = _by_arithmetic(herm[None])
        vals, vecs = np.linalg.eigh(herm)
    else:
        vals, vecs = _eigh_by_component(herm, labels)
    keep = vals > RANK_TOL
    return vecs[:, keep], vecs[:, ~keep]


def _components(nonzero: np.ndarray) -> np.ndarray:
    """Per index of a symmetric (n, n) pattern, the smallest index of its connected component.

    Min-label propagation over the pattern's entries, with pointer jumping;
    the pattern's diagonal is set in place.
    """
    np.fill_diagonal(nonzero, True)  # every row then has an entry, so reduceat sees each
    rows, cols = np.nonzero(nonzero)
    starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    labels = np.arange(len(nonzero))
    while True:
        lower = np.minimum.reduceat(labels[cols], starts)
        lower = lower[lower]
        if np.array_equal(lower, labels):
            return labels
        labels = lower


def _eigh_by_component(herm: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and full-space eigenvectors of a Hermitian matrix from one batched ``eigh`` per component side.

    Components come in the order of their smallest index, each with its
    eigenpairs in ascending order; a component with no imaginary entry is
    decomposed in real arithmetic.
    """
    order = np.argsort(labels, kind="stable")
    _, starts, sizes = np.unique(labels[order], return_index=True, return_counts=True)
    side = len(herm)
    vals = np.empty(side)
    vecs = np.zeros((side, side), dtype=complex if herm.imag.any() else float)
    for size in np.unique(sizes):
        first = starts[sizes == size]
        members = order[first[:, None] + np.arange(size)]
        for rows, stack in _by_arithmetic(herm[members[:, :, None], members[:, None, :]]):
            cols = first[rows][:, None] + np.arange(size)
            vals[cols], vecs[members[rows][:, :, None], cols[:, None, :]] = np.linalg.eigh(stack)
    return vals, vecs


def no_error_subspaces(ensemble: Ensemble):
    """The one no-error split: (S, S⊥, the states on S, each K_i ∩ S in S coordinates).

    S = range(sum_j rho_j) is split off at ``RANK_TOL``, as the standard basis
    when it is everything.  Every state vanishes on S⊥, so the no-error
    subspace K_i = ∩_{j≠i} ker rho_j is S⊥ ⊕ (K_i ∩ S).
    """
    states = [rho.matrix for rho in ensemble.states]
    support, complement = split_support(sum(states))
    if not complement.shape[1]:  # keep the sparser standard basis
        support = np.eye(ensemble.dims.total)
    else:
        states = [support.conj().T @ rho @ support for rho in states]
    kernels = [
        split_support(sum((s for j, s in enumerate(states) if j != i), np.zeros_like(states[i])))[1]
        for i in range(ensemble.n)
    ]
    return support, complement, states, kernels


def _conclusive_bases(ensemble: Ensemble) -> list[np.ndarray]:
    """Each K_i = S⊥ ⊕ (K_i ∩ S) in the full space, from one :func:`no_error_subspaces` split."""
    support, complement, _, kernels = no_error_subspaces(ensemble)
    if not complement.shape[1]:
        return [np.ascontiguousarray(kernel) for kernel in kernels]
    return [np.hstack([complement, support @ kernel]) for kernel in kernels]


def conclusive_subspace(ensemble: Ensemble, i: int) -> np.ndarray:
    """Orthonormal basis (columns) of K_i, the joint kernel of the other states.

    PSD operators supported here are exactly those with zero probability on
    every state except state ``i``; an empty basis means only the zero
    operator qualifies.
    """
    if not 0 <= i < ensemble.n:
        raise ValueError(f"state index {i} out of range")
    return _conclusive_bases(ensemble)[i]


def check_no_error_cone(ensemble: Ensemble, i: int, cone: ConeGenerators, tol: float) -> None:
    """Raise ``ValueError`` unless cone ``i`` lies in the no-error cone of state ``i``.

    A generator g fails if |Tr(g rho_j)| > tol·||g||_F for some state j != i.
    """
    if cone.dims != ensemble.dims:
        raise ValueError(f"cone {i} dims {cone.dims.dims} do not match ensemble {ensemble.dims.dims}")
    others = [(j, rho) for j, rho in enumerate(ensemble.states) if j != i]
    for k, gen in enumerate(cone.generators):
        bound = tol * float(np.linalg.norm(gen.matrix))
        for j, rho in others:
            pairing = abs(hs_inner(gen.matrix, rho.matrix))
            if not pairing <= bound:
                raise ValueError(
                    f"cone {i} generator {k} is not orthogonal to state {j} (|Tr(g rho)| = {pairing:.3e})"
                )


def example_cone_generators(ensemble: Ensemble, which: str, i: int) -> ConeGenerators:
    """Exact separable no-error cone generators for the builder families.

    For the two-qubit triple these are the two product rays orthogonal to
    the other two states; for the qudit family the single aligned product
    ray.  Each generator is checked to be a product operator with zero
    probability on every other state; a tampered or mismatched ensemble is
    rejected.
    """
    if which not in ("example1", "example2"):
        raise ValueError(f"unknown example selector {which!r}")
    label = ensemble.label or ""
    if which == "example1" and label != "example1":
        raise ValueError(f"ensemble label {label!r} does not match example1")
    if which == "example2" and not label.startswith("example2"):
        raise ValueError(f"ensemble label {label!r} does not match example2")
    if not 0 <= i < ensemble.n:
        raise ValueError(f"state index {i} out of range")

    dims = ensemble.dims
    if which == "example1":
        p = {k: np.outer(v, v) for k, v in _EXAMPLE1_VECTORS.items()}
        pairs = {
            0: (("mu_p", "mu_m"), ("mu_m", "mu_p")),
            1: (("mu_p", "one"), ("one", "mu_p")),
            2: (("mu_m", "one"), ("one", "mu_m")),
        }[i]
        forms = tuple(tuple(p[name] for name in pair) for pair in pairs)
    else:
        e = basis_state(dims.dims[:1], (i,)).amplitudes.real
        forms = ((np.outer(e, e),) * dims.sites,)

    generators = tuple(HermitianOperator(kron_sum((form,), dims.dims), dims) for form in forms)
    cone = ConeGenerators(dims, generators, forms)
    try:
        check_no_error_cone(ensemble, i, cone, 1e-10)
    except ValueError as exc:
        raise ValueError(f"{exc}; ensemble does not match {which}") from exc
    return cone


def _canonical_cuts(sites: int) -> list[tuple[int, ...]]:
    """Bipartitions up to complement (the transposed side is equivalent)."""
    cuts = set()
    for r in range(1, sites):
        for combo in itertools.combinations(range(sites), r):
            comp = tuple(k for k in range(sites) if k not in combo)
            cuts.add(min(combo, comp))
    return sorted(cuts)


def _site_marginal(left: StateVector, right: StateVector, site: int) -> np.ndarray:
    """Single-site marginal of |left><right| at ``site``: the other sites traced out."""
    dims = left.dims.dims
    lhs, rhs = (np.moveaxis(v.amplitudes.reshape(dims), site, 0).reshape(dims[site], -1) for v in (left, right))
    return lhs @ rhs.conj().T


def is_product_state(state: StateVector) -> bool:
    """True iff every single-site marginal is rank one within ``_PRODUCT_TOL``."""
    for site, d in enumerate(state.dims.dims):
        if d == 1:
            continue
        spectrum = np.linalg.eigvalsh(_site_marginal(state, state, site))
        if spectrum[-2] > _PRODUCT_TOL:
            return False
    return True


@dataclass(frozen=True)
class ProductRayCertificate:
    """Outcome of the unique-product-ray certification.

    ``verdict`` is "unique", "not unique", or "inconclusive";
    ``cross_trace_residual`` is the largest entry of any single-site
    marginal of the cross term |v1><v2|.
    """

    verdict: str
    cross_trace_residual: float


def certify_unique_product_ray(v1: StateVector, v2: StateVector) -> ProductRayCertificate:
    """Certify that v1 spans the only product ray in span{v1, v2}.

    Requires v1 to be a product state orthogonal to v2.  A product v2 is a
    second product ray ("not unique").  If every single-site marginal of
    |v1><v2| vanishes, the site-k marginal of c1 v1 + c2 v2 is
    |c1|^2 P_k + |c2|^2 rho_k(v2), with P_k the projector onto v1's factor;
    it has rank >= 2 wherever rho_k(v2) does, so for a non-product v2 no
    superposition with c2 != 0 is a product ("unique").  A nonvanishing
    cross marginal decides nothing ("inconclusive").
    """
    if v1.dims != v2.dims:
        raise ValueError("state dimensions differ")
    if not is_product_state(v1):
        raise ValueError("first vector is not a product state")
    if not abs(v1.overlap(v2)) <= 1e-10:
        raise ValueError("vectors must be orthogonal")

    residual = max(float(np.abs(_site_marginal(v1, v2, site)).max()) for site in range(v1.dims.sites))
    if is_product_state(v2):
        verdict = "not unique"
    elif residual <= _PRODUCT_TOL:
        verdict = "unique"
    else:
        verdict = "inconclusive"
    return ProductRayCertificate(verdict, residual)


# ---------------------------------------------------------------------------
# JSON persistence for generator lists


def cones_to_dict(cones: Sequence[ConeGenerators]) -> dict:
    if not cones:
        raise ValueError("no cones to serialize")
    payload = {"dims": list(cones[0].dims.dims), "cones": []}
    for cone in cones:
        entries = []
        for gen, form in zip(cone.generators, cone.product_form):
            entry = {"matrix": matrix_to_json(gen.matrix)}
            if form is not None:
                entry["factors"] = [matrix_to_json(f) for f in form]
            entries.append(entry)
        payload["cones"].append(entries)
    return payload


def cones_from_dict(data, source: str = "cones") -> list[ConeGenerators]:
    if not isinstance(data, dict):
        raise SchemaError(f"{source}: expected an object")
    dims = dims_from_json(data.get("dims"), f"{source}.dims")
    raw = data.get("cones")
    if not isinstance(raw, list) or not raw:
        raise SchemaError(f"{source}.cones: expected a non-empty list")
    out = []
    for i, entries in enumerate(raw):
        if not isinstance(entries, list):
            raise SchemaError(f"{source}.cones[{i}]: expected a list of generators")
        gens = []
        forms = []
        for k, entry in enumerate(entries):
            field = f"{source}.cones[{i}][{k}]"
            if not isinstance(entry, dict):
                raise SchemaError(f"{field}: expected an object")
            gens.append(operator_from_json(entry.get("matrix"), dims, f"{field}.matrix"))
            factors = entry.get("factors")
            forms.append(None if factors is None else matrices_from_json(factors, f"{field}.factors"))
        try:
            out.append(ConeGenerators(dims, tuple(gens), tuple(forms)))
        except ValueError as exc:
            raise SchemaError(f"{source}.cones[{i}]: {exc}") from exc
    return out


def save_cones(cones: Sequence[ConeGenerators], path) -> None:
    write_json(path, cones_to_dict(cones))


def load_cones(path) -> list[ConeGenerators]:
    return read_json(path, lambda data: cones_from_dict(data, source=str(path)))
