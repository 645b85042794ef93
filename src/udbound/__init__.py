"""Unambiguous discrimination of multipartite state ensembles.

Computes the optimal unambiguous-discrimination success probability of an
ensemble together with a dual certificate, an upper bound on what local
protocols can achieve via finitely generated separable no-error cones, and
independent verification of every optimality and tightness condition,
including a witness for nonlocality without entanglement.
"""

from .cones import (
    ConeGenerators,
    ProductRayCertificate,
    certify_unique_product_ray,
    conclusive_subspace,
    cones_from_dict,
    cones_to_dict,
    example_cone_generators,
    in_generated_dual,
    is_product_state,
    load_cones,
    save_cones,
)
from .ensembles import (
    Ensemble,
    ExampleFixtures,
    LoccProtocol,
    Measurement,
    SeparableDecomposition,
    ValidationReport,
    build_example1,
    build_example2,
    build_two_pure,
    load_ensemble,
    load_measurement,
    save_ensemble,
    save_measurement,
    validate_ensemble,
)
from .jsonio import SchemaError, load_certificate, save_certificate
from .operators import (
    DimVector,
    HermitianOperator,
    StateVector,
    basis_state,
    compress,
    hs_inner,
    identity,
    min_eigenvalue,
    partial_transpose,
    tensor,
)
from .programs import solve_global, solve_separable_bound
from .solver import Block, ConicProgram, Constraint, SolveReport, solve
from .verify import (
    NlweReport,
    PrecheckError,
    ProtocolError,
    VerificationReport,
    check_no_error,
    nlwe_witness,
    verify_locc_equality,
    verify_optimality,
    verify_separable_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "Block",
    "ConeGenerators",
    "ConicProgram",
    "Constraint",
    "DimVector",
    "Ensemble",
    "ExampleFixtures",
    "HermitianOperator",
    "LoccProtocol",
    "Measurement",
    "NlweReport",
    "PrecheckError",
    "ProductRayCertificate",
    "ProtocolError",
    "SchemaError",
    "SeparableDecomposition",
    "SolveReport",
    "StateVector",
    "ValidationReport",
    "VerificationReport",
    "basis_state",
    "build_example1",
    "build_example2",
    "build_two_pure",
    "certify_unique_product_ray",
    "check_no_error",
    "compress",
    "conclusive_subspace",
    "cones_from_dict",
    "cones_to_dict",
    "example_cone_generators",
    "hs_inner",
    "identity",
    "in_generated_dual",
    "is_product_state",
    "load_certificate",
    "load_cones",
    "load_ensemble",
    "load_measurement",
    "min_eigenvalue",
    "nlwe_witness",
    "partial_transpose",
    "save_certificate",
    "save_cones",
    "save_ensemble",
    "save_measurement",
    "solve",
    "solve_global",
    "solve_separable_bound",
    "tensor",
    "validate_ensemble",
    "verify_locc_equality",
    "verify_optimality",
    "verify_separable_certificate",
]
