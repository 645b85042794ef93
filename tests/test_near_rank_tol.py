"""The solver's value and the verifier's verdict agree near ``RANK_TOL``.

Each state is a pure state mixed with weight lambda, a small multiple of
``RANK_TOL``, of a second one, so the support of the states and of their
partial sums has eigenvalues on both sides of the threshold.  An optimal
``solve_global`` must then pass ``verify_optimality`` on its own outputs:
both read the one no-error split of ``cones.no_error_subspaces``.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from udbound import DimVector, Ensemble, HermitianOperator, solve_global, verify_optimality
from udbound.cones import RANK_TOL
from helpers import random_state_vector


def _nearly_pure(dims: tuple[int, ...], n: int, seed: int, lam: float) -> Ensemble:
    rng = np.random.default_rng(seed)
    weights = rng.exponential(size=n) + 0.05
    states = []
    for _ in range(n):
        psi, phi = (random_state_vector(rng, dims).projector().matrix for _ in range(2))
        states.append(HermitianOperator((1 - lam) * psi + lam * phi, DimVector(dims)))
    return Ensemble(DimVector(dims), tuple(float(w) for w in weights / weights.sum()), tuple(states))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    dims=st.sampled_from([(2, 2), (2, 2, 2), (3, 3)]),
    n=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    ratio=st.sampled_from([0.5, 0.9, 1.1, 1.5, 2.0, 3.0, 5.0]),
)
# a verifier that splits the full-space sum of the other states itself fails 7c here (0.052, 0.069)
@example(dims=(2, 2), n=2, seed=0, ratio=1.1)
@example(dims=(3, 3), n=3, seed=0, ratio=2.0)
def test_an_optimal_solve_passes_its_own_verification(dims, n, seed, ratio):
    ensemble = _nearly_pure(dims, n, seed, ratio * RANK_TOL)
    report = solve_global(ensemble, tol=1e-8)
    assert report.status == "optimal"
    check = verify_optimality(ensemble, report.measurement, report.dual_certificate, tol=1e-6)
    assert check.passed, check.residuals
