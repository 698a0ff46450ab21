"""Property test: generic dense systems give their full root count.

A generic dense system with sizes n and degree bounds tau has
prod(n) * d! * prod(tau) isolated roots, which is also the side of the
resultant pencil.  Any shortfall is reported against the independent
multistart Newton oracle, which names the roots the solver missed.
"""

import math

import numpy as np
import pytest

import systems
from multipolyeig.mpoly import Basis
from multipolyeig.oracle import newton_oracle
from multipolyeig.solver import solve

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# largest root count drawn: keeps every pencil small enough for a fast suite
MAX_ROOTS = 144

# One of its 144 roots has |x_3| = 27, where |P_1(x)| is 2e5 times the
# coefficient scale of P_1: unrefined, that root misses residual_tol by a
# quarter; one Newton step on the original system brings it in.
FAR_ROOT_DRAW = (3, (3, 1, 1), (2, 2, 2), Basis.CHEBYSHEV1)


def generic_count(sizes, tau):
    return math.prod(sizes) * math.factorial(len(sizes)) * math.prod(tau)


@st.composite
def dense_systems(draw):
    """(seed, sizes, tau, basis): d in {2, 3}, n_k in 1..3, tau_k in {1, 2}.

    tau_1 = 1 in half the draws, so the first coordinate has no ratio block
    in the eigenvector.  Sizes are drawn one at a time within MAX_ROOTS.
    """
    d = draw(st.sampled_from([2, 3]))
    first = 1 if draw(st.booleans()) else draw(st.sampled_from([1, 2]))
    tau = (first,) + tuple(draw(st.sampled_from([1, 2])) for _ in range(d - 1))
    sizes = []
    for k in range(d):
        room = MAX_ROOTS // generic_count(sizes + [1] * (d - k), tau)
        sizes.append(draw(st.integers(1, min(3, room))))
    basis = draw(st.sampled_from([Basis.MONOMIAL, Basis.CHEBYSHEV1]))
    seed = draw(st.integers(0, 2**32 - 1))
    return seed, tuple(sizes), tau, basis


def missing_roots(p, found):
    """Oracle roots with no solver root within 1e-6 (max-norm)."""
    oracle = newton_oracle(p, seed=0).points()
    if found.size == 0:
        return list(oracle)
    return [
        x for x in oracle if np.min(np.max(np.abs(found - x), axis=1)) > 1e-6
    ]


def assert_generic_count(seed, sizes, tau, basis):
    p = systems.random_pmep(np.random.default_rng(seed), sizes, tau, basis)
    out = solve(p)
    want = generic_count(sizes, tau)
    if len(out) != want:
        missed = missing_roots(p, out.points())
        pytest.fail(
            f"{len(out)} of {want} roots; diagnostics {out.diagnostics}; "
            f"oracle roots missed: {missed}"
        )


@hypothesis.settings(max_examples=100, derandomize=True, deadline=None)
@hypothesis.given(dense_systems())
def test_generic_dense_count(case):
    assert_generic_count(*case)


def test_far_root_draw():
    assert_generic_count(*FAR_ROOT_DRAW)
