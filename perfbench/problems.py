"""Seeded problem generators for the benchmark workloads.

The families mirror the reference systems of the test suite but are built
here with plain numpy, so that edits to the tests or to the library cannot
shift the benchmark's inputs.  Every problem is a dict holding its
coefficient tensors (shape ``(tau_1+1, ..., tau_d+1, n, n)`` per equation),
its basis tag, how the CLI is to be called, and what it is expected to
return: a root count, and for the closed-form systems the roots themselves.
"""

import json
import math

import numpy as np
from numpy.polynomial import chebyshev

MONOMIAL = "monomial"
CHEBYSHEV1 = "chebyshev1"


def _problem(name, coeffs, basis, expected, args=(), roots=None):
    return {
        "name": name,
        "coeffs": [np.asarray(c, dtype=complex) for c in coeffs],
        "basis": basis,
        "expected": int(expected),
        "args": list(args),
        "roots": roots,
    }


def generic_count(sizes, tau):
    """Number of isolated roots of a generic dense system: prod(n) * d! * prod(tau)."""
    return math.prod(sizes) * math.factorial(len(sizes)) * math.prod(tau)


def _random_tensor(rng, n, tau):
    shape = tuple(t + 1 for t in tau) + (n, n)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_dense(rng, name, sizes, tau, basis=MONOMIAL, args=()):
    """Generic dense system with complex Gaussian coefficients."""
    coeffs = [_random_tensor(rng, n, tau) for n in sizes]
    return _problem(name, coeffs, basis, generic_count(sizes, tau), args)


def random_linear_mep(rng, name, sizes):
    """P_i(x) = V_i0 - sum_j x_j V_ij: degree one in each variable, no cross terms."""
    d = len(sizes)
    coeffs = []
    for n in sizes:
        c = np.zeros((2,) * d + (n, n), dtype=complex)
        c[(0,) * d] = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for j in range(d):
            idx = [0] * d
            idx[j] = 1
            c[tuple(idx)] = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        coeffs.append(c)
    return _problem(name, coeffs, MONOMIAL, math.prod(sizes))


def decoupled(rng, name, n=3):
    """P_1 = x_1 I - A, P_2 = x_2 I - B: n^2 roots (a_i, b_j), n-fold repeated x_2."""
    mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2)]
    coeffs = []
    for k, m in enumerate(mats):
        c = np.zeros((2, 2, n, n), dtype=complex)
        c[0, 0] = -m
        c[(1, 0) if k == 0 else (0, 1)] = np.eye(n)
        coeffs.append(c)
    eig_a = np.linalg.eigvals(mats[0])
    eig_b = np.linalg.eigvals(mats[1])
    roots = [[a, b] for a in eig_a for b in eig_b]
    return _problem(name, coeffs, MONOMIAL, n * n, roots=roots)


def quadratic_pair(name, basis=MONOMIAL):
    """P1 = x^2 I + [[0,1],[2,0]], P2 = xy [[0,1],[-1,0]] + [[-1,0],[-1,1]].

    det P1 = x^4 - 2 and det P2 = (xy)^2 + xy - 1, so the 8 roots satisfy
    x^4 = 2 and xy = (-1 +- sqrt(5))/2.
    """
    c1 = np.zeros((3, 3, 2, 2), dtype=complex)
    c1[0, 0] = [[0, 1], [2, 0]]
    c1[2, 0] = np.eye(2)
    c2 = np.zeros((3, 3, 2, 2), dtype=complex)
    c2[0, 0] = [[-1, 0], [-1, 1]]
    c2[1, 1] = [[0, 1], [-1, 0]]
    coeffs = [c1, c2]
    if basis == CHEBYSHEV1:
        coeffs = [_monomial_to_chebyshev(c, 2) for c in coeffs]
    us = [(-1 + math.sqrt(5)) / 2, (-1 - math.sqrt(5)) / 2]
    xs = [2**0.25 * z for z in (1, 1j, -1, -1j)]
    roots = [[x, u / x] for x in xs for u in us]
    return _problem(name, coeffs, basis, 8, roots=roots)


def rank_deficient_pair(name):
    """Nilpotent leading blocks: det P1 = -2(x^2 + 1), det P2 = xy - 1; roots (+-i, -+i)."""
    c1 = np.zeros((3, 3, 2, 2), dtype=complex)
    c1[0, 0] = [[0, 1], [2, 0]]
    c1[2, 0] = [[0, 1], [0, 0]]
    c2 = np.zeros((3, 3, 2, 2), dtype=complex)
    c2[0, 0] = [[-1, 0], [-1, 1]]
    c2[1, 1] = [[0, 1], [0, 0]]
    return _problem(name, [c1, c2], MONOMIAL, 2, roots=[[1j, -1j], [-1j, 1j]])


def _monomial_to_chebyshev(c, d):
    out = np.asarray(c, dtype=complex)
    for axis in range(d):
        k = out.shape[axis]
        conv = np.zeros((k, k))
        for j in range(k):
            col = chebyshev.poly2cheb(np.eye(k)[j])
            conv[: col.size, j] = col
        out = np.moveaxis(np.tensordot(conv, out, axes=(1, axis)), 0, axis)
    return out


WORKLOADS = ("dense", "many_roots", "structured")


def workload_rng(seed, name):
    """Independent random stream k of a workload for a seed."""
    return lambda k: np.random.default_rng([seed, WORKLOADS.index(name), k])


def workload(name, seed):
    """The problems of one workload; the same seed gives the same problems."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")

    rng = workload_rng(seed, name)

    if name == "dense":
        return [
            random_dense(rng(0), "d2_n22_t22", (2, 2), (2, 2)),
            random_dense(rng(1), "d2_n33_t33", (3, 3), (3, 3)),
            random_dense(rng(2), "d2_n44_t21", (4, 4), (2, 1)),
            random_dense(rng(3), "d2_n88_t11", (8, 8), (1, 1)),
            random_dense(rng(4), "d2_n33_t22_cheb", (3, 3), (2, 2), CHEBYSHEV1),
        ]
    if name == "many_roots":
        nr = ["--no-rotate"]
        return [
            random_dense(rng(0), "d4_n2222_t1111", (2, 2, 2, 2), (1, 1, 1, 1), args=nr),
            random_dense(rng(1), "d3_n333_t111", (3, 3, 3), (1, 1, 1), args=nr),
            random_dense(rng(2), "d3_n222_t222", (2, 2, 2), (2, 2, 2), args=nr),
            random_dense(rng(3), "d3_n222_t221", (2, 2, 2), (2, 2, 1), args=nr),
        ]
    # The cost of a rotated scalar system swings with its coefficients (residual
    # calls over three systems ranged 13.9k-19.7k across ten seeds), enough
    # to swamp a run-to-run comparison.  The three systems are therefore the
    # ones seed 0 draws, for every seed; the seed varies the other problems.
    frozen = workload_rng(0, name)
    return [
        random_dense(frozen(k), f"d3_scalar_t111_{k}", (1, 1, 1), (1, 1, 1))
        for k in range(3)
    ] + [
        rank_deficient_pair("rank_deficient_pair"),
        quadratic_pair("quadratic_pair", MONOMIAL),
        quadratic_pair("quadratic_pair_cheb", CHEBYSHEV1),
        decoupled(rng(3), "decoupled_3x3"),
        random_linear_mep(rng(4), "linear_mep_n444", (4, 4, 4)),
        random_linear_mep(rng(5), "linear_mep_n1010", (10, 10)),
    ]


def problem_document(problem):
    """Canonical problem document: per equation, the Fortran-order ravel of the
    coefficient tensor as [re, im] pairs."""
    c0 = problem["coeffs"][0]
    d = c0.ndim - 2
    equations = [
        {
            "n": int(c.shape[-1]),
            "coeffs": [[float(z.real), float(z.imag)] for z in c.ravel(order="F")],
        }
        for c in problem["coeffs"]
    ]
    doc = {
        "format_version": 1,
        "d": d,
        "basis": problem["basis"],
        "tau": [s - 1 for s in c0.shape[:d]],
        "equations": equations,
    }
    return json.dumps(doc) + "\n"
