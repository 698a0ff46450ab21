"""End-to-end acceptance gate.

One test per shipped guarantee, each printing a single pass/fail line under
``pytest -v``.  Tolerances are pinned here and are not derived from the code
under test; reference values are frozen literals or independent oracles.
"""

import numpy as np

import systems
from multipolyeig import solver
from multipolyeig.dixon import DixonShape, build_resultant, refold
from multipolyeig.io import parse_pmep, serialize_pmep
from multipolyeig.opdet import delta, solve_linear_mep
from multipolyeig.oracle import newton_oracle
from multipolyeig.pep import normal_rank, solve_pep
from multipolyeig.solver import solve

from test_dixon import eval_tensor
from test_opdet import random_linear_mep


def test_criterion_01_worked_dixon_matrix():
    # constant 4x4 Dixon matrix of the univariate 2x2 pair, frozen entrywise
    r = build_resultant(systems.univariate_pair_system())
    assert r.m == 0
    assert np.max(np.abs(r.coeffs[0] - systems.UNIVARIATE_PAIR_DIXON)) <= 1e-12
    sv = np.linalg.svd(r.coeffs[0], compute_uv=False)
    assert sv[-1] / sv[0] > 1e-12  # nonsingular


def test_criterion_02_worked_resultant_pencil():
    # degree-1 resultant of the quadratic pair matches both frozen 8x8
    # coefficient matrices with no row/column permutation
    r = build_resultant(systems.quadratic_pair_system())
    assert r.m == 1
    assert np.max(np.abs(r.coeffs[0] - systems.QUAD_PAIR_M0)) <= 1e-12
    assert np.max(np.abs(r.coeffs[1] - systems.QUAD_PAIR_M1)) <= 1e-12


def test_criterion_03_worked_solve():
    out = solve(systems.quadratic_pair_system())
    assert len(out) == 8
    assert all(s.residual <= 1e-10 for s in out)
    # the real solution with y near -1.3606 has x*y a root of u^2 + u - 1 and
    # x^4 = 2, hence x = 2**0.25 = 1.1892...; 0.8409 = 2**-0.25 is the
    # reciprocal of that coordinate and satisfies neither equation
    hits = [s for s in out if abs(s.x[1] - (-1.3606)) <= 1e-3]
    assert len(hits) == 1
    assert abs(hits[0].x[0] - 2**0.25) <= 1e-3


def test_criterion_04_singular_pair_projected_solve():
    p = systems.rank_deficient_pair_system()
    r = build_resultant(p)
    assert np.max(np.abs(r.coeffs[0] - systems.RANK_DEFICIENT_M0)) <= 1e-12
    assert np.max(np.abs(r.coeffs[1] - systems.RANK_DEFICIENT_M1)) <= 1e-12
    assert normal_rank(r) == 5
    # its singularity is structural: the core left by dropping R's zero rows
    # and columns is regular, so the plain pair is not projected
    out = solve(p)
    assert len(out) == 2
    assert out.diagnostics["projected"] is False
    # mixed by constant factors, no row or column is zero and only the
    # projection removes the singularity
    mixed = systems.mixed_rank_deficient_pair_system()
    assert normal_rank(build_resultant(mixed)) == 5
    out = solve(mixed)
    assert len(out) > 0
    assert out.diagnostics["projected"] is True
    oracle = newton_oracle(mixed, starts=200, seed=0)
    for s in out:
        assert min(np.linalg.norm(s.x - o.x) for o in oracle) <= 1e-6


def test_criterion_05_linear_mep_equivalence(monkeypatch):
    # resultant pencil of a linear problem equals x2*Delta0 - Delta2 (the
    # same singular set as the opposite-sign convention Delta2 - x2*Delta0),
    # and the generic pipeline agrees with the operator-determinant solver
    monkeypatch.setattr(solver, "_as_linear_mep", lambda p: None)
    rng = np.random.default_rng(800)
    for _ in range(20):
        sizes = tuple(int(rng.integers(1, 4)) for _ in range(2))
        p = random_linear_mep(rng, sizes)
        r = build_resultant(p)
        d0, d2 = delta(p, 0), delta(p, 2)
        scale = max(np.max(np.abs(d0)), np.max(np.abs(d2)))
        assert np.max(np.abs(r.coeffs[0] + d2)) <= 1e-12 * scale
        assert np.max(np.abs(r.coeffs[1] - d0)) <= 1e-12 * scale
        got = solve(p)
        want = solve_linear_mep(p)
        assert len(got) == len(want)
        pool = [y for y in want.points()]
        for x in got.points():
            dist = [np.linalg.norm(x - y) for y in pool]
            k = int(np.argmin(dist))
            assert dist[k] <= 1e-8
            pool.pop(k)


def test_criterion_06_generic_nonsingularity():
    # 100 random maximal-degree systems across d in {2, 3}: the resultant is
    # comfortably nonsingular at a random probe point
    rng = np.random.default_rng(600)
    for tau, trials in (((2, 2), 34), ((2, 1, 1), 33), ((2, 2, 2), 33)):
        for _ in range(trials):
            sizes = tuple(int(rng.integers(1, 3)) for _ in range(len(tau)))
            p = systems.random_pmep(rng, sizes, tau)
            r = build_resultant(p)
            z = complex(*rng.standard_normal(2)) * 0.7
            sv = np.linalg.svd(r.eval(z), compute_uv=False)
            assert sv[-1] / sv[0] > 1e-8


def best_fit_vandermonde(vec, shape):
    """Least-squares fit of stacked blocks to the model block_i = x^i * u."""
    blocks = vec.reshape(-1, shape.N)
    num = np.vdot(blocks[:-1].ravel(), blocks[1:].ravel())
    den = np.vdot(blocks[:-1].ravel(), blocks[:-1].ravel())
    x = num / den
    powers = x ** np.arange(blocks.shape[0])
    u = (np.conj(powers)[:, None] * blocks).sum(0) / np.sum(np.abs(powers) ** 2)
    model = powers[:, None] * u[None, :]
    return np.linalg.norm(blocks - model) / np.linalg.norm(blocks)


def test_criterion_07_eigenvector_structure():
    # computed resultant eigenvectors carry the predicted block structure
    rng = np.random.default_rng(700)
    for trial in range(20):
        sizes = tuple(int(rng.integers(1, 3)) for _ in range(2))
        tau = (2, 2) if trial % 2 == 0 else (3, 2)
        p = systems.random_pmep(rng, sizes, tau)
        sh = DixonShape.from_pmep(p)
        for lam, v in solve_pep(build_resultant(p)):
            if abs(lam) > 1e6:
                continue
            assert best_fit_vandermonde(v, sh) <= 1e-6


def test_criterion_08_witness_system_closed_form():
    # the shifted-power witness system's Dixon function has an exact product
    # form (computed independently in systems.shifted_power_closed_form)
    rng = np.random.default_rng(900)
    for sizes, tau in (((2, 2), (2, 3)), ((2, 1, 2), (2, 1, 2))):
        p, mats = systems.shifted_power_system(rng, sizes, tau)
        sh = DixonShape.from_pmep(p)
        r = build_resultant(p)
        for _ in range(10):
            s = rng.standard_normal(len(sizes) - 1) + 1j * rng.standard_normal(len(sizes) - 1)
            t = rng.standard_normal(len(sizes) - 1) + 1j * rng.standard_normal(len(sizes) - 1)
            xd = complex(*rng.standard_normal(2)) * 0.8
            got = eval_tensor(refold(r.eval(xd), sh), sh, p.basis, s, t)
            want = systems.shifted_power_closed_form(mats, sizes, tau, s, t, xd)
            assert np.max(np.abs(got - want)) <= 1e-8 * max(1.0, np.max(np.abs(want)))


def test_criterion_10_large_document_ingestion():
    # full-size sweep problems are out of scope to solve here, but the file
    # format must ingest systems of that scale losslessly
    rng = np.random.default_rng(1000)
    p = systems.random_pmep(rng, (25, 25), (2, 2))
    text = serialize_pmep(p)
    q = parse_pmep(text)
    assert q.sizes == (25, 25)
    assert serialize_pmep(q) == text
    for a, b in zip(p.polys, q.polys):
        assert np.array_equal(a.coeffs, b.coeffs)
