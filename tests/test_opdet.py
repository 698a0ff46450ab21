"""Tests for the operator-determinant linear MEP solver."""

import itertools

import numpy as np
import pytest
import scipy.linalg

import systems
from multipolyeig.dixon import build_resultant
from multipolyeig.errors import SingularMepError
from multipolyeig.extract import residual
from multipolyeig.opdet import delta, kron_factor, solve_linear_mep


def random_coefficients(rng, sizes):
    """Random V_i0 (v0[i]) and V_ij (vmats[i][j]) of a linear MEP."""
    d = len(sizes)
    v0 = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in sizes]
    vmats = [
        [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(d)]
        for n in sizes
    ]
    return v0, vmats


def random_linear_mep(rng, sizes):
    return systems.linear_mep(*random_coefficients(rng, sizes))


def naive_delta(v0, vmats, k):
    """Independent Leibniz expansion written directly from the definition."""
    d = len(v0)
    out = 0
    for sigma in itertools.permutations(range(d)):
        sign = np.linalg.det(np.eye(d)[list(sigma)])
        term = np.array([[1.0 + 0j]])
        for i, j in enumerate(sigma):
            mat = v0[i] if (k and j == k - 1) else vmats[i][j]
            term = np.kron(term, mat)
        out = out + round(sign) * term
    return out


class TestDelta:
    def test_d1(self):
        rng = np.random.default_rng(60)
        v0, vmats = random_coefficients(rng, (3,))
        p = systems.linear_mep(v0, vmats)
        assert np.array_equal(delta(p, 0), vmats[0][0])
        assert np.array_equal(delta(p, 1), v0[0])

    def test_d2_formula(self):
        rng = np.random.default_rng(61)
        v0, vmats = random_coefficients(rng, (2, 3))
        want = np.kron(vmats[0][0], vmats[1][1]) - np.kron(vmats[0][1], vmats[1][0])
        assert np.allclose(delta(systems.linear_mep(v0, vmats), 0), want, atol=1e-14)

    def test_d3_naive_oracle(self):
        rng = np.random.default_rng(62)
        v0, vmats = random_coefficients(rng, (2, 2, 2))
        p = systems.linear_mep(v0, vmats)
        for k in range(4):
            assert np.allclose(delta(p, k), naive_delta(v0, vmats, k), atol=1e-12)

    def test_bad_k(self):
        rng = np.random.default_rng(63)
        p = random_linear_mep(rng, (2, 2))
        with pytest.raises(ValueError):
            delta(p, 3)
        with pytest.raises(ValueError):  # degree two in x_1: not a linear MEP
            delta(systems.quadratic_pair_system(), 0)


class TestKronFactor:
    def test_exact_rank_one(self):
        rng = np.random.default_rng(64)
        sizes = (2, 3, 2)
        vs = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in sizes]
        z = systems.kron_list(vs)
        got = kron_factor(z, sizes)
        for v, g in zip(vs, got):
            v = v / np.linalg.norm(v)
            phase = g @ v.conj() / abs(g @ v.conj())
            assert np.max(np.abs(g - phase * v)) <= 1e-12
        # a stack of vectors factorizes each one as a lone call would
        stack = np.stack([z, rng.standard_normal(z.size) + 1j * rng.standard_normal(z.size)])
        stacked = kron_factor(stack, sizes)
        for k, vec in enumerate(stack):
            for s, g in zip(stacked, kron_factor(vec, sizes)):
                assert s.shape == (2, g.size)
                assert np.allclose(s[k], g, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("sizes", [(3, 4), (2, 3, 2), (2, 2, 3, 2)])
    def test_near_rank_one_recovers_every_factor(self, sizes):
        rng = np.random.default_rng(67 + len(sizes))
        for _ in range(20):
            vs = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in sizes]
            vs = [v / np.linalg.norm(v) for v in vs]
            z = systems.kron_list(vs)
            noise = rng.standard_normal(z.size) + 1j * rng.standard_normal(z.size)
            got = kron_factor(z + 1e-10 * noise / np.linalg.norm(noise), sizes)
            for v, g in zip(vs, got):
                phase = g @ v.conj() / abs(g @ v.conj())
                assert np.max(np.abs(g - phase * v)) <= 1e-9

    def test_rank_two_input_gives_finite_unit_factors(self):
        rng = np.random.default_rng(71)
        sizes = (3, 2, 2)
        pair = [
            systems.kron_list([rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in sizes])
            for _ in range(2)
        ]
        with np.errstate(all="raise"):
            factors = kron_factor(pair[0] + pair[1], sizes)
        for g, n in zip(factors, sizes):
            assert g.shape == (n,) and np.all(np.isfinite(g))
            assert abs(np.linalg.norm(g) - 1.0) <= 1e-14

    @pytest.mark.parametrize("sizes", [(2, 3), (2, 3, 2), (1, 4, 1, 3)])
    def test_stacked_rows_equal_one_vector_calls_bit_for_bit(self, sizes):
        rng = np.random.default_rng(72)
        N = int(np.prod(sizes))
        for rows in (1, 2, 7, 64):
            stack = rng.standard_normal((rows, N)) + 1j * rng.standard_normal((rows, N))
            stack[rows // 2] = 0.0
            stacked = kron_factor(stack, sizes)
            for k, vec in enumerate(stack):
                for s, g in zip(stacked, kron_factor(vec, sizes)):
                    assert np.array_equal(s[k], g)

    def test_zero_vector_has_a_zero_last_factor(self):
        # an all-zero row of a stack, as an eigenvector block whose entries
        # are all exact zeros gives, must not divide 0 by 0
        rng = np.random.default_rng(66)
        sizes = (2, 3)
        stack = np.zeros((2, 6), dtype=complex)
        stack[1] = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        with np.errstate(all="raise"):
            factors = kron_factor(stack, sizes)
        assert np.all(factors[-1][0] == 0.0)
        for s, g in zip(factors, kron_factor(stack[1], sizes)):
            assert np.all(np.isfinite(s)) and np.allclose(s[1], g, rtol=0, atol=1e-14)


class TestSolveLinearMep:
    def test_d1_is_gep(self):
        rng = np.random.default_rng(65)
        v0, vmats = random_coefficients(rng, (3,))
        out = solve_linear_mep(systems.linear_mep(v0, vmats))
        got = np.sort_complex(np.array([s.x[0] for s in out]))
        want = np.sort_complex(scipy.linalg.eigvals(v0[0], vmats[0][0]))
        assert np.max(np.abs(got - want)) <= 1e-10 * max(1, np.max(np.abs(want)))

    def test_diagonal_decoupled(self):
        rng = np.random.default_rng(66)
        sizes = (2, 2)
        v0 = [np.diag(rng.standard_normal(n)) for n in sizes]
        vmats = [[np.diag(rng.standard_normal(n) + 1.0) for _ in sizes] for n in sizes]
        out = solve_linear_mep(systems.linear_mep(v0, vmats))
        want = []
        for l1 in range(2):
            for l2 in range(2):
                a = np.array(
                    [
                        [vmats[0][0][l1, l1], vmats[0][1][l1, l1]],
                        [vmats[1][0][l2, l2], vmats[1][1][l2, l2]],
                    ]
                )
                b = np.array([v0[0][l1, l1], v0[1][l2, l2]])
                want.append(np.linalg.solve(a, b))
        got = sorted(out.points().tolist(), key=lambda p: (p[0].real, p[1].real))
        want = sorted(np.array(want).tolist(), key=lambda p: (p[0].real, p[1].real))
        assert np.max(np.abs(np.array(got) - np.array(want))) <= 1e-8

    def test_random_regular_residuals(self):
        rng = np.random.default_rng(67)
        p = random_linear_mep(rng, (2, 2))
        out = solve_linear_mep(p)
        assert len(out) == 4
        for sol in out:
            assert sol.residual <= 1e-10
            assert residual(p, sol.x) <= 1e-10

    def test_recovered_eigenvectors_annihilate(self):
        rng = np.random.default_rng(68)
        p = random_linear_mep(rng, (2, 3))
        out = solve_linear_mep(p)
        for sol in out:
            for i in range(p.d):
                w = p.polys[i].eval(sol.x)
                assert np.linalg.norm(w @ sol.eigenvectors[i]) <= 1e-8 * np.linalg.norm(w)

    def test_singular_delta0_raises(self):
        rng = np.random.default_rng(69)
        n = 2
        a = rng.standard_normal((n, n))
        v0 = [rng.standard_normal((n, n)) for _ in range(2)]
        vmats = [[a, a], [rng.standard_normal((n, n))] * 2]
        with pytest.raises(SingularMepError):
            solve_linear_mep(systems.linear_mep(v0, vmats))

    def test_x1_gep_multiset_matches_solutions(self):
        rng = np.random.default_rng(70)
        p = random_linear_mep(rng, (2, 2))
        out = solve_linear_mep(p)
        got = np.sort_complex(np.array([s.x[0] for s in out]))
        want = np.sort_complex(scipy.linalg.eigvals(delta(p, 1), delta(p, 0)))
        assert np.max(np.abs(got - want)) <= 1e-8 * max(1.0, np.max(np.abs(want)))


class TestDixonEquivalence:
    def test_pencil_matches_operator_determinants(self):
        for seed in range(5):
            rng = np.random.default_rng(200 + seed)
            sizes = tuple(rng.integers(1, 4, size=2))
            p = random_linear_mep(rng, sizes)
            r = build_resultant(p)
            d0, d2 = delta(p, 0), delta(p, 2)
            top = max(np.abs(d0).max(), np.abs(d2).max())
            assert r.m == 1
            assert np.max(np.abs(r.coeffs[0] - (-d2))) <= 1e-12 * top
            assert np.max(np.abs(r.coeffs[1] - d0)) <= 1e-12 * top

    def test_solution_sets_match(self):
        rng = np.random.default_rng(71)
        p = random_linear_mep(rng, (2, 2))
        direct = solve_linear_mep(p)
        x2_from_pencil = scipy.linalg.eigvals(
            build_resultant(p).coeffs[0], -build_resultant(p).coeffs[1]
        )
        got = np.sort_complex(x2_from_pencil)
        want = np.sort_complex(np.array([s.x[1] for s in direct]))
        assert np.max(np.abs(got - want)) <= 1e-8 * max(1.0, np.max(np.abs(want)))
