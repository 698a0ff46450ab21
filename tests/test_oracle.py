"""Tests for the multistart Newton verification oracle."""

import numpy as np
import pytest

import systems
from multipolyeig.opdet import solve_linear_mep
from multipolyeig.oracle import adjugate, newton_oracle

from test_opdet import random_linear_mep


class TestAdjugate:
    def test_matches_cofactor_definition(self):
        rng = np.random.default_rng(90)
        for n in (1, 2, 3, 4):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            want = np.linalg.det(a) * np.linalg.inv(a)
            assert np.allclose(adjugate(a), want, atol=1e-10 * np.abs(want).max())

    def test_finite_at_singular_matrix(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        adj = adjugate(a)
        assert np.allclose(adj, [[4.0, -2.0], [-2.0, 1.0]], atol=1e-12)


class TestNewtonOracle:
    def test_quadratic_pair_finds_all_roots(self):
        p = systems.quadratic_pair_system()
        out = newton_oracle(p, starts=300, seed=1)
        assert len(out) == 8
        pts = out.points()
        for want in systems.quadratic_pair_solutions():
            dist = np.min(np.max(np.abs(pts - want), axis=1))
            assert dist <= 1e-6
        # the real pair reported in hand calculations
        real_pair = np.array([2.0**0.25, (-1 - np.sqrt(5)) / 2 / 2.0**0.25])
        dist = np.min(np.max(np.abs(pts - real_pair), axis=1))
        assert dist <= 1e-8

    def test_linear_mep_matches_opdet(self):
        rng = np.random.default_rng(91)
        p = random_linear_mep(rng, (2, 2))
        want = solve_linear_mep(p).points()
        got = newton_oracle(p, starts=200, seed=2).points()
        assert got.shape == want.shape
        for w in want:
            assert np.min(np.max(np.abs(got - w), axis=1)) <= 1e-8

    def test_no_common_eigenvalue_gives_empty_set(self):
        p = systems.univariate_pair_system()
        out = newton_oracle(p, starts=100, seed=3)
        assert len(out) == 0
        assert out.diagnostics["starts"] == 100

    def test_deterministic_for_fixed_seed(self):
        p = systems.quadratic_pair_system()
        a = newton_oracle(p, starts=50, seed=7)
        b = newton_oracle(p, starts=50, seed=7)
        assert np.array_equal(a.points(), b.points())

    def test_rejects_zero_starts(self):
        with pytest.raises(ValueError):
            newton_oracle(systems.quadratic_pair_system(), starts=0)

    def test_chebyshev_basis_system(self):
        from multipolyeig.mpoly import Basis

        p = systems.quadratic_pair_system().convert_basis(Basis.CHEBYSHEV1)
        out = newton_oracle(p, starts=300, seed=4)
        assert len(out) == 8
