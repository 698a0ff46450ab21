"""Tests for the matrix-polynomial layer."""

import numpy as np
import pytest

from multipolyeig.mpoly import Basis, MatrixPoly, Pmep


def naive_monomial_eval(coeffs, x):
    """Oracle: plain sum of coeff * prod(x_k**i_k) over the whole tensor."""
    coeffs = np.asarray(coeffs, dtype=complex)
    d = coeffs.ndim - 2
    n = coeffs.shape[-1]
    out = np.zeros((n, n), dtype=complex)
    for idx in np.ndindex(*coeffs.shape[:-2]):
        mono = 1.0
        for k in range(d):
            mono *= x[k] ** idx[k]
        out += coeffs[idx] * mono
    return out


def random_poly(rng, d, n, tau, basis=Basis.MONOMIAL):
    shape = tuple(t + 1 for t in tau) + (n, n)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return MatrixPoly(c, basis)


def random_pmep(rng, d, sizes, tau, basis=Basis.MONOMIAL):
    return Pmep([random_poly(rng, d, n, tau, basis) for n in sizes])


P1_QUADRATIC_PAIR = MatrixPoly(
    np.array(
        [
            [[[0, 1], [2, 0]], [[0, 0], [0, 0]], [[0, 0], [0, 0]]],
            [[[0, 0], [0, 0]], [[0, 0], [0, 0]], [[0, 0], [0, 0]]],
            [[[1, 0], [0, 1]], [[0, 0], [0, 0]], [[0, 0], [0, 0]]],
        ],
        dtype=complex,
    ),
    Basis.MONOMIAL,
)

P2_QUADRATIC_PAIR = MatrixPoly(
    np.array(
        [
            [[[-1, 0], [-1, 1]], [[0, 0], [0, 0]], [[0, 0], [0, 0]]],
            [[[0, 0], [0, 0]], [[0, 1], [-1, 0]], [[0, 0], [0, 0]]],
            [[[0, 0], [0, 0]], [[0, 0], [0, 0]], [[0, 0], [0, 0]]],
        ],
        dtype=complex,
    ),
    Basis.MONOMIAL,
)


def quadratic_pair_system():
    """x^2 I + [[0,1],[2,0]] and xy [[0,1],[-1,0]] + [[-1,0],[-1,1]], tau=(2,2)."""
    return Pmep([P1_QUADRATIC_PAIR, P2_QUADRATIC_PAIR])


class TestEval:
    def test_known_value_at_one(self):
        got = P1_QUADRATIC_PAIR.eval([1.0, 0.3])
        assert np.allclose(got, [[1, 1], [2, 1]])

    def test_zero_poly(self):
        p = MatrixPoly(np.zeros((3, 2, 2, 2)), Basis.MONOMIAL)
        assert np.all(p.eval([0.3, -2.0]) == 0)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            p = random_poly(rng, 2, 2, (2, 2))
            x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            assert np.allclose(p.eval(x), naive_monomial_eval(p.coeffs, x), atol=1e-12)

    def test_eval_many_matches_single(self):
        rng = np.random.default_rng(8)
        p = random_poly(rng, 3, 2, (2, 1, 2))
        pts = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        batch = p.eval_many(pts)
        for i in range(6):
            assert np.allclose(batch[i], p.eval(pts[i]), atol=1e-12)

    @pytest.mark.parametrize("tau", [(2, 0, 3), (4, 1, 0), (1, 1, 1)])
    @pytest.mark.parametrize("basis", [Basis.MONOMIAL, Basis.CHEBYSHEV1])
    def test_eval_many_jet_matches_partials(self, basis, tau):
        # oracle: differentiate the monomial coefficients along each axis
        rng = np.random.default_rng(10)
        p = random_poly(rng, 3, 2, tau, basis)
        mono = p.convert_basis(Basis.MONOMIAL).coeffs
        pts = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        jet = p.eval_many(pts, jet=True)
        assert jet.shape == (5, 4, 2, 2)
        assert np.array_equal(jet[:, 0], p.eval_many(pts))
        for k in range(3):
            der = np.polynomial.polynomial.polyder(mono, axis=k)
            for i in range(5):
                want = naive_monomial_eval(der, pts[i])
                assert np.allclose(jet[i, k + 1], want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("jet", [False, True])
    def test_eval_many_of_no_points(self, jet):
        p = random_poly(np.random.default_rng(11), 3, 2, (2, 1, 2))
        out = p.eval_many(np.zeros((0, 3)), jet=jet)
        assert out.shape == ((0, 4, 2, 2) if jet else (0, 2, 2))

    def test_chebyshev_eval_matches_conversion(self):
        rng = np.random.default_rng(9)
        p = random_poly(rng, 2, 2, (3, 2), Basis.CHEBYSHEV1)
        q = p.convert_basis(Basis.MONOMIAL)
        for _ in range(5):
            x = rng.standard_normal(2)
            assert np.allclose(p.eval(x), q.eval(x), atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            P1_QUADRATIC_PAIR.eval([1.0])


class TestPartialEval:
    def test_matches_full_eval(self):
        rng = np.random.default_rng(12)
        p = random_poly(rng, 3, 2, (1, 2, 2))
        x = rng.standard_normal(3)
        q = p.partial_eval({0: x[0], 2: x[2]})
        assert q.d == 1
        assert np.allclose(q.eval([x[1]]), p.eval(x), atol=1e-12)
        # the last axis alone, as the fallback substitutes x_d = lambda
        for _ in range(10):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            q = p.partial_eval({2: x[2]})
            assert q.d == 2
            assert np.allclose(q.eval(x[:2]), p.eval(x), atol=1e-12)


class TestPermute:
    def test_identity(self):
        rng = np.random.default_rng(13)
        p = random_pmep(rng, 2, (2, 2), (2, 1))
        q = p.permute_variables((1, 2))
        for a, b in zip(p.polys, q.polys):
            assert np.array_equal(a.coeffs, b.coeffs)

    def test_involution(self):
        rng = np.random.default_rng(14)
        p = random_pmep(rng, 3, (2, 1, 2), (2, 1, 3))
        q = p.permute_variables((3, 1, 2)).permute_variables((2, 3, 1))
        for a, b in zip(p.polys, q.polys):
            assert np.array_equal(a.coeffs, b.coeffs)

    def test_eval_consistency(self):
        rng = np.random.default_rng(15)
        p = random_pmep(rng, 3, (2, 2, 1), (1, 2, 3))
        perm = (3, 1, 2)
        q = p.permute_variables(perm)
        for _ in range(10):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            xq = x[[v - 1 for v in perm]]
            for a, b in zip(p.polys, q.polys):
                assert np.allclose(b.eval(xq), a.eval(x), atol=1e-12)

    def test_bad_perm(self):
        rng = np.random.default_rng(16)
        p = random_pmep(rng, 2, (2, 2), (1, 1))
        with pytest.raises(ValueError):
            p.permute_variables((1, 1))


class TestConvertBasis:
    def test_constant_unchanged(self):
        p = MatrixPoly(np.ones((1, 1, 2, 2)), Basis.MONOMIAL)
        q = p.convert_basis(Basis.CHEBYSHEV1)
        assert np.allclose(q.coeffs, p.coeffs)

    def test_x_squared_identity(self):
        # x^2 = (T_0 + T_2) / 2
        p = MatrixPoly(np.array([[[0.0]], [[0.0]], [[1.0]]]), Basis.MONOMIAL)
        q = p.convert_basis(Basis.CHEBYSHEV1)
        assert np.allclose(q.coeffs[:, 0, 0], [0.5, 0.0, 0.5])

    def test_round_trip(self):
        rng = np.random.default_rng(17)
        p = random_poly(rng, 2, 2, (3, 2))
        q = p.convert_basis(Basis.CHEBYSHEV1).convert_basis(Basis.MONOMIAL)
        assert np.max(np.abs(q.coeffs - p.coeffs)) <= 1e-12 * np.max(np.abs(p.coeffs))


class TestChangeOfVariables:
    def test_identity_rotation(self):
        rng = np.random.default_rng(18)
        p = random_pmep(rng, 2, (2, 2), (2, 1))
        q = p.change_of_variables(np.eye(2))
        assert q.tau == (3, 3)
        for a, b in zip(p.polys, q.polys):
            padded = np.pad(a.coeffs, [(0, 3 - k) for k in a.tau] + [(0, 0)] * 2)
            assert np.max(np.abs(b.coeffs - padded)) <= 1e-12

    def test_permutation_rotation(self):
        rng = np.random.default_rng(19)
        p = random_pmep(rng, 2, (2, 1), (2, 2))
        q_mat = np.array([[0.0, 1.0], [1.0, 0.0]])
        got = p.change_of_variables(q_mat)
        ref = p.permute_variables((2, 1))
        for a, b in zip(ref.polys, got.polys):
            padded = np.pad(a.coeffs, [(0, 4 - k) for k in a.tau] + [(0, 0)] * 2)
            assert np.max(np.abs(b.coeffs - padded)) <= 1e-11

    def test_eval_composition(self):
        rng = np.random.default_rng(20)
        for basis in (Basis.MONOMIAL, Basis.CHEBYSHEV1):
            p = random_pmep(rng, 2, (2, 2), (2, 2), basis)
            q_mat, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            prot = p.change_of_variables(q_mat)
            for _ in range(20):
                xp = rng.standard_normal(2) * 0.7
                xo = q_mat.T @ xp
                for a, b in zip(p.polys, prot.polys):
                    va, vb = a.eval(xo), b.eval(xp)
                    assert np.max(np.abs(va - vb)) <= 1e-10 * max(1.0, np.max(np.abs(va)))

    def test_degree_padding_is_tight(self):
        rng = np.random.default_rng(21)
        p = random_pmep(rng, 2, (2, 2), (1, 2))
        q_mat, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        rot = p.change_of_variables(q_mat)
        scale = max(a.max_coeff_norm() for a in rot.polys)
        # entries beyond the total degree must vanish
        for b in rot.polys:
            for idx in np.ndindex(*b.coeffs.shape[:-2]):
                if sum(idx) > 3:
                    assert np.max(np.abs(b.coeffs[idx])) <= 1e-10 * scale

    def test_non_orthogonal_rejected(self):
        rng = np.random.default_rng(22)
        p = random_pmep(rng, 2, (2, 2), (1, 1))
        with pytest.raises(ValueError):
            p.change_of_variables(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestPmepValidation:
    def test_mismatched_tau(self):
        rng = np.random.default_rng(23)
        a = random_poly(rng, 2, 2, (1, 1))
        b = random_poly(rng, 2, 2, (2, 1))
        with pytest.raises(ValueError):
            Pmep([a, b])

    def test_nonsquare_system(self):
        rng = np.random.default_rng(24)
        a = random_poly(rng, 2, 2, (1, 1))
        with pytest.raises(ValueError):
            Pmep([a])

    def test_nan_rejected(self):
        c = np.zeros((2, 2, 2, 2))
        c[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            MatrixPoly(c, Basis.MONOMIAL)
