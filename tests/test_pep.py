"""Tests for the shift-and-invert eigensolve of matrix polynomials and for projection."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import systems
from multipolyeig import pep, solver
from multipolyeig.dixon import build_resultant
from multipolyeig.errors import ProjectionFailureError, SingularPencilError
from multipolyeig.mpoly import Basis, MatrixPoly
from multipolyeig.pep import normal_rank, project_singular, solve_pep

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def det_roots(R, extra=3):
    """Oracle: roots of det R(lambda) by scalar interpolation of the determinant."""
    deg = R.m * R.size
    xs = np.exp(2j * np.pi * np.arange(deg + 1 + extra) / (deg + 1 + extra))
    dets = np.array([np.linalg.det(R.eval(x)) for x in xs])
    poly = np.polynomial.Polynomial.fit(xs, dets, deg)
    coeffs = poly.convert().coef
    coeffs = np.trim_zeros(coeffs, "b")
    return np.roots(coeffs[::-1])


def match_sets(a, b, tol):
    a = np.sort_complex(np.asarray(a))
    b = np.sort_complex(np.asarray(b))
    assert a.shape == b.shape
    b = list(b)
    for za in a:
        dists = [abs(za - zb) for zb in b]
        j = int(np.argmin(dists))
        assert dists[j] <= tol, f"{za} unmatched (closest {b[j]})"
        b.pop(j)


def linearize(R):
    """Companion (monomial) or colleague (Chebyshev) pencil (A, B) of R of
    degree m >= 1, built from the textbook definitions: right eigenvectors
    stack [phi_{m-1}(lambda) v; ...; phi_1(lambda) v; v]."""
    m, n = R.m, R.size
    eye = np.eye(n)
    A = np.zeros((m * n, m * n), dtype=complex)
    B = np.zeros((m * n, m * n), dtype=complex)
    cheb = R.basis == Basis.CHEBYSHEV1 and m > 1
    B[:n, :n] = (2.0 if cheb else 1.0) * R.coeffs[m]
    for k in range(m):
        A[:n, k * n : (k + 1) * n] = R.coeffs[m - 1 - k]
    for j in range(1, m):
        B[j * n : (j + 1) * n, j * n : (j + 1) * n] = eye
    if not cheb:
        for j in range(1, m):
            A[j * n : (j + 1) * n, (j - 1) * n : j * n] = -eye
        return A, B
    A[:n, n : 2 * n] -= R.coeffs[m]
    for j in range(1, m - 1):
        A[j * n : (j + 1) * n, (j - 1) * n : j * n] = -eye / 2.0
        A[j * n : (j + 1) * n, (j + 1) * n : (j + 2) * n] = -eye / 2.0
    A[(m - 1) * n :, (m - 2) * n : (m - 1) * n] = -eye
    return A, B


def assert_null_blocks(r, pairs, tol):
    """Each block v that `solve_pep` returns satisfies R(lambda) v ~ 0."""
    assert pairs
    scale = np.max(np.linalg.norm(r.coeffs, axis=(1, 2)))  # Frobenius
    for lam, v in pairs:
        res = np.linalg.norm(r.eval(lam) @ v) / np.linalg.norm(v)
        assert res <= tol * (1 + abs(lam) ** r.m) * scale


def pencil_poly(a, b):
    """The degree-one polynomial A + lambda*B."""
    return MatrixPoly(np.array([a, b]), Basis.MONOMIAL)


class TestCompanion:
    def test_scalar_quadratic(self):
        c = np.array([[[-1.0]], [[0.0]], [[1.0]]])
        lams = sorted(lam.real for lam, _ in solve_pep(MatrixPoly(c, Basis.MONOMIAL)))
        assert np.allclose(lams, [-1.0, 1.0], atol=1e-12)

    def test_random_cubic_matches_determinant_roots(self):
        rng = np.random.default_rng(81)
        c = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
        r = MatrixPoly(c, Basis.MONOMIAL)
        match_sets([lam for lam, _ in solve_pep(r)], det_roots(r), 1e-6)

    def test_eigenvector_structure(self):
        rng = np.random.default_rng(82)
        c = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        r = MatrixPoly(c, Basis.MONOMIAL)
        pairs = solve_pep(r)
        assert len(pairs) == 4
        assert_null_blocks(r, pairs, 1e-8)

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            solve_pep(MatrixPoly(np.eye(2)[None], Basis.MONOMIAL))


class TestColleague:
    def test_scalar_chebyshev_t2(self):
        c = np.array([[[0.0]], [[0.0]], [[1.0]]])
        lams = sorted(lam.real for lam, _ in solve_pep(MatrixPoly(c, Basis.CHEBYSHEV1)))
        assert np.allclose(lams, [-np.sqrt(2) / 2, np.sqrt(2) / 2], atol=1e-12)

    def test_cross_linearization_agreement(self):
        rng = np.random.default_rng(84)
        c = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        r_mono = MatrixPoly(c, Basis.MONOMIAL)
        r_cheb = r_mono.convert_basis(Basis.CHEBYSHEV1)
        lam_c = [l for l, _ in solve_pep(r_mono)]
        lam_t = [l for l, _ in solve_pep(r_cheb)]
        match_sets(lam_c, lam_t, 1e-8)

    def test_colleague_eigenvector_blocks(self):
        rng = np.random.default_rng(85)
        c = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
        r = MatrixPoly(c, Basis.CHEBYSHEV1)
        pairs = solve_pep(r)
        assert len(pairs) == 6
        assert_null_blocks(r, pairs, 1e-7)


class TestSolveGep:
    """`solve_pep` on degree-one polynomials A + lambda*B, plain pencils."""

    def test_diagonal(self):
        pairs = solve_pep(pencil_poly(-np.diag([1.0, 2.0]), np.eye(2)))
        assert np.allclose(sorted(lam.real for lam, _ in pairs), [1.0, 2.0])

    def test_all_infinite(self):
        assert solve_pep(pencil_poly(np.eye(3), np.zeros((3, 3)))) == []

    def test_quadratic_pair_resultant_pencil(self):
        r = build_resultant(systems.quadratic_pair_system())
        finite = [lam for lam, _ in solve_pep(pencil_poly(r.coeffs[0], r.coeffs[1]))]
        assert len(finite) == 8
        assert min(abs(lam - (-1.3606)) for lam in finite) <= 1e-3

    def test_backward_stability_proxy(self):
        rng = np.random.default_rng(86)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        na, nb = np.linalg.norm(a, 2), np.linalg.norm(b, 2)
        pairs = solve_pep(pencil_poly(a, b))
        assert len(pairs) == 6
        for lam, v in pairs:
            res = np.linalg.norm((a + lam * b) @ v)
            assert res / ((na + abs(lam) * nb) * np.linalg.norm(v)) <= 1e-10

    def test_rank_deficient_b_matches_qz(self):
        # B of rank n-2: exactly two infinite eigenvalues, left out; the n-2
        # finite ones agree with QZ on the same pencil
        n = 8
        for seed in range(89, 94):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            b = (rng.standard_normal((n, n - 2)) + 1j * rng.standard_normal((n, n - 2))) @ (
                rng.standard_normal((n - 2, n)) + 1j * rng.standard_normal((n - 2, n))
            )
            finite = [lam for lam, _ in solve_pep(pencil_poly(a, b))]
            assert len(finite) == n - 2
            qz = scipy.linalg.eigvals(a, -b)
            qz = qz[np.argsort(np.abs(qz))[: n - 2]]  # QZ's two largest are the infinite ones
            for want in qz:
                dists = np.abs(np.array(finite) - want)
                j = int(np.argmin(dists))
                assert dists[j] <= 1e-10 * abs(want)
                finite.pop(j)

    def test_shared_null_vector_raises(self):
        # A e_1 = B e_1 = 0, so A + sigma*B is singular at every shift
        rng = np.random.default_rng(94)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        a[:, 0] = b[:, 0] = 0.0
        with pytest.raises(SingularPencilError):
            solve_pep(pencil_poly(a, b))
        # the same through R(sigma) of a quadratic in either basis
        coeffs = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        coeffs[:, :, 0] = 0.0
        for basis in Basis:
            with pytest.raises(SingularPencilError):
                solve_pep(MatrixPoly(coeffs, basis))


class TestSolvePep:
    def test_matches_determinant_roots_both_bases(self):
        rng = np.random.default_rng(87)
        c = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        r = MatrixPoly(c, Basis.MONOMIAL)
        want = det_roots(r)
        match_sets([lam for lam, _ in solve_pep(r)], want, 1e-6)
        got_cheb = [lam for lam, _ in solve_pep(r.convert_basis(Basis.CHEBYSHEV1))]
        match_sets(got_cheb, want, 1e-6)

    def test_exact_multiple_eigenvalue(self):
        # lambda = 2 comes out exact and R(2) = 0, a triple eigenvalue with a
        # full eigenspace; solve_pep returns every pair unrefined, as computed
        r = MatrixPoly(np.array([-2.0 * np.eye(3), np.eye(3)]), Basis.MONOMIAL)
        pairs = solve_pep(r)
        assert len(pairs) == 3
        for lam, v in pairs:
            assert abs(lam - 2.0) <= 1e-14
            assert v.shape == (3,)

    def test_deflated_core_eigenvectors_are_accurate(self):
        # the regular core of rank_deficient_pair's resultant (side 5, m = 1):
        # entries of (A + sigma*B)^-1 B that are zero in exact arithmetic
        # came out as roundoff down to 1e-50, and the standard eigensolver
        # then returned eigenvectors of lambda = +-i with residuals near 0.3
        core, _ = solver._structural_core(build_resultant(systems.rank_deficient_pair_system()))
        assert (core.size, core.m) == (5, 1)
        pairs = solve_pep(core)
        assert len(pairs) == 3
        for lam, v in pairs:
            scale = sum(abs(lam) ** k * np.linalg.norm(c, 2) for k, c in enumerate(core.coeffs))
            assert np.linalg.norm(core.eval(lam) @ v) <= 1e-12 * scale * np.linalg.norm(v)

    @pytest.mark.parametrize("basis", list(Basis))
    def test_condition_bound_certifies_or_raises(self, basis, monkeypatch):
        # under a bound that the best shift meets, the solve is the same to
        # the bit; under one that no shift meets it raises before the
        # eigensolve.  Every estimate is at least 1, as ||M||_1 ||M^-1 b||_1
        # >= ||b||_1 = n, and a random R(sigma) is not that well conditioned
        rng = np.random.default_rng(96)
        coeffs = rng.standard_normal((4, 5, 5)) + 1j * rng.standard_normal((4, 5, 5))
        r = MatrixPoly(coeffs, basis)
        free, bounded = solve_pep(r), solve_pep(r, max_cond=1e5)
        assert [lam for lam, _ in free] == [lam for lam, _ in bounded]
        assert all(np.array_equal(u, v) for (_, u), (_, v) in zip(free, bounded))

        def no_eig(*args, **kwargs):
            raise AssertionError("an uncertified R reached the eigensolver")

        monkeypatch.setattr(np.linalg, "eig", no_eig)
        with pytest.raises(SingularPencilError):
            solve_pep(r, max_cond=1.0)

    @pytest.mark.parametrize("basis", list(Basis))
    def test_no_pencil_is_formed(self, basis):
        # C is the one array of the pencil's side: A and B (two more) are
        # never built, and the solve with R(sigma) and the eigenvalue cut
        # add less than C again
        m, n = 4, 40
        rng = np.random.default_rng(95)
        coeffs = rng.standard_normal((m + 1, n, n)) + 1j * rng.standard_normal((m + 1, n, n))
        r = MatrixPoly(coeffs, basis)
        tracemalloc.start()
        try:
            assert len(solve_pep(r, vectors=False)) == m * n
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * np.dtype(complex).itemsize * (m * n) ** 2


@hypothesis.settings(max_examples=100, derandomize=True, deadline=None)
@hypothesis.given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 12),
    n=st.integers(1, 5),
    basis=st.sampled_from(list(Basis)),
)
def test_structured_inverse_matches_dense_solve(seed, m, n, basis):
    # C = (A + sigma*B)^-1 B from R's coefficients and one side-n solve with
    # R(sigma) equals the dense solve with the textbook side-mn pencil, also at degrees where the
    # Chebyshev basis values at sigma exceed 4e3
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((m + 1, n, n)) + 1j * rng.standard_normal((m + 1, n, n))
    r = MatrixPoly(coeffs, basis)
    a, b = linearize(r)
    sigma, got = pep._shifted_inverse(r)
    assert sigma in pep._SHIFTS
    want = np.linalg.solve(a + sigma * b, b)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.fixture
def probed(monkeypatch):
    """The points at which R is evaluated, in order."""
    points, evaluate = [], MatrixPoly.eval

    def recorded(self, x):
        points.append(x)
        return evaluate(self, x)

    monkeypatch.setattr(MatrixPoly, "eval", recorded)
    return points


class TestNormalRank:
    def test_identity_pencil(self, probed):
        r = MatrixPoly(np.stack([np.eye(4), np.zeros((4, 4))]), Basis.MONOMIAL)
        assert normal_rank(r) == 4
        # full rank at the first shift ends the probe
        assert probed == [pep._SHIFTS[0]]

    def test_rank_deficient_pencil(self, probed):
        r = build_resultant(systems.rank_deficient_pair_system())
        assert normal_rank(r) == 5 < r.size
        # no shift shows full rank, so every shift is probed
        assert probed == list(pep._SHIFTS)

    def test_quadratic_pair_full_rank(self):
        r = build_resultant(systems.quadratic_pair_system())
        assert normal_rank(r) == 8

    def test_probe_is_deterministic_and_draws_nothing(self, probed, monkeypatch):
        # the probe evaluates R at a prefix of the eigensolve's fixed shifts,
        # the same for every call, and never creates a generator
        def no_generator(*args, **kwargs):
            raise AssertionError("the rank probe created a generator")

        full = MatrixPoly(np.stack([np.eye(3), np.diag([1.0, 2.0, 3.0])]), Basis.MONOMIAL)
        singular = build_resultant(systems.mixed_rank_deficient_pair_system())
        monkeypatch.setattr(np.random, "default_rng", no_generator)
        for r, rank, points in ((full, 3, 1), (singular, 5, 3)):
            for _ in range(2):
                probed.clear()
                assert normal_rank(r) == rank
                assert probed == list(pep._SHIFTS[:points])


class TestProjectSingular:
    def test_noop_when_full_rank(self):
        r = build_resultant(systems.quadratic_pair_system())
        assert project_singular(r, normal_rank(r)) is r

    def test_rank_deficient_pencil_projects_to_5(self):
        r = build_resultant(systems.rank_deficient_pair_system())
        out = project_singular(r, normal_rank(r))
        assert out.size == 5 and out.m == 1
        # the generator is seeded inside: the same input projects the same way
        assert np.array_equal(project_singular(r, 5).coeffs, out.coeffs)
        lams = [lam for lam, _ in solve_pep(out)]
        for want in (1j, -1j):
            assert min(abs(lam - want) for lam in lams) <= 1e-6

    def test_projection_soundness_randomized(self):
        rng = np.random.default_rng(88)
        for _ in range(5):
            core = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
            emb = np.zeros((2, 6, 6), dtype=complex)
            emb[:, :4, :4] = core
            qu = np.linalg.qr(rng.standard_normal((6, 6)))[0]
            qv = np.linalg.qr(rng.standard_normal((6, 6)))[0]
            coeffs = np.einsum("ab,kbc,cd->kad", qu, emb, qv)
            r = MatrixPoly(coeffs, Basis.MONOMIAL)
            rank = normal_rank(r)
            assert rank == 4
            out = project_singular(r, rank)
            true = [l for l, _ in solve_pep(MatrixPoly(core, Basis.MONOMIAL))
                    if np.isfinite(l)]
            got = [l for l, _ in solve_pep(out) if np.isfinite(l)]
            for lam in true:
                assert min(abs(lam - g) for g in got) <= 1e-8 * max(1.0, abs(lam))

    def test_unreachable_rank_raises(self):
        r = build_resultant(systems.rank_deficient_pair_system())
        assert normal_rank(r) == 5  # a projection to rank 7 cannot be confirmed
        with pytest.raises(ProjectionFailureError):
            project_singular(r, 7)

    def test_rank_above_dimension_rejected(self):
        r = MatrixPoly(np.eye(2)[None], Basis.MONOMIAL)
        assert normal_rank(r) == 2
        with pytest.raises(ValueError):
            project_singular(r, 3)
