"""Tests for eigenvector coordinate extraction, residuals, and filtering."""

import numpy as np
import pytest

import systems
from multipolyeig import extract
from multipolyeig.dixon import DixonShape, build_resultant
from multipolyeig.extract import (
    Solution,
    SolutionSet,
    block_indices,
    filter_solutions,
    generic_nullspace_basis,
    refine,
    residual,
    vandermonde_ratios,
)
from multipolyeig.mpoly import Basis, MatrixPoly, Pmep
from multipolyeig.solver import solve


REFERENCE_EIGENVECTOR = np.array(
    [-0.7071, 0.4370, 1.0000, -0.6180, -0.5946, 0.3675, 0.8409, -0.5197]
)


def pair_shape():
    return DixonShape(2, (2, 2), (2, 2))


def nullspace_mask(r, tol=1e-13, rng=None):
    """Usable-entry mask from the generic null space: rows of small norm."""
    return np.linalg.norm(generic_nullspace_basis(r, rng=rng), axis=1) <= tol


class TestConfig:
    def test_rejects_bad_tolerance(self):
        # the residual gate on the read points is a keyword of solve, checked
        # on entry before any resultant is built
        with pytest.raises(ValueError, match="residual_tol"):
            solve(systems.quadratic_pair_system(), residual_tol=-1e-8)


class TestVandermondeRatios:
    def test_reference_eigenvector_ratio(self):
        x = vandermonde_ratios(REFERENCE_EIGENVECTOR[None], pair_shape())[0]
        assert abs(x[0] - 0.8409) <= 5e-4

    def test_exact_structure_is_exact(self):
        rng = np.random.default_rng(50)
        for d, tau, sizes in ((2, (2, 2), (2, 2)), (3, (2, 1, 1), (2, 1, 2))):
            sh = DixonShape(d, tau, sizes)
            x = rng.standard_normal(d - 1) + 1j * rng.standard_normal(d - 1)
            v = rng.standard_normal(sh.N) + 1j * rng.standard_normal(sh.N)
            got = vandermonde_ratios(systems.vandermonde_vector(sh, x, v)[None], sh)[0]
            assert np.max(np.abs(got - x)) <= 1e-14 * max(1.0, np.max(np.abs(x)))

    def test_block_indices_match_vandermonde_layout(self):
        sh = DixonShape(3, (2, 2, 1), (2, 2, 1))
        rng = np.random.default_rng(51)
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = rng.standard_normal(sh.N) + 1j * rng.standard_normal(sh.N)
        vec = systems.vandermonde_vector(sh, x, v)
        idx = block_indices(sh, (1, 2))
        want = x[0] ** 1 * x[1] ** 2 * v
        assert np.allclose(vec[idx], want, atol=1e-14)

    def test_mask_screens_corrupted_entries(self):
        sh = pair_shape()
        x = np.array([0.7 + 0.2j])
        v = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
        vec = systems.vandermonde_vector(sh, x, v)
        vec[2] += 5.0  # corrupt one divisor entry; it becomes the largest
        mask = np.ones(8, dtype=bool)
        mask[2] = False
        got = vandermonde_ratios(vec[None], sh, mask=mask)[0]
        assert abs(got[0] - x[0]) <= 1e-12
        bad = vandermonde_ratios(vec[None], sh)[0]
        assert abs(bad[0] - x[0]) > 1e-3

    def test_least_squares_ratio_over_kept_pairs(self):
        # off exact structure the read is the least-squares ratio of block
        # e_1 against block 0, over the entry pairs kept on both sides
        sh = pair_shape()
        rng = np.random.default_rng(52)
        vec = systems.vandermonde_vector(sh, np.array([0.7 + 0.2j]), np.arange(1.0, 5.0))
        vec = vec + 0.1 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
        mask = np.ones(8, dtype=bool)
        mask[5] = False  # the e_1 side of the pair (1, 5)
        b0, b1 = vec[[0, 2, 3]], vec[[4, 6, 7]]
        want = np.vdot(b0, b1) / np.vdot(b0, b0).real
        got = vandermonde_ratios(vec[None], sh, mask=mask)[0, 0]
        assert abs(got - want) <= 1e-15 * abs(want)

    # an unreadable row reads NaN in its stack; a lone vector is not a stack

    def test_missing_block_raises(self):
        sh = DixonShape(2, (1, 1), (2, 2))  # alpha = (0,): no degree-1 block
        assert np.all(np.isnan(vandermonde_ratios(np.ones((1, 4)), sh)))
        with pytest.raises(ValueError):
            vandermonde_ratios(np.ones(4), sh)

    def test_fully_masked_raises(self):
        sh = pair_shape()
        got = vandermonde_ratios(np.ones((1, 8)), sh, mask=np.zeros(8, dtype=bool))
        assert np.all(np.isnan(got))
        with pytest.raises(ValueError):
            vandermonde_ratios(np.ones(8), sh, mask=np.zeros(8, dtype=bool))

    def test_zero_divisor_block_raises(self):
        sh = pair_shape()
        vec = np.zeros(8, dtype=complex)
        vec[4:] = 1.0
        assert np.all(np.isnan(vandermonde_ratios(vec[None], sh)))
        with pytest.raises(ValueError):
            vandermonde_ratios(vec, sh)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            vandermonde_ratios(np.ones((1, 7)), pair_shape())


class TestGenericNullspaceMask:
    def test_nonsingular_all_usable(self):
        r = build_resultant(systems.quadratic_pair_system())
        mask = nullspace_mask(r, rng=0)
        assert mask.all()

    def test_zero_coordinates_masked(self):
        r = build_resultant(systems.rank_deficient_pair_system())
        mask = nullspace_mask(r, rng=0)
        assert not mask[0] and not mask[4] and not mask[5]
        # remaining coordinates participate in the rank-5 core and stay usable
        assert mask[[1, 2, 3, 6, 7]].all()

    def test_planted_nullspace_mix(self):
        rng = np.random.default_rng(52)
        sh = pair_shape()
        coeffs = rng.standard_normal((2, 8, 8)) + 1j * rng.standard_normal((2, 8, 8))
        coeffs[:, :, 2] = 0.0  # e_2 spans the generic null space
        r = MatrixPoly(coeffs, Basis.MONOMIAL)
        mask = nullspace_mask(r, rng=1)
        assert not mask[2] and np.count_nonzero(~mask) == 1
        x = np.array([0.7 + 0.2j])
        vec = systems.vandermonde_vector(sh, x, np.array([1.0, 2, 3, 4]))
        vec[2] += 5.0
        good = vandermonde_ratios(vec[None], sh, mask=mask)[0]
        assert abs(good[0] - x[0]) <= 1e-8

    def test_mask_monotone_in_tolerance(self):
        r = build_resultant(systems.rank_deficient_pair_system())
        prev = None
        for tol in (1e-16, 1e-13, 1e-10, 1e-2):
            mask = nullspace_mask(r, tol, rng=3)
            if prev is not None:
                assert np.all(prev <= mask)  # usable entries only grow with tol
            prev = mask


class TestResidual:
    def test_quadratic_pair_true_root(self):
        p = systems.quadratic_pair_system()
        root = systems.quadratic_pair_solutions()[0]
        assert residual(p, root) <= 1e-12

    def test_nonroot_is_large(self):
        p = systems.quadratic_pair_system()
        assert residual(p, np.array([0.3 + 0.1j, 2.0])) > 1e-3

    def test_zero_polynomial_contributes_zero(self):
        p = systems.quadratic_pair_system()
        zero = MatrixPoly(np.zeros((3, 3, 2, 2)), Basis.MONOMIAL)
        mixed = Pmep([p.polys[0], zero])
        x = np.array([0.5, -0.25j])
        single = np.linalg.svd(p.polys[0].eval(x), compute_uv=False)[-1]
        single /= p.polys[0].max_coeff_norm()
        assert residual(mixed, x) == pytest.approx(single)

    def test_scale_invariance(self):
        rng = np.random.default_rng(53)
        p = systems.random_pmep(rng, (2, 3), (2, 1))
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        scaled = Pmep([
            MatrixPoly(2.0**6 * p.polys[0].coeffs, p.polys[0].basis),
            MatrixPoly(2.0**-4 * p.polys[1].coeffs, p.polys[1].basis),
        ])
        assert residual(scaled, x) == residual(p, x)

    def test_stack_matches_points(self):
        rng = np.random.default_rng(54)
        p = systems.random_pmep(rng, (2, 3), (2, 1))
        pts = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        assert list(residual(p, pts)) == [residual(p, x) for x in pts]


class TestFiniteRows:
    def test_drops_only_the_failing_rows(self):
        # row 2 is finite in the first stack only; row 5 is finite but
        # exactly singular, so LAPACK rejects every stack that holds it
        rng = np.random.default_rng(64)
        mats = rng.standard_normal((8, 3, 3)) + 1j * rng.standard_normal((8, 3, 3))
        rhs = rng.standard_normal((8, 3, 1)) + 1j * rng.standard_normal((8, 3, 1))
        rhs[2, 1, 0] = np.nan
        mats[5, :, 0] = 0.0

        def fn(a, b):
            return np.linalg.solve(a, b)[..., 0]

        got = extract._finite_rows(fn, mats, rhs, width=3)
        assert np.all(np.isnan(got[[2, 5]]))
        for j in (0, 1, 3, 4, 6, 7):
            assert np.array_equal(got[j], fn(mats[j : j + 1], rhs[j : j + 1])[0])


class TestRefine:
    def test_perturbed_root_comes_back(self):
        p = systems.quadratic_pair_system()
        roots = np.array(systems.quadratic_pair_solutions())
        rng = np.random.default_rng(60)
        kick = rng.standard_normal(roots.shape) + 1j * rng.standard_normal(roots.shape)
        start = roots + 1e-6 * kick / np.abs(kick)
        points, res = refine(p, start)
        # quadratic convergence: an error of 1e-6 falls to about 1e-12
        assert np.max(np.abs(points - roots)) <= 1e-10
        assert np.max(res) <= 1e-10 < min(residual(p, x) for x in start)

    def test_singular_jacobian_leaves_only_that_point(self):
        # at x = 2, P = diag(0, 0, -3): the null space is two-dimensional, so
        # the bordered Jacobian is exactly singular; x = 5 is a simple root
        c = np.zeros((2, 3, 3))
        c[0] = np.diag([-2.0, -2.0, -5.0])
        c[1] = np.eye(3)
        p = Pmep([MatrixPoly(c)])
        # a point that was never read (NaN) comes back as it was, with an
        # infinite residual
        start = np.array([[2.0], [5.0 + 1e-6], [np.inf], [np.nan]])
        points, res = refine(p, start)
        assert points[0, 0] == 2.0 and res[0] == 0.0
        assert abs(points[1, 0] - 5.0) <= 1e-12
        assert points[2, 0] == np.inf and res[2] == np.inf
        assert np.isnan(points[3, 0]) and res[3] == np.inf

    def test_never_worse_than_the_input(self):
        # points near roots, where the step helps, and random points, where
        # it mostly does not.  The input's residual is that of its triplet
        # with the SVD's null vectors, and the default tol takes one step
        p = systems.quadratic_pair_system()
        rng = np.random.default_rng(61)
        roots = np.array(systems.quadratic_pair_solutions())
        start = np.concatenate([
            roots + 1e-3 * rng.standard_normal(roots.shape),
            rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2)),
        ])
        stepped, _, after, before = extract._newton_step(p, start)
        points, res = refine(p, start)
        assert np.all(res <= before)
        moved = np.any(points != start, axis=1)
        assert np.array_equal(points[moved], stepped[moved])
        assert np.array_equal(res, np.where(moved, after, before))
        # the triplet's residual bounds sigma_min / scale_i, up to rounding
        assert np.all(residual(p, points) <= res + 1e-14)

    def test_supplied_null_vectors_take_the_first_step(self, monkeypatch):
        # each equation's null vectors at the true roots, and the roots kicked
        # by 1e-6: one step with them brings every point back, and only the
        # row whose vector is not finite makes a with-vector SVD
        p = systems.quadratic_pair_system()
        roots = np.array(systems.quadratic_pair_solutions())
        vecs = [
            np.array([systems.null_vector(poly.eval(x)) for x in roots]) for poly in p.polys
        ]
        vecs[0][3] = np.nan
        rng = np.random.default_rng(64)
        kick = rng.standard_normal(roots.shape) + 1j * rng.standard_normal(roots.shape)
        start = roots + 1e-6 * kick / np.abs(kick)
        with_vectors = []
        svd = np.linalg.svd

        def recorded(a, *args, **kwargs):
            if kwargs.get("compute_uv", True):
                with_vectors.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recorded)
        points, res = refine(p, start, vecs=vecs)
        assert with_vectors == [(1, 2, 2)]
        assert np.max(res) <= 1e-12
        assert np.max(np.abs(points - roots)) <= 1e-10

    def test_residual_is_the_pre_step_value(self):
        # with finite vectors supplied, the pre-step residual is
        # max_i ||P_i(x) v_i|| / (||v_i|| scale_i) of the given triplets,
        # above sigma_min / scale_i, and a row's bits do not depend on the
        # other rows of the stack
        rng = np.random.default_rng(62)
        p = systems.random_pmep(rng, (3, 2, 1), (1, 2, 1), Basis.CHEBYSHEV1)
        start = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
        vecs = [
            rng.standard_normal((7, n)) + 1j * rng.standard_normal((7, n)) for n in p.sizes
        ]
        before = extract._newton_step(p, start, vecs)[3]
        want = [
            max(
                np.linalg.norm(poly.eval(x) @ v[j]) / np.linalg.norm(v[j]) / poly.max_coeff_norm()
                for poly, v in zip(p.polys, vecs)
            )
            for j, x in enumerate(start)
        ]
        np.testing.assert_allclose(before, want, rtol=1e-12)
        assert np.all(before > residual(p, start))
        for j in range(len(start)):
            one = extract._newton_step(p, start[j : j + 1], [v[j : j + 1] for v in vecs])
            assert one[3][0] == before[j]

    def test_zero_polynomial_contributes_zero(self):
        # as in `residual`, a zero equation adds nothing to the triplet's
        # residual; its Jacobian block is zero, so the step is singular and
        # the point keeps the residual of the other equation
        p = systems.quadratic_pair_system()
        zero = MatrixPoly(np.zeros((3, 3, 2, 2)), Basis.MONOMIAL)
        mixed = Pmep([p.polys[0], zero])
        x = np.array([[0.5, -0.25j]])
        vecs = [np.array([[1.0, 2.0j]]), np.array([[1.0, 0.0]])]
        points, res = refine(mixed, x, vecs=vecs)
        poly = p.polys[0]
        want = np.linalg.norm(poly.eval(x[0]) @ vecs[0][0]) / np.linalg.norm(vecs[0][0])
        assert np.array_equal(points, x)
        assert res[0] == pytest.approx(want / poly.max_coeff_norm(), rel=1e-12)

    def test_failing_rows_step_again_while_converging(self, monkeypatch):
        # roots kicked by 1e-6 pass after one step; kicked by 5e-3 they are
        # still above the tolerance after one step but converging, so only
        # they step again; random points far from any root do not
        p = systems.quadratic_pair_system()
        roots = np.array(systems.quadratic_pair_solutions())
        rng = np.random.default_rng(63)
        kick = rng.standard_normal(roots.shape) + 1j * rng.standard_normal(roots.shape)
        kick /= np.abs(kick)
        far = rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2))
        start = np.concatenate([roots + 1e-6 * kick, roots + 5e-3 * kick, far])
        one_step, one_res = refine(p, start)
        rows, calls = [], []
        step = extract._newton_step

        def recorded(p, X, *args):
            rows.append(len(X))
            calls.append((args, step(p, X, *args)))
            return calls[-1][1]

        monkeypatch.setattr(extract, "_newton_step", recorded)
        points, res = refine(p, start, tol=1e-8)
        n = len(roots)
        assert rows == [len(start), n]
        assert np.min(one_res[n : 2 * n]) > 1e-8 >= np.max(res[: 2 * n])
        assert np.array_equal(points[:n], one_step[:n])
        assert np.array_equal(points[2 * n :], one_step[2 * n :])
        # the second step starts from the first one's point, vectors and
        # residual, and its rows return the residual of the triplet they keep
        (_, first), ((vecs, before), second) = calls
        again = slice(n, 2 * n)
        assert np.array_equal(before, first[2][again])
        assert all(np.array_equal(v, w[again]) for v, w in zip(vecs, first[1]))
        stepped, _, after, _ = second
        better = (after < before)[:, None]
        assert np.array_equal(points[again], np.where(better, stepped, first[0][again]))
        assert np.array_equal(res[again], np.minimum(after, before))
        assert np.all(residual(p, points) <= res + 1e-14)

    def test_empty_batch(self):
        points, res = refine(systems.quadratic_pair_system(), np.zeros((0, 2)))
        assert points.shape == (0, 2) and res.shape == (0,)


class TestFilterSolutions:
    def test_quadratic_pair_all_kept(self):
        p = systems.quadratic_pair_system()
        cands = [
            Solution(x, residual(p, x)) for x in systems.quadratic_pair_solutions()
        ]
        out = filter_solutions(cands, 1e-8)
        assert len(out) == 8

    def test_empty(self):
        out = filter_solutions([], 1e-8)
        assert len(out) == 0
        assert isinstance(out, SolutionSet)

    def test_spurious_removed(self):
        good = Solution(np.array([1.0, 2.0]), 1e-12)
        bad = Solution(np.array([9.0, 9.0]), 1.0)
        out = filter_solutions([bad, good], 1e-8)
        assert len(out) == 1
        assert np.allclose(out[0].x, [1.0, 2.0])

    def test_duplicates_keep_smaller_residual(self):
        a = Solution(np.array([1.0, 2.0]), 1e-10)
        b = Solution(np.array([1.0 + 1e-12, 2.0]), 1e-13)
        out = filter_solutions([a, b], 1e-8)
        assert len(out) == 1
        assert out[0].residual == 1e-13

    def test_sorted_by_residual(self):
        sols = [
            Solution(np.array([float(k), 0.0]), 10.0**-k) for k in range(9, 12)
        ]
        out = filter_solutions(sols[::-1], 1e-8)
        assert [s.residual for s in out] == sorted(s.residual for s in sols)

    def test_nearby_but_distinct_points_kept(self):
        a = Solution(np.array([1.0, 2.0]), 1e-12)
        b = Solution(np.array([1.0 + 1e-5, 2.0]), 1e-12)
        out = filter_solutions([a, b], 1e-8)
        assert len(out) == 2

    def test_a_read_copy_clears_reduced(self):
        # the reduced copy wins the residual tie by its last bits; the kept
        # point still reads as read, since a copy of it was
        reduced = Solution(np.array([1.0, 2.0]), 2.08e-14, {"reduced": True})
        read = Solution(np.array([1.0 + 1e-13, 2.0]), 2.18e-14, {"reduced": False})
        out = filter_solutions([read, reduced], 1e-8)
        assert len(out) == 1
        assert out[0].residual == 2.08e-14
        assert out[0].flags["reduced"] is False


class TestSolutionTypes:
    def test_default_flags(self):
        s = Solution(np.array([1.0]), 0.0)
        assert s.flags == {"projected": False, "reduced": False}

    def test_points_matrix(self):
        ss = SolutionSet([Solution(np.array([1.0, 2.0]), 0.0)], {"resultant_size": 8})
        assert ss.points().shape == (1, 2)
        assert ss.diagnostics["resultant_size"] == 8
