"""End-to-end solver tests: pipeline paths, invariances, and frozen systems."""

import inspect
import warnings

import numpy as np
import pytest

import multipolyeig
import systems
from multipolyeig import extract, pep, solver
from multipolyeig.dixon import DixonShape, build_resultant
from multipolyeig.errors import SingularPencilError
from multipolyeig.extract import _first_copy
from multipolyeig.io import serialize_solutions
from multipolyeig.mpoly import Basis, MatrixPoly, Pmep
from multipolyeig.opdet import solve_linear_mep
from multipolyeig.solver import (
    _substituted_candidates,
    choose_hidden_variable,
    solve,
)

from test_opdet import random_linear_mep
from test_pep import det_roots, match_sets

DIAG_KEYS = {
    "resultant_size",
    "normal_rank",
    "projected",
    "dropped_eigenpairs",
}


def assert_contains_points(found, wanted, tol):
    """Every point in wanted has a match in found (max-norm distance <= tol)."""
    found = np.asarray(found)
    assert found.size > 0
    for w in wanted:
        dist = np.min(np.max(np.abs(found - np.asarray(w)), axis=1))
        assert dist <= tol, f"{w} unmatched (closest at distance {dist:.2e})"


def assert_same_points(a, b, tol):
    a = np.asarray(a)
    b = np.asarray(b)
    assert a.shape == b.shape
    assert_contains_points(a, b, tol)
    assert_contains_points(b, a, tol)


def cross_term_system(seed, sizes, tau):
    """Dense random system; degree-one instances still carry cross terms."""
    rng = np.random.default_rng(seed)
    return systems.random_pmep(rng, sizes, tau)


class TestChooseHiddenVariable:
    @pytest.mark.parametrize(
        "tau, want",
        [
            ((2, 1), 2),
            ((1, 2), 1),
            ((2, 2), 2),
            ((3, 2), 1),
            ((1, 1, 3), 2),
            ((3, 1, 1), 3),
        ],
    )
    def test_known_choices(self, tau, want):
        rng = np.random.default_rng(7)
        p = systems.random_pmep(rng, (1,) * len(tau), tau)
        assert choose_hidden_variable(p) == want


class TestConfigValidation:
    def test_defaults(self):
        # a solve has two settings, both keyword-only: the hidden variable and
        # the residual gate; the read takes no knobs
        kinds = [(q.name, q.kind, q.default) for q in inspect.signature(solve).parameters.values()]
        assert kinds == [
            ("p", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
            ("hide_variable", inspect.Parameter.KEYWORD_ONLY, None),
            ("residual_tol", inspect.Parameter.KEYWORD_ONLY, 1e-8),
        ]

    def test_bad_tolerances(self):
        p = systems.quadratic_pair_system()
        for bad in (0.0, -1.0, -1e-8, np.nan, np.inf):
            with pytest.raises(ValueError, match="residual_tol"):
                solve(p, residual_tol=bad)
        # a solve takes no seed, and works in the input's basis at pep.RANK_TOL
        for name, value in (("seed", 0), ("rank_tol", 1e-10), ("basis", Basis.CHEBYSHEV1)):
            with pytest.raises(TypeError, match=name):
                solve(p, **{name: value})

    def test_no_config_object(self):
        # the settings are keywords, so a call that still passes a config
        # positionally fails loudly, and no config class is left to build one
        with pytest.raises(TypeError):
            solve(systems.quadratic_pair_system(), None)
        assert not hasattr(multipolyeig, "SolverConfig")
        assert not hasattr(solver, "SolverConfig")

    def test_solve_rejects_non_system(self):
        with pytest.raises(ValueError):
            solve("not a system")

    def test_hide_variable_out_of_range(self):
        # 1-based: both ends of the range are checked in one place
        p = systems.quadratic_pair_system()
        for hide in (-1, 0, 3):
            with pytest.raises(ValueError, match="hide_variable"):
                solve(p, hide_variable=hide)

    def test_missing_variable_rejected(self):
        # second variable has degree zero: the point set is a curve, not finite
        with pytest.raises(ValueError):
            solve(systems.univariate_pair_system())


class TestQuadraticPair:
    def test_default_pipeline(self):
        p = systems.quadratic_pair_system()
        out = solve(p)
        assert len(out) == 8
        assert max(s.residual for s in out) <= 1e-10
        assert_same_points(out.points(), systems.quadratic_pair_solutions(), 1e-6)
        real_pair = np.array([2.0**0.25, (-1 - np.sqrt(5)) / 2 / 2.0**0.25])
        assert_contains_points(out.points(), [real_pair], 1e-8)
        assert set(out.diagnostics) == DIAG_KEYS
        # every root is read off its eigenvector; none needs the fallback
        assert not out.diagnostics["projected"]
        assert all(not s.flags["reduced"] for s in out)

    def test_without_rotation(self):
        p = systems.quadratic_pair_system()
        out = solve(p)
        assert len(out) == 8
        assert max(s.residual for s in out) <= 1e-12
        assert_same_points(out.points(), systems.quadratic_pair_solutions(), 1e-8)
        assert out.diagnostics["resultant_size"] == 8
        assert out.diagnostics["normal_rank"] == 8
        assert not out.diagnostics["projected"]

    def test_explicit_hidden_variable_recovers_all_roots(self):
        # hiding x makes the four x-values double eigenvalues and drops the
        # resultant's rank; the deflation and the reduction still recover
        # all eight roots
        p = systems.quadratic_pair_system()
        for hide in (1, 2):
            out = solve(p, hide_variable=hide)
            assert_same_points(
                out.points(), systems.quadratic_pair_solutions(), 1e-6
            )
        out = solve(p, hide_variable=1)
        assert out.diagnostics["normal_rank"] == 4
        assert all(s.flags["reduced"] for s in out)

    def test_explicit_hide_without_rotation_is_silent(self):
        p = systems.quadratic_pair_system()
        for hide in (1, 2):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = solve(p, hide_variable=hide)
            assert_same_points(
                out.points(), systems.quadratic_pair_solutions(), 1e-6
            )

    def test_chebyshev_input(self):
        p = systems.quadratic_pair_system(Basis.CHEBYSHEV1)
        out = solve(p)
        assert_same_points(out.points(), systems.quadratic_pair_solutions(), 1e-6)

    def test_basis_override(self):
        p = systems.quadratic_pair_system()
        out = solve(p.convert_basis(Basis.CHEBYSHEV1))
        assert_same_points(out.points(), systems.quadratic_pair_solutions(), 1e-6)

    def test_determinism(self):
        p = systems.quadratic_pair_system()
        a = solve(p)
        b = solve(p)
        assert len(a) == len(b)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.x, sb.x)
            assert sa.residual == sb.residual
        assert a.diagnostics == b.diagnostics


class TestRankDeficientPair:
    # the plain pair's resultant is singular only structurally: dropping its
    # zero rows and columns leaves a regular core of side 5; the mixed pair
    # A_i P_i B_i has the same roots and normal rank but no zero row or
    # column, so only the projection removes its singularity
    def test_projected_pipeline(self):
        p = systems.mixed_rank_deficient_pair_system()
        out = solve(p)
        assert len(out) == 2
        assert max(s.residual for s in out) <= 1e-8
        assert_same_points(
            out.points(), systems.rank_deficient_pair_solutions(), 1e-6
        )
        assert out.diagnostics["resultant_size"] == 8
        assert out.diagnostics["normal_rank"] == 5
        assert out.diagnostics["projected"] is True
        # a projected pencil's eigenvectors are not read
        assert all(s.flags == {"reduced": True} for s in out)

    def test_default_pipeline(self):
        p = systems.rank_deficient_pair_system()
        out = solve(p)
        assert len(out) == 2
        assert_same_points(
            out.points(), systems.rank_deficient_pair_solutions(), 1e-6
        )
        assert out.diagnostics["resultant_size"] == 8
        assert out.diagnostics["normal_rank"] == 5
        assert out.diagnostics["projected"] is False
        assert all(not s.flags["reduced"] for s in out)

    @pytest.mark.parametrize("copies", [1, 3])
    def test_overflowing_eigenvalue_is_dropped(self, monkeypatch, copies):
        # an eigenvalue where R(lambda) overflows must not reach an SVD: with
        # vectors, LAPACK's SVD of a complex matrix holding inf never returns.
        # Its copies are re-solved once, by the first, and each is dropped
        lam = complex(1e308, 1e308)
        solve_pep = solver.solve_pep

        def with_overflow(R, vectors=True, max_cond=np.inf):
            vec = np.ones(R.size, dtype=complex) if vectors else None
            return solve_pep(R, vectors=vectors, max_cond=max_cond) + [(lam, vec)] * copies

        monkeypatch.setattr(solver, "solve_pep", with_overflow)
        svd = np.linalg.svd

        def finite_svd(a, *args, **kwargs):
            if not np.all(np.isfinite(a)):
                raise AssertionError("SVD of a matrix that is not finite")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", finite_svd)
        p = systems.mixed_rank_deficient_pair_system()
        R = build_resultant(p)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.all(np.isfinite(R.eval(lam)))
        out = solve(p)
        assert out.diagnostics["projected"]
        assert_same_points(out.points(), systems.rank_deficient_pair_solutions(), 1e-8)
        assert out.diagnostics["dropped_eigenpairs"] == copies

    def test_resultant_evaluated_only_at_probe_points(self, monkeypatch):
        # the projected pencil's eigenvectors are not read, so R is evaluated
        # at the rank probes only, never at an eigenvalue
        points, lams = [], []
        evaluate, solve_pep = MatrixPoly.eval, solver.solve_pep

        def recorded(self, xd):
            points.append(xd)
            return evaluate(self, xd)

        def recorded_pep(*args, **kwargs):
            pairs = solve_pep(*args, **kwargs)
            lams.extend(lam for lam, _ in pairs)
            return pairs

        monkeypatch.setattr(MatrixPoly, "eval", recorded)
        monkeypatch.setattr(solver, "solve_pep", recorded_pep)
        out = solve(systems.mixed_rank_deficient_pair_system())
        assert out.diagnostics["projected"]
        assert len(out) == 2
        assert points and lams
        gaps = np.abs(np.subtract.outer(np.array(points), np.array(lams)))
        assert np.min(gaps) > 1e-6

    @pytest.mark.parametrize("seed", [0, 2, 7])
    def test_early_stopping_probe_keeps_the_projection(self, seed, monkeypatch):
        # the projected pencil shows full rank at its first shift and the
        # probe stops there; the document is that of a probe that always
        # takes all three shifts, whichever mixing hides the singularity
        p = systems.mixed_rank_deficient_pair_system(seed)
        points, probed, evaluate, real = [], [], MatrixPoly.eval, pep.normal_rank

        def counted_eval(self, x):
            points.append(x)
            return evaluate(self, x)

        def recorded(R):
            points.clear()
            rank = real(R)
            probed.append(len(points))
            return rank

        def probe_all(R):
            sv = [np.linalg.svd(R.eval(z), compute_uv=False) for z in pep._SHIFTS]
            return max(int(np.count_nonzero(s / s[0] > pep.RANK_TOL)) for s in sv)

        def solved_with(probe):
            monkeypatch.setattr(pep, "normal_rank", probe)
            monkeypatch.setattr(solver, "normal_rank", probe)
            return serialize_solutions(solve(p))

        monkeypatch.setattr(MatrixPoly, "eval", counted_eval)
        document = solved_with(recorded)
        # singular R: all three shifts; the confirmed projection: one
        assert probed == [3, 1]
        assert document == solved_with(probe_all)

    def test_projected_roots_are_refined(self):
        # the projected pencil's eigenvalues come back unrefined; the Newton
        # steps on the original system take the roots to roundoff
        out = solve(systems.mixed_rank_deficient_pair_system())
        assert out.diagnostics["projected"]
        assert len(out) == 2
        assert np.median([s.residual for s in out]) <= 5e-16


class TestWaveguide:
    # an acoustic layer between two fluid half-spaces: half of the rows and
    # half of the columns of its resultant are zero at every coefficient, and
    # the core left when they are dropped is regular, so no solve is projected
    def test_projected_kronecker_read_does_not_raise(self):
        # u = k^2 model with x_3 hidden leaves u in front with no ratio block,
        # so it is read from the Kronecker factors of every eigenvector; at
        # the seeds where a projected solve's read once raised, the deflated
        # core keeps all of block 0 and reads every root
        out = solve(systems.waveguide_system(8, even=True), hide_variable=3)
        assert out.diagnostics["projected"] is False
        assert len(out) == 28
        assert all(not s.flags["reduced"] for s in out)
        assert max(s.residual for s in out) <= 1e-8

    def test_masked_ratio_block_takes_fallback(self):
        # k model, kappa_2 hidden: k enters only as k^2, so the roots come in
        # pairs (+-k, kappa_1, kappa_2) that share kappa_2; every eigenvalue is
        # double, its eigenvectors mix, and every eigenpair takes the
        # fallback's nested solve
        out = solve(systems.waveguide_system(8))
        assert out.diagnostics["projected"] is False
        assert len(out) == 56
        assert all(s.flags["reduced"] for s in out)
        assert out.diagnostics["dropped_eigenpairs"] == 0
        assert max(s.residual for s in out) <= 1e-8

    def test_nested_projection_is_reported(self, monkeypatch):
        # u = k^2 model at n = 48, u hidden: two roots share u, their
        # eigenvectors mix, and the fallback's nested (P_1, P_2) resultant at
        # that u is singular, so the nested solve projects its pencil while
        # the top-level one is not projected
        calls = []

        def recorded(*args, **kwargs):
            calls.append(args[0].size)
            return project_singular(*args, **kwargs)

        project_singular = solver.project_singular
        monkeypatch.setattr(solver, "project_singular", recorded)
        out = solve(systems.waveguide_system(48, even=True))
        assert calls == [96]
        assert out.diagnostics["normal_rank"] == 192
        assert out.diagnostics["projected"] is True
        assert any(s.flags["reduced"] for s in out)

    @pytest.mark.parametrize(
        "n, even, hide, count",
        [(36, True, None, 140), (48, True, None, 188), (48, True, 2, 188), (48, False, 1, 376)],
    )
    def test_shared_coordinate_roots_are_all_found(self, n, even, hide, count):
        # a pair of roots shares u (k) and kappa_1, so their eigenvectors mix
        # and the pair takes the fallback.  At the shared eigenvalue (P_1, P_2)
        # leave kappa_2 free, and P_3 rejects every point of their nested
        # solve; the subsystems that leave out P_2 or P_1 find both roots
        out = solve(systems.waveguide_system(n, even=even), hide_variable=hide)
        assert len(out) == count

    def test_fallback_candidates_take_further_newton_steps(self):
        # u = k^2 model at n = 24, u hidden: every root is read from the
        # deflated core's eigenvectors; 12 of the read candidates are still
        # above the gate after one Newton step and pass only after more, which
        # keeps them out of the fallback
        out = solve(systems.waveguide_system(24, even=True))
        assert out.diagnostics["projected"] is False
        assert out.diagnostics["normal_rank"] < out.diagnostics["resultant_size"]
        assert len(out) == 92
        assert all(not s.flags["reduced"] for s in out)
        assert out.diagnostics["dropped_eigenpairs"] == 0
        assert max(s.residual for s in out) <= 1e-8

    def test_k_model_hiding_k_reads_every_root(self, monkeypatch):
        # k model at n = 8, k hidden: the deflated core's eigenvectors give
        # all 56 roots, with no fallback, so the core is not projected (a
        # projected pencil reads nothing).  The fallback's nested solves at
        # the eigenvalues that belong to no root do project their pencils,
        # and `projected` reports nested pencils too
        calls = []

        def recorded(*args, **kwargs):
            calls.append(args[0].size)
            return project_singular(*args, **kwargs)

        project_singular = solver.project_singular
        monkeypatch.setattr(solver, "project_singular", recorded)
        out = solve(systems.waveguide_system(8), hide_variable=1)
        assert calls == [2, 2]
        assert out.diagnostics["projected"] is True
        assert len(out) == 56
        assert all(not s.flags["reduced"] for s in out)
        assert max(s.residual for s in out) <= 1e-8


class TestDeflation:
    def test_unequal_zero_counts_are_projected_whole(self):
        # one zero row and no zero column leave no square core: R is
        # projected whole, and every root comes from the fallback
        p = systems.shared_factor_system()
        R = build_resultant(p)
        top = np.max(np.abs(R.coeffs))
        zero = np.abs(R.coeffs) <= 1e-10 * top
        assert (R.size, R.m) == (4, 3)
        assert np.count_nonzero(np.all(zero, axis=(0, 2))) == 1
        assert np.count_nonzero(np.all(zero, axis=(0, 1))) == 0
        out = solve(p)
        assert out.diagnostics["projected"] is True
        assert out.diagnostics["normal_rank"] == 3
        assert len(out) > 0
        assert np.all(extract.residual(p, out.points()) <= 1e-8)

    def test_kept_columns_that_leave_a_read_short(self):
        # a ratio read needs one kept entry pair: without one the row reads NaN
        ratio = DixonShape(2, (2, 2), (2, 2))  # blocks 0 and e_1, side 4 each
        vec = systems.vandermonde_vector(ratio, np.array([0.5]), np.arange(1.0, 5.0))
        keep = np.ones(8, dtype=bool)
        keep[[0, 5, 6, 7]] = False  # every entry pair (j, j + 4) loses a side
        assert np.all(np.isnan(extract.vandermonde_ratios(vec[None], ratio, keep)))
        keep[7] = True  # the pair (3, 7) is whole again
        assert np.allclose(extract.vandermonde_ratios(vec[None], ratio, keep), 0.5)
        # a Kronecker read factors all of block 0: with a column of it
        # dropped there are no factors, every eigenpair reads NaN, and each
        # root comes from the fallback
        p = systems.rank_one_front_system(np.random.default_rng(0))
        work, unpermute = solver._hide(p, None)
        pairs, info = solver._eigenpairs(work, unpermute)
        assert info == {"resultant_size": 4, "normal_rank": 3, "projected": False}
        assert pairs.factors is None
        assert len(pairs.lam) > 0
        assert np.all(np.isnan(pairs.x[:, 0]))
        out = solve(p)
        assert len(out) == 4
        assert all(s.flags["reduced"] for s in out)
        assert np.all(extract.residual(p, out.points()) <= 1e-8)

    @pytest.mark.parametrize("draw, count", [(32, 1), (294, 15)])
    def test_no_eigenvectors_when_a_coordinate_has_no_read(self, monkeypatch, draw, count):
        # the kept columns of these sparse draws (seed 20261018) leave a
        # front coordinate without a read; in the trivariate draw the other
        # coordinate keeps its ratio pair, but a point needs both.  The
        # solve asks for eigenvalues only, and the fallback finds every root
        rng = np.random.default_rng(20261018)
        for _ in range(draw + 1):
            p = systems.sparse_random_pmep(rng)
        asked = []
        solve_pep = solver.solve_pep

        def recorded(R, vectors=True, max_cond=np.inf):
            asked.append(vectors)
            return solve_pep(R, vectors, max_cond)

        monkeypatch.setattr(solver, "solve_pep", recorded)
        work, unpermute = solver._hide(p, None)
        pairs, info = solver._eigenpairs(work, unpermute)
        assert asked == [False] and not info["projected"]
        assert len(pairs.lam) > 0 and np.all(np.isnan(pairs.x).any(axis=1))
        out = solve(p)
        assert len(out) == count and all(s.flags["reduced"] for s in out)

    def test_sparse_random_systems(self):
        # sparse inputs give singular resultants with and without structural
        # zeros, curves of roots and roots at infinity; none may raise, and
        # every root returned must pass the gate
        rng = np.random.default_rng(0)
        for _ in range(60):
            p = systems.sparse_random_pmep(rng)
            out = solve(p)
            if len(out):
                assert np.all(extract.residual(p, out.points()) <= 1e-8), p


@pytest.fixture
def rank_machinery(monkeypatch):
    """Count the calls a solve makes, nested solves included, to the
    deflation, the rank probe, the projection and the eigensolve."""
    calls = {"_structural_core": 0, "normal_rank": 0, "project_singular": 0, "solve_pep": 0}

    def counted(name):
        original = getattr(solver, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(solver, name, wrapper)

    for name in calls:
        counted(name)
    return calls


class TestCertifiedResultant:
    # every R first loses its structurally zero rows and columns; a shift
    # where the core's R(sigma) is well conditioned certifies the core
    # regular, and only a core that no shift certifies is probed and
    # projected
    @pytest.mark.parametrize(
        "make, count",
        [
            (lambda: systems.random_pmep(np.random.default_rng(3), (2, 2), (2, 2)), 32),
            (lambda: random_linear_mep(np.random.default_rng(4), (3, 2)), 6),
            (lambda: systems.random_pmep(np.random.default_rng(5), (1, 1, 1), (1, 1, 1)), 6),
        ],
        ids=["dense_d2", "linear_mep", "scalar_d3"],
    )
    def test_regular_input_skips_the_rank_machinery(self, rank_machinery, make, count):
        p = make()
        out = solve(p)
        assert rank_machinery == {
            "_structural_core": 1,
            "normal_rank": 0,
            "project_singular": 0,
            "solve_pep": 1,
        }
        assert len(out) == count
        assert out.diagnostics["normal_rank"] == out.diagnostics["resultant_size"]
        assert out.diagnostics["projected"] is False

    def test_deflated_core_is_certified_with_one_eigensolve(self, rank_machinery):
        # the resultant of side 8 has 3 structurally zero rows and columns;
        # its core of side 5 is regular, so one solve both certifies and
        # solves it, its rank is never probed, and both roots are read
        work, unpermute = solver._hide(systems.rank_deficient_pair_system(), None)
        pairs, info = solver._eigenpairs(work, unpermute)
        assert rank_machinery["solve_pep"] == 1
        assert rank_machinery["normal_rank"] == 0
        assert info == {"resultant_size": 8, "normal_rank": 5, "projected": False}
        read = pairs.x[np.all(np.isfinite(pairs.x), axis=1)]
        assert_same_points(read, systems.rank_deficient_pair_solutions(), 1e-8)

    @pytest.mark.parametrize(
        "make, size, rank, projected",
        [
            (systems.mixed_rank_deficient_pair_system, 8, 5, True),
            (systems.shared_factor_system, 4, 3, True),
        ],
    )
    def test_singular_resultant_is_probed(self, rank_machinery, make, size, rank, projected):
        out = solve(make())
        assert rank_machinery["_structural_core"] >= 1
        assert rank_machinery["normal_rank"] >= 1
        assert (rank_machinery["project_singular"] >= 1) == projected
        assert out.diagnostics["resultant_size"] == size
        assert out.diagnostics["normal_rank"] == rank
        assert out.diagnostics["projected"] is projected

    def test_ill_conditioned_regular_resultant_is_probed(self, rank_machinery):
        # R = diag(x - 1, 1e-8 (x - 2)) is regular, with full normal rank at
        # pep.RANK_TOL, but R(sigma) has condition about 1e8 at every shift
        c = np.zeros((2, 2, 2), dtype=complex)
        c[0] = np.diag([-1.0, -2e-8])
        c[1] = np.diag([1.0, 1e-8])
        R = MatrixPoly(c)
        with pytest.raises(SingularPencilError):
            pep.solve_pep(R, False, max_cond=pep.RANK_TOL**-0.5)
        out = solve(Pmep([R]))
        assert rank_machinery["normal_rank"] == 1
        assert rank_machinery["project_singular"] == 0
        assert rank_machinery["solve_pep"] == 2  # the failed certificate, then the solve
        assert out.diagnostics["normal_rank"] == 2
        assert out.diagnostics["projected"] is False
        assert_same_points(out.points(), [[1.0], [2.0]], 1e-12)

    def test_only_a_projection_creates_a_generator(self, monkeypatch):
        # the rank probe is deterministic: a certified core and an
        # uncertified one that probes regular, like the diag(x - 1,
        # 1e-8 (x - 2)) above, are solved without a generator
        def no_generator(*args, **kwargs):
            raise AssertionError("a solve that does not project created a generator")

        c = np.zeros((2, 2, 2), dtype=complex)
        c[0] = np.diag([-1.0, -2e-8])
        c[1] = np.diag([1.0, 1e-8])
        regular, certified = Pmep([MatrixPoly(c)]), systems.quadratic_pair_system()
        singular = systems.mixed_rank_deficient_pair_system()
        monkeypatch.setattr(solver.np.random, "default_rng", no_generator)
        out = solve(regular)
        assert out.diagnostics["normal_rank"] == 2
        assert out.diagnostics["projected"] is False
        assert_same_points(out.points(), [[1.0], [2.0]], 1e-12)
        assert len(solve(certified)) == 8
        with pytest.raises(AssertionError, match="generator"):
            solve(singular)


class TestLinearPath:
    def test_fast_path_matches_direct_solver(self):
        rng = np.random.default_rng(11)
        p = random_linear_mep(rng, (2, 3))
        out = solve(p)
        direct = solve_linear_mep(p)
        assert len(out) == len(direct) == 6
        assert_same_points(
            out.points(), [s.x for s in direct], 1e-8
        )
        assert not out.diagnostics["projected"]

    def test_dixon_resultant_agrees_with_operator_determinants(self, monkeypatch):
        # for d = 2 both pencils are x_2 Delta_0 - Delta_2, and both
        # eigenvectors are the single block v_1 kron v_2: x_1 is read from its
        # Kronecker factors either way
        rng = np.random.default_rng(12)
        p = random_linear_mep(rng, (2, 2))
        opdet = solve(p)
        monkeypatch.setattr(solver, "_as_linear_mep", lambda p: None)
        dixon = solve(p)
        assert len(dixon) == len(opdet) == 4
        assert_same_points(dixon.points(), opdet.points(), 1e-6)
        assert all(not s.flags["reduced"] for s in opdet)
        assert all(not s.flags["reduced"] for s in dixon)

    def test_cross_terms_take_generic_path(self):
        p = cross_term_system(5, (2, 2), (1, 1))
        assert solver._as_linear_mep(p) is None
        out = solve(p)
        assert all(not s.flags["reduced"] for s in out)
        assert max(s.residual for s in out) <= 1e-8
        other = solve(p, hide_variable=1)
        assert_same_points(out.points(), other.points(), 1e-5)

    def test_no_basis_conversion(self, monkeypatch):
        # a degree-one coefficient reads the same in either basis, so a linear
        # MEP is solved in its own basis and its document is its monomial
        # twin's, byte for byte
        rng = np.random.default_rng(13)
        sizes = [(3, 2), (2, 2, 2), (4, 3)]
        twins = [(p, p.convert_basis(Basis.CHEBYSHEV1))
                 for p in (random_linear_mep(rng, n) for n in sizes)]
        calls = []
        convert = Pmep.convert_basis
        monkeypatch.setattr(Pmep, "convert_basis", lambda q, b: calls.append(b) or convert(q, b))
        for n, (mono, cheb) in zip(sizes, twins):
            out = solve(mono)
            assert len(out) == int(np.prod(n))
            assert serialize_solutions(out) == serialize_solutions(solve(cheb))
        assert calls == []


class TestRepeatedHiddenCoordinate:
    def test_decoupled_quadratic_takes_fallback(self):
        # x2 takes each of its 6 values at 6 roots, which mixes their
        # eigenvectors; the fallback re-solves x1 from the equations
        p, roots = systems.decoupled_system(np.random.default_rng(5), 3, 2)
        out = solve(p)
        assert len(out) == 36
        assert_same_points(out.points(), roots, 1e-6)
        assert all(s.flags["reduced"] for s in out)

    def test_decoupled_linear_takes_fallback(self, monkeypatch):
        # x2 takes each of its 3 values at 3 roots, which mixes their
        # eigenvectors of the operator-determinant pencil; the fallback
        # re-solves x1 from the equations, with no second resultant
        p, roots = systems.decoupled_system(np.random.default_rng(5), 3, 1)
        assert solver._as_linear_mep(p) is not None

        def no_dixon(*args, **kwargs):
            raise AssertionError("a linear MEP built the Dixon resultant")

        monkeypatch.setattr(solver, "build_resultant", no_dixon)
        out = solve(p)
        assert len(out) == 9
        assert_same_points(out.points(), roots, 1e-6)
        assert all(s.flags["reduced"] for s in out)

    def test_repeated_eigenvalue_solved_once(self, pep_calls):
        # each of the 3 values of x2 is a triple eigenvalue of the pencil;
        # the fallback solves each value once, and no copy counts as dropped
        p, roots = systems.decoupled_system(np.random.default_rng(5), 3, 1)
        out = solve(p)
        assert pep_calls[0] == 1 + 3
        assert len(out) == 9
        assert_same_points(out.points(), roots, 1e-6)
        assert all(s.flags["reduced"] for s in out)
        assert out.diagnostics["dropped_eigenpairs"] == 0

    def test_decoupled_d4_recurses_to_one_equation(self):
        # x4 takes each of its 2 values at 8 roots; the fallback's nested
        # solves mix their eigenvectors again at every level, down to one
        # equation in one unknown
        p, roots = systems.decoupled_system(np.random.default_rng(0), 2, 1, d=4)
        out = solve(p)
        assert len(out) == 16
        assert_same_points(out.points(), roots, 1e-6)
        assert out.diagnostics["dropped_eigenpairs"] == 0

    def test_generic_dense_reads_every_eigenvector(self):
        p = cross_term_system(301, (2, 2), (2, 2))
        out = solve(p)
        assert len(out) == 32
        assert out.diagnostics["resultant_size"] == 8
        assert all(not s.flags["reduced"] for s in out)


@pytest.fixture
def one_resultant(monkeypatch):
    """Fail at once when a top-level solve builds a second resultant."""
    level = [0]
    builds = [0]
    build, solve_ = solver.build_resultant, solver.solve

    def counted_build(*args, **kwargs):
        if level[0] == 1:
            builds[0] += 1
            if builds[0] > 1:
                raise AssertionError("a second resultant was built")
        return build(*args, **kwargs)

    def nested_solve(*args, **kwargs):
        level[0] += 1
        try:
            return solve_(*args, **kwargs)
        finally:
            level[0] -= 1

    monkeypatch.setattr(solver, "build_resultant", counted_build)
    monkeypatch.setattr(solver, "solve", nested_solve)

    def run(p):
        builds[0] = 0
        out = solver.solve(p)
        assert builds[0] == 1
        return out

    return run


class TestSinglePass:
    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_decoupled_cubic_pair(self, one_resultant, seed):
        p, roots = systems.decoupled_system(np.random.default_rng(seed), 3, 3)
        out = one_resultant(p)
        assert len(out) == 81
        assert_same_points(out.points(), roots, 1e-6)

    def test_dense_cubic_pair(self, one_resultant):
        p = systems.random_pmep(np.random.default_rng(1), (3, 3), (3, 3))
        out = one_resultant(p)
        assert len(out) == 162
        assert max(s.residual for s in out) <= 1e-8

    def test_trivariate_quadratic(self, one_resultant):
        p = systems.random_pmep(np.random.default_rng(1), (2, 2, 2), (2, 2, 1))
        out = one_resultant(p)
        assert len(out) == 192
        assert max(s.residual for s in out) <= 1e-8

    def test_rank_deficient_pair(self, one_resultant):
        out = one_resultant(systems.rank_deficient_pair_system())
        assert len(out) == 2
        assert_same_points(
            out.points(), systems.rank_deficient_pair_solutions(), 1e-8
        )


@pytest.fixture
def pep_calls(monkeypatch):
    """Count the polynomial eigenvalue problems a solve hands to the eigensolver."""
    calls = [0]
    original = solver.solve_pep

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_pep", counted)
    return calls


class TestDegreeOneRead:
    # tau_1 = 1 leaves the eigenvector no block for x_1, and the
    # operator-determinant pencil of a linear MEP leaves none for any front
    # coordinate; one eigensolve must still give every root, with no
    # per-eigenpair reduction
    @pytest.mark.parametrize(
        "sizes, tau, basis, count",
        [
            ((8, 8), (1, 1), Basis.MONOMIAL, 128),
            ((2, 2, 2), (1, 1, 1), Basis.MONOMIAL, 48),
            ((5, 5), (1, 1), Basis.CHEBYSHEV1, 50),
            # tau None: a linear MEP, degree one with no cross terms
            pytest.param((3, 3, 3), None, Basis.MONOMIAL, 27, id="linear_mep_n333"),
        ],
    )
    def test_one_pep_solve(self, pep_calls, sizes, tau, basis, count):
        rng = np.random.default_rng(1)
        linear = tau is None
        if linear:
            p = random_linear_mep(rng, sizes)
        else:
            p = systems.random_pmep(rng, sizes, tau, basis)
        out = solve(p)
        assert len(out) == count
        assert pep_calls[0] == 1
        assert all(not s.flags["reduced"] for s in out)
        assert max(s.residual for s in out) <= 1e-8
        if not linear:
            return
        assert_same_points(out.points(), solve_linear_mep(p).points(), 1e-8)
        for q, hide in ((p, 1), (p.convert_basis(Basis.CHEBYSHEV1), None)):
            pep_calls[0] = 0
            other = solve(q, hide_variable=hide)
            assert pep_calls[0] == 1
            assert all(not s.flags["reduced"] for s in other)
            assert_same_points(other.points(), out.points(), 1e-8)


class TestBatchedGate:
    # every candidate point is refined and gated in one call, plus one more
    # for the fallback's candidates when some eigenpair failed; never one per
    # point, and no second call when every eigenpair passed
    def test_gate_calls_do_not_grow_with_eigenpairs(self, monkeypatch):
        calls = {"refine": 0, "residual": 0}

        def counting(name, original):
            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return counted

        monkeypatch.setattr(solver, "refine", counting("refine", solver.refine))
        for module in (extract, solver):
            if hasattr(module, "residual"):
                monkeypatch.setattr(
                    module, "residual", counting("residual", module.residual)
                )
        p = systems.random_pmep(np.random.default_rng(1), (3, 3), (3, 3))
        out = solve(p)
        assert len(out) == 162 and not any(s.flags["reduced"] for s in out)
        assert calls["refine"] == 1
        assert calls["residual"] == 0
        # the decoupled system's eigenvectors mix its roots, so every root
        # comes from the fallback, gated in the one second call
        calls["refine"] = 0
        p, roots = systems.decoupled_system(np.random.default_rng(0), 3, 2)
        out = solve(p)
        assert len(out) == len(roots) == 36 and all(s.flags["reduced"] for s in out)
        assert calls["refine"] == 2
        assert calls["residual"] == 0


    def test_eigenvector_reads_make_no_with_vector_svd(self, monkeypatch):
        # block 0 of each eigenvector gives the first Newton step its null
        # vectors, and later steps carry the vectors Newton refined; the
        # ratio read (dense) and the Kronecker read (linear MEP) both pass
        # every root after one step, so no row needs the SVD's vectors, and
        # the gate's residual is a matrix-vector product: `refine` makes no
        # SVD at all
        svds, _ = record_svds(monkeypatch)
        dense = solve(systems.random_pmep(np.random.default_rng(1), (3, 3), (3, 3)))
        linear = solve(random_linear_mep(np.random.default_rng(11), (3, 4)))
        assert len(dense) == 162 and len(linear) == 12
        assert all(not s.flags["reduced"] for s in (*dense, *linear))
        assert [uv for _, _, uv in svds if uv] == []
        assert [call for call, _, _ in svds if call is not None] == []

    def test_fallback_svds_run_only_on_first_steps(self, monkeypatch):
        # the 21st sparse draw has four roots only the fallback finds; its
        # candidates come with no vectors, so their first step takes them
        # from a with-vector SVD, and the steps after it carry their own
        svds, calls = record_svds(monkeypatch)
        rng = np.random.default_rng(20261018)
        for _ in range(21):
            p = systems.sparse_random_pmep(rng)
        out = solve(p)
        assert len(out) == 17 and sum(s.flags["reduced"] for s in out) == 4
        in_refine = [(call, step, uv) for call, step, uv in svds if call is not None]
        assert in_refine
        assert all(uv and step == 0 and calls[call][0] is None for call, step, uv in in_refine)
        assert any(given is None and steps > 1 for given, steps in calls)


def record_svds(monkeypatch):
    """Record every np.linalg.svd call outside `MatrixPoly.max_coeff_norm`.

    Returns ``(svds, calls)``: ``svds`` holds (refine call, Newton step, with
    vectors) per SVD, the call and step None outside `solver.refine`;
    ``calls`` holds (vecs, Newton steps taken) per refine call.
    """
    svds, calls, at = [], [], {"call": None, "norm": 0}
    refine, step, norm = solver.refine, extract._newton_step, MatrixPoly.max_coeff_norm
    svd = np.linalg.svd

    def counted_refine(p, X, tol=np.inf, vecs=None):
        at["call"] = len(calls)
        calls.append([vecs, 0])
        try:
            return refine(p, X, tol, vecs)
        finally:
            at["call"] = None

    def counted_step(*args):
        calls[at["call"]][1] += 1
        return step(*args)

    def counted_norm(self):
        at["norm"] += 1
        try:
            return norm(self)
        finally:
            at["norm"] -= 1

    def counted_svd(a, *args, **kwargs):
        if not at["norm"]:
            call = at["call"]
            where = None if call is None else calls[call][1] - 1
            svds.append((call, where, kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(solver, "refine", counted_refine)
    monkeypatch.setattr(extract, "_newton_step", counted_step)
    monkeypatch.setattr(MatrixPoly, "max_coeff_norm", counted_norm)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    return svds, calls


class TestUnivariatePassthrough:
    def test_matches_determinant_roots(self):
        rng = np.random.default_rng(21)
        c = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        p = Pmep([MatrixPoly(c)])
        out = solve(p)
        want = det_roots(MatrixPoly(c, Basis.MONOMIAL))
        assert len(out) == 4
        assert max(s.residual for s in out) <= 1e-10
        match_sets([s.x[0] for s in out], want, 1e-6)
        assert out.diagnostics["resultant_size"] == 2
        assert out.diagnostics["normal_rank"] == 2
        assert not out.diagnostics["projected"]
        assert set(out.diagnostics) == DIAG_KEYS

    def test_scalar_linear(self):
        c = np.array([[[-3.0]], [[1.0]]])
        out = solve(Pmep([MatrixPoly(c)]))
        assert len(out) == 1
        assert abs(out[0].x[0] - 3.0) <= 1e-12

    def test_gate_failures_have_no_fallback(self, monkeypatch):
        # with d = 1 the point is the eigenvalue, so an eigenpair that fails
        # the gate has nothing left to re-solve: it is dropped, not counted
        # as a lost eigenpair, and no substituted system is built
        rng = np.random.default_rng(21)
        c = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        substituted = []

        def failing(p, X, tol=np.inf, vecs=None):
            return X, np.ones(len(X))

        def recorded(*args):
            substituted.append(args)
            return [], False

        monkeypatch.setattr(solver, "refine", failing)
        monkeypatch.setattr(solver, "_substituted_candidates", recorded)
        out = solve(Pmep([MatrixPoly(c)]))
        assert len(out) == 0
        assert out.diagnostics["dropped_eigenpairs"] == 0
        assert substituted == []


class TestSolutionCount:
    def test_dense_quadratic_pairs_have_32_solutions(self):
        # det P_1 and det P_2 are dense bidegree-(4, 4) curves; their mixed
        # volume is 32, attained by generic coefficients, and the pipeline
        # validates every intersection
        for seed in (300, 301, 302):
            rng = np.random.default_rng(seed)
            p = systems.random_pmep(rng, (2, 2), (2, 2))
            out = solve(p)
            assert len(out) == 32, f"seed {seed}: {len(out)} solutions"
            assert max(s.residual for s in out) <= 1e-8
            assert out.diagnostics["resultant_size"] == 8
            assert out.diagnostics["normal_rank"] == 8
            assert not out.diagnostics["projected"]

    def test_default_pipeline_finds_subset(self):
        # hiding the other variable builds a different resultant; both find
        # the same 32 roots
        rng = np.random.default_rng(300)
        p = systems.random_pmep(rng, (2, 2), (2, 2))
        full = solve(p, hide_variable=1)
        out = solve(p)
        assert len(out) == 32
        assert_contains_points(full.points(), out.points(), 1e-5)


class TestSolutionRecord:
    # a Solution is made only for a root that some solve returns: none for
    # a candidate that fails the gate or duplicates a kept root
    @pytest.mark.parametrize(
        "make, roots",
        [(lambda: systems.waveguide_system(8), 56), (systems.rank_deficient_pair_system, 2)],
    )
    def test_one_solution_per_returned_root(self, monkeypatch, make, roots):
        made, returned = [], []
        post_init = extract.Solution.__post_init__
        original = solver.solve

        def counting_post_init(sol):
            made.append(1)
            post_init(sol)

        def recording_solve(*args, **kwargs):
            out = original(*args, **kwargs)
            returned.append(len(out))
            return out

        monkeypatch.setattr(extract.Solution, "__post_init__", counting_post_init)
        monkeypatch.setattr(solver, "solve", recording_solve)
        out = solver.solve(make())
        assert len(out) == returned[-1] == roots
        assert len(made) == sum(returned)


class TestAccuracy:
    # one Newton step per root on the original system brings the median
    # residual of a generic dense system to roundoff (about 5e-16 and 3e-16);
    # a Newton step on R(lambda) v = 0 instead gives 4e-15 and 2e-15, no step
    # at all 2e-13 and 3e-14
    @pytest.mark.parametrize(
        "tau, basis, count",
        [((3, 3), Basis.MONOMIAL, 162), ((2, 2), Basis.CHEBYSHEV1, 72)],
    )
    def test_refined_median_residual(self, tau, basis, count):
        p = systems.random_pmep(np.random.default_rng(0), (3, 3), tau, basis)
        out = solve(p)
        assert len(out) == count
        assert np.median([s.residual for s in out]) <= 2e-15


class TestTrivariate:
    def test_trilinear_scalars(self):
        # three dense trilinear scalar equations: mixed volume of three unit
        # cubes is 6, so a generic instance has six solutions
        p = cross_term_system(31, (1, 1, 1), (1, 1, 1))
        out = solve(p)
        assert len(out) == 6
        assert max(s.residual for s in out) <= 1e-8
        other = solve(p, hide_variable=1)
        assert_same_points(other.points(), out.points(), 1e-5)


class TestReduction:
    def test_single_lost_coordinate_candidates(self):
        p = systems.quadratic_pair_system()
        x_true = 2.0**0.25
        y_true = (-1 + np.sqrt(5)) / 2 / x_true
        cands, projected = _substituted_candidates(p, y_true, extract.RESIDUAL_TOL)
        assert not projected
        xs = np.array([c[0] for c in cands])
        assert np.min(np.abs(xs - x_true)) <= 1e-8
        assert all(c[1] == y_true for c in cands)

    def test_subsystems_share_no_candidate(self):
        # x_2 is hidden, as `solve` orders this system; at the x_2 of a root
        # each equation alone finds its x_1, and the root is gated once
        p = systems.quadratic_pair_system()
        lam = systems.quadratic_pair_solutions()[0][1]
        cands, _ = _substituted_candidates(p, lam, extract.RESIDUAL_TOL)
        assert cands
        assert np.array_equal(_first_copy(np.array(cands)), np.arange(len(cands)))

    def test_two_lost_coordinates_recurse_once(self):
        quad = systems.quadratic_pair_system()
        polys = []
        for poly in quad.polys:
            c = np.zeros((3, 3, 2, 2, 2), dtype=complex)
            c[:, :, 0] = poly.coeffs
            polys.append(MatrixPoly(c))
        rng = np.random.default_rng(41)
        polys.append(systems.random_poly(rng, 2, (2, 2, 1)))
        work = Pmep(polys)
        lam = 0.7
        cands, projected = _substituted_candidates(work, lam, extract.RESIDUAL_TOL)
        assert not projected
        # the 8 points of the first d - 1 equations come first, then those of
        # the subsystems that leave out P_2 and P_1
        assert len(cands) == 40
        assert_same_points(
            [c[:2] for c in cands[:8]], systems.quadratic_pair_solutions(), 1e-6
        )
        assert all(c[2] == lam for c in cands)
