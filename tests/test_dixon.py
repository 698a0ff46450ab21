"""Tests for the tensor Dixon resultant construction."""

import numpy as np
import pytest

import systems
from multipolyeig import _basisops as bo
from multipolyeig import dixon
from multipolyeig.dixon import (
    DixonShape,
    _axis_nodes,
    _hide_nodes,
    _numerator_on_grid,
    _tables,
    build_resultant,
    dixon_numerator_eval,
    kron_det,
    unfold,
)
from multipolyeig.mpoly import Basis, MatrixPoly, Pmep
from multipolyeig.pep import RANK_TOL, trim


def eval_tensor(tens, shape, basis, s, t):
    """Contract a Dixon coefficient tensor with basis values at one (s, t)."""
    vals = tens
    for k in range(shape.d - 1):
        row = bo.basis_rows(basis, s[k], vals.shape[0] - 1)
        vals = np.tensordot(row, vals, axes=(0, 0))
    for k in range(shape.d - 1):
        row = bo.basis_rows(basis, t[k], vals.shape[0] - 1)
        vals = np.tensordot(row, vals, axes=(0, 0))
    return vals


class TestShape:
    def test_counts(self):
        sh = DixonShape(3, (2, 2, 2), (2, 2, 2))
        assert sh.alpha == (1, 3)
        assert sh.beta == (3, 1)
        assert sh.resultant_size == 8 * 2 * 4
        assert sh.xd_degree_bound == 6

    def test_missing_variable_rejected(self):
        with pytest.raises(ValueError):
            DixonShape(2, (0, 1), (2, 2))

    def test_constant_hidden_variable_ok(self):
        sh = DixonShape(2, (1, 0), (2, 2))
        assert sh.xd_degree_bound == 0
        assert sh.resultant_size == 4


def random_stack(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestKronDet:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_scalar_blocks_give_determinant(self, d):
        rng = np.random.default_rng(40 + d)
        m = random_stack(rng, (d, d))
        got = kron_det([[m[i, j].reshape(1, 1) for j in range(d)] for i in range(d)])
        want = np.linalg.det(m)
        assert got.shape == (1, 1)
        assert abs(got[0, 0] - want) <= 1e-12 * max(1.0, abs(want))

    def test_broadcast_stack_matches_slices(self):
        rng = np.random.default_rng(44)
        sizes = (2, 3, 2)
        batches = [(4, 1), (1, 5), (4, 5)]
        table = [
            [random_stack(rng, batches[(i + j) % 3] + (n, n)) for j in range(3)]
            for i, n in enumerate(sizes)
        ]
        got = kron_det(table)
        assert got.shape == (4, 5, 12, 12)
        for a in range(4):
            for b in range(5):
                sliced = [
                    [np.broadcast_to(e, (4, 5) + e.shape[-2:])[a, b] for e in row]
                    for row in table
                ]
                want = kron_det(sliced)
                assert np.max(np.abs(got[a, b] - want)) <= 1e-13 * np.max(np.abs(want))


class TestNumerator:
    def test_univariate_pair_reference_value(self):
        p = systems.univariate_pair_system()
        got = dixon_numerator_eval(p, [1.0], [0.0], 0.0)
        assert np.max(np.abs(got - systems.UNIVARIATE_PAIR_DIXON)) <= 1e-12

    def test_vanishes_at_s_equal_t(self):
        rng = np.random.default_rng(30)
        p = systems.random_pmep(rng, (2, 2), (2, 2))
        s = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        got = dixon_numerator_eval(p, s, s, 0.3 + 0.1j)
        assert np.max(np.abs(got)) <= 1e-12 * max(q.max_coeff_norm() for q in p.polys) ** 2

    def test_antisymmetry_two_variables(self):
        rng = np.random.default_rng(31)
        p = systems.random_pmep(rng, (2, 3), (2, 2))
        s, t = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        xd = complex(*rng.standard_normal(2))
        fwd = dixon_numerator_eval(p, [s], [t], xd)
        bwd = dixon_numerator_eval(p, [t], [s], xd)
        assert np.max(np.abs(fwd + bwd)) <= 1e-10 * np.max(np.abs(fwd))


BASES = (Basis.MONOMIAL, Basis.CHEBYSHEV1)


def divided_numerator(p, tables, grid_index, xd):
    """Test oracle: the pointwise numerator at one grid point, divided by
    prod_k (s_k - t_k)."""
    d = p.d
    s = np.array([tables.s[k][grid_index[k]] for k in range(d - 1)])
    t = np.array([tables.t[k][grid_index[d - 1 + k]] for k in range(d - 1)])
    return dixon_numerator_eval(p, s, t, xd) / np.prod(s - t)


class TestDividedDifferences:
    @pytest.mark.parametrize("basis", BASES)
    @pytest.mark.parametrize("sizes, tau", [((2, 3), (2, 2)), ((2, 1, 2), (2, 1, 2))])
    def test_table_is_numerator_over_pair_differences(self, basis, sizes, tau):
        # the divided-difference table's determinant equals the numerator
        # divided by prod_k (s_k - t_k), at every grid point and x_d node
        rng = np.random.default_rng(32)
        p = systems.random_pmep(rng, sizes, tau, basis)
        sh = DixonShape.from_pmep(p)
        tables = _tables(tau, basis)
        xd_nodes = np.array([0.3 - 0.2j, -0.7 + 0.1j])
        hidden = _hide_nodes(p, bo.basis_rows(basis, xd_nodes, tau[-1]))
        got = _numerator_on_grid(hidden, tables)
        grid_shape = tuple(len(g) for g in tables.s) + tuple(len(g) for g in tables.t)
        assert got.shape == (len(xd_nodes),) + grid_shape + (sh.N, sh.N)
        for node, xd in enumerate(xd_nodes):
            for idx in np.ndindex(*grid_shape):
                want = divided_numerator(p, tables, idx, xd)
                assert np.max(np.abs(got[(node,) + idx] - want)) <= 1e-12 * max(
                    1.0, np.max(np.abs(want))
                )


class TestGrids:
    def test_disjoint_and_well_conditioned(self):
        # s and t node counts alpha+1 and beta+1 from 1 to 12
        for basis in BASES:
            for k_s in range(1, 13):
                for k_t in range(1, 13):
                    s, t = _axis_nodes(k_s, k_t, basis)
                    assert len(s) == k_s and len(t) == k_t
                    assert np.min(np.abs(np.subtract.outer(s, t))) >= 1e-3
                    if basis == Basis.MONOMIAL:
                        assert np.linalg.cond(bo.interp_matrix(basis, s)) <= 1 + 1e-12
                        assert np.linalg.cond(bo.interp_matrix(basis, t)) <= 1 + 1e-12

    @pytest.mark.parametrize("basis", BASES)
    @pytest.mark.parametrize("tau", [(2, 3), (3, 0), (1, 2, 1), (2, 1, 1, 2)])
    def test_tables_hold_the_axis_nodes_and_their_maps(self, basis, tau):
        # each front axis k of the build takes alpha_k+1 s-nodes and
        # beta_k+1 t-nodes from `_axis_nodes`, with their interpolation maps,
        # basis rows and differences; x_d takes d*tau_d + 1 nodes whose
        # values-to-coefficients map inverts their basis rows
        d = len(tau)
        sh = DixonShape(d, tau, (1,) * d)
        tables = _tables(tau, basis)
        for k in range(d - 1):
            s, t = _axis_nodes(sh.alpha[k] + 1, sh.beta[k] + 1, basis)
            assert np.array_equal(tables.s[k], s) and np.array_equal(tables.t[k], t)
            assert np.array_equal(tables.s_interp[k], bo.interp_matrix(basis, s))
            assert np.array_equal(tables.t_interp[k], bo.interp_matrix(basis, t))
            assert np.array_equal(tables.s_rows[k], bo.basis_rows(basis, s, tau[k]))
            assert np.array_equal(tables.t_rows[k], bo.basis_rows(basis, t, tau[k]))
            gap = tables.gaps[k]
            assert gap.ndim == 2 * d + 1
            assert gap.shape[1 + k] == len(s) and gap.shape[d + k] == len(t)
            assert np.array_equal(gap.reshape(len(s), len(t)), np.subtract.outer(s, t))
        assert len(tables.xd_nodes) == sh.xd_degree_bound + 1
        assert np.array_equal(tables.xd_rows, bo.basis_rows(basis, tables.xd_nodes, tau[-1]))
        full = bo.basis_rows(basis, tables.xd_nodes, sh.xd_degree_bound)
        assert np.allclose(tables.to_coeff @ full, np.eye(len(full)), atol=1e-12)


def table_arrays(tables):
    return [a for entry in tables for a in (entry if isinstance(entry, tuple) else (entry,))]


class TestTableCache:
    # the (tau, basis) tables are built once per shape and shared read-only

    @pytest.mark.parametrize("basis", BASES)
    def test_tables_are_read_only(self, basis):
        tables = _tables((2, 1, 2), basis)
        arrays = table_arrays(tables)
        assert len(arrays) == 7 * 2 + 3  # seven per-axis tuples for d = 3
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 0.0
        assert _tables((2, 1, 2), basis) is tables

    @pytest.mark.parametrize(
        "sizes, tau, basis",
        [((2, 3), (2, 2), Basis.MONOMIAL), ((1, 2, 1), (1, 2, 1), Basis.CHEBYSHEV1)],
    )
    def test_same_resultant_from_a_cold_or_a_warm_cache(self, sizes, tau, basis):
        # two systems of one shape: R is bit-equal whichever is built first,
        # that is, whether its tables are built afresh or come from the cache
        rng = np.random.default_rng(72)
        p, q = (systems.random_pmep(rng, sizes, tau, basis) for _ in range(2))
        _tables.cache_clear()
        first = [build_resultant(p).coeffs, build_resultant(q).coeffs]
        assert _tables.cache_info().misses == 1 and _tables.cache_info().hits == 1
        _tables.cache_clear()
        second = [build_resultant(q).coeffs, build_resultant(p).coeffs][::-1]
        assert all(np.array_equal(a, b) for a, b in zip(first, second))


class TestUnfold:
    def test_round_trip(self):
        rng = np.random.default_rng(33)
        sh = DixonShape(3, (2, 2, 1), (2, 1, 2))
        shape = tuple(a + 1 for a in sh.alpha) + tuple(b + 1 for b in sh.beta) + (sh.N, sh.N)
        tens = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert np.array_equal(systems.refold(unfold(tens, sh), sh), tens)

    def test_zero_tensor(self):
        sh = DixonShape(2, (2, 2), (2, 2))
        tens = np.zeros((2, 2, 4, 4))
        assert np.all(unfold(tens, sh) == 0)

    def test_block_placement(self):
        # one nonzero block at s-index (1,0), t-index (0,1) must land at
        # block column 1, block row beta-major position (0 + 2*... ) = 2
        sh = DixonShape(3, (2, 1, 1), (1, 2, 1))  # alpha=(1,1), beta=(3,0)->sizes (2,1)... recompute
        sh = DixonShape(3, (1, 2, 1), (1, 2, 1))
        assert sh.alpha == (0, 3)
        assert sh.beta == (1, 1)
        tens = np.zeros(
            (1, 4) + (2, 2) + (sh.N, sh.N), dtype=complex
        )
        block = np.arange(sh.N * sh.N).reshape(sh.N, sh.N)
        tens[0, 2, 1, 0] = block
        mat = unfold(tens, sh)
        col0 = sh.N * (0 + 1 * 2)  # i = (0, 2), colex flat = 0 + 1*2
        row0 = sh.N * (1 + 2 * 0)  # j = (1, 0), colex flat = 1 + 2*0
        got = mat[row0 : row0 + sh.N, col0 : col0 + sh.N]
        assert np.array_equal(got, block)
        mat[row0 : row0 + sh.N, col0 : col0 + sh.N] = 0
        assert np.all(mat == 0)


class TestBuildResultant:
    def test_univariate_pair_constant_resultant(self):
        p = systems.univariate_pair_system()
        r = build_resultant(p)
        assert r.m == 0
        assert np.max(np.abs(r.coeffs[0] - systems.UNIVARIATE_PAIR_DIXON)) <= 1e-12
        assert np.linalg.cond(r.coeffs[0]) < 1e8

    def test_quadratic_pair_reference_matrices(self):
        p = systems.quadratic_pair_system()
        r = build_resultant(p)
        assert r.m == 1
        assert np.max(np.abs(r.coeffs[0] - systems.QUAD_PAIR_M0)) <= 1e-12
        assert np.max(np.abs(r.coeffs[1] - systems.QUAD_PAIR_M1)) <= 1e-12

    def test_rank_deficient_pair_reference_matrices(self):
        p = systems.rank_deficient_pair_system()
        r = build_resultant(p)
        assert r.m == 1
        assert np.max(np.abs(r.coeffs[0] - systems.RANK_DEFICIENT_M0)) <= 1e-12
        assert np.max(np.abs(r.coeffs[1] - systems.RANK_DEFICIENT_M1)) <= 1e-12

    def test_d1_rejected(self):
        p = MatrixPoly(np.zeros((2, 1, 1)), Basis.MONOMIAL)
        with pytest.raises(ValueError):
            build_resultant(Pmep([p]))

    def test_consistent_with_pointwise_numerator(self):
        rng = np.random.default_rng(34)
        p = systems.random_pmep(rng, (2, 1, 2), (1, 2, 1))
        sh = DixonShape.from_pmep(p)
        r = build_resultant(p)
        for _ in range(5):
            s = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            t = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            xd = complex(*rng.standard_normal(2))
            f = eval_tensor(systems.refold(r.eval(xd), sh), sh, p.basis, s, t)
            num = dixon_numerator_eval(p, s, t, xd)
            denom = np.prod(s - t)
            assert np.max(np.abs(f * denom - num)) <= 1e-8 * np.max(np.abs(num))

    def test_chebyshev_matches_monomial(self):
        rng = np.random.default_rng(35)
        p = systems.random_pmep(rng, (2, 2), (2, 2))
        r_mono = build_resultant(p)
        r_cheb = build_resultant(p.convert_basis(Basis.CHEBYSHEV1))
        back = r_cheb.convert_basis(Basis.MONOMIAL)
        top = r_mono.max_coeff_norm()
        m = max(r_mono.m, back.m)
        a = np.zeros((m + 1, r_mono.size, r_mono.size), dtype=complex)
        b = np.zeros_like(a)
        a[: r_mono.m + 1] = r_mono.coeffs
        b[: back.m + 1] = back.coeffs
        assert np.max(np.abs(a - b)) <= 1e-8 * top

    def test_eigenvalue_completeness_on_known_solutions(self):
        p = systems.quadratic_pair_system()
        sh = DixonShape.from_pmep(p)
        r = build_resultant(p)
        for sol in systems.quadratic_pair_solutions():
            v = systems.kron_list(
                [systems.null_vector(poly.eval(sol)) for poly in p.polys]
            )
            vand = systems.vandermonde_vector(sh, sol[:-1], v)
            mat = r.eval(sol[-1])
            res = np.linalg.norm(mat @ vand) / (np.linalg.norm(mat) * np.linalg.norm(vand))
            assert res <= 1e-8

    def test_generic_nonsingular_probe(self):
        rng = np.random.default_rng(36)
        p = systems.random_pmep(rng, (2, 2), (2, 2))
        r = build_resultant(p)
        z = np.exp(2j * np.pi * rng.uniform())
        sv = np.linalg.svd(r.eval(z), compute_uv=False)
        assert sv[-1] / sv[0] > 1e-8

    def test_shifted_power_closed_form(self):
        rng = np.random.default_rng(37)
        for sizes, tau in (((2, 2), (2, 3)), ((2, 1, 2), (2, 1, 2))):
            p, mats = systems.shifted_power_system(rng, sizes, tau)
            sh = DixonShape.from_pmep(p)
            r = build_resultant(p)
            for _ in range(10):
                s = rng.standard_normal(len(sizes) - 1) + 1j * rng.standard_normal(len(sizes) - 1)
                t = rng.standard_normal(len(sizes) - 1) + 1j * rng.standard_normal(len(sizes) - 1)
                xd = complex(*rng.standard_normal(2)) * 0.8
                got = eval_tensor(systems.refold(r.eval(xd), sh), sh, p.basis, s, t)
                want = systems.shifted_power_closed_form(mats, sizes, tau, s, t, xd)
                assert np.max(np.abs(got - want)) <= 1e-8 * max(1.0, np.max(np.abs(want)))


def per_node_resultant(p):
    """Coefficients of R(x_d) one node at a time: `dixon_numerator_eval`
    divided by prod_k (s_k - t_k) at every grid point, then interpolated on
    the s/t axes, unfolded, and interpolated across the x_d nodes."""
    sh = DixonShape.from_pmep(p)
    tables = _tables(p.tau, p.basis)
    deg = sh.xd_degree_bound
    if p.basis == Basis.MONOMIAL:
        nodes = np.exp(2j * np.pi * np.arange(deg + 1) / (deg + 1))
        to_coeff = bo.interp_matrix(Basis.MONOMIAL, nodes)
    else:
        nodes = bo.cheb1_nodes(deg + 1)
        to_coeff = bo.cheb1_vals_to_coeffs_matrix(deg + 1)
    grid_shape = tuple(len(g) for g in tables.s) + tuple(len(g) for g in tables.t)
    mats = []
    for xd in nodes:
        vals = np.empty(grid_shape + (sh.N, sh.N), dtype=complex)
        for idx in np.ndindex(*grid_shape):
            vals[idx] = divided_numerator(p, tables, idx, xd)
        for k in range(sh.d - 1):
            vals = bo.apply_matrix_axis(vals, tables.s_interp[k], k)
            vals = bo.apply_matrix_axis(vals, tables.t_interp[k], sh.d - 1 + k)
        mats.append(unfold(vals, sh))
    return np.tensordot(to_coeff, np.array(mats), axes=(1, 0))


class TestStackedNodes:
    # build_resultant takes its x_d nodes in stacked chunks

    @pytest.mark.parametrize(
        "sizes, tau, basis",
        [
            ((2, 3), (2, 2), Basis.MONOMIAL),
            ((2, 2), (3, 1), Basis.CHEBYSHEV1),
            ((1, 2, 1), (1, 2, 2), Basis.MONOMIAL),
        ],
    )
    def test_matches_one_node_at_a_time(self, sizes, tau, basis):
        p = systems.random_pmep(np.random.default_rng(70), sizes, tau, basis)
        want = trim(MatrixPoly(per_node_resultant(p), basis)).coeffs
        got = build_resultant(p).coeffs
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_one_kron_det_call_per_chunk(self, monkeypatch):
        p = systems.random_pmep(np.random.default_rng(71), (2, 2), (2, 2))
        sh = DixonShape.from_pmep(p)
        nodes = sh.xd_degree_bound + 1
        tables = _tables(p.tau, p.basis)
        node_bytes = 16 * sh.N**2 * np.prod([len(s) * len(t) for s, t in zip(tables.s, tables.t)])
        calls = [0]
        kron_det_ = dixon.kron_det

        def counted(table):
            calls[0] += 1
            return kron_det_(table)

        monkeypatch.setattr(dixon, "kron_det", counted)
        whole = build_resultant(p)
        assert calls[0] == 1
        for per_chunk, chunks in ((1, nodes), (2, -(-nodes // 2))):
            monkeypatch.setattr(dixon, "_CHUNK_BYTES", per_chunk * node_bytes)
            calls[0] = 0
            got = build_resultant(p)
            assert calls[0] == chunks
            assert np.max(np.abs(got.coeffs - whole.coeffs)) <= 1e-13 * whole.max_coeff_norm()

    @pytest.mark.parametrize("chunk_bytes", [None, 1])
    def test_content_root_at_a_node(self, monkeypatch, chunk_bytes):
        # scalar P_2 = c P_1 + (x_2 - 1) Q: at the node x_2 = 1 the Dixon
        # function vanishes identically, and the divided-difference table
        # gives it as rounding-level values, within a stacked chunk or on its
        # own
        if chunk_bytes is not None:
            monkeypatch.setattr(dixon, "_CHUNK_BYTES", chunk_bytes)
        rng = np.random.default_rng(0)
        c1 = np.array(systems.random_poly(rng, 1, (1, 1)).coeffs)
        q = np.array(systems.random_poly(rng, 1, (1, 0)).coeffs)
        c2 = (0.7 - 0.4j) * c1
        c2[:, 1:] += q
        c2[:, :1] -= q
        r = build_resultant(Pmep([MatrixPoly(c1), MatrixPoly(c2)]))
        assert r.m == 2
        assert np.max(np.abs(r.eval(1.0))) <= 1e-14 * r.max_coeff_norm()


def system_through(rng, sizes, tau, x_star):
    """Random system shifted in its constant term so that x_star is a root."""
    polys = []
    for n in sizes:
        c = np.array(systems.random_poly(rng, n, tau).coeffs)
        u, sv, vh = np.linalg.svd(MatrixPoly(c).eval(x_star))
        c[(0,) * len(sizes)] -= sv[-1] * np.outer(u[:, -1], vh[-1])
        polys.append(MatrixPoly(c))
    return Pmep(polys)


class TestKroneckerLayout:
    @pytest.mark.parametrize(
        "sizes, tau", [((3, 4), (1, 2)), ((2, 3, 2), (1, 1, 1))]
    )
    def test_zero_block_is_rank_one_in_the_kernels(self, sizes, tau):
        # block 0 of the eigenvector holds v_1 kron ... kron v_d with
        # v_i in ker P_i(x*): every unfolding has rank one, and its dominant
        # left singular vector is a kernel vector of its equation
        rng = np.random.default_rng(60 + len(sizes))
        d = len(sizes)
        x_star = 0.6 * np.exp(2j * np.pi * rng.uniform(size=d))
        p = system_through(rng, sizes, tau, x_star)
        sh = DixonShape.from_pmep(p)
        vec = systems.null_vector(build_resultant(p).eval(x_star[-1]))
        block = vec[: sh.N].reshape(sizes)
        for i, poly in enumerate(p.polys):
            unfolding = np.moveaxis(block, i, 0).reshape(sizes[i], -1)
            u, sv, _ = np.linalg.svd(unfolding)
            assert sv[1] <= 1e-8 * sv[0]
            residual = np.linalg.norm(poly.eval(x_star) @ u[:, 0])
            assert residual <= 1e-8 * poly.max_coeff_norm()


class TestResultantPoly:
    """R(x_d) is a univariate MatrixPoly: trimming and evaluation."""

    def test_trim_keeps_constant(self):
        r = MatrixPoly(np.zeros((3, 2, 2)), Basis.MONOMIAL)
        assert trim(r).m == 0

    def test_trim_tolerance(self):
        # trailing coefficients are cut at RANK_TOL times the largest norm
        c = np.zeros((3, 2, 2), dtype=complex)
        c[0] = np.eye(2)
        c[1] = np.eye(2)
        c[2] = 1e-14 * np.eye(2)
        assert trim(MatrixPoly(c, Basis.MONOMIAL)).m == 1
        c[2] = 2 * RANK_TOL * np.eye(2)
        assert trim(MatrixPoly(c, Basis.MONOMIAL)).m == 2

    def test_eval_matches_horner(self):
        rng = np.random.default_rng(39)
        c = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
        r = MatrixPoly(c, Basis.MONOMIAL)
        z = 0.7 - 0.2j
        want = c[0] + z * (c[1] + z * (c[2] + z * c[3]))
        assert np.allclose(r.eval(z), want)
