"""Hidden-variable tensor Dixon resultant construction.

Pipeline, run on stacks of interpolation nodes in the hidden variable x_d
(every node of a stack in one array call per step):

1. substitute the nodes into the equations and evaluate the Dixon function on
   a tensor grid in (s_1..s_{d-1}, t_1..t_{d-1}): the block Kronecker
   determinant of the hybrid-point table with its first d-1 block columns
   replaced by divided differences, which is the block-determinant numerator
   divided by prod_k (s_k - t_k) (Dixon, Proc. London Math. Soc. 1908),
2. interpolate its coefficients with square maps on the s and t axes,
3. unfold each node's coefficient tensor into a square matrix,

then interpolate the matrices across the x_d nodes to get the matrix
polynomial R(x_d).  The nodes, grids, basis rows and interpolation maps
depend only on (tau, basis), and are built once per such shape and cached
(`_tables`); a build pays for them only the first time.

Layout conventions (fixed; the on-disk format and eigenvector extraction rely
on them):

* the Dixon coefficient tensor F has axes (i_1..i_{d-1}, j_1..j_{d-1}, r, c)
  where F[i, j] is the N-by-N coefficient of prod_k s_k^{i_k} t_k^{j_k}
  (basis powers in the Chebyshev case),
* unfolding maps block column (i_1..i_{d-1}) and block row (j_1..j_{d-1}) to
  flat indices colexicographically (index 1 fastest) with N-sized blocks
  contiguous: row = r + N*(j_1 + (beta_1+1)*(j_2 + ...)).

The eigenvectors of R(x_d) then carry ascending block Vandermonde structure:
block (i_1..i_{d-1}) holds prod_k x_k^{i_k} * (v_1 kron ... kron v_d).
"""

import collections
import functools
import itertools
import math

import numpy as np

from . import _basisops as bo
from .mpoly import Basis, MatrixPoly, Pmep
from .pep import trim

__all__ = [
    "DixonShape",
    "kron_det",
    "dixon_numerator_eval",
    "unfold",
    "build_resultant",
]


class DixonShape:
    """Degree bookkeeping for the tensor Dixon construction of one Pmep."""

    def __init__(self, d, tau, sizes):
        if d < 2:
            raise ValueError("the Dixon construction needs d >= 2")
        tau = tuple(int(t) for t in tau)
        if len(tau) != d or len(sizes) != d:
            raise ValueError("tau/sizes must have length d")
        if any(t < 1 for t in tau[:-1]):
            raise ValueError("every non-hidden variable must appear (tau_k >= 1 for k < d)")
        if tau[-1] < 0:
            raise ValueError("negative degree bound")
        self.d = d
        self.tau = tau
        self.sizes = tuple(int(n) for n in sizes)
        self.N = int(np.prod(self.sizes))
        self.alpha = tuple((k + 1) * tau[k] - 1 for k in range(d - 1))
        self.beta = tuple((d - k - 1) * tau[k] - 1 for k in range(d - 1))
        # prod_k (alpha_k + 1) = (d-1)! prod_{k<d} tau_k
        self.num_blocks = int(np.prod([a + 1 for a in self.alpha]))
        self.resultant_size = self.N * self.num_blocks
        self.xd_degree_bound = d * tau[-1]

    @classmethod
    def from_pmep(cls, p):
        return cls(p.d, p.tau, p.sizes)

    def __repr__(self):
        return (
            f"DixonShape(d={self.d}, tau={self.tau}, N={self.N}, "
            f"size={self.resultant_size}, xd_deg<={self.xd_degree_bound})"
        )


def _hybrid_point(s, t, xd, col):
    """Evaluation point of block column `col` (0-based): t before, s from col on."""
    return np.concatenate([t[:col], s[col:], [xd]])


def dixon_numerator_eval(p, s, t, xd):
    """Numerator of the Dixon function at one point (s, t, x_d).

    Leibniz expansion of the d-by-d block determinant whose (i, j) block is
    P_i at the hybrid point (t_1..t_{j-1}, s_j..s_{d-1}, x_d), with ordinary
    products replaced by Kronecker products taken in equation order.
    """
    s = np.asarray(s, dtype=complex).reshape(-1)
    t = np.asarray(t, dtype=complex).reshape(-1)
    d = p.d
    if s.shape != (d - 1,) or t.shape != (d - 1,):
        raise ValueError("s and t must have length d-1")
    evals = [
        [poly.eval(_hybrid_point(s, t, xd, col)) for col in range(d)] for poly in p.polys
    ]
    return kron_det(evals)


def _kron_batched(a, b):
    """Kronecker product of matrix stacks with broadcast batch axes."""
    p, q = a.shape[-2], a.shape[-1]
    r, s = b.shape[-2], b.shape[-1]
    out = np.einsum("...ab,...cd->...acbd", a, b)
    return out.reshape(out.shape[:-4] + (p * r, q * s))


def kron_det(table):
    """Block Kronecker determinant of a d-by-d table of matrix stacks.

    Returns the sum over permutations sigma of
    sgn(sigma) * table[0][sigma_0] kron ... kron table[d-1][sigma_{d-1}]:
    the Leibniz expansion with ordinary products replaced by Kronecker
    products taken in row order.  The entries of row i share one matrix
    shape; leading batch axes broadcast across all entries.
    """
    d = len(table)
    total = None
    for perm in itertools.permutations(range(d)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        sign = -1 if inversions % 2 else 1
        term = table[0][perm[0]]
        for i in range(1, d):
            term = _kron_batched(term, table[i][perm[i]])
        total = sign * term if total is None else total + sign * term
    return total


def _hide_nodes(p, rows):
    """Every equation with x_d substituted at every node, given the nodes'
    basis rows, in one contraction each: axes (node, x_1.., x_{d-1}, n, n)."""
    return [np.tensordot(rows, poly.coeffs, axes=(1, p.d - 1)) for poly in p.polys]


def _numerator_on_grid(hidden, tables):
    """Values of the Dixon function, prod_k (s_k - t_k) times smaller than
    the numerator, on the tensor grid of `tables` (`_tables`) at a stack of
    x_d nodes; axes (node, s_1.., t_1.., N, N).

    `hidden` holds the equations with x_d already substituted (`_hide_nodes`).
    Block column j < d-1 of the hybrid-point table becomes the divided
    difference (col_j - col_{j+1}) / (s_j - t_j): the block Kronecker
    determinant is multilinear and alternating in its columns, so the table's
    determinant is the numerator divided by prod_k (s_k - t_k), and every
    entry is a polynomial (Dixon's own form of the construction).
    """
    d = len(hidden)
    evals = []
    for coeffs in hidden:
        per_col = []
        for col in range(d):
            vals = coeffs
            for k in range(d - 1):
                rows = tables.t_rows[k] if k < col else tables.s_rows[k]
                vals = bo.apply_matrix_axis(vals, rows, 1 + k)
            # expand to the common axis order (node, s_1.., t_1.., n, n)
            full = np.expand_dims(vals, axis=tuple(range(d, 2 * d - 1)))
            order = list(range(full.ndim))
            for k in range(col):  # axis 1 + k currently holds the t_k grid
                order[1 + k], order[d + k] = order[d + k], order[1 + k]
            per_col.append(np.transpose(full, order) if col else full)
        evals.append(
            [(per_col[j] - per_col[j + 1]) / tables.gaps[j] for j in range(d - 1)]
            + [per_col[-1]]
        )
    return kron_det(evals)


def unfold(f_coeffs, shape):
    """Unfold a Dixon coefficient tensor into the resultant matrix.

    Block columns are indexed by the s multi-index, block rows by the t
    multi-index, both colexicographically with index 1 fastest; N-sized
    blocks are contiguous.  Leading axes (one per x_d node of a stack) pass
    through.
    """
    expected = (
        tuple(a + 1 for a in shape.alpha) + tuple(b + 1 for b in shape.beta) + (shape.N, shape.N)
    )
    f_coeffs = np.asarray(f_coeffs)
    lead = f_coeffs.ndim - len(expected)
    if lead < 0 or f_coeffs.shape[lead:] != expected:
        raise ValueError(f"tensor shape {f_coeffs.shape} does not match {expected}")
    n_i = shape.d - 1
    i_axes = list(range(lead, lead + n_i))
    j_axes = list(range(lead + n_i, lead + 2 * n_i))
    r_axis, c_axis = lead + 2 * n_i, lead + 2 * n_i + 1
    order = list(range(lead)) + j_axes[::-1] + [r_axis] + i_axes[::-1] + [c_axis]
    rows = shape.N * int(np.prod([b + 1 for b in shape.beta]))
    cols = shape.resultant_size
    return np.transpose(f_coeffs, order).reshape(f_coeffs.shape[:lead] + (rows, cols))


def _unit_roots(m):
    return np.exp(2j * np.pi * np.arange(m) / m)


def _axis_nodes(k_s, k_t, basis):
    """k_s nodes for an s_k axis and k_t for its t_k axis, disjoint.

    The table divides by s_k - t_k on the grid, so the two node sets must
    not meet.  Monomial input samples the unit circle: s_k at the k_s-th
    roots of unity, t_k at the k_t-th roots rotated by pi/L with
    L = lcm(k_s, k_t).  In units of pi/L the s angles are even and the t
    angles odd, so the sets never meet, and both Vandermonde matrices stay
    scaled DFTs (perfectly conditioned).  Chebyshev input splits the
    k_s + k_t Chebyshev nodes between s_k and t_k, node i going to s_k when
    floor(i k_s / (k_s + k_t)) steps up at i + 1, which interleaves them.
    """
    if basis == Basis.MONOMIAL:
        return _unit_roots(k_s), _unit_roots(k_t) * np.exp(1j * np.pi / math.lcm(k_s, k_t))
    total = k_s + k_t
    take_s = np.diff(np.arange(total + 1) * k_s // total) > 0
    nodes = bo.cheb1_nodes(total)
    return nodes[take_s], nodes[~take_s]


_Tables = collections.namedtuple(
    "_Tables", "s t s_interp t_interp s_rows t_rows gaps xd_nodes xd_rows to_coeff"
)


@functools.lru_cache(maxsize=None)
def _tables(tau, basis):
    """The part of a build that depends only on (tau, basis), cached and
    read-only, one tuple entry per front axis k where it is per axis.

    The Dixon function has degree alpha_k in s_k and beta_k in t_k, so s_k
    takes alpha_k+1 nodes and t_k beta_k+1 (`_axis_nodes`): ``s`` and ``t``
    are the nodes, ``s_interp`` and ``t_interp`` their square
    values-to-coefficients maps, ``s_rows`` and ``t_rows`` their basis rows
    and ``gaps`` the differences s_k - t_k, shaped to broadcast over axes
    (node, s_1.., t_1.., N, N).  R has degree at most d*tau_d in x_d, so it
    takes d*tau_d + 1 ``xd_nodes`` (unit-circle samples for monomial input,
    Chebyshev nodes for Chebyshev input) with their basis rows ``xd_rows``
    and values-to-coefficients map ``to_coeff``.
    """
    d = len(tau)
    shape = DixonShape(d, tau, (1,) * d)  # the degrees; no size enters here
    s, t = zip(*(_axis_nodes(a + 1, b + 1, basis) for a, b in zip(shape.alpha, shape.beta)))
    gaps = []
    for k in range(d - 1):
        gap_shape = [1] * (2 * d + 1)
        gap_shape[1 + k], gap_shape[d + k] = len(s[k]), len(t[k])
        gaps.append(np.subtract.outer(s[k], t[k]).reshape(gap_shape))
    deg = shape.xd_degree_bound
    if basis == Basis.MONOMIAL:
        xd_nodes = _unit_roots(deg + 1)
        to_coeff = bo.interp_matrix(basis, xd_nodes)
    else:
        xd_nodes = bo.cheb1_nodes(deg + 1)
        to_coeff = bo.cheb1_vals_to_coeffs_matrix(deg + 1)
    interp = [tuple(bo.interp_matrix(basis, x) for x in nodes) for nodes in (s, t)]
    rows = [tuple(bo.basis_rows(basis, x, tau[k]) for k, x in enumerate(nodes)) for nodes in (s, t)]
    xd_rows = bo.basis_rows(basis, xd_nodes, tau[-1])
    out = _Tables(s, t, *interp, *rows, tuple(gaps), xd_nodes, xd_rows, to_coeff)
    for entry in out:
        for arr in entry if isinstance(entry, tuple) else (entry,):
            arr.setflags(write=False)
    return out


# Bytes of Dixon values stacked per chunk of x_d nodes.  A chunk's
# transient memory is three to six times its values (tracemalloc, d = 2-4),
# so this budget keeps a stacked chunk below what one large node already
# needs: small systems take all their nodes in one chunk, and nodes whose
# values exceed the budget go one at a time.
_CHUNK_BYTES = 1 << 18


def build_resultant(p):
    """Construct the hidden variable tensor Dixon resultant R(x_d) of a Pmep.

    Evaluates the Dixon function at d*tau_d + 1 nodes in x_d, in chunks of
    nodes stacked along a leading axis; each chunk is substituted, evaluated
    on the s/t grids (one `kron_det` call, see `_numerator_on_grid`),
    interpolated to coefficients and unfolded.  The matrices are then
    interpolated entrywise into a univariate `MatrixPoly`.  The nodes, grids,
    basis rows and interpolation maps depend only on (tau, basis) and are
    cached (`_tables`), so a repeated shape pays only for the work on its
    coefficients.  Trailing coefficients at most `pep.RANK_TOL` times the
    largest are trimmed (`pep.trim`).
    """
    if not isinstance(p, Pmep):
        raise ValueError("build_resultant expects a Pmep")
    if p.d < 2:
        raise ValueError("d=1 input is already a polynomial eigenvalue problem")
    shape = DixonShape.from_pmep(p)
    tables = _tables(p.tau, p.basis)
    hidden = _hide_nodes(p, tables.xd_rows)
    grid_points = np.prod([len(s) * len(t) for s, t in zip(tables.s, tables.t)])
    chunk = max(1, _CHUNK_BYTES // int(16 * shape.N**2 * grid_points))
    mats = []
    for lo in range(0, len(tables.xd_nodes), chunk):
        vals = _numerator_on_grid([h[lo : lo + chunk] for h in hidden], tables)
        for k in range(shape.d - 1):
            vals = bo.apply_matrix_axis(vals, tables.s_interp[k], 1 + k)
            vals = bo.apply_matrix_axis(vals, tables.t_interp[k], shape.d + k)
        mats.append(unfold(vals, shape))
    coeffs = np.tensordot(tables.to_coeff, np.concatenate(mats), axes=(1, 0))
    return trim(MatrixPoly(coeffs, p.basis))
