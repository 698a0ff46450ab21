"""End-to-end solver: hidden variable, resultant, eigensolve, extraction.

One pipeline for every input, run once in the given coordinates, in four
stages that keep one row per pencil eigenvalue (`_Eigenpairs`):

1. `_hide`: validate, choose the hidden variable and permute it last; the
   solve works in the input's own basis,
2. `_eigenpairs`: build R(x_d): the hidden-variable Dixon resultant in
   general, the operator-determinant pencil x_d Delta_0 - Delta_d of side N
   for a linear MEP, the polynomial itself for d = 1.  R loses its
   structurally zero rows and columns (Kapur, Saxena and Yang) and the core
   left is solved by shift and invert, with C of the companion/colleague
   pencil built from its coefficients and R(sigma), whose LU certifies a
   regular core; only a core that it does not certify has its normal rank
   probed, is compressed by a two-sided projection when singular, and is
   solved again.  The eigenpairs stay unrefined, with no vectors when no
   point can be read from them: a projected pencil, or kept columns that
   leave some coordinate without a read (`_readable`).  Then, for all
   eigenpairs in one stacked call, read each x_k with a ratio block
   (alpha_k > 0) off the block Vandermonde structure of the eigenvector, as
   a least-squares ratio on the kept columns.  Every x_k without one
   (alpha_k = 0: a degree-one x_1 of the Dixon resultant, every front
   coordinate of the other two) is read in one batch: it solves the
   equations, with the other coordinates substituted, in the least-squares
   sense on the Kronecker factors v_1 kron ... kron v_d of block 0.  Those
   factors are taken once, whenever eigenvectors exist and the kept columns
   hold all of block 0, and serve the gate as well.  A read that fails gives
   NaN, and so does every read of a projected pencil or of kept columns
   that leave it short: a ratio block with no kept entry pair, or a
   Kronecker read without all of block 0.  The points are put back in the
   caller's variable order,
3. gate every eigenpair's point in one `extract.refine` call: each point
   takes one Newton step on the original system, on the point and its null
   vectors v_i jointly, keeps it only if it lowers the normalized residual
   max_i ||P_i(x) v_i|| / (||v_i|| scale_i) of the triplet, steps again
   while it fails the tolerance and Newton converges on it (up to 3 steps),
   and passes when that residual is within the tolerance.  The first step's
   v_i are the Kronecker factors when there are any, else from an SVD of
   P_i(x); a further step carries the v_i the last one refined.  No
   residual needs an SVD, and each bounds from above the sigma_min-based
   `extract.residual` that `verify` recomputes.  A point that was not read
   (NaN) comes back unchanged with an infinite residual,
4. `_fallback`: for each eigenpair that failed the gate, every front
   coordinate is re-solved with x_d = lambda substituted: each equation is
   left out in turn, the last one first, and the other d - 1 are solved, as
   one univariate polynomial eigenvalue problem when d = 2 and by a nested
   solve otherwise; a point that several subsystems find is kept once.  A
   hidden coordinate shared by several roots mixes their eigenvectors, but
   the substituted equations still have each of them as a root, so the
   copies of a repeated eigenvalue are solved once, by the first.  These
   candidates are gated in a second call, whose first step takes its null
   vectors from the SVD.  When every eigenpair passed, this stage returns
   the gated points as they are, with no second call.

`solve` hands the candidate points, their residuals and whether each one
came from stage 4 to `extract.filter_solutions` as arrays, which keeps the
passing points, deduplicates them and makes one `Solution` per root; a
root is ``reduced`` only when every copy of it came from stage 4.
``projected`` is a diagnostic of the set alone: true when the top-level
pencil or that of any nested solve was projected.
"""

import math
from collections import namedtuple

import numpy as np

from .dixon import DixonShape, build_resultant
from .errors import MultiPolyEigError, SingularPencilError
from .extract import (
    RESIDUAL_TOL,
    _finite_rows,
    _first_copy,
    block_indices,
    check_tolerances,
    filter_solutions,
    refine,
    vandermonde_ratios,
)
from .mpoly import MatrixPoly, Pmep
from .opdet import delta, kron_factor
from .pep import RANK_TOL, normal_rank, project_singular, solve_pep, trim

__all__ = ["choose_hidden_variable", "solve"]

# eigenvector layout of a pencil whose eigenvector is v_1 kron ... kron v_d
_OneBlock = namedtuple("_OneBlock", "d sizes N alpha")

# one row per pencil eigenvalue: ``lam`` (k,); the point ``x`` (k, d) read
# off its eigenvector, in the caller's variable order, NaN where the read
# failed; ``factors``, equation i's null vectors from block 0 (k, n_i), or None
_Eigenpairs = namedtuple("_Eigenpairs", "lam x factors")


def choose_hidden_variable(p):
    """1-based index of the variable to hide.

    Prefers a variable of degree 1 (left in front as x_1 it would have no
    block in the eigenvector and need the Kronecker read); ties go to the
    smallest resultant size, then to the highest index so an already-last
    variable needs no reordering.
    """
    d = p.d
    tau = p.tau
    n_prod = int(np.prod(p.sizes))

    def size_if_hidden(i):
        rest = [tau[j] for j in range(d) if j != i - 1]
        return n_prod * math.factorial(d - 1) * int(np.prod(rest))

    linear = [i for i in range(1, d + 1) if tau[i - 1] == 1]
    cands = linear if linear else list(range(1, d + 1))
    best = min((size_if_hidden(i), -i) for i in cands)
    return -best[1]


def _as_linear_mep(p):
    """p itself when it is a linear MEP (degree one in every variable,
    without cross terms; see `opdet`), else None.  Its coefficients read the
    same in either basis (T_0 = 1, T_1 = x), so it needs no conversion."""
    if any(t != 1 for t in p.tau):
        return None
    for poly in p.polys:
        scale = poly.max_coeff_norm()
        for idx in np.ndindex(*(2,) * p.d):
            if sum(idx) >= 2 and np.max(np.abs(poly.coeffs[idx])) > 1e-14 * scale:
                return None
    return p


def _structural_core(R):
    """R without the rows and columns whose every coefficient entry is at
    most `RANK_TOL` times R's largest, and the kept columns.  When none
    drop, those rows and columns do not pair up, or R is zero, R comes back
    whole."""
    mag = np.abs(R.coeffs)
    big = mag > RANK_TOL * np.max(mag)
    rows, cols = np.any(big, axis=(0, 2)), np.any(big, axis=(0, 1))
    kept = np.count_nonzero(rows)
    if kept in (0, R.size) or kept != np.count_nonzero(cols):
        return R, np.ones(R.size, dtype=bool)
    return MatrixPoly(R.coeffs[(slice(None), *np.ix_(rows, cols))], R.basis), cols


def _resultant(work):
    """R(x_d) of the permuted system and the layout of its eigenvectors.

    The Dixon resultant in general; for a linear MEP the operator-determinant
    pencil x_d Delta_0 - Delta_d of side N, and for d = 1 the polynomial
    itself.  The eigenvector of the last two is the single block
    v_1 kron ... kron v_d, so no front coordinate has a ratio block.
    """
    d = work.d
    if d == 1:
        R = work.polys[0]
    elif (mep := _as_linear_mep(work)) is not None:
        R = MatrixPoly(np.stack([-delta(mep, d), delta(mep, 0)]))
    else:
        return build_resultant(work), DixonShape.from_pmep(work)
    return trim(R), _OneBlock(d, work.sizes, work.N, (0,) * (d - 1))


def _readable(shape, mask):
    """Whether an eigenvector whose kept columns are ``mask`` can give a
    point: d > 1 and every front coordinate has a read, which is a ratio
    block (alpha_k > 0) that keeps an entry pair with block 0, or, for a
    coordinate without one, block 0 kept whole.  A point needs all of them,
    so one coordinate without a read leaves every eigenvector unused."""
    zero = mask[block_indices(shape, (0,) * (shape.d - 1))]
    return shape.d > 1 and all(
        np.any(zero & mask[block_indices(shape, unit)]) if alpha else np.all(zero)
        for alpha, unit in zip(shape.alpha, np.eye(shape.d - 1, dtype=int))
    )


def _kronecker_read(work, factors, pts, coords):
    """Front coordinates without a ratio block (alpha_k = 0), for k eigenpairs.

    Block 0 of each eigenvector holds v_1 kron ... kron v_d with v_i in
    ker P_i(x*); ``factors[i]`` (shape (k, n_i)) are its rank-one factors
    from `opdet.kron_factor`, which estimate the v_i.  With the
    other coordinates of ``pts`` (shape (k, d)) substituted, equation i is
    C0_i + sum_j x_j Cj_i in the read coordinates ``coords`` (degree one, no
    cross terms; T_0 = 1, T_1 = x), so they are the least-squares solution
    that makes the stacked C0_i u_i + sum_j x_j Cj_i u_i smallest.  C0_i and
    Cj_i are the value and partials of P_i with the read coordinates at 0:
    one jet evaluation of the system for all eigenpairs.  The least-squares
    problems are solved by one stacked reduced QR of the (k, sum n_i, c)
    coefficient stack and one stacked solve with its triangular factor.
    Rows whose substituted equations are not finite, or whose triangular
    factor is exactly singular, come back NaN.
    """
    at = np.array(pts, dtype=complex)
    at[:, coords] = 0.0
    slices = [0] + [1 + j for j in coords]
    a, b = [], []
    for jet, u in zip(work.eval_many(at, jet=True), factors):
        cu = np.einsum("kjab,kb->kja", jet[:, slices], u)
        a.append(cu[:, 0])
        b.append(cu[:, 1:])
    a = np.concatenate(a, axis=1)
    b = np.swapaxes(np.concatenate(b, axis=2), 1, 2)
    return _finite_rows(_least_squares, a, b, width=len(coords))


def _least_squares(a, b):
    """-argmin_x ||a + b x|| per row of the stacks a (k, m) and b (k, m, c)."""
    q, r = np.linalg.qr(b)
    return -np.linalg.solve(r, q.conj().swapaxes(1, 2) @ a[..., None])[..., 0]


def _substituted_candidates(work, lam, tol):
    """Candidate points with x_d = lam substituted, and whether a nested
    solve projected its pencil: ``(points, projected)``.

    Each equation is left out in turn, the last one first, and the front
    coordinates are solved from the other d - 1 substituted equations: the
    eigenvalues of the one equation left when d = 2, a nested solve
    otherwise, at the residual tolerance ``tol`` and its own choice of hidden
    variable.  The recursion ends, as d drops by one at each level.  A
    degenerate subsystem gives up only itself.  A root of all d equations
    solves every subsystem; each point is kept once."""
    d = work.d
    points, projected = [], False
    for out in reversed(range(d)):
        try:
            rest = [q.partial_eval({d - 1: lam}) for i, q in enumerate(work.polys) if i != out]
            if d == 2:
                r = trim(rest[0])
                xs = [[x] for x, _ in solve_pep(r, vectors=False)] if r.m >= 1 else []
            else:
                sub = solve(Pmep(rest), residual_tol=tol)
                xs = [s.x for s in sub]
                projected |= sub.diagnostics["projected"]
        except (ValueError, MultiPolyEigError):
            continue
        points.extend(np.append(x, lam) for x in xs)
    first = _first_copy(np.array(points).reshape(-1, d))
    return [x for i, x in enumerate(points) if first[i] == i], projected


def _hide(p, hide_variable):
    """Validate p, choose the hidden variable (1-based ``hide_variable``, or
    `choose_hidden_variable` when None) and permute it last.  Returns the
    permuted system and the column order that undoes the permutation."""
    if not isinstance(p, Pmep):
        raise ValueError("expected a Pmep")
    d = p.d
    if hide_variable is not None and not 1 <= hide_variable <= d:
        raise ValueError(f"hide_variable is a 1-based variable index, from 1 to d = {d}")
    if d > 1 and any(t < 1 for t in p.tau):
        raise ValueError(
            "every variable must appear in the system (tau_k >= 1); a missing "
            "variable leaves the point underdetermined"
        )
    hide = choose_hidden_variable(p) if hide_variable is None else hide_variable
    perm = [i for i in range(1, d + 1) if i != hide] + [hide]
    return p.permute_variables(perm), np.argsort(np.array(perm) - 1)


def _eigenpairs(work, unpermute):
    """The ungated `_Eigenpairs` of the permuted system, and R's diagnostics.

    R's structural core is solved once when some R(sigma) certifies it, with
    a condition estimate at most RANK_TOL^-1/2, halfway (in log scale) to
    the rank probe's cut.  A core it does not certify has its rank probed at
    the same shifts; only a singular one is projected, from a generator of
    fixed seed that no other core creates.  A row or column of entries at
    most RANK_TOL times R's largest makes the estimate about 1/RANK_TOL, so
    an R that would certify whole loses nothing to the deflation.  A
    projected pencil's eigenvectors give nothing: every eigenpair then reads
    NaN.  Otherwise the ratio read fills the coordinates with a ratio block,
    and the Kronecker read, which substitutes every coordinate it does not
    read, the others; a read the kept columns leave short reads NaN.  When
    they leave some coordinate without a read, no point can be read, and
    the solve computes no eigenvectors.
    """
    d = work.d
    R, shape = _resultant(work)
    core, mask = _structural_core(R)
    rank, projected, vectors = core.size, False, _readable(shape, mask)
    try:  # a constant core has no shift to certify it, and is probed
        eigpairs = solve_pep(core, vectors, max_cond=RANK_TOL**-0.5) if core.m >= 1 else None
    except SingularPencilError:
        eigpairs = None
    if eigpairs is None:  # probe the normal rank, project a singular core
        rank = normal_rank(core)
        projected = rank < core.size
        if projected:
            core = project_singular(core, rank)
        vectors = vectors and not projected
        eigpairs = solve_pep(core, vectors=vectors) if core.m >= 1 else []
    lam = np.array([val for val, _ in eigpairs], dtype=complex)
    fronts = np.full((len(eigpairs), d - 1), np.nan, dtype=complex)
    factors = None
    if vectors and eigpairs:
        # the core's eigenvectors, with zeros on R's dropped columns
        vecs = np.zeros((len(eigpairs), R.size), dtype=complex)
        vecs[:, mask] = [vec for _, vec in eigpairs]
        zero = block_indices(shape, (0,) * (d - 1))
        if np.all(mask[zero]):  # block 0 is v_1 kron ... kron v_d
            factors = kron_factor(vecs[:, zero], shape.sizes)
        if any(shape.alpha):  # rows whose read fails come back NaN
            fronts = vandermonde_ratios(vecs, shape, mask)
        read = [k for k in range(d - 1) if shape.alpha[k] == 0]
        if read and factors is not None:  # rows whose ratio read failed stay NaN
            fronts[:, read] = _kronecker_read(work, factors, np.column_stack([fronts, lam]), read)
    x = np.column_stack([fronts, lam])[:, unpermute]
    info = {"resultant_size": R.size, "normal_rank": rank, "projected": projected}
    return _Eigenpairs(lam, x, factors), info


def _fallback(p, work, unpermute, lam, x, res, tol):
    """The candidate points of the solution set, in eigenpair order.

    ``x`` and ``res`` are the gated points of the eigenvalues ``lam`` and
    their residuals.  Each eigenpair that passed the gate gives its own
    point.  The first copy of each eigenvalue that failed it re-solves the
    front coordinates (`_substituted_candidates`) for all of its copies, and
    those candidates are gated in one `refine` call; when none failed,
    nothing is re-solved or gated.  With d = 1 nothing is left to re-solve:
    the point is the eigenvalue, so an eigenpair that failed the gate finds
    nothing.  Returns ``(points, residuals, reduced, nested_projected,
    dropped)``, with ``dropped`` the eigenpairs whose first copy found no
    candidate.
    """
    d = work.d
    retry = np.flatnonzero(~(res <= tol))
    if d == 1 or not retry.size:
        return x, res, np.zeros(len(lam), dtype=bool), False, 0
    first = retry[_first_copy(lam[retry, None])]
    leaders = retry[first == retry]
    # a spurious eigenvalue can overflow the substituted equations
    with np.errstate(over="ignore", invalid="ignore"):
        subs = [_substituted_candidates(work, lam[j], tol) for j in leaders]
    found = np.zeros(len(lam), dtype=int)
    found[leaders] = [len(ys) for ys, _ in subs]
    ys = np.array([y for ys, _ in subs for y in ys], dtype=complex).reshape(-1, d)
    xs, rs = refine(p, ys[:, unpermute], tol)
    # each candidate carries the eigenpair it came from; a stable sort on
    # that index puts the points in eigenpair order
    keep = np.setdiff1d(np.arange(len(lam)), retry)
    src = np.concatenate([keep, np.repeat(leaders, found[leaders])])
    order = np.argsort(src, kind="stable")
    return (
        np.concatenate([x[keep], xs])[order],
        np.concatenate([res[keep], rs])[order],
        order >= len(keep),
        any(pr for _, pr in subs),
        int(np.count_nonzero(found[first] == 0)),
    )


def solve(p, *, hide_variable=None, residual_tol=RESIDUAL_TOL):
    """Globally solve a polynomial multiparameter eigenvalue problem.

    ``hide_variable`` (1-based) overrides the automatic choice of the hidden
    variable.  ``residual_tol`` is the residual gate a point must pass to
    become a solution.  Every rank decision cuts at `pep.RANK_TOL`, and the
    solve works in the input's basis: ``solve(p.convert_basis(B))`` works
    in B.
    """
    check_tolerances(residual_tol=residual_tol)
    work, unpermute = _hide(p, hide_variable)
    pairs, info = _eigenpairs(work, unpermute)
    x, res = refine(p, pairs.x, residual_tol, pairs.factors)
    points, res, reduced, nested, dropped = _fallback(
        p, work, unpermute, pairs.lam, x, res, residual_tol
    )
    out = filter_solutions(points, res, residual_tol, reduced)
    info["projected"] = info["projected"] or nested  # the top-level pencil or any nested one
    out.diagnostics = {**info, "dropped_eigenpairs": dropped}
    return out
