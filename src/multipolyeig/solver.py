"""End-to-end solver: hidden variable, resultant, eigensolve, extraction.

One pipeline for every input, run once in the given coordinates:

1. choose the hidden variable and permute it last,
2. build R(x_d): the hidden-variable Dixon resultant in general, the
   operator-determinant pencil x_d Delta_0 - Delta_d of side N for a linear
   MEP, the polynomial itself for d = 1,
3. drop R's structurally zero rows and columns (Kapur, Saxena and Yang),
   probe the normal rank, and compress a still singular R by a two-sided
   projection,
4. solve by shift and invert, with C of the companion/colleague pencil
   built from R's coefficients and R(sigma); the eigenpairs stay unrefined,
   and carry no vectors when nothing is read from them,
5. for all eigenpairs in one stacked call, read each x_k with a ratio block
   (alpha_k > 0) off the block Vandermonde structure of the eigenvector, on
   the columns step 3 kept.  Every x_k without a ratio block
   (alpha_k = 0: a degree-one x_1 of the Dixon resultant, every front
   coordinate of the other two) is read for all eigenpairs in one batch: it
   solves the equations, with the other coordinates substituted, in the
   least-squares sense on the Kronecker factors v_1 kron ... kron v_d of
   block 0.  Those factors are taken once, whenever eigenvectors exist and
   the kept columns hold all of block 0, and serve step 6 as well.  An
   eigenpair whose read fails reads NaN.  Nothing is read from a projected
   pencil, or when the kept columns leave a read short: every eigenpair
   then takes the fallback,
6. undo the permutation and gate the candidates of every eigenpair in one
   call (`extract.refine`): each point takes one Newton step on the original
   system, keeps it only if it lowers the normalized residual, steps again
   while it fails the filter's tolerance and Newton converges on it (up to
   3 steps), and passes when that residual is within the tolerance.  The
   first step's null vectors v_i are the Kronecker factors of step 5 when
   there are any; a further step takes them from an SVD of P_i(x).  Every
   residual comes from singular values alone,
7. the one fallback: for each eigenpair whose read failed or none of whose
   candidates passed, every front coordinate is re-solved from the equations
   with x_d = lambda substituted: each equation is left out in turn, the last
   one first, and the other d - 1 are solved, as one univariate polynomial
   eigenvalue problem when d = 2 and by a nested solve otherwise.  A point
   that several subsystems find is kept once.  Those candidates are gated
   in a second call, with the SVD's null vectors at every step.  A hidden
   coordinate shared by several roots mixes their eigenvectors; the
   substituted equations still have each of them as a root, so the copies
   of a repeated eigenvalue are solved once.  The passing candidates are
   deduplicated.  The diagnostic ``projected`` is true when the top-level
   pencil or the pencil of any nested solve was projected.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from .dixon import DixonShape, build_resultant
from .errors import MultiPolyEigError
from .extract import (
    ExtractionConfig,
    Solution,
    _first_copy,
    _per_slice,
    block_indices,
    check_tolerances,
    filter_solutions,
    refine,
    vandermonde_ratios,
)
from .mpoly import Basis, MatrixPoly, Pmep
from .opdet import delta, kron_factor
from .pep import normal_rank, project_singular, solve_pep, trim

__all__ = ["SolverConfig", "choose_hidden_variable", "solve"]

# eigenvector layout of a pencil whose eigenvector is v_1 kron ... kron v_d
_OneBlock = namedtuple("_OneBlock", "d sizes N alpha")


@dataclass
class SolverConfig:
    """Knobs for the full pipeline; defaults follow the library conventions.

    ``seed`` drives the random rank probes and projections of singular
    resultants; ``hide_variable`` (1-based) overrides the automatic choice.
    ``rank_tol`` also cuts R's structurally zero rows and columns.
    """

    basis: Basis | None = None
    seed: int = 0
    hide_variable: int | None = None
    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)
    rank_tol: float = 1e-10

    def __post_init__(self):
        check_tolerances(rank_tol=self.rank_tol)
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.hide_variable is not None and self.hide_variable < 1:
            raise ValueError("hide_variable is a 1-based variable index")


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
    """p in the monomial basis when it is a linear MEP (degree one in every
    variable, without cross terms; see `opdet`), else None."""
    if any(t != 1 for t in p.tau):
        return None
    q = p.convert_basis(Basis.MONOMIAL)
    for poly in q.polys:
        scale = poly.max_coeff_norm()
        for idx in np.ndindex(*(2,) * q.d):
            if sum(idx) >= 2 and np.max(np.abs(poly.coeffs[idx])) > 1e-14 * scale:
                return None
    return q


def _structural_core(R, rank_tol):
    """R without the rows and columns whose every coefficient entry is at
    most ``rank_tol`` times R's largest, and the kept columns.  When none
    drop, those rows and columns do not pair up, or R is zero, R comes back
    whole."""
    mag = np.abs(R.coeffs)
    big = mag > rank_tol * np.max(mag)
    rows, cols = np.any(big, axis=(0, 2)), np.any(big, axis=(0, 1))
    kept = np.count_nonzero(rows)
    if kept in (0, R.size) or kept != np.count_nonzero(cols):
        return R, np.ones(R.size, dtype=bool)
    return MatrixPoly(R.coeffs[(slice(None), *np.ix_(rows, cols))], R.basis), cols


def _masked_out(shape, mask):
    """Whether the kept columns leave a read short: a ratio block without an
    entry pair, or a Kronecker read without all of block 0."""
    zero = mask[block_indices(shape, (0,) * (shape.d - 1))]
    for k in range(shape.d - 1):
        if shape.alpha[k] == 0:  # no ratio block: the Kronecker read factors block 0
            if not np.all(zero):
                return True
            continue
        unit = [0] * (shape.d - 1)
        unit[k] = 1
        if not np.any(zero & mask[block_indices(shape, unit)]):
            return True
    return False


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
    one jet evaluation per equation for all eigenpairs.  The least-squares
    problems are solved by one stacked reduced QR of the (k, sum n_i, c)
    coefficient stack and one stacked solve with its triangular factor.
    Rows whose substituted equations are not finite, or whose triangular
    factor is exactly singular, come back NaN.
    """
    at = np.array(pts, dtype=complex)
    at[:, coords] = 0.0
    slices = [0] + [1 + j for j in coords]
    a, b = [], []
    for poly, u in zip(work.polys, factors):
        cu = np.einsum("kjab,kb->kja", poly.eval_many(at, jet=True)[:, slices], u)
        a.append(cu[:, 0])
        b.append(cu[:, 1:])
    a = np.concatenate(a, axis=1)
    b = np.concatenate(b, axis=2)
    ok = np.all(np.isfinite(a), axis=1) & np.all(np.isfinite(b), axis=(1, 2))
    out = np.full((len(pts), len(coords)), np.nan, dtype=complex)
    if np.any(ok):
        q, r = np.linalg.qr(np.swapaxes(b[ok], 1, 2))
        qa = q.conj().swapaxes(1, 2) @ a[ok][..., None]

        def lsq(sl):
            return -np.linalg.solve(r[sl], qa[sl])[..., 0]

        out[ok] = _per_slice(lsq, 0, len(r), len(coords))
    return out


def _substituted_candidates(work, lam, cfg):
    """Candidate points with x_d = lam substituted, and whether a nested
    solve projected its pencil: ``(points, projected)``.

    Each equation is left out in turn, the last one first, and the front
    coordinates are solved from the other d - 1 substituted equations: the
    eigenvalues of the one equation left when d = 2, a nested solve
    otherwise.  The recursion ends, as d drops by one at each level.  A
    degenerate subsystem gives up only itself.  A root of all d equations
    solves every subsystem; each point is kept once."""
    d = work.d
    sub_cfg = replace(cfg, hide_variable=None, basis=None)
    points, projected = [], False
    for out in reversed(range(d)):
        try:
            rest = [q.partial_eval({d - 1: lam}) for i, q in enumerate(work.polys) if i != out]
            if d == 2:
                r = trim(rest[0])
                xs = [[x] for x, _ in solve_pep(r, vectors=False)] if r.m >= 1 else []
            else:
                sub = solve(Pmep(rest), sub_cfg)
                xs = [s.x for s in sub]
                projected |= sub.diagnostics["projected"]
        except (ValueError, MultiPolyEigError):
            continue
        points.extend(np.append(x, lam) for x in xs)
    first = _first_copy(np.array(points).reshape(-1, d))
    return [x for i, x in enumerate(points) if first[i] == i], projected


def _refine_groups(p, groups, tol, vecs=None):
    """Refine and gate every point of every group in one call; returns the
    (point, residual) pairs in the same grouping.  ``vecs``, when given,
    holds each equation's null vectors of the points in order (see
    `extract.refine`)."""
    sizes = [len(g) for g in groups]
    points, res = refine(p, [x for g in groups for x in g], tol, vecs)
    ends = np.cumsum(sizes)
    return [list(zip(points[e - n : e], res[e - n : e])) for n, e in zip(sizes, ends)]


def solve(p, cfg=None):
    """Globally solve a polynomial multiparameter eigenvalue problem."""
    cfg = cfg or SolverConfig()
    if not isinstance(p, Pmep):
        raise ValueError("expected a Pmep")
    if cfg.basis is not None and cfg.basis != p.basis:
        p = p.convert_basis(cfg.basis)
    d = p.d
    if cfg.hide_variable is not None and cfg.hide_variable > d:
        raise ValueError("hide_variable exceeds the number of variables")
    if d > 1 and any(t < 1 for t in p.tau):
        raise ValueError(
            "every variable must appear in the system (tau_k >= 1); a missing "
            "variable leaves the point underdetermined"
        )

    hide = choose_hidden_variable(p) if cfg.hide_variable is None else cfg.hide_variable
    perm = [i for i in range(1, d + 1) if i != hide] + [hide]
    work = p.permute_variables(perm)

    R, shape = _resultant(work)
    rng = np.random.default_rng([cfg.seed, 1])
    core, mask = _structural_core(R, cfg.rank_tol)
    rp = normal_rank(core, rank_tol=cfg.rank_tol, rng=rng)
    projected = rp.normal_rank < core.size
    if projected:
        core = project_singular(core, rp, rng)[0]
    # a projected pencil's eigenvectors, or a read the kept columns leave
    # short, give nothing: every eigenpair then takes the fallback; the
    # Kronecker read substitutes every coordinate it does not read
    ratio = [k for k in range(d - 1) if shape.alpha[k] > 0]
    read = [k for k in range(d - 1) if shape.alpha[k] == 0]
    if projected or _masked_out(shape, mask):
        ratio, read = [], []
    vectors = bool(ratio or read)
    eigpairs = solve_pep(core, vectors=vectors) if core.m >= 1 else []
    lams = np.array([lam for lam, _ in eigpairs], dtype=complex)
    fronts = np.full((len(eigpairs), d - 1), np.nan, dtype=complex)
    factors = None
    if vectors and eigpairs:
        # the core's eigenvectors, with zeros on R's dropped columns
        vecs = np.zeros((len(eigpairs), R.size), dtype=complex)
        vecs[:, mask] = [vec for _, vec in eigpairs]
        zero = block_indices(shape, (0,) * (d - 1))
        if np.all(mask[zero]):  # block 0 is v_1 kron ... kron v_d
            factors = kron_factor(vecs[:, zero], shape.sizes)
        if ratio:  # rows whose read fails come back NaN
            fronts = vandermonde_ratios(vecs, shape, mask, coords=ratio)
        if read:  # rows whose ratio read failed stay NaN
            pts = np.column_stack([fronts, lams])
            fronts[:, read] = _kronecker_read(work, factors, pts, read)
    unpermute = np.argsort(np.array(perm) - 1)
    points = np.column_stack([fronts, lams])[:, unpermute]
    readable = np.all(np.isfinite(points), axis=1)
    if factors is not None:  # the first Newton step's v_i
        factors = [u[readable] for u in factors]
    tol = cfg.extraction.residual_tol
    gated = _refine_groups(
        p, [[x] if ok else [] for x, ok in zip(points, readable)], tol, factors
    )
    reduced = [False] * len(gated)

    # a hidden coordinate shared by several roots mixes their eigenvectors;
    # substituting lambda into the equations still finds every one of them,
    # so each repeated eigenvalue is solved once, for all of its copies
    covered = np.zeros(len(gated), dtype=bool)
    nested_projected = False
    if d > 1:
        retry = np.array(
            [j for j, g in enumerate(gated) if not any(r <= tol for _, r in g)], dtype=int
        )
        first = retry[_first_copy(lams[retry, None])]
        leaders = retry[first == retry]
        # a spurious eigenvalue can overflow the substituted equations
        with np.errstate(over="ignore", invalid="ignore"):
            subs = [_substituted_candidates(work, lams[j], cfg) for j in leaders]
        nested_projected = any(pr for _, pr in subs)
        redone = _refine_groups(p, [[y[unpermute] for y in ys] for ys, _ in subs], tol)
        for j in retry:
            gated[j], reduced[j] = [], True
        for j, g in zip(leaders, redone):
            gated[j] = g
            covered[retry[first == j]] = bool(g)

    dropped = sum(1 for g, c in zip(gated, covered) if not (g or c))
    cands = [
        Solution(x, r, {"projected": projected, "reduced": red})
        for g, red in zip(gated, reduced)
        for x, r in g
    ]
    out = filter_solutions(cands, cfg.extraction)
    out.diagnostics = {
        "resultant_size": R.size,
        "normal_rank": rp.normal_rank,
        # the top-level pencil or any nested one
        "projected": projected or nested_projected,
        "dropped_eigenpairs": dropped,
    }
    return out
