"""End-to-end solver: hidden variable, resultant, eigensolve, extraction.

Pipeline for d >= 2 (single univariate matrix polynomials pass straight to
the linearization machinery), run once in the given coordinates:

1. choose the hidden variable and permute it last,
2. build the hidden-variable Dixon resultant R(x_d),
3. probe the normal rank; compress singular R by a two-sided projection,
4. linearize (companion/colleague) and solve by shift and invert
   (eigenvalues only for projected pencils); the eigenpairs stay unrefined,
5. per eigenpair (for projected pencils, rebuilt from the null space of
   R(lambda)), read the front coordinates off the block Vandermonde structure
   of the eigenvector in one pass, masking entries corrupted by the generic
   null space.  A degree-one x_1 (alpha_1 = 0) has no block of its own: it
   is the least-squares quotient of the equations, with the other
   coordinates substituted, on the Kronecker factors v_1 kron ... kron v_d
   of block 0.  Coordinates whose blocks the mask removes (and x_1 with
   them, when its read needs them) are re-solved from the equations with
   x_d = lambda substituted,
6. undo the permutation and gate the candidates of every eigenpair in one
   call (`extract.refine`): each point takes one Newton step on the original
   system, keeps it only if it lowers the normalized residual, and passes
   when that residual is within the filter's tolerance,
7. the one fallback: for each eigenpair whose read failed or none of whose
   candidates passed, every front coordinate is re-solved from the equations
   with x_d = lambda substituted (one level of reduction only), and those
   candidates are gated in a second call.  A hidden coordinate shared by
   several roots mixes their eigenvectors; the substituted equations still
   have each of them as a root.  The passing candidates are deduplicated.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dixon import DixonShape, ResultantPoly, build_resultant
from .errors import (
    ExtractionFailureError,
    MultiPolyEigError,
    ReductionDepthExceededError,
    SingularMepError,
)
from .extract import (
    ExtractionConfig,
    Solution,
    SolutionSet,
    block_indices,
    filter_solutions,
    generic_nullspace_basis,
    refine,
    vandermonde_ratios,
)
from .mpoly import Basis, Pmep
from .opdet import LinearMep, kron_factor, solve_linear_mep
from .pep import normal_rank, project_singular, solve_pep

__all__ = ["SolverConfig", "choose_hidden_variable", "solve"]


@dataclass
class SolverConfig:
    """Knobs for the full pipeline; defaults follow the library conventions.

    ``seed`` drives the random rank probes and projections of singular
    resultants; ``hide_variable`` (1-based) overrides the automatic choice.
    """

    basis: Basis | None = None
    seed: int = 0
    hide_variable: int | None = None
    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)
    rank_tol: float = 1e-10

    def __post_init__(self):
        if self.rank_tol <= 0:
            raise ValueError("tolerances must be positive")
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
    """Convert a degree-(1,..,1) system without cross terms, else return None."""
    if any(t != 1 for t in p.tau):
        return None
    q = p.convert_basis(Basis.MONOMIAL)
    v0, vmats = [], []
    for poly in q.polys:
        scale = poly.max_coeff_norm()
        coeffs = poly.coeffs
        for idx in np.ndindex(*(2,) * q.d):
            if sum(idx) >= 2 and np.max(np.abs(coeffs[idx])) > 1e-14 * scale:
                return None
        v0.append(coeffs[(0,) * q.d])
        row = []
        for j in range(q.d):
            e = [0] * q.d
            e[j] = 1
            row.append(-coeffs[tuple(e)])
        vmats.append(row)
    return LinearMep(v0, vmats)


def _hiding_permutation(d, hide):
    perm = [i for i in range(1, d + 1) if i != hide] + [hide]
    return perm


def _null_basis(mat, rel_tol):
    _, sv, vh = np.linalg.svd(mat)
    if sv.size == 0 or sv[0] == 0.0:
        return np.eye(mat.shape[1], dtype=complex)
    rank = int(np.count_nonzero(sv / sv[0] > rel_tol))
    if rank == mat.shape[1]:
        rank = mat.shape[1] - 1  # keep at least the smallest direction
    return vh[rank:].conj().T


def _least_generic_combination(null_basis, generic_basis):
    """Vector in span(null_basis) least representable in the generic null space."""
    if generic_basis.shape[1] == 0 or null_basis.shape[1] == 1:
        return null_basis[:, -1]
    overlap = generic_basis.conj().T @ null_basis
    _, _, vh = np.linalg.svd(overlap)
    return null_basis @ vh[-1].conj()


def _lost_coordinates(shape, mask):
    """Front coordinates whose ratio blocks the null-space mask removes."""
    zero_idx = block_indices(shape, (0,) * (shape.d - 1))
    lost = []
    for k in range(shape.d - 1):
        if shape.alpha[k] == 0:
            continue  # no ratio block; read from the Kronecker factors instead
        unit = [0] * (shape.d - 1)
        unit[k] = 1
        usable = mask[zero_idx] & mask[block_indices(shape, unit)]
        if not np.any(usable):
            lost.append(k)
    return lost


def _degree_one_read(work, shape, vec, front, lam):
    """x_1 from the Kronecker factors of the zero block (alpha_1 = 0).

    Block 0 holds v_1 kron ... kron v_d with v_i in ker P_i(x*); its best
    rank-one factors u_i estimate the v_i.  With the other coordinates
    substituted, each equation is C0_i + x_1 C1_i in either basis
    (T_0 = 1, T_1 = x), so x_1 is the least-squares quotient that makes the
    stacked C0_i u_i + x_1 C1_i u_i smallest.
    """
    d = shape.d
    factors = kron_factor(vec[block_indices(shape, (0,) * (d - 1))], shape.sizes)
    known = {k: front[k] for k in range(1, d - 1)}
    known[d - 1] = lam
    a, b = [], []
    for poly, u in zip(work.polys, factors):
        c = poly.partial_eval(known).coeffs
        a.append(c[0] @ u)
        b.append(c[1] @ u)
    a = np.concatenate(a)
    b = np.concatenate(b)
    bb = np.vdot(b, b).real
    if bb == 0.0:
        raise ExtractionFailureError("x_1 drops out of every equation at this eigenpair")
    return -np.vdot(b, a) / bb


def _pep_solutions(p, cfg):
    """d = 1 passthrough: eigenvalues of the single matrix polynomial."""
    poly = p.polys[0]
    r = ResultantPoly(poly.coeffs, poly.basis).trim()
    rng = np.random.default_rng([cfg.seed, 3])
    rp = normal_rank(r, rank_tol=cfg.rank_tol, rng=rng)
    projected = rp.normal_rank < r.size
    work = r
    if projected:
        work, _, _ = project_singular(r, rp, rng)
    pairs = solve_pep(work, vectors=False) if work.m >= 1 else []
    points, res = refine(p, [lam for lam, _ in pairs])
    cands = [Solution(x, rx, {"projected": projected}) for x, rx in zip(points, res)]
    out = filter_solutions(cands, cfg.extraction)
    out.diagnostics = {
        "resultant_size": r.size,
        "normal_rank": rp.normal_rank,
        "projected": projected,
        "dropped_eigenpairs": 0,
    }
    return out


def _lost_coordinate_candidates(work, front, lam, lost, cfg, depth):
    """Candidate completions for coordinates missing from the eigenvector."""
    d = work.d
    known = {j: front[j] for j in range(d - 1) if j not in lost}
    known[d - 1] = lam
    if len(lost) == 1:
        k = lost[0]
        values = []
        for poly in work.polys:
            sub = poly.partial_eval(known)
            r = ResultantPoly(sub.coeffs, sub.basis).trim()
            if r.m < 1 or r.max_coeff_norm() == 0.0:
                continue
            values.extend(lam_k for lam_k, _ in solve_pep(r, vectors=False))
        out = []
        for val in values:
            y = np.array(front, dtype=complex)
            y[k] = val
            out.append(np.concatenate([y, [lam]]))
        return out
    if depth >= 1:
        raise ReductionDepthExceededError(
            "reduced problem still misses coordinates; refusing to recurse deeper"
        )
    reduced_polys = []
    for poly in work.polys[: len(lost)]:
        sub = poly.partial_eval(known)
        reduced_polys.append(sub)
    sub_cfg = replace(cfg, hide_variable=None, basis=None)
    sub = solve(Pmep(reduced_polys), sub_cfg, _depth=depth + 1)
    out = []
    for s in sub:
        y = np.array(front, dtype=complex)
        for pos, k in enumerate(sorted(lost)):
            y[k] = s.x[pos]
        out.append(np.concatenate([y, [lam]]))
    return out


def _refine_groups(p, groups):
    """Refine and gate every point of every group in one call (none when the
    groups are empty); returns the (point, residual) pairs in the same
    grouping."""
    sizes = [len(g) for g in groups]
    if not sum(sizes):
        return [[] for _ in groups]
    points, res = refine(p, [x for g in groups for x in g])
    ends = np.cumsum(sizes)
    return [list(zip(points[e - n : e], res[e - n : e])) for n, e in zip(sizes, ends)]


def solve(p, cfg=None, _depth=0):
    """Globally solve a polynomial multiparameter eigenvalue problem."""
    cfg = cfg or SolverConfig()
    if not isinstance(p, Pmep):
        raise ValueError("expected a Pmep")
    if cfg.basis is not None and cfg.basis != p.basis:
        p = p.convert_basis(cfg.basis)
    d = p.d
    if cfg.hide_variable is not None and cfg.hide_variable > d:
        raise ValueError("hide_variable exceeds the number of variables")
    if d == 1:
        return _pep_solutions(p, cfg)
    if any(t < 1 for t in p.tau):
        raise ValueError(
            "every variable must appear in the system (tau_k >= 1); a missing "
            "variable leaves the point underdetermined"
        )

    mep = _as_linear_mep(p)
    if mep is not None:
        try:
            out = solve_linear_mep(mep)
        except SingularMepError:
            out = SolutionSet([])
        # a regular linear MEP has exactly N eigenvalues; fewer validated
        # solutions mean repeated coordinates spoiled the Rayleigh quotients
        result = filter_solutions(out, cfg.extraction)
        if len(result) >= p.N:
            result.diagnostics = dict(out.diagnostics)
            return result

    hide = cfg.hide_variable
    if hide is None:
        hide = choose_hidden_variable(p)
    perm = _hiding_permutation(d, hide)
    work = p.permute_variables(perm)

    R = build_resultant(work)
    shape = DixonShape.from_pmep(work)
    rng = np.random.default_rng([cfg.seed, 1])
    rp = normal_rank(R, rank_tol=cfg.rank_tol, rng=rng)
    projected = rp.normal_rank < R.size
    solver_R = R
    if projected:
        solver_R, _, _ = project_singular(R, rp, rng)

    # projected pencils rebuild each vector from null(R(lambda)) below
    eigpairs = solve_pep(solver_R, vectors=not projected) if solver_R.m >= 1 else []
    mask = np.ones(R.size, dtype=bool)
    if projected:
        generic_basis = generic_nullspace_basis(R, cfg.rank_tol, rng)
        mask = np.linalg.norm(generic_basis, axis=1) <= cfg.extraction.nullspace_tol
    lost = _lost_coordinates(shape, mask)
    # the Kronecker read of x_1 substitutes every other coordinate
    read = shape.alpha[0] == 0 and not lost
    if shape.alpha[0] == 0 and lost:
        lost = [0] + lost
    recover = [k for k in range(d - 1) if k not in lost and shape.alpha[k] > 0]
    unknown = np.full(d - 1, np.nan, dtype=complex)
    unpermute = np.argsort(np.array(perm) - 1)

    def complete(front, lam, missing):
        """Points in the original coordinates from a front and lambda,
        completing the missing coordinates."""
        if not missing:
            return [np.append(front, lam)[unpermute]]
        # a spurious eigenvalue can make the substituted equations
        # arbitrarily degenerate; give up on the eigenpair, not the solve
        try:
            ys = _lost_coordinate_candidates(work, front, lam, missing, cfg, _depth)
        except (ValueError, MultiPolyEigError):
            return []
        return [y[unpermute] for y in ys]

    kf = cfg.extraction.keep_fraction
    groups = []
    for lam, vec in eigpairs:
        if projected:
            null = _null_basis(R.eval(lam), cfg.rank_tol)
            vec = _least_generic_combination(null, generic_basis)
        try:
            front = unknown.copy()
            if recover:
                front = vandermonde_ratios(
                    vec, shape, mask=mask, keep_fraction=kf, coords=recover
                )
            if read:
                front[0] = _degree_one_read(work, shape, vec, front, lam)
            groups.append(complete(front, lam, lost))
        except ExtractionFailureError:
            groups.append([])
    gated = _refine_groups(p, groups)
    reduced = [bool(lost)] * len(groups)

    # a hidden coordinate shared by several roots mixes their eigenvectors;
    # substituting lambda into the equations still finds every one of them
    tol = cfg.extraction.residual_tol
    if len(lost) < d - 1:
        retry = [j for j, g in enumerate(gated) if not any(r <= tol for _, r in g)]
        everything = list(range(d - 1))
        redone = _refine_groups(
            p, [complete(unknown, eigpairs[j][0], everything) for j in retry]
        )
        for j, g in zip(retry, redone):
            gated[j], reduced[j] = g, True

    dropped = sum(1 for g in gated if not g)
    cands = [
        Solution(x, r, {"projected": projected, "reduced": red})
        for g, red in zip(gated, reduced)
        for x, r in g
    ]
    out = filter_solutions(cands, cfg.extraction)
    out.diagnostics = {
        "resultant_size": R.size,
        "normal_rank": rp.normal_rank,
        "projected": projected,
        "dropped_eigenpairs": dropped,
    }
    return out
