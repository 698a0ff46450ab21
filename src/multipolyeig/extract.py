"""Solution recovery from resultant eigenvectors, refinement, residuals, filtering.

Eigenvectors of the resultant R(x_d) carry block Vandermonde structure: the
flat vector is a stack of N-sized blocks indexed colexicographically by the
s-exponent multi-index (i_1..i_{d-1}), and block i holds
prod_k x_k^{i_k} * v.  The coordinate x_k is therefore the ratio of the
unit-exponent block e_k to the zero-exponent block, read by least squares.

Candidate points are then refined and gated in one batch on the original
system (`refine`): Newton steps on each point and its null vectors v_i, and
the refined triplet's residual max_i ||P_i(x) v_i|| / (||v_i|| scale_i).  Up
to rounding it bounds from above `residual`, the sigma_min-based value that
independent checks recompute from the point alone.
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Solution",
    "SolutionSet",
    "block_indices",
    "vandermonde_ratios",
    "residual",
    "refine",
    "filter_solutions",
]

# the default residual gate of a solution: of `solve`, the command line's
# --residual-tol and `oracle.newton_oracle`
RESIDUAL_TOL = 1e-8


@dataclass
class Solution:
    """One validated solution: coordinates, normalized residual, provenance flags."""

    x: np.ndarray
    residual: float
    flags: dict = field(default_factory=dict)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=complex).reshape(-1)
        self.residual = float(self.residual)
        base = {"projected": False, "reduced": False}
        base.update(self.flags)
        self.flags = base


class SolutionSet:
    """List of solutions plus solver diagnostics."""

    def __init__(self, solutions, diagnostics=None):
        self.solutions = list(solutions)
        self.diagnostics = dict(diagnostics or {})

    def __len__(self):
        return len(self.solutions)

    def __iter__(self):
        return iter(self.solutions)

    def __getitem__(self, k):
        return self.solutions[k]

    def __repr__(self):
        return f"SolutionSet({len(self.solutions)} solutions, diagnostics={self.diagnostics})"

    def points(self):
        """All solution coordinate vectors as a (count, d) array."""
        if not self.solutions:
            return np.zeros((0, 0), dtype=complex)
        return np.array([s.x for s in self.solutions])


def check_tolerances(**tolerances):
    """Raise ValueError unless every named tolerance is finite and positive."""
    for name, value in tolerances.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


def block_indices(shape, exponents):
    """Flat indices of the eigenvector block for one s-exponent multi-index."""
    exponents = tuple(exponents)
    if len(exponents) != shape.d - 1:
        raise ValueError("need one exponent per non-hidden variable")
    flat = 0
    stride = 1
    for k in range(shape.d - 1):
        if not 0 <= exponents[k] <= shape.alpha[k]:
            raise ValueError("exponent out of range")
        flat += exponents[k] * stride
        stride *= shape.alpha[k] + 1
    return np.arange(shape.N) + shape.N * flat


def vandermonde_ratios(V, shape, mask=None):
    """Recover x_1..x_{d-1} from a (k, size) stack of resultant eigenvectors.

    For each coordinate k with a ratio block (alpha_k > 0), block e_k of an
    eigenvector is x_k times block 0, so x_k is read as the least-squares
    ratio of the two blocks over the entry pairs kept on both sides,
    sum conj(b_0) b_{e_k} / sum |b_0|^2.  ``mask`` (boolean, True = kept)
    has one entry per eigenvector component.  A coordinate without a ratio
    block (alpha_k = 0) reads NaN in its own column.

    The stack is read in one set of array calls and gives (k, d-1).  A row
    whose kept block-0 entries for some coordinate with a ratio block are
    all zero (or none is kept) comes back all NaN.
    """
    stack = np.asarray(V, dtype=complex)
    if stack.ndim != 2 or stack.shape[1] != shape.resultant_size:
        raise ValueError("need a (k, resultant size) stack of eigenvectors")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool).reshape(-1)
        if mask.shape[0] != stack.shape[1]:
            raise ValueError("mask length does not match the eigenvector")
    zero_idx = block_indices(shape, (0,) * (shape.d - 1))
    den = stack[:, zero_idx]
    out = np.full((stack.shape[0], shape.d - 1), np.nan, dtype=complex)
    failed = np.zeros(stack.shape[0], dtype=bool)
    for k in range(shape.d - 1):
        if shape.alpha[k] == 0:
            continue
        unit = [0] * (shape.d - 1)
        unit[k] = 1
        num_idx = block_indices(shape, unit)
        b0 = den if mask is None else den * (mask[zero_idx] & mask[num_idx])
        norm = np.sum(np.abs(b0) ** 2, axis=1)
        failed |= norm == 0
        dot = np.einsum("kj,kj->k", b0.conj(), stack[:, num_idx])
        out[:, k] = np.divide(dot, norm, out=np.zeros_like(dot), where=norm > 0)
    out[failed] = np.nan
    return out


def generic_nullspace_basis(R, rank_tol=1e-10, rng=None):
    """Orthonormal basis (columns) of R's null space at a random point (unused by `solve`)."""
    rng = np.random.default_rng(rng)
    z = 1.3 * np.exp(2j * np.pi * rng.uniform())
    mat = R.eval(z)
    _, sv, vh = np.linalg.svd(mat)
    top = sv[0] if sv.size else 0.0
    if top == 0.0:
        return np.eye(R.size, dtype=complex)
    null = sv <= rank_tol * top
    rank = int(np.count_nonzero(~null))
    return vh[rank:].conj().T


def _stacked(fn, stacks, width):
    """fn(*stacks) as one stacked LAPACK call, shape (len(stacks[0]), width).

    When LAPACK rejects the stack (an exactly singular matrix, an SVD that
    does not converge), the stacks are halved until each rejected row stands
    alone; that row is NaN.  The package's one `LinAlgError` handler.
    """
    try:
        return fn(*stacks)
    except np.linalg.LinAlgError:
        k = len(stacks[0])
        if k == 1:
            return np.full((1, width), np.nan, dtype=complex)
        halves = [s[: k // 2] for s in stacks], [s[k // 2 :] for s in stacks]
        return np.concatenate([_stacked(fn, half, width) for half in halves])


def _finite_rows(fn, *stacks, width):
    """fn of the rows finite in every stack, through `_stacked`, shape
    (len(stacks[0]), width); every other row is NaN, the only sign of a
    failed row."""
    k = len(stacks[0])
    out = np.full((k, width), np.nan, dtype=complex)
    finite = np.ones(k, dtype=bool)
    for s in stacks:
        finite &= np.all(np.isfinite(s), axis=tuple(range(1, s.ndim)))
    if not np.all(finite):  # copy only when some row is dropped
        stacks = [s[finite] for s in stacks]
    if np.any(finite):
        out[finite] = _stacked(fn, stacks, width)
    return out


def residual(p, x):
    """Normalized residual max_i sigma_min(P_i(x)) / scale_i at a point.

    scale_i is the largest coefficient norm of P_i (a zero polynomial
    contributes 0), and sigma_min comes from one values-only stacked SVD per
    equation.  Given a (k, d) array of points instead, returns their k
    residuals from one batched evaluation (`Pmep.eval_many`, whose basis
    rows all equations share); a point's value does not depend,
    to the bit, on the other points.  A point where some P_i is not finite,
    or its SVD fails, gets an infinite residual.  This is the independent
    check of a solution; `refine` gates on an upper bound of it.
    """
    x = np.asarray(x, dtype=complex)
    pts = x.reshape(-1, p.d)
    res = np.zeros(pts.shape[0])
    for poly, vals in zip(p.polys, p.eval_many(pts)):
        scale = poly.max_coeff_norm()
        if scale == 0.0:
            continue
        sigma = _finite_rows(lambda m: np.linalg.svd(m, compute_uv=False)[:, -1:], vals, width=1)
        sigma = sigma[:, 0].real
        sigma[np.isnan(sigma)] = np.inf
        res = np.maximum(res, sigma / scale)
    return res if x.ndim == 2 else float(res[0])


def _triplet_residuals(p, mats, vecs):
    """Normalized residuals of k eigentriplets: max_i ||P_i(x) v_i|| /
    (||v_i|| scale_i), with scale_i as in `residual`.

    ``mats[i]`` stacks P_i at the k points and ``vecs[i]`` (shape (k, n_i))
    the v_i.  As ||P_i(x) v_i|| >= sigma_min(P_i(x)) ||v_i||, this bounds
    `residual` from above, up to rounding; it is the backward error of the
    triplet (Tisseur, Linear Algebra Appl. 2000).  It takes one matrix-vector
    product per point and equation, so a point's value does not depend, to
    the bit, on the other points.  A point where some P_i v_i is not finite
    gets an infinite residual.
    """
    worst = np.zeros(vecs[0].shape[0])
    for poly, stack, v in zip(p.polys, mats, vecs):
        scale = poly.max_coeff_norm()
        if scale == 0.0:
            continue
        pv = (stack @ v[..., None])[..., 0]
        r = np.linalg.norm(pv, axis=1) / np.linalg.norm(v, axis=1) / scale
        worst = np.maximum(worst, np.where(np.isfinite(r), r, np.inf))
    return worst


def _bordered_steps(jets, vecs):
    """Newton corrections of (x, v_1..v_d) for P_i(x) v_i = 0, v_i^H v_i = 1
    at k points.

    ``jets[i]`` stacks P_i and its d partials, ``vecs[i]`` the current v_i.
    Each point's bordered Jacobian, of side sum(n_i) + d, is
    [[P_i, (dP_i/dx_j) v_i], [v_i^H, 0]] with equation blocks on the
    diagonal; all are solved in one stacked call.  Returns the steps of x,
    shape (k, d), and those of each v_i, shape (k, n_i).  A point whose
    system is singular or not finite gets NaN steps.
    """
    k, d = jets[0].shape[0], jets[0].shape[1] - 1
    side = sum(v.shape[1] for v in vecs)
    jac = np.zeros((k, side + d, side + d), dtype=complex)
    rhs = np.zeros((k, side + d, 1), dtype=complex)
    at = 0
    for i, (jet, v) in enumerate(zip(jets, vecs)):
        n = v.shape[1]
        jac[:, at : at + n, at : at + n] = jet[:, 0]
        jac[:, at : at + n, side:] = np.einsum("kjab,kb->kaj", jet[:, 1:], v)
        jac[:, side + i, at : at + n] = v.conj()
        rhs[:, at : at + n, 0] = -np.einsum("kab,kb->ka", jet[:, 0], v)
        at += n
    steps = _finite_rows(lambda j, r: np.linalg.solve(j, r)[..., 0], jac, rhs, width=side + d)
    ends = np.cumsum([v.shape[1] for v in vecs])
    return steps[:, side:], np.split(steps[:, :side], ends[:-1], axis=1)


def _newton_step(p, X, vecs=None, before=None):
    """One Newton step on (x, v_1..v_d) at each row of X (shape (k, d)).

    Steps on P_i(x) v_i = 0, v_i^H v_i = 1 for all i at once, from v_i the
    row of ``vecs[i]`` (shape (k, n_i)).  A row whose v_i is not finite,
    and every row when ``vecs`` is None, takes the right singular vector of
    sigma_min(P_i(x)) instead.  Returns the stepped points, their
    vectors (v_i + dv_i, normalized), their normalized residuals and those
    of the given triplets (`_triplet_residuals`); ``before``, when given,
    stands for the last.  A step that is singular or not finite gets an
    infinite residual.
    """
    k = X.shape[0]
    # a point far enough out overflows; its residual is infinite
    with np.errstate(over="ignore", invalid="ignore"):
        jets = p.eval_many(X, jet=True)
        null = []
        for i, jet in enumerate(jets):
            n = jet.shape[-1]
            v = np.full((k, n), np.nan, complex) if vecs is None else np.array(vecs[i], complex)
            lost = np.flatnonzero(~np.all(np.isfinite(v), axis=1))
            if lost.size:  # the right singular vectors of sigma_min
                v[lost] = _finite_rows(
                    lambda m: np.linalg.svd(m)[2][:, -1].conj(), jet[lost, 0], width=n
                )
            null.append(v)
        if before is None:
            before = _triplet_residuals(p, [jet[:, 0] for jet in jets], null)
        dx, dv = _bordered_steps(jets, null)
        stepped = X + dx
        moved = [v + step for v, step in zip(null, dv)]
        moved = [w / np.linalg.norm(w, axis=1, keepdims=True) for w in moved]
        after = _triplet_residuals(p, p.eval_many(stepped), moved)
    return stepped, moved, after, before


# Newton steps a point may take in `refine`, and the factor by which each
# step must cut its residual for it to take another (quadratic convergence).
_MAX_NEWTON_STEPS = 3
_CONVERGING = 1e-2


def refine(p, X, tol=np.inf, vecs=None):
    """Gated Newton steps on the original system at each of k points.

    Every row x of X (shape (k, d)) takes one Newton step on the point and
    its null vectors v_i jointly (`_newton_step`), and keeps whichever of x
    and the stepped point has the smaller normalized residual
    max_i ||P_i(x) v_i|| / (||v_i|| scale_i), taken with the vectors of that
    step.  It bounds `residual`'s sigma_min / scale_i from above, so a
    point that passes here passes that check too, and no SVD is needed to
    gate.  The first step takes equation i's null vector of row j from
    ``vecs[i][j]`` when that is finite (the resultant's eigenvector already
    holds it), else from a with-vector SVD of P_i(x); every further step
    carries the vectors the last step refined, and starts from the
    residual it returned.  A row still above ``tol`` steps
    again only while Newton converges on it: its last step cut the residual
    at least 100-fold, up to ``_MAX_NEWTON_STEPS`` steps in all.  Rows that
    pass after one step, and rows far from any root, pay nothing more.
    Returns the best point of each row with its residual:
    ``(points, residuals)``.  A point whose step is singular or not finite
    comes back unchanged, and one that is not finite (never read) with an
    infinite residual; nothing here raises.
    """
    X = np.asarray(X, dtype=complex).reshape(-1, p.d)
    points, res = X.copy(), np.zeros(X.shape[0])
    todo, before = np.arange(X.shape[0]), None
    for _ in range(_MAX_NEWTON_STEPS):
        if not todo.size:
            break
        stepped, vecs, after, before = _newton_step(p, points[todo], vecs, before)
        better = after < before
        points[todo[better]] = stepped[better]
        res[todo] = np.where(better, after, before)
        go = (after < _CONVERGING * before) & (after > tol)
        todo, before, vecs = todo[go], after[go], [v[go] for v in vecs]
    return points, res


def _first_copy(points):
    """For each row of ``points`` (shape (k, d)), the first earlier kept row it
    duplicates, or the row itself when it is kept.

    Rows are visited in order; a row duplicates a kept row y when
    max|x - y| <= 1e-8 * max(1, |x|_inf, |y|_inf), and is kept when it
    duplicates none.  A row with a non-finite entry is kept and is no row's
    duplicate.  Any pair that passes the test has
    |Re x_1 - Re y_1| <= 2e-8 * max(1, |x|_inf), whichever of the two is x,
    so after one sort by Re x_1 each row is tested only against the rows
    that follow it within that window, and only the pairs that pass are
    walked in row order.  This takes O(k log k) when Re x_1 separates the
    points, and never forms the k x k distances.  Fewer than two finite
    rows, or windows that hold no pair, return at once.
    """
    k = points.shape[0]
    rows = np.flatnonzero(np.all(np.isfinite(points), axis=1))
    if rows.size < 2:
        return np.arange(k)
    key = points[rows, 0].real
    order = np.argsort(key, kind="stable")
    rows, key = rows[order], key[order]
    scale = np.maximum(1.0, np.max(np.abs(points[rows]), axis=1))
    ends = np.searchsorted(key, key + 2e-8 * scale, side="right")
    # every pair of sorted positions lo < hi < ends[lo]
    counts = ends - np.arange(1, rows.size + 1)
    if not counts.any():
        return np.arange(k)
    lo = np.repeat(np.arange(rows.size), counts)
    hi = lo + 1 + np.arange(lo.size) - np.repeat(np.cumsum(counts) - counts, counts)
    dist = np.max(np.abs(points[rows[lo]] - points[rows[hi]]), axis=1)
    close = dist <= 1e-8 * np.maximum(scale[lo], scale[hi])
    a, b = rows[lo[close]], rows[hi[close]]
    later, earlier = np.maximum(a, b), np.minimum(a, b)
    walk = np.lexsort((earlier, later))
    first = list(range(k))
    for row, prev in zip(later[walk].tolist(), earlier[walk].tolist()):
        if first[row] == row and first[prev] == prev:
            first[row] = prev
    return np.array(first, dtype=int)


def filter_solutions(cands, residual_tol):
    """Keep residual <= residual_tol, deduplicate, sort by residual.

    A candidate duplicates a kept point y when
    max|x - y| <= 1e-8 * max(1, |x|_inf, |y|_inf); candidates are visited in
    residual order, so the best-residual copy of each point survives.  The
    survivor reads ``reduced: False`` when any copy does, so the flag does
    not hang on a last-bit residual tie between a read and a reduced copy.
    """
    kept = [s for s in cands if s.residual <= residual_tol]
    kept.sort(key=lambda s: s.residual)
    if not kept:
        return SolutionSet([])
    first = _first_copy(np.array([s.x for s in kept]))
    for i in {first[i] for i, s in enumerate(kept) if not s.flags["reduced"]}:
        kept[i].flags = {**kept[i].flags, "reduced": False}
    return SolutionSet([s for i, s in enumerate(kept) if first[i] == i])
