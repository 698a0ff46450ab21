"""Solution recovery from resultant eigenvectors, refinement, residuals, filtering.

Eigenvectors of the resultant R(x_d) carry block Vandermonde structure: the
flat vector is a stack of N-sized blocks indexed colexicographically by the
s-exponent multi-index (i_1..i_{d-1}), and block i holds
prod_k x_k^{i_k} * v.  The coordinate x_k is therefore the entrywise ratio of
the unit-exponent block e_k against the zero-exponent block.

Candidate points are then refined and gated in one batch on the original
system (`refine`), with the normalized residual that `residual` gives for a
single point.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ExtractionFailureError

__all__ = [
    "Solution",
    "SolutionSet",
    "ExtractionConfig",
    "block_indices",
    "vandermonde_ratios",
    "residual",
    "refine",
    "filter_solutions",
]


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


@dataclass
class ExtractionConfig:
    """The residual gate a candidate point must pass to become a solution."""

    residual_tol: float = 1e-8

    def __post_init__(self):
        check_tolerances(residual_tol=self.residual_tol)


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


# share of the usable divisors, largest first, whose ratios are averaged
_KEEP_FRACTION = 0.25


def vandermonde_ratios(V, shape, mask=None, coords=None):
    """Recover x_1..x_{d-1} from one resultant eigenvector, or from a stack.

    For each coordinate k, averages the ratios of unmasked entries of the
    e_k block against the zero block, using only the pairs whose divisor
    magnitude lies in the top `_KEEP_FRACTION`.  ``mask`` (boolean, True =
    usable) has one entry per eigenvector component.  ``coords`` restricts
    recovery to the given 0-based coordinates (default: all); the entries of
    skipped coordinates come back as NaN.

    One vector raises ExtractionFailureError when a requested coordinate has
    no usable entry pair (either alpha_k = 0, so the block does not exist, or
    masking/zero divisors remove everything).  A (k, size) stack is read in
    one set of array calls and gives (k, d-1); a row whose vector alone
    would raise comes back all NaN instead.
    """
    V = np.asarray(V, dtype=complex)
    single = V.ndim != 2
    stack = V.reshape(1, -1) if single else V
    if stack.shape[1] != shape.resultant_size:
        raise ValueError("eigenvector length does not match the resultant size")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool).reshape(-1)
        if mask.shape[0] != stack.shape[1]:
            raise ValueError("mask length does not match the eigenvector")
    wanted = range(shape.d - 1) if coords is None else coords
    zero_idx = block_indices(shape, (0,) * (shape.d - 1))
    den = stack[:, zero_idx]
    mag = np.abs(den)
    out = np.full((stack.shape[0], shape.d - 1), np.nan, dtype=complex)
    failed = np.zeros(stack.shape[0], dtype=bool)
    for k in wanted:
        if shape.alpha[k] == 0:
            if single:
                raise ExtractionFailureError(
                    f"coordinate {k + 1} has no degree-1 block in the eigenvector"
                )
            failed[:] = True
            continue
        unit = [0] * (shape.d - 1)
        unit[k] = 1
        num_idx = block_indices(shape, unit)
        usable = mag > 0
        if mask is not None:
            usable &= mask[zero_idx] & mask[num_idx]
        count = np.count_nonzero(usable, axis=1)
        if single and not count[0]:
            raise ExtractionFailureError(f"no usable entry pairs for coordinate {k + 1}")
        failed |= count == 0
        # the top `keep` usable divisors of every row, largest first
        keep = np.maximum(1, np.ceil(_KEEP_FRACTION * count).astype(int))
        order = np.argsort(-np.where(usable, mag, -1.0), axis=1)
        pick = np.arange(shape.N) < keep[:, None]
        pick &= np.take_along_axis(usable, order, axis=1)
        num = np.take_along_axis(stack[:, num_idx], order, axis=1)
        div = np.take_along_axis(den, order, axis=1)
        ratios = np.divide(num, div, out=np.zeros_like(num), where=pick)
        out[:, k] = np.sum(ratios, axis=1) / keep
    out[failed] = np.nan
    return out[0] if single else out


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


def _per_slice(fn, lo, hi, width):
    """fn(slice(lo, hi)) as one stacked LAPACK call, shape (hi - lo, width).

    When LAPACK rejects the stack (an exactly singular slice, an SVD that does
    not converge), the range is halved until each failing slice stands alone;
    that slice's row is NaN.
    """
    try:
        return fn(slice(lo, hi))
    except np.linalg.LinAlgError:
        if hi - lo == 1:
            return np.full((1, width), np.nan, dtype=complex)
        mid = (lo + hi) // 2
        return np.concatenate(
            [_per_slice(fn, lo, mid, width), _per_slice(fn, mid, hi, width)]
        )


def _finite_rows(fn, stack, width):
    """fn of a stack's finite matrices through `_per_slice`, shape
    (len(stack), width); the rows of the other matrices are NaN."""
    k = stack.shape[0]
    out = np.full((k, width), np.nan, dtype=complex)
    finite = np.flatnonzero(np.all(np.isfinite(stack), axis=(1, 2)))
    good = stack if finite.size == k else stack[finite]
    if finite.size:
        out[finite] = _per_slice(lambda sl: fn(good[sl]), 0, finite.size, width)
    return out


def _gate(p, mats):
    """Normalized residuals of k points: max_i sigma_min(P_i(x)) / scale_i.

    ``mats[i]`` stacks P_i at the k points; sigma_min comes from one
    values-only stacked SVD per equation, and scale_i is the largest
    coefficient norm of P_i (a zero polynomial contributes 0).  A point
    where some P_i is not finite, or its SVD fails, gets an infinite
    residual.  A point's value does not depend, to the bit, on the other
    points of the stack.
    """
    worst = np.zeros(mats[0].shape[0])
    for poly, stack in zip(p.polys, mats):
        scale = poly.max_coeff_norm()
        if scale == 0.0:
            continue
        sigma = _finite_rows(
            lambda m: np.linalg.svd(m, compute_uv=False)[:, -1:], stack, 1
        )[:, 0].real
        sigma[np.isnan(sigma)] = np.inf
        worst = np.maximum(worst, sigma / scale)
    return worst


def residual(p, x):
    """Normalized residual max_i sigma_min(P_i(x)) / scale_i at a point.

    Given a (k, d) array of points instead, returns their k residuals from
    one batched evaluation.  This is the value `refine` gates on: both
    take it from `_gate`, from singular values alone.
    """
    x = np.asarray(x, dtype=complex)
    pts = x.reshape(-1, p.d)
    res = _gate(p, [poly.eval_many(pts) for poly in p.polys])
    return res if x.ndim == 2 else float(res[0])


def _bordered_steps(jets, vecs):
    """Newton corrections of x for P_i(x) v_i = 0, v_i^H v_i = 1 at k points.

    ``jets[i]`` stacks P_i and its d partials, ``vecs[i]`` the current v_i.
    Each point's bordered Jacobian, of side sum(n_i) + d, is
    [[P_i, (dP_i/dx_j) v_i], [v_i^H, 0]] with equation blocks on the
    diagonal; all are solved in one stacked call.  A point whose system is
    singular or not finite gets a NaN step.
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
    ok = np.all(np.isfinite(jac), axis=(1, 2))
    if not np.all(ok):  # copy only when some system is dropped
        jac, rhs = jac[ok], rhs[ok]
    steps = np.full((k, d), np.nan, dtype=complex)
    if len(jac):

        def solve(sl):
            return np.linalg.solve(jac[sl], rhs[sl])[:, side:, 0]

        steps[ok] = _per_slice(solve, 0, len(jac), d)
    return steps


def _newton_step(p, X, vecs=None):
    """One Newton step at each row of X (shape (k, d)).

    Steps on P_i(x) v_i = 0, v_i^H v_i = 1 for all i at once, with v_i the
    row of ``vecs[i]`` (shape (k, n_i)).  A row whose v_i is not finite, and
    every row when ``vecs`` is None, takes the right singular vector of
    sigma_min(P_i(x)) instead.  Returns the stepped points, their normalized
    residuals and those of X, both gated in one stacked call; a step that is
    singular or not finite gets an infinite residual.
    """
    k = X.shape[0]
    # a point far enough out overflows; _gate gives it an infinite residual
    with np.errstate(over="ignore", invalid="ignore"):
        jets = [poly.eval_many(X, jet=True) for poly in p.polys]
        null = []
        for i, jet in enumerate(jets):
            n = jet.shape[-1]
            v = np.full((k, n), np.nan, complex) if vecs is None else np.array(vecs[i], complex)
            lost = np.flatnonzero(~np.all(np.isfinite(v), axis=1))
            if lost.size:  # the right singular vectors of sigma_min
                v[lost] = _finite_rows(
                    lambda m: np.linalg.svd(m)[2][:, -1].conj(), jet[lost, 0], n
                )
            null.append(v)
        stepped = X + _bordered_steps(jets, null)
        ok = np.flatnonzero(np.all(np.isfinite(stepped), axis=1))
        gated = _gate(p, [
            np.concatenate([jet[:, 0], poly.eval_many(stepped[ok])])
            for poly, jet in zip(p.polys, jets)
        ])
    after = np.full(k, np.inf)
    after[ok] = gated[k:]
    return stepped, after, gated[:k]


# Newton steps a point may take in `refine`, and the factor by which each
# step must cut its residual for it to take another (quadratic convergence).
_MAX_NEWTON_STEPS = 3
_CONVERGING = 1e-2


def refine(p, X, tol=np.inf, vecs=None):
    """Gated Newton steps on the original system at each of k points.

    Every row x of X (shape (k, d)) takes one step (`_newton_step`) and keeps
    whichever of x and the stepped point has the smaller normalized residual
    (see `residual`).  The first step takes equation i's null vector of row
    j from ``vecs[i][j]`` when that is finite (the resultant's eigenvector
    already holds it), else from a with-vector SVD of P_i(x); every further
    step takes the SVD's.  A row still above ``tol`` steps again only while
    Newton converges on it: its last step cut the residual at least 100-fold,
    up to ``_MAX_NEWTON_STEPS`` steps in all.  Rows that pass after one step,
    and rows far from any root, pay nothing more.  Returns the best point of
    each row with its residual: ``(points, residuals)``.  A point whose step
    is singular or not finite comes back unchanged; nothing here raises.
    """
    X = np.asarray(X, dtype=complex).reshape(-1, p.d)
    points, res = X.copy(), np.zeros(X.shape[0])
    todo = np.arange(X.shape[0])
    for _ in range(_MAX_NEWTON_STEPS):
        if not todo.size:
            break
        stepped, after, before = _newton_step(p, points[todo], vecs)
        vecs = None
        better = after < before
        points[todo[better]] = stepped[better]
        res[todo] = np.where(better, after, before)
        todo = todo[(after < _CONVERGING * before) & (after > tol)]
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
    points, and never forms the k x k distances.
    """
    k = points.shape[0]
    first = list(range(k))
    rows = np.flatnonzero(np.all(np.isfinite(points), axis=1))
    key = points[rows, 0].real
    order = np.argsort(key, kind="stable")
    rows, key = rows[order], key[order]
    norms = np.max(np.abs(points[rows]), axis=1)
    ends = np.searchsorted(key, key + 2e-8 * np.maximum(1.0, norms), side="right")
    # every pair of sorted positions lo < hi < ends[lo]
    counts = ends - np.arange(rows.size) - 1
    lo = np.repeat(np.arange(rows.size), counts)
    hi = lo + 1 + np.arange(lo.size) - np.repeat(np.cumsum(counts) - counts, counts)
    dist = np.max(np.abs(points[rows[lo]] - points[rows[hi]]), axis=1)
    close = dist <= 1e-8 * np.maximum(np.maximum(1.0, norms[lo]), norms[hi])
    a, b = rows[lo[close]], rows[hi[close]]
    later, earlier = np.maximum(a, b), np.minimum(a, b)
    walk = np.lexsort((earlier, later))
    for row, prev in zip(later[walk].tolist(), earlier[walk].tolist()):
        if first[row] == row and first[prev] == prev:
            first[row] = prev
    return np.array(first, dtype=int)


def filter_solutions(cands, cfg):
    """Keep residual <= residual_tol, deduplicate, sort by residual.

    A candidate duplicates a kept point y when
    max|x - y| <= 1e-8 * max(1, |x|_inf, |y|_inf); candidates are visited in
    residual order, so the best-residual copy of each point survives.
    """
    kept = [s for s in cands if s.residual <= cfg.residual_tol]
    kept.sort(key=lambda s: s.residual)
    if not kept:
        return SolutionSet([])
    first = _first_copy(np.array([s.x for s in kept]))
    return SolutionSet([s for i, s in enumerate(kept) if first[i] == i])
