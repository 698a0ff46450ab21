"""Univariate polynomial eigenvalue problems: shift-and-invert eigensolve, projection.

A univariate matrix polynomial R(lambda) (a `MatrixPoly` with d = 1) of
degree m and side n has the eigenvalues of its linearization A + lambda*B
of side m*n, built from its basis's multiply-by-x matrix: the companion
pencil in the monomial basis, the colleague pencil in the Chebyshev basis.
That pencil is never formed: its standard eigenvalue problem
C = (A + sigma*B)^-1 B is built straight from R's coefficients with one
solve with R(sigma), of side n, and the shift sigma is the one of three
fixed points where R(sigma) is best conditioned; under a bound on its
condition estimate the solve certifies R regular, so one factorization
both certifies and solves.  Only an R that it does not certify needs
`normal_rank`, probed at the same shifts, and, when singular, the
two-sided compression to its normal rank from a generator of fixed seed,
`project_singular`, before it is solved again.  Eigenpairs come back
unrefined: the solver polishes the roots they lead to with Newton steps on
the original system (`extract.refine`).  Everything here runs on numpy
alone.
"""

import functools

import numpy as np

from . import _basisops as bo
from .errors import ProjectionFailureError, SingularPencilError
from .extract import _stacked
from .mpoly import MatrixPoly

__all__ = [
    "trim",
    "solve_pep",
    "normal_rank",
    "project_singular",
]


# Fixed shifts on the circle of radius 1.3, off the real axis (where
# Chebyshev roots cluster) and off the unit circle (where monomial roots do).
# They never depend on the input, so the same input gives the same bytes.
_SHIFTS = 1.3 * np.exp(2j * np.pi * (0.1234 + np.arange(3) / 3))
# phases of the condition probe's two columns: all ones, and unit entries
# with golden-ratio phases, so that a structured input is unlikely to hide
# its worst direction from both
_PROBE_PHASES = 2j * np.pi * np.array([0.0, (np.sqrt(5.0) - 1.0) / 2.0])
_EPS = np.finfo(float).eps
# relative cut of every rank decision: R's structurally zero rows and
# columns, the shift certificate (at most RANK_TOL^-1/2) and the normal rank;
# also of R's degree, as the cut of its trailing coefficients (`trim`)
RANK_TOL = 1e-10


def trim(R):
    """R without its trailing coefficients of Frobenius norm at most RANK_TOL
    times the largest one; a zero R keeps its constant coefficient."""
    norms = np.linalg.norm(R.coeffs, axis=(1, 2))
    keep = len(norms)
    while keep > 1 and norms[keep - 1] <= RANK_TOL * norms.max():
        keep -= 1
    return R if keep == len(norms) else MatrixPoly(R.coeffs[:keep], R.basis)


def _conditions(mats):
    """1-norm condition estimates of a stack of side-n matrices M, as a list:
    ||M||_1 ||M^-1 b||_1 / n at the larger of two fixed probes b with unit
    entries, inf where M is exactly singular or the estimate is not finite."""
    n = mats.shape[-1]
    probe = np.exp(np.arange(n)[:, None] * _PROBE_PHASES)
    # an exact zero pivot makes its matrix's row NaN, so its estimate inf
    x = _stacked(lambda m: np.linalg.solve(m, probe).reshape(len(m), -1), [mats], 2 * n)
    x = x.reshape(len(mats), n, 2)
    conds = np.abs(mats).sum(axis=1).max(axis=1) * np.abs(x).sum(axis=1).max(axis=1) / n
    return [cond if cond < np.inf else np.inf for cond in conds.tolist()]


@functools.lru_cache(maxsize=None)
def _scalar_pencil(basis, m):
    """What the pencil of a degree-m R takes from its basis alone, read from
    M (see `_shifted_inverse`; cached, read-only): Q and P's rows 1..m-1 at
    each shift, M[m, m-1], and the top-row pairs (k, c)."""
    mat = bo.shift_multiply_matrix(basis, m - 1)
    kb = np.eye(m - 1, m, 1)
    bordered = np.zeros((len(_SHIFTS), m, m), dtype=complex)
    bordered[:, :-1] = -mat[:m, : m - 1][::-1, ::-1].T + _SHIFTS[:, None, None] * kb
    bordered[:, -1, 0] = 1.0
    qs = np.linalg.inv(bordered)
    ps = qs[:, 1:, :-1] @ kb
    qs.setflags(write=False)
    ps.setflags(write=False)
    lead = mat[m, m - 1]
    fixes = tuple((m - 1 - i, mat[i, m - 1] / lead) for i in np.flatnonzero(mat[:m, m - 1]))
    return qs, ps, lead, fixes


def _shifted_inverse(R, max_cond=np.inf):
    """The shift sigma and C = (A + sigma*B)^-1 B of the linearization
    A + lambda*B of R, from R's coefficients and one solve with R(sigma).

    With m = deg R, the pencil has m block rows of side n = size(R), read
    from M = `shift_multiply_matrix(R.basis, m - 1)`, x*phi_j =
    sum_i M[i, j] phi_i: one construction gives the companion (monomial)
    and the colleague (Chebyshev) pencil.  Its top block row is R with
    phi_m written through column m-1 of M: blocks T_k = A_k + lambda*B_k,
    B_0 = R_m / M[m, m-1], B_k = 0 for k >= 1, and A_k = R_{m-1-k} less
    c R_m, c = M[m-1-k, m-1] / M[m, m-1], where c != 0.  Block rows 1..m-1
    are a scalar pencil K kron I, K = K_A + lambda*[0 I] of shape (m-1, m),
    row r the relation for x*phi_{m-2-r}, so K_A is -M[:m, :m-1] reversed
    (none for m = 1, a plain pencil).
    Bordered by the row e_1^T, K(sigma) has an inverse Q whose last column nv
    holds the basis values at sigma over the leading one, nv_k =
    phi_{m-1-k}(sigma) / phi_{m-1}(sigma), so sum_k nv_k T_k(sigma) =
    R(sigma) / phi_{m-1}(sigma) =: S.  Then C = nv kron W + P kron I, where
    P = Q[:, :m-1] K_B solves the lower rows with its first row zero, and
    S W = [B_0, 0, ..., 0] - sum_{k>=1} A_k (P_k kron I), with P_k row k of
    P.  Normalizing at the top keeps nv and P of order one; at the bottom
    (phi_0 = 1) they grow like |T_k(sigma)|, over 4e3 at k = 11 in the
    Chebyshev basis, and C loses digits to cancellation.  The shift is the
    one of `_SHIFTS` with the best conditioned R(sigma), by a 1-norm
    estimate from one stacked evaluation and one stacked solve.  Neither A
    nor B is formed.  Raises ValueError for a constant R, and
    SingularPencilError when R(sigma) is singular at every shift or its
    best estimate exceeds ``max_cond``.
    """
    m, n = R.m, R.size
    if m < 1:
        raise ValueError("a constant matrix polynomial has no eigenvalues")
    qs, ps, lead_div, fixes = _scalar_pencil(R.basis, m)
    top = [R.coeffs[m - 1 - k] for k in range(m)]
    for k, c in fixes:
        top[k] = top[k] - c * R.coeffs[m]
    lead = R.coeffs[m] / lead_div
    shifts = _SHIFTS[:, None, None]
    mats = shifts * lead
    mats += top[0]
    for k in range(1, m):
        mats += qs[:, k, -1, None, None] * top[k]
    conds = _conditions(mats)
    best = conds.index(min(conds))
    if conds[best] == np.inf or conds[best] > max_cond:
        raise SingularPencilError("R(sigma) is singular, or above max_cond, at every shift")
    sigma, nv, p = _SHIFTS[best], qs[best, :, -1], ps[best]
    rhs = np.zeros((n, m, n), dtype=complex)
    rhs[:, 0] = lead
    for k in range(1, m):
        rhs -= top[k][:, None, :] * p[k - 1, None, :, None]
    w = np.linalg.solve(mats[best], rhs.reshape(n, m * n))
    c = (nv[:, None, None] * w).reshape(m * n, m * n)
    diag = np.arange(n)
    c.reshape(m, n, m, n)[1:, diag, :, diag] += p
    return sigma, c


def solve_pep(R, vectors=True, max_cond=np.inf):
    """Finite eigenpairs of a matrix polynomial R, unrefined.

    Shift and invert: C = (A + sigma*B)^-1 B of R's linearization (see
    `_shifted_inverse`) has the pencil's eigenvectors, with
    lambda = sigma - 1/mu for each eigenvalue mu of C, and mu = 0 for an
    infinite lambda.  A mu within roundoff of zero, relative to ||C||_1, is
    classified as infinite and left out.  Returns (lambda, v) pairs with v
    the largest of the m blocks of the pencil eigenvector, or None for v
    when ``vectors=False``, where the eigensolver skips the eigenvectors.
    Raises SingularPencilError when R(sigma) is singular at every shift,
    which a regular R never is, or has condition estimates above ``max_cond``
    at all three: a solve that returns has certified R with its one LU.
    """
    sigma, c = _shifted_inverse(R, max_cond)
    mag = np.abs(c)
    norm = mag.sum(axis=0).max()
    # entries at or below eps^2 ||C||_1 are zeros of exact arithmetic with
    # second-order roundoff; left in, they can make the balanced eigensolver's
    # eigenvectors wrong.  Zeroing them moves C far less than the roundoff it
    # already holds, where a cut at eps ||C||_1 would move ill-conditioned
    # eigenvalues
    c[mag <= _EPS**2 * norm] = 0.0
    del mag  # the eigensolve holds two more arrays of C's side; free this one
    if vectors:
        mus, vecs = np.linalg.eig(c)
    else:
        mus, vecs = np.linalg.eigvals(c), None
    tiny = 10.0 * len(c) * _EPS * norm
    with np.errstate(divide="ignore", invalid="ignore"):
        lams = np.where(np.abs(mus) <= tiny, np.inf, sigma - 1.0 / mus)
    finite = np.flatnonzero(~np.isinf(lams))
    if vecs is None:
        return [(lam, None) for lam in lams[finite].tolist()]
    blocks = vecs[:, finite].T.reshape(len(finite), R.m, R.size)
    best = np.argmax(np.linalg.norm(blocks, axis=-1), axis=-1)
    return list(zip(lams[finite].tolist(), blocks[np.arange(len(finite)), best]))


def normal_rank(R):
    """Numerical normal rank of R: the largest rank of R(z) over the fixed
    shifts `_SHIFTS`, where a singular value counts when it is above
    `RANK_TOL` times the largest.  Gaps below that cut carry no rank
    information: roundoff next to exact zeros makes gaps of any size there.

    The rank is a maximum, so the probe stops at the first shift where R(z)
    has full rank R.size; a singular R is probed at all three.
    """
    rank = 0
    for z in _SHIFTS:
        sv = np.linalg.svd(R.eval(z), compute_uv=False)
        if sv.size and sv[0] > 0.0:
            rank = max(rank, int(np.count_nonzero(sv / sv[0] > RANK_TOL)))
        if rank == R.size:
            break
    return rank


def project_singular(R, r):
    """Two-sided orthogonal compression of a singular matrix polynomial to
    its normal rank r.

    Draws U (r x dim, orthonormal rows) and V (dim x r, orthonormal columns)
    from Gaussian matrices of a generator of fixed seed 0 and forms
    R'(lambda) = U R(lambda) V, confirming with `normal_rank` that R' has
    full normal rank r; redraws up to three times before giving up.
    Returns R', or R itself when r is its side.  Its eigenvalues are those
    of R; its eigenvectors are not R's, so a projected pencil gives no
    point to read.
    """
    dim = R.size
    if r > dim:
        raise ValueError("normal rank exceeds dimension")
    if r == dim:
        return R
    rng = np.random.default_rng(0)
    for _ in range(3):
        gu = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
        gv = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
        u = np.linalg.qr(gu)[0].conj().T
        v = np.linalg.qr(gv)[0]
        projected = MatrixPoly(u @ R.coeffs @ v, R.basis)
        if normal_rank(projected) == r:
            return projected
    raise ProjectionFailureError(
        f"projection to normal rank {r} not confirmed after 3 draws"
    )
