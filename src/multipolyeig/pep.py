"""Univariate polynomial eigenvalue problems: linearization, eigensolve, projection.

A matrix polynomial R(lambda) of degree m is reduced to a pencil A + lambda*B
of side m*dim (companion form in the monomial basis, colleague form in the
Chebyshev basis), solved densely as the standard eigenvalue problem of
(A + sigma*B)^-1 B.  That matrix is formed through R(sigma), of side dim, not
through the side-m*dim pencil, and the shift sigma is the one of three fixed
points where R(sigma) is best conditioned.  When R is a singular polynomial it
is first compressed to its normal rank by a random two-sided orthogonal
projection.  Eigenpairs come back unrefined: the solver polishes the roots
they lead to with Newton steps on the original system (`extract.refine`).
Everything here runs on numpy alone.
"""

from dataclasses import dataclass, field

import numpy as np

from .dixon import ResultantPoly
from .errors import ProjectionFailureError, SingularPencilError
from .mpoly import Basis

__all__ = [
    "MatrixPencil",
    "RankProfile",
    "companion_linearize",
    "colleague_linearize",
    "solve_gep",
    "solve_pep",
    "normal_rank",
    "project_singular",
]


@dataclass
class MatrixPencil:
    """Linear matrix polynomial A + lambda*B."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=complex)
        self.B = np.asarray(self.B, dtype=complex)
        if self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1]:
            raise ValueError("A must be square")
        if self.B.shape != self.A.shape:
            raise ValueError("A and B must have the same shape")

    @property
    def dim(self):
        return self.A.shape[0]

    def eval(self, lam):
        return self.A + lam * self.B


@dataclass
class RankProfile:
    """Numerical normal rank of a matrix polynomial with its probe evidence."""

    normal_rank: int
    sample_points: list
    singular_values: list = field(repr=False)
    rank_tol: float = 1e-10


def _blocks(R):
    if R.m < 1:
        raise ValueError("constant matrix polynomial has no eigenvalues to linearize")
    return R.m, R.size


def companion_linearize(R):
    """Companion pencil of a monomial-basis matrix polynomial.

    The pencil's right eigenvectors stack the blocks
    [lambda^(m-1) v; ...; lambda v; v].
    """
    if R.basis != Basis.MONOMIAL:
        raise ValueError("companion form requires the monomial basis")
    m, n = _blocks(R)
    dim = m * n
    eye = np.eye(n)
    A = np.zeros((dim, dim), dtype=complex)
    B = np.zeros((dim, dim), dtype=complex)
    B[:n, :n] = R.coeffs[m]
    for j in range(1, m):
        B[j * n : (j + 1) * n, j * n : (j + 1) * n] = eye
    for k in range(m):
        A[:n, k * n : (k + 1) * n] = R.coeffs[m - 1 - k]
    for j in range(1, m):
        A[j * n : (j + 1) * n, (j - 1) * n : j * n] = -eye
    return MatrixPencil(A, B)


def colleague_linearize(R):
    """Colleague pencil of a Chebyshev-basis matrix polynomial.

    Right eigenvectors stack [T_{m-1}(lambda) v; ...; T_1(lambda) v; v].
    """
    if R.basis != Basis.CHEBYSHEV1:
        raise ValueError("colleague form requires the Chebyshev basis")
    m, n = _blocks(R)
    if m == 1:
        return MatrixPencil(R.coeffs[0], R.coeffs[1])
    dim = m * n
    eye = np.eye(n)
    A = np.zeros((dim, dim), dtype=complex)
    B = np.zeros((dim, dim), dtype=complex)
    B[:n, :n] = 2.0 * R.coeffs[m]
    for j in range(1, m):
        B[j * n : (j + 1) * n, j * n : (j + 1) * n] = eye
    for k in range(m):
        A[:n, k * n : (k + 1) * n] = R.coeffs[m - 1 - k]
    A[:n, n : 2 * n] -= R.coeffs[m]
    for j in range(1, m - 1):
        A[j * n : (j + 1) * n, (j - 1) * n : j * n] = -eye / 2.0
        A[j * n : (j + 1) * n, (j + 1) * n : (j + 2) * n] = -eye / 2.0
    A[(m - 1) * n : m * n, (m - 2) * n : (m - 1) * n] = -eye
    return MatrixPencil(A, B)


# Fixed shifts on the circle of radius 1.3, off the real axis (where
# Chebyshev roots cluster) and off the unit circle (where monomial roots do).
# They never depend on the input, so the same input gives the same bytes.
_SHIFTS = 1.3 * np.exp(2j * np.pi * (0.1234 + np.arange(3) / 3))
# phases of the condition probe's two columns: all ones, and unit entries
# with golden-ratio phases, so that a structured input is unlikely to hide
# its worst direction from both
_PROBE_PHASES = 2j * np.pi * np.array([0.0, (np.sqrt(5.0) - 1.0) / 2.0])
_EPS = np.finfo(float).eps


def _conditions(mats):
    """1-norm condition estimates of a stack of side-n matrices M, as a list:
    ||M||_1 ||M^-1 b||_1 / n at the larger of two fixed probes b with unit
    entries, inf where M is exactly singular or the estimate is not finite."""
    n = mats.shape[-1]
    probe = np.exp(np.arange(n)[:, None] * _PROBE_PHASES)
    try:
        x = np.linalg.solve(mats, probe)
    except np.linalg.LinAlgError:  # an exact zero pivot in one matrix or more
        if len(mats) == 1:
            return [np.inf]
        return [cond for mat in mats for cond in _conditions(mat[None])]
    conds = np.abs(mats).sum(axis=1).max(axis=1) * np.abs(x).sum(axis=1).max(axis=1) / n
    return [cond if cond < np.inf else np.inf for cond in conds.tolist()]


def _shifted_inverse(pencil, m):
    """The shift sigma and C = (A + sigma*B)^-1 B of a linearization with m
    block rows, from one solve with the side-n matrix R(sigma) it linearizes.

    Block rows 1..m-1 of the pencil are a scalar (m-1) x m pencil K kron I
    (none for m = 1, a plain pencil).  Bordered by the row e_1^T, K(sigma)
    has an inverse Q whose last column nv holds the basis values at sigma
    over the leading one, nv_k = phi_{m-1-k}(sigma) / phi_{m-1}(sigma), so
    with the blocks T_k of the top block row of A + sigma*B,
    sum_k nv_k T_k = R(sigma) / phi_{m-1}(sigma) =: S.  Then
    C = nv kron W + P kron I, where P = Q[:, :m-1] K_B solves the lower rows
    with its first row zero, and S W = B_0 - T (P kron I), B_0 the top block
    row of B.  Normalizing at the top keeps nv and P of order one; at the
    bottom (phi_0 = 1) they grow like |T_k(sigma)|, over 4e3 at k = 11 in
    the Chebyshev basis, and C loses digits to cancellation.  The shift is
    the one of `_SHIFTS` with the best conditioned R(sigma), by a 1-norm
    estimate from one stacked evaluation and one stacked solve.  Raises
    SingularPencilError when R(sigma) is singular at every shift.
    """
    n = pencil.dim // m
    shifts = _SHIFTS[:, None, None]
    top_a = pencil.A[:n].reshape(n, m, n)
    top_b = pencil.B[:n].reshape(n, m, n)
    kb = pencil.B[n::n, ::n]
    bordered = np.zeros((len(_SHIFTS), m, m), dtype=complex)
    bordered[:, :-1] = pencil.A[n::n, ::n] + shifts * kb
    bordered[:, -1, 0] = 1.0
    qs = np.linalg.inv(bordered)
    mats = shifts * top_b[:, 0]
    mats += top_a[:, 0]
    for k in range(1, m):
        mats += qs[:, k, -1, None, None] * (top_a[:, k] + shifts * top_b[:, k])
    conds = _conditions(mats)
    best = conds.index(min(conds))
    if conds[best] == np.inf:
        raise SingularPencilError("R(sigma) is singular at every shift")
    sigma, nv = _SHIFTS[best], qs[best, :, -1]
    p = qs[best, 1:, :-1] @ kb  # P's rows 1..m-1; its first row is zero
    rhs = pencil.B[:n].reshape(n, m, n)
    for k in range(1, m):
        rhs = rhs - (top_a[:, k] + sigma * top_b[:, k])[:, None, :] * p[k - 1, None, :, None]
    w = np.linalg.solve(mats[best], rhs.reshape(n, m * n))
    c = (nv[:, None, None] * w).reshape(m * n, m * n)
    diag = np.arange(n)
    c.reshape(m, n, m, n)[1:, diag, :, diag] += p
    return sigma, c


def _shift_invert(pencil, m, vectors):
    """Eigenvalues of A + lambda*B (inf where infinite) and, unless
    ``vectors`` is false, its eigenvectors as columns (else None); m is the
    pencil's number of block rows, as in `_shifted_inverse`."""
    sigma, c = _shifted_inverse(pencil, m)
    mag = np.abs(c)
    norm = mag.sum(axis=0).max()
    # entries at or below eps^2 ||C||_1 are zeros of exact arithmetic with
    # second-order roundoff; left in, they can make the balanced eigensolver's
    # eigenvectors wrong.  Zeroing them moves C far less than the roundoff it
    # already holds, where a cut at eps ||C||_1 would move ill-conditioned
    # eigenvalues
    c[mag <= _EPS**2 * norm] = 0.0
    if vectors:
        mus, vecs = np.linalg.eig(c)
    else:
        mus, vecs = np.linalg.eigvals(c), None
    tiny = 10.0 * pencil.dim * _EPS * norm
    with np.errstate(divide="ignore", invalid="ignore"):
        lams = np.where(np.abs(mus) <= tiny, np.inf, sigma - 1.0 / mus)
    return lams, vecs


def solve_gep(pencil, vectors=True):
    """All eigenpairs of A + lambda*B; infinite eigenvalues come out as inf.

    Shift and invert: C = (A + sigma*B)^-1 B has the pencil's eigenvectors,
    with lambda = sigma - 1/mu for each eigenvalue mu of C, and mu = 0 for an
    infinite lambda.  A mu within roundoff of zero, relative to ||C||_1, is
    classified as infinite.  With ``vectors=False`` the standard eigensolver
    skips the eigenvectors and every pair carries None in their place.
    Raises SingularPencilError when A + sigma*B is singular at every shift,
    which a regular pencil never is.
    """
    lams, vecs = _shift_invert(pencil, 1, vectors)
    return list(zip(lams.tolist(), [None] * len(lams) if vecs is None else vecs.T))


def eigenvector_block(vec, size):
    """Best-conditioned size-length block of a linearization eigenvector, or
    of every row of a stack of them."""
    vec = np.asarray(vec, dtype=complex)
    blocks = vec.reshape(vec.shape[:-1] + (-1, size))
    best = np.argmax(np.linalg.norm(blocks, axis=-1), axis=-1)
    return np.take_along_axis(blocks, best[..., None, None], axis=-2)[..., 0, :]


def solve_pep(R, vectors=True):
    """Finite eigenpairs of a matrix polynomial via its linearization.

    Returns (lambda, v) pairs, unrefined, with v the largest block of the
    linearization eigenvector, or None for v when ``vectors=False``.
    """
    pencil = (
        colleague_linearize(R) if R.basis == Basis.CHEBYSHEV1 else companion_linearize(R)
    )
    lams, vecs = _shift_invert(pencil, R.m, vectors)
    finite = np.flatnonzero(~np.isinf(lams))
    if vecs is None:
        return [(lam, None) for lam in lams[finite].tolist()]
    return list(zip(lams[finite].tolist(), eigenvector_block(vecs[:, finite].T, R.size)))


def _rank_from_singular_values(sv, rank_tol):
    # Rank is cut at the crossing below rank_tol.  Gaps *within* the
    # below-tolerance tail carry no rank information (roundoff junk next to
    # exact zeros produces huge spurious gaps there).
    sv = np.asarray(sv)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv / sv[0] > rank_tol))


def normal_rank(R, rank_tol=1e-10, rng=None):
    """Numerical normal rank of R: the largest rank of R(z) at up to three
    points on a randomly rotated unit circle.

    The rank is a maximum, so the probe stops at the first point where R(z)
    has full rank R.size; a singular R is probed at all three.  The profile
    lists only the points probed.  The rotation is drawn before the first
    probe, so the generator's later draws do not depend on how many points
    were probed.
    """
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    phase = np.exp(2j * np.pi * rng.uniform())
    points = [phase * np.exp(2j * np.pi * j / 3) for j in range(3)]
    best = 0
    all_sv = []
    for z in points:
        sv = np.linalg.svd(R.eval(z), compute_uv=False)
        all_sv.append(sv)
        best = max(best, _rank_from_singular_values(sv, rank_tol))
        if best == R.size:
            break
    return RankProfile(best, points[: len(all_sv)], all_sv, rank_tol)


def project_singular(R, rp, rng=None):
    """Two-sided orthogonal compression of a singular matrix polynomial.

    Draws U (r x dim, orthonormal rows) and V (dim x r, orthonormal columns)
    from Gaussian matrices and forms R'(lambda) = U R(lambda) V, re-probing
    to confirm the compressed polynomial has full normal rank r; redraws up
    to three times before giving up.  Returns (R', U, V).  V maps
    eigenvectors back: at an eigenvalue of R, R'(lambda) w = 0 gives, for
    generic U and V, the null vector V w of R(lambda).
    """
    r = rp.normal_rank
    dim = R.size
    if r > dim:
        raise ValueError("normal rank exceeds dimension")
    if r == dim:
        eye = np.eye(dim, dtype=complex)
        return R, eye, eye
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    for _ in range(3):
        gu = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
        gv = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
        u = np.linalg.qr(gu)[0].conj().T
        v = np.linalg.qr(gv)[0]
        coeffs = np.einsum("rd,kde,es->krs", u, R.coeffs, v)
        projected = ResultantPoly(coeffs, R.basis)
        if normal_rank(projected, rank_tol=rp.rank_tol, rng=rng).normal_rank == r:
            return projected, u, v
    raise ProjectionFailureError(
        f"projection to normal rank {r} not confirmed after 3 draws"
    )
