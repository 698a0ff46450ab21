"""Univariate polynomial eigenvalue problems: linearization, eigensolve, projection.

A matrix polynomial R(lambda) of degree m is reduced to a pencil A + lambda*B
of side m*dim (companion form in the monomial basis, colleague form in the
Chebyshev basis), solved densely as the standard eigenvalue problem of
(A + sigma*B)^-1 B.  When R is a singular polynomial it is first compressed to
its normal rank by a random two-sided orthogonal projection.  Eigenpairs come
back unrefined: the solver polishes the roots they lead to with Newton
steps on the original system (`extract.refine`).
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

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


def _shifted_lu(pencil):
    """LU of A + sigma*B at the fixed shift with the best reciprocal condition."""
    best = None
    for sigma in _SHIFTS:
        shifted = pencil.A + sigma * pencil.B
        lu, piv, info = lapack.zgetrf(shifted)
        if info > 0:  # exact zero pivot
            continue
        rcond, _ = lapack.zgecon(lu, np.linalg.norm(shifted, 1))
        if best is None or rcond > best[0]:
            best = (rcond, sigma, lu, piv)
    if best is None:
        raise SingularPencilError("A + sigma*B is singular at every shift")
    return best[1:]


def _shift_invert(pencil, vectors):
    """Eigenvalues of A + lambda*B (inf where infinite) and, unless
    ``vectors`` is false, its eigenvectors as columns (else None)."""
    n = pencil.dim
    sigma, lu, piv = _shifted_lu(pencil)
    c, _ = lapack.zgetrs(lu, piv, pencil.B)
    if vectors:
        mus, vecs = scipy.linalg.eig(c, check_finite=False)
    else:
        mus, vecs = scipy.linalg.eigvals(c, check_finite=False), None
    tiny = 10.0 * n * np.finfo(float).eps * np.linalg.norm(c, 1)
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
    Raises SingularPencilError when A + sigma*B is exactly singular at every
    shift, which a regular pencil never is.
    """
    lams, vecs = _shift_invert(pencil, vectors)
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
    lams, vecs = _shift_invert(pencil, vectors)
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
