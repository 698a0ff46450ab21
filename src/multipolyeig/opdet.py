"""Operator determinants of linear multiparameter eigenvalue problems.

A linear MEP consists of d equations W_i(x) v_i = (V_i0 - sum_j x_j V_ij) v_i
= 0 sharing the point x in C^d.  Here it is a `Pmep` of degree one in every
variable, without cross terms, in the monomial basis: V_i0 = C_i0 and
V_ij = -C_{i,e_j}, where C_{i,e} is the coefficient of equation i at the
degree multi-index e.  The block Kronecker determinants Delta_0 and
Delta_k (Atkinson) turn it into d generalized eigenvalue problems
(Delta_k - x_k Delta_0) z = 0 with the shared eigenvector
z = v_1 kron ... kron v_d.  `solve` builds the pencil for k = d with `delta`;
`solve_linear_mep` solves it by QZ, an independent reference.
"""

import numpy as np

from .dixon import kron_det
from .errors import SingularMepError
from .extract import Solution, SolutionSet, residual
from .mpoly import Basis

__all__ = ["delta", "solve_linear_mep", "kron_factor"]


def delta(p, k):
    """Block Kronecker determinant of the linear MEP p (monomial basis, see
    above): Delta_0 for k = 0, else column k replaced by V_i0.  Terms of
    degree two or more are not read."""
    d = p.d
    if any(t != 1 for t in p.tau):
        raise ValueError("a linear MEP has degree one in every variable")
    if not 0 <= k <= d:
        raise ValueError("k must lie in 0..d")
    unit = np.eye(d, dtype=int)

    def column(i, j):
        coeffs = p.polys[i].coeffs
        if k and j == k - 1:
            return coeffs[(0,) * d]
        return -coeffs[tuple(unit[j])]

    return kron_det([[column(i, j) for j in range(d)] for i in range(d)])


def _unit(vec, norm):
    """vec / norm along the last axis, with a zero vector staying zero."""
    return np.divide(vec, norm[..., None], out=np.zeros_like(vec), where=norm[..., None] != 0)


def kron_factor(z, sizes):
    """Rank-1 Kronecker factors of z, one unit vector per equation; a stack z
    of shape (..., N) gives factors of shape (..., n_i).

    Factor i is the column of largest 2-norm of the mode unfolding, of shape
    (n_i, rest), normalized; the rest of z is then u_i^H times the unfolding.
    On an exact v_1 kron ... kron v_d every column is a multiple of v_i, so
    this recovers each v_i up to phase, and a nearly rank-one z gives factors
    within its distance from rank one.  A zero z has zero factors.
    """
    rest = np.asarray(z, dtype=complex)
    factors = []
    for n in sizes[:-1]:
        mat = rest.reshape(rest.shape[:-1] + (n, rest.shape[-1] // n))
        top = np.argmax(np.sum(mat.real**2 + mat.imag**2, axis=-2), axis=-1)
        col = np.take_along_axis(mat, top[..., None, None], axis=-1)[..., 0]
        u = _unit(col, np.linalg.norm(col, axis=-1))
        factors.append(u)
        rest = (u.conj()[..., None, :] @ mat)[..., 0, :]
    factors.append(_unit(rest, np.linalg.norm(rest, axis=-1)))
    return factors


def solve_linear_mep(p):
    """Solve a regular linear MEP, a `Pmep` in either basis, through its
    operator determinants.

    Solves the x_d generalized eigenvalue problem once; the other coordinates
    come from generalized Rayleigh quotients with the left eigenvectors, which
    ties every coordinate to the same underlying eigenvector and avoids
    combinatorial matching across the d eigenproblems.

    This QZ reference is the one use of scipy in the package, imported here
    so that the solve path runs on numpy alone; scipy comes with the
    ``test`` extra.
    """
    import scipy.linalg

    p = p.convert_basis(Basis.MONOMIAL)
    d0 = delta(p, 0)
    sv = np.linalg.svd(d0, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] / sv[0] <= 1e-12:
        raise SingularMepError("Delta_0 is numerically singular; not a regular MEP")
    deltas = [delta(p, k) for k in range(1, p.d + 1)]
    vals, left, right = scipy.linalg.eig(deltas[-1], d0, left=True, right=True)
    points = np.empty((vals.shape[0], p.d), dtype=complex)
    points[:, -1] = vals
    for idx in range(vals.shape[0]):
        z = right[:, idx]
        w = left[:, idx]
        denom = w.conj() @ (d0 @ z)
        for k in range(p.d - 1):
            points[idx, k] = (w.conj() @ (deltas[k] @ z)) / denom
    sols = []
    for idx, res in enumerate(residual(p, points)):
        sol = Solution(points[idx], res)
        sol.eigenvectors = kron_factor(right[:, idx], p.sizes)
        sols.append(sol)
    sols.sort(key=lambda s: s.residual)
    return SolutionSet(sols, {"resultant_size": p.N, "normal_rank": p.N,
                              "projected": False, "dropped_eigenpairs": 0})
