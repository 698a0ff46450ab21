"""Independent multistart Newton verification for small dense systems.

Runs Newton's method on F(x) = (det P_1(x), ..., det P_d(x)) from many random
starting points.  The Jacobian uses Jacobi's formula d det = tr(adj(P) dP)
with the adjugate computed through an SVD, which stays finite exactly at the
roots where P becomes singular.  This provides ground truth for the resultant
pipeline without sharing any code path with it.
"""

import numpy as np

from .extract import RESIDUAL_TOL, Solution, check_tolerances, filter_solutions, residual
from .mpoly import MatrixPoly

__all__ = ["adjugate", "newton_oracle"]

# Newton iterations a start may take before it counts as nonconvergent
_MAX_ITER = 50


def adjugate(a):
    """Adjugate via SVD: adj(A) = det(U V^H) * V diag(prod_{j!=i} s_j) U^H."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if n == 1:
        return np.ones((1, 1), dtype=complex)
    u, s, vh = np.linalg.svd(a)
    left = np.concatenate(([1.0], np.cumprod(s[:-1])))
    right = np.concatenate((np.cumprod(s[::-1])[-2::-1], [1.0]))
    prods = left * right
    phase = np.linalg.det(u @ vh)
    return phase * (vh.conj().T * prods) @ u.conj().T


def _derivatives(p):
    return [
        [MatrixPoly(p.basis.der(poly.coeffs, axis=j), p.basis) for j in range(p.d)]
        for poly in p.polys
    ]


def newton_oracle(p, starts=200, seed=0, residual_tol=RESIDUAL_TOL):
    """Multistart Newton on the determinant system of a Pmep.

    Returns the deduplicated, residual-validated solution set; non-convergent
    starts are dropped and counted in the diagnostics.
    """
    if starts < 1:
        raise ValueError("need at least one start")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    check_tolerances(residual_tol=residual_tol)
    rng = np.random.default_rng(seed)
    derivs = _derivatives(p)
    d = p.d
    found = []
    nonconverged = 0
    for _ in range(starts):
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        ok = False
        for _ in range(_MAX_ITER):
            f = np.empty(d, dtype=complex)
            jac = np.empty((d, d), dtype=complex)
            for i, poly in enumerate(p.polys):
                mat = poly.eval(x)
                f[i] = np.linalg.det(mat)
                adj = adjugate(mat)
                for j in range(d):
                    jac[i, j] = np.trace(adj @ derivs[i][j].eval(x))
            step = np.linalg.lstsq(jac, -f, rcond=None)[0]
            x = x + step
            if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > 1e8:
                break
            if np.linalg.norm(step) <= 1e-13 * (1.0 + np.linalg.norm(x)):
                ok = True
                break
        if ok:
            found.append(x)
        else:
            nonconverged += 1
    res = residual(p, np.array(found).reshape(-1, d))
    out = filter_solutions([Solution(x, r) for x, r in zip(found, res)], residual_tol)
    out.diagnostics = {
        "starts": starts,
        "nonconverged": nonconverged,
        "candidates": len(found),
        "seed": seed,
    }
    return out
