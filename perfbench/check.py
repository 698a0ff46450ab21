"""Independent correctness checks of solver output, in plain numpy.

Nothing here calls into `multipolyeig`: the residual is recomputed from the
problem's own coefficient tensors, so a change to the library's residual
cannot weaken the check.
"""

import json

import numpy as np

RESIDUAL_TOL = 1e-8  # the CLI's default --residual-tol, which the benchmark keeps
MATCH_TOL = 1e-6  # relative distance at which a root matches a closed-form root


def _basis_values(basis, z, count):
    vals = np.empty(count, dtype=complex)
    vals[0] = 1.0
    if count > 1:
        vals[1] = z
    for j in range(2, count):
        if basis == "chebyshev1":
            vals[j] = 2 * z * vals[j - 1] - vals[j - 2]
        else:
            vals[j] = z * vals[j - 1]
    return vals


def evaluate(coeffs, basis, x):
    """P(x) for a coefficient tensor of shape (tau_1+1, ..., tau_d+1, n, n)."""
    out = coeffs
    for z in x:
        out = np.tensordot(_basis_values(basis, z, out.shape[0]), out, axes=(0, 0))
    return out


def coeff_scale(coeffs):
    """Largest spectral norm among the coefficient matrices."""
    n = coeffs.shape[-1]
    return float(np.max(np.linalg.norm(coeffs.reshape(-1, n, n), ord=2, axis=(1, 2))))


def residual(problem, x, scales=None):
    """max_i sigma_min(P_i(x)) / max ||coeff_i||, the solver's acceptance measure."""
    worst = 0.0
    for i, c in enumerate(problem["coeffs"]):
        scale = scales[i] if scales is not None else coeff_scale(c)
        if scale == 0.0:
            continue
        sv = np.linalg.svd(evaluate(c, problem["basis"], x), compute_uv=False)
        worst = max(worst, float(sv[-1]) / scale)
    return worst


def read_roots(text, d):
    """Root coordinates from a solution document; raises ValueError if malformed."""
    doc = json.loads(text)
    roots = []
    for entry in doc["solutions"]:
        x = np.array([complex(re, im) for re, im in entry["x"]])
        if x.shape != (d,):
            raise ValueError(f"root has {x.size} coordinates, expected {d}")
        roots.append(x)
    return roots


def matches(roots, refs, tol=MATCH_TOL):
    """(distinct references matched, returned roots matching no reference)."""
    refs = [np.asarray(r, dtype=complex) for r in refs]
    hit = set()
    stray = 0
    for x in roots:
        dist = [np.max(np.abs(x - r)) / max(1.0, np.max(np.abs(r))) for r in refs]
        k = int(np.argmin(dist))
        if dist[k] <= tol:
            hit.add(k)
        else:
            stray += 1
    return len(hit), stray


def validate(problem, text):
    """Check one solution document against its problem.

    Returns (roots credited toward recall, number of bad roots).  A root is
    bad when its recomputed residual exceeds RESIDUAL_TOL or, for a problem
    with closed-form roots, when it matches none of them.  Only good roots
    are credited, and a closed-form root at most once.
    """
    d = problem["coeffs"][0].ndim - 2
    roots = read_roots(text, d)
    scales = [coeff_scale(c) for c in problem["coeffs"]]
    good = [x for x in roots if residual(problem, x, scales) <= RESIDUAL_TOL]
    bad = len(roots) - len(good)
    if problem["roots"] is None:
        return len(good), bad
    found, stray = matches(good, problem["roots"])
    return found, bad + stray
