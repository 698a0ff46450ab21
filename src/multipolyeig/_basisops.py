"""Shared basis utilities: nodes, basis value rows, axis transforms.

Everything here works for both supported bases (monomial and Chebyshev of the
first kind) and operates on dense complex coefficient tensors whose leading
axes are degree axes.
"""

import functools

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial import polynomial as _poly

MONOMIAL = "monomial"
CHEBYSHEV1 = "chebyshev1"


def cheb1_nodes(k):
    """k Chebyshev points of the first kind (roots of T_k) in (-1, 1)."""
    if k < 1:
        raise ValueError("need at least one node")
    return np.cos((2.0 * np.arange(k) + 1.0) * np.pi / (2.0 * k))


def basis_rows(basis, x, deg):
    """Values of the first deg+1 basis polynomials at points x.

    Returns an array of shape x.shape + (deg+1,).
    """
    x = np.asarray(x)
    if basis == MONOMIAL:
        rows = _poly.polyvander(x, deg)
    elif basis == CHEBYSHEV1:
        rows = _cheb.chebvander(x, deg)
    else:
        raise ValueError(f"unknown basis {basis!r}")
    if x.ndim == 0:
        rows = rows[0]
    return rows


def der_axis0(basis, coeffs):
    """Coefficients of the derivative along the leading (degree) axis of coeffs."""
    if basis == MONOMIAL:
        return _poly.polyder(coeffs, axis=0)
    if basis == CHEBYSHEV1:
        return _cheb.chebder(coeffs, axis=0)
    raise ValueError(f"unknown basis {basis!r}")


@functools.lru_cache(maxsize=None)
def der_matrix(basis, deg):
    """(deg+1)-square matrix D whose column j holds the coefficients of the
    derivative of basis polynomial j, so ``basis_rows(basis, x, deg) @ D``
    are the derivatives of the basis at x (cached, read-only)."""
    der = der_axis0(basis, np.eye(deg + 1))
    mat = np.zeros((deg + 1, deg + 1))
    mat[: der.shape[0]] = der
    mat.setflags(write=False)
    return mat


def apply_matrix_axis(coeffs, mat, axis):
    """Replace axis `axis` of `coeffs` by mat @ (that axis)."""
    moved = np.tensordot(mat, coeffs, axes=(1, axis))
    return np.moveaxis(moved, 0, axis)


def contract_axis(coeffs, vec, axis):
    """Sum coeffs[..., i, ...] * vec[i] over the given axis."""
    return np.tensordot(coeffs, vec, axes=(axis, 0))


def cheb1_vals_to_coeffs_matrix(k):
    """Matrix mapping values at cheb1_nodes(k) to Chebyshev-T coefficients 0..k-1.

    Exact (up to rounding) for polynomials of degree < k; this is the dense
    form of the discrete Chebyshev transform.
    """
    j = np.arange(k)[:, None]
    theta = (2.0 * np.arange(k) + 1.0) * np.pi / (2.0 * k)
    mat = np.cos(j * theta[None, :]) * (2.0 / k)
    mat[0, :] *= 0.5
    return mat


def interp_matrix(basis, nodes, deg):
    """Matrix mapping values at `nodes` to coefficients 0..deg in `basis`.

    len(nodes) must be deg+1; the generalized Vandermonde system is solved
    explicitly, which is well conditioned for the node counts used here.
    """
    nodes = np.asarray(nodes)
    if len(nodes) != deg + 1:
        raise ValueError("node count must equal deg+1")
    v = basis_rows(basis, nodes, deg)
    return np.linalg.inv(v)


def conversion_matrix(src, dst, deg):
    """Matrix converting degree-deg coefficient vectors from basis src to dst."""
    if src == dst:
        return np.eye(deg + 1)
    out = np.zeros((deg + 1, deg + 1))
    for j in range(deg + 1):
        unit = np.zeros(j + 1)
        unit[j] = 1.0
        if src == CHEBYSHEV1 and dst == MONOMIAL:
            col = _cheb.cheb2poly(unit)
        elif src == MONOMIAL and dst == CHEBYSHEV1:
            col = _cheb.poly2cheb(unit)
        else:
            raise ValueError(f"unsupported conversion {src!r} -> {dst!r}")
        out[: len(col), j] = col
    return out


def shift_multiply_matrix(basis, deg_in):
    """Matrix of the 'multiply by the variable' map on coefficient vectors.

    Maps degree-deg_in coefficient vectors to degree-(deg_in+1) vectors.
    Monomial: shift by one. Chebyshev: x*T_0 = T_1 and
    x*T_a = (T_{a+1} + T_{a-1})/2 for a >= 1.
    """
    out = np.zeros((deg_in + 2, deg_in + 1))
    if basis == MONOMIAL:
        for a in range(deg_in + 1):
            out[a + 1, a] = 1.0
    elif basis == CHEBYSHEV1:
        for a in range(deg_in + 1):
            if a == 0:
                out[1, 0] = 1.0
            else:
                out[a + 1, a] += 0.5
                out[a - 1, a] += 0.5
    else:
        raise ValueError(f"unknown basis {basis!r}")
    return out
