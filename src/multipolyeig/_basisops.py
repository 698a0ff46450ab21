"""Shared basis utilities: the `Basis` type, nodes, basis rows, axis transforms.

Each `Basis` member names its `numpy.polynomial` kernels, and the functions
here take the member and look its kernel up, so both bases share one code
path.  `shift_multiply_matrix` is a basis's multiply-by-x map, from which
the eigensolver's linearization is built.
"""

import enum
import functools

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial import polynomial as _poly


class Basis(enum.Enum):
    """A degree-graded polynomial basis, named by its `numpy.polynomial`
    kernels: `vander` (basis values), `der` (derivative coefficients) and
    `mulx` (coefficients of the product with the variable).  The value is
    the basis's name in problem documents and on the command line."""

    MONOMIAL = "monomial", _poly.polyvander, _poly.polyder, _poly.polymulx
    CHEBYSHEV1 = "chebyshev1", _cheb.chebvander, _cheb.chebder, _cheb.chebmulx

    def __new__(cls, value, vander, der, mulx):
        member = object.__new__(cls)
        member._value_ = value
        member.vander, member.der, member.mulx = vander, der, mulx
        return member


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
    rows = basis.vander(x, deg)
    return rows[0] if x.ndim == 0 else rows


def _kernel_matrix(kernel, size, rows):
    """Read-only matrix with `rows` rows whose column j holds kernel(e_j) for
    the first `size` unit vectors, zero-padded (the kernels trim)."""
    out = np.zeros((rows, size))
    for j, unit in enumerate(np.eye(size)):
        col = kernel(unit)
        out[: len(col), j] = col
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def der_matrix(basis, deg):
    """(deg+1)-square matrix D whose column j holds the coefficients of the
    derivative of basis polynomial j, so ``basis_rows(basis, x, deg) @ D``
    are the derivatives of the basis at x (cached, read-only)."""
    return _kernel_matrix(basis.der, deg + 1, deg + 1)


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


def interp_matrix(basis, nodes):
    """Matrix mapping values at `nodes` to coefficients 0..len(nodes)-1 in
    `basis`: the inverse of the generalized Vandermonde matrix, which is
    well conditioned for the node counts used here."""
    nodes = np.asarray(nodes)
    return np.linalg.inv(basis_rows(basis, nodes, len(nodes) - 1))


@functools.lru_cache(maxsize=None)
def conversion_matrix(src, dst, deg):
    """Matrix converting degree-deg coefficient vectors from basis src to the
    other basis dst (cached, read-only)."""
    convert = {
        (Basis.CHEBYSHEV1, Basis.MONOMIAL): _cheb.cheb2poly,
        (Basis.MONOMIAL, Basis.CHEBYSHEV1): _cheb.poly2cheb,
    }[src, dst]
    return _kernel_matrix(convert, deg + 1, deg + 1)


@functools.lru_cache(maxsize=None)
def shift_multiply_matrix(basis, deg_in):
    """Matrix M of the 'multiply by the variable' map on coefficient vectors,
    from degree deg_in to degree deg_in+1: x*phi_j = sum_i M[i, j] phi_i
    (cached, read-only).  Monomial: a shift by one; Chebyshev: x*T_0 = T_1
    and x*T_a = (T_{a+1} + T_{a-1})/2 for a >= 1.  The linearization in
    `pep` is its only user."""
    return _kernel_matrix(basis.mulx, deg_in + 1, deg_in + 2)
