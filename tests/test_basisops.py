"""The basis kernel matrices against `numpy.polynomial` class arithmetic,
which takes other code paths than the `mulx`, `der` and conversion kernels
the matrices are built from."""

import numpy as np
import pytest
from numpy.polynomial import Chebyshev, Polynomial

import multipolyeig
from multipolyeig import _basisops as bo
from multipolyeig import mpoly
from multipolyeig.mpoly import Basis, MatrixPoly

KINDS = {Basis.MONOMIAL: Polynomial, Basis.CHEBYSHEV1: Chebyshev}
OTHER = {Basis.MONOMIAL: Basis.CHEBYSHEV1, Basis.CHEBYSHEV1: Basis.MONOMIAL}
DEGREES = range(9)


def coefficients(deg):
    return np.random.default_rng(deg).standard_normal(deg + 1)


def padded(coef, length):
    out = np.zeros(length)
    out[: len(coef)] = coef
    return out


@pytest.mark.parametrize("deg", DEGREES)
@pytest.mark.parametrize("basis", list(Basis))
def test_shift_multiply_matrix_is_product_with_x(basis, deg):
    kind, c = KINDS[basis], coefficients(deg)
    want = padded((kind(c) * kind([0.0, 1.0])).coef, deg + 2)
    got = bo.shift_multiply_matrix(basis, deg) @ c
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(c).sum())


@pytest.mark.parametrize("deg", DEGREES)
@pytest.mark.parametrize("basis", list(Basis))
def test_der_matrix_is_derivative(basis, deg):
    kind, c = KINDS[basis], coefficients(deg)
    want = padded(kind(c).deriv().coef, deg + 1)
    got = bo.der_matrix(basis, deg) @ c
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(c).sum())


@pytest.mark.parametrize("deg", DEGREES)
@pytest.mark.parametrize("src", list(Basis))
def test_conversion_matrix_is_convert(src, deg):
    dst, c = OTHER[src], coefficients(deg)
    want = padded(KINDS[src](c).convert(kind=KINDS[dst]).coef, deg + 1)
    got = bo.conversion_matrix(src, dst, deg) @ c
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(c).sum())


@pytest.mark.parametrize(
    "build",
    [bo.der_matrix, bo.shift_multiply_matrix, lambda b, k: bo.conversion_matrix(b, OTHER[b], k)],
    ids=["der", "shift_multiply", "conversion"],
)
@pytest.mark.parametrize("basis", list(Basis))
def test_cached_matrices_are_read_only(build, basis):
    mat = build(basis, 3)
    assert build(basis, 3) is mat
    with pytest.raises(ValueError, match="read-only"):
        mat[0, 0] = 1.0


def test_basis_resolves_from_its_value_everywhere():
    assert multipolyeig.Basis is mpoly.Basis is bo.Basis
    for basis in Basis:
        assert Basis(basis.value) is basis
        assert Basis(basis) is basis
    poly = MatrixPoly(np.ones((2, 1, 1)), "chebyshev1")
    assert poly.basis is Basis.CHEBYSHEV1
    with pytest.raises(ValueError):
        Basis("legendre")
