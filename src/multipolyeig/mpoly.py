"""Multivariate matrix polynomials and systems of them.

A MatrixPoly stores a dense coefficient tensor of square complex matrices: the
entry ``coeffs[i1, ..., id]`` is the n-by-n coefficient of the basis product
``phi_{i1}(x_1) * ... * phi_{id}(x_d)``, where ``phi`` is either the monomial
or the first-kind Chebyshev family. A Pmep is a system of d such polynomials
in d variables sharing one degree-bound vector tau and the basis, so the
outer-product basis rows of a set of points are the same for every equation:
`Pmep.eval_many` builds them once and contracts each equation with them.  A
MatrixPoly with d = 1 is a univariate matrix polynomial, such as the
resultant R(x_d); `m` and `size` name its degree and side.
"""

import numpy as np

from . import _basisops as bo
from ._basisops import Basis


def _outer_rows(basis, tau, pts, jet):
    """Outer-product basis rows of an (m, d) array of points, shape
    (m, j, prod(tau_k + 1)): j = 1 holds the values' rows, and with ``jet``
    j = d + 1 adds, for each partial k, the rows with factor k swapped for
    its derivative row ``basis_rows @ der_matrix``."""
    pts = np.asarray(pts, dtype=complex)
    d = len(tau)
    if pts.ndim != 2 or pts.shape[1] != d:
        raise ValueError("pts must have shape (m, d)")
    m = pts.shape[0]
    j = d + 1 if jet else 1
    rows = np.ones((m, j, 1), dtype=complex)
    for k in range(d):
        vals = bo.basis_rows(basis, pts[:, k], tau[k])
        factor = np.repeat(vals[:, None, :], j, axis=1)
        if jet:
            factor[:, k + 1] = (vals[:, None, :] @ bo.der_matrix(basis, tau[k]))[:, 0, :]
        width = rows.shape[-1] * factor.shape[-1]  # explicit: m may be 0
        rows = (rows[..., :, None] * factor[..., None, :]).reshape(m, j, width)
    return rows


class MatrixPoly:
    """One multivariate matrix polynomial.

    Parameters
    ----------
    coeffs : array_like
        Complex array of shape (tau_1+1, ..., tau_d+1, n, n).
    basis : Basis or str
        Basis the coefficients refer to.

    The number of variables is d = coeffs.ndim - 2.
    """

    def __init__(self, coeffs, basis=Basis.MONOMIAL):
        arr = np.asarray(coeffs, dtype=complex)
        if arr.ndim < 3:
            raise ValueError(f"coefficient tensor of ndim {arr.ndim} has no variable axis")
        if arr.shape[-1] != arr.shape[-2]:
            raise ValueError("coefficient matrices must be square")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients contain NaN/Inf")
        arr = arr.copy()
        arr.setflags(write=False)
        self.coeffs = arr
        self.basis = Basis(basis)
        self.d = arr.ndim - 2
        self._matrix_cache = {}  # shared by a copy with the same matrices

    @property
    def n(self):
        return self.coeffs.shape[-1]

    @property
    def tau(self):
        return tuple(s - 1 for s in self.coeffs.shape[:-2])

    @property
    def m(self):
        """Degree of a univariate (d = 1) polynomial."""
        return self.coeffs.shape[0] - 1

    @property
    def size(self):
        """Side of the coefficient matrices, as the eigensolver names it."""
        return self.n

    def __repr__(self):
        return f"MatrixPoly(d={self.d}, n={self.n}, tau={self.tau}, basis={self.basis.value})"

    def eval(self, x):
        """Evaluate at one point x in C^d (a scalar when d = 1): `eval_many`
        on that point."""
        x = np.atleast_1d(np.asarray(x, dtype=complex))
        if x.shape != (self.d,):
            raise ValueError(f"point has length {x.size}, expected {self.d}")
        return self.eval_many(x[None])[0]

    def eval_many(self, pts, jet=False):
        """Evaluate at an (m, d) array of points; returns (m, n, n).

        With ``jet=True`` returns (m, d+1, n, n): the value followed by the d
        partial derivatives.  Each is the outer-product basis row of the point
        (`_outer_rows`) contracted with the flattened coefficients; partial k
        swaps factor k of the row for its derivative row
        ``basis_rows @ der_matrix``, so no derivative coefficients are formed
        or cached.  The contraction is one vector-matrix product per row,
        stacked, so a point's result does not depend, to the bit, on the
        other points in the batch (one ``rows @ table`` product splits its
        work by batch size and rounds differently).  `Pmep.eval_many` shares
        one set of rows among a system's equations.
        """
        return self._contract(_outer_rows(self.basis, self.tau, pts, jet), jet)

    def _contract(self, rows, jet):
        """Rows from `_outer_rows` contracted with the coefficients, one
        vector-matrix product per row."""
        m, n = rows.shape[0], self.n
        out = (rows[..., None, :] @ self.coeffs.reshape(rows.shape[-1], n * n))[..., 0, :]
        return out.reshape((m, self.d + 1, n, n) if jet else (m, n, n))

    def partial_eval(self, assignments):
        """Substitute values for a subset of variables (0-based axis -> value).

        Returns a MatrixPoly in the remaining variables, in their original
        order; all variables substituted is not allowed (use eval).
        """
        axes = sorted(assignments)
        if not axes:
            return self
        if any(a < 0 or a >= self.d for a in axes):
            raise ValueError("assignment axis out of range")
        if len(axes) == self.d:
            raise ValueError("cannot substitute every variable; use eval")
        new = self.coeffs
        for a in reversed(axes):
            row = bo.basis_rows(self.basis, complex(assignments[a]), self.tau[a])
            new = bo.contract_axis(new, row, a)
        return MatrixPoly(new, self.basis)

    def convert_basis(self, target):
        """Return the same polynomial expressed in `target` basis."""
        target = Basis(target)
        if target == self.basis:
            return self
        new = self.coeffs
        for k in range(self.d):
            mat = bo.conversion_matrix(self.basis, target, self.tau[k])
            new = bo.apply_matrix_axis(new, mat, k)
        return MatrixPoly(new, target)

    def max_coeff_norm(self):
        """Largest spectral norm among the coefficient matrices (cached: the
        coefficients are read-only)."""
        if "norm" not in self._matrix_cache:
            flat = self.coeffs.reshape(-1, self.n, self.n)
            self._matrix_cache["norm"] = (
                float(np.max(np.linalg.norm(flat, ord=2, axis=(1, 2))))
                if flat.shape[0]
                else 0.0
            )
        return self._matrix_cache["norm"]


class Pmep:
    """A polynomial multiparameter eigenvalue problem: d equations, d variables."""

    def __init__(self, polys):
        polys = list(polys)
        if not polys:
            raise ValueError("empty system")
        d = polys[0].d
        if d != len(polys):
            raise ValueError(f"{len(polys)} equations for {d} variables; system must be square")
        tau = polys[0].tau
        basis = polys[0].basis
        for i, p in enumerate(polys):
            if p.d != d:
                raise ValueError(f"equation {i} has d={p.d}, expected {d}")
            if p.tau != tau:
                raise ValueError(f"equation {i} has tau={p.tau}, expected {tau}")
            if p.basis != basis:
                raise ValueError(f"equation {i} has basis {p.basis.value}, expected {basis.value}")
        n_total = 1
        for p in polys:
            n_total *= p.n
        if n_total > 2**31:
            raise ValueError("product of matrix sizes overflows sensible limits")
        self.polys = tuple(polys)
        self.d = d
        self.tau = tau
        self.basis = basis
        self.N = n_total

    @property
    def sizes(self):
        return tuple(p.n for p in self.polys)

    def __repr__(self):
        return f"Pmep(d={self.d}, sizes={self.sizes}, tau={self.tau}, basis={self.basis.value})"

    def convert_basis(self, target):
        return Pmep([p.convert_basis(target) for p in self.polys])

    def eval_many(self, pts, jet=False):
        """Every equation at an (m, d) array of points: the list of the d
        `MatrixPoly.eval_many` results, equal to them bit for bit.  The
        equations share tau and the basis, so the basis rows of the points
        are built once and each equation contracts them."""
        rows = _outer_rows(self.basis, self.tau, pts, jet)
        return [poly._contract(rows, jet) for poly in self.polys]

    def permute_variables(self, perm):
        """Reorder variables.

        `perm` is a permutation of 1..d: new variable k is old variable
        perm[k-1], i.e. the new system Q satisfies
        Q(x[perm[0]-1], ..., x[perm[d-1]-1]) = P(x[0], ..., x[d-1]).
        The identity returns the system; a copy shares each `max_coeff_norm`.
        """
        perm = tuple(int(v) for v in perm)
        if sorted(perm) != list(range(1, self.d + 1)):
            raise ValueError(f"perm {perm} is not a permutation of 1..{self.d}")
        if perm == tuple(range(1, self.d + 1)):
            return self
        axes = tuple(v - 1 for v in perm)
        out = []
        for p in self.polys:
            out.append(MatrixPoly(np.transpose(p.coeffs, axes + (self.d, self.d + 1)), p.basis))
            out[-1]._matrix_cache = p._matrix_cache
        return Pmep(out)

    def change_of_variables(self, q):
        """Rotate coordinates: returns P' with P'_i(x') = P_i(Q^T x').

        Q must be real orthogonal. If x is a solution point of P, then Qx is a
        solution point of P'. Per-variable degrees are padded to the total
        degree T = sum(tau); the rotated coefficients are recovered by
        evaluation on a tensor Chebyshev grid and interpolation.
        """
        q = np.asarray(q, dtype=float)
        if q.shape != (self.d, self.d):
            raise ValueError("Q has wrong shape")
        if np.linalg.norm(q.T @ q - np.eye(self.d)) > 1e-12:
            raise ValueError("Q is not orthogonal")
        total = sum(self.tau)
        k = total + 1
        nodes = bo.cheb1_nodes(k)
        grids = np.meshgrid(*([nodes] * self.d), indexing="ij")
        pts_rot = np.stack([g.reshape(-1) for g in grids], axis=1)
        pts_orig = pts_rot @ q  # rows: Q^T x' for each grid point x'
        to_coeff = bo.cheb1_vals_to_coeffs_matrix(k)
        if self.basis == Basis.MONOMIAL:
            to_coeff = bo.conversion_matrix(Basis.CHEBYSHEV1, Basis.MONOMIAL, total) @ to_coeff
        out = []
        for p, vals in zip(self.polys, self.eval_many(pts_orig)):
            vals = vals.reshape((k,) * self.d + (p.n, p.n))
            for axis in range(self.d):
                vals = bo.apply_matrix_axis(vals, to_coeff, axis)
            out.append(MatrixPoly(vals, self.basis))
        return Pmep(out)
