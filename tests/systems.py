"""Reference systems and independent oracles shared across the test suite.

The two 2-by-2 reference pairs below have known resultants and analytically
derivable solution sets, which are frozen here as literals:

* quadratic pair: P1 = x^2 I + [[0,1],[2,0]], P2 = xy [[0,1],[-1,0]] + [[-1,0],[-1,1]].
  det P1 = x^4 - 2 and det P2 = (xy)^2 + xy - 1, so the solutions satisfy
  x^4 = 2 and xy = (-1 +- sqrt(5))/2.
* rank-deficient pair: same constant terms with nilpotent leading blocks;
  det P1 = -2(x^2 + 1), det P2 = xy - 1, so the solutions are (i, -i), (-i, i).
"""

import itertools
import math

import numpy as np

from multipolyeig.mpoly import Basis, MatrixPoly, Pmep


def random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_poly(rng, n, tau, basis=Basis.MONOMIAL, real=False):
    shape = tuple(t + 1 for t in tau) + (n, n)
    c = rng.standard_normal(shape)
    if not real:
        c = c + 1j * rng.standard_normal(shape)
    return MatrixPoly(c, basis)


def random_pmep(rng, sizes, tau, basis=Basis.MONOMIAL, real=False):
    return Pmep([random_poly(rng, n, tau, basis, real) for n in sizes])


def linear_mep(v0, vmats):
    """The linear MEP (V_i0 - sum_j x_j V_ij) v_i = 0, i = 1..d, as a Pmep of
    degree one in every variable: C_i0 = V_i0 and C_{i,e_j} = -V_ij, where
    v0[i] is V_i0 and vmats[i][j] is V_ij."""
    d = len(v0)
    polys = []
    for a, row in zip(v0, vmats):
        c = np.zeros((2,) * d + np.shape(a), dtype=complex)
        c[(0,) * d] = a
        for j, v in enumerate(row):
            c[tuple(np.eye(d, dtype=int)[j])] = -np.asarray(v)
        polys.append(MatrixPoly(c))
    return Pmep(polys)


def sparse_random_pmep(rng):
    """A random system with d in {2, 3}, n_i <= 2, tau_k <= 2 and only a
    random 30-80% of its coefficients nonzero; sparse systems often have
    singular resultants, roots at infinity or curves of roots."""
    d = int(rng.integers(2, 4))
    tau = tuple(int(t) for t in rng.integers(1, 3, size=d))
    density = rng.uniform(0.3, 0.8)
    polys = []
    for _ in range(d):
        n = int(rng.integers(1, 3))
        shape = tuple(t + 1 for t in tau) + (n, n)
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        polys.append(MatrixPoly(c * (rng.uniform(size=shape) < density)))
    return Pmep(polys)


def shared_factor_system():
    """P1 = x1(1 - 2x3 + x2x3), P2 = x1x3(1 + 3x1x2),
    P3 = 1 + 2x3 - x2 + x1x2 - 2x1^2 + x1^2x2x3, tau = (2, 1, 1).

    P1 and P2 share the factor x1, so x1 = 0, x2 = 1 + 2x3 is a curve of
    roots.  With x3 hidden the resultant is 4 x 4 of degree 3, with one row
    zero at every coefficient and no such column.
    """
    equations = [
        {(1, 0, 0): 1, (1, 0, 1): -2, (1, 1, 1): 1},
        {(1, 0, 1): 1, (2, 1, 1): 3},
        {(0, 0, 0): 1, (0, 0, 1): 2, (0, 1, 0): -1, (1, 1, 0): 1, (2, 0, 0): -2, (2, 1, 1): 1},
    ]
    polys = []
    for terms in equations:  # exponents (of x1, x2, x3) -> coefficient
        c = np.zeros((3, 2, 2, 1, 1), dtype=complex)
        for idx, value in terms.items():
            c[idx] = value
        polys.append(MatrixPoly(c))
    return Pmep(polys)


def rank_one_front_system(rng):
    """Bilinear-in-x1 pair of side 2 whose x1 coefficients are rank one:
    P1 = A(x2) + x1 (1 + 2x2) e_1 e_2^T, P2 = B(x2) + x1 e_1 e_1^T, with A
    and B random of degree one in x2.

    Hiding x2 leaves x1 of degree one with no ratio block, so block 0 is the
    whole eigenvector of the 4 x 4 resultant.  That resultant combines only
    A (x) e_1 e_1^T and e_1 e_2^T (x) B, so its row 3 and column 1 are zero
    at every coefficient, and its core of side 3 is regular.  det P1 and det P2 have bidegree
    (1, 2), so the system has 4 roots.
    """
    c1 = np.zeros((2, 2, 2, 2), dtype=complex)
    c2 = np.zeros((2, 2, 2, 2), dtype=complex)
    c1[0] = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    c2[0] = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    c1[1, :, 0, 1] = [1.0, 2.0]
    c2[1, 0, 0, 0] = 1.0
    return Pmep([MatrixPoly(c1), MatrixPoly(c2)])


def quadratic_pair_system(basis=Basis.MONOMIAL):
    c1 = np.zeros((3, 3, 2, 2), dtype=complex)
    c1[0, 0] = [[0, 1], [2, 0]]
    c1[2, 0] = np.eye(2)
    c2 = np.zeros((3, 3, 2, 2), dtype=complex)
    c2[0, 0] = [[-1, 0], [-1, 1]]
    c2[1, 1] = [[0, 1], [-1, 0]]
    p = Pmep([MatrixPoly(c1), MatrixPoly(c2)])
    return p.convert_basis(basis) if basis != Basis.MONOMIAL else p


def quadratic_pair_solutions():
    """All 8 solutions: x^4 = 2, y = u/x with u^2 + u - 1 = 0."""
    roots_u = [(-1 + math.sqrt(5)) / 2, (-1 - math.sqrt(5)) / 2]
    xs = [2**0.25 * z for z in (1, 1j, -1, -1j)]
    return [np.array([x, u / x]) for x in xs for u in roots_u]


def decoupled_system(rng, n, degree, d=2):
    """x_i^degree I - A_i for i = 1..d with random A_i: (degree * n)^d roots.

    Every root shares its x_d with (degree * n)^(d - 1) - 1 others, so the
    eigenvectors of those roots mix and only the per-eigenpair reduction
    recovers the front coordinates.  Returns the system and its closed-form
    roots.
    """
    unity = np.exp(2j * np.pi * np.arange(degree) / degree)
    polys, coords = [], []
    for i in range(d):
        a = random_matrix(rng, n)
        c = np.zeros((degree + 1,) * d + (n, n), dtype=complex)
        idx = [0] * d
        c[tuple(idx)] = -a
        idx[i] = degree
        c[tuple(idx)] = np.eye(n)
        polys.append(MatrixPoly(c))
        coords.append([r * z for r in np.linalg.eigvals(a) ** (1 / degree) for z in unity])
    return Pmep(polys), [np.array(x) for x in itertools.product(*coords)]


# frozen degree-1 resultant of the quadratic pair, R(y) = M0 + y*M1
QUAD_PAIR_M1 = np.array(
    [
        [0, 0, 0, -1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0],
        [0, -2, 0, 0, 0, 0, 0, 0],
        [2, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, -1, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 0, 0, -1, 0],
    ],
    dtype=complex,
)

QUAD_PAIR_M0 = np.array(
    [
        [0, 0, 0, 0, -1, 0, 0, 0],
        [0, 0, 0, 0, -1, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, -1, 0],
        [0, 0, 0, 0, 0, 0, -1, 1],
        [-1, 0, 0, 0, 0, 0, 0, 0],
        [-1, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, -1, 0, 0, 0, 0, 0],
        [0, 0, -1, 1, 0, 0, 0, 0],
    ],
    dtype=complex,
)


def rank_deficient_pair_system():
    c1 = np.zeros((3, 3, 2, 2), dtype=complex)
    c1[0, 0] = [[0, 1], [2, 0]]
    c1[2, 0] = [[0, 1], [0, 0]]
    c2 = np.zeros((3, 3, 2, 2), dtype=complex)
    c2[0, 0] = [[-1, 0], [-1, 1]]
    c2[1, 1] = [[0, 1], [0, 0]]
    return Pmep([MatrixPoly(c1), MatrixPoly(c2)])


def mixed_rank_deficient_pair_system(seed=0):
    """The rank-deficient pair with each P_i replaced by A_i P_i B_i.

    A_i and B_i are random constant matrices drawn from ``seed``, so the
    roots and the normal rank 5 of the size-8 resultant stay, but no row or
    column of the resultant is zero: its singularity is not structural, and
    only the projection removes it.
    """
    rng = np.random.default_rng(seed)
    polys = []
    for poly in rank_deficient_pair_system().polys:
        a, b = random_matrix(rng, 2), random_matrix(rng, 2)
        polys.append(MatrixPoly(np.einsum("ij,...jk,kl->...il", a, poly.coeffs, b)))
    return Pmep(polys)


def rank_deficient_pair_solutions():
    return [np.array([1j, -1j]), np.array([-1j, 1j])]


# Hand-derived: numerator entry (0, 3) is (s^2+1)ty - (t^2+1)sy = y(s-t)(st-1),
# so the y-coefficient of the Dixon function carries st - 1 there; the -1 part
# lands at block (i, j) = (0, 0), matrix position [0, 3].
RANK_DEFICIENT_M1 = np.zeros((8, 8), dtype=complex)
RANK_DEFICIENT_M1[0, 3] = -1
RANK_DEFICIENT_M1[2, 1] = -2
RANK_DEFICIENT_M1[4, 7] = 1

RANK_DEFICIENT_M0 = np.zeros((8, 8), dtype=complex)
RANK_DEFICIENT_M0[0, 6] = -1
RANK_DEFICIENT_M0[1, 6] = -1
RANK_DEFICIENT_M0[1, 7] = 1
RANK_DEFICIENT_M0[4, 2] = -1
RANK_DEFICIENT_M0[5, 2] = -1
RANK_DEFICIENT_M0[5, 3] = 1


def univariate_pair_system():
    """A(x) = [[x-1,0],[1,x-1]], B(x) = [[x,1],[0,x-2]] as a d=2 system, tau=(1,0)."""
    a = np.zeros((2, 1, 2, 2), dtype=complex)
    a[0, 0] = [[-1, 0], [1, -1]]
    a[1, 0] = np.eye(2)
    b = np.zeros((2, 1, 2, 2), dtype=complex)
    b[0, 0] = [[0, 1], [0, -2]]
    b[1, 0] = np.eye(2)
    return Pmep([MatrixPoly(a), MatrixPoly(b)])


UNIVARIATE_PAIR_DIXON = np.array(
    [
        [1, 1, 0, 0],
        [0, -1, 0, 0],
        [-1, 0, 1, 1],
        [0, -1, 0, -1],
    ],
    dtype=complex,
)


def shifted_power_system(rng, sizes, tau):
    """P_j = (prod_{i<d} (I x_i^{tau_i} - A_j)) x_d^{tau_d} with random A_j.

    The commuting factors expand by subsets: the coefficient of the exponent
    pattern (tau_i for i in S, 0 otherwise; tau_d) is (-A_j)^(d-1-|S|).
    """
    d = len(sizes)
    mats = [random_matrix(rng, n) for n in sizes]
    polys = []
    for j, n in enumerate(sizes):
        shape = tuple(t + 1 for t in tau) + (n, n)
        c = np.zeros(shape, dtype=complex)
        for r in range(d):
            for subset in itertools.combinations(range(d - 1), r):
                idx = [0] * d
                for i in subset:
                    idx[i] = tau[i]
                idx[d - 1] = tau[d - 1]
                c[tuple(idx)] += np.linalg.matrix_power(-mats[j], d - 1 - len(subset))
        polys.append(MatrixPoly(c))
    return Pmep(polys), mats


def shifted_power_closed_form(mats, sizes, tau, s, t, xd):
    """Independent closed form of the Dixon function of shifted_power_system."""
    d = len(sizes)
    big = []
    for i, a in enumerate(mats):
        factors = [np.eye(n) for n in sizes]
        factors[i] = a
        acc = factors[0]
        for f in factors[1:]:
            acc = np.kron(acc, f)
        big.append(acc)
    c = np.eye(int(np.prod(sizes)), dtype=complex)
    for i in range(d):
        for j in range(i + 1, d):
            c = c @ (big[i] - big[j])
    scalar = xd ** (d * tau[d - 1])
    for i in range(d - 1):
        num = s[i] ** tau[i] - t[i] ** tau[i]
        scalar *= num / (s[i] - t[i])
        for j in range(i):
            scalar *= s[i] ** tau[i] - t[j] ** tau[j]
    return c * scalar


def waveguide_system(n, even=False):
    """Acoustic layer on [0, 1] between two fluid half-spaces, on n grid points.

    Variables (k, kappa_1, kappa_2), sizes (n, 1, 1), tau = (2, 2, 2) and
    8(n - 1) roots.  With omega = 3, c = (1, 1.5, 0.8), rho = (1, 1.2, 0.9)
    and h = 1/(n - 1), P_1(k, kappa_1, kappa_2) u = 0 has the interior rows
    (u_{j-1} - 2u_j + u_{j+1})/h^2 + (omega^2/c_0^2 - k^2) u_j, row 0
    (u_1 - u_0)/h + i kappa_2 (rho_0/rho_2) u_0 and row n-1
    (u_{n-1} - u_{n-2})/h - i kappa_1 (rho_0/rho_1) u_{n-1}; the leading
    coefficient is singular, as no k^2 term appears in the boundary rows.
    P_2 = k^2 + kappa_1^2 - omega^2/c_1^2 and P_3 = k^2 + kappa_2^2 -
    omega^2/c_2^2.  With ``even`` the first variable is u = k^2 instead:
    tau = (1, 2, 2) and 4(n - 1) roots.
    """
    omega, c, rho = 3.0, (1.0, 1.5, 0.8), (1.0, 1.2, 0.9)
    h = 1.0 / (n - 1)
    k2 = 1 if even else 2  # exponent of the first variable that carries k^2
    shape = (k2 + 1, 3, 3)
    a = np.zeros(shape + (n, n), dtype=complex)
    for j in range(1, n - 1):
        a[0, 0, 0, j, j - 1 : j + 2] = [1 / h**2, -2 / h**2, 1 / h**2]
        a[0, 0, 0, j, j] += (omega / c[0]) ** 2
        a[k2, 0, 0, j, j] = -1.0
    a[0, 0, 0, 0, :2] = [-1 / h, 1 / h]
    a[0, 0, 1, 0, 0] = 1j * rho[0] / rho[2]
    a[0, 0, 0, n - 1, n - 2 :] = [-1 / h, 1 / h]
    a[0, 1, 0, n - 1, n - 1] = -1j * rho[0] / rho[1]
    polys = [MatrixPoly(a)]
    for axis in (1, 2):
        b = np.zeros(shape + (1, 1), dtype=complex)
        b[k2, 0, 0] = 1.0
        idx = [0, 0, 0]
        idx[axis] = 2
        b[tuple(idx)] = 1.0
        b[0, 0, 0] = -((omega / c[axis]) ** 2)
        polys.append(MatrixPoly(b))
    return Pmep(polys)


def vandermonde_vector(shape, x_front, v):
    """Exact eigenvector model: block (i_1..i_{d-1}) holds prod x_k^{i_k} * v."""
    blocks = []
    for idx in _colex_range(shape.alpha):
        scale = 1.0
        for k, e in enumerate(idx):
            scale *= x_front[k] ** e
        blocks.append(scale * v)
    return np.concatenate(blocks)


def _colex_range(alpha):
    """Multi-indices 0..alpha_k per slot, first index fastest."""
    ranges = [range(a + 1) for a in alpha]
    for rev in itertools.product(*reversed(ranges)):
        yield tuple(reversed(rev))


def kron_list(vecs):
    acc = vecs[0]
    for v in vecs[1:]:
        acc = np.kron(acc, v)
    return acc


def null_vector(mat):
    """Right singular vector for the smallest singular value."""
    _, _, vh = np.linalg.svd(mat)
    return vh[-1].conj()
