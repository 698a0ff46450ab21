"""Stacked calls agree with their one-item forms.

The eigenvector reads, the dedup and the solution document each handle every
eigenpair or candidate in one array call; these properties pin them to the
one-row call, a per-row ``np.linalg.pinv``, the greedy and quadratic
loops and ``json.dumps`` they replace.  The polynomial evaluation at a batch
of points is pinned, to the bit, to its one-point call.
"""

import json
import tracemalloc

import numpy as np
import pytest

import systems
from multipolyeig import extract, solver
from multipolyeig.dixon import DixonShape
from multipolyeig.extract import (
    Solution,
    SolutionSet,
    filter_solutions,
    vandermonde_ratios,
)
from multipolyeig.io import parse_solutions, serialize_solutions
from multipolyeig.mpoly import Basis, MatrixPoly, Pmep
from multipolyeig.opdet import kron_factor
from test_opdet import random_linear_mep

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SHAPES = (
    DixonShape(2, (2, 2), (2, 2)),  # alpha = (1,)
    DixonShape(3, (2, 1, 1), (2, 1, 2)),  # alpha = (1, 1)
    DixonShape(3, (1, 2, 1), (1, 2, 1)),  # alpha = (0, 3): x_1 has no block
)


@hypothesis.settings(max_examples=200, derandomize=True, deadline=None)
@hypothesis.given(
    seed=st.integers(0, 2**32 - 1),
    which=st.integers(0, len(SHAPES) - 1),
    rows=st.integers(1, 6),
    zero_fraction=st.sampled_from([0.0, 0.3, 0.9]),
    masked=st.booleans(),
)
def test_stacked_ratios_match_one_vector_calls(seed, which, rows, zero_fraction, masked):
    shape = SHAPES[which]
    rng = np.random.default_rng(seed)
    size = shape.resultant_size
    vecs = rng.standard_normal((rows, size)) + 1j * rng.standard_normal((rows, size))
    vecs[rng.uniform(size=(rows, size)) < zero_fraction] = 0.0
    mask = rng.uniform(size=size) < 0.7 if masked else None
    got = vandermonde_ratios(vecs, shape, mask)
    assert got.shape == (rows, shape.d - 1)
    for vec, row in zip(vecs, got):
        want = vandermonde_ratios(vec[None], shape, mask)[0]
        assert np.array_equal(np.isnan(row), np.isnan(want))
        ok = ~np.isnan(want)
        assert np.allclose(row[ok], want[ok], rtol=1e-13, atol=0.0)


def test_one_vector_still_raises():
    shape = SHAPES[0]
    vec = np.zeros(shape.resultant_size, dtype=complex)
    vec[shape.N :] = 1.0  # zero divisor block
    with pytest.raises(ValueError):
        vandermonde_ratios(vec, shape)
    assert np.all(np.isnan(vandermonde_ratios(vec[None], shape)))


def test_coordinate_without_ratio_block_reads_nan_alone():
    # alpha = (0, 3): x_1 has no ratio block and reads NaN in its own
    # column, without failing the read of x_2
    shape = SHAPES[2]
    rng = np.random.default_rng(4)
    x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = rng.standard_normal(shape.N) + 1j * rng.standard_normal(shape.N)
    got = vandermonde_ratios(systems.vandermonde_vector(shape, x, v)[None], shape)[0]
    assert np.isnan(got[0])
    assert abs(got[1] - x[1]) <= 1e-13 * max(1.0, abs(x[1]))


@hypothesis.settings(max_examples=200, derandomize=True, deadline=None)
@hypothesis.given(
    seed=st.integers(0, 2**32 - 1),
    tau=st.lists(st.integers(0, 3), min_size=1, max_size=3),
    n=st.integers(1, 3),
    batch=st.integers(0, 6),
    basis=st.sampled_from(list(Basis)),
)
def test_jet_rows_do_not_depend_on_the_batch(seed, tau, n, batch, basis):
    # each equation of a system takes its slice of the system's shared
    # rows: equal, to the bit, to its own evaluation, values and jets alike
    rng = np.random.default_rng(seed)
    polys = []
    for i in range(len(tau)):
        shape = tuple(t + 1 for t in tau) + (n + i % 2,) * 2
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        polys.append(MatrixPoly(c, basis))
    system = Pmep(polys)
    pts = rng.standard_normal((batch, len(tau))) + 1j * rng.standard_normal((batch, len(tau)))
    jets, values = system.eval_many(pts, jet=True), system.eval_many(pts)
    for p, jet, vals in zip(polys, jets, values):
        assert np.array_equal(jet, p.eval_many(pts, jet=True))
        assert np.array_equal(vals, p.eval_many(pts))
        for i in range(batch):
            assert np.array_equal(jet[i], p.eval_many(pts[i : i + 1], jet=True)[0])
        assert np.array_equal(jet[:, 0], vals)


def kronecker_read_reference(work, shape, vecs, pts, coords):
    """`solver._kronecker_read` one row at a time, through ``np.linalg.pinv``."""
    slices = [0] + [1 + j for j in coords]
    out = np.empty((len(pts), len(coords)), dtype=complex)
    for row, (vec, x) in enumerate(zip(vecs, pts)):
        at = x.copy()
        at[coords] = 0.0
        a, b = [], []
        for poly, u in zip(work.polys, kron_factor(vec[: shape.N], shape.sizes)):
            cu = poly.eval_many(at[None], jet=True)[0, slices] @ u
            a.append(cu[0])
            b.append(cu[1:].T)
        out[row] = -np.linalg.pinv(np.concatenate(b)) @ np.concatenate(a)
    return out


@pytest.mark.parametrize("sizes, rows", [((10, 10), 100), ((4, 4, 4), 64), ((2, 3, 1, 2), 9)])
def test_kronecker_read_matches_pinv(sizes, rows):
    rng = np.random.default_rng(len(sizes))
    d = len(sizes)
    work = random_linear_mep(rng, sizes)
    N = int(np.prod(sizes))
    shape = solver._OneBlock(d, sizes, N, (0,) * (d - 1))
    vecs = rng.standard_normal((rows, N)) + 1j * rng.standard_normal((rows, N))
    pts = rng.standard_normal((rows, d)) + 1j * rng.standard_normal((rows, d))
    coords = list(range(d - 1))
    got = solver._kronecker_read(work, kron_factor(vecs, sizes), pts, coords)
    want = kronecker_read_reference(work, shape, vecs, pts, coords)
    scale = np.max(np.abs(want), axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


def test_kronecker_read_of_a_zero_row_is_nan():
    # block 0 all zero gives zero factors, so an all-zero coefficient stack:
    # its triangular factor is exactly singular
    rng = np.random.default_rng(3)
    sizes = (3, 2, 2)
    work = random_linear_mep(rng, sizes)
    shape = solver._OneBlock(3, sizes, 12, (0, 0))
    vecs = rng.standard_normal((5, 12)) + 1j * rng.standard_normal((5, 12))
    vecs[2] = 0.0
    pts = rng.standard_normal((5, 3)) + 0j
    with np.errstate(all="raise"):
        got = solver._kronecker_read(work, kron_factor(vecs, sizes), pts, [0, 1])
    assert np.all(np.isnan(got[2]))
    keep = [0, 1, 3, 4]
    want = kronecker_read_reference(work, shape, vecs[keep], pts[keep], [0, 1])
    assert np.allclose(got[keep], want, rtol=1e-12, atol=0.0)


def greedy_filter(points, residuals, residual_tol):
    """The one-candidate-at-a-time dedup loop that `filter_solutions` batches:
    the kept rows of ``points`` in order."""
    kept = [i for i, r in enumerate(residuals) if r <= residual_tol]
    kept.sort(key=lambda i: residuals[i])
    unique = []
    for i in kept:
        x = points[i]
        norm = float(np.max(np.abs(x)))
        if any(
            np.max(np.abs(points[u] - x)) <= 1e-8 * max(1.0, norm, float(np.max(np.abs(points[u]))))
            for u in unique
        ):
            continue
        unique.append(i)
    return unique


@pytest.mark.parametrize("n_centers", [1, 7, 2**16])
@hypothesis.settings(max_examples=60, derandomize=True, deadline=None)
@hypothesis.given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(0, 300),
    d=st.integers(1, 3),
)
def test_dedup_matches_greedy_loop(n_centers, seed, count, d):
    # one center puts every candidate in one window of the sort; 2^16 centers
    # leave nearly every candidate alone in its window
    rng = np.random.default_rng(seed)
    unit = rng.standard_normal((n_centers, d)) + 1j * rng.standard_normal((n_centers, d))
    centers = unit / np.max(np.abs(unit), axis=1, keepdims=True)
    centers *= 10.0 ** rng.uniform(-3, 6, size=(n_centers, 1))
    if n_centers > 1:
        centers[1, 0] = centers[0, 0]  # two centers that share x_1
    points = np.zeros((count, d), dtype=complex)
    residuals = np.zeros(count)
    for k in range(count):
        # copies at, just inside and just outside the tolerance of a center,
        # with residuals from a short list, so ties are common
        c = centers[rng.integers(len(centers))]
        scale = max(1.0, np.max(np.abs(c)))
        step = rng.choice([0.0, 3e-9, 9e-9, 1.1e-8, 2e-8]) * scale
        points[k] = c + step * np.exp(2j * np.pi * rng.uniform(size=d))
        residuals[k] = rng.choice([1e-15, 1e-12, 1e-12, 1e-9, 1.0])
    want = greedy_filter(points, residuals, 1e-8)
    got = filter_solutions(points, residuals, 1e-8)
    assert np.array_equal(got.points().reshape(-1, d), points[want])
    assert [s.residual for s in got] == residuals[want].tolist()


def first_copy_reference(points):
    """`extract._first_copy` by the O(k^2) loop over every earlier row."""
    norms = np.max(np.abs(points), axis=1)
    first = list(range(len(points)))
    for i in range(len(points)):
        for j in range(i):
            dist = np.max(np.abs(points[i] - points[j]))
            if first[j] == j and dist <= 1e-8 * max(1.0, norms[i], norms[j]):
                first[i] = j
                break
    return first


@hypothesis.settings(max_examples=100, derandomize=True, deadline=None)
@hypothesis.given(
    seed=st.integers(0, 2**32 - 1),
    chains=st.integers(1, 4),
    length=st.integers(1, 8),
    d=st.integers(1, 3),
    nan_rows=st.integers(0, 3),
)
def test_first_copy_matches_the_quadratic_loop(seed, chains, length, d, nan_rows):
    # chains of points 0.4-0.9 tolerances apart: a ~ b and b ~ c, yet often
    # not a ~ c, so the answer depends on the order the rows are walked in
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(chains):
        start = rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 6)
        scale = max(1.0, np.max(np.abs(start)))
        direction = np.exp(2j * np.pi * rng.uniform(size=d))
        steps = rng.choice([0.4e-8, 0.6e-8, 0.9e-8], size=length) * scale
        rows.extend(start + np.cumsum(steps)[:, None] * direction)
    for _ in range(nan_rows):
        nan = rows[rng.integers(len(rows))].copy()
        nan[rng.integers(d)] = np.nan
        rows.append(nan)
    points = np.array(rows)[rng.permutation(len(rows))]
    got = extract._first_copy(points)
    assert got.tolist() == first_copy_reference(points)


def test_first_copy_builds_no_pairwise_array():
    rng = np.random.default_rng(5)
    points = rng.standard_normal((20000, 2)) + 1j * rng.standard_normal((20000, 2))
    points[1::2] = points[::2] * (1 + 1e-12)
    tracemalloc.start()
    try:
        first = extract._first_copy(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(first[1::2], np.arange(0, 20000, 2))
    assert peak < 20 * points.nbytes  # one k x k array of bools alone is 400 MB


def json_reference(sols):
    """The document `serialize_solutions` writes, through ``json.dumps``."""
    entries = [
        {"x": [[float(z.real), float(z.imag)] for z in s.x], "residual": float(s.residual)}
        for s in sorted(sols, key=lambda s: s.residual)
    ]
    return json.dumps({"solutions": entries, "diagnostics": sols.diagnostics}, indent=2) + "\n"


SPECIAL = [0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e300, 0.1, 1 / 3, 2.0**60, -7.0]


@hypothesis.settings(max_examples=100, derandomize=True, deadline=None)
@hypothesis.given(
    values=st.lists(
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False)),
                st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False)),
            ),
            min_size=1,
            max_size=3,
        ),
        max_size=4,
    ),
    residuals=st.lists(st.sampled_from([0.0, 1e-300, 3e-16, 1e-9]), min_size=4, max_size=4),
    extra=st.dictionaries(
        st.text(min_size=1, max_size=5),
        st.one_of(st.integers(), st.booleans(), st.none(), st.text(max_size=5)),
        max_size=3,
    ),
)
def test_serializer_matches_json_dumps(values, residuals, extra):
    sols = [
        Solution([complex(re, im) for re, im in x], res) for x, res in zip(values, residuals)
    ]
    standard = {"resultant_size": 8, "normal_rank": 6, "projected": True, "dropped_eigenpairs": 0}
    diagnostics = {**standard, **{k: v for k, v in sorted(extra.items()) if k not in standard}}
    doc = SolutionSet(sols, diagnostics)
    text = serialize_solutions(doc)
    assert text == json_reference(doc)
    if all(np.all(np.isfinite(s.x)) for s in sols):
        assert serialize_solutions(parse_solutions(text)) == text


@pytest.mark.parametrize(
    "doc",
    [
        SolutionSet([], {}),
        SolutionSet([], {"resultant_size": 4, "zeta": [1, {"a": None}]}),
        SolutionSet([Solution([-0.0, complex(1e-300, -0.0)], 1e-300)], {"abc": "x\ny"}),
    ],
)
def test_serializer_edge_documents(doc):
    assert serialize_solutions(doc) == json_reference(doc)
