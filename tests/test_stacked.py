"""Stacked calls agree with their one-item forms.

The eigenvector read, the dedup and the solution document each handle every
eigenpair or candidate in one array call; these properties pin them to the
one-vector call, the greedy loop and ``json.dumps`` they replace.  The
polynomial evaluation at a batch of points is pinned, to the bit, to its
one-point call.
"""

import json

import numpy as np
import pytest

from multipolyeig import extract
from multipolyeig.dixon import DixonShape
from multipolyeig.errors import ExtractionFailureError
from multipolyeig.extract import (
    ExtractionConfig,
    Solution,
    SolutionSet,
    filter_solutions,
    vandermonde_ratios,
)
from multipolyeig.io import parse_solutions, serialize_solutions
from multipolyeig.mpoly import Basis, MatrixPoly

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
    keep_fraction=st.sampled_from([0.25, 0.5, 1.0]),
    coords=st.sampled_from([None, (0,), (1,)]),
)
def test_stacked_ratios_match_one_vector_calls(
    seed, which, rows, zero_fraction, masked, keep_fraction, coords
):
    shape = SHAPES[which]
    if coords is not None and coords[0] >= shape.d - 1:
        coords = None
    rng = np.random.default_rng(seed)
    size = shape.resultant_size
    vecs = rng.standard_normal((rows, size)) + 1j * rng.standard_normal((rows, size))
    vecs[rng.uniform(size=(rows, size)) < zero_fraction] = 0.0
    mask = rng.uniform(size=size) < 0.7 if masked else None
    got = vandermonde_ratios(vecs, shape, mask, keep_fraction, coords)
    assert got.shape == (rows, shape.d - 1)
    for vec, row in zip(vecs, got):
        try:
            want = vandermonde_ratios(vec, shape, mask, keep_fraction, coords)
        except ExtractionFailureError:
            assert np.all(np.isnan(row))
            continue
        assert np.array_equal(np.isnan(row), np.isnan(want))
        ok = ~np.isnan(want)
        assert np.allclose(row[ok], want[ok], rtol=1e-13, atol=0.0)


def test_one_vector_still_raises():
    shape = SHAPES[0]
    vec = np.zeros(shape.resultant_size, dtype=complex)
    vec[shape.N :] = 1.0  # zero divisor block
    with pytest.raises(ExtractionFailureError):
        vandermonde_ratios(vec, shape)
    assert np.all(np.isnan(vandermonde_ratios(vec[None], shape)))


@hypothesis.settings(max_examples=200, derandomize=True, deadline=None)
@hypothesis.given(
    seed=st.integers(0, 2**32 - 1),
    tau=st.lists(st.integers(0, 3), min_size=1, max_size=3),
    n=st.integers(1, 3),
    batch=st.integers(1, 6),
    basis=st.sampled_from(list(Basis)),
)
def test_jet_rows_do_not_depend_on_the_batch(seed, tau, n, batch, basis):
    rng = np.random.default_rng(seed)
    shape = tuple(t + 1 for t in tau) + (n, n)
    p = MatrixPoly(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), basis)
    pts = rng.standard_normal((batch, len(tau))) + 1j * rng.standard_normal((batch, len(tau)))
    jet = p.eval_many(pts, jet=True)
    for i in range(batch):
        assert np.array_equal(jet[i], p.eval_many(pts[i : i + 1], jet=True)[0])
    assert np.array_equal(jet[:, 0], p.eval_many(pts))


def greedy_filter(cands, cfg):
    """The one-candidate-at-a-time dedup loop that `filter_solutions` batches."""
    kept = [s for s in cands if s.residual <= cfg.residual_tol]
    kept.sort(key=lambda s: s.residual)
    unique = []
    for sol in kept:
        norm = float(np.max(np.abs(sol.x)))
        if any(
            np.max(np.abs(u.x - sol.x)) <= 1e-8 * max(1.0, norm, float(np.max(np.abs(u.x))))
            for u in unique
        ):
            continue
        unique.append(sol)
    return unique


@pytest.mark.parametrize("block_entries", [1, 7, 1 << 16])
@hypothesis.settings(max_examples=60, derandomize=True, deadline=None)
@hypothesis.given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(0, 40),
    d=st.integers(1, 3),
)
def test_dedup_matches_greedy_loop(block_entries, seed, count, d):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((4, d)) * 10.0 ** rng.integers(-2, 4, size=(4, 1))
    cands = []
    for _ in range(count):
        # copies at, just inside and just outside the tolerance of a center,
        # with residuals from a short list, so ties are common
        c = centers[rng.integers(len(centers))]
        scale = max(1.0, np.max(np.abs(c)))
        step = rng.choice([0.0, 3e-9, 9e-9, 1.1e-8, 2e-8]) * scale
        x = c + step * np.exp(2j * np.pi * rng.uniform(size=d))
        cands.append(Solution(x, rng.choice([1e-15, 1e-12, 1e-12, 1e-9, 1.0])))
    cfg = ExtractionConfig()
    want = greedy_filter(cands, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(extract, "_DEDUP_BLOCK_ENTRIES", block_entries)
        got = filter_solutions(cands, cfg)
    assert [id(s) for s in got] == [id(s) for s in want]


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
