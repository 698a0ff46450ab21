"""JSON file formats for problems, solutions, and benchmark data.

A problem document stores a PMEP as dense coefficient lists::

    {
      "format_version": 1,
      "d": 2,
      "basis": "monomial",
      "tau": [2, 2],
      "equations": [{"n": 1, "coeffs": [[re, im], ...]}, ...]
    }

Each equation carries exactly n^2 * prod(tau_k + 1) complex entries encoded
as [re, im] pairs, flattened in colexicographic order over the full index
tuple (i_1, ..., i_d, row, col): the exponent of x_1 varies fastest, the
matrix column slowest.  This is the Fortran-order ravel of the in-memory
coefficient tensor, so files and tensors use one and the same convention.

A solution document stores solver output::

    {
      "solutions": [{"x": [[re, im], ...], "residual": r}, ...],
      "diagnostics": {"resultant_size": ..., "normal_rank": ...,
                      "projected": ..., "dropped_eigenpairs": ...}
    }

with solutions sorted by residual ascending.  ``projected`` is true when the
top-level resultant or that of any nested fallback solve was projected
(documents written before the nested solves counted cover the top-level
resultant alone).  Serialization is canonical:
fixed key order, two-space indent, trailing newline, floats in Python's
shortest round-trip form, so parse-serialize round trips are byte-identical
and identical runs produce identical files.
"""

import itertools
import json
import math

import numpy as np

from .errors import ParseError
from .extract import Solution, SolutionSet
from .mpoly import Basis, MatrixPoly, Pmep

__all__ = [
    "parse_pmep",
    "serialize_pmep",
    "parse_solutions",
    "serialize_solutions",
    "load_flutter_data",
    "flutter_pmep",
    "FLUTTER_MATRIX_NAMES",
]

MAX_ENTRIES_PER_EQUATION = 2**24


def _fail(path, msg):
    raise ParseError(f"{path}: {msg}")


def _require(obj, key, path):
    if not isinstance(obj, dict):
        _fail(path, "expected a JSON object")
    if key not in obj:
        _fail(f"{path}.{key}" if path != "document" else key, "missing")
    return obj[key]


def _as_int(value, path, minimum=None):
    # bool is an int subclass; reject it explicitly.
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}, got {value}")
    return value


def _as_complex(value, path):
    """Decode one [re, im] pair into a finite complex number."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        _fail(path, "expected a [re, im] pair")
    re, im = value
    for part in (re, im):
        if isinstance(part, bool) or not isinstance(part, (int, float)):
            _fail(path, "entries must be real numbers")
    z = complex(float(re), float(im))
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        _fail(path, "entries must be finite")
    return z


def _complex_array(values, path):
    """Decode a list of [re, im] pairs into a complex array.

    Whole-array checks first: every entry a list of two ints or floats, and
    every number finite.  Only when one fails is the list walked entry by
    entry, to name the first bad entry.
    """
    if (
        set(map(type, values)) <= {list}
        and set(map(len, values)) <= {2}
        and set(map(type, itertools.chain.from_iterable(values))) <= {int, float}
    ):
        try:
            parts = np.array(values, dtype=float).reshape(-1, 2)
        except OverflowError:  # an integer beyond float range; the walk names it
            parts = None
        if parts is not None and np.all(np.isfinite(parts)):
            return parts.view(complex).reshape(-1)
    return np.array(
        [_as_complex(entry, f"{path}[{j}]") for j, entry in enumerate(values)],
        dtype=complex,
    )


def _pair(z):
    return [float(z.real), float(z.imag)]


def _loads(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"document: invalid JSON ({exc.msg} at char {exc.pos})") from None


def parse_pmep(text):
    """Parse a problem document into a validated Pmep.

    Raises ParseError naming the offending field on any schema violation,
    non-finite number, or size overflow.
    """
    doc = _loads(text)
    if not isinstance(doc, dict):
        _fail("document", "expected a JSON object")
    version = _as_int(_require(doc, "format_version", "document"), "format_version")
    if version != 1:
        _fail("format_version", f"unsupported version {version}")
    d = _as_int(_require(doc, "d", "document"), "d", minimum=1)
    basis_tag = _require(doc, "basis", "document")
    try:
        basis = Basis(basis_tag)
    except ValueError:
        tags = ", ".join(b.value for b in Basis)
        _fail("basis", f"expected one of {tags}, got {basis_tag!r}")
    tau = _require(doc, "tau", "document")
    if not isinstance(tau, list) or len(tau) != d:
        _fail("tau", f"expected a list of {d} degree bounds")
    tau = tuple(_as_int(t, f"tau[{k}]", minimum=0) for k, t in enumerate(tau))

    equations = _require(doc, "equations", "document")
    if not isinstance(equations, list):
        _fail("equations", "expected a list")
    if len(equations) != d:
        k = min(len(equations), d)
        _fail(f"equations[{k}]" if len(equations) < d else "equations",
              f"expected {d} equations, got {len(equations)}")

    polys = []
    monomials = 1
    for t in tau:
        monomials *= t + 1
    for i, eq in enumerate(equations):
        path = f"equations[{i}]"
        n = _as_int(_require(eq, "n", path), f"{path}.n", minimum=1)
        count = n * n * monomials
        if count > MAX_ENTRIES_PER_EQUATION:
            _fail(f"{path}.n", f"{count} coefficient entries exceed the size limit")
        coeffs = _require(eq, "coeffs", path)
        if not isinstance(coeffs, list):
            _fail(f"{path}.coeffs", "expected a list of [re, im] pairs")
        if len(coeffs) != count:
            _fail(f"{path}.coeffs",
                  f"expected {count} entries (n^2 * prod(tau_k + 1)), got {len(coeffs)}")
        flat = _complex_array(coeffs, f"{path}.coeffs")
        shape = tuple(t + 1 for t in tau) + (n, n)
        polys.append(MatrixPoly(flat.reshape(shape, order="F"), basis, d=d))
    try:
        return Pmep(polys)
    except ValueError as exc:
        raise ParseError(f"document: {exc}") from None


def serialize_pmep(p):
    """Serialize a Pmep to its canonical problem document."""
    equations = []
    for poly in p.polys:
        flat = poly.coeffs.ravel(order="F")
        equations.append({"n": poly.n, "coeffs": [_pair(z) for z in flat]})
    doc = {
        "format_version": 1,
        "d": p.d,
        "basis": p.basis.value,
        "tau": list(p.tau),
        "equations": equations,
    }
    return json.dumps(doc, indent=2) + "\n"


_DIAG_KEYS = (
    "resultant_size",
    "normal_rank",
    "projected",
    "dropped_eigenpairs",
)


def parse_solutions(text):
    """Parse a solution document into a SolutionSet."""
    doc = _loads(text)
    if not isinstance(doc, dict):
        _fail("document", "expected a JSON object")
    entries = _require(doc, "solutions", "document")
    if not isinstance(entries, list):
        _fail("solutions", "expected a list")
    solutions = []
    for i, entry in enumerate(entries):
        path = f"solutions[{i}]"
        coords = _require(entry, "x", path)
        if not isinstance(coords, list) or not coords:
            _fail(f"{path}.x", "expected a nonempty list of [re, im] pairs")
        x = [_as_complex(pair, f"{path}.x[{k}]") for k, pair in enumerate(coords)]
        res = _require(entry, "residual", path)
        if isinstance(res, bool) or not isinstance(res, (int, float)):
            _fail(f"{path}.residual", "expected a number")
        res = float(res)
        if not np.isfinite(res) or res < 0:
            _fail(f"{path}.residual", "must be finite and nonnegative")
        solutions.append(Solution(x, res))
    diagnostics = doc.get("diagnostics", {})
    if not isinstance(diagnostics, dict):
        _fail("diagnostics", "expected a JSON object")
    return SolutionSet(solutions, diagnostics)


def _float(v):
    """A float as ``json.dumps`` writes it."""
    return repr(v) if math.isfinite(v) else json.dumps(v)


def _solution_entry(x, res):
    """One solution object at the indent of the document's solution list."""
    x = np.asarray(x, dtype=complex).reshape(-1)
    pairs = ",\n".join(
        f"        [\n          {_float(re)},\n          {_float(im)}\n        ]"
        for re, im in zip(x.real.tolist(), x.imag.tolist())
    )
    coords = f"[\n{pairs}\n      ]" if pairs else "[]"
    return f'    {{\n      "x": {coords},\n      "residual": {_float(float(res))}\n    }}'


def serialize_solutions(sols):
    """Serialize a SolutionSet to its canonical solution document.

    Solutions are emitted sorted by residual ascending; diagnostics keep the
    standard key order with unknown keys appended alphabetically.  The text
    is written directly, byte for byte what ``json.dumps(doc, indent=2)``
    gives for the same document, plus a trailing newline.
    """
    entries = ",\n".join(
        _solution_entry(s.x, s.residual) for s in sorted(sols, key=lambda s: s.residual)
    )
    diag_in = dict(sols.diagnostics) if isinstance(sols, SolutionSet) else {}
    diagnostics = {}
    for key in _DIAG_KEYS:
        if key in diag_in:
            diagnostics[key] = diag_in.pop(key)
    for key in sorted(diag_in):
        diagnostics[key] = diag_in[key]
    solutions = f"[\n{entries}\n  ]" if entries else "[]"
    diag = json.dumps(diagnostics, indent=2).replace("\n", "\n  ")
    return f'{{\n  "solutions": {solutions},\n  "diagnostics": {diag}\n}}\n'


FLUTTER_MATRIX_NAMES = ("M0", "G0", "G1", "G2", "K0")


def load_flutter_data(text):
    """Parse a flutter benchmark data file into named square matrices.

    The file lists the model matrices entrywise in the complex-pair
    encoding::

        {"format_version": 1, "n": 2,
         "matrices": {"M0": [[[re, im], ...], ...], "G0": ..., "G1": ...,
                      "G2": ..., "K0": ...}}

    Returns a dict mapping each name in FLUTTER_MATRIX_NAMES to an (n, n)
    complex array, rows outermost.
    """
    doc = _loads(text)
    if not isinstance(doc, dict):
        _fail("document", "expected a JSON object")
    version = _as_int(_require(doc, "format_version", "document"), "format_version")
    if version != 1:
        _fail("format_version", f"unsupported version {version}")
    n = _as_int(_require(doc, "n", "document"), "n", minimum=1)
    table = _require(doc, "matrices", "document")
    out = {}
    for name in FLUTTER_MATRIX_NAMES:
        rows = _require(table, name, "matrices")
        path = f"matrices.{name}"
        if not isinstance(rows, list) or len(rows) != n:
            _fail(path, f"expected {n} rows")
        mat = np.zeros((n, n), dtype=complex)
        for r, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != n:
                _fail(f"{path}[{r}]", f"expected {n} entries")
            for c, pair in enumerate(row):
                mat[r, c] = _as_complex(pair, f"{path}[{r}][{c}]")
        out[name] = mat
    return out


def flutter_pmep(mats):
    """Assemble the doubled flutter system from its model matrices.

    The model is ((M0 + G0) + G1*t + G2*t^2 - K0*L) x = 0 in the variables
    (t, L); real solutions are certified by pairing it with its entrywise
    conjugate, whose eigenvector is the conjugate of x.  Returns the
    two-equation Pmep with tau = (2, 1) in the monomial basis.
    """
    mats = {name: np.asarray(mats[name], dtype=complex) for name in FLUTTER_MATRIX_NAMES}
    n = mats["M0"].shape[0]
    for name in FLUTTER_MATRIX_NAMES:
        if mats[name].shape != (n, n):
            raise ValueError(f"matrix {name} is not {n}x{n}")
    coeffs = np.zeros((3, 2, n, n), dtype=complex)
    coeffs[0, 0] = mats["M0"] + mats["G0"]
    coeffs[1, 0] = mats["G1"]
    coeffs[2, 0] = mats["G2"]
    coeffs[0, 1] = -mats["K0"]
    return Pmep([
        MatrixPoly(coeffs, Basis.MONOMIAL, d=2),
        MatrixPoly(coeffs.conj(), Basis.MONOMIAL, d=2),
    ])
