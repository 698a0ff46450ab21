"""Span tracing of the solver's layers, installed from outside the package.

`Tracer.install()` replaces each public function that a module of
`multipolyeig` exposes to `solver`/`cli` with a wrapper that records a span
(name, start, end, parent, request) and a few sizes taken from the call's
arguments and result.  The replacement happens in every module namespace that
binds the function, so calls between modules, nested `solve` calls and the
methods `Pmep.change_of_variables` / `MatrixPoly.partial_eval` are all seen.
`uninstall()` puts the originals back, so untraced passes in the same
process run the unmodified code.

Spans are kept in memory as tuples and written out at the end of the run.
A layer's self time is its span's duration minus its children's durations;
because the solver is single-threaded the children never overlap, so the
self times of one request sum exactly to its root span.
"""

import importlib
import sys
import time
from collections import defaultdict
from statistics import median

# span name -> (module that defines it, attribute); methods name their class
TARGETS = {
    "io.parse_pmep": ("multipolyeig.io", "parse_pmep"),
    "io.serialize_solutions": ("multipolyeig.io", "serialize_solutions"),
    "mpoly.change_of_variables": ("multipolyeig.mpoly", "Pmep.change_of_variables"),
    "mpoly.partial_eval": ("multipolyeig.mpoly", "MatrixPoly.partial_eval"),
    "dixon.build_resultant": ("multipolyeig.dixon", "build_resultant"),
    "pep.solve_pep": ("multipolyeig.pep", "solve_pep"),
    "pep.normal_rank": ("multipolyeig.pep", "normal_rank"),
    "pep.project_singular": ("multipolyeig.pep", "project_singular"),
    "extract.residual": ("multipolyeig.extract", "residual"),
    "extract.filter_solutions": ("multipolyeig.extract", "filter_solutions"),
    "extract.vandermonde_ratios": ("multipolyeig.extract", "vandermonde_ratios"),
    "extract.generic_nullspace_basis": ("multipolyeig.extract", "generic_nullspace_basis"),
    "opdet.solve_linear_mep": ("multipolyeig.opdet", "solve_linear_mep"),
    "solver.solve": ("multipolyeig.solver", "solve"),
}
ROOT = "cli.run_cli"


def _sizes(name, args, result):
    """(size, count) a span records; None where the call raised.

    size is the resultant side, pencil side, candidate count or dropped
    eigenpairs, depending on the layer; count is the length of the result.
    """
    if result is None:
        return None, None
    count = len(result) if isinstance(result, list) or hasattr(result, "solutions") else None
    return _size_of(name, args, result), count


def _size_of(name, args, result):
    if name == "dixon.build_resultant":
        return result.size
    if name == "pep.solve_pep":
        return args[0].m * args[0].size
    if name == "extract.filter_solutions":
        return len(args[0])
    if name == "opdet.solve_linear_mep":
        return len(result)
    if name == "solver.solve":
        return result.diagnostics.get("dropped_eigenpairs", 0)
    return None


class Tracer:
    """In-memory span recorder; one instance per benchmark run."""

    def __init__(self):
        # (id, parent id or -1, name, start, end, request, size, result count)
        self.spans = []
        self._stack = []
        self._request = None
        self._saved = []

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, start, end, self._request,
                               *_sizes(name, args, result))

    def request(self, label, fn, *args):
        """Run one request (one run_cli call) as a root span labelled `label`."""
        self._request = label
        try:
            return self.span(ROOT, fn, *args)
        finally:
            self._request = None

    def _wrapper(self, name, original):
        def traced(*args, **kwargs):
            return self.span(name, original, *args, **kwargs)

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "multipolyeig" or key.startswith("multipolyeig.")]
        for name, (modname, attr) in TARGETS.items():
            owner = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrapper(name, original))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrapper(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved = []

    def dump(self):
        """Spans as a JSON-ready dict of columns."""
        cols = ("id", "parent", "name", "start", "end", "request", "size", "count")
        return {"columns": list(cols), "spans": [list(s) for s in self.spans]}


def self_times(spans):
    """Self time of every span: duration minus the durations of its children."""
    child = defaultdict(float)
    for s in spans:
        if s[1] >= 0:
            child[s[1]] += s[4] - s[3]
    return {s[0]: (s[4] - s[3]) - child[s[0]] for s in spans}


def _top_level_solves(spans):
    """Ids of the `solver.solve` spans that no other `solver.solve` span encloses."""
    by_id = {s[0]: s for s in spans}
    out = set()
    for s in spans:
        if s[2] != "solver.solve":
            continue
        p = s[1]
        while p >= 0 and by_id[p][2] != "solver.solve":
            p = by_id[p][1]
        if p < 0:
            out.add(s[0])
    return out


def pass_metrics(spans, roots_kept, pass_s):
    """Per-layer metrics of one traced pass.

    `spans` are the spans of that pass only, `roots_kept` is the number of
    roots in the pass's output documents and `pass_s` its measured wall time.
    """
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for s in spans:
        calls[s[2]] += 1
        self_s[s[2]] += selfs[s[0]]
    sizes = defaultdict(list)
    for s in spans:
        if s[6] is not None:
            sizes[s[2]].append(s[6])

    # the first completed solve_pep (or linear fast path) directly under each
    # top-level solve is its main eigen-solve; later ones are reductions
    top_solves = _top_level_solves(spans)
    eigpairs = 0
    seen = set()
    dropped = 0
    for s in spans:
        if s[0] in top_solves:
            dropped += s[6] or 0
        if (s[1] in top_solves and s[1] not in seen and s[7] is not None
                and s[2] in ("pep.solve_pep", "opdet.solve_linear_mep")):
            seen.add(s[1])
            eigpairs += s[7]

    out = {}
    for name in TARGETS:
        out[f"{name}.self_s"] = self_s[name]
    out[f"{ROOT}.self_s"] = self_s[ROOT]
    for name in ("mpoly.change_of_variables", "mpoly.partial_eval", "dixon.build_resultant",
                 "pep.solve_pep", "pep.project_singular", "extract.residual",
                 "extract.vandermonde_ratios", "opdet.solve_linear_mep", "solver.solve"):
        out[f"{name}.calls"] = calls[name]
    out["dixon.resultant_size_max"] = max(sizes["dixon.build_resultant"], default=0)
    out["pep.pencil_side_max"] = max(sizes["pep.solve_pep"], default=0)
    out["pep.pencil_work"] = sum(float(n) ** 3 for n in sizes["pep.solve_pep"])
    out["pep.eigpairs_finite"] = eigpairs
    out["extract.filter_solutions.candidates"] = sum(sizes["extract.filter_solutions"])
    out["extract.residual_yield"] = roots_kept / max(1, calls["extract.residual"])
    out["solver.dropped_eigenpairs"] = dropped
    out["solver.eigpair_yield"] = roots_kept / max(1, eigpairs)
    out["trace.self_coverage"] = sum(selfs.values()) / pass_s
    return out


def median_metrics(per_pass):
    """Median of each metric over passes."""
    return {k: median(p[k] for p in per_pass) for k in per_pass[0]}
