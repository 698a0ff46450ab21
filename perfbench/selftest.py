"""Self-tests of the benchmark harness; `run.py` runs them at the end of every run.

Standalone: ``python3 perfbench/selftest.py`` (from the root of a checkout)
prints each failure and exits 1 if there is any.
"""

import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check  # noqa: E402
import problems  # noqa: E402
from tracer import ROOT, TARGETS, Tracer, self_times  # noqa: E402


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def span_accounting():
    """Self times of nested (and recursive) spans sum to the root span's wall time."""
    tr = Tracer()

    def leaf():
        _busy(0.002)

    def rec(depth):
        _busy(0.001)
        if depth:
            tr.span("rec", rec, depth - 1)
        tr.span("leaf", leaf)

    start = time.perf_counter()
    tr.request("selftest", tr.span, "rec", rec, 3)
    wall = time.perf_counter() - start
    selfs = self_times(tr.spans)
    root = next(s for s in tr.spans if s[2] == ROOT)
    fails = []
    if abs(sum(selfs.values()) - (root[4] - root[3])) > 1e-9:
        fails.append("span self times do not sum to the root span")
    if min(selfs.values()) < 0:
        fails.append("a span has negative self time")
    if not 0 <= wall - (root[4] - root[3]) < 1e-3:
        fails.append("root span does not cover the traced call")
    if sorted(s[2] for s in tr.spans) != sorted([ROOT] + ["rec"] * 4 + ["leaf"] * 4):
        fails.append("nested spans were not all recorded")
    return fails


def residual_flags_perturbed_root():
    """The independent recheck accepts a closed-form root and flags it once perturbed."""
    fails = []
    for basis in (problems.MONOMIAL, problems.CHEBYSHEV1):
        p = problems.quadratic_pair("selftest", basis)
        exact = np.array(p["roots"][0])
        bent = exact + np.array([1e-6, 0])
        if check.residual(p, exact) > 1e-12:
            fails.append(f"closed-form root has residual {check.residual(p, exact):.2e} ({basis})")
        if check.residual(p, bent) <= check.RESIDUAL_TOL:
            fails.append(f"perturbed root passes the residual recheck ({basis})")
        doc = json.dumps({"solutions": [
            {"x": [[z.real, z.imag] for z in x], "residual": 0.0} for x in (exact, bent)
        ]})
        if check.validate(p, doc) != (1, 1):
            fails.append(f"validate does not count the perturbed root as bad ({basis})")
    return fails


def tracer_restores_originals():
    """After uninstall every traced name is bound to its original function again."""
    import importlib

    def bound():
        out = {}
        for name, (modname, attr) in TARGETS.items():
            obj = importlib.import_module(modname)
            for part in attr.split("."):
                obj = getattr(obj, part)
            out[name] = obj
        return out

    before = bound()
    tr = Tracer()
    tr.install()
    during = bound()
    tr.uninstall()
    after = bound()
    fails = [f"{n} not wrapped while tracing" for n in before if during[n] is before[n]]
    fails += [f"{n} not restored after tracing" for n in before if after[n] is not before[n]]
    return fails


def same_seed_same_documents(seed):
    """Problem generation is a pure function of (workload, seed)."""
    fails = []
    for name in problems.WORKLOADS:
        a = [problems.problem_document(p) for p in problems.workload(name, seed)]
        b = [problems.problem_document(p) for p in problems.workload(name, seed)]
        if a != b:
            fails.append(f"workload {name}: seed {seed} gave different documents")
    return fails


def run_all(seed=0):
    """All self-tests; returns the list of failures (empty when all pass)."""
    return (span_accounting() + residual_flags_perturbed_root()
            + tracer_restores_originals() + same_seed_same_documents(seed))


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    failures = run_all()
    for f in failures:
        print(f"FAILED {f}")
    print(f"selftest: {len(failures)} failures")
    sys.exit(1 if failures else 0)
