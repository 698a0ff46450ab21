"""The benchmark harness's own self-test passes against this checkout, and so
does the benchmark's correctness gate.

`perfbench/tracer.py` binds package functions by name; a package change that
breaks one of those bindings fails here instead of only at benchmark time.
The benchmark also rejects a run whose solution documents miss roots or hold
a root that fails its independent recheck (`perfbench/check.py`); the same
check runs here on seed 0 of the `dense` and `structured` workloads, and a
traced pass of `structured` reads the sizes the per-layer metrics take from
the package's arguments and results.  Every resultant of those two workloads
but that of `rank_deficient_pair` certifies itself regular at a shift, so no
other problem probes its normal rank.
"""

import importlib.util
import sys
import time
from pathlib import Path

from multipolyeig import solver
from multipolyeig.cli import run_cli
from multipolyeig.mpoly import MatrixPoly, Pmep

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_harness_selftest_passes():
    selftest = _load("selftest")
    assert selftest.run_all(0) == []


def test_workloads_pass_correctness_gate(tmp_path, capsys):
    problems, check = _load("problems"), _load("check")
    for workload in ("dense", "structured"):
        for k, problem in enumerate(problems.workload(workload, 0)):
            name = f"{workload}/{problem['name']}"
            path = tmp_path / f"{workload}_{k:02d}.json"
            out = tmp_path / f"{workload}_{k:02d}.out.json"
            path.write_text(problems.problem_document(problem), encoding="utf-8")
            argv = ["solve", str(path), "-o", str(out)] + problem["args"]
            assert run_cli(argv) == 0, name
            found, bad = check.validate(problem, out.read_text(encoding="utf-8"))
            assert (found, bad) == (problem["expected"], 0), name
    capsys.readouterr()


def test_no_dense_or_structured_problem_probes_the_rank(monkeypatch):
    problems = _load("problems")
    probed = []
    normal_rank = solver.normal_rank

    def counted(*args, **kwargs):
        probed.append(name)
        return normal_rank(*args, **kwargs)

    monkeypatch.setattr(solver, "normal_rank", counted)
    for workload in ("dense", "structured"):
        for problem in problems.workload(workload, 0):
            name = problem["name"]
            assert problem["args"] == []
            solver.solve(Pmep([MatrixPoly(c, problem["basis"]) for c in problem["coeffs"]]))
    assert probed == []


def _bindings():
    """Every name bound in a module of the package, and every class attribute."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "multipolyeig" or modname.startswith("multipolyeig."):
            for key, value in vars(mod).items():
                out[modname, key] = value
                if isinstance(value, type):
                    out.update(((modname, key, a), v) for a, v in vars(value).items())
    return out


def test_traced_pass_reads_layer_sizes(tmp_path, capsys):
    problems, tracer = _load("problems"), _load("tracer")
    before = _bindings()
    tr = tracer.Tracer()
    tr.install()
    try:
        start = time.perf_counter()
        for k, problem in enumerate(problems.workload("structured", 0)):
            path = tmp_path / f"{k:02d}.json"
            path.write_text(problems.problem_document(problem), encoding="utf-8")
            argv = ["solve", str(path), "-o", str(tmp_path / f"{k:02d}.out.json")]
            assert tr.request(problem["name"], run_cli, argv + problem["args"]) == 0
        pass_s = time.perf_counter() - start
    finally:
        tr.uninstall()
    after = _bindings()
    capsys.readouterr()
    metrics = tracer.pass_metrics(tr.spans, 1, pass_s)
    assert metrics["pep.pencil_side_max"] > 0
    assert metrics["dixon.build_resultant.calls"] > 0
    assert [key for key in before if after.get(key) is not before[key]] == []
