"""End-to-end and per-layer benchmark of `multipolyeig solve`.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload dense --seed 0 --seconds 20 --trace 0

Closed loop, one client: a single process solves the workload's problems one
at a time through the public CLI entry point
``multipolyeig.cli.run_cli(["solve", doc, "-o", out, ...])``, pass after pass,
while another pass, as long as the longest so far, still fits in
``--seconds`` (at least two passes, or one of each kind when tracing).  The
problems are generated from ``--seed`` by ``problems.py``; the program
receives only their JSON documents.  A fixed
numpy/scipy kernel (``reference.py``) is timed before the first solve of a
pass and after every solve, and each solve's time is also taken relative to
the mean of the kernel times around it, which cancels the host's speed swings.

Every output is checked independently (``check.py``): the first pass's roots
are recomputed with plain numpy and, where closed forms exist, matched
point-wise; every later pass must reproduce the first pass's bytes.  With
``--trace 0`` the last stdout line reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (``tracer.py``) together
with the untraced pass time of the same run.  A human-readable report and the
recorded environment go to stderr; the full record, with spans when tracing,
is written to ``perfbench/out/``.  ``README.md`` maps each layer metric to
the end-to-end metric it should move.
"""

import argparse
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
# one client solving small dense matrices: a second BLAS thread made passes
# slower and noisier on a 2-core machine, so BLAS runs single-threaded
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS reads these once, at load time, so they are set before numpy is imported
for _var in _BLAS_VARS:
    os.environ[_var] = str(BLAS_THREADS)
# the CLI falls back to this variable when --seed is omitted; the benchmark
# measures the library default
os.environ.pop("MULTIPOLYEIG_SEED", None)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from statistics import median  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check  # noqa: E402
import problems  # noqa: E402
import selftest  # noqa: E402
from reference import Reference  # noqa: E402
from tracer import Tracer, median_metrics, pass_metrics  # noqa: E402

SETUP_REPEATS = 5
MIN_PASSES = 2
MIN_TRACED_PASSES = 1


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _import_program():
    """Import the CLI from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import multipolyeig.cli

    if not os.path.abspath(multipolyeig.cli.__file__).startswith(SRC + os.sep):
        _fail(f"imported multipolyeig from {multipolyeig.cli.__file__}, not from {SRC}")
    return multipolyeig.cli.run_cli


def _time_import():
    """Wall time of a fresh interpreter that imports the CLI, as a user's process pays it."""
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import multipolyeig.cli"], env=env, check=True)
    return time.perf_counter() - start


def _write_documents(name, seed, workdir):
    """Generate the workload and write its problem documents."""
    probs = problems.workload(name, seed)
    for k, p in enumerate(probs):
        with open(os.path.join(workdir, f"{k:02d}_{p['name']}.json"), "w", encoding="utf-8") as f:
            f.write(problems.problem_document(p))
    return probs


class Loop:
    """Closed-loop client: solves each problem once per pass and checks the output."""

    def __init__(self, run_cli, probs, workdir, tracer, reference):
        self.run_cli = run_cli
        self.probs = probs
        self.tracer = tracer
        self.reference = reference
        self.reference_s = []  # every reference kernel time of the run
        self.inputs = [os.path.join(workdir, f"{k:02d}_{p['name']}.json") for k, p in enumerate(probs)]
        self.outputs = [path[:-5] + ".out.json" for path in self.inputs]
        self.pass1_bytes = [None] * len(probs)
        self.found = [0] * len(probs)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.passes = 0

    def _call(self, k, traced):
        argv = ["solve", self.inputs[k], "-o", self.outputs[k]] + self.probs[k]["args"]
        label = f"{self.passes}:{self.probs[k]['name']}"
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.outputs[k])  # a solve that writes nothing must not pass on stale bytes
        err = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                if traced:
                    rc = self.tracer.request(label, self.run_cli, argv)
                else:
                    rc = self.run_cli(argv)
        except Exception:  # a crash is a failed operation, not the end of the run
            rc = "a crash"
            err.write(traceback.format_exc(limit=3))
        return time.perf_counter() - start, rc, err.getvalue()

    def _judge(self, k, rc, err):
        """Failure reason of one solve, or None."""
        if rc != 0:
            last = err.strip().splitlines()[-1:] or [""]
            return f"run_cli returned {rc}: {last[0][:300]}"
        try:
            with open(self.outputs[k], "rb") as f:
                got = f.read()
        except OSError as exc:
            return f"no solution document: {exc}"
        if self.pass1_bytes[k] is not None:
            return None if got == self.pass1_bytes[k] else "output differs from pass 1"
        self.pass1_bytes[k] = got
        try:
            found, bad = check.validate(self.probs[k], got.decode("utf-8"))
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed solution document: {exc}"
        self.found[k] = found
        if bad:
            return f"{bad} roots fail the independent residual or closed-form check"
        return None

    def run_pass(self, traced=False):
        """Solve every problem once; returns each problem's solve wall time and
        that time over the mean of the reference kernel times around the solve."""
        if traced:
            self.tracer.install()
        times, rels = [], []
        before = self.reference.time()
        self.reference_s.append(before)
        try:
            for k in range(len(self.probs)):
                dt, rc, err = self._call(k, traced)
                after = self.reference.time()
                self.reference_s.append(after)
                times.append(dt)
                rels.append(dt / (0.5 * (before + after)))
                before = after
                self.attempted += 1
                reason = self._judge(k, rc, err)
                if reason is not None:
                    self.failed += 1
                    self.failures.append(f"pass {self.passes + 1} {self.probs[k]['name']}: {reason}")
        finally:
            if traced:
                self.tracer.uninstall()
        self.passes += 1
        return times, rels

    def roots_kept(self):
        return sum(self.found)


def _setup(args, workdir):
    """Everything before the first timed pass; returns (run_cli, problems, reference, setup_s)."""
    imports = [_time_import() for _ in range(SETUP_REPEATS)]
    run_cli = _import_program()
    gens = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        probs = _write_documents(args.workload, args.seed, workdir)
        gens.append(time.perf_counter() - start)
    # warm-up: one small solve pays the lazy LAPACK and import costs up front
    warm = problems.quadratic_pair("warm_up")
    warm_path = os.path.join(workdir, "warm_up.json")
    start = time.perf_counter()
    with open(warm_path, "w", encoding="utf-8") as f:
        f.write(problems.problem_document(warm))
    with contextlib.redirect_stderr(io.StringIO()):
        rc = run_cli(["solve", warm_path, "-o", warm_path + ".out"])
    reference = Reference()
    reference.time()
    warm_s = time.perf_counter() - start
    if rc != 0:
        _fail(f"warm-up solve exited with {rc}")
    return run_cli, probs, reference, median(imports) + median(gens) + warm_s


def _environment():
    return {
        "nproc": NPROC,
        "blas_threads": BLAS_THREADS,
        "blas_thread_vars": {v: os.environ[v] for v in _BLAS_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "load": "closed loop, one process, one client, one problem at a time",
    }


def pass_time(passes):
    """Time to solve every problem once: the sum over problems of each one's
    median solve time across passes.  A burst of machine noise then spoils one
    sample of one problem rather than a whole pass."""
    return sum(median(col) for col in zip(*passes))


def _another_round(start, rounds, min_rounds, seconds, longest):
    """Whether a further round of passes is needed, or fits in the measuring
    time even if it takes as long as the longest round so far."""
    return rounds < min_rounds or time.perf_counter() - start + longest <= seconds


def _measure_untraced(loop, seconds):
    """Untraced passes; returns (wall times, relative times), one list per pass."""
    times, rels = [], []
    start = time.perf_counter()
    longest = 0.0
    while _another_round(start, len(times), MIN_PASSES, seconds, longest):
        round_start = time.perf_counter()
        t, r = loop.run_pass()
        times.append(t)
        rels.append(r)
        longest = max(longest, time.perf_counter() - round_start)
    return times, rels


def _measure_traced(loop, tracer, seconds):
    """Alternate untraced and traced passes; returns the (wall, relative) times
    of the untraced and of the traced passes, and the traced per-pass metrics."""
    plain, traced, per_pass = ([], []), ([], []), []
    start = time.perf_counter()
    longest = 0.0
    while _another_round(start, len(per_pass), MIN_TRACED_PASSES, seconds, longest):
        round_start = time.perf_counter()
        for out, pass_times in zip(plain, loop.run_pass()):
            out.append(pass_times)
        first = len(tracer.spans)
        for out, pass_times in zip(traced, loop.run_pass(traced=True)):
            out.append(pass_times)
        per_pass.append(pass_metrics(tracer.spans[first:], loop.roots_kept(), sum(traced[0][-1])))
        longest = max(longest, time.perf_counter() - round_start)
    return plain, traced, per_pass


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=problems.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True, help="seed of the generated problems")
    ap.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="0: end-to-end metrics; 1: per-layer metrics of a traced run")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        _fail("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "multipolyeig", "cli.py")):
        _fail(f"no program to measure: {os.path.join(SRC, 'multipolyeig')} is missing")
    outdir = os.path.join(ROOT, "perfbench", "out")
    workroot = os.path.join(ROOT, "perfbench", ".work")
    workdir = os.path.join(workroot, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        run_cli, probs, reference, setup_s = _setup(args, workdir)
        tracer = Tracer()
        loop = Loop(run_cli, probs, workdir, tracer, reference)
        if args.trace:
            plain, traced, per_pass = _measure_traced(loop, tracer, args.seconds)
            metrics = median_metrics(per_pass)
            metrics["trace.pass_s"] = pass_time(traced[0])
            metrics["trace.untraced_pass_s"] = pass_time(plain[0])
            # relative times, so that a swing of the host's speed between the
            # untraced and the traced passes does not pass for tracing cost
            metrics["trace.overhead_ratio"] = pass_time(traced[1]) / pass_time(plain[1])
            metrics["trace.reference_s"] = median(loop.reference_s)
            samples = {"untraced_pass_s": plain[0], "traced_pass_s": traced[0],
                       "untraced_pass_ref": plain[1], "traced_pass_ref": traced[1]}
            wall_pass_s = metrics["trace.untraced_pass_s"]
        else:
            times, rels = _measure_untraced(loop, args.seconds)
            wall_pass_s = pass_time(times)
            metrics = {
                "pass_ref": pass_time(rels),
                "root_recall": loop.roots_kept() / sum(p["expected"] for p in probs),
                "ok_frac": 1.0 - loop.failed / loop.attempted,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "setup_s": setup_s,
            }
            samples = {"pass_s": times, "pass_ref": rels}
        harness = selftest.run_all(args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(workroot)  # only when no other run is using it

    units = _declared_units(args.trace)
    if set(metrics) != set(units):
        _fail(f"measured metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    metrics = {name: metrics[name] for name in units}
    correct = loop.failed == 0 and not harness
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(),
        "passes": loop.passes,
        "pass_s": wall_pass_s,
        "reference_s": loop.reference_s,
        "samples": samples,
        "problems": [
            {"name": p["name"], "expected": p["expected"], "found": f, "args": p["args"]}
            for p, f in zip(probs, loop.found)
        ],
        "failures": loop.failures,
        "harness_failures": harness,
        "metrics": metrics,
    }
    if args.trace:
        record["spans"] = tracer.dump()
    os.makedirs(outdir, exist_ok=True)
    out_path = os.path.join(outdir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(record, f)

    _report(record, units, out_path)
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _report(record, units, out_path):
    env = record["environment"]
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
        f"passes {record['passes']}  wall pass_s {record['pass_s']:.4g} s  "
        f"reference kernel median {median(record['reference_s']):.4g} s",
        f"environment: nproc {env['nproc']}, BLAS threads {env['blas_threads']}, "
        f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}",
    ]
    for name, value in record["metrics"].items():
        lines.append(f"  {name:42s} {value:>14.6g} {units[name]}")
    for p in record["problems"]:
        lines.append(f"  {p['name']:26s} {p['found']:5d} / {p['expected']:<5d} roots")
    lines += [f"  FAILED {f}" for f in record["failures"] + record["harness_failures"]]
    lines.append(f"record written to {out_path}")
    print("\n".join(lines), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
