"""Hash the solution document of every benchmark problem.

For each seed, every problem of the `dense`, `structured` and `many_roots`
workloads of `perfbench/problems.py` is written to a problem document and
solved with ``run_cli(["solve", doc, "-o", out] + args)``, the call the
benchmark makes.  One line per document goes to standard output, with the
number of solutions the document holds (``-`` when none was written)::

    workload seed name exit_code count sha256

The package is imported from this tree's `src/`, and BLAS runs on one thread,
as in the benchmark.  To check that a change leaves every document
byte-identical, save the output of the tree before the change and compare
the tree after it against that list (the seeds default to 0 1 2, as in
`tools/root_sets.py`)::

    python3 tools/document_hashes.py > before.txt
    python3 tools/document_hashes.py --against before.txt

With ``--against`` only the documents that differ from the saved list (or
are missing from it) are printed, each with its saved fields and the kind of
change: ``count`` when the exit code or the solution count moved, ``bytes``
when only the hash did.  The exit code is 2 if any count moved, else 1 if
any bytes did, else 0.  A change that rewrites residuals on purpose must
show ``bytes`` lines only.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("dense", "structured", "many_roots")


def _load_problems():
    """`perfbench/problems.py` as a module, without putting perfbench on the path."""
    spec = importlib.util.spec_from_file_location("problems", ROOT / "perfbench" / "problems.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def document_hashes(seeds):
    """Yield (workload, seed, name, exit code, solution count, sha256 of the
    document) per problem."""
    sys.path.insert(0, str(ROOT / "src"))
    from multipolyeig.cli import run_cli

    problems = _load_problems()
    with tempfile.TemporaryDirectory() as work:
        doc, out = os.path.join(work, "problem.json"), os.path.join(work, "solutions.json")
        for seed in seeds:
            for workload in WORKLOADS:
                for prob in problems.workload(workload, seed):
                    Path(doc).write_text(problems.problem_document(prob), encoding="utf-8")
                    if os.path.exists(out):
                        os.remove(out)
                    with contextlib.redirect_stderr(io.StringIO()):
                        code = run_cli(["solve", doc, "-o", out] + prob["args"])
                    text = Path(out).read_bytes() if os.path.exists(out) else b""
                    count = len(json.loads(text)["solutions"]) if text else "-"
                    digest = hashlib.sha256(text).hexdigest()
                    yield workload, seed, prob["name"], code, count, digest


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument(
        "--against", metavar="FILE", type=Path,
        help="saved output to compare with: print only the documents that differ",
    )
    args = parser.parse_args(argv)
    saved = None
    if args.against is not None:
        lines = args.against.read_text(encoding="utf-8").splitlines()
        saved = {tuple(f[:3]): f[3:] for f in map(str.split, lines) if f}
    # before numpy is imported, which reads them once
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    worst = 0
    for row in document_hashes(args.seeds):
        fields = [str(v) for v in row]
        if saved is None:
            print(*fields, flush=True)
            continue
        was = saved.get(tuple(fields[:3]), ["none"])
        if was != fields[3:]:
            moved = was[:2] != fields[3:5]
            worst = max(worst, 2 if moved else 1)
            print(*fields, "count" if moved else "bytes", "saved:", *was, flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
