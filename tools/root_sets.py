"""Save the roots the solver returns on a fixed set of problems, and tell
which roots two trees disagree on.

The problems are the 400 draws of `tests/systems.py::sparse_random_pmep`
(seed 20261018), waveguide rows of `tests/systems.py::waveguide_system`, and
every problem of the `dense`, `structured` and `many_roots` workloads of
`perfbench/problems.py` at the given seeds, solved with
``run_cli(["solve", doc, "-o", out] + args)`` as in the benchmark.  Without
``--against``, one JSON line per problem goes to standard output::

    {"problem": "sweep 17", "points": [[[re, im], ...], ...]}

The package is imported from this tree's `src/`, and BLAS runs on one thread,
as in the benchmark.  To check that a change loses no regular root, save the
output of the tree before the change and compare the tree after it::

    python3 tools/root_sets.py > before.jsonl
    python3 tools/root_sets.py --against before.jsonl

With ``--against`` every point that only one side has (no point of the other
side within the relative distance at which `filter_solutions` merges two
points) is printed as ``problem only-this|only-saved label sigma=... x``,
with the relative Jacobian sigma below and one of three labels:

* ``singular``: the relative smallest singular value of the Jacobian of
  (det P_1, ..., det P_d) at the point is at most 1e-8, so the point lies on
  a curve of roots or is a multiple root;
* ``near-copy``: one of several copies of one root.  A point of backward
  error at most residual_tol (`extract.RESIDUAL_TOL`, 1e-8) near an
  m-fold root can lie residual_tol^(1/m) away from it (the Puiseux
  expansion of the perturbed root), so m copies lie pairwise within
  2 residual_tol^(1/m), and their mean, in which the leading terms of the
  expansion cancel, is a root itself.  A point is labeled so when, for some
  m >= 2, its m - 1 nearest other points of its own set lie that close and
  the mean of the m points has residual at most residual_tol.  The radius
  nears 1 as m grows; the mean's residual keeps distinct roots of crowded
  or symmetric sets apart;
* ``regular``: neither, so the other side lost a root.

The exit code is 1 if any regular point is missing from either side, else 0.
"""

import argparse
import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("dense", "structured", "many_roots")
SWEEP_SEED, SWEEP_DRAWS = 20261018, 400
# (model, n, hide): "k" is the k model and "u" the u = k^2 model; hide None
# is the default choice.  The k model with its default hide at n = 24 takes
# half a minute, so it is left out.
WAVEGUIDE_ROWS = (
    ("k", 8, None), ("k", 12, None),
    ("k", 8, 1), ("k", 12, 1), ("k", 16, 1), ("k", 24, 1), ("k", 48, 1),
    ("u", 40, None), ("u", 48, None), ("u", 48, 2), ("u", 64, None), ("u", 96, None),
)
SINGULAR_TOL = 1e-8
MERGE_TOL = 1e-8  # the relative distance at which `filter_solutions` merges points


def _load(path, name):
    """A file of this tree as a module, without putting its folder on the path."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def problems(seeds):
    """Yield (key, Pmep, solve) per problem; solve() returns the points as a
    (k, d) array."""
    import numpy as np

    sys.path.insert(0, str(ROOT / "src"))
    from multipolyeig import parse_pmep, parse_solutions, solve
    from multipolyeig.cli import run_cli

    systems = _load(ROOT / "tests" / "systems.py", "systems")
    rng = np.random.default_rng(SWEEP_SEED)
    for draw in range(SWEEP_DRAWS):
        p = systems.sparse_random_pmep(rng)
        yield f"sweep {draw}", p, lambda p=p: solve(p).points()
    for model, n, hide in WAVEGUIDE_ROWS:
        p = systems.waveguide_system(n, even=model == "u")
        key = f"waveguide {model} {n} {'default' if hide is None else hide}"
        yield key, p, lambda p=p, hide=hide: solve(p, hide_variable=hide).points()

    bench = _load(ROOT / "perfbench" / "problems.py", "problems")
    with tempfile.TemporaryDirectory() as work:
        doc, out = os.path.join(work, "problem.json"), os.path.join(work, "solutions.json")

        def solve_cli(d, args):
            if os.path.exists(out):
                os.remove(out)
            with contextlib.redirect_stderr(io.StringIO()):
                run_cli(["solve", doc, "-o", out] + args)
            if not os.path.exists(out):
                return np.zeros((0, d), dtype=complex)
            return parse_solutions(Path(out).read_text(encoding="utf-8")).points()

        for seed in seeds:
            for workload in WORKLOADS:
                for prob in bench.workload(workload, seed):
                    text = bench.problem_document(prob)
                    Path(doc).write_text(text, encoding="utf-8")
                    p = parse_pmep(text)
                    key = f"{workload} {seed} {prob['name']}"
                    yield key, p, lambda d=p.d, args=prob["args"]: solve_cli(d, args)


def _rel_dist(a, b):
    """Relative distance max|a - b| / max(1, |a|_inf, |b|_inf) between every
    point of a and every point of b, as `filter_solutions` measures it."""
    import numpy as np

    scale = np.maximum(np.max(np.abs(a), axis=1)[:, None], np.max(np.abs(b), axis=1)[None, :])
    return np.max(np.abs(a[:, None] - b[None, :]), axis=2) / np.maximum(1.0, scale)


def jacobian_sigma(p, x):
    """Relative smallest singular value of the Jacobian of (det P_i)_i at x.

    Where P_i(x) has a one-dimensional kernel, spanned by v on the right and
    u on the left, the gradient of det P_i is a nonzero multiple of the row
    u^H (d P_i / d x_j) v.  Each row is divided by P_i's largest coefficient
    norm, as the residual gate scales it, and column j is multiplied by
    max(1, |x_j|), so that the value measures relative perturbations of x.
    It returns 0 when some P_i(x) has a second singular value at most
    SINGULAR_TOL times that norm: there the determinant's gradient vanishes.
    """
    import numpy as np

    rows = []
    for poly in p.polys:
        jet = poly.eval_many(np.asarray(x, dtype=complex)[None], jet=True)[0]
        scale = poly.max_coeff_norm()
        u, sigma, vh = np.linalg.svd(jet[0])
        if len(sigma) > 1 and sigma[-2] <= SINGULAR_TOL * scale:
            return 0.0
        rows.append(np.conj(u[:, -1]) @ jet[1:] @ np.conj(vh[-1]) / scale)
    jac = np.array(rows) * np.maximum(1.0, np.abs(x))[None, :]
    sv = np.linalg.svd(jac, compute_uv=False)
    return float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0


def one_sided(p, mine, theirs):
    """Yield (point, label, relative Jacobian sigma) for every point of mine
    that has no point of theirs within MERGE_TOL."""
    import numpy as np
    from multipolyeig.extract import RESIDUAL_TOL, residual

    tol = RESIDUAL_TOL
    if len(mine) == 0:
        return
    if len(theirs):
        alone = np.min(_rel_dist(mine, theirs), axis=1) > MERGE_TOL
    else:
        alone = np.ones(len(mine), dtype=bool)
    dist = _rel_dist(mine, mine)
    m = np.arange(2, len(mine) + 1)
    radius = 2 * tol ** (1 / m)
    for k in np.flatnonzero(alone):
        sigma = jacobian_sigma(p, mine[k])
        order = np.argsort(dist[k])  # the point itself first
        near = dist[k][order[1:]] <= radius
        means = np.cumsum(mine[order], axis=0)[1:][near] / m[near][:, None]
        if sigma <= SINGULAR_TOL:
            label = "singular"
        elif len(means) and np.min(residual(p, means)) <= tol:
            label = "near-copy"
        else:
            label = "regular"
        yield mine[k], label, sigma


def _points(entries, d):
    import numpy as np

    return np.array([[complex(*c) for c in x] for x in entries], dtype=complex).reshape(-1, d)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument(
        "--against", metavar="FILE", type=Path,
        help="saved output to compare with: print the points that only one side has",
    )
    args = parser.parse_args(argv)
    saved = None
    if args.against is not None:
        lines = args.against.read_text(encoding="utf-8").splitlines()
        saved = {row["problem"]: row["points"] for row in map(json.loads, lines) if row}
    # before numpy is imported (each function imports it), which reads them once
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    lost = 0
    for key, p, solve in problems(args.seeds):
        points = solve()
        if saved is None:
            pairs = [[[z.real, z.imag] for z in x] for x in points.tolist()]
            print(json.dumps({"problem": key, "points": pairs}), flush=True)
            continue
        if key not in saved:
            print(key, "not in saved", flush=True)
            continue
        theirs = _points(saved[key], p.d)
        for side, mine, other in (("this", points, theirs), ("saved", theirs, points)):
            for x, label, sigma in one_sided(p, mine, other):
                lost += label == "regular"
                coords = " ".join(f"{z.real:.6g}{z.imag:+.6g}j" for z in x)
                print(key, f"only-{side}", label, f"sigma={sigma:.2e}", coords, flush=True)
    return 1 if lost else 0


if __name__ == "__main__":
    sys.exit(main())
