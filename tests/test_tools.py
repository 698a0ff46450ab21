"""Tests for the scripts under tools/."""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np

import systems
from multipolyeig import serialize_pmep, serialize_solutions, solve
from multipolyeig.mpoly import MatrixPoly, Pmep

ROOT = Path(__file__).resolve().parents[1]


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def planted(key, exit=0, count=8, sha256="aaa", points=()):
    """A line of `root_sets.py` output with the given fields."""
    pairs = [[[z.real, z.imag] for z in x] for x in np.asarray(points, dtype=complex).tolist()]
    return {"problem": key, "exit": exit, "count": count, "sha256": sha256, "points": pairs}


def against(tool, tmp_path, monkeypatch, mine, theirs):
    """`root_sets.py --against` with this tree's (row, problem document)
    pairs ``mine`` and the saved rows ``theirs``; returns the exit code."""
    saved = tmp_path / "before.jsonl"
    saved.write_text("".join(json.dumps(row) + "\n" for row in theirs), encoding="utf-8")
    monkeypatch.setattr(tool, "solved", lambda seeds: iter(mine))
    return tool.main(["--against", str(saved)])


def test_root_sets_ranks_every_document_change(tmp_path, capsys, monkeypatch):
    tool = load_tool("root_sets")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # main sets them; restore them afterwards
    roots = np.array(systems.quadratic_pair_solutions())
    pair = serialize_pmep(systems.quadratic_pair_system())
    theirs = [
        planted("same"),
        planted("bytes", sha256="bbb"),
        planted("count", sha256="ccc"),
        planted("failed", sha256="ddd"),
        planted("saved-only", sha256="eee"),
        planted("lost", count=7, sha256="fff", points=roots[1:]),
    ]
    mine = [
        (planted("same"), ""),
        (planted("bytes", sha256="xxx"), ""),
        (planted("count", count=7, sha256="yyy"), ""),
        (planted("failed", exit=1, count="-", sha256="zzz"), ""),
        (planted("tree-only", sha256="ggg"), ""),
        (planted("lost", sha256="hhh", points=roots), pair),
    ]
    assert against(tool, tmp_path, monkeypatch, mine, theirs) == 3
    out = capsys.readouterr().out.splitlines()
    assert out[:5] == [
        "bytes 0 8 xxx bytes saved: 0 8 bbb",
        "count 0 7 yyy count saved: 0 8 ccc",
        "failed 1 - zzz count saved: 0 8 ddd",
        "tree-only 0 8 ggg count saved: none",
        "lost 0 8 hhh count saved: 0 7 fff",
    ]
    assert out[5].split()[:3] == ["lost", "only-this", "regular"]
    assert out[6:] == ["saved-only none count saved: 0 8 eee"]
    # each rung of the ladder on its own
    for rows, saved, code in [
        (mine[:3], theirs[:3], 2),
        (mine[4:5], [], 2),
        ([], theirs[4:5], 2),
        (mine[:2], theirs[:2], 1),
        (mine[:1], theirs[:1], 0),
    ]:
        assert against(tool, tmp_path, monkeypatch, rows, saved) == code
    assert capsys.readouterr().out.splitlines() == [
        "bytes 0 8 xxx bytes saved: 0 8 bbb",
        "count 0 7 yyy count saved: 0 8 ccc",
        "tree-only 0 8 ggg count saved: none",
        "saved-only none count saved: 0 8 eee",
        "bytes 0 8 xxx bytes saved: 0 8 bbb",
    ]


def test_root_sets_records_what_solve_returns(capsys, monkeypatch):
    tool = load_tool("root_sets")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # main sets them; restore them afterwards
    p = systems.quadratic_pair_system()
    text = serialize_pmep(p)
    chosen = [("pair default", text, []), ("pair 1", text, ["--hide", "1"])]
    monkeypatch.setattr(tool, "problems", lambda seeds: iter(chosen))
    assert tool.main([]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["problem"] for row in rows] == ["pair default", "pair 1"]
    for row, hide in zip(rows, (None, 1)):
        sols = solve(p, hide_variable=hide)
        digest = hashlib.sha256(serialize_solutions(sols).encode("utf-8")).hexdigest()
        assert (row["exit"], row["count"], row["sha256"]) == (0, len(sols), digest)
        assert np.array_equal(tool._points(row["points"], p.d), sols.points())


def tangent_pair():
    """P_1 = x_1^2 - x_2 and P_2 = x_2: a double root at the origin."""
    c1 = np.zeros((3, 2, 1, 1), dtype=complex)
    c1[2, 0], c1[0, 1] = 1, -1
    c2 = np.zeros((3, 2, 1, 1), dtype=complex)
    c2[0, 1] = 1
    return Pmep([MatrixPoly(c1), MatrixPoly(c2)])


def test_root_sets_labels_every_point_one_side_lacks(tmp_path, capsys, monkeypatch):
    tool = load_tool("root_sets")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # main sets them; restore them afterwards
    roots = np.array(systems.quadratic_pair_solutions())
    # (key, system, this side's points, the saved side's points)
    cases = [
        # one simple root of eight is missing from the saved side
        ("regular", systems.quadratic_pair_system(), roots, roots[1:]),
        # two different points of the curve x_1 = 0, x_2 = 1 + 2 x_3
        ("curve", systems.shared_factor_system(), [[0, 1.6, 0.3]], [[0, 2.0, 0.5]]),
        # two copies of a double root per side, closer than sqrt(residual_tol)
        ("double", tangent_pair(), [[1e-6, 0], [-1e-6, 0]], [[3e-6, 0], [-3e-6, 0]]),
    ]
    mine = [
        (planted(key, count=len(pts), sha256="this", points=pts), serialize_pmep(p))
        for key, p, pts, _ in cases
    ]
    theirs = [planted(key, count=len(pts), sha256="saved", points=pts) for key, _, _, pts in cases]
    assert against(tool, tmp_path, monkeypatch, mine, theirs) == 3
    out = [line.split()[:3] for line in capsys.readouterr().out.splitlines()]
    assert out == [
        ["regular", "0", "8"],
        ["regular", "only-this", "regular"],
        ["curve", "0", "1"],
        ["curve", "only-this", "singular"],
        ["curve", "only-saved", "singular"],
        ["double", "0", "2"],
    ] + [["double", side, "near-copy"] for side in ("only-this",) * 2 + ("only-saved",) * 2]
    assert against(tool, tmp_path, monkeypatch, mine[1:], theirs[1:]) == 1
