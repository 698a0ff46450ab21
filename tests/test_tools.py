"""Tests for the scripts under tools/."""

import importlib.util
import json
from pathlib import Path

import numpy as np

import systems
from multipolyeig.mpoly import MatrixPoly, Pmep

ROOT = Path(__file__).resolve().parents[1]


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_document_hashes_tells_count_changes_from_byte_changes(tmp_path, capsys, monkeypatch):
    tool = load_tool("document_hashes")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # main sets them; restore them afterwards
    saved = tmp_path / "before.txt"
    saved.write_text(
        "dense 0 same 0 8 aaa\n"
        "dense 0 bytes 0 8 bbb\n"
        "dense 0 count 0 8 ccc\n"
        "dense 0 failed 0 8 ddd\n",
        encoding="utf-8",
    )
    rows = [
        ("dense", 0, "same", 0, 8, "aaa"),
        ("dense", 0, "bytes", 0, 8, "xxx"),
        ("dense", 0, "count", 0, 7, "yyy"),
        ("dense", 0, "failed", 1, "-", "zzz"),
    ]
    monkeypatch.setattr(tool, "document_hashes", lambda seeds: iter(rows))
    assert tool.main(["--against", str(saved)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "dense 0 bytes 0 8 xxx bytes saved: 0 8 bbb",
        "dense 0 count 0 7 yyy count saved: 0 8 ccc",
        "dense 0 failed 1 - zzz count saved: 0 8 ddd",
    ]
    monkeypatch.setattr(tool, "document_hashes", lambda seeds: iter(rows[:2]))
    assert tool.main(["--against", str(saved)]) == 1
    capsys.readouterr()
    monkeypatch.setattr(tool, "document_hashes", lambda seeds: iter(rows[:1]))
    assert tool.main(["--against", str(saved)]) == 0
    assert capsys.readouterr().out == ""


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
    lines = []
    for key, _, _, theirs in cases:
        pairs = [[[z.real, z.imag] for z in x] for x in np.asarray(theirs, dtype=complex).tolist()]
        lines.append(json.dumps({"problem": key, "points": pairs}) + "\n")
    saved = tmp_path / "before.jsonl"
    saved.write_text("".join(lines), encoding="utf-8")

    def problems(chosen):
        return lambda seeds: (
            (key, p, lambda mine=mine: np.asarray(mine, dtype=complex))
            for key, p, mine, _ in chosen
        )

    monkeypatch.setattr(tool, "problems", problems(cases))
    assert tool.main(["--against", str(saved)]) == 1
    out = [line.split()[:3] for line in capsys.readouterr().out.splitlines()]
    assert out == [
        ["regular", "only-this", "regular"],
        ["curve", "only-this", "singular"],
        ["curve", "only-saved", "singular"],
    ] + [["double", side, "near-copy"] for side in ("only-this",) * 2 + ("only-saved",) * 2]
    monkeypatch.setattr(tool, "problems", problems(cases[1:]))
    assert tool.main(["--against", str(saved)]) == 0
