"""Tests for the scripts under tools/."""

import importlib.util
from pathlib import Path

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
