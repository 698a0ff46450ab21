"""List the statements of the package that no Tier-1 test runs.

Runs the Tier-1 suite in-process (``pytest.main``) under a line tracer
(``sys.settrace`` and ``threading.settrace``) that records only frames whose
code lives in ``src/multipolyeig/``, then prints every executable statement
that never ran, one per line::

    module:line: source

followed by the count of unreached statements per module.  A statement is
found with `ast`; it is executable when one of its own lines (the header of
a compound statement, a decorator included) carries bytecode, and it ran
when a line event hit one of them.  Docstrings are not statements here.
The package is imported from this tree's `src/`.  Extra arguments go to
pytest, for example a test file to trace alone::

    python3 tools/unreached_lines.py tests/test_io.py

Tracing makes the suite run about 1.7 times as long.  The exit code is
pytest's.
"""

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "multipolyeig"


def _recorder(prefix):
    """(global trace function, hits): hits maps a file name to its traced lines."""
    hits = defaultdict(set)
    wanted = {}  # code object -> whether it is the package's

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        code = frame.f_code
        if code not in wanted:
            # frames at interpreter shutdown can have no file name
            name = code.co_filename
            wanted[code] = name is not None and name.startswith(prefix)
        return local if wanted[code] else None

    return trace, hits


def _code_lines(code):
    """Every line that carries bytecode in code and the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _own_lines(node):
    """The lines of a statement that belong to it and not to a nested one."""
    first = min([node.lineno] + [dec.lineno for dec in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
        return range(first, body[0].lineno)
    return range(first, node.end_lineno + 1)


def _is_docstring(node, parent):
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def unreached(path, hit_lines):
    """(line, source) of every executable statement of the file at path whose
    own lines no line event hit."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    code_lines = _code_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    out = []
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if not isinstance(node, ast.stmt) or _is_docstring(node, parent):
                continue
            own = set(_own_lines(node))
            if own & code_lines and not own & hit_lines:
                out.append((node.lineno, text[node.lineno - 1].strip()))
    return sorted(out)


def main(argv=None):
    import pytest

    argv = sys.argv[1:] if argv is None else argv
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    trace, hits = _recorder(str(PACKAGE) + os.sep)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"] + argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = f"multipolyeig.{path.stem}".removesuffix(".__init__")
        missed = unreached(path, hits.get(str(path), set()))
        for line, text in missed:
            print(f"{module}:{line}: {text}")
        counts[module] = len(missed)
    print()
    for module, count in counts.items():
        print(f"{count:5d}  {module}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
