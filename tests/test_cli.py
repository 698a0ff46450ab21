"""Tests for the command line interface."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import multipolyeig
from multipolyeig import cli
from multipolyeig.cli import run_cli
from multipolyeig.io import parse_solutions, serialize_pmep, serialize_solutions
from multipolyeig.solver import solve

import systems
from multipolyeig.mpoly import Basis
from systems import (
    mixed_rank_deficient_pair_system,
    quadratic_pair_solutions,
    quadratic_pair_system,
)
from test_opdet import random_linear_mep

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(serialize_pmep(quadratic_pair_system()), encoding="utf-8")
    return str(path)


@pytest.fixture
def seeded_file(tmp_path):
    """A singular system with no zero row or column in its resultant: only
    a random projection, from a generator of fixed seed, solves it."""
    path = tmp_path / "seeded.json"
    path.write_text(serialize_pmep(mixed_rank_deficient_pair_system()), encoding="utf-8")
    return str(path)


class TestSolveCommand:
    def test_writes_solution_document_to_stdout(self, problem_file, capsys):
        assert run_cli(["solve", problem_file]) == 0
        cap = capsys.readouterr()
        doc = json.loads(cap.out)
        assert len(doc["solutions"]) == 8
        # the plain solve keeps all 8 roots, so the degrees stay tau = (2, 2)
        assert doc["diagnostics"]["resultant_size"] == 8
        assert "solve: 8 solutions" in cap.err
        assert "resultant size 8" in cap.err

    def test_output_file_keeps_stdout_clean(self, seeded_file, tmp_path, capsys):
        out = tmp_path / "solutions.json"
        assert run_cli(["solve", seeded_file, "-o", str(out)]) == 0
        cap = capsys.readouterr()
        assert cap.out == ""
        assert len(json.loads(out.read_text())["solutions"]) == 2

    def test_matches_library_call(self, problem_file, capsys):
        run_cli(["solve", problem_file])
        cli_text = capsys.readouterr().out
        assert cli_text == serialize_solutions(solve(quadratic_pair_system()))

    def test_byte_determinism(self, problem_file, seeded_file, capsys):
        for path in (problem_file, seeded_file):
            run_cli(["solve", path])
            first = capsys.readouterr().out
            run_cli(["solve", path])
            assert capsys.readouterr().out == first

    def test_solve_takes_no_seed(self, seeded_file, capsys, monkeypatch):
        # the projection's generator is fixed: --seed is a usage error, and
        # MULTIPOLYEIG_SEED, which once stood in for it, is not read
        assert run_cli(["solve", seeded_file, "--seed", "1"]) == 2
        assert "--seed" in capsys.readouterr().err
        monkeypatch.delenv("MULTIPOLYEIG_SEED", raising=False)
        assert run_cli(["solve", seeded_file]) == 0
        plain = capsys.readouterr().out
        for value in ("7", "twelve"):
            monkeypatch.setenv("MULTIPOLYEIG_SEED", value)
            assert run_cli(["solve", seeded_file]) == 0
            assert capsys.readouterr().out == plain

    def test_solve_takes_no_basis_or_rank_tolerance(self, seeded_file, tmp_path, capsys):
        # a solve works in the document's own basis at the one rank
        # tolerance pep.RANK_TOL: either flag is a usage error, and no
        # document is written
        out = tmp_path / "solutions.json"
        for flag, value in (("--basis", "chebyshev1"), ("--rank-tol", "1e-9")):
            assert run_cli(["solve", seeded_file, "-o", str(out), flag, value]) == 2
            assert flag in capsys.readouterr().err
            assert not out.exists()

    def test_no_rotate_and_hide_flags(self, problem_file, capsys):
        assert run_cli(["solve", problem_file, "--no-rotate", "--hide", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        # hiding the quadratic x keeps all 8 solutions reachable
        assert len(doc["solutions"]) == 8

    def test_no_rotate_is_accepted_and_ignored(self, seeded_file, capsys):
        assert run_cli(["solve", seeded_file]) == 0
        plain = capsys.readouterr().out
        assert run_cli(["solve", seeded_file, "--no-rotate"]) == 0
        assert capsys.readouterr().out == plain
        assert run_cli(["solve", "--help"]) == 0
        assert "--no-rotate" not in capsys.readouterr().out

    def test_rotation_free_solutions_match_truth(self, problem_file, capsys):
        run_cli(["solve", problem_file, "--no-rotate"])
        doc = json.loads(capsys.readouterr().out)
        got = [np.array([complex(*z) for z in entry["x"]]) for entry in doc["solutions"]]
        want = quadratic_pair_solutions()
        assert len(got) == len(want)
        # point-wise: roundoff in the imaginary parts may reorder a sort
        for x in want:
            hits = [k for k, y in enumerate(got) if np.allclose(y, x, atol=1e-8)]
            assert hits, f"no solution matches the true root {x}"
            got.pop(hits[0])

    def test_tolerance_flag_accepted(self, problem_file, capsys):
        assert run_cli(["solve", problem_file, "--residual-tol", "1e-6"]) == 0
        assert len(json.loads(capsys.readouterr().out)["solutions"]) == 8


    def test_reused_parser_leaks_nothing(self, seeded_file, capsys):
        # later calls in one process reuse the first call's parser; a flag of
        # one call must not carry over to the next
        flag_sets = [["--hide", "1"], [], ["--residual-tol", "1e-6"]]

        def call(flags):
            rc = run_cli(["solve", seeded_file, *flags])
            cap = capsys.readouterr()
            return rc, cap.out, cap.err

        cli._build_parser.cache_clear()
        reused = [call(flags) for flags in flag_sets]
        assert cli._build_parser.cache_info().misses == 1
        assert reused[0][1] != reused[1][1]
        for flags, got in zip(flag_sets, reused):
            cli._build_parser.cache_clear()
            assert call(flags) == got


class TestVerifyCommand:
    def solved_file(self, problem_file, tmp_path):
        out = tmp_path / "solutions.json"
        run_cli(["solve", problem_file, "-o", str(out)])
        return out

    def test_accepts_true_solutions(self, problem_file, tmp_path, capsys):
        out = self.solved_file(problem_file, tmp_path)
        assert run_cli(["verify", problem_file, str(out)]) == 0
        cap = capsys.readouterr()
        lines = [line for line in cap.out.splitlines() if line.strip()]
        assert len(lines) == 8 and all(line.endswith("ok") for line in lines)
        assert "0 over tolerance" in cap.err

    def test_flags_perturbed_solutions(self, problem_file, tmp_path, capsys):
        out = self.solved_file(problem_file, tmp_path)
        sols = parse_solutions(out.read_text())
        for s in sols:
            s.x = s.x + 1e-3
        out.write_text(serialize_solutions(sols), encoding="utf-8")
        assert run_cli(["verify", problem_file, str(out)]) == 1
        cap = capsys.readouterr()
        assert "FAIL" in cap.out
        assert "8 over tolerance" in cap.err

    def test_loose_tolerance_passes_perturbed(self, problem_file, tmp_path, capsys):
        out = self.solved_file(problem_file, tmp_path)
        sols = parse_solutions(out.read_text())
        for s in sols:
            s.x = s.x + 1e-9
        out.write_text(serialize_solutions(sols), encoding="utf-8")
        assert run_cli(["verify", problem_file, str(out), "--residual-tol", "1e-4"]) == 0
        capsys.readouterr()

    def test_empty_document(self, problem_file, tmp_path, capsys):
        out = tmp_path / "solutions.json"
        out.write_text('{"solutions": []}\n', encoding="utf-8")
        assert run_cli(["verify", problem_file, str(out)]) == 0
        cap = capsys.readouterr()
        assert cap.out == ""
        assert "verify: 0 points, 0 over tolerance" in cap.err

    def test_one_residual_call(self, problem_file, tmp_path, capsys, monkeypatch):
        out = self.solved_file(problem_file, tmp_path)
        calls = []
        original = cli.residual

        def counted(p, x):
            calls.append(np.shape(x))
            return original(p, x)

        monkeypatch.setattr(cli, "residual", counted)
        assert run_cli(["verify", problem_file, str(out)]) == 0
        assert calls == [(8, 2)]
        capsys.readouterr()

    def test_dimension_mismatch(self, problem_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"solutions": [{"x": [[1, 0]], "residual": 0.0}]}')
        assert run_cli(["verify", problem_file, str(bad)]) == 1
        assert "coordinates" in capsys.readouterr().err


# the solver gates on max_i ||P_i(x) v_i|| / (||v_i|| scale_i) of its refined
# triplets, `verify` recomputes max_i sigma_min(P_i(x)) / scale_i; the first
# bounds the second, so every solution the solver keeps must verify
SOUND_SYSTEMS = {  # name: (system, its root count)
    "quadratic_pair": (quadratic_pair_system, 8),
    "quadratic_pair_cheb": (lambda: quadratic_pair_system(Basis.CHEBYSHEV1), 8),
    "decoupled": (lambda: systems.decoupled_system(np.random.default_rng(5), 3, 1)[0], 9),
    "rank_deficient_pair": (systems.rank_deficient_pair_system, 2),
    "dense": (lambda: systems.random_pmep(np.random.default_rng(7), (3, 3), (2, 2)), 72),
    "linear_mep": (lambda: random_linear_mep(np.random.default_rng(8), (3, 4)), 12),
}


@pytest.mark.parametrize("name", sorted(SOUND_SYSTEMS))
def test_solutions_verify(name, tmp_path, capsys):
    system, count = SOUND_SYSTEMS[name]
    problem, out = tmp_path / "problem.json", tmp_path / "solutions.json"
    problem.write_text(serialize_pmep(system()), encoding="utf-8")
    assert run_cli(["solve", str(problem), "-o", str(out)]) == 0
    assert len(parse_solutions(out.read_text())) == count
    assert run_cli(["verify", str(problem), str(out)]) == 0
    assert f"verify: {count} points, 0 over tolerance" in capsys.readouterr().err


class TestOracleCommand:
    def test_roots_agree_with_solver(self, problem_file, capsys):
        assert run_cli(["oracle", problem_file, "--starts", "150"]) == 0
        cap = capsys.readouterr()
        doc = json.loads(cap.out)
        assert "oracle:" in cap.err
        diag = doc["diagnostics"]
        assert diag["resultant_size"] == 0 and diag["normal_rank"] == 0
        assert diag["projected"] is False and "rotation_seed" not in diag
        assert diag["starts"] == 150
        roots = [np.array([complex(*pair) for pair in entry["x"]])
                 for entry in doc["solutions"]]
        assert roots
        truth = quadratic_pair_solutions()
        for r in roots:
            assert min(np.linalg.norm(r - t) for t in truth) < 1e-6

    def test_deterministic_given_seed(self, problem_file, capsys):
        run_cli(["oracle", problem_file, "--starts", "40", "--seed", "1"])
        first = capsys.readouterr().out
        run_cli(["oracle", problem_file, "--starts", "40", "--seed", "1"])
        assert capsys.readouterr().out == first


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run_cli([]) == 2
        capsys.readouterr()

    def test_unknown_command_is_usage_error(self, capsys):
        assert run_cli(["frobnicate"]) == 2
        capsys.readouterr()

    def test_bad_flag_value_is_usage_error(self, problem_file, capsys):
        assert run_cli(["solve", problem_file, "--hide", "abc"]) == 2
        assert run_cli(["oracle", problem_file, "--seed", "abc"]) == 2
        capsys.readouterr()

    def test_hide_out_of_range_is_solver_error(self, problem_file, tmp_path, capsys):
        # d = 2: the hidden variable is 1 or 2, and either end of the range is
        # rejected before anything is written
        out = tmp_path / "solutions.json"
        for hide in ("0", "3"):
            assert run_cli(["solve", problem_file, "--hide", hide, "-o", str(out)]) == 1
            cap = capsys.readouterr()
            assert cap.out == ""
            assert "hide_variable" in cap.err
            assert not out.exists()

    def test_non_finite_tolerance_or_negative_seed_is_solver_error(
        self, problem_file, tmp_path, capsys
    ):
        # NaN used to pass every "<= 0" check: a NaN residual tolerance gave
        # 0 solutions with exit 0
        out = tmp_path / "solutions.json"
        assert run_cli(["solve", problem_file, "-o", str(out)]) == 0
        capsys.readouterr()
        for argv, name in [
            (["solve", problem_file, "--residual-tol", "nan"], "residual_tol"),
            (["oracle", problem_file, "--seed", "-1"], "seed"),
            (["verify", problem_file, str(out), "--residual-tol", "nan"], "residual_tol"),
        ]:
            assert run_cli(argv) == 1, argv
            cap = capsys.readouterr()
            assert cap.out == ""
            assert name in cap.err, argv

    def test_retired_read_knobs_are_usage_errors(self, problem_file, capsys):
        for flag, value in (("--nullspace-tol", "1e-12"), ("--keep-fraction", "0.5")):
            assert run_cli(["solve", problem_file, flag, value]) == 2
            assert flag in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "solve" in capsys.readouterr().out

    def test_missing_file_is_solver_error(self, tmp_path, capsys):
        assert run_cli(["solve", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_integer_beyond_float_range_in_problem_is_parse_error(self, problem_file, capsys):
        # float(10**400) raises OverflowError, which run_cli does not catch
        doc = json.loads(Path(problem_file).read_text())
        doc["equations"][0]["coeffs"][1][0] = 10**400
        Path(problem_file).write_text(json.dumps(doc))
        assert run_cli(["solve", problem_file]) == 1
        assert "equations[0].coeffs[1]:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry, path",
        [
            ({"x": [[1, 0], [0, -10**400]], "residual": 0.0}, "solutions[0].x[1]"),
            ({"x": [[1, 0], [0, 1]], "residual": 10**400}, "solutions[0].residual"),
        ],
        ids=["x", "residual"],
    )
    def test_integer_beyond_float_range_in_solutions_is_parse_error(
        self, problem_file, tmp_path, capsys, entry, path
    ):
        sols = tmp_path / "solutions.json"
        sols.write_text(json.dumps({"solutions": [entry]}))
        assert run_cli(["verify", problem_file, str(sols)]) == 1
        assert f"{path}:" in capsys.readouterr().err

    def test_malformed_document_is_solver_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert run_cli(["solve", str(path)]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_unsolvable_system_is_solver_error(self, tmp_path, capsys):
        doc = {
            "format_version": 1,
            "d": 2,
            "basis": "monomial",
            "tau": [1, 0],
            "equations": [
                {"n": 1, "coeffs": [[1.0, 0.0], [2.0, 0.0]]},
                {"n": 1, "coeffs": [[3.0, 0.0], [4.0, 0.0]]},
            ],
        }
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["solve", str(path)]) == 1
        capsys.readouterr()

    def test_console_script_entry_point(self, problem_file):
        # the child imports the same package as this process
        root = os.path.dirname(os.path.dirname(multipolyeig.__file__))
        path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "multipolyeig.cli", "solve", problem_file],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert len(json.loads(proc.stdout)["solutions"]) == 8


def test_solve_runs_without_scipy(problem_file, tmp_path):
    # scipy is a test dependency only: neither importing the CLI nor a
    # solve may load it, since its import would dominate a short run
    root = os.path.dirname(os.path.dirname(multipolyeig.__file__))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    out = tmp_path / "solutions.json"
    script = (
        "import sys\n"
        "from multipolyeig.cli import run_cli\n"
        f"assert run_cli(['solve', {problem_file!r}, '-o', {str(out)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert len(json.loads(out.read_text())["solutions"]) == 8


def solve_synopsis_flags(text):
    """Flags of the ``multipolyeig solve`` synopsis in a usage text."""
    lines = [line.strip() for line in text.splitlines()]
    start = next(i for i, line in enumerate(lines) if line.startswith("multipolyeig solve "))
    block = [lines[start]]
    for line in lines[start + 1 :]:
        if not line.startswith("["):
            break
        block.append(line)
    return set(re.findall(r"\[(--?[\w-]+)", " ".join(block)))


def test_solve_synopses_match_the_parser(capsys):
    assert run_cli(["solve", "--help"]) == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    flags = set(re.findall(r"\[(--?[\w-]+)", usage)) - {"-h"}
    assert flags == {"-o", "--hide", "--residual-tol"}
    assert solve_synopsis_flags(cli.__doc__) == flags
    assert solve_synopsis_flags(README.read_text(encoding="utf-8")) == flags
