"""Tests for the JSON problem and solution formats."""

import json
import re

import numpy as np
import pytest

from multipolyeig.errors import ParseError
from multipolyeig.extract import Solution, SolutionSet, residual
from multipolyeig.io import parse_pmep, parse_solutions, serialize_pmep, serialize_solutions
from multipolyeig.mpoly import Basis, MatrixPoly, Pmep
from multipolyeig.solver import solve

from systems import quadratic_pair_system, random_pmep


def pairs(values):
    return [[float(np.real(z)), float(np.imag(z))] for z in values]


def scalar_system_doc():
    """d=2 scalar system with distinct entries in every coefficient slot."""
    return {
        "format_version": 1,
        "d": 2,
        "basis": "monomial",
        "tau": [1, 1],
        "equations": [
            {"n": 1, "coeffs": pairs([1, 2, 3, 4])},
            {"n": 1, "coeffs": pairs([5, 6, 7, 8])},
        ],
    }


def mutated(doc, keys, value):
    """doc with the entry at keys (object keys and list indices) set to
    value; value itself when keys is empty."""
    if not keys:
        return value
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return doc


class TestParsePmep:
    def test_colex_coefficient_order(self):
        # flat order (i1, i2) = (0,0), (1,0), (0,1), (1,1): x1 exponent fastest
        p = parse_pmep(json.dumps(scalar_system_doc()))
        c = p.polys[0].coeffs[..., 0, 0]
        assert c[0, 0] == 1 and c[1, 0] == 2 and c[0, 1] == 3 and c[1, 1] == 4
        assert p.polys[0].eval([10, 100]) == pytest.approx(1 + 2 * 10 + 3 * 100 + 4 * 1000)

    def test_matrix_entry_order(self):
        # after the exponent axes come matrix row (faster) then column
        doc = {
            "format_version": 1,
            "d": 1,
            "basis": "monomial",
            "tau": [0],
            "equations": [{"n": 2, "coeffs": pairs([1, 2, 3, 4])}],
        }
        p = parse_pmep(json.dumps(doc))
        assert np.array_equal(p.polys[0].coeffs[0], [[1, 3], [2, 4]])

    def test_complex_pairs_and_basis(self):
        doc = scalar_system_doc()
        doc["basis"] = "chebyshev1"
        doc["equations"][0]["coeffs"][2] = [0.5, -2.5]
        p = parse_pmep(json.dumps(doc))
        assert p.basis == Basis.CHEBYSHEV1
        assert p.polys[0].coeffs[0, 1, 0, 0] == 0.5 - 2.5j

    def test_rejects_non_object_document(self):
        with pytest.raises(ParseError, match="document"):
            parse_pmep("[1, 2, 3]")

    def test_rejects_invalid_json(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_pmep("{not json")

    @pytest.mark.parametrize("key", ["format_version", "d", "basis", "tau", "equations"])
    def test_missing_top_level_field(self, key):
        doc = scalar_system_doc()
        del doc[key]
        with pytest.raises(ParseError, match=key):
            parse_pmep(json.dumps(doc))

    def test_unsupported_version(self):
        doc = scalar_system_doc()
        doc["format_version"] = 7
        with pytest.raises(ParseError, match="format_version"):
            parse_pmep(json.dumps(doc))

    def test_unknown_basis(self):
        doc = scalar_system_doc()
        doc["basis"] = "legendre"
        with pytest.raises(ParseError, match="basis"):
            parse_pmep(json.dumps(doc))

    def test_tau_length_mismatch(self):
        doc = scalar_system_doc()
        doc["tau"] = [1]
        with pytest.raises(ParseError, match="tau"):
            parse_pmep(json.dumps(doc))

    def test_negative_degree(self):
        doc = scalar_system_doc()
        doc["tau"] = [1, -1]
        with pytest.raises(ParseError, match=r"tau\[1\]"):
            parse_pmep(json.dumps(doc))

    def test_missing_equation_names_index(self):
        doc = scalar_system_doc()
        doc["equations"] = doc["equations"][:1]
        with pytest.raises(ParseError, match=r"equations\[1\]"):
            parse_pmep(json.dumps(doc))

    def test_extra_equation_rejected(self):
        doc = scalar_system_doc()
        doc["equations"].append({"n": 1, "coeffs": pairs([1, 1, 1, 1])})
        with pytest.raises(ParseError, match="equations"):
            parse_pmep(json.dumps(doc))

    def test_wrong_entry_count_names_equation(self):
        doc = scalar_system_doc()
        doc["equations"][1]["coeffs"] = pairs([5, 6, 7])
        with pytest.raises(ParseError, match=r"equations\[1\].coeffs"):
            parse_pmep(json.dumps(doc))

    def test_nan_entry_names_exact_path(self):
        doc = scalar_system_doc()
        text = json.dumps(doc).replace("3.0, 0.0", "NaN, 0.0")
        with pytest.raises(ParseError, match=r"equations\[0\].coeffs\[2\]"):
            parse_pmep(text)

    def test_infinite_entry_rejected(self):
        doc = scalar_system_doc()
        text = json.dumps(doc).replace("6.0, 0.0", "6.0, -Infinity")
        with pytest.raises(ParseError, match=r"equations\[1\].coeffs\[1\]"):
            parse_pmep(text)

    def test_malformed_pair(self):
        doc = scalar_system_doc()
        doc["equations"][0]["coeffs"][0] = [1.0]
        with pytest.raises(ParseError, match=r"equations\[0\].coeffs\[0\]"):
            parse_pmep(json.dumps(doc))

    def test_non_numeric_pair_entry(self):
        doc = scalar_system_doc()
        doc["equations"][0]["coeffs"][1] = ["1", 0.0]
        with pytest.raises(ParseError, match=r"equations\[0\].coeffs\[1\]"):
            parse_pmep(json.dumps(doc))

    def test_boolean_is_not_a_number(self):
        doc = scalar_system_doc()
        doc["equations"][0]["n"] = True
        with pytest.raises(ParseError, match=r"equations\[0\].n"):
            parse_pmep(json.dumps(doc))

    def test_size_overflow(self):
        doc = scalar_system_doc()
        doc["equations"][0]["n"] = 5000
        doc["equations"][0]["coeffs"] = []
        with pytest.raises(ParseError, match="size limit"):
            parse_pmep(json.dumps(doc))

    @pytest.mark.parametrize(
        "keys, value, path",
        [
            (("equations", 1), [], "equations[1]"),
            (("equations",), {}, "equations"),
            (("equations", 0, "coeffs"), "1", "equations[0].coeffs"),
        ],
        ids=["equation_not_object", "equations_not_list", "coeffs_not_list"],
    )
    def test_wrong_type_names_its_path(self, keys, value, path):
        doc = scalar_system_doc()
        mutated(doc, keys, value)
        with pytest.raises(ParseError, match=f"^{re.escape(path)}: expected"):
            parse_pmep(json.dumps(doc))

    def test_truncated_documents_never_crash(self):
        text = serialize_pmep(quadratic_pair_system())
        for cut in range(0, len(text) - 1, 7):
            with pytest.raises(ParseError):
                parse_pmep(text[:cut])

    def test_fuzzed_single_deletions_error_or_parse(self):
        rng = np.random.default_rng(5)
        text = json.dumps(scalar_system_doc())
        for pos in rng.integers(0, len(text), size=200):
            mutated = text[:pos] + text[pos + 1 :]
            try:
                parse_pmep(mutated)
            except ParseError:
                pass  # any other exception type fails the test


class TestPmepRoundTrip:
    def test_reference_system_round_trips_byte_identical(self):
        canonical = serialize_pmep(quadratic_pair_system())
        assert serialize_pmep(parse_pmep(canonical)) == canonical

    def test_parse_preserves_values_exactly(self):
        p = quadratic_pair_system()
        q = parse_pmep(serialize_pmep(p))
        assert q.d == p.d and q.tau == p.tau and q.basis == p.basis
        for a, b in zip(p.polys, q.polys):
            assert np.array_equal(a.coeffs, b.coeffs)

    def test_noncanonical_layout_parses_to_same_canonical_form(self):
        p = quadratic_pair_system()
        doc = json.loads(serialize_pmep(p))
        shuffled = {k: doc[k] for k in ["tau", "equations", "basis", "d", "format_version"]}
        text = json.dumps(shuffled, separators=(",", ":"))
        assert serialize_pmep(parse_pmep(text)) == serialize_pmep(p)

    def test_random_systems_round_trip(self):
        rng = np.random.default_rng(11)
        for sizes, tau in [((2, 3), (2, 1)), ((1, 2, 1), (1, 1, 2))]:
            for basis in Basis:
                p = random_pmep(rng, sizes, tau, basis=basis)
                text = serialize_pmep(p)
                q = parse_pmep(text)
                assert serialize_pmep(q) == text
                for a, b in zip(p.polys, q.polys):
                    assert np.array_equal(a.coeffs, b.coeffs)

    def test_negative_zero_survives(self):
        p = Pmep([MatrixPoly(np.array([[[[-0.0 + 0j]]], [[[1.0]]]])),
                  MatrixPoly(np.ones((2, 1, 1, 1), dtype=complex))])
        text = serialize_pmep(p)
        assert serialize_pmep(parse_pmep(text)) == text


class TestSolutionDocuments:
    def sample_set(self):
        sols = [
            Solution([1.0 + 2.0j, -0.5j], 1e-12),
            Solution([0.25, 0.75], 3e-15),
        ]
        diag = {
            "resultant_size": 8,
            "normal_rank": 8,
            "projected": False,
            "dropped_eigenpairs": 0,
        }
        return SolutionSet(sols, diag)

    def test_serialize_sorts_by_residual(self):
        doc = json.loads(serialize_solutions(self.sample_set()))
        residuals = [entry["residual"] for entry in doc["solutions"]]
        assert residuals == sorted(residuals)
        assert doc["solutions"][0]["x"] == [[0.25, 0.0], [0.75, 0.0]]

    def test_round_trip_byte_identical(self):
        text = serialize_solutions(self.sample_set())
        assert serialize_solutions(parse_solutions(text)) == text

    def test_diagnostics_preserved(self):
        out = parse_solutions(serialize_solutions(self.sample_set()))
        assert out.diagnostics == self.sample_set().diagnostics
        assert out.diagnostics["projected"] is False

    def test_unknown_diagnostic_keys_append_sorted(self):
        s = self.sample_set()
        s.diagnostics["zeta"] = 1
        s.diagnostics["abc"] = 2
        keys = list(json.loads(serialize_solutions(s))["diagnostics"])
        assert keys[:4] == [
            "resultant_size",
            "normal_rank",
            "projected",
            "dropped_eigenpairs",
        ]
        assert keys[4:] == ["abc", "zeta"]

    def test_missing_diagnostics_defaults_empty(self):
        out = parse_solutions('{"solutions": []}')
        assert len(out) == 0 and out.diagnostics == {}

    @pytest.mark.parametrize(
        "keys, value, path",
        [
            ((), [], "document"),
            (("solutions",), {}, "solutions"),
            (("solutions", 0), 3, "solutions[0]"),
            (("solutions", 0, "residual"), "0", "solutions[0].residual"),
            (("diagnostics",), [], "diagnostics"),
        ],
        ids=[
            "document_not_object",
            "solutions_not_list",
            "solution_not_object",
            "residual_not_number",
            "diagnostics_not_object",
        ],
    )
    def test_wrong_type_names_its_path(self, keys, value, path):
        doc = mutated(json.loads(serialize_solutions(self.sample_set())), keys, value)
        with pytest.raises(ParseError, match=f"^{re.escape(path)}: expected"):
            parse_solutions(json.dumps(doc))

    def test_negative_residual_rejected(self):
        text = '{"solutions": [{"x": [[1, 0]], "residual": -1e-9}]}'
        with pytest.raises(ParseError, match=r"solutions\[0\].residual"):
            parse_solutions(text)

    def test_missing_coordinates_rejected(self):
        text = '{"solutions": [{"x": [], "residual": 0.0}]}'
        with pytest.raises(ParseError, match=r"solutions\[0\].x"):
            parse_solutions(text)

    def test_bad_pair_names_coordinate(self):
        text = '{"solutions": [{"x": [[1, 0], [1]], "residual": 0.0}]}'
        with pytest.raises(ParseError, match=r"solutions\[0\].x\[1\]"):
            parse_solutions(text)

    def test_solver_output_round_trips_and_verifies(self):
        p = quadratic_pair_system()
        out = solve(p)
        text = serialize_solutions(out)
        back = parse_solutions(text)
        assert serialize_solutions(back) == text
        assert len(back) == len(out)
        for s in back:
            assert residual(p, s.x) == pytest.approx(s.residual, abs=1e-12)

    def test_determinism_byte_for_byte(self):
        p = quadratic_pair_system()
        assert serialize_solutions(solve(p)) == serialize_solutions(solve(p))
