"""End-to-end checks of the command line: output text, exit codes, json."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from gradix.cli import run

FIXTURES = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", "fixtures"))


# A 1x1 matrix over the one-object trivial ring over Q.
POINT = [0, 1, 0, 1]
POINT_MATRIX = {
    "ring": {
        "field": {"kind": "Q"},
        "groupoid": {"blocks": [{"objects": [1], "group": {"mult": [[0]]}}]},
        "support": [POINT],
        "factor": [[POINT, POINT, 1]],
    },
    "row_signature": [POINT],
    "col_signature": [POINT],
}
# A valid raw category: one object A whose endomorphisms are Q.
RAW_POINT = {
    "raw_category": {
        "field": {"kind": "Q"},
        "objects": ["A"],
        "homs": [["A", "A", 1]],
        "compose": [[["A", "A", 0], ["A", "A", 0], [[0, 1]]]],
        "identities": {"A": [[0, 1]]},
    }
}
# The identity at object 2, outside gamma0 of point_ring2.json.
AWAY = [0, 2, 0, 2]


def fx(name):
    return os.path.join(FIXTURES, name)


def call(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpectedLines:
    def test_validate_groupoid(self, capsys):
        code, out, err = call(capsys, "validate", fx("pair3.groupoid.json"))
        assert code == 0
        assert out == "groupoid: 1 block, 3 objects\n"

    def test_classify_witness_line(self, capsys):
        code, out, err = call(capsys, "classify", fx("pfm_m3.ring.json"))
        assert code == 0
        lines = out.splitlines()
        assert "pfm: true, gr-division: false (witness: E11 has no right inverse)" in lines
        assert "gr-simple: true" in lines
        assert any(line.startswith("block 0: size 3, base object 1") for line in lines)

    def test_rank_all_equal(self, capsys):
        code, out, err = call(capsys, "rank", fx("rank1.matrix.json"))
        assert code == 0
        assert out == "rho_r=rho_c=rho=rho_i=1\n"

    @pytest.mark.parametrize(
        "n, text, rho_i",
        [
            (9, "rho_r=rho_c=rho=9, rho_i skipped (size over bound 8)\n", None),
            (8, "rho_r=rho_c=rho=rho_i=8\n", 8),
        ],
        ids=["9x9", "8x8"],
    )
    def test_rank_skips_rho_i_above_eight(self, capsys, tmp_path, n, text, rho_i):
        path = tmp_path / "identity.json"
        path.write_text(json.dumps(
            dict(POINT_MATRIX, row_signature=[POINT] * n, col_signature=[POINT] * n,
                 entries=[[i, i, 1] for i in range(n)])
        ))
        assert call(capsys, "rank", str(path)) == (0, text, "")
        code, out, err = call(capsys, "rank", str(path), "--emit", "json")
        skipped = "true" if rho_i is None else "false"
        assert out == (
            f'{{"rho": {n}, "rho_c": {n}, "rho_i": {json.dumps(rho_i)}, "rho_i_skipped": {skipped}, '
            f'"rho_r": {n}, "schema": "gradix/1", "verb": "rank"}}\n'
        )

    def test_rank_bound_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["rank", fx("rank1.matrix.json"), "--rank-bound", "3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --rank-bound 3" in captured.err
        assert captured.err.startswith("usage: gradix")
        assert "Traceback" not in captured.err

    def test_invert(self, capsys):
        code, out, err = call(capsys, "invert", fx("unimodular.matrix.json"))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "invertible: true"
        assert "  inverse[0,1] = -1" in lines

    def test_invert_singular(self, capsys):
        code, out, err = call(capsys, "invert", fx("rank1.matrix.json"))
        assert code == 0
        assert out.splitlines()[0] == "invertible: false (rank 1 of 2)"

    def test_solve(self, capsys):
        code, out, err = call(
            capsys, "solve", fx("unimodular.matrix.json"), fx("rhs.matrix.json")
        )
        assert code == 0
        assert out.splitlines() == ["solvable: true", "  x[0] = 2", "  x[1] = 1"]

    def test_module_vectors(self, capsys):
        code, out, err = call(capsys, "module", fx("span.vectors.json"))
        assert code == 0
        assert out.splitlines() == ["pdim: 2", "span pdim: 1", "quotient pdim: 1"]

    def test_decompose(self, capsys):
        code, out, err = call(capsys, "decompose", fx("pfm_m3.ring.json"))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "blocks: 1"
        assert lines[-1] == "dimension audit: ok"

    def test_iso_self(self, capsys):
        code, out, err = call(
            capsys, "iso", fx("pfm_m3.ring.json"), fx("pfm_m3.ring.json")
        )
        assert code == 0
        assert out.splitlines()[0] == "isomorphic: true"

    def test_decompose_bare_division_ring(self, capsys):
        # a ring file with no signatures is read as a module over itself
        code, out, err = call(capsys, "decompose", fx("pair_ring.json"))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "blocks: 1"
        assert lines[1] == "block 0: size 2, base object 1, support order 1, indices {1: 1, 2: 1}"

    def test_classify_bare_division_ring(self, capsys):
        code, out, err = call(capsys, "classify", fx("point_ring.json"))
        assert code == 0
        assert "pfm: true, gr-division: true" in out.splitlines()

    def test_iso_bare_division_ring(self, capsys):
        code, out, err = call(capsys, "iso", fx("pair_ring.json"), fx("pair_ring.json"))
        assert code == 0
        assert out.splitlines()[0] == "isomorphic: true"

    def test_iso_over_a_huge_prime_field(self, capsys, tmp_path):
        p = 10**18 + 3
        one, g = [0, 0, 0, 0], [0, 0, 1, 0]
        paths = []
        for lam in (4, p - 1):
            ring = {
                "field": {"kind": "Fp", "p": p},
                "groupoid": {"blocks": [{"objects": [0], "group": {"mult": [[0, 1], [1, 0]]}}]},
                "support": [one, g],
                "factor": [[one, one, 1], [one, g, 1], [g, one, 1], [g, g, lam]],
            }
            path = tmp_path / f"ring_{lam}.json"
            path.write_text(json.dumps(ring))
            paths.append(str(path))
        start = time.perf_counter()
        # x^2 = 4 splits over F_p, and x^2 = -1 does not, as p = 3 (mod 4)
        assert call(capsys, "iso", paths[0], paths[0])[:2] == (0, "isomorphic: true\npair: 0 -> 0 (tau=[0, 0, 0, 0])\n")
        assert call(capsys, "iso", paths[0], paths[1])[:2] == (0, "isomorphic: false\n")
        assert time.perf_counter() - start < 1

    def test_decompose_wrong_kind(self, capsys):
        code, out, err = call(capsys, "decompose", fx("pair3.groupoid.json"))
        assert code == 2
        assert out == ""
        assert "expected a ring or matrix ring file" in err

    def test_category_classify(self, capsys):
        code, out, err = call(capsys, "category", "classify", fx("two_sizes.category.json"))
        assert code == 0
        lines = out.splitlines()
        assert "simple-artinian: true" in lines
        assert "division: false" in lines

    def test_category_to_ring(self, capsys):
        code, out, err = call(capsys, "category", "to-ring", fx("two_sizes.category.json"))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "objects: A, B"
        assert "dim[A, B] = 2" in lines
        assert "dim[B, B] = 4" in lines


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, out, err = call(capsys, "validate", fx("no_such_file.json"))
        assert code == 2
        assert out == ""
        assert "cannot read" in err

    def test_unparsable_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out, err = call(capsys, "validate", str(bad))
        assert code == 2
        assert out == ""

    def test_file_that_is_not_utf8_is_a_format_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{")
        code, out, err = call(capsys, "validate", str(bad))
        assert code == 2
        assert out == "" and err.startswith("error: ")

    def test_broken_structure_names_invariant(self, capsys):
        code, out, err = call(capsys, "validate", fx(os.path.join("broken", "ring_cocycle.json")))
        assert code == 1
        assert out == ""
        assert "factor.cocycle" in err

    def test_broken_structure_under_json_emission(self, capsys):
        code, out, err = call(
            capsys, "classify", fx(os.path.join("broken", "mring_dup_source.json")),
            "--emit", "json",
        )
        assert code == 1
        assert out == ""
        assert "signature.d_unique" in err

    @pytest.mark.parametrize(
        "spec",
        [
            {"objects": ["A"], "division_rings": [{"kind": "Q"}], "dims": {"A": [10**9]}},
            {
                "raw_category": {
                    "field": {"kind": "Q"},
                    "objects": ["A"],
                    "homs": [["A", "A", 10**9]],
                    "identities": {"A": [[0, 1]]},
                }
            },
        ],
        ids=["matrix_form", "raw"],
    )
    def test_hom_dimension_past_the_ceiling_is_a_format_error(self, capsys, tmp_path, spec):
        path = tmp_path / "huge.category.json"
        path.write_text(json.dumps(spec))
        start = time.perf_counter()
        code, out, err = call(capsys, "category", "to-ring", str(path))
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert "exceeds the ceiling MAX_HOM_DIMENSION" in err

    def test_mixed_field_category_names_the_common_field(self, capsys, tmp_path):
        path = tmp_path / "mixed.category.json"
        path.write_text(json.dumps({
            "objects": ["A", "B"],
            "division_rings": [{"kind": "Q"}, {"kind": "Fp", "p": 5}],
            "dims": {"A": [1, 0], "B": [0, 1]},
        }))
        code, out, err = call(capsys, "category", "to-ring", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: category.common_field: ")

    def test_category_classify_of_a_valid_raw_category_is_a_format_error(self, capsys, tmp_path):
        path = tmp_path / "raw.category.json"
        path.write_text(json.dumps(RAW_POINT))
        assert call(capsys, "validate", str(path))[0] == 0
        code, out, err = call(capsys, "category", "classify", str(path))
        assert (code, out) == (2, "")
        assert "classification needs the matrix form" in err

    def test_identity_of_an_unknown_object_names_the_invariant(self, capsys, tmp_path):
        spec = json.loads(json.dumps(RAW_POINT))
        spec["raw_category"]["identities"]["Z"] = [[5, 1]]
        path = tmp_path / "raw.category.json"
        path.write_text(json.dumps(spec))
        for argv in (["validate"], ["category", "to-ring"]):
            code, out, err = call(capsys, *argv, str(path))
            assert (code, out) == (1, "")
            assert err.startswith("error: category.identity: ")

    def test_iso_across_groupoids_names_the_common_grading(self, capsys):
        code, out, err = call(capsys, "iso", fx("pair_ring.json"), fx("point_ring.json"))
        assert code == 1
        assert out == ""
        assert err.startswith("error: block.common_grading: ")

    @pytest.mark.parametrize(
        "matrix, rhs",
        [
            (
                # over the diagonal ring on {1, 2}, the right-hand side over the pair ring
                {
                    "ring": {
                        "field": {"kind": "Q"},
                        "groupoid": {"blocks": [{"objects": [1, 2], "group": {"mult": [[0]]}}]},
                        "support": [[0, 1, 0, 1], [0, 2, 0, 2]],
                        "factor": [[[0, 1, 0, 1], [0, 1, 0, 1], 1], [[0, 2, 0, 2], [0, 2, 0, 2], 1]],
                    },
                    "row_signature": [[0, 1, 0, 1]],
                    "col_signature": [[0, 1, 0, 1]],
                    "entries": [[0, 0, 1]],
                },
                {
                    "ring": {"ref": "pair_ring.json"},
                    "row_signature": [[0, 1, 0, 1]],
                    "col_signature": [[0, 2, 0, 1]],
                    "entries": [[0, 0, 1]],
                },
            ),
            (
                dict(POINT_MATRIX, entries=[[0, 0, 1]]),
                dict(POINT_MATRIX, ring=dict(POINT_MATRIX["ring"], field={"kind": "Fp", "p": 5}), entries=[[0, 0, 2]]),
            ),
        ],
        ids=["other_support", "other_field"],
    )
    def test_solve_across_rings_names_the_common_ring(self, capsys, tmp_path, matrix, rhs):
        paths = []
        for name, spec in (("a.matrix.json", matrix), ("b.matrix.json", rhs)):
            path = tmp_path / name
            path.write_text(json.dumps(spec).replace('"pair_ring.json"', json.dumps(fx("pair_ring.json"))))
            paths.append(str(path))
        code, out, err = call(capsys, "solve", *paths)
        assert (code, out) == (1, "")
        assert err.startswith("error: matrix.common_ring: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "spec",
        [
            {"blocks": 5},
            {"blocks": [{"objects": 3, "group": {"mult": [[0]]}}]},
            {"raw_category": {"field": {"kind": "Q"}, "objects": [["a"], ["b"]], "homs": [], "identities": {}}},
            {"blocks": [{"objects": [0], "group": {"mult": 5}}]},
            {"raw": {"objects": [0], "morphisms": [{"source": [0], "target": 0}], "compose": []}},
            {"field": {"kind": "Q"}, "groupoid": {"ref": "pair3.groupoid.json"}, "support": 5, "factor": []},
            {"raw_category": {"field": {"kind": "Q"}, "objects": ["a"], "homs": [], "identities": []}},
            {"field": {"kind": "Q"}, "groupoid": {"ref": 3}, "support": [], "factor": []},
            {"objects": ["A"], "division_rings": [{"kind": "Q"}], "dims": {"A": 1}},
            dict(POINT_MATRIX, entries=[[0, True, 1]]),
            dict(POINT_MATRIX["ring"], support=[[0, 1, 0, True]]),
            dict(POINT_MATRIX, col_signature=[[False, 1, 0, 1]]),
            {"blocks": [{"objects": [1], "group": {"mult": [[False]]}}]},
            {"raw": {"objects": [0], "morphisms": [{"source": False, "target": 0}], "compose": [[0, 0, 0]]}},
            {"blocks": [{"objects": [1, 2, 3], "group": {"order": True, "mult": [[0]]}}]},
            {
                "raw_category": {
                    "field": {"kind": "Q"},
                    "objects": ["a"],
                    "homs": [["a", "a", True]],
                    "identities": {"a": [[0, 1]]},
                    "compose": [[["a", "a", 0], ["a", "a", 0], [[0, 1]]]],
                }
            },
        ],
        ids=[
            "blocks_not_a_list",
            "objects_not_a_list",
            "raw_category_list_names",
            "mult_not_a_table",
            "raw_morphism_list_source",
            "support_not_a_list",
            "identities_not_an_object",
            "ref_not_a_string",
            "dims_row_not_a_list",
            "bool_entry_index",
            "bool_support_morphism",
            "bool_matrix_signature",
            "bool_mult_entry",
            "bool_raw_morphism_record",
            "bool_group_order",
            "bool_hom_dimension",
        ],
    )
    def test_mistyped_slot_is_a_format_error(self, capsys, tmp_path, spec):
        path = tmp_path / "mistyped.json"
        path.write_text(json.dumps(spec).replace("pair3.groupoid.json", fx("pair3.groupoid.json")))
        code, out, err = call(capsys, "validate", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_category_file_that_is_not_an_object(self, capsys, tmp_path):
        path = tmp_path / "number.category.json"
        path.write_text("3")
        code, out, err = call(capsys, "category", "to-ring", str(path))
        assert (code, out) == (2, "")
        assert "missing key" in err

    def test_entry_position_outside_the_shape_names_the_invariant(self, capsys, tmp_path):
        path = tmp_path / "outside.matrix.json"
        path.write_text(json.dumps(dict(POINT_MATRIX, entries=[[0, 5, 1]])))
        code, out, err = call(capsys, "validate", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: matrix.entry_slot: ")

    @pytest.mark.parametrize(
        "argv, invariant",
        [
            (["invert", "rhs.matrix.json"], "invert.square"),
            (
                ["invert", dict(POINT_MATRIX, ring={"ref": "point_ring2.json"}, row_signature=[AWAY], col_signature=[AWAY])],
                "invert.gamma0",
            ),
            (["solve", "unimodular.matrix.json", "unimodular.matrix.json"], "solve.rhs_column"),
            (["solve", POINT_MATRIX, "rhs.matrix.json"], "solve.rhs_signature"),
        ],
        ids=["invert_not_square", "invert_outside_gamma0", "rhs_not_a_column", "rhs_other_rows"],
    )
    def test_operand_shape_names_the_invariant(self, capsys, tmp_path, argv, invariant):
        paths = []
        for arg in argv:
            if isinstance(arg, dict):
                path = tmp_path / "operand.matrix.json"
                path.write_text(json.dumps(arg).replace('"point_ring2.json"', json.dumps(fx("point_ring2.json"))))
                arg = str(path)
            elif arg.endswith(".json"):
                arg = fx(arg)
            paths.append(arg)
        code, out, err = call(capsys, *paths)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {invariant}: ")

    @pytest.mark.parametrize(
        "name, edit, key",
        [
            ("pair_ring.json", lambda d: d["factor"].insert(0, [[0, 2, 0, 1], [0, 1, 0, 1], 5]), "factor pair"),
            ("rank1.matrix.json", lambda d: d["entries"].append([1, 0, 3]), "matrix entry position (1, 0)"),
            ("span.vectors.json", lambda d: d["vectors"][0]["entries"].append([0, 0]), "vector coordinate 0"),
            (
                "two_sizes.category.json",
                lambda d: d.update(
                    raw_category={
                        "field": {"kind": "Q"},
                        "objects": ["a"],
                        "homs": [["a", "a", 1], ["a", "a", 1]],
                        "identities": {"a": [[0, 1]]},
                    }
                ),
                "hom pair ('a', 'a')",
            ),
            (
                "pfm_m3.ring.json",
                lambda d: d["ring"]["support"].append([0, 1, 0, 1]),
                "support morphism Morphism(block=0, target=1, elem=0, source=1)",
            ),
            (
                "pfm_m3.ring.json",
                lambda d: d["signatures"][2].append([0, 1, 0, 2]),
                "signature morphism Morphism(block=0, target=1, elem=0, source=2)",
            ),
            ("broken/raw_assoc.json", lambda d: d["raw"]["compose"].append([1, 1, 0]), "compose pair (1, 1)"),
            ("broken/raw_assoc.json", lambda d: d["raw"]["compose"].append([1, 1, 2]), "compose pair (1, 1)"),
        ],
        ids=[
            "factor", "matrix_entry", "vector_coordinate", "hom", "support", "signature_set",
            "raw_compose_identical", "raw_compose_conflicting",
        ],
    )
    def test_repeated_key_is_a_format_error(self, capsys, tmp_path, name, edit, key):
        with open(fx(name), encoding="utf-8") as fh:
            spec = json.load(fh)
        edit(spec)
        path = tmp_path / os.path.basename(name)
        path.write_text(json.dumps(spec).replace('"point_ring.json"', json.dumps(fx("point_ring.json"))))
        code, out, err = call(capsys, "validate", str(path))
        assert code == 2
        assert out == ""
        assert key in err and "given twice" in err

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"objects": ["A", "B"], "division_rings": [{"kind": "Q"}], "dims": {"A": [1], "B": [2], "A": [3]}}', "'A'"),
            ('{"objects": ["A", "B"], "division_rings": [{"kind": "Q"}], "dims": {"A": [1], "B": [2]}, "objects": ["A", "B"]}', "'objects'"),
        ],
        ids=["dims", "top_level"],
    )
    def test_repeated_json_object_key_is_a_format_error(self, capsys, tmp_path, text, key):
        path = tmp_path / "repeated.category.json"
        path.write_text(text)
        code, out, err = call(capsys, "category", "to-ring", str(path))
        assert code == 2
        assert out == ""
        assert f"key {key} is given twice" in err


class TestJsonEmission:
    def test_classify_payload(self, capsys):
        code, out, err = call(capsys, "classify", fx("pfm_m3.ring.json"), "--emit", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "gradix/1"
        assert payload["verb"] == "classify"
        assert payload["flags"]["pfm"] is True
        assert payload["flags"]["gr_division"] is False
        assert payload["witnesses"]["gr_division"] == "E11 has no right inverse"

    def test_rank_payload(self, capsys):
        code, out, err = call(capsys, "rank", fx("rank1.matrix.json"), "--emit", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rho_r"] == payload["rho_c"] == payload["rho"] == payload["rho_i"] == 1
        assert payload["rho_i_skipped"] is False

    def test_single_line(self, capsys):
        code, out, err = call(capsys, "decompose", fx("pfm_m3.ring.json"), "--emit", "json")
        assert code == 0
        assert out.count("\n") == 1


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("classify", "pfm_m3.ring.json"),
            ("decompose", "pfm_m3.ring.json"),
            ("rank", "rank1.matrix.json"),
        ],
    )
    def test_repeat_runs_identical(self, capsys, argv):
        verb, name = argv
        first = call(capsys, verb, fx(name))
        second = call(capsys, verb, fx(name))
        assert first == second

    def test_json_repeat_identical(self, capsys):
        a = call(capsys, "classify", fx("pfm_m3.ring.json"), "--emit", "json")
        b = call(capsys, "classify", fx("pfm_m3.ring.json"), "--emit", "json")
        assert a == b


class TestBrokenManifest:
    def test_every_broken_file_rejected_with_named_invariant(self, capsys):
        with open(fx(os.path.join("broken", "manifest.json"))) as fh:
            manifest = json.load(fh)
        assert len(manifest) >= 20
        for name, invariant in sorted(manifest.items()):
            code, out, err = call(capsys, "validate", fx(os.path.join("broken", name)))
            assert code == 1, f"{name} should be a domain error"
            assert out == "", f"{name} leaked output"
            assert invariant in err, f"{name}: expected {invariant} in {err!r}"


class TestHugeNumbers:
    """Exact answers longer than Python's 4300-digit int-to-str limit."""

    A, B = int("7" * 3000), int("3" * 3000)

    def _exact(self, value):
        """str(value) with the digit limit lifted, computed apart from gradix."""
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(value)
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("emit", ["text", "json"])
    def test_inverse_past_the_digit_limit_prints_exactly(self, capsys, tmp_path, emit):
        # [[A, B], [B, 1]] has determinant A - B^2, about 6000 digits
        a, b = self.A, self.B
        det = a - b * b
        want = {(0, 0): Fraction(1, det), (0, 1): Fraction(-b, det), (1, 0): Fraction(-b, det), (1, 1): Fraction(a, det)}
        path = tmp_path / "big.json"
        entries = [[0, 0, a], [0, 1, b], [1, 0, b], [1, 1, 1]]
        path.write_text(json.dumps(dict(POINT_MATRIX, row_signature=[POINT] * 2, col_signature=[POINT] * 2, entries=entries)))
        start = time.perf_counter()
        code, out, err = call(capsys, "invert", str(path), "--emit", emit)
        assert time.perf_counter() - start < 10
        assert (code, err) == (0, "")
        if emit == "text":
            assert out.splitlines() == ["invertible: true"] + [
                f"  inverse[{i},{j}] = {self._exact(c)}" for (i, j), c in sorted(want.items())
            ]
        else:
            got = json.loads(out)["inverse"]["entries"]
            assert got == [[i, j, self._exact(c)] for (i, j), c in sorted(want.items())]


class TestOptimizedInterpreter:
    """python -O strips assert statements, so no self-check may be one."""

    MATRICES = ("rank1.matrix.json", "rhs.matrix.json", "unimodular.matrix.json")

    def test_matrix_verbs_match_the_snapshot_under_python_O(self):
        from test_cli_snapshot import SNAPSHOT, cases

        with open(SNAPSHOT, encoding="utf-8") as fh:
            snapshot = json.load(fh)
        runs = [
            (snapshot[verb][key], argv)
            for verb in ("rank", "invert", "solve")
            for key, argv in cases((verb,))
            if all(name in self.MATRICES for name in key.split()[1:])
        ]
        assert len(runs) == 30
        src = os.path.join(os.path.dirname(FIXTURES), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        seen = []
        for start in range(0, len(runs), 4):
            procs = [
                subprocess.Popen(
                    [sys.executable, "-O", "-m", "gradix.cli", *argv],
                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, text=True,
                )
                for _, argv in runs[start:start + 4]
            ]
            for proc in procs:
                out, _ = proc.communicate()
                seen.append([proc.returncode, out])
        assert seen == [pinned for pinned, _ in runs]
