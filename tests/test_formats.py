"""Serialization: JSON round trips, element expressions, DOT export."""

import json

import pytest

from ulmkit.formats import (
    FormatError,
    export_dot,
    instruction_from_dict,
    load_table,
    load_tree,
    parse_element,
    save_table,
    save_tree,
    table_from_dict,
    table_to_dict,
    tree_from_dict,
    tree_to_dict,
)
from ulmkit.construct import PredicateTable
from ulmkit.pgroup import GroupTree


MIXED = {"r": None, "a": "r", "b": "a", "c": "r"}


def mixed(p: int = 2) -> GroupTree:
    return GroupTree(p, MIXED)


class TestTreeRoundTrip:
    def test_dict_round_trip(self):
        t = mixed(3)
        back = tree_from_dict(tree_to_dict(t))
        assert back.p == 3 and back.parent == t.parent

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "t.json")
        save_tree(mixed(), path)
        back = load_tree(path)
        assert back.parent == MIXED

    def test_saved_file_is_stable(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        save_tree(mixed(), a)
        save_tree(load_tree(a), b)
        assert open(a).read() == open(b).read()

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="no_such"):
            load_tree(str(tmp_path / "no_such.json"))

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(FormatError, match="bad.json"):
            load_tree(str(path))

    @pytest.mark.parametrize(
        "obj",
        [
            [],
            {"p": "2", "nodes": [{"id": "r", "parent": None}]},
            {"p": 2, "nodes": []},
            {"p": 2, "nodes": ["r"]},
            {"p": 2, "nodes": [{"id": 3, "parent": None}]},
            {
                "p": 2,
                "nodes": [
                    {"id": "r", "parent": None},
                    {"id": "r", "parent": None},
                ],
            },
        ],
    )
    def test_malformed_dicts(self, obj):
        with pytest.raises(FormatError):
            tree_from_dict(obj)

    def test_structural_errors_become_format_errors(self):
        orphan = {"p": 2, "nodes": [{"id": "a", "parent": "ghost"}]}
        with pytest.raises(FormatError):
            tree_from_dict(orphan)


class TestElementExpressions:
    def test_zero(self):
        t = mixed()
        assert parse_element(t, "0") == t.zero()
        assert str(t.zero()) == "0"

    def test_simple_and_scaled_terms(self):
        t = mixed(3)
        assert parse_element(t, "a") == t.node("a")
        assert parse_element(t, "2*b") == 2 * t.node("b")
        assert parse_element(t, " a + 2*b + c ") == (
            t.node("a") + 2 * t.node("b") + t.node("c")
        )

    def test_sums_normalize(self):
        t = mixed()
        # b + b carries into a at p = 2
        assert parse_element(t, "b+b") == t.node("a")

    def test_round_trips_every_element(self):
        t = mixed(3)
        for x in t.elements():
            assert parse_element(t, str(x)) == x

    @pytest.mark.parametrize("text", ["ghost", "a++b", "x*a", ""])
    def test_rejects_malformed(self, text):
        with pytest.raises(FormatError):
            parse_element(mixed(), text)


class TestTableRoundTrip:
    def test_dict_round_trip(self):
        table = PredicateTable(6, {(0, 3), (2, 1)}, {2})
        back = table_from_dict(table_to_dict(table))
        assert back == table

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "table.json")
        save_table(PredicateTable(4, {(1, 2)}, set()), path)
        assert load_table(path) == PredicateTable(4, {(1, 2)}, set())

    @pytest.mark.parametrize(
        "obj",
        [
            {"bound": "4"},
            {"bound": 4, "true": [[0, 1, 2]]},
            {"bound": 4, "true": [["0", "1"]]},
            {"bound": 4, "cofinal_rows": ["x"]},
            {"bound": 4, "true": [[0, 9]]},  # beyond the bound
        ],
    )
    def test_malformed(self, obj):
        with pytest.raises(FormatError):
            table_from_dict(obj)


class TestInstructionRows:
    def test_always_zero(self):
        src, n = instruction_from_dict({"n": 0, "always_zero": True})
        assert n == 0
        assert [src.g(0, s) for s in range(4)] == [0, 0, 0, 0]

    def test_switch_at(self):
        src, n = instruction_from_dict({"n": 2, "switch_at": 3})
        assert n == 2
        assert [src.g(2, s) for s in range(6)] == [0, 0, 0, 1, 1, 1]

    @pytest.mark.parametrize("obj", [{}, {"n": 1}, ["n"], {"n": "x", "switch_at": 1}])
    def test_malformed(self, obj):
        with pytest.raises(FormatError):
            instruction_from_dict(obj)

    # int() ran each of these, 2.5 as 2 and "3" as 3
    @pytest.mark.parametrize(
        "obj",
        [
            {"n": 0, "switch_at": 2.5},
            {"n": 0, "switch_at": "3"},
            {"n": 0, "switch_at": 2.0},
            {"n": 0, "switch_at": True},
            {"n": "1", "switch_at": 3},
            {"n": 1.0, "always_zero": True},
            {"n": False, "always_zero": True},
        ],
    )
    def test_numbers_must_be_json_integers(self, obj):
        with pytest.raises(FormatError, match="must be integers"):
            instruction_from_dict(obj)


class TestDotExport:
    def test_exact_bytes(self):
        got = export_dot(GroupTree(2, {"r": None, "a": "r", "b": "a"}))
        assert got == (
            "digraph G {\n"
            '  "a";\n'
            '  "b";\n'
            '  "r";\n'
            '  "a" -> "r";\n'
            '  "b" -> "a";\n'
            "}\n"
        )

    def test_quotes_awkward_names(self):
        t = GroupTree(2, {"r": None, 'x"y': "r"})
        out = export_dot(t)
        assert '"x\\"y" -> "r";' in out

    def test_deterministic(self):
        t = mixed(3)
        assert export_dot(t) == export_dot(GroupTree(3, dict(reversed(MIXED.items()))))


class TestJsonShape:
    def test_tree_json_is_sorted_and_indented(self, tmp_path):
        path = tmp_path / "t.json"
        save_tree(mixed(), str(path))
        obj = json.loads(path.read_text())
        assert list(obj) == ["nodes", "p"]
        assert path.read_text().endswith("\n")
