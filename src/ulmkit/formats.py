"""On-disk formats: trees, tables, instruction rows, DOT export.

Loaders raise FormatError with a path-qualified message on any problem so
a command front end can map every input fault to a single exit path.
Emitters are deterministic: sorted keys, fixed separators, trailing
newline, so repeated exports of the same object are byte-identical.
"""

from __future__ import annotations

import json
from typing import Optional

from .alpha import InstructionSource
from .construct import PredicateTable
from .pgroup import FragmentElement, GroupTree


class FormatError(ValueError):
    """A file or expression does not match its declared format."""


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc.msg} at line {exc.lineno})") from exc


def _dump_json(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- trees ---------------------------------------------------------------------


def tree_to_dict(tree: GroupTree) -> dict:
    nodes = [
        {"id": v, "parent": tree.parent[v]} for v in sorted(tree.parent)
    ]
    return {"p": tree.p, "nodes": nodes}


def tree_from_dict(obj, where: str = "tree") -> GroupTree:
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected an object with 'p' and 'nodes'")
    p = obj.get("p")
    nodes = obj.get("nodes")
    if not isinstance(p, int):
        raise FormatError(f"{where}: 'p' must be an integer")
    if not isinstance(nodes, list) or not nodes:
        raise FormatError(f"{where}: 'nodes' must be a nonempty list")
    parent: dict[str, Optional[str]] = {}
    for k, entry in enumerate(nodes):
        if not isinstance(entry, dict) or "id" not in entry or "parent" not in entry:
            raise FormatError(f"{where}: node {k} needs 'id' and 'parent'")
        vid, par = entry["id"], entry["parent"]
        if not isinstance(vid, str) or (par is not None and not isinstance(par, str)):
            raise FormatError(f"{where}: node {k}: ids must be strings")
        if vid in parent:
            raise FormatError(f"{where}: duplicate node id {vid!r}")
        parent[vid] = par
    try:
        return GroupTree(p, parent)
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def load_tree(path: str) -> GroupTree:
    return tree_from_dict(_load_json(path), where=path)


def save_tree(tree: GroupTree, path: str) -> None:
    _dump_json(tree_to_dict(tree), path)


# -- element expressions ---------------------------------------------------------


def parse_element(tree: GroupTree, text: str) -> FragmentElement:
    """Node-sum expressions: `a`, `2*b`, `a+2*b+c`; `0` is the identity."""
    text = text.strip()
    if text == "0":
        return tree.zero()
    raw: dict[str, int] = {}
    for term in text.split("+"):
        term = term.strip()
        if not term:
            raise FormatError(f"empty term in element expression {text!r}")
        coeff, star, name = term.partition("*")
        if star:
            try:
                c = int(coeff)
            except ValueError:
                raise FormatError(f"bad coefficient {coeff!r} in {text!r}") from None
            name = name.strip()
        else:
            c, name = 1, term
        if name not in tree.parent:
            raise FormatError(f"unknown node {name!r} in element expression")
        raw[name] = raw.get(name, 0) + c
    return tree.element(raw)


# -- predicate tables -------------------------------------------------------------


def table_to_dict(table: PredicateTable) -> dict:
    return {
        "bound": table.bound,
        "true": sorted([e, y] for e, y in table.trues),
        "cofinal_rows": sorted(table.cofinal_rows),
    }


def table_from_dict(obj, where: str = "table") -> PredicateTable:
    if not isinstance(obj, dict) or not isinstance(obj.get("bound"), int):
        raise FormatError(f"{where}: expected an object with an integer 'bound'")
    cells = obj.get("true", [])
    rows = obj.get("cofinal_rows", [])
    if not isinstance(cells, list) or not isinstance(rows, list):
        raise FormatError(f"{where}: 'true' and 'cofinal_rows' must be lists")
    trues = set()
    for k, cell in enumerate(cells):
        if (
            not isinstance(cell, list)
            or len(cell) != 2
            or not all(isinstance(v, int) for v in cell)
        ):
            raise FormatError(f"{where}: 'true' entry {k} must be [row, stage]")
        trues.add((cell[0], cell[1]))
    if not all(isinstance(r, int) for r in rows):
        raise FormatError(f"{where}: cofinal rows must be integers")
    try:
        return PredicateTable(obj["bound"], trues, set(rows))
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def load_table(path: str) -> PredicateTable:
    return table_from_dict(_load_json(path), where=path)


def save_table(table: PredicateTable, path: str) -> None:
    _dump_json(table_to_dict(table), path)


# -- instruction rows ---------------------------------------------------------------


def instruction_from_dict(obj, where: str = "instruction") -> tuple[InstructionSource, int]:
    if not isinstance(obj, dict) or "n" not in obj:
        raise FormatError(f"{where}: expected an object with row number 'n'")
    n, zero = obj["n"], obj.get("always_zero")
    if not zero and "switch_at" not in obj:
        raise FormatError(f"{where}: need either always_zero or switch_at")
    rule = None if zero else obj["switch_at"]
    # a float, string or boolean is refused, never rounded or parsed
    numbers = (n,) if zero else (n, rule)
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in numbers):
        raise FormatError(f"{where}: 'n' and 'switch_at' must be integers")
    try:
        return InstructionSource({n: rule}), n
    except ValueError as exc:  # a negative row or stage
        raise FormatError(f"{where}: {exc}") from exc


def load_instruction(path: str) -> tuple[InstructionSource, int]:
    return instruction_from_dict(_load_json(path), where=path)


# -- graph export --------------------------------------------------------------------


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(tree: GroupTree) -> str:
    """DOT digraph with one edge per non-root node, child -> parent."""
    lines = ["digraph G {"]
    for v in sorted(tree.parent):
        lines.append(f"  {_dot_quote(v)};")
    for v in sorted(tree.parent):
        u = tree.parent[v]
        if u is not None:
            lines.append(f"  {_dot_quote(v)} -> {_dot_quote(u)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
