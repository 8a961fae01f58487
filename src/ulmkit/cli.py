"""Command-line front end.

Exit codes follow one convention across verbs: 0 for success (and for
yes answers to yes/no questions), 1 for a no answer, 2 for bad input or
an impossible computation. Output is deterministic given the inputs.
The parser is built once per process and never mutated, so in-process
callers of `main` do not rebuild it on every call.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

from .alpha import AlphaSystem, find_run, instruction_from_g, run_to_text
from .baf import ExtensionError, leq_barker, leq_std_game
from .construct import run_construction
from .formats import (
    FormatError,
    export_dot,
    load_instruction,
    load_table,
    load_tree,
    parse_element,
)
from .ordinal import CofinalSequence, cofinal_from_text, nat, parse_ordinal
from .pgroup import BoundExceeded
from .ulm import invariants_of, ulm_equal


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ulmkit",
        description="invariants, comparisons, and constructions for tree-presented p-groups",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    q = sub.add_parser("invariants", help="print the invariant profile of a tree group")
    q.add_argument("tree", help="tree file (JSON)")
    q.set_defaults(func=cmd_invariants)

    q = sub.add_parser("iso", help="decide isomorphism of two tree groups")
    q.add_argument("left", help="tree file (JSON)")
    q.add_argument("right", help="tree file (JSON)")
    q.set_defaults(func=cmd_iso)

    q = sub.add_parser("baf", help="decide a back-and-forth relation between tuples")
    q.add_argument("--beta", required=True, help="level, e.g. 2 or w*2+1")
    q.add_argument(
        "--left",
        required=True,
        metavar="TREE[,ELEM...]",
        help="tree file plus tuple entries such as a or 2*b+c",
    )
    q.add_argument("--right", required=True, metavar="TREE[,ELEM...]")
    q.add_argument(
        "--method",
        choices=("game", "closed", "both"),
        default="both",
        help="game search, closed-form characterization, or both (default)",
    )
    q.set_defaults(func=cmd_baf)

    q = sub.add_parser("construct", help="run the stage-by-stage builder against a table")
    q.add_argument("--table", required=True, help="predicate table file (JSON)")
    q.add_argument("--stages", required=True, type=int)
    q.add_argument("--p", type=int, default=2, help="prime (default 2)")
    q.add_argument("--window", type=int, default=8, help="rows reported (default 8)")
    q.add_argument("--dump", action="store_true", help="also print per-stage estimates")
    q.set_defaults(func=cmd_construct)

    q = sub.add_parser("alpha-run", help="drive a run against an instruction row")
    q.add_argument("--alpha", required=True, help="limit ordinal, e.g. w*2")
    q.add_argument(
        "--cofinal",
        default="auto",
        help="cofinal sequence: auto, w*i, <ordinal>+i, or a comma list of ordinals",
    )
    q.add_argument("--g", required=True, help="instruction row file (JSON)")
    q.add_argument("--steps", required=True, type=int)
    q.set_defaults(func=cmd_alpha_run)

    q = sub.add_parser("export-dot", help="print a tree as a DOT digraph")
    q.add_argument("tree", help="tree file (JSON)")
    q.set_defaults(func=cmd_export_dot)

    q = sub.add_parser("check", help="run a verification suite")
    q.add_argument("--suite", default="all", help="suite name or 'all' (see --list)")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--list", action="store_true", help="list suite names and exit")
    q.set_defaults(func=cmd_check)

    return parser


def cmd_invariants(args) -> int:
    profile = invariants_of(load_tree(args.tree))
    for k in range(profile.length.as_int()):
        print(f"u_{k}={profile.value_at(nat(k))}")
    return 0


def cmd_iso(args) -> int:
    a = load_tree(args.left)
    b = load_tree(args.right)
    if a.p != b.p and (a.nonroot or b.nonroot):
        print("not isomorphic")
        return 1
    if ulm_equal(invariants_of(a), invariants_of(b)):
        print("isomorphic")
        return 0
    print("not isomorphic")
    return 1


def _parse_side(spec: str):
    path, _, rest = spec.partition(",")
    tree = load_tree(path)
    tup = tuple(
        parse_element(tree, text) for text in rest.split(",") if rest
    )
    return tree, tup


def cmd_baf(args) -> int:
    beta = parse_ordinal(args.beta)
    A, abar = _parse_side(args.left)
    B, bbar = _parse_side(args.right)
    results = {}
    if args.method in ("closed", "both"):
        results["closed"] = leq_barker(A, abar, B, bbar, beta)
    if args.method in ("game", "both"):
        if not beta.is_finite:
            raise FormatError("the game search needs a finite level")
        results["game"] = leq_std_game(A, abar, B, bbar, beta.as_int())
    if len(results) == 2 and results["game"] != results["closed"]:
        print(
            f"error: methods disagree at {beta}: game={results['game']} "
            f"closed={results['closed']}",
            file=sys.stderr,
        )
        return 2
    answer = next(iter(results.values()))
    print("holds" if answer else "fails")
    return 0 if answer else 1


def cmd_construct(args) -> int:
    table = load_table(args.table)
    run = run_construction(table, args.stages, p=args.p, window=args.window)
    if args.dump:
        for s, est in enumerate(run.history, 1):
            print(f"stage {s}: " + " ".join(map(str, est)))
    for e, v in enumerate(run.state.estimates(args.window)):
        print(f"u_{e} ~ {v}")
    return 0


def _cofinal_for(alpha, spec: str) -> CofinalSequence:
    if "," not in spec:
        return cofinal_from_text(alpha, spec)
    entries = tuple(parse_ordinal(t.strip()) for t in spec.split(","))
    # past the listed prefix the sequence continues in unit steps
    def rule(i: int, _e=entries):
        return _e[i - 1] if i <= len(_e) else _e[-1] + nat(i - len(_e))

    return CofinalSequence(alpha, rule, label=f"list:{spec}")


def cmd_alpha_run(args) -> int:
    alpha = parse_ordinal(args.alpha)
    seq = _cofinal_for(alpha, args.cofinal)
    system = AlphaSystem(alpha, seq)
    src, row = load_instruction(args.g)
    run = find_run(system, instruction_from_g(src, row), args.steps)
    sys.stdout.write(run_to_text(run))
    return 0


def cmd_export_dot(args) -> int:
    sys.stdout.write(export_dot(load_tree(args.tree)))
    return 0


def cmd_check(args) -> int:
    from .verify import SUITES, run_suite

    if args.list:
        for name in SUITES:
            print(name)
        return 0
    results = run_suite(args.suite, seed=args.seed)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    return 0 if all(r.passed for r in results) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, ExtensionError, BoundExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
