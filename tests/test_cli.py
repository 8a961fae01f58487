"""Command-line behavior: verbs, exit codes, deterministic output."""

import argparse
import io
import json
import math
import operator
import signal
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ulmkit.alpha import (
    AlphaSystem,
    InstructionSource,
    find_run,
    instruction_from_g,
    run_to_text,
)
from ulmkit import cli
from ulmkit.cli import main
from ulmkit.formats import save_table, save_tree
from ulmkit.construct import PredicateTable
from ulmkit.ordinal import canonical_cofinal, parse_ordinal
from ulmkit.pgroup import GroupTree


@pytest.fixture
def files(tmp_path):
    def write(name: str, obj) -> str:
        path = tmp_path / name
        if isinstance(obj, GroupTree):
            save_tree(obj, str(path))
        elif isinstance(obj, PredicateTable):
            save_table(obj, str(path))
        else:
            path.write_text(json.dumps(obj))
        return str(path)

    return write


CHAIN2 = GroupTree(2, {"r": None, "c1": "r", "c2": "c1"})
STAR2 = GroupTree(2, {"r": None, "l0": "r", "l1": "r"})


class TestInvariants:
    def test_prints_one_row_per_level(self, files, capsys):
        assert main(["invariants", files("t.json", CHAIN2)]) == 0
        assert capsys.readouterr().out == "u_0=0\nu_1=1\n"

    def test_large_chain_exits_0(self, files, capsys):
        # Z_{2^16}: beyond what element enumeration allows
        parent = {"r": None}
        parent.update({f"c{i}": f"c{i - 1}" if i > 1 else "r" for i in range(1, 17)})
        path = files("chain16.json", GroupTree(2, parent))
        assert main(["invariants", path]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "u_15=1"
        assert main(["iso", path, path]) == 0
        assert capsys.readouterr().out == "isomorphic\n"

    def test_a_prime_past_the_limit_exits_2_at_once(self, files, capsys):
        # trial division up to the square root of 2^61 - 1 would run for
        # hours; primes are refused from 2^31 on
        path = files("big.json", {"p": 2**61 - 1, "nodes": [{"id": "r", "parent": None}]})

        def ring(signum, frame):
            raise TimeoutError

        previous = signal.signal(signal.SIGALRM, ring)
        signal.setitimer(signal.ITIMER_REAL, 5.0)
        try:
            code = main(["invariants", path])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 2
        assert "2^31" in capsys.readouterr().err

    def test_missing_file_exits_2(self, files, capsys, tmp_path):
        assert main(["invariants", str(tmp_path / "nope.json")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_a_json_boolean_prime_is_not_an_integer(self, files, capsys):
        # it was read as 1 and refused as "True is not prime"
        path = files("t.json", {"p": True, "nodes": [{"id": "r", "parent": None}]})
        assert main(["invariants", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error:") and "'p' must be an integer" in line


class TestIso:
    def test_isomorphic(self, files, capsys):
        a = files("a.json", CHAIN2)
        b = files("b.json", CHAIN2)
        assert main(["iso", a, b]) == 0
        assert capsys.readouterr().out == "isomorphic\n"

    def test_same_size_not_isomorphic(self, files, capsys):
        assert main(["iso", files("a.json", CHAIN2), files("b.json", STAR2)]) == 1
        assert capsys.readouterr().out == "not isomorphic\n"

    def test_prime_mismatch(self, files):
        c3 = GroupTree(3, {"r": None, "x": "r"})
        assert main(["iso", files("a.json", CHAIN2), files("b.json", c3)]) == 1

    def test_trivial_groups_ignore_the_prime(self, files):
        t2 = GroupTree(2, {"r": None})
        t3 = GroupTree(3, {"r": None})
        assert main(["iso", files("a.json", t2), files("b.json", t3)]) == 0


class TestBaf:
    def test_holds_and_exit_0(self, files, capsys):
        t = files("t.json", CHAIN2)
        code = main(
            ["baf", "--beta", "2", "--left", f"{t},c2", "--right", f"{t},c2"]
        )
        assert code == 0
        assert capsys.readouterr().out == "holds\n"

    def test_fails_and_exit_1(self, files, capsys):
        t = files("t.json", CHAIN2)
        # c1 has height 1, c2 height 0: no isomorphism can send c2 to c1
        code = main(
            ["baf", "--beta", "2", "--left", f"{t},c2", "--right", f"{t},c1"]
        )
        assert code == 1
        assert capsys.readouterr().out == "fails\n"

    def test_methods_agree_separately(self, files, capsys):
        t = files("t.json", CHAIN2)
        for method in ("game", "closed"):
            code = main(
                [
                    "baf",
                    "--beta",
                    "1",
                    "--left",
                    f"{t},c1",
                    "--right",
                    f"{t},c1",
                    "--method",
                    method,
                ]
            )
            assert code == 0
        assert capsys.readouterr().out == "holds\nholds\n"

    def test_closed_form_refuses_unequal_invariants(self, files, capsys):
        z4 = files("z4.json", CHAIN2)
        z2 = files("z2.json", GroupTree(2, {"r": None, "c1": "r"}))
        code = main(
            [
                "baf",
                "--beta",
                "2",
                "--left",
                f"{z4},c2",
                "--right",
                f"{z2},c1",
                "--method",
                "closed",
            ]
        )
        assert code == 2
        assert "equal invariants" in capsys.readouterr().err

    def test_closed_form_refuses_two_primes(self, files, capsys):
        # Z_2 and Z_3 have the same socle dimensions, but no map joins them
        z2 = files("z2.json", GroupTree(2, {"r": None, "a": "r"}))
        z3 = files("z3.json", GroupTree(3, {"r": None, "a": "r"}))
        code = main(["baf", "--beta", "1", "--left", z2, "--right", z3, "--method", "closed"])
        assert code == 2
        assert "one prime" in capsys.readouterr().err

    def test_game_refuses_a_large_socle(self, files, capsys):
        star = GroupTree(2, {"r": None, **{f"l{i}": "r" for i in range(30)}})
        t = files("star30.json", star)
        code = main(
            ["baf", "--beta", "1", "--left", t, "--right", t, "--method", "game"]
        )
        assert code == 2
        assert "exceeds" in capsys.readouterr().err

    @pytest.mark.parametrize("beta", ["1", "2"])
    def test_game_refuses_a_large_pinned_subgroup(self, files, capsys, beta):
        # all 20 leaves pinned: each is forced, but the socle layer at
        # height 0 the game draws candidates from has 2^20 elements
        star = GroupTree(2, {"r": None, **{f"l{i}": "r" for i in range(20)}})
        side = files("star20.json", star) + "," + ",".join(f"l{i}" for i in range(20))
        code = main(
            ["baf", "--beta", beta, "--left", side, "--right", side, "--method", "game"]
        )
        assert code == 2
        assert "socle layer at height 0 exceeds" in capsys.readouterr().err

    def test_game_rejects_infinite_level(self, files, capsys):
        t = files("t.json", CHAIN2)
        code = main(
            ["baf", "--beta", "w+1", "--left", t, "--right", t, "--method", "game"]
        )
        assert code == 2
        assert "finite" in capsys.readouterr().err

    def test_empty_tuples_allowed(self, files, capsys):
        t = files("t.json", CHAIN2)
        assert main(["baf", "--beta", "3", "--left", t, "--right", t]) == 0

    def test_game_on_a_chain_past_the_recursion_limit(self, files, capsys):
        # 1,100 nodes: deeper than Python's default recursion limit of 1,000
        parent = {"r": None}
        parent.update({f"c{i}": f"c{i - 1}" if i > 1 else "r" for i in range(1, 1101)})
        t = files("chain1100.json", GroupTree(2, parent))
        code = main(
            ["baf", "--beta", "1", "--left", t, "--right", t, "--method", "game"]
        )
        assert code == 0
        assert capsys.readouterr().out == "holds\n"

    def test_closed_form_on_a_300_node_chain_is_fast(self, files, capsys):
        # the band split bisects over offsets; a scan of every offset took
        # about 16 s here
        parent = {"r": None}
        parent.update({f"c{i}": f"c{i - 1}" if i > 1 else "r" for i in range(1, 301)})
        t = files("chain300.json", GroupTree(2, parent))
        start = time.perf_counter()
        code = main(
            ["baf", "--beta", "1", "--method", "closed",
             "--left", f"{t},c3", "--right", f"{t},c3"]
        )
        assert time.perf_counter() - start < 5.0
        assert code == 0
        assert capsys.readouterr().out == "holds\n"

    def test_closed_form_on_a_1500_node_chain_is_fast(self, files, capsys):
        # profiles are indexed once and answer socle mass from suffix sums;
        # a clause scan per query took about 20 s here
        parent = {"r": None}
        parent.update({f"c{i}": f"c{i - 1}" if i > 1 else "r" for i in range(1, 1501)})
        t = files("chain1500.json", GroupTree(2, parent))
        start = time.perf_counter()
        code = main(
            ["baf", "--beta", "1", "--method", "closed",
             "--left", f"{t},c3", "--right", f"{t},c3"]
        )
        assert time.perf_counter() - start < 3.0
        assert code == 0
        assert capsys.readouterr().out == "holds\n"

    def test_unknown_node_exits_2(self, files, capsys):
        t = files("t.json", CHAIN2)
        code = main(["baf", "--beta", "1", "--left", f"{t},zz", "--right", t])
        assert code == 2
        assert "zz" in capsys.readouterr().err


UNKNOWN = st.text("abcxz", min_size=1, max_size=3)  # no digits: never c1 or c2
GOOD_TERM = st.sampled_from(["c1", "c2", "2*c1", "3*c2", " c2 "])
BAD_TERM = st.one_of(
    st.just(""),  # an empty term, as in c1++c2
    UNKNOWN,
    st.builds("{}*{}".format, st.text("x.!", max_size=2), st.sampled_from(["c1", "c2"])),
    st.builds("{}*{}".format, st.integers(-3, 3), UNKNOWN),
)


@pytest.fixture(scope="module")
def chain_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("trees") / "chain.json"
    save_tree(CHAIN2, str(path))
    return str(path)


class TestBafExitCodes:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(GOOD_TERM, max_size=3),
        BAD_TERM,
        st.integers(0, 3),
        st.booleans(),
        st.sampled_from(["game", "closed", "both"]),
    )
    def test_malformed_elements_exit_2(self, chain_file, good, bad, at, left, method):
        terms = good[:at] + [bad] + good[at:]
        assume(terms != [""])  # "tree," alone is the empty tuple
        side = f"{chain_file},{'+'.join(terms)}"
        plain = f"{chain_file},c1"
        argv = ["baf", "--beta", "1", "--method", method]
        argv += ["--left", side, "--right", plain] if left else ["--left", plain, "--right", side]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code == 2, (terms, out.getvalue())
        assert err.getvalue().startswith("error:")
        assert "Traceback" not in err.getvalue()


class TestConstruct:
    def test_estimates_printed(self, files, capsys):
        table = files("table.json", PredicateTable(1))
        assert main(["construct", "--table", table, "--stages", "4", "--window", "3"]) == 0
        assert capsys.readouterr().out == "u_0 ~ 3\nu_1 ~ 2\nu_2 ~ 1\n"

    def test_dump_shows_stage_rows(self, files, capsys):
        table = files("table.json", PredicateTable(1))
        main(["construct", "--table", table, "--stages", "2", "--window", "2", "--dump"])
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "stage 1: 0 0"
        assert out[1] == "stage 2: 1 0"

    # isinstance(True, int) holds: this table ran as bound 1 with row 0
    # cofinal and exited 0
    @pytest.mark.parametrize(
        "table",
        [
            {"bound": True, "true": [[0, 0]], "cofinal_rows": [False]},
            {"bound": 1, "true": [[0, False]]},
            {"bound": 1, "cofinal_rows": [False]},
        ],
        ids=["bound", "cell", "cofinal-row"],
    )
    def test_a_json_boolean_is_not_an_integer(self, files, capsys, table):
        assert main(["construct", "--table", files("t.json", table), "--stages", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error:") and "integer" in line


class TestAlphaRun:
    def test_matches_direct_run(self, files, capsys):
        g = files("g.json", {"n": 1, "switch_at": 2})
        code = main(
            ["alpha-run", "--alpha", "w*2", "--g", g, "--steps", "3"]
        )
        assert code == 0
        alpha = parse_ordinal("w*2")
        system = AlphaSystem(alpha, canonical_cofinal(alpha))
        run = find_run(system, instruction_from_g(InstructionSource({1: 2}), 1), 3)
        assert capsys.readouterr().out == run_to_text(run)

    def test_cofinal_list_is_accepted(self, files, capsys):
        g = files("g.json", {"n": 0, "always_zero": True})
        code = main(
            [
                "alpha-run",
                "--alpha",
                "w*2",
                "--cofinal",
                "w+1,w+2",
                "--g",
                g,
                "--steps",
                "2",
            ]
        )
        assert code == 0
        assert "index 0" in capsys.readouterr().out

    # each rule exited 0 with a run while its supremum missed alpha
    @pytest.mark.parametrize(
        "alpha, cofinal, g, named",
        [
            *[
                (alpha, rule, {"n": 0, "switch_at": 5}, f"converges to {sup}")
                for alpha in ("w^3", "w^2+w")
                for rule, sup in (("w*i", "w^2"), ("w+i", "w*2"), ("w*5+i", "w*6"))
            ],
            ("w^2", "w,w+1", {"n": 0, "switch_at": 5}, "converges to w*2"),
            ("w*2", "3,2,1", {"n": 0, "always_zero": True}, "does not increase at 2"),
        ],
    )
    def test_a_cofinal_rule_must_converge_to_alpha(self, files, capsys, alpha, cofinal, g, named):
        argv = ["alpha-run", "--alpha", alpha, "--cofinal", cofinal]
        assert main(argv + ["--g", files("g.json", g), "--steps", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error:") and named in line

    # int() ran each row, switch_at 2.5 as 2 and "3" as 3, and exited 0
    @pytest.mark.parametrize(
        "g", [{"n": 0, "switch_at": 2.5}, {"n": 0, "switch_at": "3"}, {"n": "0", "always_zero": True}]
    )
    def test_a_row_number_must_be_a_json_integer(self, files, capsys, g):
        argv = ["alpha-run", "--alpha", "w*2", "--g", files("g.json", g), "--steps", "2"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error:") and "must be integers" in line

    def test_rejects_non_limit_alpha(self, files, capsys):
        g = files("g.json", {"n": 0, "always_zero": True})
        assert main(["alpha-run", "--alpha", "5", "--g", g, "--steps", "1"]) == 2


class TestBadNumbers:
    @pytest.mark.parametrize(
        "verb, extra",
        [
            ("construct", ["--stages", "4", "--p", "4"]),
            ("construct", ["--stages", "-2"]),
            ("construct", ["--stages", "4", "--window", "-1"]),
            ("alpha-run", ["--alpha", "w*2", "--steps", "-1"]),
        ],
        ids=["non-prime-p", "negative-stages", "negative-window", "negative-steps"],
    )
    def test_exit_2_with_one_error_line(self, files, capsys, verb, extra):
        if verb == "construct":
            argv = [verb, "--table", files("table.json", PredicateTable(1))]
        else:
            argv = [verb, "--g", files("g.json", {"n": 0, "always_zero": True})]
        assert main(argv + extra) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err


class TestExportDot:
    def test_golden_output(self, files, capsys):
        assert main(["export-dot", files("t.json", CHAIN2)]) == 0
        assert capsys.readouterr().out == (
            "digraph G {\n"
            '  "c1";\n'
            '  "c2";\n'
            '  "r";\n'
            '  "c1" -> "r";\n'
            '  "c2" -> "c1";\n'
            "}\n"
        )


class TestCheck:
    def test_list_names_suites(self, capsys):
        assert main(["check", "--list"]) == 0
        names = capsys.readouterr().out.splitlines()
        assert "game-closed-agreement" in names
        assert len(names) == 9

    def test_single_suite_pass_line(self, capsys):
        assert main(["check", "--suite", "hat-exponents"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS hat-exponents: ")

    def test_unknown_suite_exits_2(self, capsys):
        assert main(["check", "--suite", "nonsense"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: unknown suite 'nonsense'; choices: ")


class TestParser:
    def test_no_verb_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_entry_point_signature(self):
        # plain int return, suitable for sys.exit
        assert isinstance(main(["check", "--list"]), int)


def _run(argv):
    """(exit code, stdout, stderr) of one `main` call; SystemExit counts as
    an exit code, as it would in a shell."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def fresh_parser_cache():
    build = cli._build_parser
    build.cache_clear()
    yield
    build.cache_clear()


class TestParserReuse:
    def test_main_builds_the_parser_once(self, files, monkeypatch, fresh_parser_cache):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        t = files("t.json", CHAIN2)
        assert _run(["invariants", t])[0] == 0
        first = len(built)
        assert first == 8  # the top-level parser and one per verb
        assert _run(["iso", t, t])[0] == 0
        assert _run(["baf", "--beta", "1", "--left", f"{t},c1", "--right", f"{t},c1"])[0] == 0
        assert _run(["check", "--list"])[0] == 0
        assert _run(["invariants", t])[0] == 0
        assert len(built) == first

    def test_reused_parser_answers_like_a_new_one(self, files, tmp_path, monkeypatch, fresh_parser_cache):
        chain, star = files("chain.json", CHAIN2), files("star.json", STAR2)
        calls = [
            ["invariants", chain],
            ["iso", chain, star],
            ["baf", "--beta", "1", "--left", f"{chain},c1", "--right", f"{chain},c2"],
            ["baf", "--beta", "1", "--left", f"{chain},c1+*", "--right", chain],
            ["invariants", str(tmp_path / "nope.json")],
            ["check", "--list"],
            ["--help"],
            ["iso", chain, chain],
        ]
        reused = [_run(argv) for argv in calls]
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = [_run(argv) for argv in calls]
        assert reused == fresh
        assert [r[0] for r in reused] == [0, 1, 1, 2, 2, 0, 0, 0]
        assert reused[6][1].startswith("usage: ulmkit")
        assert reused[0][1] == "u_0=0\nu_1=1\n"


# -- generated inputs for every verb -------------------------------------------

# Mostly well-formed inputs, so that each verb's computation runs as often
# as its input checks; sampled lists repeat an entry to weight it.
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats() | st.text("abrw01", max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(
            ["p", "nodes", "id", "parent", "bound", "true", "cofinal_rows", "n", "switch_at", "always_zero"]
        ),
        inner,
        max_size=4,
    ),
    max_leaves=8,
)
NOT_JSON = st.text(max_size=4).map(lambda text: ("raw", text))
NAMES = ("r", "a", "b", "c", "d")


@st.composite
def _trees(draw):
    """A tree file's JSON: at most 5 nodes, parents before children."""
    nodes = [{"id": "r", "parent": None}]
    for i in range(1, draw(st.integers(1, 5))):
        nodes.append({"id": NAMES[i], "parent": draw(st.sampled_from(NAMES[:i]))})
    return {"p": draw(st.sampled_from([2, 2, 2, 3, 3, 4, 0])), "nodes": nodes}


TREES = st.one_of(_trees(), _trees(), _trees(), JUNK, NOT_JSON)
TERMS = st.builds(
    operator.add,
    st.sampled_from(["", "", "", "2*", "3*", "-1*", "0*"]),
    st.sampled_from(["a", "a", "b", "r"]),
)
ELEMENTS = st.one_of(
    st.lists(TERMS, min_size=1, max_size=2).map("+".join),
    st.lists(TERMS, min_size=1, max_size=2).map("+".join),
    st.just("0"),
    st.text("rabcq+*0x2 ", max_size=4),
)
LEVELS = ["1", "2", "3", "w", "w+1", "w*2", "w*2+1", "w^2"]
ORDINALS = st.one_of(
    st.sampled_from(LEVELS),
    st.sampled_from(LEVELS + ["0", "-1", "", "1+w", "w*0", "w^2+w", "w^3", "5"]),
    st.text("w0123+*^i, ", max_size=5),
)
LIMITS = st.one_of(
    st.sampled_from(["w", "w*2", "w*3", "w^2", "w^2+w"]),
    st.sampled_from(["w", "w*2", "w*3", "w^2", "w^2+w"]),
    ORDINALS,
)
COFINAL = st.one_of(
    st.just("auto"),
    st.sampled_from(["auto", "w*i", "w+i", "w*5+i", "3,2,1", "w,w+1", "1,2", "w+1,w+2"]),
    ORDINALS,
)
TABLES = st.fixed_dictionaries({
    "bound": st.integers(-1, 3),
    "true": st.lists(st.lists(st.integers(-1, 2), min_size=2, max_size=2), max_size=2),
    "cofinal_rows": st.lists(st.integers(-1, 3), max_size=3),
})
# a row number that is not a JSON integer must exit 2, never run
NOT_INTEGERS = st.floats() | st.text("0123.", max_size=2) | st.booleans() | st.none()
ROWS = st.one_of(
    st.fixed_dictionaries({"n": st.integers(-1, 2), "switch_at": st.integers(-2, 6) | NOT_INTEGERS}),
    st.fixed_dictionaries({"n": st.integers(0, 2) | NOT_INTEGERS, "always_zero": st.booleans()}),
)
COUNTS = st.sampled_from(["0", "1", "2", "3", "4", "5", "-1"])


@st.composite
def _sides(draw):
    """--left and --right: tree files with entries, one tree on both sides
    about half the time."""
    trees = st.one_of(_trees(), _trees(), TREES)
    left = draw(trees)
    right = left if draw(st.booleans()) else draw(trees)
    return [
        (flag, ("side", tree, draw(st.lists(ELEMENTS, max_size=2))))
        for flag, tree in (("--left", left), ("--right", right))
    ]


def _file(obj):
    return ("file", obj)


INVOCATIONS = st.one_of(
    st.tuples(st.just("invariants"), TREES.map(_file)),
    st.tuples(st.just("iso"), TREES.map(_file), TREES.map(_file)),
    st.tuples(st.just("export-dot"), TREES.map(_file)),
    st.tuples(
        st.just("baf"),
        st.one_of(st.sampled_from(LEVELS), st.sampled_from(LEVELS), ORDINALS).map(
            lambda b: f"--beta={b}"
        ),
        _sides(),
        st.sampled_from(["game", "closed", "both"]).map(lambda m: f"--method={m}"),
    ),
    st.tuples(
        st.just("construct"),
        st.one_of(TABLES, TABLES, JUNK, NOT_JSON).map(lambda t: ("--table", _file(t))),
        COUNTS.map(lambda n: f"--stages={n}"),
        st.sampled_from(["2", "2", "3", "3", "4", "-5"]).map(lambda p: f"--p={p}"),
        COUNTS.map(lambda n: f"--window={n}"),
        st.sampled_from(["--dump", ()]),
    ),
    st.tuples(
        st.just("alpha-run"),
        LIMITS.map(lambda a: f"--alpha={a}"),
        COFINAL.map(lambda c: f"--cofinal={c}"),
        st.one_of(ROWS, ROWS, JUNK, NOT_JSON).map(lambda g: ("--g", _file(g))),
        COUNTS.map(lambda n: f"--steps={n}"),
    ),
    st.tuples(
        st.just("check"),
        st.sampled_from(["--list", "--suite=nonsense", "--suite=", "--suite=hat-exponents"]),
        COUNTS.map(lambda n: f"--seed={n}"),
    ),
)


def _loose_row(row) -> bool:
    """An instruction row whose 'n', or 'switch_at' where it is read, is
    not a JSON integer."""
    if not isinstance(row, dict):
        return False
    keys = ["n"] if row.get("always_zero") else ["n", "switch_at"]
    numbers = [row[k] for k in keys if k in row]
    return any(not isinstance(v, int) or isinstance(v, bool) for v in numbers)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestGeneratedInvocations:
    """`main` on generated trees, elements, levels, cofinal rules, tables
    and instruction rows for every verb: it exits 0, 1 or 2, lets no
    exception escape, and an exit of 2 prints exactly one error line."""

    @settings(max_examples=300, deadline=None)
    @given(INVOCATIONS)
    # int() of an infinite float raised OverflowError past the loader
    @example(
        ("alpha-run", "--alpha=w*2", ("--g", _file({"n": 0, "switch_at": math.inf})), "--steps=2")
    )
    def test_exit_code_and_one_error_line(self, fuzz_dir, call):
        written = iter(range(10))

        def write(obj) -> str:
            path = fuzz_dir / f"in{next(written)}.json"
            path.write_text(obj[1] if isinstance(obj, tuple) else json.dumps(obj))
            return str(path)

        def args(item) -> list:
            if isinstance(item, str):
                return [item]
            if item[:1] == ("file",):
                return [write(item[1])]
            if item[:1] == ("side",):
                return [",".join([write(item[1]), *item[2]])]
            return [a for part in item for a in args(part)]

        argv = args(call)
        code, _, err = _run(argv)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err
        if code == 2:
            assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
            # a message printed as the repr of a KeyError
            assert not err.startswith(("error: '", 'error: "')), (argv, err)
        if call[0] == "alpha-run":
            (row,) = [item[1][1] for item in call if item[:1] == ("--g",)]
            if _loose_row(row):
                assert code == 2, (argv, code)
