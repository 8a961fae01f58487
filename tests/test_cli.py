"""Command-line behavior: verbs, exit codes, deterministic output."""

import argparse
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import assume, given, settings, strategies as st

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

    def test_missing_file_exits_2(self, files, capsys, tmp_path):
        assert main(["invariants", str(tmp_path / "nope.json")]) == 2
        assert capsys.readouterr().err.startswith("error:")


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
        # all 20 leaves pinned: the pins' pair tower has 2^20 elements
        star = GroupTree(2, {"r": None, **{f"l{i}": "r" for i in range(20)}})
        side = files("star20.json", star) + "," + ",".join(f"l{i}" for i in range(20))
        code = main(
            ["baf", "--beta", beta, "--left", side, "--right", side, "--method", "game"]
        )
        assert code == 2
        assert "subgroup exceeds" in capsys.readouterr().err

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
        assert "unknown suite" in capsys.readouterr().err


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
