"""The three benchmark workloads.

Each workload is a closed loop with one caller: the next operation starts
when the previous one has returned. A run repeats *passes* of the same
seeded batch. Every pass starts from a fresh import of ulmkit, so the
module-level caches are cold, as for a command-line user, and its inputs
are rebuilt with the fresh classes. A pass logs every operation with its
part (a, b or c), its time, whether it succeeded, and its answer; answers
are checked against references outside the timed code.
"""

from __future__ import annotations

import bisect
import contextlib
import importlib
import io
import json
import os
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field

import inputs

_clock = time.perf_counter

MODULES = ("ordinal", "pgroup", "ulm", "fragments", "baf", "construct", "alpha", "formats", "cli")

EXPECTED_HISTORY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected", "construction_history.json")


class Modules:
    """A fresh import of the package and the modules the workloads use."""

    def __init__(self):
        for name in [n for n in sys.modules if n == "ulmkit" or n.startswith("ulmkit.")]:
            del sys.modules[name]
        self.package = importlib.import_module("ulmkit")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"ulmkit.{name}"))


def reference_chunk() -> int:
    """The unit of the benchmark's time metrics: 1 ref is one run of this.

    Plain interpreter work (tuples, dict lookups, small sorts) like the
    package's own. Keep it unchanged: changing it changes the unit.
    """
    table: dict = {}
    acc = 0
    for i in range(1500):
        key = (i, i * 7 % 13, i & 31)
        table[key] = table.get(key[1:], 0) + 1
        acc += len(sorted(key))
    return acc


class SpeedProbe:
    """Times `reference_chunk` every 50 ms of processor time, from a SIGPROF
    handler, so it samples the machine's speed during the operations.

    The processor this benchmark was tuned on runs the same code up to
    twice as fast in one second as in the next, and an operation's time
    divided by the reference time around it varies about three times less
    than the time itself. Time spent in the probe is taken off the
    operation it interrupted.
    """

    EVERY_S = 0.05
    WINDOW_S = 0.15

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        t0 = _clock()
        reference_chunk()
        took = _clock() - t0
        self.samples.append((t0, took))
        self.spent += took

    def __enter__(self):
        self._sample(None, None)  # so even a pass shorter than EVERY_S has samples
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.EVERY_S, self.EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self._sample(None, None)

    def reference_at(self, start: float, end: float) -> float:
        """Mean reference time in a window around [start, end]: the
        machine's average speed over the operation."""
        starts = [t for t, _ in self.samples]
        lo = bisect.bisect_left(starts, start - self.WINDOW_S)
        hi = bisect.bisect_right(starts, end + self.WINDOW_S)
        window = [d for _, d in self.samples[lo:hi]] or [d for _, d in self.samples]
        return statistics.fmean(window)


@dataclass
class Op:
    part: str
    seconds: float
    ok: bool
    answer: object
    start: float = 0.0
    cost: float = 0.0  # seconds / reference time around the operation, in ref


@dataclass
class PassLog:
    ops: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)  # per-layer counts the workload reads
    probe: SpeedProbe = field(default_factory=SpeedProbe)

    def timed(self, part: str, fn, judge) -> Op:
        """Run fn() as one operation; judge(result) -> (ok, answer)."""
        spent = self.probe.spent
        t0 = _clock()
        try:
            result = fn()
            seconds = _clock() - t0
        except Exception as exc:  # a failed operation, recorded with its type
            op = Op(part, _clock() - t0, False, f"error:{type(exc).__name__}")
        else:
            ok, answer = judge(result)
            op = Op(part, seconds, ok, answer)
        op.start = t0
        op.seconds -= self.probe.spent - spent
        self.ops.append(op)
        return op

    def price(self) -> None:
        """Set every operation's cost in ref from the probe's samples."""
        for op in self.ops:
            op.cost = op.seconds / self.probe.reference_at(op.start, op.start + op.seconds)


# -- relation-sweep ------------------------------------------------------------------


class RelationSweep:
    """<=_beta queries answered by the game search and by the closed form.

    A disagreement is a failed operation. Every query runs to its answer:
    the pool is fixed (see inputs.relation_inputs), so its slowest queries,
    embedding searches of a few seconds, are the same whatever the seed.
    The pinned Z9+Z9+Z3 query is in every pass; the game is
    right there (the relation fails), so the game saying it holds, or a
    reflexive query (equal tuples in one tree) failing, marks the run
    incorrect.
    """

    name = "relation-sweep"
    min_passes = 2  # untraced passes in a run; a pass takes 15-20 s, most of it in the slowest searches

    def __init__(self, sizes=inputs.RELATION):
        self.sizes = sizes

    def spec(self, seed: int) -> dict:
        return inputs.relation_inputs(seed, self.sizes)

    def setup(self, m: Modules, spec: dict, workdir: str) -> dict:
        trees = [m.pgroup.GroupTree(p, parent) for p, parent in spec["trees"]]
        pinned_key = self._pinned_key(spec)
        built: dict = {}
        queries = []
        for entry in spec["stream"]:
            q = built.get(id(entry))
            if q is None:
                _, s, t, a, b, beta = entry
                p, parent = spec["trees"][s]
                A, B = trees[s], trees[t]
                q = built[id(entry)] = (
                    "c" if inputs.tree_size(parent) > 5 else "a" if p == 2 else "b",
                    A,
                    tuple(A.element(x) for x in a),
                    B,
                    tuple(B.element(y) for y in b),
                    beta,
                    s == t and a == b,
                    (s, a, b, beta) == pinned_key,
                )
            queries.append(q)
        return {"queries": queries}

    @staticmethod
    def _pinned_key(spec: dict) -> tuple:
        return (
            len(spec["trees"]) - 1,
            tuple(inputs.parse_sum(x) for x in inputs.PINNED_LEFT),
            tuple(inputs.parse_sum(x) for x in inputs.PINNED_RIGHT),
            inputs.PINNED_BETA,
        )

    def run(self, m: Modules, prepared: dict, log: PassLog) -> None:
        game_fn, closed_fn = m.baf.leq_std_game, m.baf.leq_barker
        for part, A, a, B, b, beta, reflexive, pinned in prepared["queries"]:

            def judge(both, reflexive=reflexive, pinned=pinned):
                game, closed = both
                answer = ("pinned" if pinned else "reflexive" if reflexive else "query", game, closed)
                return game == closed, answer

            log.timed(part, lambda: (game_fn(A, a, B, b, beta), closed_fn(A, a, B, b, beta)), judge)

    def verify(self, m: Modules, spec: dict, logs: list) -> list[str]:
        problems = []
        for log in logs:
            for op in log.ops:
                if isinstance(op.answer, tuple) and op.answer[0] == "pinned" and op.answer[1] is not False:
                    problems.append("the game search says the pinned relation holds; it fails")
                    break
            for op in log.ops:
                if isinstance(op.answer, tuple) and op.answer[0] == "reflexive" and op.answer[1:] != (True, True):
                    problems.append(f"a reflexive query answered {op.answer[1:]}")
                    break
        return problems

    def report(self, summary: dict) -> list[str]:
        ops = summary["ops"]
        disagree = sum(1 for op in ops if not op.ok and isinstance(op.answer, tuple))
        errors = sum(1 for op in ops if isinstance(op.answer, str) and op.answer.startswith("error"))
        return [
            f"queries_per_s {summary['answered'] / summary['wall']:.6g} 1/s (answered queries per second of a pass)",
            f"query_p50_us {summary['p50'] * 1e6:.6g} us",
            f"query_tail_us {summary['tail'] * 1e6:.6g} us ({summary['tail_name']} of "
            f"{summary['tail_samples']} answered queries)",
            f"failures: {disagree} disagreements, {errors} errors, of {len(ops)} queries",
        ]


# -- tree-scaling ----------------------------------------------------------------------


class TreeScaling:
    """Invariants of a ladder of trees, then the CLI verbs on fixture files.

    A BoundExceeded refusal or a CLI exit 2 is a failed operation. Answers
    are checked against the generator's summand histogram (forests), the
    node-rank formula (shapes) and, for groups of at most 2^10 elements,
    order counts from raw element arithmetic.
    """

    name = "tree-scaling"
    min_passes = 3  # untraced passes in a run

    def __init__(self, sizes=inputs.SCALING):
        self.sizes = sizes

    def spec(self, seed: int) -> dict:
        return inputs.scaling_inputs(seed, self.sizes)

    def setup(self, m: Modules, spec: dict, workdir: str) -> dict:
        ladder = [m.pgroup.GroupTree(e["p"], e["parent"]) for e in spec["ladder"]]
        paths = []
        for k, e in enumerate(spec["fixtures"]):
            path = os.path.join(workdir, f"fixture{k}.json")
            m.formats.save_tree(m.pgroup.GroupTree(e["p"], e["parent"]), path)
            paths.append(path)
        return {"ladder": ladder, "paths": paths, "pairs": spec["pairs"], "iso": spec["iso"]}

    def run(self, m: Modules, prepared: dict, log: PassLog) -> None:
        invariants_of, ulm_equal, nat = m.ulm.invariants_of, m.ulm.ulm_equal, m.ordinal.nat
        profiles = []
        for tree in prepared["ladder"]:
            op = log.timed("a", lambda: invariants_of(tree), lambda prof: (True, prof))
            profiles.append(op.answer if op.ok else None)
            if op.ok:
                op.answer = [op.answer.value_at(nat(k)) for k in range(op.answer.length.as_int())]
        for i, j in prepared["pairs"]:
            if profiles[i] is not None and profiles[j] is not None:
                log.timed("a", lambda: ulm_equal(profiles[i], profiles[j]), lambda eq: (True, ("equal", eq)))
        paths = prepared["paths"]
        for i, j in prepared["iso"]:
            log.timed("b", lambda: _cli(m, ["iso", paths[i], paths[j]]), _cli_judge)
        for path in paths:
            log.timed("c", lambda: _cli(m, ["invariants", path]), _cli_judge)

    def verify(self, m: Modules, spec: dict, logs: list) -> list[str]:
        problems = []
        ops = logs[0].ops
        ladder = spec["ladder"]
        limit = self.sizes["order_count_max_size"]
        for e, op in zip(ladder, ops):
            if not op.ok:
                continue
            got = inputs.trim(op.answer)
            if got != e["u"]:
                problems.append(f"{e['kind']} p={e['p']} n={e['n']}: invariants {got}, expected {e['u']}")
            elif e["p"] ** e["n"] <= limit:
                if inputs.order_counts(e["p"], e["parent"]) != inputs.counts_from_invariants(e["p"], got):
                    problems.append(f"{e['kind']} p={e['p']} n={e['n']}: order counts disagree")
        rest = iter(ops[len(ladder):])
        answered = {k for k, op in enumerate(ops[: len(ladder)]) if op.ok}
        for i, j in spec["pairs"]:
            if i in answered and j in answered:
                op = next(rest)
                if op.answer != ("equal", ladder[i]["u"] == ladder[j]["u"]):
                    problems.append(f"ulm_equal on rung n={ladder[i]['n']} answered {op.answer}")
        fixtures = spec["fixtures"]
        for i, j in spec["iso"]:
            op = next(rest)
            same = fixtures[i]["u"] == fixtures[j]["u"]
            want = (0, "isomorphic") if same else (1, "not isomorphic")
            if op.ok and op.answer != want:
                problems.append(f"iso on fixtures {i},{j}: {op.answer}, expected {want}")
        for e in fixtures:
            op = next(rest)
            want = (0, "\n".join(f"u_{k}={v}" for k, v in enumerate(e["u"])))
            if op.ok and op.answer != want:
                problems.append(f"invariants of a p={e['p']} n={e['n']} fixture: {op.answer}")
        return problems

    def report(self, summary: dict) -> list[str]:
        ops = summary["ops"]
        ladder = summary["spec"]["ladder"]
        answered = [e["n"] for e, op in zip(ladder, ops) if op.ok]
        refused = sum(1 for op in ops[: len(ladder)] if not op.ok)
        exit2 = sum(1 for op in ops[len(ladder):] if not op.ok)
        iso = sum(1 for op in ops if op.part == "b")
        return [
            f"invariants_s {summary['parts']['a']:.6g} s (ladder invariants and pair comparisons, per pass)",
            f"invariants_max_nodes {max(answered, default=0)} count (largest ladder tree answered)",
            f"cli_iso_ms {1000 * summary['parts']['b'] / max(iso, 1):.6g} ms (mean over {iso} iso calls)",
            f"failures: {refused} ladder refusals, {exit2} CLI failures, of {len(ops)} operations",
        ]


def _cli(m: Modules, argv: list) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = m.cli.main(argv)
    return code, out.getvalue().strip()


def _cli_judge(result):
    code, text = result
    return code in (0, 1), (code, text)


# -- constructions -------------------------------------------------------------------


class Constructions:
    """Stage-by-stage constructions, alpha-system runs and checked extensions.

    (a) run_construction for a fixed stage count on predicate tables that
    mix all-false, cofinal and sparse rows; two tables are fixed and their
    histories must equal the recorded file, and every table must show the
    dichotomy: an all-false row gains one chain per stage and keeps them
    at its own depth, and a cofinal row never has more than one untreated
    chain. (b) find_run for quiet and switching instructions; every run
    must pass validate_run. (c) extension candidates over w*2: a candidate
    whose fragments cannot be built or whose hypothesis relation fails is
    skipped, an accepted one is extended at every lower level and each
    result is machine-checked by check_extension.
    """

    name = "constructions"
    min_passes = 3  # untraced passes in a run

    def __init__(self, sizes=inputs.CONSTRUCTIONS):
        self.sizes = sizes

    def spec(self, seed: int) -> dict:
        return inputs.construction_inputs(seed, self.sizes)

    def setup(self, m: Modules, spec: dict, workdir: str) -> dict:
        tables = [
            m.construct.PredicateTable(t["bound"], t["trues"], t["cofinal"]) for t in spec["tables"]
        ]
        parse = m.ordinal.parse_ordinal
        systems = {}
        runs = []
        for alpha, switch in spec["runs"]:
            if alpha not in systems:
                a = parse(alpha)
                systems[alpha] = m.alpha.AlphaSystem(a, m.ordinal.canonical_cofinal(a))
            q = m.alpha.instruction_from_g(m.alpha.InstructionSource({0: switch}), 0)
            runs.append((systems[alpha], q, switch))
        w2 = parse("w*2")
        seq = m.ordinal.canonical_cofinal(w2)
        profiles = [m.ulm.make_G_hat(w2, seq, i) for i in range(4)]
        candidates = []
        for i_a, i_b, beta, tup, demands, shifts in spec["candidates"]:
            beta = parse(beta) if isinstance(beta, str) else m.ordinal.nat(beta)
            if beta == parse("w+1"):
                etas = [parse(x) for x in ("0", "1", "3", "w")]
            else:
                etas = [m.ordinal.nat(x) for x in range(beta.as_int())]
            candidates.append(
                (
                    profiles[i_a],
                    profiles[i_b],
                    beta,
                    etas,
                    [parse(h) for h in tup],
                    [parse(h) for h in demands],
                    shifts,
                )
            )
        return {"tables": tables, "runs": runs, "candidates": candidates}

    def run(self, m: Modules, prepared: dict, log: PassLog) -> None:
        stages, window = self.sizes["stages"], self.sizes["window"]
        run_construction = m.construct.run_construction
        chains = extras = 0
        for table in prepared["tables"]:
            op = log.timed(
                "a",
                lambda: run_construction(table, stages, window=window),
                lambda run: (True, run),
            )
            if op.ok:
                chains += len(op.answer.state.chains)
                extras += len(op.answer.state.extras)
                op.answer = [list(h) for h in op.answer.history]
        log.counts["construct.chains"] = chains
        log.counts["construct.extras"] = extras

        find_run, validate_run = m.alpha.find_run, m.alpha.validate_run
        steps = self.sizes["run_steps"]
        for system, q, switch in prepared["runs"]:
            op = log.timed("b", lambda: find_run(system, q, steps), lambda run: (True, run))
            if op.ok:
                run = op.answer
                problems = validate_run(system, run, q)
                op.answer = (list(run.bits()), [ell.j for ell in run.letters()], problems)
                op.ok = not problems

        for cand in prepared["candidates"]:
            log.timed("c", lambda: _extension_candidate(m, *cand), _extension_judge)

    def verify(self, m: Modules, spec: dict, logs: list) -> list[str]:
        problems = []
        ops = logs[0].ops
        tables = spec["tables"]
        with open(EXPECTED_HISTORY, encoding="utf-8") as fh:
            expected = json.load(fh)
        stages = self.sizes["stages"]
        if stages > expected["stages"] or self.sizes["window"] != expected["window"]:
            problems.append("the recorded histories do not cover this stage count and window")
        for k, want in enumerate(expected["histories"][: self.sizes["fixed_tables"]]):
            if ops[k].answer != want[:stages]:
                problems.append(f"fixed table {k}: history differs from the recorded one")
        for k, (t, op) in enumerate(zip(tables, ops)):
            if not op.ok:
                problems.append(f"table {k}: run_construction failed: {op.answer}")
                continue
            problems += [f"table {k}: {p}" for p in self._dichotomy(m, t, op.answer)]
        runs = [op for op in ops if op.part == "b"]
        for (alpha, switch), op in zip(spec["runs"], runs):
            if not op.ok:
                problems.append(f"find_run over {alpha} (switch {switch}): {op.answer}")
                continue
            bits, js, _ = op.answer
            want = [int(switch is not None and 2 * t + 1 >= switch) for t in range(len(bits))]
            moves = [t for t in range(len(js) - 1) if js[t] != js[t + 1]]
            if bits != want:
                problems.append(f"find_run over {alpha}: bits {bits}, expected {want}")
            elif len(moves) != (1 if 1 in bits else 0):
                problems.append(f"find_run over {alpha} changed index {len(moves)} times: {js}")
        for op in ops:
            if op.part == "c" and not op.ok:
                problems.append(f"extension candidate: {op.answer}")
        return problems

    def _dichotomy(self, m: Modules, t: dict, history) -> list[str]:
        """Step the construction afresh and check the two growth behaviours."""
        table = m.construct.PredicateTable(t["bound"], t["trues"], t["cofinal"])
        state = m.construct.ConstructionState(table)
        false_rows = [e for e, kind in enumerate(t["kinds"]) if kind == "false"]
        cofinal = set(t["cofinal"])
        out = []
        for s in range(self.sizes["stages"]):
            state.advance()
            if state.estimates(self.sizes["window"]) != history[s]:
                out.append(f"stage {s + 1}: estimates differ from the timed run")
            for e in false_rows:
                if e >= s:
                    break
                mine = state.X.get(e, set())
                if len(mine) != s - e or state.Xt.get(e) or any(
                    state.chains[x.parts[0][0]] != e + 1 for x in mine
                ):
                    out.append(f"stage {s + 1}: all-false row {e} did not climb by one")
            for e in cofinal:
                if len(state.X.get(e, set()) - state.Xt.get(e, set())) > 1:
                    out.append(f"stage {s + 1}: cofinal row {e} has a backlog above 1")
            if out:
                return out[:3]
        return out

    def report(self, summary: dict) -> list[str]:
        parts, ops = summary["parts"], summary["ops"]
        n_tables = sum(1 for op in ops if op.part == "a")
        n_runs = sum(1 for op in ops if op.part == "b")
        checks = sum(op.answer[1] for op in ops if op.part == "c" and op.ok)
        stages, steps = self.sizes["stages"], self.sizes["run_steps"]
        return [
            f"stages_per_s {n_tables * stages / parts['a']:.6g} 1/s (at {stages} stages)",
            f"run_steps_per_s {n_runs * steps / parts['b']:.6g} 1/s (at {steps} steps)",
            f"extensions_per_s {checks / parts['c']:.6g} 1/s ({checks} level checks from "
            f"{sum(1 for op in ops if op.part == 'c' and op.answer[0] == 'extended')} accepted candidates)",
        ]


def _extension_candidate(m, prof_a, prof_b, beta, etas, tup, demands, shifts):
    """Returns ("skipped", 0, 0) or ("extended", level checks, defects)."""
    try:
        A = m.fragments.canonical_fragment(prof_a, 2, [(h, 1) for h in tup])
        B = m.fragments.canonical_fragment(prof_b, 2, [(h, 1) for h in tup + demands])
    except ValueError:
        return ("skipped", 0, 0)
    k = len(tup)
    abar = [A.fragment.gen(t) for t in range(k)]
    bbar = [B.fragment.gen(t) for t in range(k)]
    if not m.baf.relation(A, abar, B, bbar, beta):
        return ("skipped", 0, 0)
    dbar = []
    for t, shift in enumerate(shifts):
        d = B.fragment.gen(k + t)
        dbar.append(d if shift is None else d + bbar[shift])
    defects = 0
    for eta in etas:
        res = m.baf.extend_tuple(A, abar, B, bbar, beta, eta, dbar)
        defects += len(m.baf.check_extension(B, eta, res))
    return ("extended", len(etas), defects)


def _extension_judge(result):
    return result[2] == 0, result


WORKLOADS = {w.name: w for w in (RelationSweep, TreeScaling, Constructions)}
