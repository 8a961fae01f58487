from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from ulmkit.construct import (
    ConstructionState,
    PElement,
    PredicateTable,
    cantor_pair,
    cantor_unpair,
    decode_elem,
    decode_triple,
    nth_unit_fraction,
    run_construction,
)
from ulmkit.ordinal import nat
from ulmkit.ulm import invariants_of

from test_baf import alarm


class TestCoding:
    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    def test_pair_unpair_roundtrip(self, a, b):
        assert cantor_unpair(cantor_pair(a, b)) == (a, b)

    @given(st.integers(0, 200_000))
    def test_unpair_pair_roundtrip(self, z):
        a, b = cantor_unpair(z)
        assert cantor_pair(a, b) == z

    def test_triple_decoding(self):
        e = cantor_pair(3, cantor_pair(1, 4))
        assert decode_triple(e) == (3, 1, 4)

    def test_fraction_enumeration_base2(self):
        got = [nth_unit_fraction(n, 2) for n in range(5)]
        assert got == [(1, 1), (2, 1), (2, 3), (3, 1), (3, 3)]

    def test_fraction_enumeration_base3(self):
        got = [nth_unit_fraction(n, 3) for n in range(8)]
        assert got == [(1, 1), (1, 2), (2, 1), (2, 2), (2, 4), (2, 5), (2, 7), (2, 8)]

    def test_fraction_enumeration_injective(self):
        seen = {nth_unit_fraction(n, 2) for n in range(200)}
        assert len(seen) == 200

    def test_decode_zero(self):
        assert decode_elem(0, 2).is_zero

    def test_decode_pinned_codes(self):
        # these codes anchor the closure/audit tests below
        assert decode_elem(1, 2) == PElement(2, ((0, 1, 1),))
        assert decode_elem(3, 2) == PElement(2, ((1, 1, 1),))
        assert decode_elem(6, 2) == PElement(2, ((0, 1, 2),))
        assert decode_elem(15, 2) == PElement(2, ((1, 1, 2),))

    @given(st.integers(0, 5000))
    def test_decode_is_total_and_valid(self, m):
        x = decode_elem(m, 2)
        assert isinstance(x, PElement)

    def test_decoding_reaches_multi_part_elements(self):
        assert any(len(decode_elem(m, 2).parts) >= 2 for m in range(300))


@st.composite
def p_elements(draw, p: int) -> PElement:
    """Valid elements over a few slots, each fraction in lowest terms."""
    parts = []
    for slot in sorted(draw(st.sets(st.integers(0, 5), max_size=4))):
        j = draw(st.integers(1, 4))
        num = draw(st.integers(1, p**j - 1).filter(lambda n: n % p))
        parts.append((slot, num, j))
    return PElement(p, tuple(parts))


class TestPElement:
    def test_addition_within_a_slot(self):
        half = PElement(2, ((0, 1, 1),))
        quarter = PElement(2, ((0, 1, 2),))
        assert (half + half).is_zero
        assert quarter + quarter == half
        assert quarter + half == PElement(2, ((0, 3, 2),))

    def test_addition_across_slots(self):
        a = PElement(2, ((0, 1, 1),))
        b = PElement(2, ((1, 1, 2),))
        assert a + b == PElement(2, ((0, 1, 1), (1, 1, 2)))

    def test_negation(self):
        q = PElement(2, ((0, 1, 2),))
        assert -q == PElement(2, ((0, 3, 2),))
        assert (q + -q).is_zero

    def test_times_p_and_order(self):
        x = PElement(2, ((0, 3, 3),))  # 3/8
        assert x.order() == 8
        assert x.times_p() == PElement(2, ((0, 3, 2),))
        assert x.times_p().times_p() == PElement(2, ((0, 1, 1),))
        assert x.times_p().times_p().times_p().is_zero

    @given(st.data())
    def test_arithmetic_results_pass_validation(self, data):
        # +, - and times_p skip the constructor's check: their results
        # must be exactly what validation would accept
        p = data.draw(st.sampled_from([2, 3, 5]))
        a, b = data.draw(p_elements(p)), data.draw(p_elements(p))
        for r in (a + b, -a, a.times_p()):
            assert PElement(p, r.parts) == r

    def test_validation(self):
        with pytest.raises(ValueError):
            PElement(2, ((0, 2, 2),))  # 2/4 is not reduced
        with pytest.raises(ValueError):
            PElement(2, ((0, 5, 2),))  # 5/4 is not a fraction mod 1
        with pytest.raises(ValueError):
            PElement(2, ((1, 1, 1), (0, 1, 1)))  # unsorted slots
        with pytest.raises(ValueError):
            PElement(2, ((0, 1, 1), (0, 1, 2)))  # duplicate slot


class TestPredicateTable:
    def test_reads_cells_and_flags(self):
        t = PredicateTable(4, {(0, 3), (2, 1)}, {1})
        assert t.R(0, 3) and t.R(2, 1)
        assert not t.R(0, 2)
        assert t.R(1, 100) and not t.R(0, 100)

    def test_classification(self):
        t = PredicateTable(4, set(), {1})
        assert t.in_S(0) and not t.in_S(1)

    def test_rejects_cells_beyond_bound(self):
        with pytest.raises(ValueError):
            PredicateTable(4, {(0, 4)}, set())


ALL_FALSE = PredicateTable(4, set(), set())


class TestGrowthDynamics:
    def test_all_false_rows_grow_every_invariant(self):
        run = run_construction(ALL_FALSE, 8, window=8)
        assert run.state.estimates(8) == [7, 6, 5, 4, 3, 2, 1, 0]
        assert [h[0] for h in run.history] == list(range(8))

    def test_finitely_true_row_is_treated_then_grows_again(self):
        table = PredicateTable(4, {(0, 3)}, set())
        run = run_construction(table, 10)
        st_ = run.state
        # three chains piled up before the witness, all pushed to depth 2
        assert st_.Y[0] == {3}
        assert st_.T[0] == {1}
        assert len(st_.Xt[0]) == 3
        # growth resumed afterwards: stages 5..9 added fresh depth-1 chains
        assert st_.estimates(2)[0] == 5
        # the treated batch joined row 1's own depth-2 chains
        assert st_.estimates(2)[1] == 8 + 3

    def test_cofinally_true_row_stays_put(self):
        table = PredicateTable(
            4, {(0, y) for y in range(4)}, {0}
        )
        run = run_construction(table, 10)
        assert all(h[0] == 0 for h in run.history)
        assert run.state.X[0] == set()
        assert not table.in_S(0)

    def test_runs_are_deterministic(self):
        t = PredicateTable(4, {(0, 3), (1, 2)}, {1})
        assert run_construction(t, 12).history == run_construction(t, 12).history


class TestClosureAndAudit:
    def test_listed_sums_get_adjoined(self):
        # requirement 29 watches the pair (1/4 at slot 0, 1/2 at slot 0);
        # treating row 0 at stage 3 pushes slot 0 to depth 2, and the
        # sum 3/4 must then appear among the adjoined extras
        assert cantor_unpair(29) == (6, 1)
        table = PredicateTable(4, {(0, 2)}, set())
        run = run_construction(table, 35)
        target = PElement(2, ((0, 3, 2),))
        assert target in run.state.extras
        assert run.state.contains(target)

    def test_audit_records_true_and_false_sums(self):
        run = run_construction(ALL_FALSE, 8)
        D = run.state.D
        assert D[("sum", 1, 1, 0)] is True  # 1/2 + 1/2 = 0
        assert D[("sum", 1, 0, 0)] is False  # 1/2 + 0 != 0

    def test_unlisted_elements_are_not_audited(self):
        run = run_construction(ALL_FALSE, 3)
        # code 6 is 1/4 at slot 0, but slot 0 only reaches depth 1
        assert not run.state.contains(decode_elem(6, 2))
        assert all(6 not in key[1:] for key in run.state.D)


class TestReadingTheGroup:
    def test_tree_matches_estimates(self):
        run = run_construction(ALL_FALSE, 3)
        tree = run.state.as_group_tree()
        profile = invariants_of(tree)
        est = run.state.estimates(3)
        assert est == [2, 1, 0]
        assert [profile.value_at(nat(e)) for e in range(3)] == est

    def test_long_run_converts_to_a_tree(self):
        # 40 all-false stages list chains of 10,660 nodes in all; building
        # the tree and reading its invariants enumerates no elements
        run = run_construction(ALL_FALSE, 40)
        tree = run.state.as_group_tree()
        assert len(tree.nonroot) == 10660
        profile = invariants_of(tree)
        est = run.state.estimates(8)
        assert [profile.value_at(nat(e)) for e in range(8)] == est


class RescanStepper(ConstructionState):
    """The construction as first written: every stage rescans each row for
    fresh true cells, rebuilds its watch set, decodes every closure and
    audit operand again and recounts the depth histogram. Kept only as a
    cross-check of the incremental stages. It keeps X and Xt as plain
    dicts of element sets, where the incremental state keeps slot lists."""

    def __init__(self, table: PredicateTable, p: int = 2):
        super().__init__(table, p)
        self.X: dict[int, set[PElement]] = {}
        self.Xt: dict[int, set[PElement]] = {}

    def advance(self) -> None:
        s = self.stage
        for e in range(s):
            used_y = self.Y.setdefault(e, set())
            watch = self.X.setdefault(e, set()) - self.Xt.setdefault(e, set())
            fresh = [y for y in range(s) if y not in used_y and self.table.R(e, y)]
            if fresh and watch:
                r = 1
                taken = self.T.setdefault(e, set())
                while r in taken:
                    r += 1
                for x in watch:
                    k = x.parts[0][0]
                    self.chains[k] = max(self.chains[k], e + r + 1)
                taken.add(r)
                self.Xt[e] |= watch
                used_y.add(fresh[0])
            elif not fresh:
                k = len(self.chains)  # slots 0, 1, 2, ... in order
                self.chains[k] = e + 1
                self.X[e].add(PElement(self.p, ((k, 1, 1),)))
        for e in range(s):
            a, b = (decode_elem(m, self.p) for m in cantor_unpair(e))
            if self.contains(a) and self.contains(b):
                c = a + b
                if not c.is_zero and not self.contains(c):
                    self.extras.add(c)
        for e in range(s):
            i, j, k = decode_triple(e)
            a, b, c = (decode_elem(m, self.p) for m in (i, j, k))
            if self.contains(a) and self.contains(b) and self.contains(c):
                self.D[("sum", i, j, k)] = a + b == c
        self.stage = s + 1

    def estimates(self, window: int) -> list[int]:
        return recount(self, window)


def recount(state: ConstructionState, window: int) -> list[int]:
    depths = list(state.chains.values())
    return [depths.count(e + 1) for e in range(window)]


def mixed_table(seed: int, rows: int = 64, bound: int = 24) -> PredicateTable:
    """All-false, cofinal and sparse rows in seeded order."""
    rng = random.Random(seed)
    kinds = ["false", "false", "cofinal", "sparse"] * (rows // 4)
    rng.shuffle(kinds)
    trues, cofinal = set(), set()
    for e, kind in enumerate(kinds):
        if kind == "cofinal":
            cofinal.add(e)
            trues |= {(e, y) for y in rng.sample(range(bound), rng.randint(0, bound))}
        elif kind == "sparse":
            trues |= {(e, y) for y in rng.sample(range(bound), rng.randint(1, 3))}
    return PredicateTable(bound, trues, cofinal)


def state_of(st_: ConstructionState) -> tuple:
    return (st_.chains, st_.extras, st_.D, st_.X, st_.Xt, st_.Y, st_.T)


def wake_events(table: PredicateTable, p: int, stages: int) -> set[str]:
    """How closure rows got their last operand listed in a rescan run.

    "deepened": a treatment listed a generator 1/p^j, j > 1, of a slot
    that existed before the stage, and the row's new sum is listed in
    the same stage. "deferred": a sum listed by a later row in the same
    pass, so the row's new sum is listed one stage later. Both are read
    off which elements are listed after each stage.
    """
    state = RescanStepper(table, p)
    listed_at: dict[PElement, int] = {}  # element -> first stage listing it
    slots_at: dict[PElement, int] = {}  # element -> slots before that stage
    rows = []  # closure row -> (a, b, a + b)
    for s in range(stages):
        slots = len(state.chains)
        state.advance()
        if s:  # row s - 1 is first attended at this stage
            a, b = (decode_elem(m, p) for m in cantor_unpair(s - 1))
            rows.append((a, b, a + b))
        for row in rows:
            for x in row:
                if x not in listed_at and state.contains(x):
                    listed_at[x], slots_at[x] = s, slots
    events = set()
    for h, (a, b, c) in enumerate(rows):
        if a not in listed_at or b not in listed_at:
            continue
        x = max((a, b), key=listed_at.__getitem__)
        ready = listed_at[x]
        if ready <= h + 1 or c.is_zero:
            continue  # row h is first checked at stage h + 1; 0 lists nothing
        if len(x.parts) == 1 and listed_at.get(c) == ready:
            k, num, j = x.parts[0]
            if num == 1 and j > 1 and k < slots_at[x]:
                events.add("deepened")
        if listed_at.get(c) == ready + 1:
            events.add("deferred")
    return events


def table_waking(p: int, wanted: set[str], stages: int) -> PredicateTable:
    """The first seeded mixed table whose rescan run shows `wanted`."""
    for seed in range(40):
        table = mixed_table(seed)
        if wanted <= wake_events(table, p, stages):
            return table
    raise AssertionError(f"no seeded table shows {wanted}")


class TestIncrementalStages:
    @pytest.mark.parametrize("seed", range(4))
    def test_state_equals_the_rescan_stepper_after_every_stage(self, seed):
        table = mixed_table(seed)
        fast, slow = ConstructionState(table), RescanStepper(table)
        for _ in range(120):
            fast.advance()
            slow.advance()
            assert state_of(fast) == state_of(slow)
            assert fast.estimates(10) == slow.estimates(10)

    @pytest.mark.parametrize(
        "p, wanted",
        [(2, {"deepened", "deferred"}), (3, {"deferred"})],
    )
    def test_rows_woken_by_deepening_and_by_sums(self, p, wanted):
        # a row parked on a generator wakes when a treatment deepens its
        # slot; a row parked on a sum wakes when a closure row lists it,
        # and an earlier row woken that way is checked at the next stage
        table = table_waking(p, wanted, 120)  # raises when no table shows them
        fast, slow = ConstructionState(table, p), RescanStepper(table, p)
        for _ in range(120):
            fast.advance()
            slow.advance()
            assert state_of(fast) == state_of(slow)
            # every listed sum lies within its slots' chain depths, so a
            # generator 1/p^j is listed by its chain and never by a sum
            chains = fast.chains
            assert all(j <= chains[k] for x in fast.extras for k, _, j in x.parts)

    @pytest.mark.parametrize(
        "table",
        [PredicateTable(1), PredicateTable(64, {(0, y) for y in range(64)}, {0})],
        ids=["all-false", "cofinal-row-0"],
    )
    def test_estimates_equal_a_recount_at_every_stage(self, table):
        # the two tables of the construction-dichotomy suite
        state = ConstructionState(table)
        for _ in range(200):
            state.advance()
            assert state.estimates(6) == recount(state, 6)

    def test_a_cofinal_row_uses_columns_past_the_bound(self):
        # row 0 is true at 1 and at every column from the bound 3 on; its
        # chains from stages 1 and 3 are treated with columns 1 and 3
        table = PredicateTable(3, {(0, 1)}, {0})
        fast, slow = ConstructionState(table), RescanStepper(table)
        for _ in range(12):
            fast.advance()
            slow.advance()
        assert state_of(fast) == state_of(slow)
        assert fast.Y[0] == {1, 3}

    @pytest.mark.parametrize("fact", [True, False])
    def test_a_flipped_diagram_fact_is_still_caught(self, fact):
        # the earliest recorded fact went live many stages before the flip
        state = ConstructionState(ALL_FALSE)
        for _ in range(40):
            state.advance()
        key = next(k for k, v in state.D.items() if v is fact)
        state.D[key] = not fact
        with pytest.raises(AssertionError, match="flipped"):
            state.advance()

    def test_each_row_adds_at_most_once(self, monkeypatch):
        # audit sums are memoized and settled closure rows are dropped, so
        # over 150 stages (149 audit rows, 149 closure rows) no sum is
        # computed twice
        calls = 0
        add = PElement.__add__

        def counting_add(self, other):
            nonlocal calls
            calls += 1
            return add(self, other)

        monkeypatch.setattr(PElement, "__add__", counting_add)
        state = ConstructionState(ALL_FALSE)
        for _ in range(150):
            state.advance()
        assert len(state.D) <= calls <= 149 + 149

    def test_growth_builds_no_elements(self, monkeypatch):
        # a growth step writes a slot's depth and appends it to its row's
        # slot lists, and a treatment moves the row's batch of slots: over
        # 150 stages only closure and audit sums build elements, one each
        calls = 0
        trusted = PElement._trusted.__func__

        def counting_trusted(cls, p, parts):
            nonlocal calls
            calls += 1
            return trusted(cls, p, parts)

        monkeypatch.setattr(PElement, "_trusted", classmethod(counting_trusted))
        state = ConstructionState(ALL_FALSE)
        for _ in range(150):
            state.advance()
        assert len(state.chains) == 149 * 150 // 2
        assert calls <= 149 + 149

    def test_rows_are_checked_only_when_woken(self, monkeypatch):
        # a closure or audit row is checked when first attended and again
        # only when an operand it is parked on gets listed; rescanning
        # every open row at every stage made 11,874 calls here
        calls = 0
        contains = ConstructionState.contains

        def counting_contains(self, x):
            nonlocal calls
            calls += 1
            return contains(self, x)

        monkeypatch.setattr(ConstructionState, "contains", counting_contains)
        state = ConstructionState(ALL_FALSE)
        for _ in range(150):
            state.advance()
        assert calls <= 1000

    def test_eight_hundred_stages_with_the_gc_on(self):
        # a plain call, the GC running as usual
        with alarm(2.0):
            run = run_construction(PredicateTable(1), 800)
        assert run.history[-1][0] == 799
