from __future__ import annotations

import pytest

from ulmkit.baf import (
    CreationRecord,
    ExtendResult,
    ExtensionError,
    check_extension,
    extend_tuple,
    find_embedding,
    is_proper,
    leq_barker,
    leq_game_reference,
    leq_paper,
    leq_std_game,
)
from ulmkit.fragments import (
    Fragment,
    FragmentGen,
    ProfiledGroup,
    canonical_fragment,
    from_tree,
)
from ulmkit.ordinal import OMEGA, canonical_cofinal, nat, parse_ordinal
from ulmkit.pgroup import GroupTree
from ulmkit.ulm import OMEGA_VALUE, Clause, Profile, band_split_index, make_G_hat


def chain(p: int, n: int) -> GroupTree:
    parent = {"r": None}
    prev = "r"
    for i in range(1, n + 1):
        parent[f"c{i}"] = prev
        prev = f"c{i}"
    return GroupTree(p, parent)


def star(p: int, k: int) -> GroupTree:
    parent = {"r": None}
    for i in range(k):
        parent[f"l{i}"] = "r"
    return GroupTree(p, parent)


def mixed(p: int) -> GroupTree:
    return GroupTree(p, {"r": None, "a": "r", "b": "a", "c": "r"})


W2 = parse_ordinal("w*2")
SEQ2 = canonical_cofinal(W2)  # w + i


def ghat_pg(i: int, requests=()):
    return canonical_fragment(make_G_hat(W2, SEQ2, i), 2, requests)


class TestFindEmbedding:
    def test_cyclic_into_larger_cyclic(self):
        assert find_embedding(chain(2, 2), [], chain(2, 3), []) is not None

    def test_cyclic_into_elementary_fails(self):
        # Z_4 has an order-4 element, (Z_2)^2 does not
        assert find_embedding(chain(2, 2), [], star(2, 2), []) is None

    def test_onto_requires_equal_invariants(self):
        assert find_embedding(chain(2, 2), [], chain(2, 2), [], onto=True)
        assert find_embedding(chain(2, 2), [], star(2, 2), [], onto=True) is None

    def test_pin_directs_the_image(self):
        z2, z4 = chain(2, 1), chain(2, 2)
        u = z2.node("c1")
        t = z4.node("c1")  # the order-2 element of Z_4, height 1
        found = find_embedding(z2, [u], z4, [t])
        assert found is not None and found["c1"] == t

    def test_pin_order_mismatch(self):
        z2, z4 = chain(2, 1), chain(2, 2)
        assert find_embedding(z2, [z2.node("c1")], z4, [z4.node("c2")]) is None

    def test_result_is_cached(self):
        a, b = chain(2, 2), chain(2, 3)
        assert find_embedding(a, [], b, []) is find_embedding(a, [], b, [])


# Micro corpus: every group here is generated by at most 2 elements, so
# reference challenges longer than 2 are answered through the subgroup
# closure and add nothing; max_ext=2 gives the full relation.
MICRO = [chain(2, 1), chain(2, 2), star(2, 2)]


def micro_tuples(G: GroupTree):
    elems = sorted(G.elements(), key=lambda e: e.coeffs)
    yield ()
    for e in elems:
        yield (e,)


class TestGameAgainstReference:
    @pytest.mark.parametrize("beta", [1, 2])
    def test_collapsed_equals_reference_on_micro(self, beta):
        memo: dict = {}  # shared: the recursion revisits extended states
        for A in MICRO:
            for B in MICRO:
                for abar in micro_tuples(A):
                    for bbar in micro_tuples(B):
                        got = leq_std_game(A, abar, B, bbar, beta)
                        want = leq_game_reference(
                            A, abar, B, bbar, beta, max_ext=2, _memo=memo
                        )
                        assert got == want, (A.parent, abar, B.parent, bbar, beta)

    def test_beta_three_on_tiny_pairs(self):
        memo: dict = {}
        for A in [chain(2, 1), chain(2, 2)]:
            for B in [chain(2, 1), chain(2, 2)]:
                got = leq_std_game(A, (), B, (), 3)
                want = leq_game_reference(A, (), B, (), 3, max_ext=2, _memo=memo)
                assert got == want

    def test_collapsed_true_implies_capped_reference_true(self):
        # capped reference is weaker, so this direction must never fail;
        # cap 1 keeps the size-8 sweep affordable (the sharp equality check
        # lives on the micro corpus above)
        groups = [chain(2, 3), star(2, 3), mixed(2)]
        memo: dict = {}
        for A in groups:
            for B in groups:
                for v in sorted(A.nonroot):
                    for w in sorted(B.nonroot):
                        abar, bbar = (A.node(v),), (B.node(w),)
                        for beta in (1, 2):
                            if leq_std_game(A, abar, B, bbar, beta):
                                assert leq_game_reference(
                                    A, abar, B, bbar, beta, max_ext=1, _memo=memo
                                )

    def test_capped_reference_probe_on_mixed_group(self):
        G = mixed(2)
        abar = (G.node("b"),)  # the order-4 generator
        assert leq_std_game(G, abar, G, abar, 2)
        assert leq_game_reference(G, abar, G, abar, 2, max_ext=2)

    def test_longer_left_tuple_fails(self):
        G = chain(2, 2)
        assert not leq_std_game(G, (G.node("c1"),), G, (), 1)
        assert not leq_game_reference(G, (G.node("c1"),), G, (), 1)

    def test_beta_zero_rejected_by_game(self):
        with pytest.raises(ValueError):
            leq_std_game(chain(2, 1), (), chain(2, 1), (), 0)


class TestGameAgainstBarkerSameGroup:
    @pytest.mark.parametrize("beta", [1, 2, 3])
    def test_agreement_on_node_tuples(self, beta):
        for G in [chain(2, 2), star(2, 2), mixed(2), chain(3, 2)]:
            nodes = sorted(G.nonroot)
            singles = [(G.node(v),) for v in nodes] + [()]
            pairs = [
                (G.node(v), G.node(w)) for v in nodes for w in nodes
            ]
            for abar in singles + pairs:
                for bbar in singles + pairs:
                    got = leq_std_game(G, abar, G, bbar, beta)
                    want = leq_barker(G, abar, G, bbar, beta)
                    assert got == want, (G.parent, abar, bbar, beta)

    def test_cross_group_divergence_at_level_one(self):
        # The closed form characterizes tuples within one carrier (or two
        # carriers with equal invariants). Across genuinely different
        # groups the level-1 game tolerates height inflation where the
        # height clause does not: Z_2 embeds into Z_4 with its socle
        # generator landing at height 1. The closed form refuses there.
        z4, z2 = chain(2, 2), chain(2, 1)
        abar = (z4.node("c1"),)  # height 1
        bbar = (z2.node("c1"),)  # height 0
        assert leq_std_game(z4, abar, z2, bbar, 1) is True
        assert leq_std_game(z4, abar, z2, bbar, 2) is False
        for beta in (1, 2):
            with pytest.raises(ValueError, match="equal invariants"):
                leq_barker(z4, abar, z2, bbar, beta)

    def test_two_equal_trees_agree_across(self):
        A = chain(2, 2)
        B = GroupTree(2, {"s": None, "d1": "s", "d2": "d1"})
        for beta in (1, 2, 3):
            for va in sorted(A.nonroot):
                for vb in sorted(B.nonroot):
                    abar, bbar = (A.node(va),), (B.node(vb),)
                    got = leq_std_game(A, abar, B, bbar, beta)
                    want = leq_barker(A, abar, B, bbar, beta)
                    assert got == want


class TestBarkerCaseSplit:
    def test_case_all_infinite(self):
        pg = ghat_pg(0, [(nat(5), 1), (nat(7), 1), (OMEGA + 4, 1)])
        g5, g7, gw4 = (pg.fragment.gen(i) for i in range(3))
        # level 1: threshold 0, socle infinite at every offset
        assert leq_barker(pg, [g7], pg, [g5], 1) is True
        assert leq_barker(pg, [g5], pg, [g7], 1) is False
        assert leq_barker(pg, [gw4], pg, [g7], 1) is True
        assert leq_barker(pg, [g7], pg, [gw4], 1) is False
        # level 3: threshold w, dominance capped at w*2
        assert leq_barker(pg, [gw4], pg, [gw4], 3) is True
        assert leq_barker(pg, [gw4], pg, [g5], 3) is False

    def test_case_band_with_finite_tail(self):
        P = Profile(
            W2,
            (
                Clause(nat(0), OMEGA, "any", OMEGA_VALUE),
                Clause(OMEGA, OMEGA + 3, "any", OMEGA_VALUE),
                Clause(OMEGA + 3, OMEGA + 5, "any", 1),
                Clause(OMEGA + 5, W2, "any", 0),
            ),
        )
        assert band_split_index(P, OMEGA) == 2
        pg = canonical_fragment(
            P,
            2,
            [
                (nat(3), 1),
                (nat(4), 1),
                (OMEGA, 1),
                (OMEGA + 1, 1),
                (OMEGA + 2, 1),
                (OMEGA + 3, 1),
            ],
        )
        g3, g4, gw, gw1, gw2, gw3 = (pg.fragment.gen(i) for i in range(6))
        # inside the band [w, w+2] the left height may exceed the right
        assert leq_barker(pg, [gw2], pg, [gw], 3) is True
        assert leq_barker(pg, [gw], pg, [gw2], 3) is False
        # past the band edge only exact equality survives
        assert leq_barker(pg, [gw3], pg, [gw3], 3) is True
        assert leq_barker(pg, [gw3], pg, [gw1], 3) is False
        # below the threshold equality is required as always
        assert leq_barker(pg, [g3], pg, [g3], 3) is True
        assert leq_barker(pg, [g4], pg, [g3], 3) is False

    def test_case_finite_above_threshold(self):
        P = Profile(
            W2,
            (
                Clause(nat(0), OMEGA, "any", OMEGA_VALUE),
                Clause(OMEGA, OMEGA + 2, "any", 1),
                Clause(OMEGA + 2, W2, "any", 0),
            ),
        )
        assert band_split_index(P, OMEGA) == -1
        pg = canonical_fragment(P, 2, [(OMEGA, 1), (OMEGA + 1, 1)])
        gw, gw1 = pg.fragment.gen(0), pg.fragment.gen(1)
        assert leq_barker(pg, [gw1], pg, [gw1], 3) is True
        assert leq_barker(pg, [gw1], pg, [gw], 3) is False
        assert leq_barker(pg, [gw], pg, [gw1], 3) is False


class TestModifiedRelationProfiles:
    def test_rejects_finite_profiles(self):
        pg = from_tree(chain(2, 2))
        with pytest.raises(ValueError):
            leq_paper(pg, (), pg, (), 2)

    def test_comparison_groups_over_w2(self):
        G0, G1, G2 = ghat_pg(0), ghat_pg(1), ghat_pg(2)
        # below the threshold w both agree, so level <= 2 holds both ways
        assert leq_paper(G0, (), G1, (), 2) is True
        assert leq_paper(G1, (), G0, (), 2) is True
        # at level 3 the left profile must dominate on [w, w*2)
        assert leq_paper(G0, (), G1, (), 3) is True
        assert leq_paper(G0, (), G2, (), 3) is True
        assert leq_paper(G1, (), G0, (), 3) is False
        assert leq_paper(G2, (), G1, (), 3) is True
        assert leq_paper(G1, (), G2, (), 3) is False
        # at level 4 profiles must agree below w*2, which they never do
        assert leq_paper(G0, (), G1, (), 4) is False
        assert leq_paper(G1, (), G0, (), 4) is False
        assert leq_paper(G1, (), G2, (), 4) is False
        # sanity: a profile sits below itself at every level
        assert leq_paper(G0, (), G0, (), 5) is True

    def test_entry_height_clauses(self):
        Ga = ghat_pg(0, [(OMEGA, 1)])
        Gb = ghat_pg(0, [(OMEGA + 4, 1)])
        a, b = Ga.fragment.gen(0), Gb.fragment.gen(0)
        # even level: both at or above the threshold passes
        assert leq_paper(Ga, [a], Gb, [b], 2) is True
        # odd level: the left height must reach min(right, w*2)
        assert leq_paper(Ga, [a], Gb, [b], 3) is False
        assert leq_paper(Gb, [b], Ga, [a], 3) is True

    def test_finite_heights_need_equality(self):
        Gc = ghat_pg(0, [(nat(2), 1)])
        Gd = ghat_pg(0, [(nat(3), 1)])
        c, d = Gc.fragment.gen(0), Gd.fragment.gen(0)
        assert leq_paper(Gc, [c], Gd, [d], 2) is False
        assert leq_paper(Gc, [c], Gc, [c], 2) is True

    def test_zero_entries_compare_as_infinite(self):
        Ga, Gb = ghat_pg(0), ghat_pg(0)
        assert leq_paper(Ga, [Ga.zero()], Gb, [Gb.zero()], 3) is True

    def test_order_mismatch_fails_the_correspondence(self):
        Ga = ghat_pg(0, [(OMEGA, 1)])
        frag = Fragment(
            2,
            (
                FragmentGen("b0", (), OMEGA + 1),
                FragmentGen("b1", (1,), OMEGA),
            ),
        )
        Gb = ProfiledGroup(make_G_hat(W2, SEQ2, 0), frag)
        b1 = frag.gen(1)  # order 4
        assert leq_paper(Ga, [Ga.fragment.gen(0)], Gb, [b1], 2) is False


class TestProperness:
    def test_fresh_directions_are_proper(self):
        frag = from_tree(mixed(2)).fragment
        a, b, c = frag.gen_named("a"), frag.gen_named("b"), frag.gen_named("c")
        assert is_proper(b, frag.subgroup([c]))

    def test_detects_improper_representative(self):
        frag = from_tree(mixed(2)).fragment
        a, c = frag.gen_named("a"), frag.gen_named("c")
        # c + (c + a) = a has height 1 > 0
        assert not is_proper(c, frag.subgroup([c + a]))

    def test_rejects_members_of_the_subgroup(self):
        frag = from_tree(mixed(2)).fragment
        a, b = frag.gen_named("a"), frag.gen_named("b")
        with pytest.raises(ValueError):
            is_proper(a, frag.subgroup([b]))  # a = 2b lies inside


class TestExtendGrowable:
    def test_single_demand_heights_by_level(self):
        # answering the same order-p demand at w+4 across levels
        for eta, beta, expect in [
            (3, 4, OMEGA + 4),  # odd, cap w*2: full height fits
            (2, 4, OMEGA + 4),  # even: target the demand's height
            (1, 4, OMEGA),  # odd, cap w: clipped
            (0, 4, OMEGA + 4),  # level 0 only needs the correspondence
        ]:
            A = ghat_pg(0)
            B = ghat_pg(0, [(OMEGA + 4, 1)])
            d = B.fragment.gen(0)
            res = extend_tuple(A, (), B, (), beta, eta, [d])
            assert res.left == (d,)
            assert len(res.right) == 1
            assert res.right[0].height() == expect
            assert check_extension(B, eta, res) == []

    def test_stacked_demand_keeps_chain_coherent(self):
        frag = Fragment(
            2,
            (
                FragmentGen("b0", (), OMEGA + 1),
                FragmentGen("b1", (1,), OMEGA),
            ),
        )
        B = ProfiledGroup(make_G_hat(W2, SEQ2, 0), frag)
        A = ghat_pg(0)
        b1 = frag.gen(1)
        res = extend_tuple(A, (), B, (), 3, 2, [b1])
        assert [r.height for r in res.records] == [OMEGA + 1, OMEGA]
        assert res.right[0].height() == OMEGA
        assert res.right[0].times_p().height() == OMEGA + 1
        assert check_extension(B, 2, res) == []

    def test_improper_demand_is_replaced_by_coset_representative(self):
        A = ghat_pg(0, [(OMEGA + 2, 1)])
        B = ghat_pg(0, [(OMEGA + 2, 1), (OMEGA + 6, 1)])
        a0 = A.fragment.gen(0)
        b0, b1 = B.fragment.gen(0), B.fragment.gen(1)
        d = b1 + b0  # height w+2, but its coset reaches w+6 at b1
        res = extend_tuple(A, (a0,), B, (b0,), 3, 2, [d])
        assert res.records[-1].adjoined == b1
        assert res.records[-1].height == OMEGA + 6
        assert res.right[-1].height() == OMEGA + 2  # image of d itself
        assert check_extension(B, 2, res) == []

    def test_surplus_right_entries_become_demands(self):
        A = ghat_pg(0)
        B = ghat_pg(0, [(OMEGA, 1)])
        b0 = B.fragment.gen(0)
        res = extend_tuple(A, (), B, (b0,), 2, 1, ())
        assert res.left == (b0,)
        assert len(res.right) == 1
        assert check_extension(B, 1, res) == []

    def test_cross_profile_pull(self):
        # the shape used when a run switches comparison groups: demands in
        # the larger group are answered inside the everywhere-infinite one
        A = ghat_pg(0)
        B = ghat_pg(1, [(OMEGA + 2, 1)])
        d = B.fragment.gen(0)
        res = extend_tuple(A, (), B, (), 3, 2, [d])
        assert res.right[0].height() == OMEGA + 2
        assert check_extension(B, 2, res) == []

    def test_hypothesis_failure_raises(self):
        A = ghat_pg(1)
        B = ghat_pg(0, [(OMEGA + 1, 1)])
        with pytest.raises(ExtensionError, match="hypothesis"):
            extend_tuple(A, (), B, (), 3, 2, [B.fragment.gen(0)])

    def test_clipped_answer_when_hypothesis_not_checked(self):
        # same instance with the check disabled: the odd-level cap at w
        # stays inside the target profile's capacity
        A = ghat_pg(1)
        B = ghat_pg(0, [(OMEGA + 1, 1)])
        d = B.fragment.gen(0)
        res = extend_tuple(A, (), B, (), 2, 1, [d], check_hypothesis=False)
        assert res.right[0].height() == OMEGA

    def test_blocked_target_backs_off_to_an_even_level(self):
        A = ghat_pg(1)  # no room at w+3, but w+2 is open
        B = ghat_pg(0, [(OMEGA + 3, 1)])
        d = B.fragment.gen(0)
        res = extend_tuple(A, (), B, (), 3, 2, [d], check_hypothesis=False)
        assert res.right[0].height() == OMEGA + 2
        assert check_extension(B, 2, res) == []

    def test_capacity_refusal_surfaces_as_extension_error(self):
        # a profile with no room anywhere at or above w leaves the descent
        # from w+1 with nothing to realize once the threshold is w
        blocked = Profile(
            W2,
            (
                Clause(nat(0), OMEGA, "any", OMEGA_VALUE),
                Clause(OMEGA, W2, "any", 0),
            ),
        )
        A = canonical_fragment(blocked, 2)
        B = ghat_pg(0, [(OMEGA + 1, 1)])
        d = B.fragment.gen(0)
        with pytest.raises(ExtensionError, match="no admissible answer"):
            extend_tuple(A, (), B, (), OMEGA + 1, OMEGA, [d], check_hypothesis=False)

    def test_low_p_image_below_threshold_raises(self):
        A = ghat_pg(0, [(nat(1), 1)])
        frag = Fragment(
            2,
            (
                FragmentGen("b0", (), nat(3)),
                FragmentGen("b1", (1,), nat(2)),
            ),
        )
        B = ProfiledGroup(make_G_hat(W2, SEQ2, 0), frag)
        a0 = A.fragment.gen(0)
        b0, b1 = frag.gen(0), frag.gen(1)
        with pytest.raises(ExtensionError, match="height incoherence"):
            extend_tuple(A, (a0,), B, (b0,), 3, 2, [b1], check_hypothesis=False)

    def test_input_validation(self):
        A, B = ghat_pg(0), ghat_pg(0, [(OMEGA, 1)])
        with pytest.raises(ValueError, match="eta < beta"):
            extend_tuple(A, (), B, (), 2, 2, ())
        with pytest.raises(ValueError, match="B fragment"):
            extend_tuple(A, (), B, (), 2, 1, [A.zero()])
        with pytest.raises(ExtensionError, match="longer"):
            extend_tuple(A, (A.zero(),), B, (), 2, 1, ())


class TestExtendExplicit:
    def test_finds_images_in_a_tree_group(self):
        A = from_tree(chain(2, 2))
        B = from_tree(chain(2, 2))
        d = B.fragment.gen_named("c2")  # order 4 generator
        res = extend_tuple(A, (), B, (), 2, 1, [d])
        assert res.A is A  # explicit groups never grow
        assert res.right[0].order() == 4
        assert res.right[0].height() == d.height()
        assert check_extension(B, 1, res) == []

    def test_reports_when_no_image_exists(self):
        A = from_tree(star(2, 2))
        B = from_tree(chain(2, 2))
        d = B.fragment.gen_named("c2")
        with pytest.raises(ExtensionError, match="cannot answer below"):
            extend_tuple(A, (), B, (), 1, 0, [d])


class TestCheckExtension:
    def test_flags_forged_height_record(self):
        A = ghat_pg(0)
        B = ghat_pg(0, [(OMEGA, 1)])
        res = extend_tuple(A, (), B, (), 2, 1, [B.fragment.gen(0)])
        rec = res.records[0]
        forged = ExtendResult(
            res.A,
            res.left,
            res.right,
            (CreationRecord(rec.adjoined, rec.pimage, rec.created, rec.height + 1, rec.context),),
        )
        problems = check_extension(B, 1, forged)
        assert any("recorded" in p for p in problems)

    def test_flags_wrong_conclusion_tuple(self):
        A = ghat_pg(0)
        B = ghat_pg(0, [(nat(0), 1), (nat(2), 1)])
        b0, b2 = B.fragment.gen(0), B.fragment.gen(1)
        res = extend_tuple(A, (), B, (), 3, 2, [b0])
        # swap in an answer of the wrong height for the concluded relation
        res2 = extend_tuple(A, (), B, (), 3, 2, [b2])
        forged = ExtendResult(res2.A, res.left, res2.right, ())
        problems = check_extension(B, 2, forged)
        assert "concluded relation fails at eta" in problems
