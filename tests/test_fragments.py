from __future__ import annotations

import gc
import itertools
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from ulmkit.fragments import (
    Fragment,
    FragmentGen,
    ProfiledGroup,
    canonical_fragment,
)
from ulmkit.ordinal import INFINITY, OMEGA, Ordinal, canonical_cofinal, nat, parse_ordinal
from ulmkit.pgroup import DEFAULT_BOUND, BoundExceeded, GroupTree, generated_iso
from ulmkit.ulm import OMEGA_VALUE, Clause, Profile, make_G_hat
from ulmkit.verify import check_valuation, height_of_by_chain, socle_dims_by_enumeration

from test_pgroup import extended_fragments, grown_fragments


def sparse(vec):
    """A p-image given by its coefficient vector, as (index, coefficient)
    pairs over its support."""
    return tuple((j, c) for j, c in enumerate(vec) if c)


def stable_key(x) -> tuple:
    """The order `Fragment.elements_stable` lists elements in: by the last
    generator in the support, then by coefficients. Zero padding, as a
    fragment extension adds, keeps it."""
    top = max((i + 1 for i, c in enumerate(x.coeffs) if c), default=0)
    return (top, x.coeffs[:top])


def flat(p, heights):
    """Fragment with independent order-p generators at the given heights."""
    return Fragment(
        p, tuple(FragmentGen(f"g{i}", (), h) for i, h in enumerate(heights))
    )


class TestConstruction:
    def test_creation_guard(self):
        # g1 with p-image g0 demands h(g0) >= h(g1) + 1
        good = Fragment(
            2,
            (
                FragmentGen("a", (), OMEGA + 1),
                FragmentGen("b", ((0, 1),), OMEGA),
            ),
        )
        assert good.gen_named("b").height() == OMEGA
        with pytest.raises(ValueError):
            Fragment(
                2,
                (
                    FragmentGen("a", (), nat(3)),
                    FragmentGen("b", ((0, 1),), nat(3)),
                ),
            )

    def test_pimage_must_be_earlier(self):
        with pytest.raises(ValueError):
            Fragment(2, (FragmentGen("a", ((1, 1),), nat(0)),))

    @pytest.mark.parametrize(
        "pimage", [((0, 0),), ((0, 2),), ((1, 1), (0, 1)), ((0, 1), (0, 1)), ((-1, 1),)]
    )
    def test_pimage_must_be_sparse_and_normalized(self, pimage):
        # coefficients in [1, p), indices increasing from 0
        gens = (FragmentGen("a", (), nat(2)), FragmentGen("b", (), nat(2)))
        with pytest.raises(ValueError, match="c is not normalized"):
            Fragment(2, gens + (FragmentGen("c", pimage, nat(0)),))

    def test_p_must_be_prime(self):
        with pytest.raises(ValueError, match="not prime"):
            Fragment(4, (FragmentGen("a", (), nat(0)),))

    def test_normal_form_carry(self):
        f = Fragment(
            2,
            (
                FragmentGen("a", (), nat(5)),
                FragmentGen("b", ((0, 1),), nat(2)),
            ),
        )
        b = f.gen_named("b")
        assert (b + b).coeffs == (1, 0)  # 2b = a
        assert (b + b + b + b).is_zero
        assert b.order() == 4

    def test_heights_min_rule(self):
        f = flat(3, [nat(0), nat(4), OMEGA])
        x = f.element([1, 1, 0])
        assert x.height() == nat(0)
        y = f.element([0, 2, 1])
        assert y.height() == nat(4)
        assert f.zero().height() is INFINITY

    def test_valuation_axioms_exhaustive(self):
        f = Fragment(
            2,
            (
                FragmentGen("a", (), nat(9)),
                FragmentGen("b", ((0, 1),), nat(1)),
                FragmentGen("c", (), nat(4)),
            ),
        )
        check_valuation(f)


HEIGHTS = [nat(0), nat(1), nat(2), nat(3), OMEGA, OMEGA + 1, OMEGA + 2]


@st.composite
def fragment_specs(draw, max_gens: int):
    """(p, gens): each generator gets a random height and a random p-image
    over the earlier generators of height at least its own plus one."""
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, max_gens if p == 2 else max_gens - 2))
    gens: list[FragmentGen] = []
    for i in range(n):
        h = draw(st.sampled_from(HEIGHTS))
        high = [j for j, g in enumerate(gens) if g.height >= h + 1]
        vec = [0] * i
        for j in high:
            vec[j] = draw(st.integers(0, p - 1))
        gens.append(FragmentGen(f"g{i}", sparse(vec), h))
    return p, gens


class TestValuationProperties:
    @settings(max_examples=40, deadline=None)
    @given(fragment_specs(6))
    def test_random_valid_fragments_are_valuations(self, spec):
        p, gens = spec
        check_valuation(Fragment(p, gens))

    @settings(max_examples=40, deadline=None)
    @given(fragment_specs(5), st.data())
    def test_a_p_image_too_low_is_refused(self, spec, data):
        p, gens = spec
        j = data.draw(st.integers(0, len(gens) - 1))
        # the p-image g_j sits at h(g_j), below the required height + 1
        height: Ordinal = gens[j].height
        pimage = ((j, 1),)
        with pytest.raises(ValueError, match="needs its p-image"):
            Fragment(p, gens + [FragmentGen("new", pimage, height)])


class TestExtendOneGenerator:
    """Fragment.extend appends one generator to the parent's derived data;
    building the whole generator list afresh is the reference."""

    @settings(max_examples=60, deadline=None)
    @given(fragment_specs(6), st.data())
    def test_matches_a_fresh_build(self, spec, data):
        p, gens = spec
        f = Fragment(p, gens)
        h = data.draw(st.sampled_from(HEIGHTS))
        high = [j for j, g in enumerate(gens) if g.height >= h + 1]
        vec = [0] * f.rank
        for j in high:
            vec[j] = data.draw(st.integers(0, p - 1))
        child = f.extend(f.element(vec), h)
        fresh = Fragment(p, gens + [FragmentGen(f"g{f.rank}", sparse(vec), h)])
        assert child.gens == fresh.gens and child.rank == fresh.rank
        assert child._by_height == fresh._by_height
        assert child.index == fresh.index
        assert child.size == fresh.size
        assert child.zero().coeffs == fresh.zero().coeffs
        # the parent is untouched
        assert f.gens == tuple(gens) and f.rank == len(gens)
        assert f._by_height == Fragment(p, gens)._by_height

    @settings(max_examples=40, deadline=None)
    @given(fragment_specs(5), st.data())
    def test_refusals_match_a_fresh_build(self, spec, data):
        p, gens = spec
        j = data.draw(st.integers(0, len(gens) - 1))
        new = f"g{len(gens)}"  # the name extend gives the new generator
        f = Fragment(p, gens)
        # the parent with g_j renamed to that name
        renamed = FragmentGen(new, gens[j].pimage, gens[j].height)
        clash = Fragment(p, gens[:j] + [renamed] + gens[j + 1 :])
        refusals = [
            # a p-image at h(g_j), below the required height + 1
            (f, f.gen(j), gens[j].height, "needs its p-image"),
            (clash, clash.zero(), nat(0), "names must be distinct"),
        ]
        for parent, pimage, height, match in refusals:
            with pytest.raises(ValueError, match=match) as grown:
                parent.extend(pimage, height)
            with pytest.raises(ValueError) as fresh:
                Fragment(p, [*parent.gens, FragmentGen(new, sparse(pimage.coeffs), height)])
            assert str(grown.value) == str(fresh.value)


class TestSocleDims:
    @settings(max_examples=60, deadline=None)
    @given(fragment_specs(6))
    def test_rank_count_matches_the_enumeration(self, spec):
        frag = Fragment(*spec)
        assert frag.socle_height_dims() == socle_dims_by_enumeration(frag)

    def test_capacity_past_the_enumeration_bound(self):
        # 2^16 > DEFAULT_BOUND elements: the capacity check counts by rank
        all_omega = Profile(OMEGA, (Clause(nat(0), OMEGA, "any", OMEGA_VALUE),))
        pg = canonical_fragment(all_omega, 2)
        for rank in (16, 20):
            while pg.fragment.rank < rank:
                pg, _ = pg.create_element(pg.zero(), nat(0))
            assert pg.fragment.socle_height_dims() == {nat(0): rank}

    def test_over_capacity_creation_is_refused(self):
        alpha = parse_ordinal("w*2")
        profile = make_G_hat(alpha, canonical_cofinal(alpha), 1)  # cut w+1
        pg = canonical_fragment(profile, 2)
        grown, _ = pg.create_element(pg.zero(), OMEGA + 2)  # even slot: omega
        with pytest.raises(ValueError, match="profile allows 0"):
            grown.create_element(grown.zero(), OMEGA + 3)  # odd slot: 0


def refusal(fn):
    """The ValueError text fn raises, or None."""
    try:
        fn()
    except ValueError as exc:
        return str(exc)
    return None


@st.composite
def finite_profiles(draw):
    """Length 1-5, one clause per height, values 0-2 or omega."""
    values = draw(st.lists(st.sampled_from([0, 1, 2, OMEGA_VALUE]), min_size=1, max_size=5))
    return Profile(
        nat(len(values)),
        tuple(Clause(nat(i), nat(i + 1), "any", v) for i, v in enumerate(values)),
    )


def appended(f: Fragment, child: Fragment):
    """The p-image (as an element of f) and height of child's last generator."""
    g = child.gens[-1]
    vec = [0] * f.rank
    for j, c in g.pimage:
        vec[j] = c
    return f.element(vec), g.height


class TestCapacityByIncrement:
    """create_element checks only the one height its generator changes in
    the table a group keeps; validate_capacity from scratch is the
    reference."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_socle_rise_is_the_one_changed_height(self, data):
        f = data.draw(grown_fragments(data.draw(st.sampled_from([2, 3]))))
        child = data.draw(extended_fragments(f, 1))
        z, height = appended(f, child)
        want = dict(f.socle_height_dims())
        rise = f.socle_rise(z.coeffs, height)
        assert len(rise) <= 1
        for beta in rise:
            want[beta] = want.get(beta, 0) + 1
        assert child.socle_height_dims() == want

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_increment_refuses_as_the_full_check(self, data):
        profile = data.draw(finite_profiles())
        f = data.draw(grown_fragments(data.draw(st.sampled_from([2, 3]))))
        pg = ProfiledGroup(profile, f)
        if data.draw(st.booleans()):
            # keeps its table when it fits; over capacity it keeps none
            refusal(pg.validate_capacity)
        for _ in range(data.draw(st.integers(1, 4))):
            child = data.draw(extended_fragments(pg.fragment, 1))
            z, height = appended(pg.fragment, child)
            want = refusal(ProfiledGroup(profile, child).validate_capacity)
            got = refusal(lambda: pg.create_element(z, height))
            assert got == want
            if got is not None:
                break
            pg, c = pg.create_element(z, height)
            assert pg.fragment.gens == child.gens and c == pg.fragment.gen(child.rank - 1)

    def test_a_directly_built_group_over_capacity_is_refused_when_grown(self):
        profile = Profile(nat(2), (Clause(nat(0), nat(1), "any", 1), Clause(nat(1), nat(2), "any", 5)))
        pg = ProfiledGroup(profile, flat(2, [nat(0), nat(0)]))
        # the new generator changes height 1 only, which has room
        with pytest.raises(ValueError, match="2 independent order-p elements at height 0"):
            pg.create_element(pg.zero(), nat(1))

    @settings(max_examples=300, deadline=None)
    @given(finite_profiles(), st.lists(st.tuples(st.integers(0, 6).map(nat), st.integers(0, 3)), max_size=5))
    def test_canonical_counts_refuse_as_the_rank_count(self, profile, requests):
        # repeated heights, zero counts and heights past the length; the
        # reference builds the same generators and counts by rank
        heights = [h for h, count in requests for _ in range(count)]
        frag = flat(2, heights)
        want = refusal(ProfiledGroup(profile, frag).validate_capacity)
        got = refusal(lambda: canonical_fragment(profile, 2, requests))
        assert got == want
        if got is None:
            assert canonical_fragment(profile, 2, requests).fragment.gens == frag.gens


class TestStableEnumeration:
    def test_enumerates_up_to_the_one_bound(self):
        # 2^14 elements, within DEFAULT_BOUND: fragments and trees share
        # one enumeration budget
        f = flat(2, [nat(0)] * 14)
        assert sum(1 for _ in f.elements()) == 2**14

    def test_order_and_completeness(self):
        f = flat(2, [nat(0), nat(1)])
        elems = list(f.elements_stable())
        assert elems[0].is_zero
        assert len(elems) == 4
        assert len(set(elems)) == 4
        keys = [stable_key(x) for x in elems]
        assert keys == sorted(keys)

    def test_a_prefix_of_a_fragment_above_the_bound(self):
        # 2^16 elements, past DEFAULT_BOUND: a short prefix is still served
        f = flat(2, [nat(0)] * 16)
        assert f.size > DEFAULT_BOUND
        assert f.first_elements(3) == [f.zero(), f.gen(0), f.gen(1)]

    def test_exhausting_a_fragment_above_the_bound_refuses(self):
        f = flat(2, [nat(0)] * 16)
        it = f.elements_stable()
        assert sum(1 for _ in itertools.islice(it, DEFAULT_BOUND)) == DEFAULT_BOUND
        with pytest.raises(BoundExceeded):
            next(it)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([2, 3]),
        st.integers(1, 4),
        st.lists(st.integers(0, 81), min_size=1, max_size=6),
    )
    def test_first_elements_reads_a_prefix_memo(self, p, rank, ns):
        # asked in any order, larger and smaller, each answer is the stable
        # prefix, and mutating an answer never leaks into the next one
        f = flat(p, [nat(0)] * rank)
        for n in ns:
            n = min(n, f.size)
            got = f.first_elements(n)
            assert got == list(itertools.islice(f.elements_stable(), n))
            got.append(f.zero())
            got[:1] = []
            assert f.first_elements(n) == list(
                itertools.islice(f.elements_stable(), n)
            )

    def test_prefix_memo_dies_with_its_fragment(self):
        f = flat(2, [nat(0)] * 3)
        assert len(f.first_elements(6)) == 6
        refs = [weakref.ref(f)] + [weakref.ref(x) for x in f._stable_prefix]
        assert len(refs) == 7
        del f
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_padding_invariance(self):
        f = flat(2, [nat(3), nat(3)])
        g = f.extend(f.zero(), nat(1))
        first_f = [stable_key(x) for x in f.first_elements(4)]
        first_g = [stable_key(x) for x in g.first_elements(4)]
        assert first_f == first_g

    def test_migration(self):
        f = flat(2, [nat(2)])
        g = f.extend(f.gen(0), nat(1))
        x = f.gen(0)
        moved = g.migrate(x)
        assert moved.coeffs == (1, 0)
        assert moved.height() == nat(2)
        with pytest.raises(ValueError):
            f.migrate(g.gen(1))


class TestTreeRoundTrip:
    SHAPES = [
        {"r": None, "a": "r"},
        {"r": None, "a": "r", "b": "a", "c": "r"},
        {"r": None, "a": "r", "b": "a", "c": "a", "d": "r"},
        {"r": None, "a": "r", "b": "a", "c": "b", "d": "c"},
    ]

    @pytest.mark.parametrize("p", [2, 3])
    def test_fragment_heights_match_tree(self, p):
        # tree elements are the elements of the tree's fragment, and the
        # min rule gives the heights the p^k G chain gives
        for shape in self.SHAPES:
            t = GroupTree(p, shape)
            assert [g.name for g in t.fragment.gens] == sorted(
                t.nonroot, key=lambda v: (t.depth(v), v)
            )
            for x in t.elements():
                assert x.fragment is t.fragment
                assert x.height() == height_of_by_chain(t, x), (p, shape, x)

    def test_generated_iso_works_on_fragments(self):
        t = GroupTree(2, self.SHAPES[1])
        a = t.node("b")
        f = generated_iso(t.fragment, [a], t.fragment, [a])
        assert f is not None and len(f) == 4


class TestProfiledGroups:
    def profile(self):
        return Profile(
            OMEGA + 4,
            (
                Clause(nat(0), OMEGA, "any", OMEGA_VALUE),
                Clause(OMEGA, OMEGA + 4, "even", OMEGA_VALUE),
                Clause(OMEGA, OMEGA + 4, "odd", 1),
            ),
        )

    def test_canonical_fragment_capacity(self):
        pg = canonical_fragment(
            self.profile(), 2, [(nat(0), 2), (OMEGA + 1, 1)]
        )
        assert pg.fragment.rank == 3
        pg.validate_capacity()
        with pytest.raises(ValueError):
            canonical_fragment(self.profile(), 2, [(OMEGA + 1, 2)])

    def test_negative_request_count_is_refused(self):
        with pytest.raises(ValueError, match="request counts must be nonnegative"):
            canonical_fragment(self.profile(), 2, [(nat(1), -3)])

    def test_a_bad_height_is_named_before_a_bad_count(self):
        with pytest.raises(ValueError, match="height of g0 must be an ordinal"):
            canonical_fragment(self.profile(), 2, [(1, 1), (nat(1), -3)])

    def test_capacity_rejects_beyond_length(self):
        with pytest.raises(ValueError):
            canonical_fragment(self.profile(), 2, [(OMEGA + 9, 1)])

    def test_create_element_tracks_profile(self):
        pg = canonical_fragment(self.profile(), 2, [(OMEGA + 2, 1)])
        grown, c = pg.create_element(pg.fragment.gen(0), OMEGA + 1)
        assert c.height() == OMEGA + 1
        assert c.times_p() == grown.fragment.migrate(pg.fragment.gen(0))
        # c has order 4, so it consumes no socle capacity at w+1; only
        # order-p creations do. The odd slot w+1 holds exactly one:
        grown2, _ = grown.create_element(grown.zero(), OMEGA + 1)
        with pytest.raises(ValueError):
            grown2.create_element(grown2.zero(), OMEGA + 1)
