from __future__ import annotations

import gc
import itertools
import random
import time
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from ulmkit.ordinal import INFINITY, nat
from ulmkit.pgroup import (
    DEFAULT_BOUND,
    BoundExceeded,
    CyclicDecomposition,
    Fragment,
    FragmentGen,
    GroupTree,
    _generated_iso_exists,
    _is_inclusion,
    generated_iso,
)
from ulmkit.verify import (
    corpus_trees,
    generated_iso_by_pairs,
    height_of_by_chain,
    pk_chain,
    tree_of,
    tree_shapes,
)


def chain(p: int, n: int) -> GroupTree:
    """Z_{p^n} as a chain r - c1 - ... - cn."""
    parent = {"r": None}
    prev = "r"
    for i in range(1, n + 1):
        parent[f"c{i}"] = prev
        prev = f"c{i}"
    return GroupTree(p, parent)


def star(p: int, k: int) -> GroupTree:
    """(Z_p)^k as k leaves under the root."""
    parent = {"r": None}
    for i in range(k):
        parent[f"l{i}"] = "r"
    return GroupTree(p, parent)


MIXED = {"r": None, "a": "r", "b": "a", "c": "r"}  # Z_{p^2} + Z_p


class TestValidation:
    def test_rejects_composite_p(self):
        with pytest.raises(ValueError):
            GroupTree(4, {"r": None})

    def test_rejects_rootless_and_multiroot(self):
        with pytest.raises(ValueError):
            GroupTree(2, {"a": "b", "b": "a"})
        with pytest.raises(ValueError):
            GroupTree(2, {"a": None, "b": None})

    def test_rejects_unknown_parent(self):
        with pytest.raises(ValueError):
            GroupTree(2, {"r": None, "a": "ghost"})

    def test_rejects_cycle(self):
        with pytest.raises(ValueError):
            GroupTree(2, {"r": None, "a": "b", "b": "a"})


class TestNormalForm:
    def test_chain_is_cyclic(self):
        t = chain(2, 3)
        g = t.node("c3")
        assert g.order() == 8
        acc = t.zero()
        seen = set()
        for _ in range(8):
            acc = acc + g
            seen.add(acc)
        assert len(seen) == 8
        assert acc == t.zero() or len(seen) == 8

    def test_p_times_node_is_parent(self):
        t = chain(3, 2)
        assert t.node("c2").times_p() == t.node("c1")
        assert t.node("c1").times_p() == t.zero()
        assert 3 * t.node("c2") == t.node("c1")

    def test_carry_cascade(self):
        t = chain(2, 2)
        # c2 + c2 = c1, c2+c2+c2+c2 = 0
        assert t.element({"c2": 2}) == t.node("c1")
        assert t.element({"c2": 4}) == t.zero()
        assert t.element({"c2": 2, "c1": 1}) == t.zero()

    def test_negative_coefficients(self):
        t = chain(5, 2)
        x = t.node("c2")
        assert x + (-x) == t.zero()
        assert -t.zero() == t.zero()
        # -1 = 24 mod 25 and 24 = 4*5 + 4
        assert t.element({"c2": -1}) == t.element({"c2": 4, "c1": 4})

    def test_size_and_count(self):
        t = GroupTree(2, MIXED)
        assert t.size == 8
        assert len(list(t.elements())) == 8
        assert len(set(t.elements())) == 8

    @given(st.integers(0, 3**4 - 1), st.integers(0, 3**4 - 1))
    def test_group_laws_sampled(self, i, j):
        t = GroupTree(3, {"r": None, "a": "r", "b": "a", "c": "r", "d": "c"})
        xs = list(t.elements())
        x, y = xs[i % len(xs)], xs[j % len(xs)]
        assert x + y == y + x
        assert (x + y) - y == x

    def test_associativity_exhaustive_small(self):
        t = GroupTree(2, MIXED)
        xs = list(t.elements())
        for x, y, z in itertools.product(xs, repeat=3):
            assert (x + y) + z == x + (y + z)


class TestOrdersHeights:
    def test_orders_mixed(self):
        t = GroupTree(2, MIXED)
        assert t.node("b").order() == 4
        assert t.node("a").order() == 2
        assert t.node("c").order() == 2
        assert t.zero().order() == 1

    def test_height_rule_matches_chain_exhaustively(self):
        shapes = [
            {"r": None, "a": "r"},
            MIXED,
            {"r": None, "a": "r", "b": "a", "c": "b"},
            {"r": None, "a": "r", "b": "a", "c": "a", "d": "r"},
            {"r": None, "a": "r", "b": "r", "c": "a", "d": "b", "e": "d"},
        ]
        for p in (2, 3):
            for shape in shapes:
                t = GroupTree(p, shape)
                for x in t.elements():
                    assert x.height() == height_of_by_chain(t, x), (
                        p,
                        shape,
                        x,
                    )

    def test_height_of_zero(self):
        t = chain(2, 1)
        assert t.zero().height() is INFINITY

    def test_length(self):
        assert chain(2, 4).length() == 4
        assert star(3, 2).length() == 1
        assert GroupTree(2, {"r": None}).length() == 0

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([2, 3]),
        st.lists(st.integers(0, 5), min_size=1, max_size=5),
        st.lists(st.integers(-9, 9), min_size=5, max_size=5),
    )
    def test_height_rule_matches_chain_on_random_trees(self, p, picks, coeffs):
        # node i + 1 hangs below node (picks[i] mod (i + 1)); 0 is the root
        parent = {"n0": None}
        for i, k in enumerate(picks):
            parent[f"n{i + 1}"] = f"n{k % (i + 1)}"
        t = GroupTree(p, parent)
        x = t.element({f"n{i + 1}": c for i, c in zip(range(len(picks)), coeffs)})
        assert x.height() == height_of_by_chain(t, x)

    def test_pk_chain_shrinks_to_zero(self):
        t = GroupTree(2, MIXED)
        sizes = [len(layer) for layer in pk_chain(t)]
        assert sizes == [8, 2, 1]

    def test_pk_chain_refuses_groups_above_the_bound(self):
        t = star(3, 11)  # 3^11 elements, one factor of 3 past DEFAULT_BOUND
        assert t.size > DEFAULT_BOUND
        with pytest.raises(BoundExceeded):
            pk_chain(t)


class TestSubspaces:
    def test_socle_dims(self):
        t = GroupTree(2, MIXED)  # Z_4 + Z_2: socle = Z_2 x Z_2
        assert sum(x.times_p().is_zero for x in t.fragment.elements()) == 4
        _, d0 = t.p_beta_space(0)
        _, d1 = t.p_beta_space(1)
        _, d2 = t.p_beta_space(2)
        assert (d0, d1, d2) == (2, 1, 0)

    @pytest.mark.parametrize(
        "p, vec",
        [
            (p, vec)
            for p, most in ((2, 6), (3, 5))
            for n in range(most + 1)
            for vec in tree_shapes(n)
        ],
    )
    def test_socle_dims_match_enumeration(self, p, vec):
        t = tree_of(p, vec)
        # pk_chain runs G, pG, ... down to {0}: one entry per k = 0 .. length
        want = tuple(t.p_beta_space(k)[1] for k in range(len(pk_chain(t))))
        assert t.socle_dims == want

    def test_p_beta_basis_spans(self):
        t = star(3, 3)
        basis, dim = t.p_beta_space(0)
        assert dim == 3
        assert len(t.fragment.subgroup(basis)) == 27

    @pytest.mark.parametrize(
        "p, vec",
        [
            (p, vec)
            for p, most in ((2, 6), (3, 5))
            for n in range(most + 1)
            for vec in tree_shapes(n)
        ],
    )
    def test_p_beta_space_matches_enumeration(self, p, vec):
        # the defining set {x : px = 0, h(x) >= beta}, enumerated
        t = tree_of(p, vec)
        socle = [x for x in t.elements() if x.times_p().is_zero]
        for beta in range(6):
            want = {x for x in socle if x.is_zero or x.height() >= nat(beta)}
            basis, dim = t.p_beta_space(beta)
            assert len(basis) == dim and p**dim == len(want)
            assert t.fragment.subgroup(basis) == want

    def test_subgroup_closure(self):
        t = GroupTree(2, MIXED)
        sub = t.fragment.subgroup([t.node("b")])
        assert len(sub) == 4
        assert t.node("a") in sub

    def test_bound_exceeded_is_loud(self):
        t = star(3, 11)
        with pytest.raises(BoundExceeded):
            list(t.elements())


class TestGeneratedIso:
    def test_matching_chains(self):
        t1, t2 = chain(2, 3), chain(2, 3)
        f = generated_iso(t1, [t1.node("c3")], t2, [t2.node("c3")])
        assert f is not None
        assert len(f) == 8
        assert f[t1.node("c1")] == t2.node("c1")

    def test_order_mismatch_fails(self):
        t1, t2 = chain(2, 2), chain(2, 1)
        assert generated_iso(t1, [t1.node("c2")], t2, [t2.node("c1")]) is None

    def test_non_injective_fails(self):
        t = GroupTree(2, MIXED)
        # a and c both have order 2 but (a, c) -> (a, a) collapses a-c
        assert (
            generated_iso(t, [t.node("a"), t.node("c")], t, [t.node("a"), t.node("a")])
            is None
        )

    def test_automorphism_of_star(self):
        t = star(2, 2)
        x, y = t.node("l0"), t.node("l1")
        f = generated_iso(t, [x, y], t, [y, x])
        assert f is not None
        assert f[x + y] == x + y

    def test_empty_tuples(self):
        t = chain(2, 1)
        f = generated_iso(t, [], t, [])
        assert f == {t.zero(): t.zero()}

    def test_cross_prime_rejected_by_orders(self):
        t1, t2 = chain(2, 1), chain(3, 1)
        assert generated_iso(t1, [t1.node("c1")], t2, [t2.node("c1")]) is None


class TestCyclicDecomposition:
    @pytest.mark.parametrize("p, max_nodes", [(2, 5), (3, 4)])
    def test_coordinates_are_an_isomorphism(self, p, max_nodes):
        # bijective, additive, inverted by decode, heights as valuations,
        # and one summand Z/p^(k+1) per invariant u_k
        for t in corpus_trees(max_nodes, (p,)):
            d = t.decomposition
            counts = [sum(1 for e in d.exponents if e == k + 1) for k in range(t.length())]
            assert counts == [a - b for a, b in zip(t.socle_dims, t.socle_dims[1:])]
            elems = list(t.elements())
            coords = {x: d.encode(x) for x in elems}
            assert len(set(coords.values())) == t.size
            for x in elems:
                assert d.decode(coords[x]) == x
                vals = [
                    min(k for k in range(e) if z % p ** (k + 1))
                    for z, e in zip(coords[x], d.exponents)
                    if z
                ]
                assert x.height() == (nat(min(vals)) if vals else INFINITY)
            for x, y in itertools.islice(itertools.product(elems, elems), 0, None, 7):
                want = tuple((a + b) % m for a, b, m in zip(coords[x], coords[y], d.moduli))
                assert coords[x + y] == want

    def test_coordinate_helpers_on_the_corpus(self):
        # height_of reads h off coordinates, encode answers from its memo
        # what a decomposition with empty memos computes, and socle_vector
        # gives the GF(p) coordinates of v or v - w
        for t in corpus_trees(5, (2, 3)):
            d, fresh, p = t.decomposition, CyclicDecomposition(t), t.p
            for z in itertools.product(*map(range, d.moduli)):
                x = d.decode(z)
                assert d.height_of(z) == x.height()
                assert d.encode(x) == z
            for x in t.elements():
                assert d.encode(x) is d.encode(x)
                assert d.encode(x) == fresh.encode(x)

            def socle_k(x):
                return tuple(c * p // m for c, m in zip(d.encode(x), d.moduli))

            for u in t.nodes:
                cs = t.children[u]
                for v in cs:
                    if u == t.root:
                        assert d.socle_vector(v) == socle_k(t.node(v))
                    for w in cs:
                        if u != t.root and w != v:
                            want = socle_k(t.node(v) - t.node(w))
                            assert d.socle_vector(v, w) == want

    def test_decomposition_memos_die_with_their_tree(self):
        # one entry per element however often each is asked for, and freed
        # with the collector paused, as bench/run.py runs a pass: no memo
        # ties the decomposition to its tree in a cycle
        gc.collect()
        gc.disable()
        try:
            t = GroupTree(3, {"r": None, "a": "r", "b": "a", "c": "a", "d": "r"})
            d = t.decomposition
            for _ in range(2):
                for x in t.elements():
                    z = d.encode(x)
                    assert d.decode(z) == x
                    d.order_of(z)
            d.socle_layer(0, True)
            assert [len(m) for m in (d._encoded, d._decoded, d._orders)] == [t.size] * 3
            assert d._layers
            refs = [weakref.ref(t), weakref.ref(d)]
            del t, d, x, z
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_memoized_orders_and_heights_are_the_valuations(self, data):
        # random trees, each element's coordinates asked for again and again
        p = data.draw(st.sampled_from([2, 3]))
        parent = {"r": None}
        for i in range(data.draw(st.integers(1, 6 if p == 2 else 4))):
            parent[f"n{i}"] = data.draw(st.sampled_from(sorted(parent)))
        t = GroupTree(p, parent)
        d = t.decomposition
        zs = [d.encode(x) for x in t.elements()]
        asked = zs + data.draw(st.lists(st.sampled_from(zs), max_size=40)) + zs

        def val(c):
            k = 0
            while not c % p:
                c //= p
                k += 1
            return k

        for z in asked:
            vals = [(val(c), e) for c, e in zip(z, d.exponents) if c]
            assert d.order_of(z) == p ** max((e - v for v, e in vals), default=0)
            assert d.height_of(z) == (nat(min(v for v, _ in vals)) if vals else INFINITY)
            x = d.decode(z)
            assert (d.order_of(z), d.height_of(z)) == (x.order(), x.height())
        assert len(d._orders) == t.size

    def test_socle_layers(self):
        for t in corpus_trees(5, (2,)) + corpus_trees(4, (3,)):
            d, p, dims = t.decomposition, t.p, t.socle_dims
            for r in range(t.length()):
                for exact in (False, True):
                    layer = d.socle_layer(r, exact)
                    size = p ** dims[r] - (p ** dims[r + 1] if exact else 0)
                    assert len(layer) == size
                    for s in layer.values():
                        x = d.decode(s)
                        assert x.times_p().is_zero
                        h = x.height()
                        assert h == nat(r) if exact else (x.is_zero or h >= nat(r))


class TestLargeChainFragment:
    """A node's p-image is the one pair (parent index, 1), so a chain's
    fragment is linear in its length; dense p-images made a 6,000-node
    chain take about 1.3 s and hold 148 MB."""

    def test_a_6000_node_chain(self):
        parent = {"r": None}
        parent.update({f"c{i}": f"c{i - 1}" if i > 1 else "r" for i in range(1, 6001)})
        t = GroupTree(2, parent)
        start = time.perf_counter()
        f = t.fragment
        assert time.perf_counter() - start < 0.3
        u = GroupTree(2, parent)
        tracemalloc.start()
        try:
            g = u.fragment
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 10 * 2**20 and g.rank == 6000
        assert f.gens[-1].pimage == ((5998, 1),)
        assert 2 * t.node("c2") == t.node("c1") and t.node("c1").order() == 2


class TestGeneratedIsoRoutes:
    def test_tree_coordinates_agree_with_fragment_arithmetic(self):
        # two trees go through their fragments' coefficient tuples, the
        # reference through element pairs of the same fragments; the same
        # pins must give the same answer
        rng = random.Random("generated-iso-routes")
        trees = corpus_trees(4, (2, 3))
        for _ in range(400):
            A = rng.choice(trees)
            B = rng.choice([t for t in trees if t.p == A.p])
            k = rng.randint(0, 2)
            abar = [rng.choice(list(A.elements())) for _ in range(k)]
            bbar = [rng.choice(list(B.elements())) for _ in range(k)]
            if rng.random() < 0.3:  # a correspondence that always extends
                B, bbar = A, abar
            got = generated_iso(A, abar, B, bbar)
            frag = generated_iso_by_pairs(A.fragment, abar, B.fragment, bbar)
            assert (got is None) == (frag is None), (A.parent, abar, B.parent, bbar)
            if got is not None:
                assert len(got) == len(frag)
                for x, y in got.items():
                    assert frag[x] == y


def grown_fragments(p: int):
    """A fragment grown from nothing, as ``extended_fragments`` grows one."""
    return extended_fragments(Fragment(p))


@st.composite
def extended_fragments(draw, f: Fragment, most: int = 4) -> Fragment:
    """f grown by 1 to `most` generators, one at a time: a height in 0..3
    and a p-image over the earlier generators that sit strictly higher."""
    p = f.p
    for _ in range(draw(st.integers(1, most))):
        h = draw(st.integers(0, 3))
        vec = [
            draw(st.integers(0, p - 1)) if g.height >= nat(h + 1) else 0
            for g in f.gens
        ]
        f = f.extend(f.element(vec), nat(h))
    return f


def fragment_elements(f: Fragment):
    return st.lists(
        st.integers(0, f.p - 1), min_size=f.rank, max_size=f.rank
    ).map(f.element)


_TREES = corpus_trees(4, (2, 3))
_TREES5 = corpus_trees(5, (2, 3))  # with the 5-node p=3 shapes


class TestGeneratedIsoTupleRoute:
    """The coordinate-tuple tower against the element-pair reference."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_fragments_match_the_element_pair_route(self, data):
        p = data.draw(st.sampled_from([2, 3]))
        A = data.draw(grown_fragments(p))
        B = A if data.draw(st.booleans()) else data.draw(grown_fragments(p))
        k = data.draw(st.integers(0, 3))
        abar = [data.draw(fragment_elements(A)) for _ in range(k)]
        if B is A and data.draw(st.booleans()):
            # a reordering of the tuple: extends exactly when the
            # permutation respects every relation among the entries
            bbar = data.draw(st.permutations(abar))
        else:
            bbar = [data.draw(fragment_elements(B)) for _ in range(k)]
        want = generated_iso_by_pairs(A, abar, B, bbar)
        assert generated_iso(A, abar, B, bbar) == want
        assert _generated_iso_exists(A, abar, B, bbar) == (want is not None)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_existence_helper_on_trees(self, data):
        A = data.draw(st.sampled_from(_TREES))
        B = data.draw(st.sampled_from([t for t in _TREES if t.p == A.p]))
        k = data.draw(st.integers(0, 3))
        abar = [data.draw(st.sampled_from(list(A.elements()))) for _ in range(k)]
        bbar = [data.draw(st.sampled_from(list(B.elements()))) for _ in range(k)]
        got = generated_iso(A, abar, B, bbar)
        assert _generated_iso_exists(A, abar, B, bbar) == (got is not None)
        assert got == generated_iso_by_pairs(A, abar, B, bbar)
        # a tree against a fragment adds in coefficient tuples
        assert generated_iso(A, abar, B.fragment, bbar) == got
        assert generated_iso(A.fragment, abar, B, bbar) == got

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_order_route_on_trees(self, data):
        # two trees count orders; the element-pair route lists the pairs
        A = data.draw(st.sampled_from(_TREES5))
        twins = [t for t in _TREES5 if t.p == A.p and t.socle_dims == A.socle_dims]
        B = data.draw(st.sampled_from(twins if data.draw(st.booleans()) else _TREES5))
        k = data.draw(st.integers(0, 4))
        elems_a, elems_b = list(A.elements()), list(B.elements())
        abar = [data.draw(st.sampled_from(elems_a)) for _ in range(k)]
        how = data.draw(st.sampled_from(["draw", "reorder", "multiples"]))
        if how == "reorder" and B is A:
            bbar = data.draw(st.permutations(abar))
        else:
            bbar = [data.draw(st.sampled_from(elems_b)) for _ in range(k)]
        if how == "multiples" and k:
            # p-multiples of entries, on either side, make some maps ill
            # defined or non-injective
            for tup in (abar, bbar):
                i = data.draw(st.integers(0, k - 1))
                tup[i] = tup[data.draw(st.integers(0, k - 1))].times_p()
        want = generated_iso_by_pairs(A, abar, B, bbar) is not None
        assert _generated_iso_exists(A, abar, B, bbar) == want
        assert _generated_iso_exists(B, bbar, A, abar) == want

    def test_order_route_cases(self):
        t = GroupTree(3, {"r": None, "a": "r", "b": "a", "c": "r", "d": "c"})
        a, b, c, d = (t.node(v) for v in "abcd")
        # b and d generate Z9 + Z9; a sum of them is no new direction
        assert _generated_iso_exists(t, [b, d], t, [d, b])
        assert _generated_iso_exists(t, [b, d, b + d], t, [d, b, b + d])
        assert not _generated_iso_exists(t, [b, d, b + d], t, [d, b, b - d])
        # 3b = a, so b -> d, a -> c is well defined, a -> a is not
        assert _generated_iso_exists(t, [b, a], t, [d, c])
        assert not _generated_iso_exists(t, [b, a], t, [d, a])
        # equal entry orders, but a -> a, c -> a is not injective
        assert not _generated_iso_exists(t, [a, c], t, [a, a])

    def test_order_route_across_primes(self):
        # only empty or zero tuples correspond, as on the pair tower
        t2, t3 = chain(2, 2), chain(3, 2)
        assert _generated_iso_exists(t2, [], t3, [])
        assert _generated_iso_exists(t2, [t2.zero(), t2.zero()], t3, [t3.zero()] * 2)
        assert not _generated_iso_exists(t2, [t2.node("c1")], t3, [t3.node("c1")])
        assert not _generated_iso_exists(
            t2, [t2.zero(), t2.node("c2")], t3, [t3.zero(), t3.zero()]
        )

    def test_order_route_refusals(self):
        t, u = chain(2, 2), chain(2, 2)
        with pytest.raises(ValueError, match="equal length"):
            _generated_iso_exists(t, [t.node("c1")], u, [])
        with pytest.raises(ValueError, match="does not belong"):
            _generated_iso_exists(t, [u.node("c1")], u, [u.node("c1")])
        with pytest.raises(ValueError, match="does not belong"):
            _generated_iso_exists(t, [t.node("c1")], u, [t.node("c1")])

    def test_element_orders_on_the_corpus(self):
        for t in _TREES:
            d = t.decomposition
            for x in t.elements():
                assert d.order_of(d.encode(x)) == x.order()

    def _z2_z4(self):
        z2 = Fragment(2, (FragmentGen("a", (), nat(0)),))
        z4 = Fragment(
            2, (FragmentGen("c", (), nat(1)), FragmentGen("b", ((0, 1),), nat(0)))
        )
        return z2, z4

    def test_ill_defined_fragment_correspondence(self):
        # 2a = 0 but 2b = c != 0
        z2, z4 = self._z2_z4()
        a, b = z2.gen_named("a"), z4.gen_named("b")
        assert generated_iso_by_pairs(z2, [a], z4, [b]) is None
        assert generated_iso(z2, [a], z4, [b]) is None
        assert not _generated_iso_exists(z2, [a], z4, [b])

    def test_non_injective_fragment_correspondence(self):
        # b -> a is well defined (4b = 0 = 4a) but sends 2b = c to 0
        z2, z4 = self._z2_z4()
        a, b = z2.gen_named("a"), z4.gen_named("b")
        assert generated_iso_by_pairs(z4, [b], z2, [a]) is None
        assert generated_iso(z4, [b], z2, [a]) is None
        assert not _generated_iso_exists(z4, [b], z2, [a])

    def test_carries_cross_the_pair(self):
        # b -> b in Z4 needs the carry 2b = c on both halves of each pair
        _, z4 = self._z2_z4()
        b, c = z4.gen_named("b"), z4.gen_named("c")
        got = generated_iso(z4, [b], z4, [b])
        assert got == {z4.zero(): z4.zero(), b: b, c: c, b + c: b + c}
        assert got == generated_iso_by_pairs(z4, [b], z4, [b])

    def test_foreign_elements_refused(self):
        z2, z4 = self._z2_z4()
        with pytest.raises(ValueError):
            generated_iso(z2, [z4.gen(0)], z4, [z4.gen(0)])
        with pytest.raises(ValueError):
            z2.subgroup([z4.gen(0)])

    def test_equal_tuples_of_another_fragment_are_no_inclusion(self):
        # equal tuples in one fragment are an inclusion only when their
        # entries live in that fragment
        z2, z4 = self._z2_z4()
        b = z4.gen_named("b")
        assert _is_inclusion(z4, (b,), z4, (b,))
        assert not _is_inclusion(z2, (b,), z2, (b,))
        with pytest.raises(ValueError):
            _generated_iso_exists(z2, (b,), z2, (b,))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_inclusion_route_matches_the_element_pair_route(self, data):
        # a tuple against itself in an extension of its fragment lists no
        # tower; one perturbed entry sends the pair back to the tower
        f = data.draw(grown_fragments(data.draw(st.sampled_from([2, 3]))))
        ext = data.draw(extended_fragments(f, 2))
        abar = [data.draw(fragment_elements(f)) for _ in range(data.draw(st.integers(0, 3)))]
        moved = [ext.migrate(x) for x in abar]
        cases = [(f, abar, ext, moved), (ext, moved, f, abar), (f, abar, f, list(abar))]
        if abar:
            i = data.draw(st.integers(0, len(abar) - 1))
            other = data.draw(fragment_elements(ext).filter(lambda y: y != moved[i]))
            bent = moved[:i] + [other] + moved[i + 1 :]
            assert not _is_inclusion(f, abar, ext, bent)
            cases.append((f, abar, ext, bent))
        for A, xs, B, ys in cases:
            want = generated_iso_by_pairs(A, xs, B, ys) is not None
            assert _generated_iso_exists(A, xs, B, ys) == want

    def test_inclusion_lists_no_tower(self, monkeypatch):
        import ulmkit.pgroup

        towers = []
        real = ulmkit.pgroup._pair_tower

        def counted(*args):
            towers.append(args)
            return real(*args)

        monkeypatch.setattr(ulmkit.pgroup, "_pair_tower", counted)
        _, z4 = self._z2_z4()
        b, c = z4.gen_named("b"), z4.gen_named("c")
        big = z4.extend(z4.zero(), nat(0))  # Z4 + Z2
        d = big.gen(z4.rank)
        # b -> b and c -> c in Z4 < Z4 + Z2 hold without listing, either
        # way round
        assert _generated_iso_exists(z4, [b, c], big, [big.migrate(b), big.migrate(c)])
        assert _generated_iso_exists(big, [big.migrate(c)], z4, [c])
        assert _generated_iso_exists(z4, [], big, [])
        assert towers == []
        # b -> d is no inclusion: the tower lists it and refuses (2d = 0)
        assert not _generated_iso_exists(z4, [b], big, [d])
        assert len(towers) == 1
        # foreign entries and unequal lengths still reach the tower's refusals
        with pytest.raises(ValueError, match="does not belong"):
            _generated_iso_exists(z4, [big.migrate(b)], big, [big.migrate(b)])
        with pytest.raises(ValueError, match="equal length"):
            _generated_iso_exists(z4, [b], big, [])

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_subgroup_matches_element_arithmetic(self, data):
        f = data.draw(grown_fragments(data.draw(st.sampled_from([2, 3]))))
        gens = data.draw(st.lists(fragment_elements(f), max_size=3))
        want = {f.zero()}
        while True:
            more = {x + g for x in want for g in gens} | want
            if more == want:
                break
            want = more
        assert f.subgroup(gens) == frozenset(want)
