from __future__ import annotations

import contextlib
import gc
import random
import signal
import time
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from ulmkit.baf import (
    CreationRecord,
    ExtendResult,
    ExtensionError,
    _answer_heights,
    _find_explicit_image,
    check_extension,
    extend_tuple,
    find_embedding,
    leq_barker,
    leq_paper,
    leq_std_game,
    relation,
)
from ulmkit.fragments import (
    Fragment,
    FragmentGen,
    ProfiledGroup,
    canonical_fragment,
    from_tree,
)
from ulmkit.ordinal import (
    OMEGA,
    canonical_cofinal,
    height_min,
    nat,
    omega_times,
    parity_split,
    parse_ordinal,
)
from ulmkit.pgroup import BoundExceeded, GroupTree, generated_iso
from ulmkit.ulm import (
    OMEGA_VALUE,
    Clause,
    Profile,
    invariants_of,
    make_G_hat,
    profiles_agree_on,
)
from ulmkit.verify import corpus_trees, leq_game_reference


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


def sparse(vec):
    """A p-image given by its coefficient vector, as (index, coefficient)
    pairs over its support."""
    return tuple((j, c) for j, c in enumerate(vec) if c)


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

    def test_groups_beyond_the_element_bound(self):
        # 2^16 to 2^20 elements, above DEFAULT_BOUND: only the pinned
        # subgroup and socle elements are enumerated, never the group
        a, b = chain(2, 16), chain(2, 17)
        found = find_embedding(a, [a.node("c3")], b, [b.node("c3")])
        assert found is not None and found["c3"] == b.node("c3")
        parent = {"r": None, **{f"l{i}": "r" for i in range(9)}}
        parent.update({f"c{i}": f"c{i - 1}" if i > 1 else "r" for i in range(1, 12)})
        broom = GroupTree(2, parent)  # Z_(2^11) + (Z_2)^9
        l0, l1, c1 = broom.node("l0"), broom.node("l1"), broom.node("c1")
        found = find_embedding(broom, [l0], broom, [l1], onto=True)
        assert found is not None and found["l0"] == l1
        assert find_embedding(broom, [l0], broom, [c1]) is None  # height 0 -> 10

    def test_large_socle_is_refused(self):
        # (Z_2)^30: every candidate layer is the whole group
        big = star(2, 30)
        start = time.perf_counter()
        with pytest.raises(BoundExceeded):
            find_embedding(big, [], big, [], onto=True)
        with pytest.raises(BoundExceeded):
            leq_std_game(big, [], big, [], 1)
        assert time.perf_counter() - start < 1.0

    def test_result_is_cached(self):
        a, b = chain(2, 2), chain(2, 3)
        assert find_embedding(a, [], b, []) is find_embedding(a, [], b, [])


def brute_force_embeddings(src: GroupTree, dst: GroupTree) -> list[tuple[int, ...]]:
    """Every injective homomorphism src -> dst, by trying all node images.

    Integer tables of dst keep this independent of the search under test.
    A map is the tuple of dst-element indices of the src elements in
    `sorted(src.elements(), key=terms)` order; a node prefix whose
    images already collide is dropped.
    """
    elems = sorted(dst.elements(), key=lambda e: e.terms())
    index = {e: i for i, e in enumerate(elems)}
    add = [[index[a + b] for b in elems] for a in elems]
    pmul = [index[e.times_p()] for e in elems]
    order = sorted(src.nonroot, key=src.depth)
    p, found = src.p, []

    def extend(i: int, images: list[int], node_img: dict) -> None:
        if len(set(images)) < len(images):
            return
        if i == len(order):
            found.append(images)
            return
        v = order[i]
        target = node_img.get(src.parent[v], 0)  # the root maps to zero
        for y in range(len(elems)):
            if pmul[y] == target:
                multiples = [0]
                for _ in range(p - 1):
                    multiples.append(add[multiples[-1]][y])
                node_img[v] = y
                extend(i + 1, [add[a][m] for a in images for m in multiples], node_img)
        node_img.pop(v, None)

    extend(0, [0], {})
    # images[j] belongs to the element with digit c_k (k-th node of
    # `order`) in place p^(n-1-k); reindex by sorted src elements
    digit_pos = {v: p ** (len(order) - 1 - k) for k, v in enumerate(order)}
    src_elems = sorted(src.elements(), key=lambda e: e.terms())
    slot = [sum(c * digit_pos[v] for v, c in x.terms()) for x in src_elems]
    return [tuple(m[j] for j in slot) for m in found]


def check_witness(src, src_pins, dst, dst_pins, f) -> None:
    assert f[src.root] == dst.zero()
    for v in src.nonroot:
        assert f[v].times_p() == f[src.parent[v]]
    images = {}
    for x in src.elements():
        y = dst.zero()
        for v, c in x.terms():
            y = y + c * f[v]
        images[x] = y
    assert len(set(images.values())) == src.size
    assert all(images[x] == y for x, y in zip(src_pins, dst_pins))


class TestEmbeddingAgainstBruteForce:
    """find_embedding against all injective maps, on every pair of trees
    with p = 2 and at most 4 nodes or p = 3 and at most 3 nodes: distinct
    trees with equal invariants, with unequal ones, and each tree against
    itself, with 0-2 pins drawn from all elements; and socle pins on small
    stars and mixed shapes. Every map found is checked as a witness."""

    @pytest.mark.parametrize("p, max_nodes", [(2, 4), (3, 3)])
    def test_answers_and_witnesses(self, p, max_nodes):
        rng = random.Random(f"brute-force/{p}")
        trees = corpus_trees(max_nodes, (p,))
        checked = 0
        for src in trees:
            src_elems = sorted(src.elements(), key=lambda e: e.terms())
            slot = {x: j for j, x in enumerate(src_elems)}
            for dst in trees:
                maps = brute_force_embeddings(src, dst)
                dst_elems = sorted(dst.elements(), key=lambda e: e.terms())
                queries = []
                for k in (0, 1, 2):
                    for _ in range(2):
                        xs = tuple(rng.choice(src_elems) for _ in range(k))
                        queries.append((xs, tuple(rng.choice(dst_elems) for _ in xs)))
                        if maps:  # the pins of an existing embedding
                            m = rng.choice(maps)
                            queries.append((xs, tuple(dst_elems[m[slot[x]]] for x in xs)))
                for xs, ys in queries:
                    want = any(
                        all(dst_elems[m[slot[x]]] == y for x, y in zip(xs, ys))
                        for m in maps
                    )
                    for onto in (False, True):
                        got = find_embedding(src, xs, dst, ys, onto=onto)
                        expect = want and (not onto or src.size == dst.size)
                        assert (got is not None) == expect, (src.parent, dst.parent, xs, ys, onto)
                        if got is not None:
                            check_witness(src, xs, dst, ys, got)
                        checked += 1
        assert checked > 1000

    # small stars and mixed shapes, where socle pins act on the search's
    # socle echelon: (Z2)^4, Z4+Z2+Z2, Z4+Z2, (Z2)^2; (Z3)^3, Z9+Z3, (Z3)^2
    SOCLE_SHAPES = [
        star(2, 4),
        GroupTree(2, {"r": None, "a": "r", "b": "a", "c": "r", "d": "r"}),
        mixed(2),
        star(2, 2),
        star(3, 3),
        mixed(3),
        star(3, 2),
    ]

    def test_socle_pins(self):
        """Pins of length 1-2 drawn from the socles, at random and from
        existing embeddings, on every same-prime pair of SOCLE_SHAPES."""
        rng = random.Random("brute-force/socle")
        checked = found = 0
        for src in self.SOCLE_SHAPES:
            src_elems = sorted(src.elements(), key=lambda e: e.terms())
            slot = {x: j for j, x in enumerate(src_elems)}
            src_socle = [x for x in src_elems if x.times_p().is_zero]
            for dst in self.SOCLE_SHAPES:
                if dst.p != src.p:
                    continue
                maps = brute_force_embeddings(src, dst)
                dst_elems = sorted(dst.elements(), key=lambda e: e.terms())
                dst_socle = [y for y in dst_elems if y.times_p().is_zero]
                queries = []
                for k in (1, 2):
                    for _ in range(4):
                        xs = tuple(rng.choice(src_socle) for _ in range(k))
                        queries.append((xs, tuple(rng.choice(dst_socle) for _ in xs)))
                        if maps:
                            m = rng.choice(maps)
                            queries.append((xs, tuple(dst_elems[m[slot[x]]] for x in xs)))
                for xs, ys in queries:
                    want = any(
                        all(dst_elems[m[slot[x]]] == y for x, y in zip(xs, ys))
                        for m in maps
                    )
                    for onto in (False, True):
                        got = find_embedding(src, xs, dst, ys, onto=onto)
                        expect = want and (not onto or src.size == dst.size)
                        assert (got is not None) == expect, (src.parent, dst.parent, xs, ys, onto)
                        if got is not None:
                            check_witness(src, xs, dst, ys, got)
                            found += 1
                        checked += 1
        assert checked > 500 and found > 100

    # Trees whose placement order is not depth order. The search places
    # touched nodes (a pin's support and its ancestors) first, then higher
    # ranks, then shallower nodes:
    #   zc4: pin b and b (depth 2) comes before the leaf l;
    #   z8: pin x (or none) and y (rank 1, depth 2) comes before l;
    #   broom: pin l1 and the touched l1 comes between the orbit {l0, l2};
    #   fork: pin u1 and u1 is u's first placed child, so the sigmas of u0
    #   and u2 are u0 - u1 and u2 - u1, with u0 < u2 an orbit around it;
    #   zc44: pin b and the deeper b comes before the orbit {l0, l1}; pin
    #   l1 and it is the root's first placed child, ahead of a and l0.
    ORDER_SHAPES = {
        "zc4": (GroupTree(2, {"r": None, "a": "r", "b": "a", "l": "r"}), "b"),
        "z8": (GroupTree(2, {"r": None, "x": "r", "y": "x", "z": "y", "l": "r"}), "x"),
        "broom": (star(2, 3), "l1"),
        "fork": (GroupTree(2, {"r": None, "u": "r", "u0": "u", "u1": "u", "u2": "u"}), "u1"),
        "zc44": (GroupTree(2, {"r": None, "a": "r", "b": "a", "l0": "r", "l1": "r"}), "b"),
    }

    @staticmethod
    def placement_order(src, pinned):
        """The order `_find_embedding_uncached` documents: touched nodes,
        then descending rank, then depth, then name."""
        touched = {src.root}
        for v in pinned:
            while v not in touched:
                touched.add(v)
                v = src.parent[v]
        return sorted(
            src.nonroot, key=lambda v: (v not in touched, -src.rank(v), src.depth(v), v)
        )

    @pytest.mark.parametrize("name", sorted(ORDER_SHAPES))
    def test_placement_order_is_not_depth_order(self, name):
        """Every 0- and 1-pin query, and every 2-pin query that pins the
        named node and one more nonzero element, each pin having an
        embedding alone, from the named tree into every ORDER_SHAPES tree
        it fits in, answers as the brute force does; every map found is
        checked as a witness."""
        src, pin = self.ORDER_SHAPES[name]
        order = self.placement_order(src, [pin])
        assert order != sorted(order, key=lambda v: (src.depth(v), v)), order
        src_elems = sorted(src.elements(), key=lambda e: e.terms())
        named = src_elems.index(src.node(pin))
        pairs = [(named, j) for j in range(1, len(src_elems)) if j != named]
        checked = found = 0
        for dst, _ in self.ORDER_SHAPES.values():
            if dst.size < src.size:
                continue
            maps = brute_force_embeddings(src, dst)
            dst_elems = sorted(dst.elements(), key=lambda e: e.terms())
            alone = [{m[i] for m in maps} for i in range(len(src_elems))]
            queries = [((), ())]
            queries += [((i,), (a,)) for i in range(len(src_elems)) for a in range(len(dst_elems))]
            queries += [
                ((i, j), (a, b)) for i, j in pairs for a in alone[i] for b in alone[j]
            ]
            for xs, ys in queries:
                want = any(all(m[i] == a for i, a in zip(xs, ys)) for m in maps)
                src_pins = tuple(src_elems[i] for i in xs)
                dst_pins = tuple(dst_elems[a] for a in ys)
                for onto in (False, True) if src.size == dst.size else (False,):
                    got = find_embedding(src, src_pins, dst, dst_pins, onto=onto)
                    assert (got is not None) == want, (name, dst.parent, src_pins, dst_pins, onto)
                    if got is not None:
                        check_witness(src, src_pins, dst, dst_pins, got)
                        found += 1
                    checked += 1
        assert 100 < found < checked


@contextlib.contextmanager
def alarm(seconds: float):
    """Fail the test when the block is still running after `seconds` of
    wall time: a SIGALRM interrupts it, instead of letting it hang."""

    def ring(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    expired = False
    try:
        yield
    except TimeoutError:
        expired = True  # failed below, outside the interrupted frames
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if expired:
        pytest.fail(f"still running after {seconds} s", pytrace=False)


class TestStarScaling:
    """The p-star (Z_p)^k with the sum of all leaves pinned to a target in
    the span of the last two summands. The target lies in the span of the
    first socle images long before the pin's last support node is placed,
    so the search has to refuse contradicting images where they are made;
    checking the pin only at its last node took over 100 s at (Z3)^6."""

    @pytest.mark.parametrize("p, k", [(3, 5), (2, 6), (3, 6), (2, 8)])
    def test_sum_of_leaves_pinned(self, p, k):
        t = star(p, k)
        a = (t.element({f"l{i}": 1 for i in range(k)}),)
        b = (t.decomposition.decode((0,) * (k - 2) + (1, 1)),)
        with alarm(5.0):
            start = time.perf_counter()
            assert leq_std_game(t, a, t, b, 2)
            took = time.perf_counter() - start
        assert took < 1.0
        assert leq_barker(t, a, t, b, 2)


class TestSearchOrder:
    """Within a depth the search places higher ranks first. A 3-node chain
    under the root named after k leaves was placed after them, and the
    pin-free self-embedding backtracked over the leaves' images: k = 5
    took about 0.5 s and k = 6 over 5 s."""

    @pytest.mark.parametrize("k", [6, 9, 12])
    def test_chain_named_after_its_sibling_leaves(self, k):
        parent = {"r": None, "t1": "r", "t2": "t1", "t3": "t2"}
        parent.update({f"l{i}": "r" for i in range(k)})
        t = GroupTree(2, parent)
        with alarm(5.0):
            start = time.perf_counter()
            found = find_embedding(t, [], t, [], onto=True)
            took = time.perf_counter() - start
        assert took < 1.0
        assert found is not None
        if k == 6:  # 2^9 elements to map
            check_witness(t, [], t, [], found)

    def test_pin_support_is_placed_before_untouched_nodes(self):
        # the pin v3+v7+v8 spans depths 1 and 2; placed by depth, the leaf
        # v6 under v2 and the node v4 were tried millions of times before
        # the pin's last support node fixed its image (over 90 s on a
        # 2-vCPU machine); pin supports and their ancestors now come first
        parent = {
            "r": None, "v0": "r", "v1": "v0", "v2": "r", "v3": "v0", "v4": "v1",
            "v5": "v2", "v6": "v2", "v7": "v0", "v8": "v1", "v9": "r", "v10": "v4",
        }
        t = GroupTree(2, parent)
        a = (t.element({"v2": 1, "v8": 1}),)
        b = (t.element({"v3": 1, "v7": 1, "v8": 1}),)
        with alarm(2.0):
            assert leq_std_game(t, a, t, b, 1)


def random_tree(rng: random.Random, p: int, n: int) -> GroupTree:
    """n non-root nodes, each under a uniformly drawn earlier node."""
    parent = {"r": None}
    for i in range(n):
        parent[f"v{i}"] = rng.choice(list(parent))
    return GroupTree(p, parent)


def random_element(rng: random.Random, t: GroupTree):
    nodes = sorted(t.nonroot)
    support = rng.sample(nodes, rng.randint(1, min(3, len(nodes))))
    return t.element({v: rng.randrange(1, t.p) for v in support})


def matched_entry(rng: random.Random, t: GroupTree, x):
    """A drawn element of x's order and height; x itself if none turns up."""
    for _ in range(200):
        y = random_element(rng, t)
        if (y.order(), y.height()) == (x.order(), x.height()):
            return y
    return x


def matched_queries(rng: random.Random, t: GroupTree):
    """Pins of length 1 or 2 on t, each right entry matched to its left
    entry's order and height."""
    abar = tuple(random_element(rng, t) for _ in range(rng.randint(1, 2)))
    return abar, tuple(matched_entry(rng, t, x) for x in abar)


class TestSearchStress:
    """Seeded random trees with pins matched by order and height: the
    queries where a search by depth alone backtracked for seconds."""

    def test_no_query_takes_a_second(self):
        # 100 trees, p = 2 with 12-16 non-root nodes or p = 3 with 9-11,
        # two queries each at beta 1 or 2
        rng = random.Random("search-stress")
        answers = []
        for _ in range(100):
            p, n = rng.choice([(2, rng.randint(12, 16)), (3, rng.randint(9, 11))])
            t = random_tree(rng, p, n)
            for _ in range(2):
                abar, bbar = matched_queries(rng, t)
                beta = rng.choice((1, 2))
                with alarm(1.0):
                    answers.append(leq_std_game(t, abar, t, bbar, beta))
        assert len(answers) == 200
        assert 0 < sum(answers) < 200

    def test_small_trees_agree_with_the_reference_game(self):
        # the literal game enumerates up to |B|^(2 * leaves) challenges at
        # beta 1, so the trees stay at 2-3 nodes with at most 2 leaves, and
        # max_ext = leaves gives the full relation
        rng = random.Random("search-reference")
        answers = []
        while len(answers) < 30:
            p, n = rng.choice([(2, rng.randint(2, 3)), (3, 2)])
            t = random_tree(rng, p, n)
            leaves = sum(v not in t.parent.values() for v in t.nonroot)
            if leaves > 2:
                continue
            abar, bbar = matched_queries(rng, t)
            with alarm(1.0):
                got = leq_std_game(t, abar, t, bbar, 1)
            assert got == leq_game_reference(t, abar, t, bbar, 1, max_ext=leaves)
            answers.append(got)
        assert 0 < sum(answers) < 30


class TestFormerlySlowQueries:
    """Answers recorded with the earlier whole-group-table search, which
    took seconds on the first three; each is now a small search."""

    def test_broom_with_three_twigs_at_level_four(self):
        t = GroupTree(3, {"r": None, "n1": "r", "n2": "r", "n3": "n1", "n4": "n1", "n5": "n1"})
        a = (t.element({"n1": 1, "n2": 1, "n3": 2, "n4": 1, "n5": 1}),)
        b = (t.element({"n1": 1, "n2": 1, "n3": 2}),)
        assert leq_std_game(t, a, t, b, 4) is True

    def test_z9_plus_three_z3(self):
        t = GroupTree(3, {"r": None, "n1": "r", "n2": "r", "n3": "r", "n4": "r", "n5": "n1"})
        a = (t.element({"n1": 1, "n2": 2, "n3": 2, "n5": 1}),)
        b = (t.element({"n1": 1, "n3": 1, "n4": 1, "n5": 2}),)
        assert leq_std_game(t, a, t, b, 1) is True
        a = (
            t.element({"n1": 1, "n2": 2, "n3": 1, "n4": 1, "n5": 2}),
            t.element({"n1": 1, "n2": 1, "n3": 1, "n4": 1, "n5": 1}),
        )
        b = (
            t.element({"n1": 1, "n2": 1, "n3": 2, "n5": 1}),
            t.element({"n1": 1, "n2": 2, "n5": 1}),
        )
        assert leq_std_game(t, a, t, b, 4) is False

    def test_pinned_z9_z9_z3_pair(self):
        # a2 - a1 = n3 has height 0 while b2 - b1 = 2*n1 + 2*n2 has height 1
        t = GroupTree(3, {"r": None, "n1": "r", "n2": "r", "n3": "r", "n4": "n1", "n5": "n2"})
        a = (
            t.element({"n1": 1, "n3": 1, "n4": 2, "n5": 2}),
            t.element({"n1": 1, "n3": 2, "n4": 2, "n5": 2}),
        )
        b = (
            t.element({"n1": 2, "n3": 2, "n5": 2}),
            t.element({"n1": 1, "n2": 2, "n3": 2, "n5": 2}),
        )
        assert leq_std_game(t, a, t, b, 2) is False


# Micro corpus: every group here is generated by at most 2 elements, so
# reference challenges longer than 2 are answered through the subgroup
# closure and add nothing; max_ext=2 gives the full relation.
MICRO = [chain(2, 1), chain(2, 2), star(2, 2)]


def micro_tuples(G: GroupTree):
    elems = sorted(G.elements(), key=lambda e: e.terms())
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

    def test_a_tree_used_once_is_freed(self):
        # the closed form's generated-subgroup memo lives on the carrier
        t = chain(2, 2)
        assert leq_barker(t, [t.node("c1")], t, [t.node("c1")], 1)
        ref = weakref.ref(t)
        del t
        gc.collect()
        assert ref() is None

    def test_a_tree_used_once_by_the_game_is_freed(self):
        # find_embedding's verdicts live on the destination tree
        A = chain(2, 2)
        B = GroupTree(2, {"s": None, "d1": "s", "d2": "d1"})
        a, b = A.node("c1"), B.node("d1")
        assert leq_std_game(A, [a], B, [b], 1)  # B embeds into A
        assert list(A.embed_memo) == [(B, False, b.coeffs, a.coeffs)]
        assert B.embed_memo == {}
        assert leq_std_game(A, [a], B, [b], 2)  # A maps onto B
        assert list(B.embed_memo) == [(A, True, a.coeffs, b.coeffs)]
        refs = [weakref.ref(x) for x in (A, B)]
        del A, B, a, b
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_profiled_carriers_with_unequal_invariants_are_refused(self):
        # the game says Z_2 embeds into Z_4 here; the closed form must not
        # answer, whichever carrier type holds the groups
        z4, z2 = from_tree(chain(2, 2)), from_tree(chain(2, 1))
        abar = (z4.fragment.gen_named("c1"),)
        bbar = (z2.fragment.gen_named("c1"),)
        with pytest.raises(ValueError, match="equal invariants"):
            relation(z4, abar, z2, bbar, 1)
        with pytest.raises(ValueError, match="equal invariants"):
            leq_barker(z4, abar, z2, bbar, 2)

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


class TestKnownClosedFormGap:
    """leq_barker compares heights on the tuple entries only, while the
    game asks it of every pair of the correspondence <bbar> -> <abar>.
    Here the pair n2+n3+n4+n5 -> n1 has heights 0 and 1, so the game
    refuses and the closed form holds."""

    def case(self):
        t = GroupTree(2, {"r": None, "n1": "r", **{f"n{i}": "n1" for i in range(2, 6)}})
        n = {i: t.node(f"n{i}") for i in range(1, 6)}
        abar = (n[1] + n[2] + n[3], n[2] + n[3])
        bbar = (n[1] + n[3] + n[5], n[1] + n[2] + n[4])
        return t, abar, t, bbar, 4

    def test_the_game_refuses(self):
        assert leq_std_game(*self.case()) is False

    @pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="clause (b) checks entry pairs only"
    )
    def test_the_closed_form_refuses(self):
        assert leq_barker(*self.case()) is False


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
        assert P.socle_finite_from == OMEGA + 3
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
        assert P.socle_finite_from == OMEGA
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
                FragmentGen("b1", ((0, 1),), OMEGA),
            ),
        )
        Gb = ProfiledGroup(make_G_hat(W2, SEQ2, 0), frag)
        b1 = frag.gen(1)  # order 4
        assert leq_paper(Ga, [Ga.fragment.gen(0)], Gb, [b1], 2) is False


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
                FragmentGen("b1", ((0, 1),), OMEGA),
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
                FragmentGen("b1", ((0, 1),), nat(2)),
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
            extend_tuple(A, (), B, (), 1, 0, [d], check_hypothesis=False)

    def test_hypothesis_check_refuses_unequal_invariants(self):
        # star and chain have different invariants, outside the closed
        # form's domain, so the hypothesis cannot be decided
        A = from_tree(star(2, 2))
        B = from_tree(chain(2, 2))
        d = B.fragment.gen_named("c2")
        with pytest.raises(ValueError, match="equal invariants"):
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


# -- the one-tower extension against the rebuild-every-adjoin reference ---------


def extend_tuple_by_rebuild(A, abar, B, bbar, beta, eta, dbar, check_hypothesis=True):
    """The reference for extend_tuple's one growing tower: the
    correspondence is rebuilt with generated_iso after every adjoin, the
    best representative is scanned over FragmentElement sums, and each
    creation builds the whole grown fragment with Fragment.__init__."""
    beta, eta = (nat(x) if isinstance(x, int) else x for x in (beta, eta))
    if not eta < beta:
        raise ValueError(f"need eta < beta, got {eta} >= {beta}")
    abar, bbar, dbar = tuple(abar), tuple(bbar), tuple(dbar)
    for d in dbar:
        if d.fragment is not B.fragment:
            raise ValueError("demands must live in the B fragment")
    if len(abar) > len(bbar):
        raise ExtensionError("left tuple longer than right tuple")
    if check_hypothesis and not relation(A, abar, B, bbar, beta):
        raise ExtensionError("hypothesis relation fails at beta")

    demands = bbar[len(abar):] + dbar
    cur_b, cur_a = list(bbar[: len(abar)]), list(abar)
    grown = A

    def remap() -> dict:
        m = generated_iso(B.fragment, cur_b, grown.fragment, cur_a)
        if m is None:
            raise AssertionError("extension broke the tuple correspondence")
        return m

    def create_by_rebuild(pg, pimage, height):
        frag = pg.fragment
        gen = FragmentGen(f"g{frag.rank}", sparse(frag.migrate(pimage).coeffs), height)
        out = ProfiledGroup(pg.profile, Fragment(frag.p, frag.gens + (gen,)), True)
        out.validate_capacity()
        return out, out.fragment.gen(frag.rank)

    fmap = remap()
    delta, parity = parity_split(eta)
    thr = omega_times(delta)
    records = []

    def adjoin(e) -> None:
        nonlocal grown, cur_a, fmap
        best = None
        for s in sorted(B.fragment.subgroup(cur_b), key=lambda s: s.coeffs):
            cand = e + s
            if best is None or cand.height() > best.height():
                best = cand
        w = best.times_p()
        z = fmap[w]
        c = gamma_c = None
        refusals = []
        for gamma in _answer_heights(best.height(), z.height(), thr, parity):
            if grown.growable:
                try:
                    grown, c = create_by_rebuild(grown, z, gamma)
                except ValueError as exc:
                    refusals.append(str(exc))
                    continue
                cur_a = [grown.migrate(x) for x in cur_a]
            else:
                c = _find_explicit_image(grown, cur_a, z, gamma)
                if c is None:
                    refusals.append(f"no proper element found at {gamma}")
                    continue
            gamma_c = gamma
            break
        if gamma_c is None:
            raise ExtensionError(
                f"no admissible answer height for p-image {z} could be "
                f"realized: {'; '.join(refusals)}"
            )
        records.append(CreationRecord(best, z, c, gamma_c, tuple(cur_a)))
        cur_b.append(best)
        cur_a.append(c)
        fmap = remap()

    for d in demands:
        stack, x = [], d
        while x not in fmap:
            stack.append(x)
            x = x.times_p()
        for e in reversed(stack):
            if e not in fmap:
                adjoin(e)
    right = tuple(cur_a[: len(abar)]) + tuple(fmap[d] for d in demands)
    return ExtendResult(grown, bbar[: len(abar)] + demands, right, tuple(records))


def _plain(x):
    # fragments are compared by identity, and the two routes grow distinct
    # but equal ones; compare the generators instead
    return (x.fragment.gens, x.coeffs)


def extension_outcome(extend, *args):
    """What an extend_tuple route returns or raises, comparable across routes."""
    try:
        res = extend(*args)
    except (ExtensionError, ValueError, AssertionError) as exc:
        return (type(exc).__name__, str(exc))
    return (
        res.A.fragment.gens,
        res.A.profile,
        res.A.growable,
        [_plain(x) for x in res.left],
        [_plain(x) for x in res.right],
        [
            (_plain(r.adjoined), _plain(r.pimage), _plain(r.created), r.height,
             [_plain(x) for x in r.context])
            for r in res.records
        ],
    )


EXT_HEIGHTS = [nat(0), nat(1), nat(2), nat(3), OMEGA, OMEGA + 1, OMEGA + 2, OMEGA + 3]
EXT_ETAS = [nat(0), nat(1), nat(2), nat(3), OMEGA]


@st.composite
def profiled_fragments(draw, p, n):
    """A random n-generator fragment over w*2 (heights, p-images over
    higher earlier generators) under one of the make_G_hat profiles."""
    gens: list[FragmentGen] = []
    for i in range(n):
        h = draw(st.sampled_from(EXT_HEIGHTS))
        vec = [0] * i
        for j, g in enumerate(gens):
            if g.height >= h + 1:
                vec[j] = draw(st.integers(0, p - 1))
        gens.append(FragmentGen(f"b{i}", sparse(vec), h))
    return ProfiledGroup(make_G_hat(W2, SEQ2, draw(st.integers(0, 3))), Fragment(p, gens))


@st.composite
def growable_extension_cases(draw):
    """A random B from profiled_fragments, A a growable copy of its first
    k generators under one of the make_G_hat profiles, and 1-2 random
    demands in B."""
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 4 if p == 2 else 3))
    B = draw(profiled_fragments(p, n))
    gens = B.fragment.gens
    k = draw(st.integers(0, min(n, 2)))
    A = ProfiledGroup(
        make_G_hat(W2, SEQ2, draw(st.sampled_from([0, 0, 1, 2]))), Fragment(p, gens[:k])
    )
    abar = [A.fragment.gen(i) for i in range(k)]
    bbar = [B.fragment.gen(i) for i in range(draw(st.integers(k, min(n, k + 1))))]
    vecs = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    dbar = [B.fragment.element(v) for v in draw(st.lists(vecs, min_size=1, max_size=2))]
    eta = draw(st.sampled_from(EXT_ETAS))
    return A, abar, B, bbar, eta + 1, eta, dbar, draw(st.booleans())


TREES = {p: corpus_trees(n, (p,)) for p, n in ((2, 4), (3, 3))}


@st.composite
def tree_extension_cases(draw):
    """Two non-growable tree carriers (often one tree twice), an optional
    pinned pair, and 1-2 random demands: extension must find its answers
    with _find_explicit_image."""
    p = draw(st.sampled_from([2, 3]))
    tb = draw(st.sampled_from(TREES[p]))
    ta = draw(st.sampled_from([tb, tb] + TREES[p]))
    A, B = from_tree(ta), from_tree(tb)
    elems_a, elems_b = list(ta.elements()), list(tb.elements())
    abar, bbar = [], []
    if draw(st.booleans()):
        y = draw(st.sampled_from(elems_b))
        x = y if ta is tb else draw(st.sampled_from(elems_a))
        abar, bbar = [x], [y]
    dbar = draw(st.lists(st.sampled_from(elems_b), min_size=1, max_size=2))
    eta = draw(st.integers(0, 2))
    return A, abar, B, bbar, eta + 1, eta, dbar, draw(st.booleans())


class TestExtendAgainstRebuild:
    @settings(max_examples=150, deadline=None)
    @given(growable_extension_cases())
    def test_growable_carriers(self, case):
        got = extension_outcome(extend_tuple, *case)
        assert got == extension_outcome(extend_tuple_by_rebuild, *case)

    @settings(max_examples=100, deadline=None)
    @given(tree_extension_cases())
    def test_tree_carriers(self, case):
        got = extension_outcome(extend_tuple, *case)
        assert got == extension_outcome(extend_tuple_by_rebuild, *case)

    def test_fixed_cases_with_several_adjoins(self):
        A = ghat_pg(0, [(OMEGA + 2, 1)])
        B = ghat_pg(2, [(OMEGA + 2, 1), (OMEGA + 6, 1), (nat(1), 1)])
        a0 = A.fragment.gen(0)
        b0, b1, b2 = (B.fragment.gen(i) for i in range(3))
        for eta in (0, 1, 2, 3):
            args = (A, (a0,), B, (b0,), eta + 1, eta, [b1 + b0, b2 + b1], False)
            got = extension_outcome(extend_tuple, *args)
            assert got == extension_outcome(extend_tuple_by_rebuild, *args)
            assert len(got[-1]) >= 2  # records
        t = chain(3, 3)
        G = from_tree(t)
        args = (G, (t.node("c1"),), G, (t.node("c1"),), 2, 1, [t.node("c3")], True)
        got = extension_outcome(extend_tuple, *args)
        assert got == extension_outcome(extend_tuple_by_rebuild, *args)
        assert len(got[-1]) == 2  # c2, then c3, found in the tree


def _counting(monkeypatch, target, name):
    """Replace target.name by a wrapper that counts its calls."""
    calls = []
    original = getattr(target, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(target, name, wrapper)
    return calls


class TestExtensionWork:
    def test_adjoins_grow_one_tower_and_append_generators(self, monkeypatch):
        import ulmkit.baf
        import ulmkit.pgroup

        A = ghat_pg(0, [(OMEGA + 2, 1)])
        B = ghat_pg(0, [(OMEGA + 2, 1), (OMEGA + 4, 1), (OMEGA + 1, 1), (nat(3), 1)])
        abar = (A.fragment.gen(0),)
        bbar = (B.fragment.gen(0),)
        dbar = [B.fragment.gen(i) for i in (1, 2, 3)]
        # baf imports no generated_iso, so pgroup's binding is the only one
        assert not hasattr(ulmkit.baf, "generated_iso")
        isos = _counting(monkeypatch, ulmkit.pgroup, "generated_iso")
        inits = _counting(monkeypatch, ulmkit.pgroup.Fragment, "__init__")
        res = extend_tuple(A, abar, B, bbar, 3, 2, dbar)
        assert len(res.records) >= 3
        assert res.A.fragment.rank == A.fragment.rank + len(res.records)
        assert isos == [] and inits == []
        assert check_extension(B, 2, res) == []

    @pytest.mark.parametrize("beta", [0, 2, 3])
    def test_repeated_relation_reads_its_memos(self, monkeypatch, beta):
        import ulmkit.baf

        # clause (a) keeps no memo; clauses (c) and (d) are read off the
        # profile memo after the first call
        A = ghat_pg(0, [(nat(1), 1), (OMEGA + 2, 1)])
        B = ghat_pg(1, [(OMEGA + 2, 1), (nat(1), 1)])
        abar = [A.fragment.gen(1), A.fragment.gen(0)]
        bbar = [B.fragment.gen(i) for i in range(2)]
        agree = _counting(monkeypatch, ulmkit.baf, "profiles_agree_on")
        first = relation(A, abar, B, bbar, beta)
        assert beta == 0 or agree
        del agree[:]
        for _ in range(3):
            assert relation(A, abar, B, bbar, beta) == first
        assert agree == []


class TestCorrespondenceRoutes:
    """The closed form decides clause (a) on two trees by subgroup orders
    and lists no pairs; the game screens pin orders before it lists the
    pins' pair tower."""

    def test_all_leaves_of_a_large_star_pinned(self):
        # <leaves> has 2^20 elements, past DEFAULT_BOUND, which a listed
        # tower refused with BoundExceeded
        t = star(2, 20)
        leaves = [t.node(f"l{i}") for i in range(20)]
        with alarm(5.0):
            start = time.perf_counter()
            assert leq_barker(t, leaves, t, leaves, 1)
            took = time.perf_counter() - start
        assert took < 1.0

    @pytest.mark.parametrize("beta", [1, 2])
    def test_the_game_refuses_all_leaves_of_a_large_star_pinned(self, beta):
        # the game lists the pins' tower, 2^20 pairs, and refuses past
        # DEFAULT_BOUND where the closed form above counts orders
        t = star(2, 20)
        leaves = [t.node(f"l{i}") for i in range(20)]
        with alarm(5.0), pytest.raises(BoundExceeded, match="subgroup exceeds"):
            leq_std_game(t, leaves, t, leaves, beta)

    def test_trees_list_no_tower(self, monkeypatch):
        import ulmkit.pgroup
        from ulmkit.pgroup import _generated_iso_exists

        steps = _counting(monkeypatch, ulmkit.pgroup, "_tower_step")
        t = mixed(3)
        a, b, c = (t.node(v) for v in "abc")
        assert _generated_iso_exists(t, [b, c, b + c], t, [b, 2 * c, b + 2 * c])
        assert not _generated_iso_exists(t, [b, c, a], t, [b, c, c])
        assert steps == []
        # a tuple against itself in the tree's own fragment is an inclusion
        # and lists nothing; any other tree-against-fragment pair lists its
        # pair tower
        assert _generated_iso_exists(t, [b, c], t.fragment, [b, c])
        assert steps == []
        assert _generated_iso_exists(t, [b, c], t.fragment, [b, 2 * c])
        assert steps

    def test_pins_of_unequal_orders_list_no_tower(self, monkeypatch):
        import ulmkit.baf

        towers = _counting(monkeypatch, ulmkit.baf, "subgroup_elements")
        t, u = mixed(2), mixed(2)
        assert find_embedding(t, [t.node("b")], u, [u.node("a")], onto=True) is None
        assert find_embedding(t, [t.node("c"), t.node("b")], u, [u.node("c"), u.node("c")]) is None
        assert towers == []

    def test_pins_of_equal_orders_list_their_tower(self, monkeypatch):
        import ulmkit.baf

        towers = _counting(monkeypatch, ulmkit.baf, "subgroup_elements")
        t, u = mixed(2), mixed(2)
        found = find_embedding(t, [t.node("b")], u, [u.node("b") + u.node("c")], onto=True)
        assert found is not None and len(towers) == 1
        # equal orders and heights, but c -> c and a + c -> c send a to 0:
        # the tower refuses
        c, ac = t.node("c"), t.node("a") + t.node("c")
        assert find_embedding(t, [c, ac], u, [u.node("c"), u.node("c")]) is None
        assert len(towers) == 2


class TestMemoLifetimes:
    """Verdict memos live on the immutable carrier they concern and die
    with it: no module-level cache keeps a fragment or profile alive."""

    def test_profile_clause_memo_dies_with_its_profile(self):
        P, Q = make_G_hat(W2, SEQ2, 0), make_G_hat(W2, SEQ2, 1)
        A, B = canonical_fragment(P, 2), canonical_fragment(Q, 2)
        assert leq_paper(A, (), B, (), 3)
        assert P.relation_memo == {(Q, nat(1), 1): True}
        refs = [weakref.ref(x) for x in (P, Q, A.fragment, B.fragment)]
        del P, Q, A, B
        gc.collect()
        assert all(ref() is None for ref in refs)


def leq_paper_inline_heights(A, abar, B, bbar, beta):
    """leq_paper with its own entry-height clause, as it read before clause
    (b) was shared with leq_barker; the reference for the shared clause."""
    if isinstance(beta, int):
        beta = nat(beta)
    for P in (A.profile, B.profile):
        if not (P.length.is_limit and P.limit_infinite):
            raise ValueError("limit-infinite profiles only")
    abar, bbar = tuple(abar), tuple(bbar)
    if len(abar) > len(bbar):
        return False
    bbar = bbar[: len(abar)]
    if generated_iso(B.fragment, bbar, A.fragment, abar) is None:
        return False
    delta, parity = parity_split(beta)
    thr = omega_times(delta)
    for a, b in zip(abar, bbar):
        ha, hb = a.height(), b.height()
        if parity == 0:
            ok = (ha == hb and ha < thr) or (ha >= thr and hb >= thr)
        else:
            ok = (ha == hb and ha < thr) or (
                hb >= thr and ha >= height_min(hb, thr + OMEGA)
            )
        if not ok:
            return False
    P, Q = A.profile, B.profile
    return profiles_agree_on(P, Q, nat(0), thr, "eq") and (
        parity == 0 or profiles_agree_on(P, Q, thr, thr + OMEGA, "ge")
    )


@st.composite
def paper_relation_cases(draw):
    """A profiled group B; A either B itself, or B's generators and
    p-images with heights drawn afresh, so that the map copying
    coefficients is an isomorphism; a nonempty random tuple in B, and in A
    mostly its copy (clause (a) then holds and (b) decides), else a random
    tuple."""
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 3))
    B = draw(profiled_fragments(p, n))
    A = B
    if draw(st.integers(0, 3)):
        gens, heights = B.fragment.gens, {}
        for i in reversed(range(n)):
            # the p-images using generator i must stay above it
            above = [heights[k] + 1 for k in range(i + 1, n) if i in dict(gens[k].pimage)]
            lo = max(above, default=nat(0))
            heights[i] = draw(st.sampled_from([h for h in EXT_HEIGHTS if h >= lo] or [lo]))
        frag = Fragment(
            p, [FragmentGen(g.name, g.pimage, heights[i]) for i, g in enumerate(gens)]
        )
        A = ProfiledGroup(make_G_hat(W2, SEQ2, draw(st.integers(0, 3))), frag)
    vecs = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    bbar = [B.fragment.element(v) for v in draw(st.lists(vecs, min_size=1, max_size=3))]
    if draw(st.integers(0, 3)):
        abar = [A.fragment.element(y.coeffs) for y in bbar[: draw(st.integers(1, 3))]]
    else:
        abar = [A.fragment.element(v) for v in draw(st.lists(vecs, min_size=1, max_size=3))]
    return A, abar, B, bbar


class TestSharedHeightClause:
    """leq_barker and leq_paper share clauses (a) and (b)."""

    @settings(max_examples=300, deadline=None)
    @given(paper_relation_cases())
    def test_leq_paper_matches_its_inline_height_clause(self, case):
        # heights lie below w*2, so levels past 4 only ask for equal heights
        for beta in range(5):
            assert leq_paper(*case, beta) == leq_paper_inline_heights(*case, beta)

    def test_socle_finite_from_is_computed_once_per_profile(self, monkeypatch):
        t = mixed(2)
        pg = ghat_pg(0, [(nat(5), 1), (nat(7), 1), (OMEGA + 4, 1)])
        cases = [
            (t, [t.node(v) for v in ("a", "b", "c")]),
            (pg, [pg.fragment.gen(i) for i in range(3)]),
        ]
        # the cached property runs its function once per profile
        taus = _counting(monkeypatch, Profile.socle_finite_from, "func")
        for G, tup in cases:
            for _ in range(3):
                for beta in (1, 3, 5):
                    assert leq_barker(G, tup, G, tup, beta)
        assert [P for P, in taus] == [invariants_of(t), pg.profile]
