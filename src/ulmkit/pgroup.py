"""Finite abelian p-groups: height-decorated fragments, and trees as named ones.

A Fragment is built by iterated one-generator extensions: generator i comes
with a prescribed height (an ordinal) and a p-image, an element over the
earlier generators stored sparsely, as the sorted (index, coefficient)
pairs of its nonzero coefficients. Elements are coefficient vectors in
[0, p)^r; carries replace p*g_i by its p-image, which only touches lower
coordinates, so normal forms are unique. The height of a nonzero normal
form is the minimum generator height over its support; h(0) = infinity.

That min rule is a valuation provided every creation obeys
h(pimage) >= height + 1, which ``Fragment._admit`` enforces:

  * h(x + y) >= min(h(x), h(y)): support(x + y) is contained in
    support(x) | support(y) together with generators a carry lands on, and
    a carry only moves mass into a p-image, whose height exceeds that of
    the generator it came from; and
  * h(px) >= h(x) + 1: multiplying by p rewrites each supported generator
    into its p-image, whose height exceeds the generator's.

A rooted tree T with prime label p presents the group G(T) generated by the
nodes, subject to p*v = parent(v) for every node and root = 0. It is the
fragment ``GroupTree.fragment``: one generator per non-root node, in
(depth, name) order, with p-image its parent and height its rank (subtree
depth), so |G(T)| = p^(number of non-root nodes) and a chain of n nodes
under the root presents Z_{p^n}. Tree elements are that fragment's
elements; there is no second element type. The min rule gives the true
divisibility height h(x), the largest k with x in p^k G(T), because
p^k G(T) is spanned by the nodes of rank >= k and that span is closed under
the carries.

With N_k the number of non-root nodes of rank >= k, |p^k G| = p^(N_k) and
dim (p^k G)[p] = N_k - N_(k+1), the count ``socle_dims`` keeps per rank.
Every enumeration of elements (whole groups, socles, generated subgroups,
socle layers) refuses to go past ``DEFAULT_BOUND`` elements; ``verify``
recomputes the counts and heights from it as the independent cross-check.
Generated subgroups are built as towers of coefficient tuples normalized
by the carries and wrapped as elements only at the end; a tree's are those
of its fragment. A tower grows by ``_tower_step``, one generator at a
time, so a caller that adjoins generators one by one (``baf.extend_tuple``)
keeps one tower that gains a step per adjoin. ``generated_iso`` builds the
correspondence dict from that tower. ``baf.find_embedding`` lists no
tower: it holds its pins as a triangular basis and reads orders and
heights off ``CyclicDecomposition`` coordinates. Callers that only ask
whether the correspondence exists use ``_generated_iso_exists``, which
decodes no pairs; on two trees it lists none either, comparing element
orders (``CyclicDecomposition.order_of``) and subgroup orders
(``_span_order``, a p-adic echelon with no element budget), and a tuple
taken to itself in an extension of its fragment lists none, being an
inclusion restricted (``_is_inclusion``).

Fragments are immutable: ``Fragment.extend`` returns a new fragment with
one generator appended, copying the parent's name index and height order
and admitting only the new generator, through the one method
(``_admit``) that checks and indexes every generator of a fragment.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .ordinal import INFINITY, HeightValue, Ordinal, nat

DEFAULT_BOUND = 3**10

_HEIGHT = operator.itemgetter(1)  # of a (generator index, height) entry


class BoundExceeded(RuntimeError):
    """An enumeration would exceed its element budget."""


def _require_prime(p: int) -> None:
    """Refuse p unless it is a prime below 2^31, which trial division
    settles in milliseconds."""
    if p >= 2**31:
        raise ValueError(f"{p} is not below the prime limit 2^31")
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"{p} is not prime")


@dataclass(frozen=True)
class FragmentGen:
    name: str
    # (index, coefficient) over earlier generators, indices increasing and
    # coefficients in [1, p)
    pimage: tuple[tuple[int, int], ...]
    height: Ordinal


@dataclass(frozen=True)
class FragmentElement:
    fragment: "Fragment"
    coeffs: tuple[int, ...]

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: "FragmentElement") -> "FragmentElement":
        if other.fragment is not self.fragment:
            raise ValueError("elements live in different fragments")
        return self.fragment.element(
            [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self) -> "FragmentElement":
        return self.fragment.element([-a for a in self.coeffs])

    def __sub__(self, other: "FragmentElement") -> "FragmentElement":
        return self + (-other)

    def __rmul__(self, k: int) -> "FragmentElement":
        return self.fragment.element([k * a for a in self.coeffs])

    def times_p(self) -> "FragmentElement":
        return self.fragment.element([self.fragment.p * a for a in self.coeffs])

    def order(self) -> int:
        k, x = 0, self
        while not x.is_zero:
            x = x.times_p()
            k += 1
        return self.fragment.p**k

    def height(self) -> HeightValue:
        return self.fragment.height_of(self)

    def terms(self) -> tuple[tuple[str, int], ...]:
        """(generator name, coefficient) over the support, sorted by name."""
        gens = self.fragment.gens
        return tuple(sorted((gens[i].name, c) for i, c in enumerate(self.coeffs) if c))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        gens = self.fragment.gens
        return "+".join(
            gens[i].name if c == 1 else f"{c}*{gens[i].name}"
            for i, c in enumerate(self.coeffs)
            if c
        )

    __repr__ = __str__


class Fragment:
    def __init__(self, p: int, gens: Sequence[FragmentGen] = ()):
        _require_prime(p)
        self.p = p
        self.gens: tuple[FragmentGen, ...] = ()
        self.index: dict[str, int] = {}
        # the first supported generator in this order has the least height
        self._by_height: list[tuple[int, Ordinal]] = []
        self._admit(gens)

    def _admit(self, new: Iterable[FragmentGen]) -> None:
        """Append the generators `new` in order, checking each against the
        ones before it and indexing it by name and by height (after the
        generators of equal height, where a stable sort puts it)."""
        start = len(self.gens)
        self.gens += tuple(new)
        for i in range(start, len(self.gens)):
            g = self.gens[i]
            if g.name in self.index:
                raise ValueError("generator names must be distinct")
            idx = [j for j, _ in g.pimage]
            if idx and max(idx) >= i:
                raise ValueError(f"pimage of {g.name} uses later generators")
            if not isinstance(g.height, Ordinal):
                raise ValueError(f"height of {g.name} must be an ordinal")
            if idx:  # an order-p generator's p-image 0 passes both checks
                if idx != sorted(set(idx)) or not all(
                    j >= 0 and 0 < c < self.p for j, c in g.pimage
                ):
                    raise ValueError(f"pimage of {g.name} is not normalized")
                # the min rule is a valuation only if h(pimage) >= h(g) + 1
                zh = min(self.gens[j].height for j in idx)
                if not zh >= g.height + 1:
                    raise ValueError(
                        f"creating {g.name} at height {g.height} needs its "
                        f"p-image at height >= {g.height + 1}, got {zh}"
                    )
            self.index[g.name] = i
            bisect.insort(self._by_height, (i, g.height), key=_HEIGHT)
        self.rank = len(self.gens)
        self.size = self.p**self.rank
        self._zeros = (0,) * self.rank  # an element here would be a cycle

    # -- vectors -------------------------------------------------------------

    def _height_of_vec(self, vec: Sequence[int]) -> HeightValue:
        for i, h in self._by_height:
            if vec[i]:
                return h
        return INFINITY

    def _normalize(self, vec: list[int]) -> tuple[int, ...]:
        p, gens = self.p, self.gens
        for i in range(len(vec) - 1, -1, -1):
            q, c = divmod(vec[i], p)
            vec[i] = c
            if q:
                for j, zc in gens[i].pimage:
                    vec[j] += q * zc
        return tuple(vec)

    # -- elements --------------------------------------------------------------

    def zero(self) -> FragmentElement:
        return FragmentElement(self, self._zeros)

    def gen(self, i: int) -> FragmentElement:
        vec = [0] * self.rank
        vec[i] = 1
        return FragmentElement(self, tuple(vec))

    def gen_named(self, name: str) -> FragmentElement:
        return self.gen(self.index[name])

    def element(self, vec: Sequence[int]) -> FragmentElement:
        if len(vec) != self.rank:
            raise ValueError(f"need {self.rank} coefficients, got {len(vec)}")
        return FragmentElement(self, self._normalize(list(vec)))

    def height_of(self, x: FragmentElement) -> HeightValue:
        return self._height_of_vec(x.coeffs)

    def elements(self) -> Iterator[FragmentElement]:
        if self.size > DEFAULT_BOUND:
            raise BoundExceeded(f"fragment size {self.size} exceeds {DEFAULT_BOUND}")
        for vec in itertools.product(range(self.p), repeat=self.rank):
            yield FragmentElement(self, vec)

    def elements_stable(self, start: int = 0) -> Iterator[FragmentElement]:
        """Enumeration in an order preserved by fragment extension: elements
        supported on the first m generators come before any element that
        touches generator m. Lazy: refuses only when about to yield element
        number DEFAULT_BOUND + 1, so a prefix of a large fragment is cheap.

        Each element is decoded from its index k, so the enumeration can
        begin at `start`. For k >= 1 the last supported generator is top,
        the largest with p^top <= k, and divmod(k - p^top, p - 1) gives the
        earlier coefficients (base p, generator 0 most significant) and the
        last one less 1."""
        p, k = self.p, start
        if k == 0:
            yield self.zero()
            k = 1
        top, base = 0, 1  # base = p^top, the index of the first element touching top
        while base * p <= k:
            top, base = top + 1, base * p
        while k < self.size:
            if k >= DEFAULT_BOUND:
                raise BoundExceeded(f"fragment size {self.size} exceeds {DEFAULT_BOUND}")
            if k == base * p:
                top, base = top + 1, base * p
            head, last = divmod(k - base, p - 1)
            vec = [0] * self.rank
            vec[top] = last + 1
            for i in range(top - 1, -1, -1):
                head, vec[i] = divmod(head, p)
            k += 1
            yield FragmentElement(self, tuple(vec))

    def first_elements(self, n: int) -> list[FragmentElement]:
        """The first n elements of ``elements_stable``, as a fresh list.

        The memo grows from where the last call stopped, so listing the
        prefixes n = 1, 2, 3, ... in turn enumerates each element once: a
        call costs one new element per step of n plus the copy of the
        answer. No generator is kept between calls, since its frame would
        hold the fragment in a reference cycle."""
        if n > self.size:
            raise BoundExceeded(
                f"asked for {n} elements of a fragment of size {self.size}"
            )
        memo = self._stable_prefix
        if len(memo) < n:
            memo.extend(itertools.islice(self.elements_stable(len(memo)), n - len(memo)))
        return memo[:n]

    @functools.cached_property
    def _stable_prefix(self) -> list[FragmentElement]:
        """The longest prefix of ``elements_stable`` asked for so far; it
        dies with the fragment."""
        return []

    def subgroup(self, gens: Iterable[FragmentElement]) -> frozenset[FragmentElement]:
        """<gens>, built on coefficient tuples and wrapped once at the end."""
        vecs = [self.coords(g) for g in gens]
        zs = subgroup_elements(self._zeros, vecs, _coeff_adder((self,)))
        return frozenset(FragmentElement(self, z) for z in zs)

    def coords(self, x: FragmentElement) -> tuple[int, ...]:
        """x's coefficient tuple, refusing elements of other fragments."""
        if x.fragment is not self:
            raise ValueError("element does not belong to this fragment")
        return x.coeffs

    # -- growth ----------------------------------------------------------------

    def extend(self, pimage: FragmentElement, height: Ordinal) -> "Fragment":
        """This fragment with one generator appended: g<rank> at `height`,
        with p-image `pimage`.

        The child copies the parent's name index and height order and
        admits only the new generator, through the checks ``Fragment``
        runs on each of its generators.
        """
        if pimage.fragment is not self:
            raise ValueError("p-image must live in this fragment")
        sparse = tuple((j, c) for j, c in enumerate(pimage.coeffs) if c)
        child = Fragment.__new__(Fragment)
        child.p, child.gens = self.p, self.gens
        child.index, child._by_height = dict(self.index), self._by_height[:]
        child._admit([FragmentGen(f"g{self.rank}", sparse, height)])
        return child

    def is_prefix_of(self, other: "Fragment") -> bool:
        return (
            self.p == other.p
            and other.gens[: self.rank] == self.gens
        )

    def migrate(self, x: FragmentElement) -> FragmentElement:
        """Reinterpret an element of a prefix fragment here."""
        if x.fragment is self:
            return x
        if not x.fragment.is_prefix_of(self):
            raise ValueError("element does not come from a prefix fragment")
        return FragmentElement(self, x.coeffs + (0,) * (self.rank - len(x.coeffs)))

    def socle_height_dims(self) -> dict[Ordinal, int]:
        """dim(S_beta / S_{beta+}) per realized height beta, highest first,
        S = order-p part: each generator adds one where ``socle_rise`` puts
        it over the generators before it."""
        dims: dict[Ordinal, int] = {}
        for i, g in enumerate(self.gens):
            for beta in self.socle_rise(self._pimage_vec(i), g.height, i):
                dims[beta] = dims.get(beta, 0) + 1
        return dict(sorted(dims.items(), reverse=True))

    def socle_rise(self, z, height: Ordinal, n: Optional[int] = None) -> tuple:
        """The heights (none or one) whose ``socle_height_dims`` entry grows,
        by one, when a generator at `height` with p-image coefficients z
        joins this fragment, or its first n generators.

        The elements of height >= beta form V_beta, spanned by the
        generators of height >= beta (their p-images sit strictly higher),
        and presented by those generators subject to p*g = pimage(g). So
        dim S_beta = dim V_beta / pV_beta = #{g : h(g) >= beta} - the GF(p)
        rank of their p-images. The new generator adds 1 - (rank gained)
        for beta <= height: 1 where z lies in the span, which grows as beta
        falls, so the table changes at the largest such beta, `height` or a
        generator height below it.
        """
        basis, top = [], height
        below = [e for e in reversed(self._by_height) if n is None or e[0] < n]
        for beta, group in itertools.groupby(below, key=_HEIGHT):
            if beta < height:
                if not any(echelon_reduce(basis, z, self.p)):
                    return (top,)
                top = beta
            for i, _ in group:
                if self.gens[i].pimage:
                    echelon_add(basis, self._pimage_vec(i), self.p)
        return () if any(echelon_reduce(basis, z, self.p)) else (top,)

    def _pimage_vec(self, i: int) -> list[int]:
        return list(map(dict(self.gens[i].pimage).get, range(self.rank), itertools.repeat(0)))

    def __str__(self) -> str:
        return f"Fragment(p={self.p}, rank={self.rank})"

    __repr__ = __str__


class GroupTree:
    def __init__(self, p: int, parent: Mapping[str, Optional[str]]):
        _require_prime(p)
        self.p = p
        self.parent: dict[str, Optional[str]] = dict(parent)
        roots = [v for v, u in self.parent.items() if u is None]
        if len(roots) != 1:
            raise ValueError(f"need exactly one root, got {roots}")
        self.root = roots[0]
        for v, u in self.parent.items():
            if u is not None and u not in self.parent:
                raise ValueError(f"parent {u!r} of {v!r} is not a node")
        self.nodes: tuple[str, ...] = tuple(sorted(self.parent))
        self._depth: dict[str, int] = {}
        for v in self.nodes:
            trail = []
            w: Optional[str] = v
            while w is not None and w not in self._depth:
                if w in trail:
                    raise ValueError(f"parent cycle through {w!r}")
                trail.append(w)
                w = self.parent[w]
            base = -1 if w is None else self._depth[w]
            for i, u in enumerate(reversed(trail)):
                self._depth[u] = base + i + 1
        self.nonroot: tuple[str, ...] = tuple(
            v for v in self.nodes if v != self.root
        )
        children: dict[str, list[str]] = {v: [] for v in self.nodes}
        for v, u in self.parent.items():
            if u is not None:
                children[u].append(v)
        self.children: dict[str, tuple[str, ...]] = {
            v: tuple(sorted(cs)) for v, cs in children.items()
        }
        self._rank: dict[str, int] = {}
        # deepest first, so a node comes after all of its descendants
        for v in sorted(self.nodes, key=lambda u: -self._depth[u]):
            cs = self.children[v]
            self._rank[v] = 1 + max(self._rank[c] for c in cs) if cs else 0
        # dim (p^k G)[p] for k = 0 .. length; every rank below length occurs
        ranks = Counter(self._rank[v] for v in self.nonroot)
        self.socle_dims = tuple(ranks[k] for k in range(len(ranks) + 1))
        self.size: int = p ** len(self.nonroot)
        # memos that die with this tree: baf.find_embedding's answers into
        # it by (exactness, pin pairs), per other source tree (held weakly) or
        # from itself, the profile ulm.invariants_of reads off socle_dims, and
        # the search skeleton baf builds on this tree's first search as a
        # source. Self-queries skip the weak dictionary's lookups: kept in
        # it, they put relation-sweep op_p50_ref 4.4% above this split (2 vCPUs).
        self.embed_memo: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.self_embed_memo: dict = {}
        self.invariants_memo = None
        self.search_skeleton = None

    # -- basic structure ---------------------------------------------------

    def depth(self, v: str) -> int:
        return self._depth[v]

    def rank(self, v: str) -> int:
        """Longest descending chain below v (0 for leaves)."""
        return self._rank[v]

    def length(self) -> int:
        """Least n with p^n G = 0."""
        return len(self.socle_dims) - 1

    @functools.cached_property
    def decomposition(self) -> "CyclicDecomposition":
        return CyclicDecomposition(self)

    @functools.cached_property
    def fragment(self) -> Fragment:
        """G(T) as a fragment: the non-root nodes in (depth, name) order,
        each with p-image its parent and height its rank."""
        order = sorted(self.nonroot, key=lambda v: (self._depth[v], v))
        index = {v: i for i, v in enumerate(order)}
        gens = []
        for v in order:
            u = self.parent[v]
            pimage = () if u == self.root else ((index[u], 1),)
            gens.append(FragmentGen(v, pimage, nat(self._rank[v])))
        return Fragment(self.p, gens)

    # -- elements ----------------------------------------------------------

    def zero(self) -> FragmentElement:
        return self.fragment.zero()

    def node(self, v: str) -> FragmentElement:
        return self.zero() if v == self.root else self.fragment.gen_named(v)

    def element(self, raw: Mapping[str, int]) -> FragmentElement:
        """Normalize an integer combination of nodes; the root is 0."""
        frag = self.fragment
        vec = [0] * frag.rank
        for v, c in raw.items():
            if v != self.root:
                vec[frag.index[v]] += c
        return frag.element(vec)

    def elements(self) -> Iterator[FragmentElement]:
        """All elements, in coefficient-vector lex order."""
        return self.fragment.elements()

    def p_beta_space(self, beta: int) -> tuple[list[FragmentElement], int]:
        """GF(p) basis and dimension of {x : px = 0, h(x) >= beta}.

        A socle element has coordinates k_j * p^(e_j - 1) in the cyclic
        decomposition and height min(e_j - 1) over its support, so the
        order-p elements p^(e_j - 1) of the summands with e_j > beta are a
        basis.
        """
        dec = self.decomposition
        basis = [
            dec.decode(dec.zero[:j] + (m // self.p,) + dec.zero[j + 1 :])
            for j, (e, m) in enumerate(zip(dec.exponents, dec.moduli))
            if e > beta
        ]
        return basis, len(basis)

    def __str__(self) -> str:
        return f"GroupTree(p={self.p}, nodes={len(self.nodes)})"

    __repr__ = __str__


class CyclicDecomposition:
    """G(T) = Z/p^e_1 + ... + Z/p^e_L, one cyclic summand per leaf.

    Summand j runs from its top t_j (a depth-1 node or a child that is not
    its parent's heavy child, one of largest rank) down heavy children to a
    leaf, so e_j = rank(t_j) + 1. Node v has coordinate p^(rank(t_j) -
    depth(v) + depth(t_j)) in each summand whose top is v or above v. This
    respects p*v = parent(v) and is dual on the socle to the basis of
    depth-1 nodes and non-heavy child - heavy sibling, so it is injective,
    and by counting bijective. Addition is coordinatewise modulo
    ``moduli``; h(x) is the least p-adic valuation of its coordinates.
    """

    def __init__(self, tree: GroupTree):
        p, parent, rank, depth = tree.p, tree.parent, tree.rank, tree.depth
        heavy = {v: max(cs, key=rank) for v, cs in tree.children.items() if cs}
        tops = [
            v for v in tree.nonroot
            if parent[v] == tree.root or heavy[parent[v]] != v
        ]
        # the tree's p and fragment, not the tree: the tree keeps this
        # decomposition, and a cycle would outlive a paused collector
        self.p, self.fragment = p, tree.fragment
        self.exponents = tuple(rank(t) + 1 for t in tops)
        self.moduli = tuple(p**e for e in self.exponents)
        self.zero = (0,) * len(tops)
        index = {t: j for j, t in enumerate(tops)}
        frag = tree.fragment  # parents come before their children
        self._coords: list[list[tuple[int, int]]] = []  # sparse, per generator
        for g in frag.gens:
            u = parent[g.name]
            out = [] if u == tree.root else [
                (j, a // p) for j, a in self._coords[frag.index[u]]
            ]
            if g.name in index:
                out.append((index[g.name], p ** rank(g.name)))
            self._coords.append(out)

        def bottom(v: str, steps: int) -> str:
            for _ in range(steps):
                v = heavy[v]
            return v

        # summand j is generated by its leaf minus the node at that depth
        # on the heavy path below the heavy sibling of t_j, if t_j has one
        self._gens = [
            (frag.index[bottom(t, rank(t))],
             None if parent[t] == tree.root
             else frag.index[bottom(heavy[parent[t]], rank(t))])
            for t in tops
        ]
        # heights as ordinals, indexed by valuation, so height_of allocates none
        self._heights = tuple(nat(k) for k in range(max(self.exponents, default=0)))
        # memos that die with the tree, each at most one entry per element:
        # elements by coordinates, coordinates by normal form and orders by
        # coordinates. Heights are not memoized: a memo of them showed no
        # gain on the relation sweep, whose elements have few coordinates
        self._decoded: dict[tuple[int, ...], FragmentElement] = {}
        self._encoded: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._orders: dict[tuple[int, ...], int] = {}
        self._layers: dict[tuple[int, bool], dict] = {}

    def socle_layer(self, r: int, exact: bool) -> dict:
        """Socle elements of height >= r (exactly r when `exact`), keyed by
        their GF(p) coordinates k: coordinate j is k_j * p^(e_j - 1).
        Refuses a layer drawn from more than DEFAULT_BOUND socle elements."""
        got = self._layers.get((r, exact))
        if got is None:
            p, exps = self.p, self.exponents
            if p ** sum(e > r for e in exps) > DEFAULT_BOUND:
                raise BoundExceeded(f"socle layer at height {r} exceeds {DEFAULT_BOUND}")
            got = self._layers[(r, exact)] = {}
            for k in itertools.product(*(range(p if e > r else 1) for e in exps)):
                if not exact or any(c for c, e in zip(k, exps) if e == r + 1):
                    got[k] = tuple(c * m // p for c, m in zip(k, self.moduli))
        return got

    def socle_vector(self, v: str, w: Optional[str] = None) -> tuple[int, ...]:
        """GF(p) coordinates k of the socle element v (a child of the root)
        or v - w (siblings v and w): coordinate j is k_j * p^(e_j - 1)."""
        index, p = self.fragment.index, self.p
        acc = [0] * len(self.moduli)
        for j, a in self._coords[index[v]]:
            acc[j] += a
        if w is not None:
            for j, a in self._coords[index[w]]:
                acc[j] -= a
        return tuple(a % m * p // m for a, m in zip(acc, self.moduli))

    def height_of(self, z: tuple[int, ...]) -> HeightValue:
        """h of the element with coordinates z: the least p-adic valuation
        over its nonzero coordinates, infinite for 0."""
        p, least = self.p, None
        for c in z:
            if c:
                k = 0
                while not c % p:
                    c //= p
                    k += 1
                if not k:
                    return self._heights[0]
                if least is None or k < least:
                    least = k
        return INFINITY if least is None else self._heights[least]

    def order_of(self, z: tuple[int, ...]) -> int:
        """The order of the element with coordinates z (reduced, as
        ``encode`` gives them): p^k for k the largest e_j - v_p(z_j) over
        its nonzero coordinates, 1 for 0."""
        o = self._orders.get(z)
        if o is None:
            # c has order m / gcd(c, m) in Z/m
            mods = self.moduli
            o = self._orders[z] = max(
                map(operator.floordiv, mods, map(math.gcd, z, mods)), default=1
            )
        return o

    def encode(self, x: FragmentElement) -> tuple[int, ...]:
        if x.fragment is not self.fragment:
            raise ValueError("element does not belong to this tree")
        z = self._encoded.get(x.coeffs)
        if z is None:
            acc = [0] * len(self.moduli)
            for i, c in enumerate(x.coeffs):
                if c:
                    for j, a in self._coords[i]:
                        acc[j] += c * a
            z = self._encoded[x.coeffs] = tuple(
                a % m for a, m in zip(acc, self.moduli)
            )
        return z

    def decode(self, z: tuple[int, ...]) -> FragmentElement:
        x = self._decoded.get(z)
        if x is None:
            frag = self.fragment
            vec = [0] * frag.rank
            for (leaf, partner), c in zip(self._gens, z):
                vec[leaf] += c
                if partner is not None:
                    vec[partner] -= c
            x = self._decoded[z] = frag.element(vec)
        return x


def _span_order(rows: Sequence[Sequence[int]], moduli: Sequence[int]) -> int:
    """|<rows>| for rows in Z/m_1 + ... + Z/m_L, each m_j a power of one
    prime p, by a p-adic echelon: the Howell form over Z/p^E of the rows
    with coordinate j scaled by p^E / m_j, worked in the unscaled
    coordinates.

    Column by column, a row whose entry has the largest order o (least
    valuation) is the pivot; its entry is u * m/o with u a unit, and every
    other entry is a multiple of m/o, which the pivot clears. The pivot's
    p-saturation, o times the row, is zero in the column and joins the
    rest, so the rest span the elements of the subgroup that are zero in
    the column. Each element is then c times the pivot, for exactly one c
    in [0, o), plus one of those, and the order is the product of the
    pivot orders.
    """
    rows = [r for r in rows if any(r)]
    order = 1
    for j, m in enumerate(moduli):
        pivot, top = None, 1
        for r in rows:
            o = m // math.gcd(r[j], m)
            if o > top:
                pivot, top = r, o
        if pivot is None:
            continue
        order *= top
        step = m // top
        inv = pow(pivot[j] // step, -1, top)
        rest = [[c * top % mm for c, mm in zip(pivot, moduli)]]
        for r in rows:
            if r is pivot:
                continue
            if r[j]:
                q = r[j] // step * inv
                r = [(a - q * b) % mm for a, b, mm in zip(r, pivot, moduli)]
            rest.append(r)
        rows = [r for r in rest if any(r)]
    return order


def echelon_reduce(basis: list, vec: Sequence[int], p: int) -> Sequence[int]:
    """vec (entries in [0, p)) reduced against basis, GF(p) echelon rows
    (pivot, row) with row[pivot] = 1 in the order added: zero at every
    pivot, and zero exactly when vec lies in the span."""
    for piv, row in basis:
        if vec[piv]:
            vec = [(a - vec[piv] * b) % p for a, b in zip(vec, row)]
    return vec


def echelon_add(basis: list, vec: Sequence[int], p: int) -> bool:
    """Reduce vec against basis (see ``echelon_reduce``). Append it and
    return True when independent; else return False, leaving basis as is."""
    vec = echelon_reduce(basis, vec, p)
    for piv, c in enumerate(vec):
        if c:
            inv = pow(c, -1, p)
            basis.append((piv, [a * inv % p for a in vec]))
            return True
    return False


def subgroup_elements(zero, gens, add, key=None):
    """The subgroup generated by gens in an abelian group, zero first.

    A tower: S_i = S_(i-1) + <g_i>, one ``_tower_step`` per generator.
    Elements with equal `key` count as equal; None when a step finds two
    elements with one key.
    """
    key = key or (lambda x: x)
    elems, seen = [zero], {key(zero): zero}
    for g in gens:
        if not _tower_step(elems, seen, g, add, key):
            return None
    return elems


def _tower_step(elems, seen, g, add, key) -> bool:
    """Grow the subgroup S = elems (zero first, indexed by key in `seen`)
    to S + <g> in place, appending the new elements.

    S + <g> is the union of the cosets S + c*g for c below the least m with
    m*g in S, one addition per element. Returns False when that m*g differs
    from the element of S with its key.
    """
    coset = elems[:]
    while True:
        first = add(coset[0], g)  # c*g, as coset[0] is zero
        old = seen.get(key(first))
        if old is not None:
            return old == first
        if len(elems) + len(coset) > DEFAULT_BOUND:
            raise BoundExceeded(f"subgroup exceeds {DEFAULT_BOUND}")
        coset = [first] + [add(x, g) for x in coset[1:]]
        seen.update((key(x), x) for x in coset)
        elems += coset


def _coeff_adder(frags: Sequence[Fragment]):
    """Addition of normalized coefficient tuples of the fragments in
    `frags`, laid end to end: add coordinatewise, then carry each block's
    overflow from its top generator down into its p-image, as
    ``Fragment._normalize`` does. Carries stay inside their block."""
    blocks, off = [], 0
    for f in frags:
        blocks.append((off, range(off + f.rank - 1, off - 1, -1), f.p, f.gens))
        off += f.rank

    def add(x, y):
        v = list(map(operator.add, x, y))
        for off, top_down, p, gens in blocks:
            for i in top_down:
                if v[i] >= p:
                    q, v[i] = divmod(v[i], p)
                    for j, c in gens[i - off].pimage:
                        v[off + j] += q * c
        return tuple(v)

    return add


def _as_fragment(G) -> Fragment:
    return G.fragment if isinstance(G, GroupTree) else G


def _pair_tower(fa: Fragment, abar, fb: Fragment, bbar):
    """The group of pairs generated by the (abar[i], bbar[i]), keyed by
    their left part, as coefficient tuples: fa's, then fb's. Returns the
    tuples, zero first, or None when the correspondence is not well
    defined; the left part of each is its first fa.rank entries.
    """
    if len(abar) != len(bbar):
        raise ValueError("tuples must have equal length")
    gens = [fa.coords(x) + fb.coords(y) for x, y in zip(abar, bbar)]
    return subgroup_elements(
        fa._zeros + fb._zeros,
        gens,
        _coeff_adder((fa, fb)),
        operator.itemgetter(slice(fa.rank)),
    )


def _injective(zs, cut: int) -> bool:
    # keys are unique, so only zs[0] = 0 has a zero left part; the map is
    # injective iff no other tuple has a zero right part
    return all(any(z[cut:]) for z in itertools.islice(zs, 1, None))


def _is_inclusion(A, abar, B, bbar) -> bool:
    """Whether abar[i] -> bbar[i] is the restriction of an inclusion, which
    settles that it extends to an isomorphism <abar> -> <bbar>.

    It is when one carrier's fragment is a prefix of the other's (a tree
    stands for its ``GroupTree.fragment``) and each entry on the longer
    side is the matching shorter-side entry padded with zeros. Carries
    only run to earlier generators, so padding with zeros is an injective
    homomorphism from the prefix into the whole, and the correspondence is
    its restriction to <abar> or the inverse of its restriction to <bbar>.
    Two trees answer False: their order count lists no pairs anyway.
    Entries of other fragments and tuples of unequal length answer False
    too, leaving the refusal to the pair tower.
    """
    if isinstance(A, GroupTree) and isinstance(B, GroupTree):
        return False
    fa, fb = _as_fragment(A), _as_fragment(B)
    if fa.rank > fb.rank:
        fa, abar, fb, bbar = fb, bbar, fa, abar
    if len(abar) != len(bbar) or not fa.is_prefix_of(fb):
        return False
    pad = (0,) * (fb.rank - fa.rank)
    return all(
        x.fragment is fa and y.fragment is fb and y.coeffs == x.coeffs + pad
        for x, y in zip(abar, bbar)
    )


def _generated_iso_exists(A, abar, B, bbar) -> bool:
    """Whether ``generated_iso`` would return a map, without building it.

    On two trees this counts orders and lists no pairs: the pairs H =
    <(abar[i], bbar[i])> project onto <abar> and <bbar>, and the map
    exists iff both projections are injective, that is iff |<abar>| =
    |H| = |<bbar>|. Entry orders are compared first, which settles every
    tuple of length at most 1; the subgroup orders come from
    ``_span_order`` on decomposition coordinates, with no element budget.
    Any other pair of carriers is first tried as an inclusion
    (``_is_inclusion``: a tuple against itself, taken into an extension of
    its fragment), which lists nothing; the rest list the pair tower, as
    ``generated_iso`` does.
    """
    if _is_inclusion(A, abar, B, bbar):
        return True
    if not (isinstance(A, GroupTree) and isinstance(B, GroupTree)):
        fa, fb = _as_fragment(A), _as_fragment(B)
        zs = _pair_tower(fa, abar, fb, bbar)
        return zs is not None and _injective(zs, fa.rank)
    if len(abar) != len(bbar):
        raise ValueError("tuples must have equal length")
    da, db = A.decomposition, B.decomposition
    xs, ys = [da.encode(x) for x in abar], [db.encode(y) for y in bbar]
    if any(map(operator.ne, map(da.order_of, xs), map(db.order_of, ys))):
        return False
    if len(xs) < 2:
        return True
    # equal entry orders are all 1 when the primes differ, so only one
    # prime reaches the echelons
    order = _span_order(xs, da.moduli)
    return order == _span_order(ys, db.moduli) == _span_order(
        list(map(operator.add, xs, ys)), da.moduli + db.moduli
    )


def generated_iso(A, abar, B, bbar):
    """Try to extend abar[i] -> bbar[i] to an isomorphism <abar> -> <bbar>.

    A and B are tree groups or fragments. Returns the full mapping dict
    (zero included) or None. The extension, when it exists, is unique, so
    this doubles as a membership-respecting closure of the correspondence.
    It is the group of pairs (a, b) generated by the (abar[i], bbar[i])
    keyed by a: the relations m*a_i = w of the tower present <abar>, so the
    map is well defined iff each m*b_i is the image of w, and injective iff
    the images differ. A tree stands for its ``GroupTree.fragment``; the
    tower adds coefficient tuples and wraps each pair once, at the end, so
    this route lists every pair and refuses more than DEFAULT_BOUND of
    them. ``_generated_iso_exists`` answers the existence question alone:
    on two trees it counts orders instead.
    """
    fa, fb = _as_fragment(A), _as_fragment(B)
    zs, cut = _pair_tower(fa, abar, fb, bbar), fa.rank
    if zs is None or not _injective(zs, cut):
        return None
    return {FragmentElement(fa, z[:cut]): FragmentElement(fb, z[cut:]) for z in zs}
