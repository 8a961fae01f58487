"""Finite abelian p-groups presented by rooted trees.

A rooted tree T with prime label p presents the group G(T) generated by the
nodes, subject to p*v = parent(v) for every node and root = 0. Every element
has a unique normal form as a sum of non-root nodes with coefficients in
1..p-1, so |G(T)| = p^(number of non-root nodes) and a chain of n nodes under
the root presents Z_{p^n}.

Heights: h(x) is the largest k with x in p^k G(T), h(0) = infinity. For tree
groups p^k G(T) is spanned by the nodes whose subtree depth (rank) is >= k,
and that span is closed under the carry rewrites, so

    h(sum c_v v) = min over the support of rank(v).

With N_k the number of non-root nodes of rank >= k, |p^k G| = p^(N_k) and
dim (p^k G)[p] = N_k - N_(k+1), the count ``socle_dims`` keeps per rank.
``height_of`` and ``socle_dims`` use these rules; the enumeration methods
(``elements``, ``socle``, ``pk_chain``, ``p_beta_space``,
``height_of_by_chain``) recompute them from element arithmetic as the
independent cross-check, and refuse groups above a bound. Searches and
``generated_iso`` add in the coordinates of ``CyclicDecomposition``.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional

from .ordinal import INFINITY, HeightValue, nat

DEFAULT_BOUND = 3**10


class BoundExceeded(RuntimeError):
    """An enumeration would exceed its element budget."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(n**0.5) + 1):
        if n % d == 0:
            return False
    return True


@dataclass(frozen=True)
class GroupElement:
    tree: "GroupTree"
    coeffs: tuple[tuple[str, int], ...]  # sorted by node id, values in 1..p-1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.coeffs)

    def __add__(self, other: "GroupElement") -> "GroupElement":
        if other.tree is not self.tree:
            raise ValueError("elements live in different trees")
        raw = dict(self.coeffs)
        for v, c in other.coeffs:
            raw[v] = raw.get(v, 0) + c
        return self.tree.element(raw)

    def __neg__(self) -> "GroupElement":
        return self.tree.element({v: -c for v, c in self.coeffs})

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def __rmul__(self, k: int) -> "GroupElement":
        return self.tree.element({v: k * c for v, c in self.coeffs})

    def times_p(self) -> "GroupElement":
        return self.tree.times_p(self)

    def order(self) -> int:
        return self.tree.order_of(self)

    def height(self) -> HeightValue:
        return self.tree.height_of(self)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return "+".join(v if c == 1 else f"{c}*{v}" for v, c in self.coeffs)

    __repr__ = __str__


class GroupTree:
    def __init__(self, p: int, parent: Mapping[str, Optional[str]]):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
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
        # deepest first, so a node comes after all of its descendants
        self._deep_first = tuple(sorted(self.nodes, key=lambda u: -self._depth[u]))
        self._rank: dict[str, int] = {}
        for v in self._deep_first:
            cs = self.children[v]
            self._rank[v] = 1 + max(self._rank[c] for c in cs) if cs else 0
        # dim (p^k G)[p] for k = 0 .. length; every rank below length occurs
        ranks = Counter(self._rank[v] for v in self.nonroot)
        self.socle_dims = tuple(ranks[k] for k in range(len(ranks) + 1))
        self.size: int = p ** len(self.nonroot)
        self._zero = GroupElement(self, ())

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

    # -- elements ----------------------------------------------------------

    def zero(self) -> GroupElement:
        return self._zero

    def node(self, v: str) -> GroupElement:
        if v == self.root:
            return self._zero
        if v not in self.parent:
            raise KeyError(v)
        return GroupElement(self, ((v, 1),))

    def element(self, raw: Mapping[str, int]) -> GroupElement:
        """Normalize an integer combination of nodes (carries run upward)."""
        p, parent = self.p, self.parent
        acc = {v: int(c) for v, c in raw.items() if c}
        for v in acc:
            if v not in parent:
                raise KeyError(v)
        # deepest first, so a carry lands on a node not yet processed
        for v in self._deep_first:
            c = acc.get(v)
            if c is None or 0 <= c < p:
                continue
            q, acc[v] = divmod(c, p)
            u = parent[v]
            if u is not None:
                acc[u] = acc.get(u, 0) + q
        acc.pop(self.root, None)
        return GroupElement(
            self, tuple(sorted((v, c) for v, c in acc.items() if c))
        )

    def elements(self, bound: int = DEFAULT_BOUND) -> Iterator[GroupElement]:
        """All elements, in coefficient-vector lex order."""
        if self.size > bound:
            raise BoundExceeded(f"|G| = {self.size} exceeds bound {bound}")
        for vec in itertools.product(range(self.p), repeat=len(self.nonroot)):
            yield GroupElement(
                self,
                tuple(
                    (v, c) for v, c in zip(self.nonroot, vec) if c
                ),
            )

    # -- operations ---------------------------------------------------------

    def times_p(self, x: GroupElement) -> GroupElement:
        raw: dict[str, int] = {}
        for v, c in x.coeffs:
            u = self.parent[v]
            if u is not None:
                raw[u] = raw.get(u, 0) + c
        return self.element(raw)

    def order_of(self, x: GroupElement) -> int:
        k = 0
        while not x.is_zero:
            x = self.times_p(x)
            k += 1
        return self.p**k

    def height_of(self, x: GroupElement) -> HeightValue:
        if x.is_zero:
            return INFINITY
        return nat(min(self._rank[v] for v, _ in x.coeffs))

    def height_of_by_chain(
        self, x: GroupElement, bound: int = DEFAULT_BOUND
    ) -> HeightValue:
        if x.is_zero:
            return INFINITY
        chain = self.pk_chain(bound)
        k = 0
        while k + 1 < len(chain) and x in chain[k + 1]:
            k += 1
        return nat(k)

    def pk_chain(self, bound: int = DEFAULT_BOUND) -> list[frozenset[GroupElement]]:
        """[G, pG, p^2 G, ...] down to {0} (inclusive)."""
        cached = getattr(self, "_chain", None)
        if cached is not None:
            return cached
        layer = frozenset(self.elements(bound))
        chain = [layer]
        while len(layer) > 1:
            layer = frozenset(self.times_p(x) for x in layer)
            chain.append(layer)
        self._chain = chain
        return chain

    def pk_subgroup(self, k: int, bound: int = DEFAULT_BOUND) -> frozenset[GroupElement]:
        chain = self.pk_chain(bound)
        return chain[k] if k < len(chain) else chain[-1]

    def socle(self, bound: int = DEFAULT_BOUND) -> list[GroupElement]:
        """Elements of order dividing p, in lex order."""
        return [x for x in self.elements(bound) if x.times_p().is_zero]

    def p_beta_space(
        self, beta: int, bound: int = DEFAULT_BOUND
    ) -> tuple[list[GroupElement], int]:
        """GF(p) basis and dimension of {x : px = 0, h(x) >= beta}."""
        space = [
            x
            for x in self.socle(bound)
            if x.is_zero or self.height_of(x) >= nat(beta)
        ]
        basis: list[GroupElement] = []
        span = {self._zero}
        for x in space:
            if x in span:
                continue
            basis.append(x)
            span = {
                s + (k * x) for s in span for k in range(self.p)
            }
        return basis, len(basis)

    def subgroup(
        self, gens: Iterable[GroupElement], bound: int = DEFAULT_BOUND
    ) -> frozenset[GroupElement]:
        return frozenset(subgroup_elements(self._zero, gens, operator.add, bound))

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
        self.tree = tree
        self.exponents = tuple(rank(t) + 1 for t in tops)
        self.moduli = tuple(p**e for e in self.exponents)
        self.zero = (0,) * len(tops)
        index = {t: j for j, t in enumerate(tops)}
        self._coords: dict[str, list[tuple[int, int]]] = {}  # sparse
        for v in tree.nonroot:
            self._coords[v] = out = []
            a = v
            while a != tree.root:
                if a in index:
                    out.append((index[a], p ** (rank(a) - depth(v) + depth(a))))
                a = parent[a]

        def bottom(v: str, steps: int) -> str:
            for _ in range(steps):
                v = heavy[v]
            return v

        # summand j is generated by its leaf minus the node at that depth
        # on the heavy path below the heavy sibling of t_j, if t_j has one
        self._gens = [
            (bottom(t, rank(t)),
             None if parent[t] == tree.root else bottom(heavy[parent[t]], rank(t)))
            for t in tops
        ]
        # memos that die with the tree, each at most one entry per element
        self._decoded: dict[tuple[int, ...], GroupElement] = {}
        self._layers: dict[tuple[int, bool], dict] = {}

    def socle_layer(self, r: int, exact: bool, bound: int = DEFAULT_BOUND) -> dict:
        """Socle elements of height >= r (exactly r when `exact`), keyed by
        their GF(p) coordinates k: coordinate j is k_j * p^(e_j - 1).
        Refuses a layer drawn from more than `bound` socle elements."""
        p, exps = self.tree.p, self.exponents
        if p ** sum(e > r for e in exps) > bound:
            raise BoundExceeded(f"socle layer at height {r} exceeds {bound}")
        got = self._layers.get((r, exact))
        if got is None:
            got = self._layers[(r, exact)] = {}
            for k in itertools.product(*(range(p if e > r else 1) for e in exps)):
                if not exact or any(c for c, e in zip(k, exps) if e == r + 1):
                    got[k] = tuple(c * m // p for c, m in zip(k, self.moduli))
        return got

    def encode(self, x: GroupElement) -> tuple[int, ...]:
        if x.tree is not self.tree:
            raise ValueError("elements live in different trees")
        acc = [0] * len(self.moduli)
        for v, c in x.coeffs:
            for j, a in self._coords[v]:
                acc[j] += c * a
        return tuple(a % m for a, m in zip(acc, self.moduli))

    def decode(self, z: tuple[int, ...]) -> GroupElement:
        x = self._decoded.get(z)
        if x is None:
            raw: dict[str, int] = {}
            for (leaf, partner), c in zip(self._gens, z):
                raw[leaf] = raw.get(leaf, 0) + c
                if partner is not None:
                    raw[partner] = raw.get(partner, 0) - c
            x = self._decoded[z] = self.tree.element(raw)
        return x


def subgroup_elements(zero, gens, add, bound: int = DEFAULT_BOUND, key=None):
    """The subgroup generated by gens in an abelian group, zero first.

    A tower: S_i = S_(i-1) + <g_i> is the union of the cosets S_(i-1) +
    c*g_i for c below the least m with m*g_i in S_(i-1), one addition per
    element. Elements with equal `key` count as equal; None when such an
    m*g_i differs from the element of S_(i-1) with its key.
    """
    key = key or (lambda x: x)
    elems, seen = [zero], {key(zero): zero}
    for g in gens:
        coset = elems[:]
        while True:
            first = add(coset[0], g)  # c*g_i, as coset[0] is zero
            old = seen.get(key(first))
            if old is not None:
                if old != first:
                    return None
                break
            if len(elems) + len(coset) > bound:
                raise BoundExceeded(f"subgroup exceeds {bound}")
            coset = [first] + [add(x, g) for x in coset[1:]]
            seen.update((key(x), x) for x in coset)
            elems += coset
    return elems


def generated_iso(A, abar, B, bbar, bound: int = DEFAULT_BOUND):
    """Try to extend abar[i] -> bbar[i] to an isomorphism <abar> -> <bbar>.

    A and B only need ``zero()`` plus element ``+``; tree groups and
    fragments both qualify. Returns the full mapping dict (zero included)
    or None. The extension, when it exists, is unique, so this doubles as
    a membership-respecting closure of the correspondence. It is the group
    of pairs (a, b) generated by the (abar[i], bbar[i]) keyed by a: the
    relations m*a_i = w of the tower present <abar>, so the map is well
    defined iff each m*b_i is the image of w, and injective iff the images
    differ.
    """
    abar, bbar = tuple(abar), tuple(bbar)
    if len(abar) != len(bbar):
        raise ValueError("tuples must have equal length")
    if isinstance(A, GroupTree) and isinstance(B, GroupTree):
        # trees add in the coordinates of their cyclic decompositions, one
        # tuple per pair; the element pairs below make the median
        # relation-sweep query about 1.8x slower
        da, db = A.decomposition, B.decomposition
        cut, mods = len(da.moduli), da.moduli + db.moduli

        def add(x, y):
            return tuple([(a + b) % m for a, b, m in zip(x, y, mods)])

        gens = [da.encode(x) + db.encode(y) for x, y in zip(abar, bbar)]
        zs = subgroup_elements(da.zero + db.zero, gens, add, bound, lambda z: z[:cut])
        if zs is None:
            return None
        pairs = [(da.decode(z[:cut]), db.decode(z[cut:])) for z in zs]
    else:
        pairs = subgroup_elements(
            (A.zero(), B.zero()),
            list(zip(abar, bbar)),
            lambda x, y: (x[0] + y[0], x[1] + y[1]),
            bound,
            lambda x: x[0],
        )
    if pairs is None or len({y for _, y in pairs}) != len(pairs):
        return None
    return dict(pairs)
