"""Finite height-decorated fragments of (possibly infinite) p-groups.

A Fragment is built by iterated one-generator extensions: generator i comes
with a prescribed height (an ordinal) and a p-image, an element over the
earlier generators. Elements are coefficient vectors in [0, p)^r; carries
replace p*g_i by its p-image, which only touches lower coordinates, so
normal forms are unique. The height of a nonzero normal form is the minimum
generator height over its support; h(0) = infinity.

That min rule is a valuation provided every creation obeys
h(pimage) >= height + 1, which the constructor enforces:

  * h(x + y) >= min(h(x), h(y)): support(x + y) is contained in
    support(x) | support(y) (carries only move mass to generators whose
    height is at least height+1 > height of the carried one... carries can
    only raise the min), and
  * h(px) >= h(x) + 1: multiplying by p rewrites each supported generator
    into its p-image, whose height exceeds the generator's.

For a fragment converted from a full tree group the min rule reproduces the
true divisibility height because p^k G(T) is spanned by the nodes of rank
at least k; the test suite checks the conversion exhaustively on small
trees.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .ordinal import INFINITY, HeightValue, Ordinal, nat
from .pgroup import BoundExceeded, GroupElement, GroupTree, subgroup_elements
from .ulm import OMEGA_VALUE, Profile, invariants_of, value_ge

FRAGMENT_BOUND = 2**13


@dataclass(frozen=True)
class FragmentGen:
    name: str
    pimage: tuple[int, ...]  # normalized coefficients over earlier generators
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

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coeffs) if c)

    def stable_key(self) -> tuple:
        """Enumeration key preserved by fragment extension (zero padding)."""
        top = max((i + 1 for i, c in enumerate(self.coeffs) if c), default=0)
        return (top, self.coeffs[:top])

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
        self.p = p
        self.gens: tuple[FragmentGen, ...] = tuple(gens)
        names = [g.name for g in self.gens]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        for i, g in enumerate(self.gens):
            if len(g.pimage) > i:
                raise ValueError(f"pimage of {g.name} uses later generators")
            if not isinstance(g.height, Ordinal):
                raise ValueError(f"height of {g.name} must be an ordinal")
            if any(c < 0 or c >= p for c in g.pimage):
                raise ValueError(f"pimage of {g.name} is not normalized")
            z = self._pad(g.pimage, i)
            zh = self._height_of_vec(z)
            if not zh >= g.height + 1:
                raise ValueError(
                    f"creating {g.name} at height {g.height} needs its "
                    f"p-image at height >= {g.height + 1}, got {zh}"
                )
        self.rank = len(self.gens)
        self.size = p**self.rank

    # -- vectors -------------------------------------------------------------

    @staticmethod
    def _pad(vec: Sequence[int], n: int) -> tuple[int, ...]:
        return tuple(vec) + (0,) * (n - len(vec))

    def _height_of_vec(self, vec: Sequence[int]) -> HeightValue:
        heights = [self.gens[i].height for i, c in enumerate(vec) if c]
        if not heights:
            return INFINITY
        return min(heights)

    def _normalize(self, vec: list[int]) -> tuple[int, ...]:
        p = self.p
        for i in range(len(vec) - 1, -1, -1):
            q, c = divmod(vec[i], p)
            vec[i] = c
            if q:
                for j, zc in enumerate(self.gens[i].pimage):
                    vec[j] += q * zc
        return tuple(vec)

    # -- elements --------------------------------------------------------------

    def zero(self) -> FragmentElement:
        return FragmentElement(self, (0,) * self.rank)

    def gen(self, i: int) -> FragmentElement:
        vec = [0] * self.rank
        vec[i] = 1
        return FragmentElement(self, tuple(vec))

    def gen_named(self, name: str) -> FragmentElement:
        for i, g in enumerate(self.gens):
            if g.name == name:
                return self.gen(i)
        raise KeyError(name)

    def element(self, vec: Sequence[int]) -> FragmentElement:
        if len(vec) != self.rank:
            raise ValueError(f"need {self.rank} coefficients, got {len(vec)}")
        return FragmentElement(self, self._normalize(list(vec)))

    def height_of(self, x: FragmentElement) -> HeightValue:
        return self._height_of_vec(x.coeffs)

    def elements(self, bound: int = FRAGMENT_BOUND) -> Iterator[FragmentElement]:
        if self.size > bound:
            raise BoundExceeded(f"fragment size {self.size} exceeds {bound}")
        for vec in itertools.product(range(self.p), repeat=self.rank):
            yield FragmentElement(self, vec)

    def elements_stable(
        self, bound: int = FRAGMENT_BOUND
    ) -> Iterator[FragmentElement]:
        """Enumeration in an order preserved by fragment extension: elements
        supported on the first m generators come before any element that
        touches generator m."""
        if self.size > bound:
            raise BoundExceeded(f"fragment size {self.size} exceeds {bound}")
        yield self.zero()
        for top in range(self.rank):
            for head in itertools.product(range(self.p), repeat=top):
                for last in range(1, self.p):
                    vec = head + (last,) + (0,) * (self.rank - top - 1)
                    yield FragmentElement(self, vec)

    def first_elements(self, n: int) -> list[FragmentElement]:
        if n > self.size:
            raise BoundExceeded(
                f"asked for {n} elements of a fragment of size {self.size}"
            )
        return list(itertools.islice(self.elements_stable(), n))

    def socle(self, bound: int = FRAGMENT_BOUND) -> list[FragmentElement]:
        return [x for x in self.elements(bound) if x.times_p().is_zero]

    def subgroup(
        self, gens: Iterable[FragmentElement], bound: int = FRAGMENT_BOUND
    ) -> frozenset[FragmentElement]:
        return frozenset(subgroup_elements(self.zero(), gens, operator.add, bound))

    # -- growth ----------------------------------------------------------------

    def extend(
        self,
        pimage: FragmentElement,
        height: Ordinal,
        name: Optional[str] = None,
    ) -> "Fragment":
        if pimage.fragment is not self:
            raise ValueError("p-image must live in this fragment")
        if name is None:
            name = f"g{self.rank}"
        gen = FragmentGen(name, pimage.coeffs, height)
        return Fragment(self.p, self.gens + (gen,))

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
        return FragmentElement(self, self._pad(x.coeffs, self.rank))

    # -- self-checks -------------------------------------------------------------

    def check_valuation(self, bound: int = 2**10) -> None:
        """Exhaustively verify the three valuation laws (small fragments)."""
        xs = list(self.elements(bound))
        for x in xs:
            hx = x.height()
            px = x.times_p()
            if not px.height() >= (hx + 1 if hx is not INFINITY else hx):
                raise AssertionError(f"h(p*{x}) < h({x})+1")
            for k in range(2, self.p):
                if (k * x).height() != hx:
                    raise AssertionError(f"h({k}*{x}) != h({x})")
        for x, y in itertools.product(xs, repeat=2):
            lower = min(x.height(), y.height())
            if not (x + y).height() >= lower:
                raise AssertionError(f"h({x}+{y}) < min of heights")

    def socle_height_dims(
        self, bound: int = FRAGMENT_BOUND
    ) -> dict[Ordinal, int]:
        """dim(S_beta / S_{beta+}) per realized height beta, S = order-p part."""
        socle = self.socle(bound)
        heights = sorted(
            {x.height() for x in socle if not x.is_zero}, reverse=True
        )
        dims: dict[Ordinal, int] = {}
        above = 0  # log_p |S_{> current}|
        for beta in heights:
            at = [x for x in socle if not x.is_zero and x.height() >= beta]
            size = len(at) + 1  # plus zero
            d = 0
            while self.p**d < size:
                d += 1
            if self.p**d != size:
                raise AssertionError(f"S_{beta} is not a subspace")
            dims[beta] = d - above
            above = d
        return dims

    def __str__(self) -> str:
        return f"Fragment(p={self.p}, rank={self.rank})"

    __repr__ = __str__


# -- profiled groups -----------------------------------------------------------


@dataclass(frozen=True)
class ProfiledGroup:
    """A group known by its invariant profile plus a realized finite fragment.

    growable fragments stand for infinitely generated groups: new elements
    may be created at any height the profile has room for. Non-growable ones
    wrap explicit tree groups, where extension must find elements instead.
    """

    profile: Profile
    fragment: Fragment
    growable: bool = True
    tree: Optional[GroupTree] = None

    def zero(self) -> FragmentElement:
        return self.fragment.zero()

    def validate_capacity(self, bound: int = FRAGMENT_BOUND) -> None:
        """Realized socle dimensions must fit under the profile."""
        for beta, d in self.fragment.socle_height_dims(bound).items():
            if not beta < self.profile.length:
                raise ValueError(
                    f"fragment realizes height {beta} at or beyond the "
                    f"profile length {self.profile.length}"
                )
            have = self.profile.value_at(beta)
            if not value_ge(have, d):
                raise ValueError(
                    f"fragment realizes {d} independent order-p elements at "
                    f"height {beta}, profile allows {have}"
                )

    def create_element(
        self,
        pimage: FragmentElement,
        height: Ordinal,
        name: Optional[str] = None,
    ) -> tuple["ProfiledGroup", FragmentElement]:
        if not self.growable:
            raise ValueError("cannot create elements of an explicit group")
        frag = self.fragment.extend(self.fragment.migrate(pimage), height, name)
        grown = ProfiledGroup(self.profile, frag, True, None)
        grown.validate_capacity()
        return grown, frag.gen(frag.rank - 1)

    def migrate(self, x: FragmentElement) -> FragmentElement:
        return self.fragment.migrate(x)


def canonical_fragment(
    profile: Profile,
    p: int,
    requests: Sequence[tuple[Ordinal, int]] = (),
) -> ProfiledGroup:
    """Profiled group whose fragment has `count` independent order-p
    generators at each requested height."""
    gens: list[FragmentGen] = []
    idx = 0
    for height, count in requests:
        for _ in range(count):
            gens.append(FragmentGen(f"g{idx}", (), height))
            idx += 1
    pg = ProfiledGroup(profile, Fragment(p, tuple(gens)), True, None)
    pg.validate_capacity()
    return pg


def from_tree(tree: GroupTree) -> ProfiledGroup:
    """Wrap an explicit tree group as a (non-growable) profiled group."""
    order = sorted(tree.nonroot, key=lambda v: (tree.depth(v), v))
    index = {v: i for i, v in enumerate(order)}
    gens = []
    for v in order:
        u = tree.parent[v]
        if u == tree.root:
            pimage: tuple[int, ...] = ()
        else:
            vec = [0] * index[u]
            vec.append(1)
            pimage = tuple(vec)
        gens.append(FragmentGen(v, pimage, nat(tree.rank(v))))
    frag = Fragment(tree.p, tuple(gens))
    return ProfiledGroup(invariants_of(tree), frag, False, tree)


def tree_to_fragment_elem(pg: ProfiledGroup, x: GroupElement) -> FragmentElement:
    if pg.tree is None or x.tree is not pg.tree:
        raise ValueError("element does not belong to this wrapped tree")
    pos = {g.name: i for i, g in enumerate(pg.fragment.gens)}
    vec = [0] * pg.fragment.rank
    for v, c in x.coeffs:
        vec[pos[v]] = c
    return FragmentElement(pg.fragment, tuple(vec))


def fragment_to_tree_elem(pg: ProfiledGroup, x: FragmentElement) -> GroupElement:
    if pg.tree is None:
        raise ValueError("profiled group does not wrap a tree")
    names = {i: g.name for i, g in enumerate(pg.fragment.gens)}
    return pg.tree.element(
        {names[i]: c for i, c in enumerate(x.coeffs) if c}
    )
