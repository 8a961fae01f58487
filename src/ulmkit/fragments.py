"""Profiled groups: an invariant profile plus a realized finite fragment.

``Fragment`` (in ``pgroup``) is the one element type for finite groups:
height-decorated generators with p-images, where the height of an element
is the least generator height over its support. A ``ProfiledGroup`` pairs
a fragment with an invariant profile. Growable ones stand for infinitely
generated groups and gain generators as extension demands them, within the
room the profile leaves; non-growable ones wrap a tree group, whose
``GroupTree.fragment`` names its generators after the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .ordinal import Ordinal
from .pgroup import (
    Fragment,
    FragmentElement,
    FragmentGen,
    GroupTree,
)
from .ulm import Profile, invariants_of, value_ge


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

    def zero(self) -> FragmentElement:
        return self.fragment.zero()

    def validate_capacity(self) -> None:
        """Realized socle dimensions must fit under the profile."""
        for beta, d in self.fragment.socle_height_dims().items():
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
        self, pimage: FragmentElement, height: Ordinal
    ) -> tuple["ProfiledGroup", FragmentElement]:
        if not self.growable:
            raise ValueError("cannot create elements of an explicit group")
        frag = self.fragment.extend(self.fragment.migrate(pimage), height)
        grown = ProfiledGroup(self.profile, frag, True)
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
    pg = ProfiledGroup(profile, Fragment(p, tuple(gens)), True)
    pg.validate_capacity()
    return pg


def from_tree(tree: GroupTree) -> ProfiledGroup:
    """Wrap an explicit tree group as a (non-growable) profiled group."""
    return ProfiledGroup(invariants_of(tree), tree.fragment, False)
