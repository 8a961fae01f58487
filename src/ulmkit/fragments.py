"""Profiled groups: an invariant profile plus a realized finite fragment.

``Fragment`` (in ``pgroup``) is the one element type for finite groups:
height-decorated generators with p-images, where the height of an element
is the least generator height over its support. A ``ProfiledGroup`` pairs
a fragment with an invariant profile. It stands for an infinitely
generated group and gains generators as extension demands them, within the
room the profile leaves. An explicit group is no profiled group: it is
passed as its ``GroupTree``, whose ``fragment`` names its generators after
the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .ordinal import Ordinal
from .pgroup import Fragment, FragmentElement, FragmentGen
from .ulm import Profile, value_ge


@dataclass(frozen=True)
class ProfiledGroup:
    """A group known by its invariant profile plus a realized finite fragment.

    The fragment stands for an infinitely generated group: new elements may
    be created at any height the profile has room for.
    """

    profile: Profile
    fragment: Fragment

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
        frag = self.fragment.extend(self.fragment.migrate(pimage), height)
        grown = ProfiledGroup(self.profile, frag)
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
    pg = ProfiledGroup(profile, Fragment(p, tuple(gens)))
    pg.validate_capacity()
    return pg

