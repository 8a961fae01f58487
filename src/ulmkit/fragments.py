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

import functools
import weakref
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

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

    @functools.cached_property
    def hypothesis_memo(self) -> weakref.WeakKeyDictionary:
        """baf.relation's verdicts with this group on the left: per holder
        of the right carrier's elements, held weakly, a dict of verdicts.
        They die with either side; a group never on the left builds none."""
        return weakref.WeakKeyDictionary()

    def zero(self) -> FragmentElement:
        return self.fragment.zero()

    def validate_capacity(self) -> None:
        """Realized socle dimensions must fit under the profile; a table that
        fits is kept on the group for ``create_element``."""
        self._fit(self.fragment.socle_height_dims())

    def _fit(self, dims: dict, at: Optional[Iterable[Ordinal]] = None) -> None:
        for beta in dims if at is None else at:
            if not beta < self.profile.length:
                raise ValueError(
                    f"fragment realizes height {beta} at or beyond the "
                    f"profile length {self.profile.length}"
                )
            have = self.profile.value_at(beta)
            if not value_ge(have, dims[beta]):
                raise ValueError(
                    f"fragment realizes {dims[beta]} independent order-p "
                    f"elements at height {beta}, profile allows {have}"
                )
        self.__dict__["_socle"] = dims

    def create_element(
        self, pimage: FragmentElement, height: Ordinal
    ) -> tuple["ProfiledGroup", FragmentElement]:
        """A generator at `height` with p-image `pimage` appended. A kept table
        changes only where ``Fragment.socle_rise`` says, and only there is it
        checked; a group built directly, with no table, is checked in full."""
        z = self.fragment.migrate(pimage)
        frag = self.fragment.extend(z, height)
        grown = ProfiledGroup(self.profile, frag)
        dims = self.__dict__.get("_socle")
        if dims is None:
            grown.validate_capacity()
        else:
            at = self.fragment.socle_rise(z.coeffs, height)
            grown._fit({**dims, **{b: dims.get(b, 0) + 1 for b in at}}, at)
        return grown, frag.gen(frag.rank - 1)


def canonical_fragment(
    profile: Profile,
    p: int,
    requests: Sequence[tuple[Ordinal, int]] = (),
) -> ProfiledGroup:
    """Profiled group whose fragment has `count` independent order-p
    generators at each requested height; with p-images zero, its socle
    table is the request counts."""
    heights = [height for height, count in requests for _ in range(count)]
    gens = [FragmentGen(f"g{i}", (), h) for i, h in enumerate(heights)]
    pg = ProfiledGroup(profile, Fragment(p, gens))
    if any(count < 0 for _, count in requests):
        raise ValueError("request counts must be nonnegative")
    pg._fit({h: heights.count(h) for h in sorted(set(heights), reverse=True)})
    return pg
