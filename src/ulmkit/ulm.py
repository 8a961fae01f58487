"""Ulm invariants: concrete computation and symbolic profiles.

For a tree group, u_beta(G) is the GF(p) dimension of P_beta / P_{beta+1}
where P_beta = {x : px = 0, h(x) >= beta}; only finite beta occur. With N_k
the number of non-root nodes of rank >= k, dim P_k = N_k - N_{k+1}, so
u_k = N_k - 2 N_{k+1} + N_{k+2} (Kaplansky). ``invariants_of`` reads this off
``GroupTree.socle_dims`` at any size; ``verify`` counts the same dimensions
by enumerating elements, as the independent cross-check.

Infinitely generated groups are described symbolically by a Profile: an
ordinal length plus an ordered list of first-match rule clauses assigning a
value (a natural number or omega) to each beta below the length, optionally
filtered by the parity of beta's finite part. All profile predicates here
(totality, equality, interval comparison, socle finiteness) are decided
exactly by segmentation: between two adjacent clause boundaries the assigned
value can only depend on that parity, so the two ordinals a and a+1 decide
the whole segment.

A Profile indexes itself once, when built. The sorted boundaries cut
[0, length) into segments, and a segment table holds each segment's value
at even and at odd finite parts, from the first clause covering it; this is
where totality is checked. ``value_at`` bisects the segment starts.
``limit_infinite`` and ``socle_finite_from`` are read off the table on
first use and kept. The latter is tau, the least theta with P_theta finite:
all the back-and-forth closed forms ask of the invariants above a threshold
is whether P_theta is infinite, that is whether theta < tau. The index is
not a dataclass field, so equality, hashing and repr see only the length
and the clauses; the tests check it against a plain clause scan.
"""

from __future__ import annotations

import functools
import operator
import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional

from .ordinal import OMEGA, ZERO, Ordinal, nat
from .pgroup import GroupTree


class _OmegaValue:
    """Invariant value omega (countably infinite dimension)."""

    _instance = None
    __slots__ = ()

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("ulmkit-omega-value")

    def __str__(self):
        return "w"

    __repr__ = __str__


OMEGA_VALUE = _OmegaValue()

UValue = int | _OmegaValue


def value_ge(a: UValue, b: UValue) -> bool:
    if a is OMEGA_VALUE:
        return True
    if b is OMEGA_VALUE:
        return False
    return a >= b


# -- profiles ---------------------------------------------------------------


@dataclass(frozen=True)
class Clause:
    lo: Ordinal
    hi: Ordinal
    parity: str = "any"  # any | even | odd (parity of the finite part)
    value: UValue = 0

    def __post_init__(self):
        if isinstance(self.lo, int):
            object.__setattr__(self, "lo", nat(self.lo))
        if isinstance(self.hi, int):
            object.__setattr__(self, "hi", nat(self.hi))
        if self.parity not in ("any", "even", "odd"):
            raise ValueError(f"bad parity {self.parity!r}")
        if self.value is not OMEGA_VALUE and (
            not isinstance(self.value, int) or self.value < 0
        ):
            raise ValueError(f"bad invariant value {self.value!r}")
        if not self.lo < self.hi:
            raise ValueError(f"empty clause interval [{self.lo}, {self.hi})")


@dataclass(frozen=True)
class Profile:
    """Total invariant function on [0, length), first matching clause wins."""

    length: Ordinal
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        if not isinstance(self.clauses, tuple):
            object.__setattr__(self, "clauses", tuple(self.clauses))
        bounds = tuple(sorted({self.length}.union(
            *((cl.lo, cl.hi) for cl in self.clauses)
        )))
        cuts = bounds[: bisect_right(bounds, self.length)]
        if cuts[0] != ZERO:
            cuts = (ZERO,) + cuts
        pos = {x: i for i, x in enumerate(cuts)}
        n = len(cuts) - 1
        # vals[i][q]: the value at finite-part parity q in segment i, filled
        # by the first clause covering it; a clause only visits the segments
        # it spans, so disjoint clauses build in one pass
        vals = [[_UNSET, _UNSET] for _ in range(n)]
        for cl in self.clauses:
            if cl.lo < self.length:
                for row in vals[pos[cl.lo] : pos.get(cl.hi, n)]:
                    for q in _PARITIES[cl.parity]:
                        if row[q] is _UNSET:
                            row[q] = cl.value
        for i, row in enumerate(vals):
            reps = _segment_reps(cuts[i], cuts[i + 1])
            for rep in reps:
                if row[rep.finite_part % 2] is _UNSET:
                    raise ValueError(f"profile not total: no clause covers {rep}")
            if len(reps) == 1:  # a one-point segment has a single parity
                row[1 - reps[0].finite_part % 2] = None
        # the index is not a field, so ==, hash and repr ignore it
        self.__dict__.update(_bounds=bounds, _cuts=cuts, _vals=tuple(map(tuple, vals)))

    # read off the table on first use: most profiles of trees never need them

    @functools.cached_property
    def limit_infinite(self) -> bool:
        """True when the invariant is omega at every limit below the length."""
        cuts = self._cuts
        return all(
            row[0] is OMEGA_VALUE  # limits are even
            for a, b, row in zip(cuts, cuts[1:], self._vals)
            if _limit_rep(a, b) is not None
        )

    @functools.cached_property
    def socle_finite_from(self) -> Ordinal:
        """tau, the least theta with only finitely many independent order-p
        elements of height >= theta: P_theta is infinite iff theta < tau.

        A segment [a, b) keeps the socle infinite up to b's limit part when
        it holds infinitely many ordinals with a nonzero value, and an omega
        value up to one past the last ordinal of its parity; both ends lie
        above a, so the topmost segment with an end decides.
        """
        cuts, vals = self._cuts, self._vals
        for i in range(len(vals) - 1, -1, -1):
            a, b = cuts[i], cuts[i + 1]
            ends = [b.limit_part] if b.limit_part > a.limit_part and any(vals[i]) else []
            for q, v in enumerate(vals[i]):
                if v is OMEGA_VALUE:
                    ends.append(b.pred() if b.is_successor and b.finite_part % 2 == q else b)
            if ends:
                return max(ends)
        return ZERO

    def __hash__(self) -> int:  # the dataclass hash, computed once and kept
        if "_hash" not in self.__dict__:
            self.__dict__["_hash"] = hash((self.length, self.clauses))
        return self.__dict__["_hash"]

    @functools.cached_property
    def relation_memo(self) -> weakref.WeakKeyDictionary:
        """baf.leq_paper's profile-clause verdicts with this profile on the
        left: per right profile, held weakly, a dict keyed by (delta,
        parity). They die with either profile."""
        return weakref.WeakKeyDictionary()

    def value_at(self, beta: Ordinal) -> UValue:
        """Invariant at beta; ordinals at or beyond the length give 0."""
        if not beta < self.length:
            return 0
        return self._vals[bisect_right(self._cuts, beta) - 1][beta.finite_part % 2]

    def boundaries(self) -> tuple[Ordinal, ...]:
        """The clause endpoints and the length, sorted."""
        return self._bounds

    def __str__(self) -> str:
        rows = ", ".join(
            f"[{c.lo},{c.hi}){'' if c.parity == 'any' else ':' + c.parity}"
            f"={c.value}"
            for c in self.clauses
        )
        return f"Profile(len={self.length}; {rows})"


_UNSET = object()
_PARITIES = {"any": (0, 1), "even": (0,), "odd": (1,)}


def _segment_reps(a: Ordinal, b: Ordinal) -> list[Ordinal]:
    """One ordinal per parity class present in [a, b)."""
    reps = [a]
    nxt = a + 1
    if nxt < b:
        reps.append(nxt)
    return reps


def _limit_rep(a: Ordinal, b: Ordinal) -> Optional[Ordinal]:
    """Some limit ordinal in [a, b), or None; one decides the whole segment."""
    if a.is_limit and not a.is_zero:
        return a
    cand = a.limit_part + OMEGA
    return cand if cand < b else None


def profiles_agree_on(
    P: Profile, Q: Profile, lo: Ordinal, hi: Ordinal, mode: str = "eq"
) -> bool:
    """Compare invariants pointwise on [lo, hi): mode 'eq' or 'ge' (P >= Q)."""
    if mode not in ("eq", "ge"):
        raise ValueError(f"bad mode {mode!r}")
    if not lo < hi:
        return True
    agree = operator.eq if mode == "eq" else value_ge
    pts = {lo, hi}
    for bounds in (P.boundaries(), Q.boundaries()):
        pts.update(bounds[bisect_right(bounds, lo) : bisect_left(bounds, hi)])
    pts = sorted(pts)
    return all(
        agree(P.value_at(rep), Q.value_at(rep))
        for a, b in zip(pts, pts[1:])
        for rep in _segment_reps(a, b)
    )


def ulm_equal(P: Profile, Q: Profile) -> bool:
    """Extensional equality of the invariant functions (0 beyond length)."""
    hi = max(P.length, Q.length)
    if hi.is_zero:
        return True
    return profiles_agree_on(P, Q, nat(0), hi, "eq")


# -- invariants of explicit trees -------------------------------------------


def invariants_of(tree: GroupTree) -> Profile:
    """The tree's invariants as a Profile, kept on the tree."""
    profile = tree.invariants_memo
    if profile is None:
        dims, length = tree.socle_dims, tree.length()
        clauses = tuple(
            Clause(nat(n), nat(n + 1), "any", dims[n] - dims[n + 1])
            for n in range(length)
        )
        profile = tree.invariants_memo = Profile(nat(length), clauses)
    return profile


# -- profile constructors ----------------------------------------------------


def make_G_hat(alpha: Ordinal, seq, i: int) -> Profile:
    """Invariant profile of the i-th comparison group over limit alpha.

    i = 0: omega everywhere below alpha. i >= 1: omega below the i-th term
    of the cofinal sequence, omega at even slots up to alpha, 0 at the
    remaining odd slots.
    """
    if not alpha.is_limit:
        raise ValueError("alpha must be a limit ordinal")
    if i == 0:
        return Profile(alpha, (Clause(nat(0), alpha, "any", OMEGA_VALUE),))
    cut = seq.at(i)
    return Profile(
        alpha,
        (
            Clause(nat(0), cut, "any", OMEGA_VALUE),
            Clause(nat(0), alpha, "even", OMEGA_VALUE),
            Clause(nat(0), alpha, "any", 0),
        ),
    )
