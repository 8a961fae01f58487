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
(totality, equality, interval comparison, socle mass) are decided exactly by
segmentation: between two adjacent clause boundaries the assigned value can
only depend on that parity, so the two ordinals a and a+1 decide the whole
segment.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .ordinal import OMEGA, Ordinal, nat
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


def _value_sum(parts: Iterable[UValue]) -> UValue:
    total = 0
    for v in parts:
        if v is OMEGA_VALUE:
            return OMEGA_VALUE
        total += v
    return total


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

    def matches(self, beta: Ordinal) -> bool:
        if not (self.lo <= beta < self.hi):
            return False
        if self.parity == "any":
            return True
        want = 0 if self.parity == "even" else 1
        return beta.finite_part % 2 == want


@dataclass(frozen=True)
class Profile:
    """Total invariant function on [0, length), first matching clause wins."""

    length: Ordinal
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        if not isinstance(self.clauses, tuple):
            object.__setattr__(self, "clauses", tuple(self.clauses))
        for a, b in self._segments(nat(0), self.length):
            for rep in _segment_reps(a, b):
                if not any(cl.matches(rep) for cl in self.clauses):
                    raise ValueError(
                        f"profile not total: no clause covers {rep}"
                    )

    def value_at(self, beta: Ordinal) -> UValue:
        """Invariant at beta; ordinals at or beyond the length give 0."""
        if not beta < self.length:
            return 0
        for cl in self.clauses:
            if cl.matches(beta):
                return cl.value
        raise AssertionError("validated profile missed a point")

    def boundaries(self) -> list[Ordinal]:
        pts = {self.length}
        for cl in self.clauses:
            pts.add(cl.lo)
            pts.add(cl.hi)
        return sorted(pts)

    def _segments(self, lo: Ordinal, hi: Ordinal):
        pts = sorted(
            {p for p in self.boundaries() if lo < p < hi} | {lo, hi}
        )
        return zip(pts, pts[1:])

    @property
    def limit_infinite(self) -> bool:
        """True when the invariant is omega at every limit below the length."""
        for a, b in self._segments(nat(0), self.length):
            rep = _limit_rep(a, b)
            if rep is not None and self.value_at(rep) is not OMEGA_VALUE:
                return False
        return True

    def __str__(self) -> str:
        rows = ", ".join(
            f"[{c.lo},{c.hi}){'' if c.parity == 'any' else ':' + c.parity}"
            f"={c.value}"
            for c in self.clauses
        )
        return f"Profile(len={self.length}; {rows})"


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


def _count_parity(a: Ordinal, b: Ordinal, parity: int) -> UValue:
    """How many ordinals in [a, b) have finite part congruent to parity."""
    if b.limit_part > a.limit_part:
        return OMEGA_VALUE
    fa, fb = a.finite_part, b.finite_part
    lo = fa + (parity - fa) % 2
    return max(0, (fb - lo + 1) // 2)


def _joint_segments(
    profiles: Sequence[Profile], lo: Ordinal, hi: Ordinal
):
    pts: set[Ordinal] = {lo, hi}
    for p in profiles:
        pts.update(x for x in p.boundaries() if lo < x < hi)
    ordered = sorted(pts)
    return zip(ordered, ordered[1:])


def profiles_agree_on(
    P: Profile, Q: Profile, lo: Ordinal, hi: Ordinal, mode: str = "eq"
) -> bool:
    """Compare invariants pointwise on [lo, hi): mode 'eq' or 'ge' (P >= Q)."""
    if not lo < hi:
        return True
    for a, b in _joint_segments((P, Q), lo, hi):
        for rep in _segment_reps(a, b):
            vp, vq = P.value_at(rep), Q.value_at(rep)
            if mode == "eq":
                if vp != vq:
                    return False
            elif mode == "ge":
                if not value_ge(vp, vq):
                    return False
            else:
                raise ValueError(f"bad mode {mode!r}")
    return True


def ulm_equal(P: Profile, Q: Profile) -> bool:
    """Extensional equality of the invariant functions (0 beyond length)."""
    hi = max(P.length, Q.length)
    if hi.is_zero:
        return True
    return profiles_agree_on(P, Q, nat(0), hi, "eq")


def socle_mass_above(P: Profile, theta: Ordinal) -> UValue:
    """Total socle dimension at heights >= theta: sum of u_beta, beta >= theta."""
    if not theta < P.length:
        return 0
    parts: list[UValue] = []
    for a, b in _joint_segments((P,), theta, P.length):
        for rep in _segment_reps(a, b):
            v = P.value_at(rep)
            if v == 0:
                continue
            cnt = _count_parity(a, b, rep.finite_part % 2)
            if cnt == 0:
                continue
            if cnt is OMEGA_VALUE or v is OMEGA_VALUE:
                return OMEGA_VALUE
            parts.append(v * cnt)
    return _value_sum(parts)


def socle_infinite_above(P: Profile, theta: Ordinal) -> bool:
    return socle_mass_above(P, theta) is OMEGA_VALUE


def band_split_index(P: Profile, thr: Ordinal) -> Optional[int]:
    """Classify the socle sizes P_{thr+k} over finite k.

    Returns None when P_{thr+k} is infinite for every k; otherwise the
    largest k with P_{thr+k} infinite (so P_{thr+k+1} is finite), or -1 when
    already P_thr is finite.
    """
    offsets = {0}
    for pt in P.boundaries():
        if thr <= pt < thr + OMEGA and pt.limit_part == thr.limit_part:
            offsets.add(pt.finite_part - thr.finite_part)
    ceiling = max(offsets) + 1
    if socle_infinite_above(P, thr + ceiling):
        return None
    # the tail mass only shrinks as the offset rises, so bisect for the
    # last infinite offset: lo is infinite (or -1), hi is finite
    lo, hi = -1, ceiling
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if socle_infinite_above(P, thr + mid):
            lo = mid
        else:
            hi = mid
    return lo


# -- invariants of explicit trees -------------------------------------------


_invariants_memo = weakref.WeakKeyDictionary()  # a profile dies with its tree


def invariants_of(tree: GroupTree) -> Profile:
    profile = _invariants_memo.get(tree)
    if profile is None:
        dims, length = tree.socle_dims, tree.length()
        clauses = tuple(
            Clause(nat(n), nat(n + 1), "any", dims[n] - dims[n + 1])
            for n in range(length)
        )
        profile = _invariants_memo[tree] = Profile(nat(length), clauses)
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
