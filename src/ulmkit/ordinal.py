"""Ordinal arithmetic below omega^omega, plus the height value lattice.

Ordinals are kept in Cantor normal form as tuples of (exponent, coefficient)
pairs with exponents strictly decreasing and coefficients >= 1; the empty
tuple is 0. Everything here is exact and hashable so ordinals can key caches
and sit inside frozen dataclasses.

Text syntax, parsed by :func:`parse_ordinal` and emitted by ``str()``:
``w^2*3+w*2+5`` with ``w^1`` written ``w``, coefficient 1 omitted, and ``0``
for zero.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union


# the generated order compares term tuples lexicographically, which is ordinal
# order: the first differing term decides, and a proper prefix is smaller
@dataclass(frozen=True, order=True)
class Ordinal:
    terms: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        last = None
        for exp, coeff in self.terms:
            if exp < 0 or coeff < 1:
                raise ValueError(f"bad CNF term ({exp}, {coeff})")
            if last is not None and exp >= last:
                raise ValueError("CNF exponents must strictly decrease")
            last = exp

    @classmethod
    def _trusted(cls, terms: tuple[tuple[int, int], ...]) -> "Ordinal":
        """An ordinal from terms already known to be in Cantor normal form."""
        x = object.__new__(cls)
        object.__setattr__(x, "terms", terms)
        return x

    # -- structure --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_finite(self) -> bool:
        return not self.terms or self.terms[0][0] == 0

    @property
    def is_limit(self) -> bool:
        """True when the ordinal is a limit (nonzero with no finite part)."""
        return bool(self.terms) and self.terms[-1][0] >= 1

    @property
    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0] == 0

    @property
    def finite_part(self) -> int:
        if self.terms and self.terms[-1][0] == 0:
            return self.terms[-1][1]
        return 0

    @property
    def limit_part(self) -> "Ordinal":
        """The ordinal with its finite part removed."""
        if self.terms and self.terms[-1][0] == 0:
            return Ordinal(self.terms[:-1])
        return self

    def as_int(self) -> int:
        if not self.is_finite:
            raise ValueError(f"{self} is not finite")
        return self.finite_part

    def pred(self) -> "Ordinal":
        if not self.is_successor:
            raise ValueError(f"{self} is not a successor")
        exp, coeff = self.terms[-1]
        rest = self.terms[:-1]
        return Ordinal(rest if coeff == 1 else rest + ((0, coeff - 1),))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: Union["Ordinal", int]) -> "Ordinal":
        if type(other) is int and other > 0:  # x + n: grow the finite part
            terms = self.terms
            if terms and terms[-1][0] == 0:
                return Ordinal._trusted(terms[:-1] + ((0, terms[-1][1] + other),))
            return Ordinal._trusted(terms + ((0, other),))
        if isinstance(other, int):
            other = nat(other)
        if not isinstance(other, Ordinal):
            return NotImplemented
        if other.is_zero:
            return self
        lead = other.terms[0][0]
        # terms of self below the lead exponent of other are absorbed
        kept = [t for t in self.terms if t[0] > lead]
        merged = list(other.terms)
        for exp, coeff in self.terms:
            if exp == lead:
                merged[0] = (lead, coeff + merged[0][1])
        # merged is in CNF and every kept exponent exceeds its lead: CNF
        return Ordinal._trusted(tuple(kept) + tuple(merged))

    def __radd__(self, other: int) -> "Ordinal":
        return nat(other) + self

    # -- text -------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp, coeff in self.terms:
            if exp == 0:
                parts.append(str(coeff))
            else:
                base = "w" if exp == 1 else f"w^{exp}"
                parts.append(base if coeff == 1 else f"{base}*{coeff}")
        return "+".join(parts)

    def __repr__(self) -> str:
        return f"Ordinal({self})"


ZERO = Ordinal()
OMEGA = Ordinal(((1, 1),))


# the naturals most callers ask for, built once; immutable, so shared safely
_SMALL_NATS = (ZERO,) + tuple(Ordinal(((0, n),)) for n in range(1, 64))


def nat(n: int) -> Ordinal:
    if n < 0:
        raise ValueError("naturals only")
    if n < len(_SMALL_NATS):
        return _SMALL_NATS[n]
    return Ordinal(((0, n),))


def omega_power(k: int, coeff: int = 1) -> Ordinal:
    return Ordinal(((k, coeff),))


_TERM_RE = re.compile(r"^(?:w(?:\^(\d+))?(?:\*(\d+))?|(\d+))$")


def parse_ordinal(text: str) -> Ordinal:
    """Parse ``w^k*c+...+m`` into CNF; exponents must strictly decrease."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty ordinal literal")
    if s == "0":
        return ZERO
    terms: list[tuple[int, int]] = []
    for chunk in s.split("+"):
        m = _TERM_RE.match(chunk)
        if not m:
            raise ValueError(f"bad ordinal term {chunk!r} in {text!r}")
        if m.group(3) is not None:
            exp, coeff = 0, int(m.group(3))
        else:
            exp = int(m.group(1)) if m.group(1) is not None else 1
            coeff = int(m.group(2)) if m.group(2) is not None else 1
        if coeff == 0:
            raise ValueError(f"zero coefficient in {text!r}")
        terms.append((exp, coeff))
    order = [t[0] for t in terms]
    if any(a <= b for a, b in zip(order, order[1:])):
        raise ValueError(f"exponents must strictly decrease in {text!r}")
    return Ordinal(tuple(terms))


# -- decompositions -------------------------------------------------------


def split_omega(beta: Ordinal) -> tuple[Ordinal, int]:
    """Write beta = w*gamma + m with m finite; return (gamma, m)."""
    gamma_terms = tuple((e - 1, c) for e, c in beta.terms if e >= 1)
    return Ordinal(gamma_terms), beta.finite_part


def omega_times(gamma: Ordinal) -> Ordinal:
    """Left product w*gamma (distributes over CNF terms)."""
    return Ordinal(tuple((e + 1, c) for e, c in gamma.terms))


def parity_split(beta: Ordinal) -> tuple[Ordinal, int]:
    """Halve beta: return (delta, parity) with beta = "2*delta + parity".

    Doubling here means lambda + k -> lambda + 2k on the finite part, so
    delta = w*gamma + m//2 where beta = w*gamma + m; limits are even.
    """
    if beta.is_finite:  # gamma = 0: skip building w*0 and adding to it
        m = beta.finite_part
        return nat(m // 2), m % 2
    gamma, m = split_omega(beta)
    return omega_times(gamma) + nat(m // 2), m % 2


def double(delta: Ordinal) -> Ordinal:
    """Inverse direction of :func:`parity_split`: lambda + k -> lambda + 2k."""
    gamma, m = split_omega(delta)
    return omega_times(gamma) + nat(2 * m)


def hat_alpha(alpha: Ordinal) -> Ordinal:
    """Relation-index bound attached to a limit length alpha >= w.

    sup over beta < alpha of (least even index exceeding the pair bound at
    beta), which works out to: double the omega-quotient's predecessor plus 3
    when alpha is a multiple-of-w successor-quotient, the quotient itself when
    it is a limit, and double-quotient+3 when a finite part is present.
    Fixed points: hat(w) = 3, hat(w*m) = 2m+1, hat(w^2) = w.
    """
    if alpha < OMEGA:
        raise ValueError("hat is defined for alpha >= w")
    gamma, m = split_omega(alpha)
    if m > 0:
        return double(gamma) + 3
    if gamma.is_successor:
        return double(gamma.pred()) + 3
    return gamma


# -- height values ---------------------------------------------------------


class _Infinity:
    """Height of 0: compares strictly above every ordinal."""

    _instance = None
    __slots__ = ()

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("ulmkit-infinity")

    # heights compare with heights only (_HEIGHTS, after this class)
    def __lt__(self, other):
        return False if isinstance(other, _HEIGHTS) else NotImplemented

    def __le__(self, other):
        return other is self if isinstance(other, _HEIGHTS) else NotImplemented

    def __gt__(self, other):
        return other is not self if isinstance(other, _HEIGHTS) else NotImplemented

    def __ge__(self, other):
        return True if isinstance(other, _HEIGHTS) else NotImplemented

    def __add__(self, other):
        return self if isinstance(other, (Ordinal, int)) else NotImplemented

    def __str__(self):
        return "inf"

    __repr__ = __str__


_HEIGHTS = (Ordinal, _Infinity)
INFINITY = _Infinity()

HeightValue = Ordinal | _Infinity


def height_min(a: HeightValue, b: HeightValue) -> HeightValue:
    return a if a <= b else b


# -- cofinal sequences -----------------------------------------------------


@dataclass(frozen=True)
class CofinalSequence:
    """Strictly increasing sequence alpha_1 < alpha_2 < ... with sup = limit.

    Given as data: the terms of ``head`` first, then alpha_i = base +
    w^k*(i - len(head)), where w^(k+1) is the last Cantor normal form term
    of ``limit``. The tail increases and has supremum base + w^(k+1), so
    the sequence is refused with ``ValueError`` unless ``limit`` is a
    limit, the head increases into the tail and that supremum is
    ``limit``. ``at`` is 1-indexed.
    """

    limit: Ordinal
    base: Ordinal
    head: tuple[Ordinal, ...] = ()
    label: str = "custom"

    def __post_init__(self):
        if not self.limit.is_limit:
            raise ValueError(f"{self.limit} is not a limit ordinal")
        terms = self.head + (self.at(len(self.head) + 1),)
        for a, b in zip(terms, terms[1:]):
            if not a < b:
                raise ValueError(f"cofinal sequence {self.label} does not increase at {b}")
        sup = self.base + omega_power(self.limit.terms[-1][0])
        if sup != self.limit:
            raise ValueError(f"cofinal sequence {self.label} converges to {sup}, not {self.limit}")

    def at(self, i: int) -> Ordinal:
        if i < 1:
            raise ValueError("cofinal sequences are 1-indexed")
        n = len(self.head)
        if i <= n:
            return self.head[i - 1]
        return self.base + omega_power(self.limit.terms[-1][0] - 1, i - n)

    def __str__(self) -> str:
        return f"{self.label} -> {self.limit}"


def canonical_cofinal(alpha: Ordinal) -> CofinalSequence:
    """Fundamental sequence: w*(beta+1) gets w*beta + i, w^(k+1)*stuff gets
    the natural coefficient ramp. Covers every limit below w^w."""
    if not alpha.is_limit:
        raise ValueError(f"{alpha} is not a limit ordinal")
    # last term w^(k+1)*c: approach along base + w^k*i, base = alpha less w^(k+1)
    lead_exp, lead_coeff = alpha.terms[-1]
    rest = ((lead_exp, lead_coeff - 1),) if lead_coeff > 1 else ()
    return CofinalSequence(alpha, Ordinal(alpha.terms[:-1] + rest), label=f"{alpha}[i]")


def cofinal_from_text(alpha: Ordinal, rule: str) -> CofinalSequence:
    """Rules: ``auto`` (canonical), ``w*i``, ``<ordinal>+i``, or a strictly
    increasing comma list of ordinals, continued past its end in unit steps.
    Each rule's supremum must be alpha: a list's is its last entry + w,
    ``<ordinal>+i``'s is that ordinal + w, and ``w*i``'s is w^2."""
    label = rule.strip().replace(" ", "")
    if "," in rule:
        head = tuple(parse_ordinal(t) for t in rule.split(","))
        seq = CofinalSequence(head[-1] + OMEGA, head[-1], head, f"list:{rule}")
    elif label == "auto":
        return canonical_cofinal(alpha)
    elif label == "w*i":
        seq = CofinalSequence(omega_power(2), ZERO, label=label)
    elif label.endswith("+i"):
        base = parse_ordinal(label[:-2])
        seq = CofinalSequence(base + OMEGA, base, label=label)
    else:
        raise ValueError(f"unrecognized cofinal rule {rule!r}")
    if seq.limit != alpha:
        raise ValueError(f"cofinal rule {rule!r} converges to {seq.limit}, not {alpha}")
    return seq
