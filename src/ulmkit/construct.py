"""Stage-by-stage assembly of a countable abelian p-group from a 0-1 table.

The ambient group is a countable direct sum of p-quasicyclic groups: an
element is a finite formal sum of fractions num/p^j (mod 1), one per slot.
The construction lists elements of the ambient group one at a time. Each
table row e drives one growth requirement:

  * while row e shows no fresh true cell, the requirement starts a new
    chain of depth e+1 in a fresh slot (one per stage), pushing the e-th
    invariant of the assembled group upward;
  * when a fresh true cell appears, every chain the requirement is
    currently watching is extended to a depth not used before and retired
    from the watch list, so the chains it contributed stop accumulating
    at depth e+1.

A row with only finitely many true cells therefore forces the e-th
invariant to come out infinite, and a row that is true unboundedly often
(flagged cofinal) leaves it finite. Closure requirements list sums of
already-listed pairs; audit requirements record the truth of "x + y = z"
for listed triples. The listed set generates the group, so invariant
estimates read off the chain-depth histogram.

A row's chains are slot numbers, not elements: the chain in slot k is
listed as the generators 1/p^j, j up to `chains[k]`. A row keeps three
slot lists, in the order the slots were allocated: the slots it started,
the slots it treated, and its watch list (started but not yet treated).
The watched chains all sit at depth e+1 and are retired as one batch:

  * a growth step takes the next free slot, sets its depth to e+1, counts
    it in the depth histogram and appends it to the started and watch
    lists; it builds no element;
  * a treatment takes the least fresh true cell (a cursor over the row's
    sorted true columns, so the used columns Y[e] are a prefix of them)
    and the least unused r, sets every watched slot to depth e+r+1, moves
    the whole batch in the histogram at once and appends it to the
    treated list.

`X` and `Xt` are read-only views of the started and treated lists: X[e]
builds row e's chain generators 1/p as a set of `PElement`s when asked.

Closure and audit rows decode their operands once, when first attended.
Listing is monotone (chains only deepen and extras only grow), so a
closure row whose operands are both listed has listed its sum and is
dropped, and an audit row whose three operands are listed goes live with
its truth a + b == c computed once. Every live row's truth is still
compared with the diagram D at every stage, so a flipped fact is caught.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from math import isqrt
from typing import Optional

from .pgroup import GroupTree, _is_prime


def cantor_pair(a: int, b: int) -> int:
    return (a + b) * (a + b + 1) // 2 + b


def cantor_unpair(z: int) -> tuple[int, int]:
    w = (isqrt(8 * z + 1) - 1) // 2
    b = z - w * (w + 1) // 2
    return w - b, b


def decode_triple(e: int) -> tuple[int, int, int]:
    i, rest = cantor_unpair(e)
    j, k = cantor_unpair(rest)
    return i, j, k


def nth_unit_fraction(n: int, p: int) -> tuple[int, int]:
    """The n-th fraction num/p^j in lowest terms, ordered by j then num.

    For each depth j there are p^j - p^(j-1) admissible numerators.
    """
    j = 1
    while True:
        count = p**j - p ** (j - 1)
        if n < count:
            num = (n // (p - 1)) * p + n % (p - 1) + 1
            return j, num
        n -= count
        j += 1


@dataclass(frozen=True, slots=True)
class PElement:
    """Finite sum of fractions mod 1, one per slot; parts sorted by slot.

    `PElement(p, parts)` validates its input: sorted distinct slots, each
    fraction in lowest terms. The results of `+`, unary `-` and `times_p`
    are normalized by construction and skip the check (`_trusted`), as
    do the chain generators 1/p that `ConstructionState.X` builds.
    """

    p: int
    parts: tuple[tuple[int, int, int], ...]  # (slot, num, jexp)

    @classmethod
    def _trusted(cls, p: int, parts: tuple[tuple[int, int, int], ...]) -> "PElement":
        """An element from parts already known to be normalized."""
        x = object.__new__(cls)
        object.__setattr__(x, "p", p)
        object.__setattr__(x, "parts", parts)
        return x

    def __post_init__(self):
        slots = [s for s, _, _ in self.parts]
        if slots != sorted(set(slots)):
            raise ValueError("parts must be sorted by distinct slots")
        for _, num, j in self.parts:
            if j < 1 or not 0 < num < self.p**j or num % self.p == 0:
                raise ValueError(f"{num}/p^{j} is not in lowest terms")

    @property
    def is_zero(self) -> bool:
        return not self.parts

    def __add__(self, other: "PElement") -> "PElement":
        if self.p != other.p:
            raise ValueError("elements have different p")
        acc: dict[int, tuple[int, int]] = {s: (n, j) for s, n, j in self.parts}
        for s, n, j in other.parts:
            if s not in acc:
                acc[s] = (n, j)
                continue
            n0, j0 = acc[s]
            J = max(j, j0)
            total = (n0 * self.p ** (J - j0) + n * self.p ** (J - j)) % self.p**J
            if total == 0:
                del acc[s]
                continue
            while total % self.p == 0:
                total //= self.p
                J -= 1
            acc[s] = (total, J)
        return PElement._trusted(
            self.p, tuple((s, n, j) for s, (n, j) in sorted(acc.items()))
        )

    def __neg__(self) -> "PElement":
        return PElement._trusted(
            self.p,
            tuple((s, self.p**j - n, j) for s, n, j in self.parts),
        )

    def times_p(self) -> "PElement":
        out = []
        for s, n, j in self.parts:
            if j == 1:
                continue  # lands on an integer
            n, J = n % self.p ** (j - 1), j - 1
            if n == 0:
                continue
            while n % self.p == 0:
                n //= self.p
                J -= 1
            out.append((s, n, J))
        return PElement._trusted(self.p, tuple(out))

    def order(self) -> int:
        return self.p ** max((j for _, _, j in self.parts), default=0)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(f"{n}/{self.p**j}@s{s}" for s, n, j in self.parts)

    __repr__ = __str__


def decode_elem(m: int, p: int) -> PElement:
    """Total decoding of naturals onto the ambient group; 0 is the zero."""
    if m == 0:
        return PElement(p, ())
    m -= 1
    items = []
    while True:
        m, item = cantor_unpair(m)
        items.append(item)
        if m == 0:
            break
        m -= 1  # unpair alone can return its input (1 -> (1, 0))
    slot = 0
    parts = []
    for item in items:
        delta, fr = cantor_unpair(item)
        slot += delta
        j, num = nth_unit_fraction(fr, p)
        parts.append((slot, num, j))
        slot += 1
    return PElement(p, tuple(parts))


@dataclass(frozen=True)
class PredicateTable:
    """Finite presentation of the predicate R(e, y) driving a construction.

    Cells with y < bound are read from `trues`; beyond the bound a row is
    true exactly when flagged cofinal. A row is in the target set S iff it
    holds only finitely often, which here means: not flagged.
    """

    bound: int
    trues: frozenset = frozenset()
    cofinal_rows: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "trues", frozenset(map(tuple, self.trues)))
        object.__setattr__(self, "cofinal_rows", frozenset(self.cofinal_rows))
        for e, y in self.trues:
            if not 0 <= y < self.bound:
                raise ValueError(f"true cell ({e}, {y}) lies beyond the bound")

    def R(self, e: int, y: int) -> bool:
        if y < self.bound:
            return (e, y) in self.trues
        return e in self.cofinal_rows

    def in_S(self, e: int) -> bool:
        return e not in self.cofinal_rows


class _SlotRows(Mapping):
    """Read-only view of per-row slot lists: row e maps to the set of its
    slots' chain generators 1/p, built on each lookup."""

    def __init__(self, p: int, rows: dict[int, list[int]]):
        self._p, self._rows = p, rows

    def __getitem__(self, e: int) -> set[PElement]:
        p = self._p
        return {PElement._trusted(p, ((k, 1, 1),)) for k in self._rows[e]}

    def __iter__(self):
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


class ConstructionState:
    """Mutable state of one construction: chains, listed sums, diagram."""

    def __init__(self, table: PredicateTable, p: int = 2):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.table = table
        self.p = p
        self.stage = 0
        self.chains: dict[int, int] = {}  # slot -> current depth
        self.extras: set[PElement] = set()
        self.D: dict[tuple, bool] = {}
        self.Y: dict[int, set[int]] = {}
        self.T: dict[int, set[int]] = {}
        self._started: dict[int, list[int]] = {}  # row -> slots it started
        self._treated: dict[int, list[int]] = {}  # row -> slots it treated
        self._watch: dict[int, list[int]] = {}  # row -> started, not treated
        self._cursor: dict[int, Optional[int]] = {}  # row -> its `_next_true`
        self.X = _SlotRows(p, self._started)
        self.Xt = _SlotRows(p, self._treated)
        self._free = 0  # slots are allocated in increasing order
        self._true_cols: dict[int, list[int]] = {}  # row -> true columns < bound
        for e, y in sorted(table.trues):
            self._true_cols.setdefault(e, []).append(y)
        self._hist: dict[int, int] = {}  # depth -> number of chains
        self._elems: dict[int, PElement] = {}
        # closure rows not yet settled, as their operand pairs (a, b)
        self._open_closures: list[tuple[PElement, PElement]] = []
        # audit rows with an operand not yet listed: (key, a, b, c)
        self._pending_audits: list[tuple[tuple, PElement, PElement, PElement]] = []
        # audit rows with every operand listed: (key, a + b == c), in D's key order
        self._live_audits: list[tuple[tuple, bool]] = []

    def elem(self, m: int) -> PElement:
        x = self._elems.get(m)
        if x is None:
            x = self._elems[m] = decode_elem(m, self.p)
        return x

    def contains(self, x: PElement) -> bool:
        """Listed so far: chain generators 1/p^j plus closure sums."""
        if x.is_zero:
            return True
        if len(x.parts) == 1:
            s, num, j = x.parts[0]
            if num == 1 and j <= self.chains.get(s, 0):
                return True
        return x in self.extras

    def _next_true(self, e: int) -> Optional[int]:
        """Least true column of row e not yet used, or None; the used
        columns Y[e] are a prefix of the row's true columns."""
        cols = self._true_cols.get(e, ())
        n = len(self.Y[e])
        if n < len(cols):
            return cols[n]
        if e in self.table.cofinal_rows:
            return self.table.bound + n - len(cols)
        return None

    # -- one stage ---------------------------------------------------------

    def advance(self) -> None:
        s = self.stage
        if s:
            e = s - 1  # the row first attended at this stage
            self.Y[e] = set()
            self._started[e], self._treated[e], self._watch[e] = [], [], []
            self._cursor[e] = self._next_true(e)
            m1, m2 = cantor_unpair(e)
            self._open_closures.append((self.elem(m1), self.elem(m2)))
            i, j, k = decode_triple(e)
            key = ("sum", i, j, k)
            self._pending_audits.append((key, self.elem(i), self.elem(j), self.elem(k)))
        chains, hist, cursor = self.chains, self._hist, self._cursor
        for e in range(s):
            y = cursor[e]
            if y is not None and y < s:
                if self._watch[e]:
                    self._treat(e, y)
                continue
            # no fresh true cell: start a chain of depth e+1 in the next slot
            k = self._free
            self._free = k + 1
            chains[k] = e + 1
            hist[e + 1] = hist.get(e + 1, 0) + 1
            self._started[e].append(k)
            self._watch[e].append(k)
        self._open_closures = [ab for ab in self._open_closures if not self._attend_closure(*ab)]
        self._attend_audits()
        self.stage = s + 1

    def _treat(self, e: int, y: int) -> None:
        """Retire row e's watched batch, all at depth e+1, with the fresh
        true cell y: the batch moves to depth e+r+1, r the least unused."""
        r = 1
        taken = self.T.setdefault(e, set())
        while r in taken:
            r += 1
        taken.add(r)
        watch, depth, chains = self._watch[e], e + r + 1, self.chains
        for k in watch:
            chains[k] = depth
        self._hist[e + 1] -= len(watch)
        self._hist[depth] = self._hist.get(depth, 0) + len(watch)
        self._treated[e] += watch
        watch.clear()
        self.Y[e].add(y)
        self._cursor[e] = self._next_true(e)

    def _attend_closure(self, a: PElement, b: PElement) -> bool:
        """List the sum of a listed pair; True once both operands are
        listed, after which the row can do nothing more."""
        if not (self.contains(a) and self.contains(b)):
            return False
        c = a + b
        if not c.is_zero and not self.contains(c):
            self.extras.add(c)
        return True

    def _attend_audits(self) -> None:
        """Record "a + b = c" for every audit row whose operands are listed.

        Pending rows whose operands are now all listed go live, after the
        rows already live, so the live list keeps D's key order; then
        every live row's memoized truth is compared against D."""
        contains = self.contains
        pending = []
        for row in self._pending_audits:
            key, a, b, c = row
            if contains(a) and contains(b) and contains(c):
                self._live_audits.append((key, a + b == c))
            else:
                pending.append(row)
        self._pending_audits = pending
        D = self.D
        for key, val in self._live_audits:
            if D.setdefault(key, val) != val:
                raise AssertionError(f"diagram fact {key} flipped")

    # -- reading the assembled group ----------------------------------------

    def estimates(self, window: int) -> list[int]:
        """u_e of the group generated by the listing, from chain depths."""
        return [self._hist.get(e + 1, 0) for e in range(window)]

    def as_group_tree(self) -> GroupTree:
        """Explicit tree for the chain part of the listing (closure sums
        generate nothing beyond it); one node per unit of chain depth."""
        parent: dict[str, Optional[str]] = {"r": None}
        for k, depth in sorted(self.chains.items()):
            prev = "r"
            for d in range(1, depth + 1):
                parent[f"s{k}d{d}"] = prev
                prev = f"s{k}d{d}"
        return GroupTree(self.p, parent)


@dataclass
class ConstructionRun:
    state: ConstructionState
    history: list[tuple[int, ...]] = field(default_factory=list)


def run_construction(
    table: PredicateTable,
    stages: int,
    p: int = 2,
    window: int = 8,
) -> ConstructionRun:
    """Run `stages` stages and record the invariant estimates after each."""
    if stages < 0 or window < 0:
        raise ValueError("stages and window must be non-negative")
    state = ConstructionState(table, p)
    history = []
    for _ in range(stages):
        state.advance()
        history.append(tuple(state.estimates(window)))
    return ConstructionRun(state, history)
