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
listed as the generators 1/p^j, j up to `chains[k]`. A row keeps two
slot lists, in the order the slots were allocated: the slots it started
and the slots it treated. A treatment retires the whole watch batch, so
the treated slots are a prefix of the started ones and the watched slots
(started but not yet treated) are the rest. They all sit at depth e+1:

  * a growth step takes the next free slot, sets its depth to e+1, counts
    it in the depth histogram and appends it to the started list; it
    builds no element;
  * a treatment takes the least fresh true cell (a cursor over the row's
    sorted true columns, so the used columns Y[e] are a prefix of them)
    and the least unused r, sets every watched slot to depth e+r+1, moves
    the whole batch in the histogram at once and appends it to the
    treated list.

`X` and `Xt` are read-only views of the started and treated lists: X[e]
builds row e's chain generators 1/p as a set of `PElement`s when asked.

Closure and audit rows decode their operands once, when first attended,
and are checked again only when an operand they wait for is listed.
Listing is monotone (chains only deepen and extras only grow), so a row
that finds an operand unlisted parks on it, in a dict keyed by that
element. A generator 1/p^j in slot k is also noted under slot k: it is
listed by its chain reaching depth j, never by a sum, since every sum of
listed elements lies within its slots' chain depths.

  * a growth step or treatment that deepens a slot wakes the rows parked
    on the generators it lists, and a sum added to the extras wakes the
    rows parked on that sum;
  * a woken row checks its operands again and either settles or parks on
    the next unlisted one; a settled closure row lists its sum once, and
    a settled audit row goes live with its truth a + b == c computed once.

Within a stage the order is that of a rescan of every open row. A row is
first checked at the stage that attends it. After the growth steps, the
due closure rows are checked in increasing row order; a sum listed by
row i wakes the later rows for this pass and the earlier ones for the
next stage's. Then the due audit rows go live in increasing row order.
Every live fact is still compared with the diagram D at every stage (one
subset test of dict items), so a flipped fact is caught.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from heapq import heappop, heappush
from math import isqrt
from typing import Optional

from .pgroup import GroupTree, _require_prime


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
    fraction in lowest terms. A sum is normalized by construction and
    skips the check (`_trusted`), as do the chain generators 1/p that
    `ConstructionState.X` builds.
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
        _require_prime(p)
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
        self._cursor: dict[int, Optional[int]] = {}  # row -> its `_next_true`
        self.X = _SlotRows(p, self._started)
        self.Xt = _SlotRows(p, self._treated)
        self._free = 0  # slots are allocated in increasing order
        self._true_cols: dict[int, list[int]] = {}  # row -> true columns < bound
        for e, y in sorted(table.trues):
            self._true_cols.setdefault(e, []).append(y)
        self._hist: dict[int, int] = {}  # depth -> number of chains
        self._elems: dict[int, PElement] = {}
        # row -> its closure operands (a, b) / its audit row (key, a, b, c)
        self._closures: list[tuple[PElement, PElement]] = []
        self._audits: list[tuple[tuple, PElement, PElement, PElement]] = []
        # unlisted element -> the closure / audit rows parked on it
        self._closures_on: dict[PElement, list[int]] = {}
        self._audits_on: dict[PElement, list[int]] = {}
        # slot -> {j: 1/p^j in that slot}, for the generators rows park on
        self._gens_on: dict[int, dict[int, PElement]] = {}
        # rows to check at this stage's closure and audit passes
        self._due_closures: list[int] = []
        self._due_audits: list[int] = []
        # live audit rows: key -> a + b == c, in D's key order
        self._facts: dict[tuple, bool] = {}

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
            self._started[e], self._treated[e] = [], []
            self._cursor[e] = self._next_true(e)
            m1, m2 = cantor_unpair(e)
            self._closures.append((self.elem(m1), self.elem(m2)))
            self._due_closures.append(e)
            i, j, k = decode_triple(e)
            self._audits.append((("sum", i, j, k), self.elem(i), self.elem(j), self.elem(k)))
            self._due_audits.append(e)
        chains, hist, cursor = self.chains, self._hist, self._cursor
        started, treated = self._started, self._treated
        first_new = self._free
        for e in range(s):
            y = cursor[e]
            if y is not None and y < s:
                if len(started[e]) > len(treated[e]):  # a watch batch
                    self._treat(e, y)
                continue
            # no fresh true cell: start a chain of depth e+1 in the next slot
            k = self._free
            self._free = k + 1
            chains[k] = e + 1
            hist[e + 1] = hist.get(e + 1, 0) + 1
            started[e].append(k)
        gens_on = self._gens_on
        if gens_on:
            for k in [k for k in gens_on if first_new <= k < self._free]:
                self._deepened(k, chains[k])
        self._attend_closures()
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
        treated = self._treated[e]
        watch = self._started[e][len(treated):]
        depth, chains = e + r + 1, self.chains
        gens_on = self._gens_on
        for k in watch:
            chains[k] = depth
            if k in gens_on:
                self._deepened(k, depth)
        self._hist[e + 1] -= len(watch)
        self._hist[depth] = self._hist.get(depth, 0) + len(watch)
        treated += watch
        self.Y[e].add(y)
        self._cursor[e] = self._next_true(e)

    # -- parking and waking closure and audit rows ---------------------------

    def _unlisted(self, xs: tuple[PElement, ...]) -> Optional[PElement]:
        """The first of xs not listed yet, or None."""
        for x in xs:
            if not self.contains(x):
                return x
        return None

    def _park(self, on: dict[PElement, list[int]], row: int, x: PElement) -> None:
        """Park a row on its unlisted operand x; a generator 1/p^j is also
        noted under its slot, since its chain deepening lists it."""
        rows = on.get(x)
        if rows is None:
            rows = on[x] = []
            if len(x.parts) == 1 and x.parts[0][1] == 1:
                k, _, j = x.parts[0]
                self._gens_on.setdefault(k, {})[j] = x
        rows.append(row)

    def _listed(self, x: PElement) -> list[int]:
        """x has just been listed: wake the rows parked on it. The audit
        rows are due at this stage's audit pass; the closure rows are
        returned."""
        self._due_audits += self._audits_on.pop(x, ())
        return self._closures_on.pop(x, [])

    def _deepened(self, k: int, depth: int) -> None:
        """Slot k's chain reached `depth`: wake the rows parked on its
        generators 1/p^j, j <= depth, for this stage's closure pass."""
        gens = self._gens_on[k]
        for j in [j for j in gens if j <= depth]:
            self._due_closures += self._listed(gens.pop(j))
        if not gens:
            del self._gens_on[k]

    def _attend_closures(self) -> None:
        """List the sums of the due closure rows whose operands are listed.

        Rows are checked in increasing order, as a rescan of every open
        row would: a sum listed by row i wakes the later rows parked on it
        for this pass and the earlier ones for the next stage's."""
        due = sorted(self._due_closures)  # a sorted list is a heap
        self._due_closures = later = []
        rows, extras = self._closures, self.extras
        while due:
            i = heappop(due)
            a, b = rows[i]
            x = self._unlisted((a, b))
            if x is not None:
                self._park(self._closures_on, i, x)
                continue
            c = a + b
            if not c.is_zero and not self.contains(c):
                extras.add(c)
                for h in self._listed(c):
                    if h > i:
                        heappush(due, h)
                    else:
                        later.append(h)

    def _attend_audits(self) -> None:
        """Record "a + b = c" for every due audit row whose operands are listed.

        First every live fact is compared with D: one subset test, and on
        a mismatch the loop that names the flipped fact and re-inserts a
        deleted one. Then the due rows go live in increasing order, after
        the rows already live, so the facts keep D's key order."""
        D, facts = self.D, self._facts
        if not facts.items() <= D.items():
            for key, val in facts.items():
                if D.setdefault(key, val) != val:
                    raise AssertionError(f"diagram fact {key} flipped")
        rows = self._audits
        for i in sorted(self._due_audits):
            key, a, b, c = rows[i]
            x = self._unlisted((a, b, c))
            if x is not None:
                self._park(self._audits_on, i, x)
                continue
            val = facts[key] = a + b == c
            if D.setdefault(key, val) != val:
                raise AssertionError(f"diagram fact {key} flipped")
        self._due_audits = []

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
