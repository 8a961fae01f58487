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
listed as the generators 1/p^j, j up to `chains[k]`. Nothing is stored
per slot. At each stage the growing rows take the next free slots in
increasing row order, so a stage records its first slot, and a row
grows at every stage from the one that attends it on except those it is
treated at and, once stuck, all later ones. A row is stuck when its
least unused true column is used up while it watches no chain; it then
never grows or is treated again. A row records the stages it was
treated at, its only record of its treatments, and the stage its watch
batch (its chains not yet treated) began:

  * a growth step writes nothing: a stage moves the next free slot on
    by the number of rows attended, less those treated at it and those
    stuck;
  * a heap keyed by each row's next event stage (its least unused true
    column + 1) hands a stage only the rows treated or stuck there. A
    row treated n times so far has used its first n true columns, so
    its next treatment uses true column n (continuing past the bound
    for a cofinal row); it moves the watch batch, all at depth e+1, to
    depth e+n+2 and counts it in the histogram of treated depths.

`chains`, `X`, `Xt`, `Y` and `T` are read-only views, and a value they
return is built afresh, so no write from outside reaches the run. Slot k
was started at the last stage whose first slot is at most k, by the
growing row of rank k minus that first slot; its depth is e+1 while row
e watches it, and e+i+2 once the row's i-th treatment (from 0) retired
it. X[e] and Xt[e] rebuild the slots row e started or had treated from
its growth stages, as sets of chain generators 1/p, when asked. Y and
T are views of the treatment stages: for a row treated n times, Y[e] is
its first n true columns (every attended row is a key) and T[e] is {1,
..., n}, the depth offsets its treatments used (every treated row is a
key). The estimates add each row's watch batch to the treated histogram.

Closure and audit rows decode their operands once, when first attended,
and are checked again only when an operand they wait for is listed.
Listing is monotone (chains only deepen and extras only grow), so a row
that finds an operand unlisted parks on it, in a dict keyed by that
element. A generator 1/p^j in slot k is also noted under slot k: it is
listed by its chain reaching depth j, never by a sum, since every sum of
listed elements lies within its slots' chain depths.

  * a growth step that starts a slot, or a treatment that deepens it,
    wakes the rows parked on the generators it lists: a slot parked on
    before it starts waits in a heap of slot numbers, and a watched one
    is noted under its row, whose next treatment deepens it. A sum added
    to the extras wakes the rows parked on that sum;
  * a woken row checks its operands again and either settles or parks on
    the next unlisted one; a settled closure row lists its sum once, and
    a settled audit row goes live with its truth a + b == c computed once.
    A settled row is never checked again, so it lets go of its operands.

Within a stage the order is that of a rescan of every open row. A row is
first checked at the stage that attends it. After the growth steps, the
due closure rows are checked in increasing row order; a sum listed by
row i wakes the later rows for this pass and the earlier ones for the
next stage's. Then the due audit rows go live in increasing row order.
The diagram D is a read-only view of the live facts, so no fact can be
flipped from outside, and each is written once: its key comes from the
row by the injective `decode_triple`, and a row goes live only once.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass, field
from heapq import heappop, heappush
from math import isqrt
from types import MappingProxyType
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


class _Chains(Mapping):
    """Read-only view of the chains: slot k maps to its current depth.
    Slots are numbered in the order they were started, so the keys are
    0, 1, ..., len - 1; `items` and `values` walk the stages once."""

    def __init__(self, state: "ConstructionState"):
        self._state = state

    def get(self, k: int, default=None):
        depth = self._state._depth(k)
        return default if depth is None else depth

    def __getitem__(self, k: int) -> int:
        depth = self.get(k)
        if depth is None:
            raise KeyError(k)
        return depth

    def __iter__(self):
        return iter(range(self._state._free))

    def __len__(self) -> int:
        return self._state._free

    def items(self):
        return _ChainItems(self)

    def values(self):
        return _ChainDepths(self)


class _ChainItems(ItemsView):
    def __iter__(self):
        return enumerate(self._mapping._state._depths())


class _ChainDepths(ValuesView):
    def __iter__(self):
        return self._mapping._state._depths()


class _Rows(Mapping):
    """Read-only view of one value per row, built afresh on each lookup:
    `rows()` gives the keys, `value(e)` the value of key e."""

    def __init__(self, rows, value):
        self._rows, self._value = rows, value

    def __getitem__(self, e: int):
        if e not in self._rows():
            raise KeyError(e)
        return self._value(e)

    def __contains__(self, e) -> bool:
        return e in self._rows()

    def __iter__(self):
        return iter(self._rows())

    def __len__(self) -> int:
        return len(self._rows())


class ConstructionState:
    """Mutable state of one construction: chains, listed sums, diagram."""

    def __init__(self, table: PredicateTable, p: int = 2):
        _require_prime(p)
        self.table = table
        self.p = p
        self.stage = 0
        self.chains = _Chains(self)
        self.extras: set[PElement] = set()
        attended = lambda: range(len(self._start))
        self.X = _Rows(attended, lambda e: self._generators(e, False))
        self.Xt = _Rows(attended, lambda e: self._generators(e, True))
        self.Y = _Rows(
            attended, lambda e: {self._column(e, n) for n in range(len(self._treats.get(e, ())))}
        )
        self.T = _Rows(lambda: self._treats, lambda e: set(range(1, len(self._treats[e]) + 1)))
        self._first: list[int] = []  # stage -> the first slot it started
        self._free = 0  # slots are allocated in increasing order
        self._start: list[Optional[int]] = []  # row -> stage its watch batch began; None once stuck
        self._treats: dict[int, list[int]] = {}  # row -> the stages it was treated at
        self._treated_at: dict[int, list[int]] = {}  # stage -> the rows treated at it
        self._stuck0: list[int] = []  # rows stuck from the stage that attends them
        self._gaps: list[int] = []  # _stuck0[i] - i, for a search by rank
        self._late: list[tuple[int, int]] = []  # (stage, row) for rows stuck after a treatment
        self._events: list[tuple[int, int]] = []  # heap of (next event stage, row)
        self._true_cols: dict[int, list[int]] = {}  # row -> true columns < bound
        for e, y in table.trues:
            self._true_cols.setdefault(e, []).append(y)
        for cols in self._true_cols.values():
            cols.sort()
        self._hist: dict[int, int] = {}  # depth -> number of treated chains
        self._elems: dict[int, PElement] = {}
        # row -> its closure operands (a, b) / its audit row (key, a, b, c),
        # None once the row has settled
        self._closures: list[Optional[tuple[PElement, PElement]]] = []
        self._audits: list[Optional[tuple[tuple, PElement, PElement, PElement]]] = []
        # unlisted element -> the closure / audit rows parked on it
        self._closures_on: dict[PElement, list[int]] = {}
        self._audits_on: dict[PElement, list[int]] = {}
        # slot -> {j: 1/p^j in that slot}, for the generators rows park on;
        # such a slot not started yet waits in `_unborn`, a watched one is
        # noted under its row in `_parked`
        self._gens_on: dict[int, dict[int, PElement]] = {}
        self._unborn: list[int] = []
        self._parked: dict[int, set[int]] = {}
        # rows to check at this stage's closure and audit passes
        self._due_closures: list[int] = []
        self._due_audits: list[int] = []
        # live audit rows: key -> a + b == c, in the order they went live
        self._facts: dict[tuple, bool] = {}
        self.D = MappingProxyType(self._facts)

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

    def _column(self, e: int, n: int) -> Optional[int]:
        """Row e's true column number n (from 0), past the bound for a
        cofinal row, or None. A row treated n times has used its first n."""
        cols = self._true_cols.get(e, ())
        if n < len(cols):
            return cols[n]
        if e in self.table.cofinal_rows:
            return self.table.bound + n - len(cols)
        return None

    # -- one stage ---------------------------------------------------------

    def advance(self) -> None:
        s = self.stage
        events, start = self._events, self._start
        if s:
            e = s - 1  # the row first attended at this stage
            start.append(s)
            y = self._column(e, 0)
            if y is not None:
                heappush(events, (y + 1, e))
            m1, m2 = cantor_unpair(e)
            self._closures.append((self.elem(m1), self.elem(m2)))
            self._due_closures.append(e)
            i, j, k = decode_triple(e)
            self._audits.append((("sum", i, j, k), self.elem(i), self.elem(j), self.elem(k)))
            self._due_audits.append(e)
        # the rows whose least unused true column is below s: a row with a
        # watch batch is treated, one without is stuck for good
        treated = []
        while events and events[0][0] <= s:
            y, e = heappop(events)
            if start[e] < s:
                self._treat(e, s)
                treated.append(e)
            else:
                start[e] = None
                if s == e + 1:
                    self._gaps.append(e - len(self._stuck0))
                    self._stuck0.append(e)
                else:
                    self._late.append((s, e))
        if treated:
            self._treated_at[s] = treated
        # every other attended row grows, in the next free slots
        self._first.append(self._free)
        self._free += s - len(treated) - len(self._stuck0) - len(self._late)
        unborn, gens_on = self._unborn, self._gens_on
        while unborn and unborn[0] < self._free:
            k = heappop(unborn)
            e = self._row_of(k)[0]
            self._deepened(k, e + 1)
            if k in gens_on:
                self._parked.setdefault(e, set()).add(k)
        self._attend_closures()
        self._attend_audits()
        self.stage = s + 1

    def _treat(self, e: int, s: int) -> None:
        """Retire row e's watch batch, the chains it started from stage
        `_start[e]` to s-1, all at depth e+1, with its true column n, n
        the row's treatments so far: the batch moves to depth e+n+2."""
        ts = self._treats.setdefault(e, [])
        depth = e + len(ts) + 2
        self._hist[depth] = self._hist.get(depth, 0) + s - self._start[e]
        ts.append(s)
        self._start[e] = s + 1
        for k in self._parked.pop(e, ()):
            self._deepened(k, depth)
        y = self._column(e, len(ts))
        if y is not None:
            heappush(self._events, (y + 1, e))

    # -- answering slot queries from the stage records ------------------------

    def _row_of(self, k: int) -> tuple[int, int]:
        """The row whose growth step started slot k, and that stage.

        The stage is the last whose first slot is at most k; its growing
        rows took its slots in increasing row order, so the row is the one
        of rank r = k - first slot among them. Among the rows not stuck
        from their first stage, the search skips the ranks of those idle
        at the stage (treated there, or stuck after a treatment by then),
        then adds the rows stuck from their first stage below it: those
        whose `_gaps` entry is at most the rank."""
        first, late = self._first, self._late
        s = bisect_right(first, k) - 1
        r = k - first[s]
        treated = self._treated_at.get(s)
        if treated or late and late[0][0] <= s:
            idle = [x for t, x in late if t <= s] + (treated or [])
            stuck0 = self._stuck0
            for q in sorted(x - bisect_left(stuck0, x) for x in idle):
                if q > r:
                    break
                r += 1
        return r + bisect_right(self._gaps, r), s

    def _depth_of(self, e: int, s: int) -> int:
        """Depth of the chain row e started at stage s: e+1 while watched,
        e+i+2 once the row's i-th treatment (from 0) retired it."""
        ts = self._treats.get(e)
        return e + bisect_left(ts, s) + 2 if ts and ts[-1] > s else e + 1

    def _depth(self, k: int) -> Optional[int]:
        """Slot k's depth, or None when no slot k has been started."""
        if not 0 <= k < self._free:
            return None
        return self._depth_of(*self._row_of(k))

    def _depths(self):
        """Every slot's depth, in slot order."""
        stuck0, depth_of = set(self._stuck0), self._depth_of
        for s in range(len(self._first)):
            idle = {x for t, x in self._late if t <= s}.union(self._treated_at.get(s, ()))
            for e in range(s):
                if e not in stuck0 and e not in idle:
                    yield depth_of(e, s)

    def _generators(self, e: int, treated: bool) -> set[PElement]:
        """The chain generators 1/p of the slots attended row e started, or
        with `treated` of those its treatments retired: one at each stage
        from e+1 on but those it was treated at, up to its last treatment,
        or to now while it grows."""
        ts = self._treats.get(e, [])
        if not treated and self._start[e] is not None:
            end = self.stage
        else:
            end = ts[-1] if ts else e + 1
        # rows below e idle at a stage s > e: those stuck from their first
        # stage, those stuck later by s, and those treated at s
        stuck0 = bisect_left(self._stuck0, e)
        late = [t for t, x in self._late if x < e]
        first, treated_at, skip = self._first, self._treated_at, set(ts)
        p, gens = self.p, set()
        for s in range(e + 1, end):
            if s in skip:
                continue
            idle = stuck0 + bisect_right(late, s)
            rows = treated_at.get(s)
            if rows:
                idle += sum(x < e for x in rows)
            gens.add(PElement._trusted(p, ((first[s] + e - idle, 1, 1),)))
        return gens

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
                gens = self._gens_on.get(k)
                if gens is None:
                    gens = self._gens_on[k] = {}
                    self._watch_slot(k)
                gens[j] = x
        rows.append(row)

    def _watch_slot(self, k: int) -> None:
        """Note where slot k's next deepening will come from: its growth
        step for a slot not started yet, its row's next treatment for a
        watched one. A treated slot is at its final depth."""
        if k >= self._free:
            heappush(self._unborn, k)
            return
        e, s = self._row_of(k)
        start = self._start[e]
        if start is not None and s >= start:
            self._parked.setdefault(e, set()).add(k)

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
            rows[i] = None  # settled: let go of the operands
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

        The due rows go live in increasing order, after the rows already
        live. D is a read-only view of these facts, and row i's key
        ("sum", *decode_triple(i)) belongs to no other row, so each fact
        is written once and cannot be changed from outside."""
        rows, facts = self._audits, self._facts
        for i in sorted(self._due_audits):
            key, a, b, c = rows[i]
            x = self._unlisted((a, b, c))
            if x is not None:
                self._park(self._audits_on, i, x)
                continue
            facts[key] = a + b == c
            rows[i] = None
        self._due_audits = []

    # -- reading the assembled group ----------------------------------------

    def estimates(self, window: int) -> list[int]:
        """u_e of the group generated by the listing, from chain depths:
        row e's watch batch at depth e+1 and the treated chains there."""
        start, stage = self._start, self.stage
        return [
            self._hist.get(e + 1, 0)
            + (stage - start[e] if e < len(start) and start[e] is not None else 0)
            for e in range(window)
        ]

    def as_group_tree(self) -> GroupTree:
        """Explicit tree for the chain part of the listing (closure sums
        generate nothing beyond it); one node per unit of chain depth."""
        parent: dict[str, Optional[str]] = {"r": None}
        for k, depth in self.chains.items():
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
