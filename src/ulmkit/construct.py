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
(flagged cofinal in the table) leaves it finite. Closure requirements list
sums of already-listed pairs; audit requirements record the truth of
"x + y = z" for listed triples. The listed set generates the group, so
invariant estimates read off the chain-depth histogram.

A stage does only new work. It relies on four pieces of bookkeeping:

  * a cursor per row over its true columns: a treatment uses the least
    fresh true cell, so the used columns Y[e] are a prefix of the row's
    sorted true columns and the next one is found without a rescan;
  * a watch list per row equal to X[e] - Xt[e], grown with X[e] and
    emptied when the row is treated;
  * a depth histogram kept in step with `chains` (every write goes
    through `_set_depth`), which `estimates` reads;
  * settled closure rows: once both operands are listed the sum is
    listed too, and since chains only deepen and extras only grow, the
    row has nothing more to do and is dropped.

Decoded elements are memoized on the state. Audits still re-evaluate
every listed triple at every stage, so a flipped diagram fact is caught.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class PElement:
    """Finite sum of fractions mod 1, one per slot; parts sorted by slot."""

    p: int
    parts: tuple[tuple[int, int, int], ...]  # (slot, num, jexp)

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
        return PElement(
            self.p, tuple((s, n, j) for s, (n, j) in sorted(acc.items()))
        )

    def __neg__(self) -> "PElement":
        return PElement(
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
        return PElement(self.p, tuple(out))

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
        self.X: dict[int, set[PElement]] = {}
        self.Xt: dict[int, set[PElement]] = {}
        self.T: dict[int, set[int]] = {}
        self._free = 0  # slots are allocated in increasing order
        self._true_cols: dict[int, list[int]] = {}  # row -> true columns < bound
        for e, y in sorted(table.trues):
            self._true_cols.setdefault(e, []).append(y)
        self._watch: dict[int, set[PElement]] = {}  # row -> X[e] - Xt[e]
        self._hist: dict[int, int] = {}  # depth -> number of chains
        self._elems: dict[int, PElement] = {}
        self._open_closures: list[int] = []  # closure rows not yet settled

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

    def next_slot(self) -> int:
        while self._free in self.chains:
            self._free += 1
        return self._free

    def _set_depth(self, k: int, depth: int) -> None:
        old = self.chains.get(k)
        if old is not None:
            self._hist[old] -= 1
        self.chains[k] = depth
        self._hist[depth] = self._hist.get(depth, 0) + 1

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
            self.Y[e], self.X[e], self.Xt[e] = set(), set(), set()
            self._watch[e] = set()
            self._open_closures.append(e)
        for e in range(s):
            self._attend_growth(e, s)
        self._open_closures = [e for e in self._open_closures if not self._attend_closure(e)]
        for e in range(s):
            self._attend_audit(e)
        self.stage = s + 1

    def _attend_growth(self, e: int, s: int) -> None:
        y = self._next_true(e)
        fresh = y is not None and y < s
        watch = self._watch[e]
        if fresh and watch:
            r = 1
            taken = self.T.setdefault(e, set())
            while r in taken:
                r += 1
            for x in watch:
                k = x.parts[0][0]
                self._set_depth(k, max(self.chains[k], e + r + 1))
            taken.add(r)
            self.Xt[e] |= watch
            watch.clear()
            self.Y[e].add(y)
        elif not fresh:
            k = self.next_slot()
            self._set_depth(k, e + 1)
            x = PElement(self.p, ((k, 1, 1),))
            self.X[e].add(x)
            watch.add(x)

    def _attend_closure(self, e: int) -> bool:
        """List the sum of a listed pair; True once both operands are
        listed, after which the row can do nothing more."""
        m1, m2 = cantor_unpair(e)
        a, b = self.elem(m1), self.elem(m2)
        if not (self.contains(a) and self.contains(b)):
            return False
        c = a + b
        if not c.is_zero and not self.contains(c):
            self.extras.add(c)
        return True

    def _attend_audit(self, e: int) -> None:
        i, j, k = decode_triple(e)
        a, b, c = self.elem(i), self.elem(j), self.elem(k)
        if self.contains(a) and self.contains(b) and self.contains(c):
            key = ("sum", i, j, k)
            val = a + b == c
            if key in self.D and self.D[key] != val:
                raise AssertionError(f"diagram fact {key} flipped")
            self.D[key] = val

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
