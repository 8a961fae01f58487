"""Letters, admissible strings, and runs for the group-building scheme.

A letter is a pair (j, list): an index naming one of a family of target
groups, and an injective list of elements of a growing fragment of that
group (the range of a finite partial map from the naturals, domain always
an initial segment). Admissible strings interleave letters with bits; the
bit history decides which group index a letter may carry, and each letter
must list at least the first i elements of its own fragment in the stable
enumeration order.

The sentences enumerated from a letter (its E-set) are signed linear facts
about the listed elements, graded by the highest position mentioned. The
grading depends only on the orders of the listed elements, so whenever two
letters compare at level zero (their lists generate isomorphic pinned
subgroups), the shorter letter's E-set is contained in the longer one's.

`extend_run_letter` is the witness search for the extension axiom: it
cascades tuple extensions down a strictly descending chain of levels, and
on the first 0-to-1 bit flip pulls the accumulated list across to a
nonzero group index whose profile is verified to agree far enough up.
It checks its arguments and its result; `check_axioms` reports its
refusals. `find_run` builds each letter with the same unchecked core,
checks each step's relation to the last letter, and checks admissibility
and the instruction answers once, on the finished run.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Iterator, Optional, Sequence

from .baf import ExtensionError, _level, _relation, extend_tuple
from .fragments import FragmentElement, ProfiledGroup, canonical_fragment
from .ordinal import ZERO, CofinalSequence, Ordinal, hat_alpha, nat
from .pgroup import _require_prime
from .ulm import make_G_hat

Level = int | Ordinal

SentenceCode = tuple  # ("lin", ((position, coeff), ...), "eq" | "ne")


@dataclass(frozen=True)
class Letter:
    """Group index plus an injective list of elements of its fragment.

    Construction checks that every image lives in the letter's fragment
    and that none repeats, a small constant per image. Since the images
    share that one fragment, the image set holds their coefficient tuples,
    which hash as plain int tuples, not through ``FragmentElement``'s
    dataclass hash.

    ``_covers`` is a count k such that the list is known to hold the first
    k elements of the fragment in the stable order: ``_cover_letter`` sets
    it on the letters it builds, and every other letter has 0."""

    j: int
    images: tuple[FragmentElement, ...]
    group: ProfiledGroup
    _covers: int = field(default=0, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.j < 0:
            raise ValueError("group index must be a natural number")
        frag = self.group.fragment
        for x in self.images:
            if x.fragment is not frag:
                raise ValueError("images must live in the letter's fragment")
        if len(self._image_set) != len(self.images):
            raise ValueError("images must be pairwise distinct")

    @functools.cached_property
    def _image_set(self) -> frozenset[tuple[int, ...]]:
        """The images' coefficient tuples."""
        return frozenset([x.coeffs for x in self.images])

    def uncovered(self, i: int) -> int:
        """How many of the first i elements of the fragment, in the stable
        enumeration order, the list misses."""
        first = self.group.fragment.first_elements(i)
        return i - len(self._image_set.intersection(x.coeffs for x in first))

    def __len__(self) -> int:
        return len(self.images)

    def describe(self) -> str:
        imgs = ", ".join(str(x) for x in self.images)
        return f"(j={self.j}, [{imgs}])"


def signed_sentences(letter: Letter) -> Iterator[SentenceCode]:
    """All linear facts about the letter's list, graded by top position.

    Grade m covers combinations whose highest contributing position is m;
    within a grade, coefficient vectors ascend lexicographically, each
    coefficient running below the order of its element. The code carries
    the truth sign, so every emitted sentence is true in the group.
    """
    imgs = letter.images
    zero = letter.group.zero()
    for top in range(len(imgs)):
        ranges = [range(x.order()) for x in imgs[:top]]
        ranges.append(range(1, imgs[top].order()))
        for vec in itertools.product(*ranges):
            combo = zero
            for t, c in enumerate(vec):
                if c:
                    combo = combo + c * imgs[t]
            sign = "eq" if combo == zero else "ne"
            pairs = tuple((t, c) for t, c in enumerate(vec) if c)
            yield ("lin", pairs, sign)


def E_of(letter: Letter) -> frozenset:
    """The first len(images) true signed sentences, in the fixed order."""
    return frozenset(itertools.islice(signed_sentences(letter), len(letter.images)))


def code_true_in(code: SentenceCode, letter: Letter) -> bool:
    """Re-evaluate a signed sentence over the letter's list."""
    kind, pairs, sign = code
    if kind != "lin":
        raise ValueError(f"unknown sentence kind {kind!r}")
    zero = letter.group.zero()
    combo = zero
    for t, c in pairs:
        if t >= len(letter.images):
            raise ValueError(f"position {t} is not listed by the letter")
        combo = combo + c * letter.images[t]
    return (combo == zero) == (sign == "eq")


@dataclass(frozen=True)
class AlphaSystem:
    """The family of groups G^j below a limit ordinal, wired for runs.

    G^0 has every invariant infinite below alpha; G^j (j >= 1) stays
    infinite below the j-th cofinal stage and on even levels, and drops to
    zero elsewhere. Letters over this family, the admissible strings, the
    level relations, and the E-map make up the structure the run finder
    drives.
    """

    alpha: Ordinal
    seq: CofinalSequence
    p: int = 2

    def __post_init__(self):
        if not self.alpha.is_limit:
            raise ValueError(f"alpha must be a limit ordinal, got {self.alpha}")
        if self.seq.limit != self.alpha:
            raise ValueError("cofinal sequence must converge to alpha")
        _require_prime(self.p)

    @property
    def alpha_hat(self) -> Ordinal:
        return hat_alpha(self.alpha)

    def profile(self, j: int):
        got = self._profiles.get(j)
        if got is None:
            got = self._profiles[j] = make_G_hat(self.alpha, self.seq, j)
        return got

    @functools.cached_property
    def _profiles(self) -> dict:
        """One profile per index, built on first use; dies with the system."""
        return {}

    def fresh_group(self, j: int) -> ProfiledGroup:
        return canonical_fragment(self.profile(j), self.p)

    def hat_letter(self) -> Letter:
        return Letter(0, (), self.fresh_group(0))

    def leq(self, l1: Letter, l2: Letter, beta: Level) -> bool:
        return _relation(l1.group, l1.images, l2.group, l2.images, beta)

    def E(self, letter: Letter) -> frozenset:
        return E_of(letter)

    # -- the admissible-string predicate -------------------------------------

    def p_violations(self, string: Sequence) -> list[str]:
        """Empty list iff the string is admissible; else one line per clause
        breach. Accepts strings ending in either a letter or a bit."""
        out: list[str] = []
        if not string:
            return ["the empty string is not admissible"]
        for i, entry in enumerate(string):
            if i % 2 == 0 and not isinstance(entry, Letter):
                out.append(f"position {i} must hold a letter")
            if i % 2 == 1 and entry not in (0, 1):
                out.append(f"position {i} must hold a bit")
        if out:
            return out
        start = string[0]
        if start.j != 0 or start.images:
            out.append("strings must start with the empty letter at index 0")
        bits = list(string[1::2])
        letters = list(string[2::2])
        for t in range(len(bits) - 1):
            if bits[t] == 1 and bits[t + 1] == 0:
                out.append(f"bit {t + 2} drops back to 0")
        for t, ell in enumerate(letters):
            i = t + 1
            if len(ell.images) < i:
                out.append(f"letter {i} lists fewer than {i} elements")
                continue
            missing = ell.uncovered(i)
            if missing:
                out.append(
                    f"letter {i} misses {missing} of the first {i} "
                    f"elements of its fragment"
                )
        for t, ell in enumerate(letters):
            u = bits[t]
            if u == 1 and ell.j == 0:
                out.append(f"letter {t + 1} keeps index 0 after the flip")
            if u == 0 and ell.j != 0:
                out.append(f"letter {t + 1} moved off index 0 before any flip")
            if t >= 1 and bits[t - 1] == 1 and ell.j != letters[t - 1].j:
                out.append(f"letter {t + 1} changed index after the flip")
        return out

    # -- cross-index pulls ----------------------------------------------------

    def find_pull_index(self, beta0: Level) -> Optional[int]:
        """Least j in 1..15 whose cofinal stage exceeds beta0 AND whose empty
        letter verifiably sits below index 0 at level beta0 + 1. Searched
        once per level; the answer is kept on the system."""
        beta0 = _level(beta0)
        memo = self._pull_indices
        if beta0 not in memo:
            memo[beta0] = self._search_pull_index(beta0)
        return memo[beta0]

    @functools.cached_property
    def _pull_indices(self) -> dict:
        """find_pull_index's answers (None included) by level; dies with
        the system."""
        return {}

    def _search_pull_index(self, beta0: Ordinal) -> Optional[int]:
        empty0 = self.hat_letter()
        for j in range(1, 16):
            if not self.seq.at(j) > beta0:
                continue
            cand = Letter(j, (), self.fresh_group(j))
            if self.leq(cand, empty0, beta0 + 1):
                return j
        return None

    @functools.cached_property
    def verified_pull(self) -> tuple[int, int]:
        """Largest sample level admitting a verified pull, paired with its
        index; kept on the system. Raises when no sample level works."""
        for b0 in reversed(self.sample_levels()):
            j = self.find_pull_index(b0)
            if j is not None:
                return b0, j
        raise ExtensionError("no verified cross-index pull at any sample level")

    def sample_levels(self) -> list[int]:
        ah = self.alpha_hat
        return list(range(ah.as_int() if ah.is_finite else 6))

    # -- sampling hooks for the axiom checker ---------------------------------

    def sample_letters(self, rng: Random) -> list[Letter]:
        runs = self._pool_runs
        pool: list[Letter] = [self.hat_letter()]
        for j in (1, 2):
            pool.append(Letter(j, (), self.fresh_group(j)))
        for run in runs:
            pool.extend(run.letters()[1:])
        return pool

    @functools.cached_property
    def _pool_runs(self) -> tuple["Run", ...]:
        """Short reference runs (one quiet, one flipped) reused by the
        samplers; they live and die with the system."""
        src = InstructionSource({0: None, 1: 2})
        quiet = find_run(self, instruction_from_g(src, 0), 3)
        flipped = find_run(self, instruction_from_g(src, 1), 3)
        return (quiet, flipped)

    def axiom4_case(self, rng: Random):
        """One extension-axiom instance from the operating envelope: a run
        prefix, a next bit, and a descending chain along that run."""
        run = rng.choice(self._pool_runs)
        letters = run.letters()
        bits = run.bits()
        # sigma ends at letter index m; the chain climbs the run from there
        m = rng.randrange(len(letters) - 1)
        sigma = run.entries[: 2 * m + 1]
        flipped_before = any(b == 1 for b in bits[:m])
        if flipped_before:
            u = 1
        else:
            u = rng.choice((0, 1))
        first_flip = u == 1 and not flipped_before
        k = rng.randrange(min(2, len(letters) - 1 - m))
        chain_letters = letters[m : m + k + 1]
        crosses_flip = any(
            chain_letters[t].j != chain_letters[t + 1].j for t in range(k)
        )
        if first_flip or crosses_flip:
            top = self.verified_pull[0]
        else:
            levels = self.sample_levels()
            top = rng.choice(levels[k:]) if len(levels) > k else len(levels) - 1
        descent = [top - t for t in range(k + 1)]
        if descent[-1] < 0:
            chain_letters, descent = chain_letters[:1], [top]
        return sigma, u, list(zip(chain_letters, descent))


# -- instruction sources ------------------------------------------------------


class InstructionSource:
    """Monotone bit table g(n, s): once a row shows 1 it stays 1."""

    def __init__(self, rules: dict):
        """rules[n] is None for an all-zero row, else the least stage at
        which the row turns to 1."""
        for n, s in rules.items():
            if n < 0 or (s is not None and s < 0):
                raise ValueError(f"bad rule for row {n}")
        self._rules = dict(rules)

    def g(self, n: int, s: int) -> int:
        if n not in self._rules:
            raise KeyError(f"no rule for row {n}")
        switch = self._rules[n]
        return 0 if switch is None else int(s >= switch)


def instruction_from_g(src: InstructionSource, n: int) -> Callable:
    """The instruction function of row n: reads the row at the string's
    length, so along a run the answers are monotone."""

    def q(sigma: Sequence) -> int:
        return src.g(n, len(sigma))

    return q


# -- runs ----------------------------------------------------------------------


@dataclass(frozen=True)
class Run:
    """Alternating string with provenance notes from its construction."""

    entries: tuple
    provenance: tuple[str, ...] = ()

    def letters(self) -> tuple[Letter, ...]:
        return self.entries[0::2]

    def bits(self) -> tuple[int, ...]:
        return self.entries[1::2]


def _cover_letter(sys: AlphaSystem, letter: Letter, i: int) -> Letter:
    """Extend the letter's list to length >= i containing the first i
    elements of its fragment, creating fresh floor-level elements when the
    fragment itself is too small. Appending never disturbs the prefix, so
    every relation into the original letter carries over.

    The letter built here records the i it covers (``Letter._covers``). A
    letter that records k is scanned past its first k elements only, so a
    step of ``find_run`` checks one new element, and copies the list into
    the new letter. A letter from elsewhere (``extend_tuple``, a caller),
    or one whose group had to grow, is scanned from the start."""
    group = letter.group
    images = list(letter.images)
    known, have = letter._covers, letter._image_set
    while group.fragment.size < i:
        group, _ = group.create_element(group.zero(), ZERO)
        images = [group.fragment.migrate(x) for x in images]
    if group is not letter.group:
        known, have = 0, {x.coeffs for x in images}
    # the stable elements are distinct, so only the old images can repeat one
    for e in group.fragment.first_elements(i)[known:]:
        if e.coeffs not in have:
            images.append(e)
    out = Letter(letter.j, tuple(images), group)
    object.__setattr__(out, "_covers", max(i, known))
    return out


def _build_witness(
    sys: AlphaSystem,
    sigma: Sequence,
    u: int,
    letters: Sequence[Letter],
    levels: Sequence[Ordinal],
) -> Letter:
    """extend_run_letter's construction, checking nothing: the top-down
    extend_tuple cascade, the pull on a first flip, and the cover."""
    cur = letters[-1]
    for t in range(len(letters) - 2, -1, -1):
        res = extend_tuple(
            letters[t].group,
            letters[t].images,
            cur.group,
            cur.images,
            levels[t],
            levels[t + 1],
            (),
            check_hypothesis=False,
        )
        cur = Letter(letters[t].j, res.right, res.A)

    if u == 1 and 1 not in sigma[1::2]:
        beta0 = levels[0]
        jstar = sys.find_pull_index(beta0)
        if jstar is None:
            raise ExtensionError(
                f"no nonzero index admits a verified pull at level {beta0 + 1}"
            )
        res = extend_tuple(
            sys.fresh_group(jstar),
            (),
            cur.group,
            cur.images,
            beta0 + 1,
            beta0,
            (),
            check_hypothesis=False,
        )
        cur = Letter(jstar, res.right, res.A)

    return _cover_letter(sys, cur, (len(sigma) + 1) // 2)


def extend_run_letter(
    sys: AlphaSystem,
    sigma: Sequence,
    u: int,
    chain: Sequence[tuple[Letter, Level]],
) -> Letter:
    """The witness for the extension axiom: a next letter dominating the
    whole chain at its stated levels.

    chain is [(l0, b0), ..., (lk, bk)] with b0 > ... > bk and each
    l_i related to l_{i+1} at level b_i; sigma must end in l0. Letters are
    normalized top-down: each is extended to answer the next one's surplus
    at the next level. On the first 0-to-1 flip the accumulated list is
    pulled across to a verified nonzero index; otherwise the index stays.
    The result is padded to cover the first (len(sigma)+1)//2 elements.

    Every check runs here: one admissibility scan of sigma.u, whose
    breaches are the ValueError's text, the chain's levels and links,
    and then the result's admissibility and its dominance of the chain.
    Raises ExtensionError when a link, a pull or the result fails.
    """
    if len(sigma) % 2 == 0:
        raise ValueError("sigma must be an odd-length string")
    probs = sys.p_violations(tuple(sigma) + (u,))
    if probs:
        raise ValueError("; ".join(probs))
    if not chain:
        raise ValueError("chain must contain at least the final letter")
    if sigma[-1] != chain[0][0]:
        raise ValueError("sigma must end in the chain's first letter")
    letters = [ell for ell, _ in chain]
    levels = [_level(b) for _, b in chain]
    for t in range(len(levels) - 1):
        if not levels[t + 1] < levels[t]:
            raise ValueError("chain levels must strictly descend")
    for t in range(len(letters) - 1):
        if not sys.leq(letters[t], letters[t + 1], levels[t]):
            raise ExtensionError(f"chain link {t} fails at level {levels[t]}")

    final = _build_witness(sys, sigma, u, letters, levels)

    probs = sys.p_violations(tuple(sigma) + (u, final))
    if probs:
        raise ExtensionError("result not admissible: " + "; ".join(probs))
    for ell, level in zip(letters, levels):
        if not sys.leq(ell, final, level):
            raise ExtensionError(
                f"conclusion fails: chain letter not below the result "
                f"at level {level}"
            )
    return final


def find_run(
    sys: AlphaSystem,
    q: Callable,
    steps: int,
) -> Run:
    """Drive the instruction function for `steps` letters.

    Before the first flip every step extends the current letter in index 0;
    the flip step chooses the largest verified pull level, moves to its
    nonzero index, and later steps stay there. Each step builds its letter
    unchecked and checks only that it sits above the last letter at the
    step's level; the finished run is validated once (`validate_run`)
    against the admissibility clauses and the instruction answers. An
    inconsistent run raises instead of being returned.

    A quiet step costs a small constant per element of its letter, the
    size of what ``run_to_text`` prints for it: the cover scans one new
    element (``_cover_letter``), the new letter checks and keys its images
    once (``Letter``), and its relation to the last letter is an inclusion
    checked entry by entry (``pgroup._is_inclusion``). The steps where the
    fragment grows and the flip step cost more, and the validation lists
    each letter's stable prefix once more.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    entries: list = [sys.hat_letter()]
    prov = ["start: index 0, empty list"]
    for m in range(1, steps + 1):
        sigma = tuple(entries)
        u = q(sigma)
        if u not in (0, 1):
            raise ValueError(f"instruction answered {u!r} at step {m}")
        last = entries[-1]
        flip = u == 1 and 1 not in sigma[1::2]
        if flip:
            beta0, jstar = sys.verified_pull
        level = nat(beta0) if flip else ZERO
        ell = _build_witness(sys, sigma, u, [last], [level])
        if not sys.leq(last, ell, level):
            raise ExtensionError(
                f"step {m}: the new letter is not above the last one at "
                f"level {level}"
            )
        if flip:
            prov.append(
                f"step {m}: flip; pulled into index {jstar} at level "
                f"{beta0} (hypothesis checked at {beta0 + 1})"
            )
        else:
            prov.append(
                f"step {m}: bit {u}; extended in index {ell.j} to cover "
                f"the first {m} elements"
            )
        entries.extend((u, ell))
    run = Run(tuple(entries), tuple(prov))
    problems = validate_run(sys, run, q)
    if problems:
        raise ExtensionError("finder produced an invalid run: " + "; ".join(problems))
    return run


def validate_run(sys: AlphaSystem, run: Run, q: Callable) -> list[str]:
    """Independent re-check: admissibility clauses plus bit-by-bit
    conformance to the instruction function q."""
    out = sys.p_violations(run.entries)
    for t in range(1, len(run.entries), 2):
        if run.entries[t] != q(run.entries[:t]):
            out.append(f"bit at position {t} disagrees with the instruction")
    return out


def accumulate_E(run: Run) -> frozenset:
    """Union of the letters' E-sets: the diagram the run enumerates."""
    out: frozenset = frozenset()
    for ell in run.letters():
        out |= E_of(ell)
    return out


def run_to_text(run: Run) -> str:
    lines = []
    for i, entry in enumerate(run.entries):
        if i % 2 == 0:
            lines.append(f"{i}: letter {entry.describe()}")
        else:
            lines.append(f"{i}: bit {entry}")
    for note in run.provenance:
        lines.append(f"# {note}")
    return "\n".join(lines) + "\n"


# -- the axiom checker ---------------------------------------------------------


def check_axioms(sys, samples: int, seed: int = 0) -> list[str]:
    """Sample the four conformance properties on the system's own letters.

    Works against any object offering sample_levels/sample_letters/leq/E;
    the extension axiom is exercised only when the system can propose
    cases for it (axiom4_case), through the checked `extend_run_letter`,
    whose refusal is the failure reported. Returns the failures, each
    with its witness; none is raised.
    """
    rng = Random(seed)
    failures: list[str] = []
    if samples <= 0:
        return failures
    pool = sys.sample_letters(rng)
    levels = list(sys.sample_levels())
    has_ext = hasattr(sys, "axiom4_case")
    for _ in range(samples):
        kinds = [0, 1, 2] + ([3] if has_ext else [])
        kind = rng.choice(kinds)
        if kind == 0:
            a = rng.choice(pool)
            beta = rng.choice(levels)
            if not sys.leq(a, a, beta):
                failures.append(f"not reflexive at level {beta}")
                continue
            b, c = rng.choice(pool), rng.choice(pool)
            if sys.leq(a, b, beta) and sys.leq(b, c, beta):
                if not sys.leq(a, c, beta):
                    failures.append(f"not transitive at level {beta}")
        elif kind == 1:
            a, b = rng.choice(pool), rng.choice(pool)
            lo, hi = sorted(rng.sample(levels, 2)) if len(levels) > 1 else (0, 0)
            if sys.leq(a, b, hi) and not sys.leq(a, b, lo):
                failures.append(
                    f"level {hi} holds but level {lo} fails for a sampled pair"
                )
        elif kind == 2:
            a, b = rng.choice(pool), rng.choice(pool)
            if sys.leq(a, b, 0) and not sys.E(a) <= sys.E(b):
                failures.append(
                    "E-set not contained despite a level-0 relation"
                )
        else:
            sigma, u, chain = sys.axiom4_case(rng)
            try:
                extend_run_letter(sys, sigma, u, chain)
            except (ExtensionError, ValueError) as exc:
                failures.append(f"extension witness rejected: {exc}")
    return failures
