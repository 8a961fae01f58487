"""End-to-end verification suites for the package's advertised guarantees.

Each suite exercises one guarantee on a corpus or a seeded sample and
reports a single pass/fail verdict with a summary line. The suites favor
independent evidence: wherever a value can be computed twice by unrelated
routes (search vs. closed form, invariants vs. order statistics, recorded
receipts vs. re-derivation), both routes run and must agree.

The exhaustive routes that the product path never calls live here, next
to the suites and tests that compare against them, and enumerate whole
groups (so they refuse groups above ``DEFAULT_BOUND``): ``pk_chain`` and
``height_of_by_chain`` (heights from the literal p^k G chain), ``holds_B``
(order-p independence counted from that chain), ``check_valuation`` (the
valuation laws of a fragment's min rule), ``socle_dims_by_enumeration``
(a fragment's socle layers counted element by element),
``leq_game_reference`` (the literal recursive game, deciding level 0 by
``generated_iso_by_pairs``) and ``generated_iso_by_pairs`` (the generated
correspondence built from element pairs, with no coordinates).
"""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .alpha import (
    AlphaSystem,
    InstructionSource,
    accumulate_E,
    check_axioms,
    code_true_in,
    find_run,
    instruction_from_g,
    validate_run,
)
from .baf import (
    ExtensionError,
    check_extension,
    extend_tuple,
    find_embedding,
    leq_barker,
    leq_std_game,
    relation,
)
from .construct import ConstructionState, PredicateTable, run_construction
from .fragments import canonical_fragment
from .ordinal import (
    INFINITY,
    OMEGA,
    HeightValue,
    Ordinal,
    canonical_cofinal,
    hat_alpha,
    nat,
    omega_times,
    parse_ordinal,
)
from .pgroup import (
    Fragment,
    FragmentElement,
    GroupTree,
    subgroup_elements,
)
from .ulm import invariants_of, make_G_hat, ulm_equal, value_ge


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


# -- tree corpus ---------------------------------------------------------------


def tree_shapes(n: int) -> list[tuple[int, ...]]:
    """One parent vector per unordered rooted tree shape on n non-root nodes.

    vec[i-1] is the parent index of node i (0 is the root); candidates are
    deduplicated by the canonical string of sorted child encodings.
    """
    if n == 0:
        return [()]
    seen: dict[str, tuple[int, ...]] = {}
    for vec in itertools.product(*(range(i) for i in range(1, n + 1))):
        enc: dict[int, str] = {}

        def e(i: int) -> str:
            if i not in enc:
                kids = sorted(e(j) for j in range(1, n + 1) if vec[j - 1] == i)
                enc[i] = "(" + "".join(kids) + ")"
            return enc[i]

        seen.setdefault(e(0), vec)
    return sorted(seen.values())


def tree_of(p: int, vec: tuple[int, ...]) -> GroupTree:
    parent: dict[str, Optional[str]] = {"r": None}
    for i, pi in enumerate(vec, start=1):
        parent[f"n{i}"] = "r" if pi == 0 else f"n{pi}"
    return GroupTree(p, parent)


def corpus_trees(max_nonroot: int, primes: Iterable[int]) -> list[GroupTree]:
    return [
        tree_of(p, vec)
        for p in primes
        for n in range(max_nonroot + 1)
        for vec in tree_shapes(n)
    ]


# -- exhaustive cross-checks ----------------------------------------------------


def pk_chain(tree: GroupTree) -> list[frozenset[FragmentElement]]:
    """[G, pG, p^2 G, ...] down to {0} (inclusive), by element arithmetic."""
    layer = frozenset(tree.elements())
    chain = [layer]
    while len(layer) > 1:
        layer = frozenset(x.times_p() for x in layer)
        chain.append(layer)
    return chain


def height_of_by_chain(tree: GroupTree, x: FragmentElement) -> HeightValue:
    """The largest k with x in p^k G; infinity for zero."""
    if x.is_zero:
        return INFINITY
    chain = pk_chain(tree)
    k = 0
    while k + 1 < len(chain) and x in chain[k + 1]:
        k += 1
    return nat(k)


def holds_B(tree: GroupTree, n: int, beta: int) -> bool:
    """Test for n independent order-p elements of height >= beta.

    Deliberately avoids the invariant machinery: memberships come from the
    literal p^k G chain and independence over G_{beta+1} is checked on all
    nontrivial combinations. Greedy extension is complete here because
    linear independence over a subspace is a matroid.
    """
    if n == 0:
        return True
    chain = pk_chain(tree)
    G_beta = chain[beta] if beta < len(chain) else chain[-1]
    G_next = chain[beta + 1] if beta + 1 < len(chain) else chain[-1]
    P_beta = [x for x in G_beta if x.times_p().is_zero and not x.is_zero]
    picked: list = []
    for x in P_beta:
        ok = True
        for combo in itertools.product(range(tree.p), repeat=len(picked)):
            for b in range(1, tree.p):
                cand = b * x
                for coef, y in zip(combo, picked):
                    cand = cand + coef * y
                if cand in G_next:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            picked.append(x)
            if len(picked) >= n:
                return True
    return False


def check_valuation(frag: Fragment) -> None:
    """Exhaustively verify the three valuation laws (small fragments)."""
    xs = list(frag.elements())
    for x in xs:
        hx = x.height()
        px = x.times_p()
        if not px.height() >= (hx + 1 if hx is not INFINITY else hx):
            raise AssertionError(f"h(p*{x}) < h({x})+1")
        for k in range(2, frag.p):
            if (k * x).height() != hx:
                raise AssertionError(f"h({k}*{x}) != h({x})")
    for x, y in itertools.product(xs, repeat=2):
        lower = min(x.height(), y.height())
        if not (x + y).height() >= lower:
            raise AssertionError(f"h({x}+{y}) < min of heights")


def socle_dims_by_enumeration(frag: Fragment) -> dict[Ordinal, int]:
    """``Fragment.socle_height_dims`` counted from the enumerated socle."""
    socle = [x for x in frag.elements() if not x.is_zero and x.times_p().is_zero]
    dims: dict[Ordinal, int] = {}
    above = 0  # log_p |S_{> current}|
    for beta in sorted({x.height() for x in socle}, reverse=True):
        size = 1 + sum(x.height() >= beta for x in socle)
        d = 0
        while frag.p**d < size:
            d += 1
        if frag.p**d != size:
            raise AssertionError(f"S_{beta} is not a subspace")
        dims[beta] = d - above
        above = d
    return dims


def generated_iso_by_pairs(A, abar, B, bbar):
    """``generated_iso`` along the element-pair route: the group of pairs
    (a, b) generated by the (abar[i], bbar[i]) in element arithmetic,
    keyed by a. A and B only need ``zero()`` plus element ``+``."""
    abar, bbar = tuple(abar), tuple(bbar)
    if len(abar) != len(bbar):
        raise ValueError("tuples must have equal length")
    pairs = subgroup_elements(
        (A.zero(), B.zero()),
        list(zip(abar, bbar)),
        lambda x, y: (x[0] + y[0], x[1] + y[1]),
        lambda x: x[0],
    )
    if pairs is None or len({y for _, y in pairs}) != len(pairs):
        return None
    return dict(pairs)


def leq_game_reference(
    A: GroupTree,
    abar: Sequence[FragmentElement],
    B: GroupTree,
    bbar: Sequence[FragmentElement],
    beta: int,
    max_ext: Optional[int] = None,
    _memo: Optional[dict] = None,
) -> bool:
    """Literal recursive game, for cross-validating the collapsed form.

    Challenge tuples dbar range over all tuples of B-elements of length at
    most max_ext (default |B|, at which point the relation has saturated).
    Exponential; only for micro groups.
    """
    abar, bbar = tuple(abar), tuple(bbar)
    if max_ext is None:
        max_ext = B.size
    if _memo is None:
        _memo = {}
    if len(abar) > len(bbar):
        return False
    bbar = bbar[: len(abar)]
    key = (A, abar, B, bbar, beta, max_ext)
    if key in _memo:
        return _memo[key]
    if beta == 0:
        out = generated_iso_by_pairs(A, abar, B, bbar) is not None
        _memo[key] = out
        return out
    _memo[key] = True  # provisional, cycles cannot occur (beta decreases)
    a_elems = list(A.elements())
    b_elems = list(B.elements())
    out = True
    for gamma in range(beta):
        for n in range(max_ext + 1):
            for dbar in itertools.product(b_elems, repeat=n):
                hit = False
                for cbar in itertools.product(a_elems, repeat=n):
                    if leq_game_reference(
                        B,
                        bbar + dbar,
                        A,
                        abar + cbar,
                        gamma,
                        max_ext,
                        _memo,
                    ):
                        hit = True
                        break
                if not hit:
                    out = False
                    break
            if not out:
                break
        if not out:
            break
    _memo[key] = out
    return out


# -- suite 1: game search vs closed form ----------------------------------------


def _agreement_on(tree: GroupTree, elems, betas) -> tuple[int, int]:
    q = bad = 0
    for L in (0, 1, 2):
        for abar in itertools.product(elems, repeat=L):
            for bbar in itertools.product(elems, repeat=L):
                for beta in betas:
                    q += 1
                    game = leq_std_game(tree, abar, tree, bbar, beta)
                    closed = leq_barker(tree, abar, tree, bbar, nat(beta))
                    if game != closed:
                        bad += 1
    return q, bad


def _game_closed_agreement(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    betas = (1, 2, 3, 4)
    q_node = q_elem = q_rand = bad = 0

    # exhaustive over node tuples (plus zero) for the whole corpus
    full = corpus_trees(5, (2, 3))
    for tree in full:
        elems = [tree.node(v) for v in tree.nonroot] + [tree.zero()]
        q, b = _agreement_on(tree, elems, betas)
        q_node += q
        bad += b

    # exhaustive over all element tuples where the groups are tiny
    for tree in corpus_trees(3, (2,)):
        elems = sorted(tree.elements(), key=lambda e: e.terms())
        q, b = _agreement_on(tree, elems, betas)
        q_elem += q
        bad += b

    # seeded random element tuples over the remainder
    for _ in range(2000):
        tree = rng.choice(full)
        elems = sorted(tree.elements(), key=lambda e: e.terms())
        L = rng.randint(0, 2)
        abar = tuple(rng.choice(elems) for _ in range(L))
        bbar = tuple(rng.choice(elems) for _ in range(L))
        beta = rng.choice(betas)
        q_rand += 1
        game = leq_std_game(tree, abar, tree, bbar, beta)
        closed = leq_barker(tree, abar, tree, bbar, nat(beta))
        if game != closed:
            bad += 1

    detail = (
        f"{len(full)} groups; {q_node} node-exhaustive + {q_elem} "
        f"element-exhaustive + {q_rand} sampled queries, {bad} disagreements"
    )
    return bad == 0, detail


# -- suite 2: profile equality vs order statistics ------------------------------


def _order_counts(tree: GroupTree) -> tuple[int, ...]:
    """|{x : p^k x = 0}| for k = 0, 1, ... up to saturation.

    Finite abelian p-groups are classified by these counts, so equal
    sequences mean isomorphic groups. Computed from raw element arithmetic
    only.
    """
    counts = []
    while True:
        k = len(counts)
        c = 0
        for x in tree.elements():
            y = x
            for _ in range(k):
                y = y.times_p()
            if y.is_zero:
                c += 1
        counts.append(c)
        if c == tree.size:
            return tuple(counts)


def _invariant_classification(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    trees = corpus_trees(6, (2,))
    counts = {t: _order_counts(t) for t in trees}
    profiles = {t: invariants_of(t) for t in trees}
    pairs = [(a, b) for i, a in enumerate(trees) for b in trees[i:]]
    bad = 0
    for a, b in pairs:
        if ulm_equal(profiles[a], profiles[b]) != (counts[a] == counts[b]):
            bad += 1
    # cross-check against the explicit isomorphism search
    small = [(a, b) for a, b in pairs if a.size <= 16 and b.size <= 16]
    large = [(a, b) for a, b in pairs if (a, b) not in set(small)]
    sampled = rng.sample(large, 40)
    iso_bad = 0
    for a, b in small + sampled:
        found = find_embedding(a, [], b, [], onto=True, witness=False) is not None
        if found != (counts[a] == counts[b]):
            iso_bad += 1
    detail = (
        f"{len(pairs)} profile/order-count comparisons ({bad} disagree); "
        f"iso search cross-checked on {len(small)} small + 40 sampled pairs "
        f"({iso_bad} disagree)"
    )
    return bad == 0 and iso_bad == 0, detail


# -- suite 3: the sentence family against the invariants ------------------------


def _formula_bridge(seed: int) -> tuple[bool, str]:
    trees = corpus_trees(5, (2, 3))
    q = bad = 0
    for tree in trees:
        profile = invariants_of(tree)
        for n in range(5):
            for beta in range(6):
                q += 1
                truth = holds_B(tree, n, beta)
                bound_holds = value_ge(profile.value_at(nat(beta)), n)
                if truth != bound_holds:
                    bad += 1
    return bad == 0, f"{q} sentence evaluations on {len(trees)} groups, {bad} disagreements"


# -- suite 4: invariants of random chain forests --------------------------------


def _summand_histogram(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    bad = 0
    for _ in range(200):
        p = rng.choice((2, 3))
        max_nodes = 12 if p == 2 else 8
        parent: dict[str, Optional[str]] = {"r": None}
        lengths: list[int] = []
        total = 0
        for c in range(rng.randint(0, 4)):
            depth = rng.randint(1, 3)
            if total + depth > max_nodes:
                break
            total += depth
            prev = "r"
            for d in range(depth):
                name = f"c{c}d{d}"
                parent[name] = prev
                prev = name
            lengths.append(depth)
        tree = GroupTree(p, parent)
        profile = invariants_of(tree)
        hist = Counter(lengths)
        window = max(lengths, default=0) + 2
        want = [hist.get(n + 1, 0) for n in range(window)]
        got = [profile.value_at(nat(n)) for n in range(window)]
        if got != want:
            bad += 1
    return bad == 0, f"200 random chain forests, {bad} histogram mismatches"


# -- suite 5: the extension guarantee -------------------------------------------


def _safe_heights(i: int) -> list[Ordinal]:
    """Heights where the i-th comparison profile over w*2 has room."""
    if i == 0:
        return [nat(0), nat(2), OMEGA, OMEGA + 1, OMEGA + 2, OMEGA + 4]
    out = [nat(0), nat(1), nat(3)]
    out += [OMEGA + k for k in range(i)]
    out += [OMEGA + 2 * k for k in range(1, 4)]
    return out


def _tuple_extension(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    alpha = parse_ordinal("w*2")
    seq = canonical_cofinal(alpha)
    profiles = [make_G_hat(alpha, seq, i) for i in range(4)]
    w_plus_1 = OMEGA + 1

    done = attempts = checks = failures = 0
    while done < 500 and attempts < 5000:
        attempts += 1
        iA = rng.choice((0, 0, 0, 1, 2))
        iB = rng.choice((0, iA, rng.randrange(4)))
        beta = w_plus_1 if rng.random() < 0.2 else nat(rng.randint(1, 4))
        hsA, hsB = _safe_heights(iA), _safe_heights(iB)
        common = [h for h in hsA if h in hsB]
        k = rng.randint(0, 2)
        if k and not common:
            continue
        tup_h = [rng.choice(common) for _ in range(k)]
        dem_h = [rng.choice(hsB) for _ in range(rng.randint(1, 2))]
        try:
            A = canonical_fragment(profiles[iA], 2, [(h, 1) for h in tup_h])
            B = canonical_fragment(profiles[iB], 2, [(h, 1) for h in tup_h + dem_h])
        except ValueError:
            continue
        abar = [A.fragment.gen(t) for t in range(k)]
        bbar = [B.fragment.gen(t) for t in range(k)]
        if not relation(A, abar, B, bbar, beta):
            continue
        dbar = []
        for t in range(len(dem_h)):
            d = B.fragment.gen(k + t)
            if bbar and rng.random() < 0.3:
                d = d + rng.choice(bbar)
            dbar.append(d)
        if beta == w_plus_1:
            etas = [nat(0), nat(1), nat(3), OMEGA]
        else:
            etas = [nat(x) for x in range(beta.as_int())]
        for eta in etas:
            checks += 1
            try:
                res = extend_tuple(A, abar, B, bbar, beta, eta, dbar)
                failures += len(check_extension(B, eta, res))
            except (ExtensionError, ValueError):
                failures += 1
        done += 1

    passed = done >= 500 and failures == 0
    detail = f"{done} instances, {checks} level checks, {failures} defects"
    if done < 500:
        detail += f" (only {done} of 500 found in {attempts} attempts)"
    return passed, detail


# -- suite 6: the two construction behaviors ------------------------------------


def _construction_dichotomy(seed: int) -> tuple[bool, str]:
    problems: list[str] = []

    # a predicate that is false everywhere: every row is in the target set,
    # so every estimate must climb forever
    run = run_construction(PredicateTable(1), 200, window=5)
    for e in range(5):
        vals = [h[e] for h in run.history]
        flat = all(v == 0 for v in vals[: e + 1])
        rising = all(b == a + 1 for a, b in zip(vals[e:], vals[e + 1 :]))
        if not (flat and rising):
            problems.append(f"row {e} estimates fail to climb: {vals[:8]}...")

    # row 0 true at every column and flagged cofinal: the row is treated
    # away, so it never accumulates untreated chains and u_0 freezes
    table = PredicateTable(64, {(0, y) for y in range(64)}, {0})
    state = ConstructionState(table)
    worst = 0
    u0 = []
    for _ in range(200):
        state.advance()
        pending = state.X.get(0, set()) - state.Xt.get(0, set())
        worst = max(worst, len(pending))
        u0.append(state.estimates(1)[0])
    if worst > 1:
        problems.append(f"cofinal row left {worst} chains untreated")
    if len(set(u0[-50:])) != 1:
        problems.append(f"u_0 did not stabilize: tail {sorted(set(u0[-50:]))}")

    detail = (
        "all-false rows climb each stage; cofinal row stays treated "
        f"(worst backlog {worst}, u_0 = {u0[-1]} over the last 50 stages)"
        if not problems
        else "; ".join(problems)
    )
    return not problems, detail


# -- suite 7: sampled conformance of the instantiated system --------------------


def _system_conformance(seed: int) -> tuple[bool, str]:
    alpha = parse_ordinal("w*2")
    sys_ = AlphaSystem(alpha, canonical_cofinal(alpha))
    failures = check_axioms(sys_, 1000, seed=seed)
    detail = f"1000 samples, {len(failures)} violations"
    if failures:
        detail += f"; first: {failures[0]}"
    return not failures, detail


# -- suite 8: quiet and switching runs ------------------------------------------


def _run_dichotomy(seed: int) -> tuple[bool, str]:
    alpha = parse_ordinal("w*2")
    sys_ = AlphaSystem(alpha, canonical_cofinal(alpha))
    problems: list[str] = []

    def recheck(run, q, expect_bits):
        out = list(validate_run(sys_, run, q=q))
        if run.bits() != expect_bits:
            out.append(f"bits {run.bits()} != {expect_bits}")
        final = run.letters()[-1]
        for code in sorted(accumulate_E(run)):
            if not code_true_in(code, final):
                out.append(f"accumulated sentence {code} is false at the end")
        return out

    # an instruction that never fires: the run stays in index 0
    src0 = InstructionSource({0: None})
    q0 = instruction_from_g(src0, 0)
    quiet = find_run(sys_, q0, 5)
    problems += recheck(quiet, q0, (0,) * 5)
    js = [ell.j for ell in quiet.letters()]
    if any(j != 0 for j in js):
        problems.append(f"quiet run moved: indices {js}")

    # an instruction that switches at stage 3: the run pulls into a fixed
    # index exactly once, and that index sits above the switch stage
    switch_at = 3
    src1 = InstructionSource({1: switch_at})
    q1 = instruction_from_g(src1, 1)
    moving = find_run(sys_, q1, 5)
    # the t-th bit is read at prefix length 2t+1
    expect = tuple(1 if 2 * i + 1 >= switch_at else 0 for i in range(5))
    problems += recheck(moving, q1, expect)
    js = [ell.j for ell in moving.letters()]
    changes = [i for i, (a, b) in enumerate(zip(js, js[1:])) if a != b]
    if len(changes) != 1:
        problems.append(f"switching run moved {len(changes)} times: {js}")
    else:
        j_star = js[-1]
        if j_star == 0:
            problems.append("switching run never left index 0")
        if not nat(switch_at) < sys_.seq.at(j_star):
            problems.append(
                f"landing index {j_star} sits at {sys_.seq.at(j_star)}, "
                f"not above the switch stage {switch_at}"
            )
        if not any("pulled into index" in line for line in moving.provenance):
            problems.append("switching run carries no pull receipt")

    detail = (
        f"quiet run held index 0 for 5 steps; switching run landed on index "
        f"{js[-1]} once, past stage {switch_at}"
        if not problems
        else "; ".join(problems)
    )
    return not problems, detail


# -- suite 9: the exponent normalization ----------------------------------------


def _hat_exponents(seed: int) -> tuple[bool, str]:
    problems = []
    if hat_alpha(OMEGA) != nat(3):
        problems.append(f"hat(w) = {hat_alpha(OMEGA)}")
    for m in range(1, 11):
        got = hat_alpha(omega_times(nat(m)))
        if got != nat(2 * m + 1):
            problems.append(f"hat(w*{m}) = {got}, want {2 * m + 1}")
    if hat_alpha(parse_ordinal("w^2")) != OMEGA:
        problems.append(f"hat(w^2) = {hat_alpha(parse_ordinal('w^2'))}")
    detail = (
        "hat(w) = 3, hat(w*m) = 2m+1 for m <= 10, hat(w^2) = w"
        if not problems
        else "; ".join(problems)
    )
    return not problems, detail


# -- driver ----------------------------------------------------------------------


SUITES: dict[str, Callable[[int], tuple[bool, str]]] = {
    "game-closed-agreement": _game_closed_agreement,
    "invariant-classification": _invariant_classification,
    "formula-bridge": _formula_bridge,
    "summand-histogram": _summand_histogram,
    "tuple-extension": _tuple_extension,
    "construction-dichotomy": _construction_dichotomy,
    "system-conformance": _system_conformance,
    "run-dichotomy": _run_dichotomy,
    "hat-exponents": _hat_exponents,
}


def run_suite(name: str, seed: int = 0) -> list[CriterionResult]:
    """Run one suite (or 'all') and return timed results."""
    if name == "all":
        return [r for n in SUITES for r in run_suite(n, seed)]
    fn = SUITES.get(name)
    if fn is None:
        raise KeyError(f"unknown suite {name!r}; choices: {', '.join(SUITES)}")
    t0 = time.perf_counter()
    passed, detail = fn(seed)
    return [CriterionResult(name, passed, detail, time.perf_counter() - t0)]
