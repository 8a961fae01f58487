"""Back-and-forth relations between tuples, computed along two routes.

Route one (`leq_std_game`, explicit tree groups): the recursive game
relation. (A, abar) <=_beta (B, bbar) holds for beta >= 1 iff for every
gamma < beta and every finite extension dbar on the B side some cbar on the
A side answers it at level gamma, bottoming out at <=_0 = equality of
quantifier-free types. Two facts collapse the search:

  * extension tuples are monotone (answering a tuple answers all its
    subtuples and reorderings), so the universal quantifier is decided by
    one maximal challenge, an enumeration of the whole finite group; and
  * once both sides are fully enumerated, <=_gamma of the enumerated
    positions is an embedding (gamma = 1: the final qf-match embeds B into
    A) or an isomorphism (gamma >= 2: the same argument applies in both
    directions), carrying the pinned tuple correspondence.

So <=_1 is "B embeds into A with bbar -> abar" and <=_beta for beta >= 2 is
"A and B are isomorphic with abar -> bbar". `leq_game_reference` keeps the
literal recursion for cross-validation on tiny groups.

Route two (`leq_barker` for tuples in one group, `leq_paper` for groups
carrying limit-infinite invariant profiles): closed-form conditions on the
generated-subgroup correspondence, entrywise heights against the threshold
w*delta (beta = 2*delta or 2*delta+1), and, in the profiled case, invariant
agreement below and just above the threshold.

`extend_tuple` is the constructive content: given the hypothesis relation
at beta it extends the right-hand tuple to answer new elements at any
eta < beta, creating elements in growable fragments or finding them in
explicit ones, with machine-checkable records.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .fragments import Fragment, FragmentElement, ProfiledGroup, from_tree
from .ordinal import (
    INFINITY,
    OMEGA,
    HeightValue,
    Ordinal,
    ZERO,
    height_min,
    nat,
    omega_times,
    parity_split,
)
from .pgroup import (
    DEFAULT_BOUND,
    BoundExceeded,
    GroupElement,
    GroupTree,
    generated_iso,
)
from .ulm import Profile, band_split_index, invariants_of, profiles_agree_on


class ExtensionError(RuntimeError):
    """A tuple extension could not be carried out coherently."""


# -- embedding search (the collapsed game) -----------------------------------

_embed_cache: dict = {}


def find_embedding(
    src: GroupTree,
    src_pins: Sequence[GroupElement],
    dst: GroupTree,
    dst_pins: Sequence[GroupElement],
    onto: bool = False,
    bound: int = DEFAULT_BOUND,
) -> Optional[dict[str, GroupElement]]:
    """Injective homomorphism src -> dst with src_pins[i] -> dst_pins[i].

    Returns the node-image assignment or None. Backtracks over tree nodes
    (parents first); all pruning conditions are necessary ones: p*image
    must hit the parent's image, orders are preserved exactly, heights
    never decrease under an embedding (and are preserved by isomorphisms),
    and image prefixes must generate subgroups of the right size.
    """
    if src.p != dst.p or len(src_pins) != len(dst_pins):
        return None
    if onto and src.size != dst.size:
        return None
    if src.size > dst.size:
        return None
    # the pin constraint is the set of (source, target) pairs; order and
    # 0 -> 0 entries do not change it
    key = (
        src,
        dst,
        frozenset(
            (x.coeffs, y.coeffs)
            for x, y in zip(src_pins, dst_pins)
            if x.coeffs or y.coeffs
        ),
        onto,
    )
    if key in _embed_cache:
        return _embed_cache[key]

    result = _find_embedding_uncached(src, src_pins, dst, dst_pins, onto, bound)
    _embed_cache[key] = result
    return result


class _GroupTables:
    """Integer form of a finite tree group: elements are indexed by their
    position in the sorted enumeration, with addition / scalar tables so
    the embedding search runs on ints. Built once per (tree, bound)."""

    def __init__(self, dst: GroupTree, bound: int):
        self.elems = sorted(dst.elements(bound), key=lambda e: e.coeffs)
        nonroot = dst.nonroot
        p = dst.p
        n = len(nonroot)
        par = [
            nonroot.index(dst.parent[v]) if dst.parent[v] != dst.root else -1
            for v in nonroot
        ]
        deep_first = sorted(range(n), key=lambda k: -dst.depth(nonroot[k]))

        def dense(e: GroupElement) -> tuple[int, ...]:
            got = dict(e.coeffs)
            return tuple(got.get(v, 0) for v in nonroot)

        vecs = [list(dense(e)) for e in self.elems]
        self.index = {tuple(v): i for i, v in enumerate(vecs)}
        self.node_pos = {v: k for k, v in enumerate(nonroot)}

        def norm(vec: list[int]) -> int:
            for k in deep_first:
                c = vec[k]
                if c >= p or c < 0:
                    q, r = divmod(c, p)
                    vec[k] = r
                    j = par[k]
                    if j >= 0:
                        vec[j] += q
            return self.index[tuple(vec)]

        size = len(self.elems)
        self.add = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i, size):
                s = norm([a + b for a, b in zip(vecs[i], vecs[j])])
                self.add[i][j] = s
                self.add[j][i] = s
        self.neg = [norm([-c for c in v]) for v in vecs]
        self.smul = [[norm([k * c for c in v]) for v in vecs] for k in range(p)]
        # scalars 1..p-1 are units, so each smul row is a permutation
        self.sinv = [[0] * size for _ in range(p)]
        for k in range(1, p):
            for i, j in enumerate(self.smul[k]):
                self.sinv[k][j] = i
        self.pmul = []
        for v in vecs:
            out = [0] * n
            for k, c in enumerate(v):
                if c and par[k] >= 0:
                    out[par[k]] += c
            self.pmul.append(norm(out))
        self.height = []
        for e in self.elems:
            h = dst.height_of(e)
            self.height.append(-1 if h is INFINITY else h.as_int())

    def index_of(self, e: GroupElement) -> int:
        got = dict(e.coeffs)
        return self.index[tuple(got.get(v, 0) for v in self.node_pos)]


_table_cache: dict = {}


def _tables_for(dst: GroupTree, bound: int) -> _GroupTables:
    key = (dst, bound)
    tab = _table_cache.get(key)
    if tab is None:
        tab = _table_cache[key] = _GroupTables(dst, bound)
    return tab


def _find_embedding_uncached(src, src_pins, dst, dst_pins, onto, bound):
    # an embedding maps (p^k src)[p] into (p^k dst)[p]; a longer ds fails
    # at dd's final 0, so zip compares enough
    ds, dd = src.socle_dims, dst.socle_dims
    if ds != dd if onto else any(a > b for a, b in zip(ds, dd)):
        return None
    for x, y in zip(src_pins, dst_pins):
        if x.order() != y.order():
            return None
        hx, hy = x.height(), y.height()
        if onto and hx != hy:
            return None
        if not onto and not hy >= hx:
            return None

    # an injective map between groups of equal size is bijective, so the
    # exact-height filters of the onto search are complete for it too
    exact = onto or src.size == dst.size

    # parents before children; within a depth, nodes appearing in pin
    # supports first, so pin images get fixed (and checked) near the root
    # of the search tree
    pinned_sup = {v for x in src_pins for v in x.support}
    order = sorted(
        src.nonroot, key=lambda v: (src.depth(v), v not in pinned_sup, v)
    )
    tab = _tables_for(dst, bound)
    add, smul, pmul, hts = tab.add, tab.smul, tab.pmul, tab.height
    # candidates for a node of rank r with assigned parent image t are the
    # preimages of t at height exactly r (bijective case) or >= r
    max_rank = max((src.rank(v) for v in src.nonroot), default=0)
    by_height: dict[tuple[int, int], list[int]] = {}
    for y, hk in enumerate(hts):
        t = pmul[y]
        for r in range(max_rank + 1):
            if hk == r if exact else (hk == -1 or hk >= r):
                by_height.setdefault((t, r), []).append(y)
    bucket_sets = {key: set(vals) for key, vals in by_height.items()}

    # a pin's image is fixed as soon as its whole support is assigned, so
    # check it right then instead of at the leaves of the search
    pos = {v: i for i, v in enumerate(order)}
    due: dict[str, list[tuple[GroupElement, int]]] = {}
    for x, y in zip(src_pins, dst_pins):
        if not x.support:
            if not y.is_zero:
                return None
            continue
        last = max(x.support, key=pos.__getitem__)
        due.setdefault(last, []).append((x, tab.index_of(y)))

    # symmetry break: sibling subtrees of identical shape that no pin
    # touches are interchangeable, so force their root images into
    # increasing order and search one representative per orbit
    subtree: dict[str, list[str]] = {}
    for v in sorted(src.nonroot, key=lambda u: -src.depth(u)):
        subtree[v] = [v] + [w for c in src.children[v] for w in subtree[c]]

    def shape(v: str) -> str:
        return "(" + "".join(sorted(shape(c) for c in src.children[v])) + ")"

    sym_pred: dict[str, str] = {}
    for parent_node in src.nodes:
        groups: dict[str, list[str]] = {}
        for c in src.children[parent_node]:
            if any(w in pinned_sup for w in subtree[c]):
                continue
            groups.setdefault(shape(c), []).append(c)
        for orbit in groups.values():
            orbit.sort()
            for u, v in zip(orbit, orbit[1:]):
                sym_pred[v] = u

    assign: dict[str, int] = {src.root: 0}
    span: set[int] = {0}

    def image_of(x: GroupElement) -> int:
        acc = 0
        for v, c in x.coeffs:
            acc = add[acc][smul[c][assign[v]]]
        return acc

    neg, sinv = tab.neg, tab.sinv

    def place(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        target = assign[src.parent[v]]
        prev = sym_pred.get(v)
        floor = assign[prev] if prev is not None else -1
        key = (target, src.rank(v))
        cands: Iterable[int] = by_height.get(key, ())
        pinned_here = due.get(v)
        if pinned_here:
            # v is the last unassigned support node of the pin, so its
            # image is forced: c*image = y - (rest of the pin's image)
            x, y = pinned_here[0]
            rest = 0
            cv = 0
            for u, c in x.coeffs:
                if u == v:
                    cv = c
                else:
                    rest = add[rest][smul[c][assign[u]]]
            forced = sinv[cv][add[y][neg[rest]]]
            cands = (forced,) if forced in bucket_sets.get(key, ()) else ()
        for cand in cands:
            if cand <= floor or cand in span:
                continue  # order within orbits; prefix subgroup injectivity
            assign[v] = cand
            if any(image_of(x) != y for x, y in due.get(v, ())):
                del assign[v]
                continue
            added = [
                add[s][kc]
                for k in range(1, src.p)
                for kc in (smul[k][cand],)
                for s in span
            ]
            span.update(added)
            if place(i + 1):
                return True
            del assign[v]
            span.difference_update(added)
        return False

    if place(0):
        return {v: tab.elems[i] for v, i in assign.items()}
    return None


# -- the standard relations on explicit groups -------------------------------


def leq_std_game(
    A: GroupTree,
    abar: Sequence[GroupElement],
    B: GroupTree,
    bbar: Sequence[GroupElement],
    beta: int,
    bound: int = DEFAULT_BOUND,
) -> bool:
    """Game back-and-forth relation (A, abar) <=_beta (B, bbar), beta >= 1.

    A longer left tuple can never sit below a shorter right tuple; otherwise
    the right tuple is cut to the left one's length.
    """
    if beta < 1:
        raise ValueError("the game relation needs beta >= 1")
    abar, bbar = tuple(abar), tuple(bbar)
    if len(abar) > len(bbar):
        return False
    bbar = bbar[: len(abar)]
    if beta == 1:
        return find_embedding(B, bbar, A, abar, onto=False, bound=bound) is not None
    return find_embedding(A, abar, B, bbar, onto=True, bound=bound) is not None


def leq_game_reference(
    A: GroupTree,
    abar: Sequence[GroupElement],
    B: GroupTree,
    bbar: Sequence[GroupElement],
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
        out = generated_iso(A, abar, B, bbar) is not None
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


# -- closed forms --------------------------------------------------------------


def _entry_heights_ok(
    ha: HeightValue, hb: HeightValue, beta_parity: int, thr: Ordinal, profile: Profile
) -> bool:
    if beta_parity == 0:
        return (ha == hb and ha < thr) or (ha >= thr and hb >= thr)
    split = band_split_index(profile, thr)
    if ha == hb and ha < thr:
        return True
    if split is None:
        # socle infinite at every finite offset above the threshold
        return hb >= thr and ha >= height_min(hb, thr + OMEGA)
    if split >= 0:
        edge = thr + split
        if thr <= hb and hb <= ha and ha <= edge:
            return True
        return ha == hb and ha > edge
    return ha == hb


def leq_barker(
    A: Union[GroupTree, ProfiledGroup],
    abar: Sequence,
    B: Union[GroupTree, ProfiledGroup],
    bbar: Sequence,
    beta: Ordinal,
) -> bool:
    """Height/subgroup characterization of <=_beta for tuples in one group.

    Also accepts two carriers with equal invariants (two tree groups with
    unequal ones raise ValueError); the socle-finiteness case split is read
    off the left profile. For explicit finite groups every case lands in the
    finite-socle branch: heights must match entrywise on top of the
    generated-subgroup correspondence.
    """
    if isinstance(beta, int):
        beta = nat(beta)
    if beta < nat(1):
        raise ValueError("the characterization needs beta >= 1")
    if isinstance(A, GroupTree) and isinstance(B, GroupTree):
        if A.socle_dims != B.socle_dims:
            raise ValueError("the characterization needs equal invariants")
    holderA, abar, profileA = _carrier(A, abar)
    holderB, bbar, _ = _carrier(B, bbar)
    if len(abar) > len(bbar):
        return False
    bbar = bbar[: len(abar)]
    if not _corresponds(holderB, bbar, holderA, abar):
        return False
    delta, parity = parity_split(beta)
    thr = omega_times(delta)
    return all(
        _entry_heights_ok(a.height(), b.height(), parity, thr, profileA)
        for a, b in zip(abar, bbar)
    )


def _carrier(G, tup):
    if isinstance(G, GroupTree):
        return G, tuple(tup), invariants_of(G)
    if isinstance(G, ProfiledGroup):
        return G.fragment, tuple(tup), G.profile
    raise TypeError(f"expected a tree or profiled group, got {type(G)!r}")


_geniso_cache: dict = {}


def _corresponds(B, bbar, A, abar) -> bool:
    # memoize only immutable carriers; fragments grow between calls
    if isinstance(A, GroupTree) and isinstance(B, GroupTree):
        key = (B, tuple(y.coeffs for y in bbar), A, tuple(x.coeffs for x in abar))
        hit = _geniso_cache.get(key)
        if hit is None:
            hit = _geniso_cache[key] = generated_iso(B, bbar, A, abar) is not None
        return hit
    return generated_iso(B, bbar, A, abar) is not None


def leq_paper(
    A: ProfiledGroup,
    abar: Sequence[FragmentElement],
    B: ProfiledGroup,
    bbar: Sequence[FragmentElement],
    beta: Ordinal,
) -> bool:
    """Modified relation for groups with limit-infinite invariant profiles.

    Clauses: (a) the entrywise correspondence extends to an isomorphism of
    generated subgroups; (b) entry heights match below w*delta and are
    capped-compatible above it (odd levels allow the left height to exceed
    the right up to w*delta + w); (c) invariants agree below w*delta;
    (d) at odd levels the left invariants dominate on [w*delta, w*delta+w).
    """
    if isinstance(beta, int):
        beta = nat(beta)
    for P in (A.profile, B.profile):
        if not (P.length.is_limit and P.limit_infinite):
            raise ValueError(
                "the modified relation expects limit length and "
                "limit-infinite profiles"
            )
    abar, bbar = tuple(abar), tuple(bbar)
    if len(abar) > len(bbar):
        return False
    bbar = bbar[: len(abar)]
    if generated_iso(B.fragment, bbar, A.fragment, abar) is None:
        return False
    delta, parity = parity_split(beta)
    thr = omega_times(delta)
    for a, b in zip(abar, bbar):
        ha, hb = a.height(), b.height()
        if parity == 0:
            ok = (ha == hb and ha < thr) or (ha >= thr and hb >= thr)
        else:
            ok = (ha == hb and ha < thr) or (
                hb >= thr and ha >= height_min(hb, thr + OMEGA)
            )
        if not ok:
            return False
    if not profiles_agree_on(A.profile, B.profile, nat(0), thr, "eq"):
        return False
    if parity == 1 and not profiles_agree_on(
        A.profile, B.profile, thr, thr + OMEGA, "ge"
    ):
        return False
    return True


# -- properness and constructive extension ------------------------------------


def relation(
    A: ProfiledGroup,
    abar: Sequence[FragmentElement],
    B: ProfiledGroup,
    bbar: Sequence[FragmentElement],
    beta: Ordinal,
) -> bool:
    """(A, abar) <=_beta (B, bbar) by whichever closed form applies.

    Limit-infinite profiles on both sides use the modified relation; finite
    carriers fall back to the single-group characterization. Level 0 is
    quantifier-free type containment in either case.
    """
    if isinstance(beta, int):
        beta = nat(beta)
    abar, bbar = tuple(abar), tuple(bbar)
    if beta.is_zero:
        if len(abar) > len(bbar):
            return False
        bbar = bbar[: len(abar)]
        return generated_iso(B.fragment, bbar, A.fragment, abar) is not None
    if all(
        P.length.is_limit and P.limit_infinite for P in (A.profile, B.profile)
    ):
        return leq_paper(A, abar, B, bbar, beta)
    return leq_barker(A, abar, B, bbar, beta)


def is_proper(x, S: Iterable) -> bool:
    """x has maximal height in its coset x + <S-elements-listed>."""
    S = list(S)
    if any(x == s for s in S):
        raise ValueError("properness is asked of elements outside the subgroup")
    hx = x.height()
    return all(hx >= (x + s).height() for s in S)


@dataclass(frozen=True)
class CreationRecord:
    adjoined: FragmentElement  # the proper representative on the B side
    pimage: FragmentElement  # z = f(p * adjoined), in the A fragment at creation time
    created: FragmentElement  # c on the A side
    height: Ordinal
    context: tuple[FragmentElement, ...]  # right-tuple generators present before c


@dataclass(frozen=True)
class ExtendResult:
    A: ProfiledGroup  # possibly grown
    left: tuple[FragmentElement, ...]  # bbar followed by dbar
    right: tuple[FragmentElement, ...]  # matching images in A
    records: tuple[CreationRecord, ...]


def extend_tuple(
    A: ProfiledGroup,
    abar: Sequence[FragmentElement],
    B: ProfiledGroup,
    bbar: Sequence[FragmentElement],
    beta: Ordinal,
    eta: Ordinal,
    dbar: Sequence[FragmentElement],
    check_hypothesis: bool = True,
) -> ExtendResult:
    """Answer new B-side elements dbar at level eta, given <=_beta at beta > eta.

    Each demand is worked down its p-power chain to the generated subgroup;
    every intermediate element is replaced by a proper coset representative
    d' and answered by some c with p*c = f(p*d') at the height
    `answer_height` picks from the eta clauses. In growable fragments c is
    created (fresh directions are automatically proper); in explicit ones it
    is found by search. Raises ExtensionError when the height bookkeeping
    cannot be satisfied.
    """
    if isinstance(beta, int):
        beta = nat(beta)
    if isinstance(eta, int):
        eta = nat(eta)
    if not eta < beta:
        raise ValueError(f"need eta < beta, got {eta} >= {beta}")
    abar, bbar, dbar = tuple(abar), tuple(bbar), tuple(dbar)
    for d in dbar:
        if d.fragment is not B.fragment:
            raise ValueError("demands must live in the B fragment")
    if len(abar) > len(bbar):
        raise ExtensionError("left tuple longer than right tuple")
    if check_hypothesis and not relation(A, abar, B, bbar, beta):
        raise ExtensionError("hypothesis relation fails at beta")

    demands = bbar[len(abar):] + dbar
    cur_b: list[FragmentElement] = list(bbar[: len(abar)])
    cur_a: list[FragmentElement] = list(abar)
    grown = A

    def remap() -> dict:
        m = generated_iso(B.fragment, cur_b, grown.fragment, cur_a)
        if m is None:
            raise AssertionError("extension broke the tuple correspondence")
        return m

    fmap = remap()
    delta, parity = parity_split(eta)
    thr = omega_times(delta)
    cap = thr + (OMEGA if parity else ZERO)
    records: list[CreationRecord] = []

    def answer_heights(hd: Ordinal, hz: HeightValue) -> list[Ordinal]:
        """Admissible h(c) values for an answer with p*c = z, best first.

        Below the threshold both parities demand exact height equality, so
        h(z) must leave room and there is a single candidate. At or above
        it, even levels accept any answer at or above the threshold
        (target: the demand's own height), while odd levels additionally
        cap the answer at thr + w. When h(z) blocks the target, back off
        to the largest height z admits, or to the threshold when z's
        height is a limit and admits no largest. Lower candidates down to
        the threshold stay admissible, which matters when the receiving
        profile has no room at the target itself.
        """
        if hd < thr:
            if not hz >= hd + 1:
                raise ExtensionError(
                    f"height incoherence: a demand of height {hd} below the "
                    f"threshold {thr} needs its p-image at height >= "
                    f"{hd + 1}, got {hz}"
                )
            return [hd]
        want = hd if parity == 0 else height_min(hd, cap)
        if hz >= want + 1:
            top = want
        elif isinstance(hz, Ordinal) and hz.is_successor:
            top = min(want, hz.pred())
        elif isinstance(hz, Ordinal) and hz.is_limit:
            top = thr
        else:
            raise ExtensionError(f"cannot answer below p-image height {hz}")
        if not (thr <= top and hz >= top + 1):
            raise ExtensionError(
                f"height incoherence: no admissible answer height in "
                f"[{thr}, {want}] fits under the p-image height {hz}"
            )
        out = [top]
        g = top
        while g != thr:
            if g.is_successor and not g.pred() < thr:
                g = g.pred()
            else:
                g = thr  # below a limit, resume at the threshold itself
            out.append(g)
        return out

    def adjoin(e: FragmentElement) -> None:
        nonlocal grown, cur_a, fmap
        sub_b = sorted(B.fragment.subgroup(cur_b), key=lambda s: s.coeffs)
        best = None
        for s in sub_b:
            cand = e + s
            if best is None or cand.height() > best.height():
                best = cand
        d_prime = best  # proper: its height is maximal in e + <cur_b>
        w = d_prime.times_p()
        z = fmap[w]
        hd = d_prime.height()
        c = None
        gamma_c = None
        refusals: list[str] = []
        for gamma in answer_heights(hd, z.height()):
            if grown.growable:
                try:
                    next_grown, c = grown.create_element(z, gamma)
                except ValueError as exc:
                    refusals.append(str(exc))
                    continue
                grown = next_grown
                cur_a = [grown.migrate(x) for x in cur_a]
            else:
                c = _find_explicit_image(grown, cur_a, z, gamma)
                if c is None:
                    refusals.append(f"no proper element found at {gamma}")
                    continue
            gamma_c = gamma
            break
        if gamma_c is None:
            raise ExtensionError(
                f"no admissible answer height for p-image {z} could be "
                f"realized: {'; '.join(refusals)}"
            )
        records.append(
            CreationRecord(d_prime, z, c, gamma_c, tuple(cur_a))
        )
        cur_b.append(d_prime)
        cur_a.append(c)
        fmap = remap()

    for d in demands:
        stack = []
        x = d
        while x not in fmap:
            stack.append(x)
            x = x.times_p()
        for e in reversed(stack):
            if e not in fmap:  # an earlier adjoin may already cover it
                adjoin(e)

    right = tuple(cur_a[: len(abar)]) + tuple(fmap[d] for d in demands)
    left = bbar[: len(abar)] + demands
    return ExtendResult(grown, left, right, tuple(records))


def _find_explicit_image(
    pg: ProfiledGroup,
    cur_a: Sequence[FragmentElement],
    z: FragmentElement,
    gamma: Ordinal,
) -> Optional[FragmentElement]:
    sub_a = pg.fragment.subgroup(cur_a)
    for c in sorted(pg.fragment.elements(), key=lambda x: x.coeffs):
        if c in sub_a:
            continue
        if c.times_p() != z or c.height() != gamma:
            continue
        if all(c.height() >= (c + s).height() for s in sub_a):
            return c
    return None


def check_extension(
    B: ProfiledGroup,
    eta: Ordinal,
    result: ExtendResult,
) -> list[str]:
    """Machine-check an ExtendResult: creation equations, heights,
    properness, and the concluded relation at eta. Returns human-readable
    defect descriptions, empty when everything holds."""
    problems: list[str] = []
    frag = result.A.fragment
    for rec in result.records:
        c = frag.migrate(rec.created)
        z = frag.migrate(rec.pimage)
        if c.times_p() != z:
            problems.append(f"p*{c} != {z}")
        if c.height() != rec.height:
            problems.append(f"h({c}) = {c.height()}, recorded {rec.height}")
        prefix = [frag.migrate(x) for x in rec.context]
        sub = frag.subgroup(prefix)
        if any(c == s for s in sub):
            problems.append(f"{c} fell into the prefix subgroup")
        elif not all(c.height() >= (c + s).height() for s in sub):
            problems.append(f"{c} is not proper over its prefix subgroup")
    try:
        migrated_right = tuple(frag.migrate(x) for x in result.right)
        if not relation(B, result.left, result.A, migrated_right, eta):
            problems.append("concluded relation fails at eta")
    except (ValueError, BoundExceeded) as exc:
        problems.append(f"relation check errored: {exc}")
    return problems
