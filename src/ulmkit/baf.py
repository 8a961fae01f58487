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
"A and B are isomorphic with abar -> bbar", both decided by the search in
`find_embedding`, which builds no whole-group table. It works on the
coordinates of both trees' cyclic decompositions. Each pin pair's orders
and heights are screened first; then the pinned correspondence is held
once, as a triangular basis of the pin pairs with one lead per node, and
no element of it is listed. The basis decides that the correspondence is
well defined and injective, seeds two GF(p) echelons (the source and image
socle spans) with its leads' order-p multiples, and gives the pinned
element that forces each node's image. A node whose source socle vector
is already spanned is forced, so a choice that contradicts a pin is
refused where it is made rather than when the pin's support is complete.
What depends on the source tree alone, its base placement order and its
runs of same-shape siblings with their symmetry break, is built on the
tree's first search and kept on it (``GroupTree.search_skeleton``).

Route two (`leq_barker` for tuples in one group, `leq_paper` for groups
carrying limit-infinite invariant profiles): closed forms at the threshold
w*delta (beta = 2*delta or 2*delta+1). Their carriers are explicit groups,
passed as their `GroupTree`, or `ProfiledGroup`s, whose elements the tree,
or the fragment, holds. Every pair of carriers meets in `_tuple_clauses`,
which decides (a) the generated-subgroup correspondence and (b) Barker's
entrywise heights against the threshold; above level 0 both carriers must
have one prime. On two trees (a) counts orders and lists no pairs:
|<abar>| = |<(abar, bbar)>| = |<bbar>| (`pgroup._generated_iso_exists`).
On carriers that are fragments a tuple taken to itself in an extension of
its fragment (a run letter against its successor, an extension's
hypothesis) is an inclusion restricted, which holds without listing
(`pgroup._is_inclusion`); any other pair lists the pair tower. So the game
and the closed form decide (a) by independent computations. In (b) equal
heights pass at once, and the threshold is worked out at the first entry
pair whose heights differ. Above the threshold, (b) asks the left
invariants one thing: tau, the height up to which the socle stays infinite
(`socle_finite_from`). A finite group's socle is finite, so two trees take
tau = 0 and compare their invariants as ``socle_dims``, building neither
profile; with heights below w or infinite, (b) on them is "entry heights
equal" at every beta >= 1. `leq_paper` is (b) with tau infinite, plus
(c)/(d), invariant agreement below and just above the threshold.

`extend_tuple` is the constructive content: given the hypothesis relation
at beta it extends the right-hand tuple to answer new elements at any
eta < beta, creating elements in a profiled group's fragment or finding
them in an explicit group's tree, with machine-checkable records. Its
hypothesis is decided once: `relation` keeps verdicts on a profiled left
carrier (``hypothesis_memo``), which `check_extension` never reads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

from .fragments import ProfiledGroup
from .ordinal import (
    INFINITY,
    OMEGA,
    ZERO,
    HeightValue,
    Ordinal,
    height_min,
    nat,
    omega_times,
    parity_split,
)
from .pgroup import (
    BoundExceeded,
    FragmentElement,
    GroupTree,
    _coeff_adder,
    _generated_iso_exists,
    _tower_step,
    echelon_add,
)
from .ulm import Profile, invariants_of, profiles_agree_on, ulm_equal


class ExtensionError(RuntimeError):
    """A tuple extension could not be carried out coherently."""


def _level(beta: Union[int, Ordinal]) -> Ordinal:
    """A level given as an int or an Ordinal, as an Ordinal; anything else
    raises ValueError."""
    if not isinstance(beta, (int, Ordinal)):
        raise ValueError(f"a level is an int or an Ordinal, got {beta!r}")
    return nat(beta) if isinstance(beta, int) else beta


# -- embedding search (the collapsed game) -----------------------------------


def find_embedding(
    src: GroupTree,
    src_pins: Sequence[FragmentElement],
    dst: GroupTree,
    dst_pins: Sequence[FragmentElement],
    onto: bool = False,
    witness: bool = True,
) -> Optional[dict[str, FragmentElement]]:
    """Injective homomorphism src -> dst with src_pins[i] -> dst_pins[i].

    Returns the node-image assignment or None. Such a map restricts to the
    isomorphism <src_pins> -> <dst_pins> and never lowers heights. Each pin
    pair is screened first: unequal orders or a lowered height refuse at
    once. Then the restriction is decided on a triangular basis of the pin
    pairs, one lead per node where <src_pins> grows, with no pair listed:
    it is well defined when the pairs left with source 0 have image 0, and
    each lead keeps its order and seeds the socle spans below. The search
    then places nodes, parents first, in dst's coordinates: the candidates
    are the preimages of the parent's image under p (one solution plus
    socle elements) at the right height, and a node that leads gets the
    image that carries its lead. On the socle the map is linear and
    injective: a placement whose source socle vector rises over the source
    span (a GF(p) echelon seeded by the leads' order-p multiples) must raise
    the image span too, and one whose source vector is spanned is forced,
    its forced image on the map's graph. Without pins this is independence
    of the socle images.
    Raises BoundExceeded when a socle layer the candidates come from has
    more than DEFAULT_BOUND elements (the layer at height 0 of the (Z2)^20
    star, say, even with all 20 leaves pinned on both sides, where
    ``leq_barker`` counts orders and answers). Primes, sizes or socle
    dimensions that rule out every map answer None at once; past them, a
    pin that does not belong to its tree raises ValueError, memoized
    answer or not. The answer is memoized on dst (trees are immutable):
    per source tree, held weakly, or apart when src is dst, keyed by
    exactness (onto, or src and dst of equal size) and the pin pairs. An
    injective map between groups of equal size is onto, so there the into
    and the onto search are one computation and share one entry. With
    witness=False it is only tested against None, and a map found stays
    undecoded until a caller asks for it. The placement order without pins
    and the runs of interchangeable siblings are src's search skeleton,
    built on its first uncached search; pins only move the nodes they
    touch to the front and leave the touched siblings out of the runs.
    """
    if src.p != dst.p or len(src_pins) != len(dst_pins):
        return None
    if src.size > dst.size or onto and src.size != dst.size:
        return None
    # an embedding maps (p^k src)[p] into (p^k dst)[p]; a longer ds fails
    # at dd's final 0, so zip compares enough. The dims sum to log_p of the
    # size, so between groups of equal size they must be equal
    exact = onto or src.size == dst.size
    ds, dd = src.socle_dims, dst.socle_dims
    if ds != dd if exact else any(map(operator.gt, ds, dd)):
        return None
    # checked here, not in the search, so a memo hit cannot answer for a
    # pin of another tree
    sf, df = src.fragment, dst.fragment
    if any(x.fragment is not sf for x in src_pins) or any(
        y.fragment is not df for y in dst_pins
    ):
        raise ValueError("element does not belong to this tree")
    # the pin constraint is the set of (source, target) pairs; order and
    # 0 -> 0 entries do not change it. The sorted pairs, laid flat in one
    # tuple, key it in about a third of a frozenset of pairs' memory
    pairs = sorted({
        (x.coeffs, y.coeffs)
        for x, y in zip(src_pins, dst_pins)
        if not (x.is_zero and y.is_zero)
    })
    if src is dst:
        memo = dst.self_embed_memo
    else:  # a hit builds no weak reference and no empty dict
        memo = dst.embed_memo.get(src)
        if memo is None:
            memo = dst.embed_memo[src] = {}
    key = (exact, *[c for pair in pairs for c in pair])
    if key not in memo:
        memo[key] = _find_embedding_uncached(src, src_pins, dst, dst_pins, exact)
    hit = memo[key]
    if witness and isinstance(hit, tuple):
        dec = dst.decomposition
        hit = memo[key] = {v: dec.decode(z) for v, z in hit}
    return hit


def _find_embedding_uncached(src, src_pins, dst, dst_pins, exact):
    # an embedding never lowers heights, and an injective map between
    # groups of equal size is bijective, so it keeps them
    sdec, dec = src.decomposition, dst.decomposition

    def keeps(zx, zy) -> bool:
        hx, hy = sdec.height_of(zx), dec.height_of(zy)
        return hy == hx if exact else hy >= hx

    # each pin pair must keep its order and heights, which refuses most
    # failing pins at once
    pins = []
    for x, y in zip(src_pins, dst_pins):
        zx, zy = sdec.encode(x), dec.encode(y)
        if sdec.order_of(zx) != dec.order_of(zy) or not keeps(zx, zy):
            return None
        pins.append(zy)

    # Higher ranks are placed first, as they have the fewest candidates.
    # symmetry break: sibling subtrees of identical shape that no pin
    # touches are interchangeable, so force their root images into
    # increasing order and search one representative per orbit. Such
    # siblings share their place in the order up to the name, so the
    # earlier one is placed first.
    skeleton = src.search_skeleton or _search_skeleton(src)
    order, sym_pred = skeleton.order, skeleton.orbit_pred
    gens = src.fragment.gens
    pinned_sup = {gens[i].name for x in src_pins for i, c in enumerate(x.coeffs) if c}
    if pinned_sup:
        # v is touched when it or a node below it lies in a pin's support.
        # The touched nodes come first, so every pin is forced before any
        # untouched node is tried, and only untouched siblings stay
        # interchangeable. Rank falls strictly from parent to child and
        # touched nodes' parents are touched, so parents still come before
        # children.
        touched, parent = {src.root}, src.parent
        for v in pinned_sup:
            while v not in touched:
                touched.add(v)
                v = parent[v]
        order = [v for v in order if v in touched] + [v for v in order if v not in touched]
        sym_pred = {}
        for run in skeleton.runs:
            free = [v for v in run if v not in touched]
            sym_pred.update(zip(free[1:], free))

    # An embedding carrying the pins restricts to the isomorphism <src_pins>
    # -> <dst_pins>, decided on a triangular basis of the pin pairs with no
    # element of <pins> listed. As parents are placed first, the first i
    # nodes of `order` span a subgroup S_i whose normal forms live on them,
    # and on S_i the i-th node's coefficient is additive mod p: carries only
    # move to parents. So <pins> & S_i grows at most p-fold per node. From
    # the last node down, rows spanning the pin pairs over <pins> & S_i keep
    # one lead (x, y) with a unit at node i, which clears the others there;
    # p * lead joins them. The rows whose source falls to 0 span the pin
    # pairs (0, y), so the correspondence is well defined iff their images
    # are 0. A lead keeps its order o, and (o/p)(x, y) seeds the source and
    # image socle spans in GF(p) coordinates (k_j * p^(e_j - 1) is
    # coordinate j): a source that rises while its image does not is a
    # nonzero pinned element sent to 0.
    # forced: per node v, the lead x with v last in its support, its image,
    # and the inverse of its coefficient at v modulo the exponent of dst (so
    # also modulo p). Once the leads' supports are placed, all of <pins>
    # maps right.
    p, frag, smods, mods = dst.p, src.fragment, sdec.moduli, dec.moduli

    def combine(row, t, lead):  # row + t * lead
        (x, y), (lx, ly) = row, lead
        return (frag._normalize([a + t * b for a, b in zip(x, lx)]),
                tuple([(a + t * b) % m for a, b, m in zip(y, ly, mods)]))

    def socle_coords(z, o, moduli):  # of (o/p) z, an element of order p
        return [c * (o // p) % m * p // m for c, m in zip(z, moduli)]

    rows = [(x.coeffs, zy) for x, zy in zip(src_pins, pins) if not x.is_zero]
    forced: dict[str, tuple] = {}
    src_basis: list = []  # echelon rows of the source socle span
    basis: list = []  # echelon rows of the image socle span
    for v in reversed(order):
        if not rows:
            break
        i = frag.index[v]
        lead = next((row for row in rows if row[0][i]), None)
        if lead is None:
            continue
        (lx, ly), inv = lead, pow(lead[0][i], -1, max(mods))
        zx = sdec.encode(FragmentElement(frag, lx))
        o = sdec.order_of(zx)
        if o != dec.order_of(ly):
            return None
        if echelon_add(src_basis, socle_coords(zx, o, smods), p) and not echelon_add(
            basis, socle_coords(ly, o, mods), p
        ):
            return None
        rest = [(g.name, c) for g, c in zip(frag.gens, lx) if c and g.name != v]
        forced[v] = (inv, rest, ly)
        rows = [combine(r, -r[0][i] * inv, lead) if r[0][i] else r for r in rows if r is not lead]
        rows.append(combine(lead, p - 1, lead))
        if any(any(y) for x, y in rows if not any(x)):
            return None
        rows = [r for r in rows if any(r[0])]

    # f is injective iff it is on the socle, where it is linear, its graph
    # spanned by the seed and one pair per socle basis vector s_v of src:
    # v (parent the root) or v - w (w the first placed sibling), of source
    # coordinates sigma_v and image coordinates k_v or k_v - k_w. A rising
    # sigma_v must raise the image span too. A spanned one needs no check:
    # s_v minus the earlier socle basis vectors is a sum of seed sources,
    # an element of <pins> & S_i with a unit at v, so v is forced, and its
    # forced image already lies on the graph. The seed images rose with
    # their sources, so a socle basis keeps independent images. Without
    # pins every sigma rises, and the rule is image independence.
    seeded = bool(src_basis)

    # The y with p*y = t = f(parent v) and h(y) >= r = rank(v) are y0 + s:
    # y0 = t/p coordinatewise, of height h(t) - 1 >= r, and s in the socle
    # at height >= r, exactly r in the exact case unless h(t) = r + 1.
    first_child: dict[str, str] = {}
    plan = []
    root, parent, rank, layers = src.root, src.parent, src._rank, dec._layers
    for v in order:
        u, r = parent[v], rank[v]
        w = first_child.setdefault(u, v)
        layer_key = (r, exact and (u == root or rank[u] > r + 1))
        layer = layers.get(layer_key)
        if layer is None:  # builds the layer, or refuses it
            layer = dec.socle_layer(*layer_key)
        added = u if u == root else None if w == v else w
        # without pins every sigma rises: they are a basis of src's socle
        rises = added is not None
        if rises and seeded:
            sigma = sdec.socle_vector(v, None if added == root else w)
            rises = echelon_add(src_basis, sigma, p)
        plan.append((v, u, layer, forced.get(v), added, rises, sym_pred.get(v)))

    assign: dict[str, tuple[int, ...]] = {src.root: dec.zero}
    socle_k: dict[str, tuple[int, ...]] = {src.root: dec.zero}

    def tries(i: int) -> Iterator[bool]:
        """Place node plan[i] at each candidate in turn, undoing on resume."""
        v, u, layer, pinned_here, added, rises, prev = plan[i]
        y0 = tuple(a // p for a in assign[u])
        cands: Iterable = layer.items()
        if pinned_here:
            # c * f(v) = f(x) - (image of the rest of x), and c is a unit
            # modulo the exponent of dst, whose inverse the plan keeps
            inv, rest, acc = pinned_here
            for w, c in rest:
                acc = [a - c * b for a, b in zip(acc, assign[w])]
            s = tuple((a * inv - b) % m for a, b, m in zip(acc, y0, mods))
            k = tuple(c * p // m for c, m in zip(s, mods))
            cands = ((k, s),) if layer.get(k) == s else ()
        for k, s in cands:
            if prev is not None and k <= socle_k[prev]:
                continue  # order within orbits (siblings share y0)
            if rises:
                vec = [(a - b) % p for a, b in zip(k, socle_k[added])]
                if not echelon_add(basis, vec, p):
                    continue
            assign[v] = tuple(map(operator.add, y0, s))
            socle_k[v] = k
            yield True
            if rises:
                basis.pop()

    # depth-first over plan with an explicit stack, so deep trees do not
    # hit the recursion limit
    stack: list[Iterator[bool]] = []
    while len(stack) < len(plan):
        stack.append(tries(len(stack)))
        while not next(stack[-1], False):
            stack.pop()
            if not stack:
                return None
    return tuple(assign.items())


@dataclass(frozen=True)
class _SearchSkeleton:
    """What the embedding search reads off its source tree alone: the base
    order of the non-root nodes by (-rank, depth, name), the runs of
    same-shape siblings (shapes are numbered canonical forms of subtrees),
    and the map from each run member to the one before it, which is the
    symmetry break when no pin touches the tree."""

    order: tuple[str, ...]
    runs: tuple[tuple[str, ...], ...]
    orbit_pred: dict[str, str]


def _search_skeleton(tree: GroupTree) -> _SearchSkeleton:
    """Build tree's search skeleton and keep it on the tree, which it
    never references, so it dies with the tree."""
    shape: dict[str, int] = {}
    shapes: dict[tuple, int] = {}
    for v in sorted(tree.nodes, key=lambda u: -tree.depth(u)):  # deepest first
        key = tuple(sorted(shape[c] for c in tree.children[v]))
        shape[v] = shapes.setdefault(key, len(shapes))
    runs = []
    for u in tree.nodes:
        groups: dict[int, list[str]] = {}
        for c in tree.children[u]:  # children come sorted
            groups.setdefault(shape[c], []).append(c)
        runs += [tuple(run) for run in groups.values() if len(run) > 1]
    order = tuple(sorted(tree.nonroot, key=lambda v: (-tree.rank(v), tree.depth(v), v)))
    pred = {v: u for run in runs for u, v in zip(run, run[1:])}
    skeleton = tree.search_skeleton = _SearchSkeleton(order, tuple(runs), pred)
    return skeleton


# -- the standard relations on explicit groups -------------------------------


def leq_std_game(
    A: GroupTree,
    abar: Sequence[FragmentElement],
    B: GroupTree,
    bbar: Sequence[FragmentElement],
    beta: Union[int, Ordinal],
) -> bool:
    """Game back-and-forth relation (A, abar) <=_beta (B, bbar), finite beta >= 1.

    A longer left tuple can never sit below a shorter right tuple; otherwise
    the right tuple is cut to the left one's length.
    """
    beta = _level(beta)
    if beta.is_zero or not beta.is_finite:
        raise ValueError(f"the game relation needs a finite beta >= 1, got {beta}")
    abar, bbar = tuple(abar), tuple(bbar)
    if len(abar) > len(bbar):
        return False
    bbar = bbar[: len(abar)]
    if beta == nat(1):
        return find_embedding(B, bbar, A, abar, witness=False) is not None
    return find_embedding(A, abar, B, bbar, onto=True, witness=False) is not None


# -- closed forms --------------------------------------------------------------


def _tuple_clauses(A, abar, B, bbar, beta: Ordinal, tau: HeightValue) -> bool:
    """Clauses (a) and (b) of both closed forms, for every pair of carriers
    A, B (the trees or fragments that hold the elements): bbar, cut to
    abar's length, corresponds to abar, and entry heights compare against
    the threshold w*delta of beta, worked out at the first pair of unequal
    heights. At odd levels the left height may exceed the right below tau,
    where the socle is infinite: the left `socle_finite_from` for
    leq_barker (0 on two trees), INFINITY for leq_paper. Above level 0
    carriers of different primes raise ValueError.
    """
    if A.p != B.p and not beta.is_zero:
        raise ValueError(f"the closed forms need one prime, got {A.p} and {B.p}")
    abar, bbar = tuple(abar), tuple(bbar)
    if len(abar) > len(bbar):
        return False
    bbar = bbar[: len(abar)]
    if not _generated_iso_exists(B, bbar, A, abar):
        return False
    if beta.is_zero:
        return True  # every height is at least the threshold 0
    rule = None
    for a, b in zip(abar, bbar):
        ha, hb = a.height(), b.height()
        if ha == hb:
            continue
        if rule is None:
            delta, parity = parity_split(beta)
            thr = omega_times(delta)
            rule = parity, thr, thr + OMEGA
        if not _entry_heights_ok(ha, hb, *rule, tau):
            return False
    return True


def _entry_heights_ok(
    ha: HeightValue,
    hb: HeightValue,
    parity: int,
    thr: Ordinal,
    cap: Ordinal,
    tau: HeightValue,
) -> bool:
    """Clause (b) for one entry pair at threshold thr, with cap = thr + w
    and P_theta infinite exactly for theta < tau. Equal heights pass; even
    levels ask only that both reach thr. At odd levels the left height may
    exceed the right while both stay in [thr, tau); when tau >= cap the
    band is infinite and the left height need only reach min(hb, cap)."""
    if ha == hb:
        return True
    if parity == 0:
        return ha >= thr and hb >= thr
    if tau < cap:
        return thr <= hb <= ha < tau
    return hb >= thr and ha >= height_min(hb, cap)


def leq_barker(
    A: Union[GroupTree, ProfiledGroup],
    abar: Sequence,
    B: Union[GroupTree, ProfiledGroup],
    bbar: Sequence,
    beta: Ordinal,
) -> bool:
    """Height/subgroup characterization of <=_beta for tuples in one group.

    Also accepts two carriers with equal invariants and one prime (others
    raise ValueError); the socle-finiteness case split, tau, is read off
    the left invariants, and `_tuple_clauses` decides. Two trees build no
    profile: their invariants are equal when their ``socle_dims`` are, and
    a finite group's tau is 0. Any other pair compares profiles.
    """
    beta = _level(beta)
    if beta.is_zero:
        raise ValueError("the characterization needs beta >= 1")
    holderA, holderB = _holder(A), _holder(B)
    if isinstance(A, GroupTree) and isinstance(B, GroupTree):
        equal, tau = A.socle_dims == B.socle_dims, ZERO
    else:
        P, Q = [G.profile if isinstance(G, ProfiledGroup) else invariants_of(G) for G in (A, B)]
        equal, tau = ulm_equal(P, Q), P.socle_finite_from
    if not equal:
        raise ValueError("the characterization needs equal invariants")
    return _tuple_clauses(holderA, abar, holderB, bbar, beta, tau)


def _holder(G):
    """What holds a carrier's elements: an explicit group's tree, or a
    profiled group's fragment."""
    if isinstance(G, GroupTree):
        return G
    if isinstance(G, ProfiledGroup):
        return G.fragment
    raise TypeError(f"expected a tree or profiled group, got {type(G)!r}")


def _limit_infinite(G) -> bool:
    """Whether G is profiled (a tree's length is finite), of limit length and limit-infinite."""
    return isinstance(G, ProfiledGroup) and G.profile.length.is_limit and G.profile.limit_infinite


def leq_paper(
    A: Union[GroupTree, ProfiledGroup],
    abar: Sequence[FragmentElement],
    B: Union[GroupTree, ProfiledGroup],
    bbar: Sequence[FragmentElement],
    beta: Ordinal,
) -> bool:
    """Modified relation for groups with limit-infinite invariant profiles.

    Clauses: (a) the entrywise correspondence extends to an isomorphism of
    generated subgroups; (b) Barker's entry-height clause with the band
    above w*delta infinite: heights match below w*delta, and odd levels
    allow the left height to exceed the right up to w*delta + w; (c)
    invariants agree below w*delta; (d) at odd levels the left invariants
    dominate on [w*delta, w*delta+w).
    """
    beta = _level(beta)
    if not (_limit_infinite(A) and _limit_infinite(B)):
        raise ValueError("the modified relation expects limit length and limit-infinite profiles")
    return _tuple_clauses(A.fragment, abar, B.fragment, bbar, beta, INFINITY) and (
        _profile_clauses(A.profile, B.profile, *parity_split(beta))
    )


def _profile_clauses(P: Profile, Q: Profile, delta: Ordinal, parity: int) -> bool:
    """leq_paper's clauses (c) and (d), memoized on P per Q, held weakly
    (profiles are immutable): P = Q below w*delta, and at odd levels
    P >= Q on [w*delta, w*delta + w)."""
    memo = P.relation_memo.get(Q)
    if memo is None:
        memo = P.relation_memo[Q] = {}
    hit = memo.get((delta, parity))
    if hit is None:
        thr = omega_times(delta)
        hit = memo[delta, parity] = profiles_agree_on(P, Q, nat(0), thr, "eq") and (
            parity == 0 or profiles_agree_on(P, Q, thr, thr + OMEGA, "ge")
        )
    return hit


# -- constructive extension ------------------------------------


def relation(
    A: Union[GroupTree, ProfiledGroup],
    abar: Sequence[FragmentElement],
    B: Union[GroupTree, ProfiledGroup],
    bbar: Sequence[FragmentElement],
    beta: Ordinal,
) -> bool:
    """(A, abar) <=_beta (B, bbar) by whichever closed form applies.

    Each carrier is a profiled group or an explicit group passed as its
    GroupTree, whose invariants are its profile and whose correspondence
    clause counts orders. Limit-infinite profiles on both sides use the
    modified relation; other carriers fall back to the single-group
    characterization. Level 0 is quantifier-free type containment in
    either case. Each decides (a) and (b) in `_tuple_clauses` and builds a
    tree's profile only to compare it with a profiled carrier's. A profiled
    A keeps the verdict, never an error, in its ``hypothesis_memo``: per
    holder of B's elements (``_holder``), held weakly, keyed by B's profile
    when B is profiled, beta, abar and bbar's coefficients.
    """
    beta, abar, bbar = _level(beta), tuple(abar), tuple(bbar)
    if not isinstance(A, ProfiledGroup):
        return _relation(A, abar, B, bbar, beta)
    holder = _holder(B)
    # coefficients name B's own elements only; others raise in _relation
    coeffs = tuple([y.coeffs for y in bbar if y.fragment is B.fragment])
    if len(coeffs) < len(bbar):
        return _relation(A, abar, B, bbar, beta)
    key = (B.profile if isinstance(B, ProfiledGroup) else None, beta, abar, coeffs)
    hit = A.hypothesis_memo.get(holder, {}).get(key)
    if hit is None:
        hit = _relation(A, abar, B, bbar, beta)
        A.hypothesis_memo.setdefault(holder, {})[key] = hit
    return hit


def _relation(A, abar, B, bbar, beta) -> bool:
    """``relation`` decided afresh, reading and writing no memo."""
    beta = _level(beta)
    if beta.is_zero:
        return _tuple_clauses(_holder(A), abar, _holder(B), bbar, beta, INFINITY)
    if _limit_infinite(A) and _limit_infinite(B):
        return leq_paper(A, abar, B, bbar, beta)
    return leq_barker(A, abar, B, bbar, beta)


@dataclass(frozen=True)
class CreationRecord:
    adjoined: FragmentElement  # the proper representative on the B side
    pimage: FragmentElement  # z = f(p * adjoined), in the A fragment at creation time
    created: FragmentElement  # c on the A side
    height: Ordinal
    context: tuple[FragmentElement, ...]  # right-tuple generators present before c


@dataclass(frozen=True)
class ExtendResult:
    """An extension's answer. A is the left carrier: a profiled group grown
    by the created elements, or the explicit group's tree as given."""

    A: Union[GroupTree, ProfiledGroup]
    left: tuple[FragmentElement, ...]  # bbar followed by dbar
    right: tuple[FragmentElement, ...]  # matching images in A
    records: tuple[CreationRecord, ...]


def extend_tuple(
    A: Union[GroupTree, ProfiledGroup],
    abar: Sequence[FragmentElement],
    B: Union[GroupTree, ProfiledGroup],
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
    `_answer_heights` picks from the eta clauses. When A is a profiled group
    c is created in its fragment (fresh directions are automatically
    proper); when A is an explicit group, passed as its GroupTree, c is
    found by search over the tree's elements. Raises ExtensionError when
    the height bookkeeping cannot be satisfied.

    The correspondence f from the B side's span to cur_a's is one tower of
    pairs, B's coefficients then A's, keyed by the B part: built once from
    the given tuples, it gains one tower step per adjoined pair (d', c), and
    only the new cosets are checked for well-definedness and injectivity. A
    creation appends a generator to A's fragment, so each A part gains a
    zero coordinate: a normal form in a prefix fragment stays normal in its
    extension. The hypothesis goes through ``relation`` and its memo.
    """
    beta, eta = _level(beta), _level(eta)
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
    cur_a: list[FragmentElement] = list(abar)
    grown = A
    fb = B.fragment
    cut = fb.rank
    pairs = [fb.zero().coeffs + A.fragment.zero().coeffs]
    pair_of = {pairs[0][:cut]: pairs[0]}  # the keys are f's domain
    key = operator.itemgetter(slice(cut))

    def grow(y: FragmentElement, x: FragmentElement) -> None:
        """Add the pair (y, x) to the tower."""
        fa, start = grown.fragment, len(pairs)
        g = fb.coords(y) + fa.coords(x)
        ok = _tower_step(pairs, pair_of, g, _coeff_adder((fb, fa)), key)
        # well defined; injective iff no new pair has a zero A part
        if not (ok and all(any(z[cut:]) for z in pairs[start:])):
            raise AssertionError("extension broke the tuple correspondence")

    def image(y: FragmentElement) -> FragmentElement:
        return FragmentElement(grown.fragment, pair_of[y.coeffs][cut:])

    for y, x in zip(bbar, abar):
        grow(y, x)
    delta, parity = parity_split(eta)
    thr = omega_times(delta)
    records: list[CreationRecord] = []
    add_b = _coeff_adder((fb,))

    def adjoin(e: FragmentElement, below: int) -> None:
        nonlocal grown
        # d' = e + s for the s in f's domain of highest h(e + s), the first
        # in coefficient order on ties: proper, its height maximal in its coset
        best_h = None
        for s in sorted(pair_of):
            v = add_b(e.coeffs, s)
            h = fb._height_of_vec(v)
            if best_h is None or h > best_h:
                best, best_h = v, h
        d_prime = FragmentElement(fb, best)
        z = image(d_prime.times_p())
        c = None
        gamma_c = None
        refusals: list[str] = []
        for gamma in _answer_heights(best_h, z.height(), thr, parity, below):
            if isinstance(grown, ProfiledGroup):
                try:
                    next_grown, c = grown.create_element(z, gamma)
                except ValueError as exc:
                    refusals.append(str(exc))
                    continue
                grown = next_grown
                cur_a[:] = [grown.fragment.migrate(x) for x in cur_a]
                pairs[:] = [w + (0,) for w in pairs]
                pair_of.update(zip(map(key, pairs), pairs))
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
        cur_a.append(c)
        grow(d_prime, c)

    for d in demands:
        stack = []
        x = d
        while x.coeffs not in pair_of:
            stack.append(x)
            x = x.times_p()
        # stack[k] has k links of its chain still to come below it
        for below in range(len(stack) - 1, -1, -1):
            e = stack[below]
            if e.coeffs not in pair_of:  # an earlier adjoin may already cover it
                adjoin(e, below)

    right = tuple(cur_a[: len(abar)]) + tuple(image(d) for d in demands)
    left = bbar[: len(abar)] + demands
    return ExtendResult(grown, left, right, tuple(records))


def _answer_heights(
    hd: Ordinal, hz: HeightValue, thr: Ordinal, parity: int, below: int
) -> Iterator[Ordinal]:
    """Admissible h(c) values for an answer with p*c = z, best first, for
    a demand of height hd at the level with threshold thr and parity, with
    `below` links of the demand's p-power chain still to answer under it;
    lazily, as the first one usually succeeds.

    Below the threshold both parities demand exact height equality, so
    h(z) must leave room and there is a single candidate. At or above
    it, even levels accept any answer at or above the threshold
    (target: the demand's own height), while odd levels additionally
    cap the answer at thr + w. When h(z) blocks the target, back off
    to the largest height z admits. When z's height is a limit it admits
    no largest, and the answer goes to thr + below, which leaves each
    link still to come a height one lower, down to the threshold. Lower
    candidates down to the threshold stay admissible, which matters when
    the receiving profile has no room at the target itself.
    """
    if hd < thr:
        if not hz >= hd + 1:
            raise ExtensionError(
                f"height incoherence: a demand of height {hd} below the "
                f"threshold {thr} needs its p-image at height >= "
                f"{hd + 1}, got {hz}"
            )
        yield hd
        return
    want = hd if parity == 0 else height_min(hd, thr + OMEGA)
    if hz >= want + 1:
        top = want
    elif isinstance(hz, Ordinal) and hz.is_successor:
        top = min(want, hz.pred())
    elif isinstance(hz, Ordinal) and hz.is_limit:
        top = thr + below
    else:
        raise ExtensionError(f"cannot answer below p-image height {hz}")
    if not (thr <= top and hz >= top + 1):
        raise ExtensionError(
            f"height incoherence: no admissible answer height in "
            f"[{thr}, {want}] fits under the p-image height {hz}"
        )
    g = top
    yield g
    while g != thr:
        if g.is_successor and not g.pred() < thr:
            g = g.pred()
        else:
            g = thr  # below a limit, resume at the threshold itself
        yield g


def _find_explicit_image(
    tree: GroupTree,
    cur_a: Sequence[FragmentElement],
    z: FragmentElement,
    gamma: Ordinal,
) -> Optional[FragmentElement]:
    sub_a = tree.fragment.subgroup(cur_a)
    for c in tree.elements():  # in coefficient lex order
        if c in sub_a:
            continue
        if c.times_p() != z or c.height() != gamma:
            continue
        if all(c.height() >= (c + s).height() for s in sub_a):
            return c
    return None


def check_extension(
    B: Union[GroupTree, ProfiledGroup],
    eta: Ordinal,
    result: ExtendResult,
) -> list[str]:
    """Machine-check an ExtendResult: creation equations, heights,
    properness, and the concluded relation at eta. Returns human-readable
    defect descriptions, empty when everything holds."""
    problems: list[str] = []
    frag = result.A.fragment
    add = _coeff_adder((frag,))
    zero = frag.zero().coeffs
    # each record's prefix subgroup is built from the records alone,
    # independent of extend_tuple's tower: as one more tower step on the
    # previous record's subgroup when its context is the previous context
    # plus the previous created element, afresh otherwise
    nested, sub, seen = None, [], {}
    for rec in result.records:
        c = frag.migrate(rec.created)
        z = frag.migrate(rec.pimage)
        if c.times_p() != z:
            problems.append(f"p*{c} != {z}")
        hc = c.height()
        if hc != rec.height:
            problems.append(f"h({c}) = {hc}, recorded {rec.height}")
        prefix = [frag.migrate(x).coeffs for x in rec.context]
        if prefix == nested:
            steps = prefix[-1:]
        else:
            steps, sub, seen = prefix, [zero], {zero: zero}
        for g in steps:
            _tower_step(sub, seen, g, add, lambda x: x)
        nested = prefix + [c.coeffs]
        if c.coeffs in seen:
            problems.append(f"{c} fell into the prefix subgroup")
        elif not all(hc >= frag._height_of_vec(add(c.coeffs, s)) for s in sub):
            problems.append(f"{c} is not proper over its prefix subgroup")
    try:
        migrated_right = tuple(frag.migrate(x) for x in result.right)
        if not _relation(B, result.left, result.A, migrated_right, eta):
            problems.append("concluded relation fails at eta")
    except (ValueError, BoundExceeded) as exc:
        problems.append(f"relation check errored: {exc}")
    return problems
