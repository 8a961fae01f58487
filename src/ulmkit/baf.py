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
and heights are screened first; then the pinned correspondence is listed
as one tower of coordinate pairs, built there from the screened pins'
encodings (``pgroup``'s pair tower adds coefficient tuples only), checked
for heights without decoding, and the socle images are kept in one echelon
with their sources, seeded by the socle of the pinned subgroup, so a choice
that contradicts a pin is refused where it is made rather than when the
pin's support is complete.

Route two (`leq_barker` for tuples in one group, `leq_paper` for groups
carrying limit-infinite invariant profiles): closed forms at the threshold
w*delta (beta = 2*delta or 2*delta+1). Both check, in `_tuple_clauses`, (a)
the generated-subgroup correspondence and (b) Barker's entrywise heights
against the threshold. On two trees (a) counts orders and lists no pairs:
|<abar>| = |<(abar, bbar)>| = |<bbar>| (`pgroup._generated_iso_exists`).
On carriers that are fragments a tuple taken to itself in an extension of
its fragment (a run letter against its successor, an extension's
hypothesis) is an inclusion restricted, which holds without listing
(`pgroup._is_inclusion`); any other pair lists the pair tower. So the game
and the closed form decide (a) by independent computations. Above the
threshold, (b) asks the left invariants one thing: tau, the height up to
which the socle stays infinite (`socle_finite_from`).
`leq_paper` is (b) with tau infinite, plus (c)/(d), invariant agreement
below and just above the threshold.

`extend_tuple` is the constructive content: given the hypothesis relation
at beta it extends the right-hand tuple to answer new elements at any
eta < beta, creating elements in growable fragments or finding them in
explicit ones, with machine-checkable records.
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
    _injective,
    _tower_step,
    echelon_add,
    echelon_reduce,
    subgroup_elements,
)
from .ulm import Profile, invariants_of, profiles_agree_on, ulm_equal


class ExtensionError(RuntimeError):
    """A tuple extension could not be carried out coherently."""


def _level(beta: Union[int, Ordinal]) -> Ordinal:
    """A level given as an int or an Ordinal, as an Ordinal."""
    return nat(beta) if isinstance(beta, int) else beta


# -- embedding search (the collapsed game) -----------------------------------


def find_embedding(
    src: GroupTree,
    src_pins: Sequence[FragmentElement],
    dst: GroupTree,
    dst_pins: Sequence[FragmentElement],
    onto: bool = False,
) -> Optional[dict[str, FragmentElement]]:
    """Injective homomorphism src -> dst with src_pins[i] -> dst_pins[i].

    Returns the node-image assignment or None. Such a map restricts to the
    isomorphism <src_pins> -> <dst_pins> and never lowers heights. Each pin
    pair is screened first: unequal orders or a lowered height refuse at
    once. Then the restriction is listed, as the pair tower of the pins on
    both trees' decomposition coordinates (at most DEFAULT_BOUND pairs);
    this route lists pairs, where the closed form counts orders, and
    heights are compared on it as least p-adic valuations, decoding
    nothing. The search then places nodes, parents first, in dst's
    coordinates: the candidates are the preimages of the parent's image
    under p (one solution plus socle elements) at the right height, and a
    node completing the support of a pinned-subgroup element gets the image
    that carries it. On the socle the map is linear and injective, and its
    graph contains the socle of the pin tower; so the (source | image)
    socle vector of each placement must raise the source, image and paired
    GF(p) ranks together, which fixes the image of every placement whose
    source is already spanned. Without pins this is independence of the
    socle images. Raises BoundExceeded when the pins generate more than
    DEFAULT_BOUND pairs (all 20 leaves of the (Z2)^20 star pinned on both
    sides, say, where ``leq_barker`` counts orders and answers) or a socle
    layer the candidates come from has more than DEFAULT_BOUND elements.
    The answer is memoized on dst (trees are immutable), so it dies with
    dst.
    """
    if src.p != dst.p or len(src_pins) != len(dst_pins):
        return None
    if src.size > dst.size or onto and src.size != dst.size:
        return None
    # the pin constraint is the set of (source, target) pairs; order and
    # 0 -> 0 entries do not change it. The sorted pairs, laid flat in one
    # tuple, key it in about a third of a frozenset of pairs' memory
    pairs = sorted({
        (x.coeffs, y.coeffs)
        for x, y in zip(src_pins, dst_pins)
        if not (x.is_zero and y.is_zero)
    })
    key = (src, onto, *[c for pair in pairs for c in pair])
    memo = dst.embed_memo
    if key not in memo:
        memo[key] = _find_embedding_uncached(src, src_pins, dst, dst_pins, onto)
    return memo[key]


def _find_embedding_uncached(src, src_pins, dst, dst_pins, onto):
    # an embedding maps (p^k src)[p] into (p^k dst)[p]; a longer ds fails
    # at dd's final 0, so zip compares enough
    ds, dd = src.socle_dims, dst.socle_dims
    if ds != dd if onto else any(a > b for a, b in zip(ds, dd)):
        return None
    # an embedding never lowers heights, and an injective map between
    # groups of equal size is bijective, so it keeps them
    exact = onto or src.size == dst.size
    sdec, dec = src.decomposition, dst.decomposition

    def keeps(zx, zy) -> bool:
        hx, hy = sdec.height_of(zx), dec.height_of(zy)
        return hy == hx if exact else hy >= hx

    # each pin pair must keep its order and heights, which refuses most
    # failing pins before any tower is listed
    pins = []
    for x, y in zip(src_pins, dst_pins):
        zx, zy = sdec.encode(x), dec.encode(y)
        if sdec.order_of(zx) != dec.order_of(zy) or not keeps(zx, zy):
            return None
        pins.append(zx + zy)

    # an embedding carrying the pins restricts to the isomorphism <src_pins>
    # -> <dst_pins>: the pair tower on both decompositions' coordinates,
    # source part first. Keys are unique, so only tower[0] is zero.
    both, cut = sdec.moduli + dec.moduli, len(sdec.zero)

    def add(z, w):
        return tuple([(a + b) % m for a, b, m in zip(z, w, both)])

    tower = subgroup_elements(
        sdec.zero + dec.zero, pins, add, operator.itemgetter(slice(cut))
    )
    if tower is None or not _injective(tower, cut):
        return None
    if not all(keeps(z[:cut], z[cut:]) for z in tower[1:]):
        return None

    # Shapes of subtrees are numbered, and contact with a pin support is
    # flagged, bottom-up, deepest first: v is touched when it or a node
    # below it lies in a pin's support.
    pinned_sup = {v for x in src_pins for v, _ in x.terms()}
    shape: dict[str, int] = {}
    shapes: dict[tuple, int] = {}
    touched: dict[str, bool] = {}
    for v in sorted(src.nodes, key=lambda u: -src.depth(u)):
        cs = src.children[v]
        shape[v] = shapes.setdefault(tuple(sorted(shape[c] for c in cs)), len(shapes))
        touched[v] = v in pinned_sup or any(touched[c] for c in cs)

    # The touched nodes come first, so every pin is forced (at the last
    # node of its support) before any untouched node is tried; then higher
    # ranks first, as they have the fewest candidates. Rank falls strictly
    # from parent to child and touched nodes' parents are touched, so
    # parents still come before children.
    order = sorted(
        src.nonroot,
        key=lambda v: (not touched[v], -src.rank(v), src.depth(v), v),
    )
    pos = {v: i for i, v in enumerate(order)}
    p, mods = dst.p, dec.moduli

    # The elements of <pins> on the first i nodes of `order` form a group
    # that grows at most p-fold per node, as the span of those nodes does.
    # So forcing f(v) to carry one element x with v last in its support
    # makes all of <pins> map right by the time its support is placed.
    forced: dict[str, tuple] = {}
    for z in tower:
        terms = sdec.decode(z[:cut]).terms()
        if terms:
            last = max((v for v, _ in terms), key=pos.__getitem__)
            forced.setdefault(last, (terms, z[cut:]))

    # symmetry break: sibling subtrees of identical shape that no pin
    # touches are interchangeable, so force their root images into
    # increasing order and search one representative per orbit. Such
    # siblings share their sort key up to the name, so the earlier one is
    # placed first.
    sym_pred: dict[str, str] = {}
    for parent_node in src.nodes:
        groups: dict[int, list[str]] = {}
        for c in src.children[parent_node]:
            if not touched[c]:
                groups.setdefault(shape[c], []).append(c)
        for orbit in groups.values():  # children come sorted
            for u, v in zip(orbit, orbit[1:]):
                sym_pred[v] = u

    # f is injective iff it is on the socle, where it is a linear map whose
    # graph contains the socle of <pins>: the pairs (src k | dst k) of tower
    # entries of order p, in GF(p) coordinates (k_j * p^(e_j - 1) is
    # coordinate j). The graph is spanned by that seed and one pair per
    # socle basis vector of src: v (parent the root) or v - w (w the first
    # placed sibling), of source coordinates sigma and image coordinates
    # k_v or k_v - k_w. A graph of an injective map has source, image and
    # paired spans of one dimension, so each placement must raise all
    # three or none. Rising is fixed by the sigmas alone; a placement that
    # does not rise has its image forced by the pairs placed so far. With
    # no pins every placement rises, and the rule is image independence.
    src_basis: list = []  # echelon rows, row[pivot] = 1
    paired: list = []  # echelon rows of (src k | dst k), pivots in src k
    basis: list = []  # echelon rows of the image socle span
    for z in tower[1:]:
        if all(c * p % m == 0 for c, m in zip(z, both)):
            vec = [c * p // m for c, m in zip(z, both)]
            if echelon_add(paired, vec, p):
                echelon_add(src_basis, vec[:cut], p)
                echelon_add(basis, vec[cut:], p)

    # The y with p*y = t = f(parent v) and h(y) >= r = rank(v) are y0 + s:
    # y0 = t/p coordinatewise, of height h(t) - 1 >= r, and s in the socle
    # at height >= r, exactly r in the exact case unless h(t) = r + 1.
    first_child: dict[str, str] = {}
    plan = []
    for v in order:
        u, r = src.parent[v], src.rank(v)
        w = first_child.setdefault(u, v)
        layer = dec.socle_layer(
            r, exact and (u == src.root or src.rank(u) > r + 1)
        )
        added = u if u == src.root else None if w == v else w
        sigma = None
        if added is not None and paired:
            sigma = sdec.socle_vector(v, None if added == src.root else w)
        # without pins every sigma rises: they are a basis of src's socle
        rises = added is not None and (
            sigma is None or echelon_add(src_basis, sigma, p)
        )
        plan.append(
            (v, u, layer, forced.get(v), added, sigma, rises, sym_pred.get(v))
        )

    assign: dict[str, tuple[int, ...]] = {src.root: dec.zero}
    socle_k: dict[str, tuple[int, ...]] = {src.root: dec.zero}

    def tries(i: int) -> Iterator[bool]:
        """Place node plan[i] at each candidate in turn, undoing on resume."""
        v, u, layer, pinned_here, added, sigma, rises, prev = plan[i]
        y0 = tuple(a // p for a in assign[u])
        cands: Iterable = layer.items()
        if pinned_here:
            # c * f(v) = f(x) - (image of the rest of x), and c is a unit
            # modulo the exponent of dst
            terms, acc = pinned_here
            for w, c in terms:
                if w == v:
                    inv = pow(c, -1, max(mods))
                else:
                    acc = [a - c * b for a, b in zip(acc, assign[w])]
            s = tuple((a * inv - b) % m for a, b, m in zip(acc, y0, mods))
            k = tuple(c * p // m for c, m in zip(s, mods))
            cands = ((k, s),) if layer.get(k) == s else ()
        if added is not None and not rises:
            # (sigma | kappa) lies in the paired span: reducing (sigma | 0)
            # leaves (0 | -kappa), and k_v = kappa + k_(added)
            rest = echelon_reduce(paired, sigma + (0,) * len(mods), p)
            k = tuple((b - a) % p for a, b in zip(rest[cut:], socle_k[added]))
            if pinned_here:
                cands = [c for c in cands if c[0] == k]
            else:
                cands = ((k, layer[k]),) if k in layer else ()
        for k, s in cands:
            if prev is not None and k <= socle_k[prev]:
                continue  # order within orbits (siblings share y0)
            if rises:
                vec = [(a - b) % p for a, b in zip(k, socle_k[added])]
                if not echelon_add(basis, vec, p):
                    continue
                if sigma is not None:
                    echelon_add(paired, [*sigma, *vec], p)
            assign[v] = tuple(map(operator.add, y0, s))
            socle_k[v] = k
            yield True
            if rises:
                basis.pop()
                if sigma is not None:
                    paired.pop()

    # depth-first over plan with an explicit stack, so deep trees do not
    # hit the recursion limit
    stack: list[Iterator[bool]] = []
    while len(stack) < len(plan):
        stack.append(tries(len(stack)))
        while not next(stack[-1], False):
            stack.pop()
            if not stack:
                return None
    return {v: dec.decode(z) for v, z in assign.items()}


# -- the standard relations on explicit groups -------------------------------


def leq_std_game(
    A: GroupTree,
    abar: Sequence[FragmentElement],
    B: GroupTree,
    bbar: Sequence[FragmentElement],
    beta: int,
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
        return find_embedding(B, bbar, A, abar, onto=False) is not None
    return find_embedding(A, abar, B, bbar, onto=True) is not None


# -- closed forms --------------------------------------------------------------


def _tuple_clauses(
    A, abar, B, bbar, beta: Ordinal, tau: HeightValue
) -> Optional[tuple[Ordinal, int]]:
    """Clauses (a) and (b) of both closed forms on carriers A, B (trees or
    fragments): bbar, cut to abar's length, corresponds to abar, and entry
    heights compare against the threshold w*delta of beta. At odd levels
    the left height may exceed the right below tau, where the socle is
    infinite: leq_barker's left `socle_finite_from`, INFINITY for
    leq_paper. Returns beta's split (delta, parity) when both hold, for
    leq_paper's (c)/(d), else None.
    """
    abar, bbar = tuple(abar), tuple(bbar)
    if len(abar) > len(bbar):
        return None
    bbar = bbar[: len(abar)]
    if not _generated_iso_exists(B, bbar, A, abar):
        return None
    if beta.is_zero:
        return ZERO, 0  # every height is at least the threshold 0
    delta, parity = parity_split(beta)
    thr = omega_times(delta)
    cap = thr + OMEGA
    for a, b in zip(abar, bbar):
        if not _entry_heights_ok(a.height(), b.height(), parity, thr, cap, tau):
            return None
    return delta, parity


def _entry_heights_ok(
    ha: HeightValue,
    hb: HeightValue,
    parity: int,
    thr: Ordinal,
    cap: Ordinal,
    tau: HeightValue,
) -> bool:
    """Clause (b) for one entry pair at threshold thr, with cap = thr + w
    and P_theta infinite exactly for theta < tau. Heights match below thr;
    even levels ask only that both reach it. At odd levels the left height
    may exceed the right while both stay below tau, and heights match from
    tau on; when tau >= cap the band is infinite and the left height need
    only reach min(right height, cap)."""
    if ha == hb and ha < thr:
        return True
    if parity == 0:
        return ha >= thr and hb >= thr
    if tau < cap:
        return thr <= hb <= ha < tau or ha == hb >= tau
    return hb >= thr and ha >= height_min(hb, cap)


def leq_barker(
    A: Union[GroupTree, ProfiledGroup],
    abar: Sequence,
    B: Union[GroupTree, ProfiledGroup],
    bbar: Sequence,
    beta: Ordinal,
) -> bool:
    """Height/subgroup characterization of <=_beta for tuples in one group.

    Also accepts two carriers with equal invariants (unequal ones raise
    ValueError); the socle-finiteness case split is read off the left
    profile. For explicit finite groups every case lands in the
    finite-socle branch: heights must match entrywise on top of the
    generated-subgroup correspondence.
    """
    beta = _level(beta)
    if beta < nat(1):
        raise ValueError("the characterization needs beta >= 1")
    holderA, profileA = _carrier(A)
    holderB, profileB = _carrier(B)
    trees = isinstance(A, GroupTree) and isinstance(B, GroupTree)
    if A.socle_dims != B.socle_dims if trees else not ulm_equal(profileA, profileB):
        raise ValueError("the characterization needs equal invariants")
    tau = profileA.socle_finite_from
    return _tuple_clauses(holderA, abar, holderB, bbar, beta, tau) is not None


def _carrier(G):
    if isinstance(G, GroupTree):
        return G, invariants_of(G)
    if isinstance(G, ProfiledGroup):
        return G.fragment, G.profile
    raise TypeError(f"expected a tree or profiled group, got {type(G)!r}")


def leq_paper(
    A: ProfiledGroup,
    abar: Sequence[FragmentElement],
    B: ProfiledGroup,
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
    for P in (A.profile, B.profile):
        if not (P.length.is_limit and P.limit_infinite):
            raise ValueError(
                "the modified relation expects limit length and "
                "limit-infinite profiles"
            )
    level = _tuple_clauses(A.fragment, abar, B.fragment, bbar, beta, INFINITY)
    return level is not None and _profile_clauses(A.profile, B.profile, *level)


def _profile_clauses(P: Profile, Q: Profile, delta: Ordinal, parity: int) -> bool:
    """leq_paper's clauses (c) and (d), memoized on P (profiles are
    immutable): P = Q below w*delta, and at odd levels P >= Q on
    [w*delta, w*delta + w)."""
    key = (Q, delta, parity)
    hit = P.relation_memo.get(key)
    if hit is None:
        thr = omega_times(delta)
        hit = P.relation_memo[key] = profiles_agree_on(P, Q, nat(0), thr, "eq") and (
            parity == 0 or profiles_agree_on(P, Q, thr, thr + OMEGA, "ge")
        )
    return hit


# -- constructive extension ------------------------------------


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
    beta = _level(beta)
    if beta.is_zero:
        level = _tuple_clauses(A.fragment, abar, B.fragment, bbar, beta, INFINITY)
        return level is not None
    if all(
        P.length.is_limit and P.limit_infinite for P in (A.profile, B.profile)
    ):
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
    `_answer_heights` picks from the eta clauses. In growable fragments c is
    created (fresh directions are automatically proper); in explicit ones it
    is found by search. Raises ExtensionError when the height bookkeeping
    cannot be satisfied.

    The correspondence f from the B side's span to cur_a's is one tower of
    pairs, B's coefficients then A's, keyed by the B part: built once from
    the given tuples, it gains one tower step per adjoined pair (d', c), and
    only the new cosets are checked for well-definedness and injectivity. A
    creation appends a generator to A's fragment, so each A part gains a
    zero coordinate: a normal form in a prefix fragment stays normal in its
    extension.
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

    def adjoin(e: FragmentElement) -> None:
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
        for gamma in _answer_heights(best_h, z.height(), thr, parity):
            if grown.growable:
                try:
                    next_grown, c = grown.create_element(z, gamma)
                except ValueError as exc:
                    refusals.append(str(exc))
                    continue
                grown = next_grown
                cur_a[:] = [grown.migrate(x) for x in cur_a]
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
        for e in reversed(stack):
            if e.coeffs not in pair_of:  # an earlier adjoin may already cover it
                adjoin(e)

    right = tuple(cur_a[: len(abar)]) + tuple(image(d) for d in demands)
    left = bbar[: len(abar)] + demands
    return ExtendResult(grown, left, right, tuple(records))


def _answer_heights(
    hd: Ordinal, hz: HeightValue, thr: Ordinal, parity: int
) -> Iterator[Ordinal]:
    """Admissible h(c) values for an answer with p*c = z, best first, for
    a demand of height hd at the level with threshold thr and parity;
    lazily, as the first one usually succeeds.

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
        yield hd
        return
    want = hd if parity == 0 else height_min(hd, thr + OMEGA)
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
    g = top
    yield g
    while g != thr:
        if g.is_successor and not g.pred() < thr:
            g = g.pred()
        else:
            g = thr  # below a limit, resume at the threshold itself
        yield g


def _find_explicit_image(
    pg: ProfiledGroup,
    cur_a: Sequence[FragmentElement],
    z: FragmentElement,
    gamma: Ordinal,
) -> Optional[FragmentElement]:
    sub_a = pg.fragment.subgroup(cur_a)
    for c in pg.fragment.elements():  # in coefficient lex order
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
    add = _coeff_adder((frag,))
    for rec in result.records:
        c = frag.migrate(rec.created)
        z = frag.migrate(rec.pimage)
        if c.times_p() != z:
            problems.append(f"p*{c} != {z}")
        hc = c.height()
        if hc != rec.height:
            problems.append(f"h({c}) = {hc}, recorded {rec.height}")
        # built afresh from the record, independent of extend_tuple's tower
        prefix = [frag.migrate(x).coeffs for x in rec.context]
        sub = subgroup_elements(frag.zero().coeffs, prefix, add)
        if c.coeffs in sub:
            problems.append(f"{c} fell into the prefix subgroup")
        elif not all(hc >= frag._height_of_vec(add(c.coeffs, s)) for s in sub):
            problems.append(f"{c} is not proper over its prefix subgroup")
    try:
        migrated_right = tuple(frag.migrate(x) for x in result.right)
        if not relation(B, result.left, result.A, migrated_right, eta):
            problems.append("concluded relation fails at eta")
    except (ValueError, BoundExceeded) as exc:
        problems.append(f"relation check errored: {exc}")
    return problems
