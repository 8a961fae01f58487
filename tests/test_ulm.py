from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import ulmkit

from ulmkit.baf import _entry_heights_ok
from ulmkit.ordinal import (
    INFINITY,
    OMEGA,
    ZERO,
    Ordinal,
    height_min,
    nat,
    omega_power,
    omega_times,
    parse_ordinal,
)
from ulmkit.pgroup import GroupTree
from ulmkit.ulm import (
    OMEGA_VALUE,
    Clause,
    Profile,
    invariants_of,
    make_G_hat,
    profiles_agree_on,
    ulm_equal,
)
from ulmkit.ordinal import CofinalSequence, canonical_cofinal
from ulmkit.verify import corpus_trees, holds_B


def tree(p, parent):
    return GroupTree(p, parent)


MIXED = {"r": None, "a": "r", "b": "a", "c": "r"}  # Z_4 + Z_2 at p=2


class TestProfileBasics:
    def test_totality_enforced(self):
        with pytest.raises(ValueError):
            Profile(nat(4), (Clause(0, 2, "any", 1),))
        with pytest.raises(ValueError):
            # odd slots uncovered
            Profile(nat(4), (Clause(0, 4, "even", 1),))

    def test_first_match_wins(self):
        P = Profile(
            nat(10),
            (Clause(0, 3, "any", 5), Clause(0, 10, "any", 1)),
        )
        assert P.value_at(nat(2)) == 5
        assert P.value_at(nat(3)) == 1
        assert P.value_at(nat(99)) == 0

    def test_parity_filters(self):
        P = Profile(
            OMEGA + 4,
            (
                Clause(nat(0), OMEGA + 4, "even", OMEGA_VALUE),
                Clause(nat(0), OMEGA + 4, "odd", 2),
            ),
        )
        assert P.value_at(OMEGA + 2) is OMEGA_VALUE
        assert P.value_at(OMEGA + 3) == 2
        assert P.value_at(OMEGA) is OMEGA_VALUE  # limits are even

    def test_limit_infinite(self):
        good = Profile(
            omega_power(1, 2),
            (Clause(nat(0), omega_power(1, 2), "any", OMEGA_VALUE),),
        )
        assert good.limit_infinite
        bad = Profile(
            omega_power(1, 2),
            (
                Clause(nat(0), OMEGA, "any", OMEGA_VALUE),
                Clause(OMEGA, omega_power(1, 2), "any", 3),
            ),
        )
        assert not bad.limit_infinite
        finite = Profile(nat(3), (Clause(0, 3, "any", 1),))
        assert finite.limit_infinite  # vacuous: no limits below 3


class TestComparisons:
    def test_ulm_equal_ignores_clause_shape(self):
        P = Profile(nat(4), (Clause(0, 4, "any", 2),))
        Q = Profile(
            nat(4),
            (
                Clause(0, 2, "any", 2),
                Clause(2, 4, "even", 2),
                Clause(2, 4, "odd", 2),
            ),
        )
        assert ulm_equal(P, Q)

    def test_ulm_equal_zero_tail(self):
        P = Profile(nat(5), (Clause(0, 4, "any", 1), Clause(4, 5, "any", 0)))
        Q = Profile(nat(4), (Clause(0, 4, "any", 1),))
        assert ulm_equal(P, Q)

    def test_ulm_unequal_on_parity(self):
        P = Profile(OMEGA, (Clause(nat(0), OMEGA, "any", OMEGA_VALUE),))
        Q = Profile(
            OMEGA,
            (
                Clause(nat(0), OMEGA, "even", OMEGA_VALUE),
                Clause(nat(0), OMEGA, "odd", 0),
            ),
        )
        assert not ulm_equal(P, Q)

    def test_agree_on_interval(self):
        P = Profile(OMEGA, (Clause(nat(0), OMEGA, "any", OMEGA_VALUE),))
        Q = Profile(
            OMEGA,
            (
                Clause(nat(0), nat(5), "any", OMEGA_VALUE),
                Clause(nat(5), OMEGA, "any", 1),
            ),
        )
        assert profiles_agree_on(P, Q, nat(0), nat(5), "eq")
        assert not profiles_agree_on(P, Q, nat(0), nat(6), "eq")
        assert profiles_agree_on(P, Q, nat(5), OMEGA, "ge")
        assert not profiles_agree_on(Q, P, nat(5), OMEGA, "ge")
        assert profiles_agree_on(P, Q, nat(7), nat(7), "eq")  # empty

    @pytest.mark.parametrize("lo, hi", [(1, 1), (3, 1), (0, 2)])
    def test_bad_mode_refused_on_any_interval(self, lo, hi):
        # an empty interval is no excuse for an unknown mode
        P = Profile(OMEGA, (Clause(nat(0), OMEGA, "any", OMEGA_VALUE),))
        with pytest.raises(ValueError, match="bad mode 'bogus'"):
            profiles_agree_on(P, P, nat(lo), nat(hi), "bogus")


class TestSocleMass:
    """socle_finite_from is tau: P_theta is infinite exactly for theta < tau."""

    def test_finite_mass(self):
        # tau only tells finite from infinite: the finite mass values (12
        # above 0, 4 above 4) are no longer computed anywhere
        P = Profile(nat(6), (Clause(0, 6, "any", 2),))
        assert P.socle_finite_from == ZERO

    def test_infinite_by_band(self):
        P = Profile(OMEGA, (Clause(nat(0), OMEGA, "any", 1),))
        assert P.socle_finite_from == OMEGA

    def test_infinite_by_value(self):
        P = Profile(
            nat(2),
            (Clause(0, 1, "any", OMEGA_VALUE), Clause(1, 2, "any", 0)),
        )
        assert P.socle_finite_from == nat(1)

    def test_socle_finite_from(self):
        # infinite at every finite offset
        allinf = Profile(OMEGA, (Clause(nat(0), OMEGA, "any", OMEGA_VALUE),))
        assert allinf.socle_finite_from == OMEGA
        # infinite only below 4
        P = Profile(
            OMEGA,
            (
                Clause(nat(0), nat(4), "any", OMEGA_VALUE),
                Clause(nat(4), OMEGA, "any", 0),
            ),
        )
        assert P.socle_finite_from == nat(4)
        # an omega value at one parity ends one past that parity's last slot
        top = OMEGA + 5
        for parity, tau in (("even", OMEGA + 5), ("odd", OMEGA + 4)):
            one = Profile(
                top, (Clause(nat(0), top, parity, OMEGA_VALUE), Clause(nat(0), top, "any", 0))
            )
            assert one.socle_finite_from == tau
        # finite everywhere
        fin = Profile(nat(5), (Clause(0, 5, "any", 3),))
        assert fin.socle_finite_from == ZERO
        # odd-slot zeros keep the even mass infinite cofinally
        half = Profile(
            omega_power(1, 2),
            (
                Clause(nat(0), omega_power(1, 2), "even", OMEGA_VALUE),
                Clause(nat(0), omega_power(1, 2), "odd", 0),
            ),
        )
        assert half.socle_finite_from == omega_power(1, 2)

    def test_socle_finite_from_matches_a_scan_on_the_corpus(self):
        profiles = [invariants_of(t) for t in corpus_trees(4, (2, 3))]
        for text in ("w*2", "w*3", "w^2"):
            alpha = parse_ordinal(text)
            profiles += [make_G_hat(alpha, canonical_cofinal(alpha), i) for i in range(4)]
        for k in range(1, 6):  # infinite below w+k, then three finite slots
            top = OMEGA + k
            profiles.append(
                Profile(top + 3, (Clause(nat(0), top, "any", OMEGA_VALUE), Clause(top, top + 3, "any", 1)))
            )
        probes = [nat(n) for n in range(6)]
        probes += [parse_ordinal(x) for x in ("w", "w+1", "w+4", "w*2", "w*2+3")]
        for P in profiles:
            assert_tau_matches_scan(P, probes)

    @given(
        st.lists(st.sampled_from([0, 1, 2, OMEGA_VALUE]), min_size=1, max_size=12),
    )
    def test_socle_finite_from_matches_a_scan_on_finite_profiles(self, values):
        P = Profile(
            nat(len(values)),
            tuple(Clause(n, n + 1, "any", v) for n, v in enumerate(values)),
        )
        assert_tau_matches_scan(P, [nat(n) for n in range(14)])


def assert_tau_matches_scan(P: Profile, probes) -> None:
    """(beta < tau) == (the scanned mass above beta is omega) at every probe,
    at tau and at tau's predecessor."""
    tau = P.socle_finite_from
    extra = [tau] + ([tau.pred()] if tau.is_successor else [])
    for beta in list(probes) + extra:
        assert (beta < tau) == (scan_mass(P, beta) is OMEGA_VALUE), (P, beta)


def scan_band_split(P: Profile, thr: Ordinal):
    """The split index clause (b) once read: None when P_{thr+k} is infinite
    for every finite k, else the largest k with P_{thr+k} infinite, or -1
    when P_thr is finite; by scanning every offset up to the last boundary."""
    offsets = [0] + [
        pt.finite_part - thr.finite_part
        for pt in P.boundaries()
        if thr <= pt < thr + OMEGA and pt.limit_part == thr.limit_part
    ]
    ceiling = max(offsets) + 1
    if scan_mass(P, thr + ceiling) is OMEGA_VALUE:
        return None
    infinite = [j for j in range(ceiling + 1) if scan_mass(P, thr + j) is OMEGA_VALUE]
    return infinite[-1] if infinite else -1


def split_index_rule(ha, hb, parity: int, thr: Ordinal, split) -> bool:
    """Clause (b) for one entry pair as it read on scan_band_split's index."""
    if ha == hb and ha < thr:
        return True
    if parity == 0:
        return ha >= thr and hb >= thr
    if split is None:
        return hb >= thr and ha >= height_min(hb, thr + OMEGA)
    if split >= 0:
        edge = thr + split
        if thr <= hb and hb <= ha and ha <= edge:
            return True
        return ha == hb and ha > edge
    return ha == hb


class TestTreeInvariants:
    def test_mixed_group(self):
        P = invariants_of(tree(2, MIXED))
        assert P.length == nat(2)
        assert P.value_at(nat(0)) == 1  # one Z_2 summand
        assert P.value_at(nat(1)) == 1  # one Z_4 summand
        assert P.value_at(nat(2)) == 0

    def test_chain_and_star(self):
        chain3 = tree(2, {"r": None, "a": "r", "b": "a", "c": "b"})
        P = invariants_of(chain3)
        assert [P.value_at(nat(n)) for n in range(4)] == [0, 0, 1, 0]
        star = tree(3, {"r": None, "x": "r", "y": "r"})
        Q = invariants_of(star)
        assert Q.value_at(nat(0)) == 2

    def test_large_trees_answer_from_node_ranks(self):
        # far above the enumeration bound (2^16 and 2^20 elements)
        parent = {"r": None}
        prev = "r"
        for i in range(16):
            parent[f"c{i}"] = prev
            prev = f"c{i}"
        P = invariants_of(tree(2, parent))  # Z_{2^16}
        assert [P.value_at(nat(n)) for n in range(17)] == [0] * 15 + [1, 0]
        # a chain of 10 with 10 leaves under its end: Z_{2^11} + (Z_2)^9
        broom = {"r": None, "c1": "r"}
        broom.update({f"c{i}": f"c{i - 1}" for i in range(2, 11)})
        broom.update({f"l{i}": "c10" for i in range(10)})
        Q = invariants_of(tree(2, broom))
        assert Q.length == nat(11)
        assert [Q.value_at(nat(n)) for n in range(12)] == [9] + [0] * 9 + [1, 0]

    def test_iso_detection_via_profiles(self):
        a = tree(2, {"r": None, "a": "r", "b": "a"})  # Z_4
        b = tree(2, {"r": None, "x": "r", "y": "r"})  # Z_2 x Z_2
        assert not ulm_equal(invariants_of(a), invariants_of(b))
        c = tree(2, {"r": None, "n": "r", "m": "n"})
        assert ulm_equal(invariants_of(a), invariants_of(c))


class TestHoldsB:
    SHAPES = [
        {"r": None, "a": "r"},
        MIXED,
        {"r": None, "a": "r", "b": "a", "c": "b"},
        {"r": None, "a": "r", "b": "r", "c": "a", "d": "a"},
        {"r": None, "a": "r", "b": "a", "c": "b", "d": "r", "e": "d"},
    ]

    @pytest.mark.parametrize("p", [2, 3])
    def test_bridge_to_invariants(self, p):
        for shape in self.SHAPES:
            t = tree(p, shape)
            P = invariants_of(t)
            for beta in range(t.length() + 2):
                u = P.value_at(nat(beta))
                for n in range(5):
                    expect = u is OMEGA_VALUE or (isinstance(u, int) and u >= n)
                    assert holds_B(t, n, beta) == expect, (p, shape, n, beta)


# -- the profile index against a clause scan -------------------------------

POINTS = [nat(n) for n in range(6)] + [
    parse_ordinal(x) for x in ("w", "w+1", "w+2", "w+3", "w*2", "w*2+1", "w^2")
]
VALUES = [0, 1, 2, OMEGA_VALUE]
PROBES = sorted(
    set(POINTS + [x + k for x in POINTS for k in (1, 2, 5)])
    | {parse_ordinal(x) for x in ("w^2+w", "w^2+w+1", "w^3")}
)
# clause (b)'s thresholds are w*delta; the rule holds at any ordinal
THRESHOLDS = [omega_times(d) for d in (ZERO, nat(1), nat(2), OMEGA)] + [nat(3), OMEGA + 2]
OMEGA_CUBED = parse_ordinal("w^3")


def scan_value(P: Profile, beta: Ordinal):
    """value_at by scanning the clauses, first match wins."""
    if not beta < P.length:
        return 0
    for cl in P.clauses:
        if cl.lo <= beta < cl.hi and cl.parity in (
            "any", ("even", "odd")[beta.finite_part % 2]
        ):
            return cl.value
    return None  # not total


def scan_segments(profiles, lo, hi):
    pts = {lo, hi}
    for P in profiles:
        pts |= {x for cl in P.clauses for x in (cl.lo, cl.hi)} | {P.length}
    pts = sorted(x for x in pts if lo <= x <= hi)
    for a, b in zip(pts, pts[1:]):
        yield a, b, [a] + ([a + 1] if a + 1 < b else [])


def scan_total(P: Profile) -> bool:
    return all(
        scan_value(P, rep) is not None
        for _, _, reps in scan_segments([P], nat(0), P.length)
        for rep in reps
    )


def scan_limit_infinite(P: Profile) -> bool:
    # a segment holds a limit iff it starts at one or reaches the next one
    for a, b, _ in scan_segments([P], nat(0), P.length):
        rep = a if a.is_limit else a.limit_part + OMEGA
        if rep < b and scan_value(P, rep) is not OMEGA_VALUE:
            return False
    return True


def scan_mass(P: Profile, theta: Ordinal):
    total = 0
    for a, b, reps in scan_segments([P], theta, P.length):
        for rep in reps:
            v = scan_value(P, rep)
            count = OMEGA_VALUE if b.limit_part > a.limit_part else len(
                range(rep.finite_part, b.finite_part, 2)
            )
            if v == 0 or count == 0:
                continue
            if OMEGA_VALUE in (v, count):
                return OMEGA_VALUE
            total += v * count
    return total


def scan_agree(P: Profile, Q: Profile, lo, hi, mode) -> bool:
    for _, _, reps in scan_segments([P, Q], lo, hi):
        for rep in reps:
            vp, vq = scan_value(P, rep), scan_value(Q, rep)
            if not (vp == vq if mode == "eq" else vp is OMEGA_VALUE or (
                vq is not OMEGA_VALUE and vp >= vq
            )):
                return False
    return True


@st.composite
def clauses(draw):
    lo, hi = sorted(draw(st.lists(st.sampled_from(POINTS), min_size=2, max_size=2, unique=True)))
    parity = draw(st.sampled_from(["any", "even", "odd"]))
    return Clause(lo, hi, parity, draw(st.sampled_from(VALUES)))


@st.composite
def raw_profiles(draw, total: bool):
    """(length, clauses) with overlapping, parity and omega clauses; with
    `total`, a final catch-all clause makes the profile total."""
    length = draw(st.sampled_from(POINTS))
    clauses_ = draw(st.lists(clauses(), max_size=5))
    if total:
        hi = draw(st.sampled_from([x for x in POINTS if x >= length and x.terms]))
        clauses_.append(Clause(nat(0), hi, "any", draw(st.sampled_from(VALUES))))
    return length, tuple(clauses_)


class TestProfileIndex:
    @given(raw_profiles(total=False))
    def test_a_profile_is_built_iff_the_scan_finds_it_total(self, raw):
        length, clauses = raw
        if scan_total(SimpleNamespace(length=length, clauses=clauses)):
            P = Profile(length, clauses)
            assert P == Profile(length, clauses) and hash(P) == hash(Profile(length, clauses))
            assert repr(P) == f"Profile(length={length!r}, clauses={clauses!r})"
        else:
            with pytest.raises(ValueError, match="profile not total"):
                Profile(length, clauses)

    @given(raw_profiles(total=True))
    def test_point_queries_match_the_scan(self, raw):
        P = Profile(*raw)
        for beta in PROBES + list(P.boundaries()):
            assert P.value_at(beta) == scan_value(P, beta), beta
        assert P.limit_infinite == scan_limit_infinite(P)
        assert_tau_matches_scan(P, PROBES + list(P.boundaries()))

    @given(raw_profiles(total=True), raw_profiles(total=True), st.sampled_from(PROBES), st.sampled_from(PROBES))
    def test_comparisons_match_the_scan(self, raw_p, raw_q, lo, hi):
        P, Q = Profile(*raw_p), Profile(*raw_q)
        for mode in ("eq", "ge"):
            assert profiles_agree_on(P, Q, lo, hi, mode) == scan_agree(P, Q, lo, hi, mode)
        top = max(P.length, Q.length)
        assert ulm_equal(P, Q) == scan_agree(P, Q, nat(0), top, "eq")

    @given(raw_profiles(total=True), clauses(), st.sampled_from(PROBES), st.sampled_from(PROBES))
    def test_comparisons_see_a_change_inside_a_segment(self, raw, extra, lo, hi):
        # one clause put first changes P on a stretch inside its segments
        P, Q = Profile(*raw), Profile(raw[0], (extra,) + raw[1])
        for A, B in ((P, Q), (Q, P)):
            for mode in ("eq", "ge"):
                assert profiles_agree_on(A, B, lo, hi, mode) == scan_agree(A, B, lo, hi, mode)
            assert ulm_equal(A, B) == scan_agree(A, B, nat(0), A.length, "eq")

    @settings(max_examples=300, deadline=None)
    @given(raw_profiles(total=True), st.data())
    def test_tau_rule_matches_the_split_index_rule(self, raw, data):
        P = Profile(*raw)
        tau = P.socle_finite_from
        # the rules turn at the threshold and at tau: draw thresholds just
        # below tau as often as the others, and try every pair of heights
        # next to both, INFINITY and a far one
        thr = data.draw(st.sampled_from(THRESHOLDS) | st.just(tau.limit_part))
        heights = [ZERO, thr, thr + 1, thr + 2, tau, tau + 1, thr + OMEGA, OMEGA_CUBED, INFINITY]
        heights += [tau.pred()] if tau.is_successor else []
        split = scan_band_split(P, thr)
        # leq_paper's band is infinite: tau INFINITY, split None
        for t, s in ((tau, split), (INFINITY, None)):
            for parity in (0, 1):
                for ha in heights:
                    for hb in heights:
                        got = _entry_heights_ok(ha, hb, parity, thr, thr + OMEGA, t)
                        assert got == split_index_rule(ha, hb, parity, thr, s), (ha, hb, parity, t)


class TestConstructors:
    def seq(self):
        return CofinalSequence(
            omega_power(1, 2), lambda i: OMEGA + i, label="w+i"
        )

    def test_G_hat_zero(self):
        P = make_G_hat(omega_power(1, 2), self.seq(), 0)
        assert P.value_at(OMEGA + 7) is OMEGA_VALUE
        assert P.limit_infinite

    def test_G_hat_positive(self):
        P = make_G_hat(omega_power(1, 2), self.seq(), 3)
        assert P.value_at(OMEGA + 2) is OMEGA_VALUE  # below alpha_3 = w+3
        assert P.value_at(OMEGA + 4) is OMEGA_VALUE  # even slot
        assert P.value_at(OMEGA + 5) == 0  # odd slot beyond the cut
        assert P.limit_infinite

    def test_G_hats_differ(self):
        P1 = make_G_hat(omega_power(1, 2), self.seq(), 1)
        P2 = make_G_hat(omega_power(1, 2), self.seq(), 2)
        assert not ulm_equal(P1, P2)
        assert profiles_agree_on(P1, P2, nat(0), OMEGA + 1, "eq")


def test_reimported_package_is_freed():
    # The benchmark and long-lived callers re-import the package; a module
    # level typing alias (typing.Union[...]) would keep the first copy alive
    # through typing's cache. Run in a subprocess so the two copies never
    # mix in this process.
    script = textwrap.dedent(
        """
        import gc, sys, weakref
        import ulmkit
        first = weakref.ref(ulmkit.ulm.Clause)
        for name in [n for n in sys.modules if n.split(".")[0] == "ulmkit"]:
            del sys.modules[name]
        import ulmkit
        assert ulmkit.ulm.Clause is not first()
        gc.collect()
        sys.exit(0 if first() is None else 1)
        """
    )
    src = os.path.dirname(os.path.dirname(ulmkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, timeout=120)
    assert done.returncode == 0
