from __future__ import annotations

import re

import pytest
from hypothesis import given, strategies as st

from ulmkit.ordinal import (
    INFINITY,
    OMEGA,
    ZERO,
    CofinalSequence,
    Ordinal,
    canonical_cofinal,
    cofinal_from_text,
    double,
    hat_alpha,
    height_min,
    nat,
    omega_power,
    omega_times,
    parity_split,
    parse_ordinal,
    split_omega,
)

OMEGA_SQUARED = omega_power(2)


def ords(max_exp=3, max_coeff=4):
    """Strategy for CNF ordinals below w^(max_exp+1)."""
    pair = st.tuples(
        st.integers(0, max_exp), st.integers(1, max_coeff)
    )
    return st.lists(pair, max_size=4).map(
        lambda ps: Ordinal(
            tuple(
                sorted(
                    {e: c for e, c in ps}.items(),
                    key=lambda t: -t[0],
                )
            )
        )
    )


def lt_by_terms(a: Ordinal, b: Ordinal) -> bool:
    """Reference order: compare CNF terms one by one; a proper prefix is
    smaller (missing terms behave like (-inf, 0))."""
    for (e1, c1), (e2, c2) in zip(a.terms, b.terms):
        if e1 != e2:
            return e1 < e2
        if c1 != c2:
            return c1 < c2
    return len(a.terms) < len(b.terms)


class TestCNF:
    def test_rejects_nondecreasing_exponents(self):
        with pytest.raises(ValueError):
            Ordinal(((1, 1), (1, 2)))
        with pytest.raises(ValueError):
            Ordinal(((0, 1), (1, 1)))

    def test_rejects_zero_coefficient(self):
        with pytest.raises(ValueError):
            Ordinal(((2, 0),))

    def test_ordering_samples(self):
        chain = [
            ZERO,
            nat(1),
            nat(7),
            OMEGA,
            OMEGA + 1,
            OMEGA + 9,
            omega_power(1, 2),
            omega_power(1, 2) + 3,
            OMEGA_SQUARED,
            OMEGA_SQUARED + OMEGA,
            omega_power(3),
        ]
        for i, a in enumerate(chain):
            assert a == a
            for b in chain[i + 1 :]:
                assert a < b
                assert not b < a

    @given(ords(), ords())
    def test_order_matches_the_term_by_term_compare(self, a, b):
        lt, gt = lt_by_terms(a, b), lt_by_terms(b, a)
        assert (a < b) == lt
        assert (a <= b) == (not gt)
        assert (a > b) == gt
        assert (a >= b) == (not lt)
        assert (a == b) == (not lt and not gt)

    @given(ords(), ords())
    def test_addition_monotone_right(self, a, b):
        assert a + b >= a
        if not b.is_zero:
            assert a + b >= b

    @given(ords(), ords(), ords())
    def test_addition_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(ords(), st.one_of(ords(), st.integers(0, 100)))
    def test_sums_pass_validation(self, a, b):
        # __add__ skips the constructor's CNF check: its result must be
        # exactly what validation would accept
        total = a + b
        assert isinstance(total, Ordinal)
        assert Ordinal(total.terms) == total

    @given(ords(), st.integers(0, 130))
    def test_adding_an_int_equals_adding_its_nat(self, a, n):
        # n runs past the cached small naturals; the int path builds the
        # sum's terms itself, so they must pass the constructor
        total = a + n
        assert total == a + nat(n)
        assert Ordinal(total.terms) == total
        assert hash(total) == hash(a + nat(n))
        if n == 0:
            assert total is a

    @given(ords(), st.integers(-130, -1))
    def test_adding_a_negative_int_is_refused(self, a, n):
        with pytest.raises(ValueError, match="naturals only"):
            a + n

    @given(st.integers(0, 200))
    def test_nat_is_the_one_term_ordinal(self, n):
        assert nat(n) == (Ordinal(((0, n),)) if n else ZERO)
        assert nat(n).as_int() == n

    def test_nat_refuses_negatives(self):
        with pytest.raises(ValueError):
            nat(-1)

    def test_addition_absorbs(self):
        assert nat(5) + OMEGA == OMEGA
        assert OMEGA + nat(3) + OMEGA == omega_power(1, 2)
        assert (OMEGA + 3) + 5 == OMEGA + 8
        assert (OMEGA_SQUARED + OMEGA) + OMEGA == OMEGA_SQUARED + omega_power(1, 2)

    def test_limit_successor_classification(self):
        assert ZERO.is_finite and not ZERO.is_limit and not ZERO.is_successor
        assert nat(4).is_successor
        assert OMEGA.is_limit
        assert (OMEGA + 1).is_successor
        assert (OMEGA + 1).pred() == OMEGA
        assert (OMEGA_SQUARED + omega_power(1, 3)).is_limit


class TestText:
    CASES = ["0", "7", "w", "w+4", "w*2+3", "w^2", "w^3*2+w^2+w*5+1"]

    @pytest.mark.parametrize("text", CASES)
    def test_round_trip(self, text):
        assert str(parse_ordinal(text)) == text

    @given(ords())
    def test_emit_parse_identity(self, a):
        assert parse_ordinal(str(a)) == a

    def test_rejects_garbage(self):
        for bad in ["", "w+w", "3+w", "w^", "w*0", "x", "w^2+w^2"]:
            with pytest.raises(ValueError):
                parse_ordinal(bad)


class TestDecompositions:
    def test_split_omega(self):
        assert split_omega(nat(5)) == (ZERO, 5)
        assert split_omega(OMEGA) == (nat(1), 0)
        assert split_omega(OMEGA + 4) == (nat(1), 4)
        assert split_omega(omega_power(1, 3) + 2) == (nat(3), 2)
        assert split_omega(OMEGA_SQUARED) == (OMEGA, 0)

    @given(ords())
    def test_split_omega_reassembles(self, b):
        gamma, m = split_omega(b)
        assert omega_times(gamma) + nat(m) == b

    def test_parity_split_frozen(self):
        assert parity_split(nat(7)) == (nat(3), 1)
        assert parity_split(OMEGA + 4) == (OMEGA + 2, 0)
        assert parity_split(ZERO) == (ZERO, 0)
        assert parity_split(OMEGA) == (OMEGA, 0)
        assert parity_split(OMEGA_SQUARED + 1) == (OMEGA_SQUARED, 1)

    @staticmethod
    def general_parity_split(b):
        gamma, m = split_omega(b)
        return omega_times(gamma) + nat(m // 2), m % 2

    def test_parity_split_fast_path_on_finite_ordinals(self):
        for m in range(60):
            assert parity_split(nat(m)) == self.general_parity_split(nat(m))

    @given(ords(max_exp=2))
    def test_parity_split_below_omega_cubed(self, b):
        assert parity_split(b) == self.general_parity_split(b)

    @given(ords())
    def test_parity_double_inverse(self, b):
        delta, parity = parity_split(b)
        assert double(delta) + nat(parity) == b

    @given(ords())
    def test_double_even(self, d):
        assert parity_split(double(d)) == (d, 0)

    def test_omega_times(self):
        assert omega_times(ZERO) == ZERO
        assert omega_times(nat(3)) == omega_power(1, 3)
        assert omega_times(OMEGA + 2) == OMEGA_SQUARED + omega_power(1, 2)


class TestHat:
    def test_frozen_values(self):
        assert hat_alpha(OMEGA) == nat(3)
        for m in range(2, 11):
            assert hat_alpha(omega_power(1, m)) == nat(2 * m + 1)
        assert hat_alpha(OMEGA_SQUARED) == OMEGA

    def test_mixed(self):
        # w^2 + w*2 = w*(w+2): successor quotient
        assert hat_alpha(OMEGA_SQUARED + omega_power(1, 2)) == OMEGA + 5
        assert hat_alpha(omega_power(3)) == OMEGA_SQUARED

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            hat_alpha(nat(5))


class TestHeights:
    def test_infinity_is_top(self):
        assert INFINITY > omega_power(3, 9)
        assert not INFINITY < INFINITY
        assert INFINITY >= INFINITY
        assert INFINITY == INFINITY
        assert INFINITY + 1 is INFINITY
        assert nat(4) < INFINITY
        assert nat(4) <= INFINITY
        # Ordinal's own order refuses other types, so these reach INFINITY
        assert not nat(4) > INFINITY
        assert not omega_power(3, 9) >= INFINITY
        assert sorted([INFINITY, OMEGA, ZERO]) == [ZERO, OMEGA, INFINITY]

    def test_infinity_compares_with_heights_only(self):
        for x in (ZERO, nat(4), OMEGA, omega_power(3, 9), INFINITY):
            top = x is INFINITY
            got = (INFINITY < x, INFINITY <= x, INFINITY > x, INFINITY >= x)
            assert got == (False, top, not top, True)
        for op in ("__lt__", "__le__", "__gt__", "__ge__", "__add__"):
            assert getattr(INFINITY, op)("w") is NotImplemented
        with pytest.raises(TypeError):
            INFINITY < 3

    def test_height_min(self):
        assert height_min(INFINITY, OMEGA) == OMEGA
        assert height_min(nat(2), nat(5)) == nat(2)
        assert height_min(INFINITY, INFINITY) is INFINITY


class TestCofinal:
    def test_canonical_omega_multiple(self):
        seq = canonical_cofinal(omega_power(1, 2))
        assert [seq.at(i) for i in range(1, 4)] == [OMEGA + 1, OMEGA + 2, OMEGA + 3]

    def test_canonical_omega_squared(self):
        seq = canonical_cofinal(OMEGA_SQUARED)
        assert [seq.at(i) for i in range(1, 4)] == [OMEGA, omega_power(1, 2), omega_power(1, 3)]

    def test_canonical_deeper(self):
        seq = canonical_cofinal(omega_power(2, 2))
        assert seq.at(2) == OMEGA_SQUARED + omega_power(1, 2)

    def test_rules_from_text(self):
        seq = cofinal_from_text(omega_power(1, 2), "w+i")
        assert seq.at(4) == OMEGA + 4
        seq2 = cofinal_from_text(OMEGA_SQUARED, "w*i")
        assert seq2.at(4) == omega_power(1, 4)
        seq3 = cofinal_from_text(OMEGA_SQUARED, "auto")
        assert seq3.at(2) == omega_power(1, 2)

    def test_comma_list_continues_in_unit_steps(self):
        seq = cofinal_from_text(omega_power(1, 2), "w+1, w+3")
        assert [seq.at(i) for i in range(1, 5)] == [OMEGA + 1, OMEGA + 3, OMEGA + 4, OMEGA + 5]
        assert seq.label == "list:w+1, w+3"

    def test_validation(self):
        with pytest.raises(ValueError):
            canonical_cofinal(OMEGA + 3)
        with pytest.raises(ValueError, match="does not increase at 5"):
            CofinalSequence(OMEGA, nat(5), head=(nat(5), nat(5)))
        with pytest.raises(ValueError, match="does not increase at 3"):
            CofinalSequence(OMEGA, nat(2), head=(nat(5),))  # the tail starts at 3
        with pytest.raises(ValueError, match="converges to w\\*2, not w"):
            CofinalSequence(OMEGA, OMEGA)  # every term w+i is past w
        with pytest.raises(ValueError, match="w\\+3 is not a limit ordinal"):
            CofinalSequence(OMEGA + 3, ZERO)
        with pytest.raises(ValueError, match="1-indexed"):
            canonical_cofinal(OMEGA).at(0)

    # a rule's limit was taken on trust: alpha_i = i was accepted for w*2,
    # and an alpha system over it found no pull index at level 3
    @pytest.mark.parametrize(
        "limit, base, sup, third",
        [
            ("w*2", "0", "w", "3"),
            ("w^2+w", "w", "w*2", "w+3"),
            ("w^2*2", "0", "w^2", "w*3"),
            ("w^3", "w^3", "w^3*2", "w^3+w^2*3"),
        ],
    )
    def test_a_sequence_must_converge_to_its_limit(self, limit, base, sup, third):
        base = parse_ordinal(base)
        with pytest.raises(ValueError, match=f"converges to {re.escape(sup)}, not {re.escape(limit)}$"):
            CofinalSequence(parse_ordinal(limit), base)
        assert CofinalSequence(parse_ordinal(sup), base).at(3) == parse_ordinal(third)
