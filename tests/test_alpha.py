from __future__ import annotations

import gc
import itertools
import weakref

import pytest
from hypothesis import given, strategies as st

from ulmkit.alpha import (
    AlphaSystem,
    InstructionSource,
    Letter,
    Run,
    accumulate_E,
    check_axioms,
    code_true_in,
    E_of,
    extend_run_letter,
    find_run,
    instruction_from_g,
    run_to_text,
    signed_sentences,
    validate_run,
)
from ulmkit.baf import ExtensionError
from ulmkit.formats import FormatError, instruction_from_dict
from ulmkit.ordinal import (
    OMEGA,
    ZERO,
    CofinalSequence,
    canonical_cofinal,
    nat,
    parse_ordinal,
)
from ulmkit.pgroup import Fragment
from ulmkit.ulm import OMEGA_VALUE


@pytest.fixture(scope="module")
def sys2():
    alpha = parse_ordinal("w*2")
    return AlphaSystem(alpha, canonical_cofinal(alpha))


@pytest.fixture(scope="module")
def quiet_run(sys2):
    src = InstructionSource({0: None})
    return find_run(sys2, instruction_from_g(src, 0), 4)


@pytest.fixture(scope="module")
def switch_run(sys2):
    src = InstructionSource({1: 2})
    return find_run(sys2, instruction_from_g(src, 1), 3)


@pytest.fixture(scope="module")
def sysw2():
    # second instance with a genuinely limit level budget
    alpha = parse_ordinal("w^2")
    seq = CofinalSequence(alpha, ZERO, label="w*i")  # alpha_i = w*i
    return AlphaSystem(alpha, seq)


class TestLetter:
    def test_empty_letter(self, sys2):
        ell = sys2.hat_letter()
        assert ell.j == 0 and len(ell) == 0
        assert "j=0" in ell.describe()

    def test_negative_index_rejected(self, sys2):
        with pytest.raises(ValueError):
            Letter(-1, (), sys2.fresh_group(0))

    def test_duplicate_images_rejected(self, sys2):
        g = sys2.fresh_group(0)
        z = g.zero()
        with pytest.raises(ValueError):
            Letter(0, (z, z), g)

    def test_foreign_element_rejected(self, sys2):
        g = sys2.fresh_group(0)
        other = sys2.fresh_group(0)
        with pytest.raises(ValueError):
            Letter(0, (other.zero(),), g)


class TestSentences:
    def test_empty_letter_has_empty_E(self, sys2):
        assert E_of(sys2.hat_letter()) == frozenset()

    def test_zero_image_contributes_nothing(self, quiet_run):
        # letter 1 lists just the zero element; nothing nontrivial to say
        ell = quiet_run.letters()[1]
        assert len(ell) == 1
        assert E_of(ell) == frozenset()

    def test_E_sizes_along_quiet_run(self, quiet_run):
        assert [len(E_of(l)) for l in quiet_run.letters()] == [0, 0, 1, 3, 4]

    def test_E_grows_along_quiet_run(self, quiet_run):
        letters = quiet_run.letters()
        for a, b in zip(letters, letters[1:]):
            assert E_of(a) <= E_of(b)

    def test_first_nontrivial_code(self, quiet_run):
        ell = quiet_run.letters()[2]
        assert next(iter(signed_sentences(ell))) == ("lin", ((1, 1),), "ne")

    def test_code_reevaluation(self, quiet_run):
        final = quiet_run.letters()[-1]
        for code in E_of(final):
            assert code_true_in(code, final)

    def test_code_out_of_range(self, sys2):
        with pytest.raises(ValueError):
            code_true_in(("lin", ((3, 1),), "ne"), sys2.hat_letter())


class TestSystem:
    def test_alpha_must_be_limit(self):
        with pytest.raises(ValueError):
            AlphaSystem(nat(5), canonical_cofinal(parse_ordinal("w*2")))

    def test_sequence_must_match(self):
        w2 = parse_ordinal("w*2")
        with pytest.raises(ValueError):
            AlphaSystem(parse_ordinal("w*3"), canonical_cofinal(w2))

    def test_prime_floor(self):
        w2 = parse_ordinal("w*2")
        for p in (1, 4):
            with pytest.raises(ValueError, match="not prime"):
                AlphaSystem(w2, canonical_cofinal(w2), p=p)

    def test_hat_level(self, sys2):
        assert sys2.alpha_hat == nat(5)
        assert sys2.sample_levels() == [0, 1, 2, 3, 4]

    def test_base_profile_uniform(self, sys2):
        p0 = sys2.profile(0)
        assert p0.value_at(nat(3)) is OMEGA_VALUE
        assert p0.value_at(OMEGA + nat(3)) is OMEGA_VALUE

    def test_shifted_profile_drops_odd_tail(self, sys2):
        p1 = sys2.profile(1)
        assert p1.value_at(nat(5)) is OMEGA_VALUE
        assert p1.value_at(OMEGA + nat(1)) == 0
        assert p1.value_at(OMEGA + nat(2)) is OMEGA_VALUE


class TestAdmissibility:
    def test_runs_are_admissible(self, sys2, quiet_run, switch_run):
        assert not sys2.p_violations(quiet_run.entries)
        assert not sys2.p_violations(switch_run.entries)

    def test_empty_string(self, sys2):
        assert sys2.p_violations(())

    def test_start_must_be_empty_index_zero(self, sys2):
        bad = Letter(1, (), sys2.fresh_group(1))
        out = sys2.p_violations((bad,))
        assert any("start" in v for v in out)

    def test_bit_drop_flagged(self, sys2, switch_run):
        entries = list(switch_run.entries)
        entries[5] = 0  # 0,1 then back to 0
        out = sys2.p_violations(tuple(entries))
        assert any("drops back to 0" in v for v in out)

    def test_coverage_shortfall_flagged(self, sys2, quiet_run):
        entries = list(quiet_run.entries)
        entries[4] = entries[2]  # letter 2 now lists only one element
        out = sys2.p_violations(tuple(entries))
        assert any("fewer than 2" in v for v in out)

    def test_flip_forces_nonzero_index(self, sys2, quiet_run):
        entries = list(quiet_run.entries[:3])
        entries[1] = 1  # bit says flipped, letter stayed at index 0
        out = sys2.p_violations(tuple(entries))
        assert any("keeps index 0" in v for v in out)

    def test_quiet_bit_forbids_nonzero_index(self, sys2, quiet_run, switch_run):
        entries = (quiet_run.entries[0], 0, switch_run.entries[4])
        out = sys2.p_violations(entries)
        assert any("moved off index 0" in v for v in out)

    def test_index_frozen_after_flip(self, sys2, quiet_run, switch_run):
        entries = list(switch_run.entries)
        entries[6] = quiet_run.entries[6]  # j falls back to 0 after the flip
        out = sys2.p_violations(tuple(entries))
        assert any("changed index after the flip" in v for v in out)

    def test_accepts_string_ending_in_bit(self, sys2, quiet_run):
        assert not sys2.p_violations(quiet_run.entries[:3] + (0,))

    def test_typing_checked_first(self, sys2):
        out = sys2.p_violations(("not a letter", 2))
        assert any("must hold a letter" in v for v in out)
        assert any("must hold a bit" in v for v in out)


def p_violations_reference(string) -> list[str]:
    """``AlphaSystem.p_violations`` with no memo: each letter's coverage is
    recounted from a fresh stable enumeration of its fragment."""
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
        have = set(ell.images)
        need = itertools.islice(ell.group.fragment.elements_stable(), i)
        missing = [e for e in need if e not in have]
        if missing:
            out.append(
                f"letter {i} misses {len(missing)} of the first {i} "
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


class TestMemoizedCoverage:
    def _strings(self, system):
        quiet = find_run(
            system, instruction_from_g(InstructionSource({0: None}), 0), 8
        ).entries
        switch = find_run(
            system, instruction_from_g(InstructionSource({0: 3}), 0), 8
        ).entries
        short = list(quiet)
        short[6] = short[4]  # letter 3 lists only two elements
        # letter 5 lists five elements but trades the zero for g1+g2
        ell = quiet[10]
        frag = ell.group.fragment
        gap = list(quiet)
        gap[10] = Letter(0, ell.images[1:] + (frag.gen(1) + frag.gen(2),), ell.group)
        out = [quiet, switch, tuple(short), tuple(gap)]
        for s in (quiet, switch):
            out += [s[:k] for k in range(1, len(s) + 1)]
        return out

    def test_p_violations_agrees_with_the_uncached_reference(self):
        alpha = parse_ordinal("w*2")
        system = AlphaSystem(alpha, canonical_cofinal(alpha))
        strings = self._strings(system)
        assert any("misses 1 of the first 5" in v
                   for v in system.p_violations(strings[3]))
        assert any("fewer than 3" in v for v in system.p_violations(strings[2]))
        # twice over, so the second pass reads the stable prefixes the
        # first filled
        for _ in range(2):
            for s in strings:
                assert system.p_violations(s) == p_violations_reference(s)

    def test_quiet_run_enumerates_each_prefix_once(self, monkeypatch):
        # the finished 24-step run is scanned once; each fragment's stable
        # prefix is enumerated once however often coverage is counted
        yields = 0
        stable = Fragment.elements_stable

        def counting(self):
            nonlocal yields
            for x in stable(self):
                yields += 1
                yield x

        monkeypatch.setattr(Fragment, "elements_stable", counting)
        alpha = parse_ordinal("w*2")
        system = AlphaSystem(alpha, canonical_cofinal(alpha))
        q = instruction_from_g(InstructionSource({0: None}), 0)
        assert len(find_run(system, q, 24).letters()) == 25
        assert yields <= 600

    def test_letter_memos_die_with_the_letter(self, quiet_run):
        ell = quiet_run.letters()[-1]
        copy = Letter(ell.j, ell.images, ell.group)
        assert copy.uncovered(len(copy)) == 0
        ref = weakref.ref(copy)
        del copy
        gc.collect()
        assert ref() is None


class TestInstructionSource:
    def test_spec_forms(self):
        always, _ = instruction_from_dict({"n": 2, "always_zero": True})
        assert always.g(2, 100) == 0
        switched, _ = instruction_from_dict({"n": 2, "switch_at": 4})
        assert switched.g(2, 3) == 0 and switched.g(2, 4) == 1
        with pytest.raises(FormatError, match="always_zero or switch_at"):
            instruction_from_dict({"n": 2})

    def test_unknown_row(self):
        with pytest.raises(KeyError):
            InstructionSource({0: None}).g(5, 0)

    @given(st.integers(0, 20), st.integers(0, 40))
    def test_rows_are_monotone(self, switch, stage):
        src = InstructionSource({0: switch})
        assert src.g(0, stage) == int(stage >= switch)

    def test_instruction_reads_length(self):
        src = InstructionSource({0: 3})
        q = instruction_from_g(src, 0)
        assert q((1, 2)) == 0
        assert q((1, 2, 3)) == 1


class TestPull:
    def test_verified_pull(self, sys2):
        assert sys2.verified_pull == (1, 1)

    def test_pull_is_found_once_and_dies_with_its_system(self, monkeypatch):
        calls = 0
        find = AlphaSystem.find_pull_index

        def counting(self, beta0):
            nonlocal calls
            calls += 1
            return find(self, beta0)

        monkeypatch.setattr(AlphaSystem, "find_pull_index", counting)
        alpha = parse_ordinal("w*2")
        system = AlphaSystem(alpha, canonical_cofinal(alpha))
        assert system.verified_pull == (1, 1)
        first = calls
        assert first >= 1
        src = InstructionSource({0: 2})
        find_run(system, instruction_from_g(src, 0), 4)
        assert system.verified_pull == (1, 1)
        # the flip step asks once more, at its chain level
        assert calls == first + 1
        ref = weakref.ref(system)
        del system
        gc.collect()
        assert ref() is None

    def test_switching_run_searches_each_level_once(self, monkeypatch):
        searched = []
        search = AlphaSystem._search_pull_index

        def counting(self, beta0):
            searched.append(beta0)
            return search(self, beta0)

        monkeypatch.setattr(AlphaSystem, "_search_pull_index", counting)
        alpha = parse_ordinal("w*2")
        system = AlphaSystem(alpha, canonical_cofinal(alpha))
        src = InstructionSource({1: 4})
        run = find_run(system, instruction_from_g(src, 1), 6)
        assert [l.j for l in run.letters()] == [0, 0, 0, 1, 1, 1, 1]
        # verified_pull searches down from the top sample level to 1; the
        # flip step's pull at level 1 reuses that answer
        assert searched == [nat(b) for b in reversed(system.sample_levels()) if b >= 1]
        assert system.find_pull_index(1) == 1 and len(searched) == len(set(searched))

    def test_pull_ladder(self, sys2):
        got = [(b, sys2.find_pull_index(b)) for b in range(5)]
        assert got == [(0, 1), (1, 1), (2, None), (3, None), (4, None)]

    def test_no_high_level_pull(self, sys2):
        # above the threshold the odd-level invariants of every nonzero
        # index drop to zero while index 0 stays infinite, so the pull
        # hypothesis is just false there; 1 is the honest ceiling
        hat = sys2.hat_letter()
        for j in range(1, 7):
            cand = Letter(j, (), sys2.fresh_group(j))
            assert not sys2.leq(cand, hat, 4)


class TestExtendRunLetter:
    def test_plain_extension_covers(self, sys2, quiet_run):
        sigma = quiet_run.entries[:3]
        ell = extend_run_letter(sys2, sigma, 0, [(sigma[-1], 0)])
        assert ell.j == 0 and len(ell) >= 2
        assert not sys2.p_violations(sigma + (0, ell))

    def test_two_link_cascade(self, sys2, quiet_run):
        letters = quiet_run.letters()
        sigma = quiet_run.entries[:3]
        chain = [(letters[1], 1), (letters[2], 0)]
        ell = extend_run_letter(sys2, sigma, 0, chain)
        assert sys2.leq(letters[1], ell, 1)
        assert sys2.leq(letters[2], ell, 0)

    def test_post_flip_extension_keeps_index(self, sys2, switch_run):
        sigma = switch_run.entries[:5]
        ell = extend_run_letter(sys2, sigma, 1, [(sigma[-1], 0)])
        assert ell.j == sigma[-1].j == 1

    def test_even_sigma_rejected(self, sys2, quiet_run):
        with pytest.raises(ValueError):
            extend_run_letter(sys2, quiet_run.entries[:2], 0, [(quiet_run.entries[0], 0)])

    def test_bad_bit_rejected(self, sys2, quiet_run):
        sigma = quiet_run.entries[:3]
        with pytest.raises(ValueError):
            extend_run_letter(sys2, sigma, 2, [(sigma[-1], 0)])

    def test_empty_chain_rejected(self, sys2, quiet_run):
        with pytest.raises(ValueError):
            extend_run_letter(sys2, quiet_run.entries[:3], 0, [])

    def test_chain_must_anchor_sigma(self, sys2, quiet_run):
        sigma = quiet_run.entries[:3]
        with pytest.raises(ValueError):
            extend_run_letter(sys2, sigma, 0, [(quiet_run.entries[0], 0)])

    def test_levels_must_descend(self, sys2, quiet_run):
        letters = quiet_run.letters()
        sigma = quiet_run.entries[:3]
        with pytest.raises(ValueError):
            extend_run_letter(sys2, sigma, 0, [(letters[1], 1), (letters[2], 1)])

    def test_false_chain_link_rejected(self, sys2, switch_run):
        # the cross-index relation fails at level 4, and the verifier says so
        letters = switch_run.letters()
        sigma = switch_run.entries[:5]
        with pytest.raises(ExtensionError, match="chain link"):
            extend_run_letter(sys2, sigma, 1, [(letters[2], 4), (letters[1], 3)])

    def test_flip_without_pull_level_fails(self, sys2, quiet_run):
        # a first flip anchored at level 3 would need a verified pull at 4,
        # and no nonzero index provides one
        sigma = quiet_run.entries[:3]
        with pytest.raises(ExtensionError, match="no nonzero index"):
            extend_run_letter(sys2, sigma, 1, [(sigma[-1], 3)])

    def test_inadmissible_sigma_names_its_breach(self, sys2, quiet_run):
        # bits 1 then 0: sigma itself is inadmissible, and the refusal
        # says why rather than only that it is
        sigma = list(quiet_run.entries[:5])
        sigma[1] = 1
        with pytest.raises(ValueError, match="bit 2 drops back to 0"):
            extend_run_letter(sys2, tuple(sigma), 0, [(sigma[-1], 0)])


class TestFindRun:
    def test_quiet_run_stays_at_zero(self, sys2, quiet_run):
        assert [l.j for l in quiet_run.letters()] == [0, 0, 0, 0, 0]
        assert quiet_run.bits() == (0, 0, 0, 0)
        assert [len(l) for l in quiet_run.letters()] == [0, 1, 2, 3, 4]
        assert validate_run(sys2, quiet_run, lambda s: 0) == []

    def test_quiet_run_lists_no_pair_tower(self, monkeypatch):
        # every relation a quiet step checks holds between a letter and its
        # successor, whose list extends it in an extension of its fragment:
        # an inclusion, decided without listing the letter's subgroup
        import ulmkit.pgroup

        towers = []
        real = ulmkit.pgroup._pair_tower

        def counted(*args):
            towers.append(args)
            return real(*args)

        monkeypatch.setattr(ulmkit.pgroup, "_pair_tower", counted)
        alpha = parse_ordinal("w*2")
        system = AlphaSystem(alpha, canonical_cofinal(alpha))
        run = find_run(system, instruction_from_g(InstructionSource({0: None}), 0), 24)
        assert len(run.letters()) == 25 and set(run.bits()) == {0}
        assert towers == []

    def test_zero_steps(self, sys2):
        run = find_run(sys2, lambda s: 0, 0)
        assert len(run.entries) == 1
        assert run.entries[0].j == 0 and len(run.entries[0]) == 0
        assert len(run.provenance) == 1

    def test_switch_run_moves_once(self, sys2, switch_run):
        assert [l.j for l in switch_run.letters()] == [0, 0, 1, 1]
        assert switch_run.bits() == (0, 1, 1)
        assert any("pulled into index 1 at level 1" in n for n in switch_run.provenance)

    def test_switch_index_beats_switch_level(self, sys2, switch_run):
        beta0 = nat(1)
        jstar = switch_run.letters()[-1].j
        assert sys2.seq.at(jstar) > beta0

    def test_runs_are_reproducible(self, sys2, switch_run):
        src = InstructionSource({1: 2})
        again = find_run(sys2, instruction_from_g(src, 1), 3)
        assert run_to_text(again) == run_to_text(switch_run)

    def test_run_is_scanned_once(self, monkeypatch):
        # each step checks only its relation to the last letter; the
        # admissibility scan runs once, over the finished run
        scans = []
        real = AlphaSystem.p_violations

        def counting(self, string):
            scans.append(len(string))
            return real(self, string)

        monkeypatch.setattr(AlphaSystem, "p_violations", counting)
        alpha = parse_ordinal("w*2")
        system = AlphaSystem(alpha, canonical_cofinal(alpha))
        q = instruction_from_g(InstructionSource({0: None}), 0)
        assert len(find_run(system, q, 24).letters()) == 25
        assert scans == [49]

    def test_letter_not_above_the_last_is_refused(self, sys2, monkeypatch):
        import ulmkit.alpha

        cover = ulmkit.alpha._cover_letter

        def reversing(sys, letter, i):
            # still covers the first i elements, but the old list is no
            # longer its prefix
            ell = cover(sys, letter, i)
            return Letter(ell.j, ell.images[::-1], ell.group)

        monkeypatch.setattr(ulmkit.alpha, "_cover_letter", reversing)
        q = instruction_from_g(InstructionSource({0: None}), 0)
        with pytest.raises(ExtensionError, match="step 2: the new letter"):
            find_run(sys2, q, 4)

    def test_instruction_must_answer_bits(self, sys2):
        with pytest.raises(ValueError):
            find_run(sys2, lambda s: "maybe", 1)

    def test_validate_catches_wrong_bit(self, sys2, quiet_run):
        entries = list(quiet_run.entries)
        entries[1] = 1
        tampered = Run(tuple(entries))
        out = validate_run(sys2, tampered, lambda s: 0)
        assert any("disagrees" in v for v in out)


class TestAccumulate:
    def test_singleton_run_is_empty(self, sys2):
        assert accumulate_E(find_run(sys2, lambda s: 0, 0)) == frozenset()

    def test_quiet_accumulation(self, quiet_run):
        E = accumulate_E(quiet_run)
        assert len(E) == 4
        final = quiet_run.letters()[-1]
        assert all(code_true_in(code, final) for code in E)

    def test_accumulation_monotone_in_length(self, sys2, quiet_run):
        src = InstructionSource({0: None})
        shorter = find_run(sys2, instruction_from_g(src, 0), 2)
        assert accumulate_E(shorter) <= accumulate_E(quiet_run)

    def test_switch_accumulation_holds_in_final_letter(self, switch_run):
        final = switch_run.letters()[-1]
        for code in accumulate_E(switch_run):
            assert code_true_in(code, final)


class TestRunToText:
    def test_layout(self, switch_run):
        text = run_to_text(switch_run)
        assert text.startswith("0: letter")
        assert "1: bit 0" in text
        assert "# start: index 0, empty list" in text
        assert text.endswith("\n")


class _ShrinkingE:
    """Planted defect: the relation holds along <= but E shrinks."""

    def sample_levels(self):
        return range(3)

    def sample_letters(self, rng):
        return [0, 1, 2, 3]

    def leq(self, a, b, beta):
        return a <= b

    def E(self, a):
        return frozenset(range(4 - a))


class TestCheckAxioms:
    def test_zero_samples(self, sys2):
        assert check_axioms(sys2, 0) == []

    def test_group_system_conforms(self, sys2):
        failures = check_axioms(sys2, 250, seed=11)
        assert not failures, failures[:3]

    def test_reference_runs_die_with_their_system(self):
        alpha = parse_ordinal("w*2")
        system = AlphaSystem(alpha, canonical_cofinal(alpha))
        assert check_axioms(system, 20, seed=1) == []
        ref = weakref.ref(system)
        del system
        gc.collect()
        assert ref() is None

    def test_profiles_are_built_once_and_die_with_their_system(self):
        alpha = parse_ordinal("w*2")
        system = AlphaSystem(alpha, canonical_cofinal(alpha))
        assert check_axioms(system, 20, seed=1) == []
        built = dict(system._profiles)
        assert built
        assert all(system.profile(j) is P for j, P in built.items())
        assert all(system.fresh_group(j).profile is P for j, P in built.items())
        refs = [weakref.ref(system)] + [weakref.ref(P) for P in built.values()]
        del system, built
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_planted_defect_is_found(self):
        failures = check_axioms(_ShrinkingE(), 200, seed=3)
        assert failures
        assert all("E-set not contained" in f for f in failures)

    def test_planted_bad_witness_is_reported(self, monkeypatch):
        import ulmkit.alpha

        alpha = parse_ordinal("w*2")
        system = AlphaSystem(alpha, canonical_cofinal(alpha))
        system.sample_letters(None)  # build the reference runs unplanted
        cover = ulmkit.alpha._cover_letter

        def dropping(sys, letter, i):
            ell = cover(sys, letter, i)
            return Letter(ell.j, ell.images[:-1], ell.group)

        monkeypatch.setattr(ulmkit.alpha, "_cover_letter", dropping)
        failures = check_axioms(system, 40, seed=1)
        assert failures
        assert all(
            f.startswith("extension witness rejected: result not admissible")
            for f in failures
        )


class TestSecondInstance:
    def test_limit_hat_level(self, sysw2):
        assert sysw2.alpha_hat == OMEGA
        assert sysw2.sample_levels() == [0, 1, 2, 3, 4, 5]

    def test_pull_index_scales_with_level(self, sysw2):
        got = [(b, sysw2.find_pull_index(b)) for b in range(6)]
        assert got == [(0, 1), (1, 1), (2, 2), (3, 2), (4, 3), (5, 3)]
        assert sysw2.verified_pull == (5, 3)

    def test_switch_run_lands_high(self, sysw2):
        src = InstructionSource({0: 2})
        run = find_run(sysw2, instruction_from_g(src, 0), 3)
        assert [l.j for l in run.letters()] == [0, 0, 3, 3]
        assert any("level 5" in n for n in run.provenance)

    def test_axioms_hold(self, sysw2):
        failures = check_axioms(sysw2, 150, seed=5)
        assert not failures, failures[:3]
