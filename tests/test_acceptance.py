"""Acceptance gate: every advertised guarantee, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line
for each criterion as it completes. The whole gate shares one execution of
the verification suites (seed 0) and adds budget and reproducibility
checks on top.
"""

import time

import pytest

from ulmkit.verify import run_suite

_RESULTS: dict = {}
_WALL = {"seconds": 0.0}


@pytest.fixture(scope="module")
def results():
    if not _RESULTS:
        t0 = time.perf_counter()
        for r in run_suite("all", seed=0):
            _RESULTS[r.name] = r
        _WALL["seconds"] = time.perf_counter() - t0
    return _RESULTS


def _verdict(r):
    line = f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}"
    print(line)
    assert r.passed, line


def test_game_search_agrees_with_closed_form(results):
    r = results["game-closed-agreement"]
    _verdict(r)
    assert r.seconds <= 300, f"corpus sweep took {r.seconds:.0f}s, budget is 300s"


def test_profiles_classify_up_to_isomorphism(results):
    _verdict(results["invariant-classification"])


def test_sentence_family_matches_invariant_bounds(results):
    _verdict(results["formula-bridge"])


def test_chain_forest_invariants_count_summands(results):
    _verdict(results["summand-histogram"])


def test_extension_guarantee_holds_below_the_relation_level(results):
    _verdict(results["tuple-extension"])


def test_construction_growth_dichotomy(results):
    _verdict(results["construction-dichotomy"])


def test_instantiated_system_satisfies_its_axioms(results):
    _verdict(results["system-conformance"])


def test_runs_stay_or_settle_past_the_switch(results):
    _verdict(results["run-dichotomy"])


def test_hat_exponent_normalization(results):
    _verdict(results["hat-exponents"])


def test_budget_and_reproducibility(results):
    total = _WALL["seconds"]
    assert total <= 600, f"suites took {total:.0f}s, budget is 600s"
    for name in ("summand-histogram", "tuple-extension", "system-conformance"):
        (again,) = run_suite(name, seed=0)
        assert again.detail == results[name].detail, name
        assert again.passed
    print(
        f"PASS budget-and-reproducibility: suites ran in {total:.0f}s of 600s; "
        f"3 seeded suites reproduce their reports exactly"
    )
