"""The verification harness itself: corpus enumeration and cheap suites."""

import pytest

from ulmkit.pgroup import GroupTree
from ulmkit.verify import (
    SUITES,
    _order_counts,
    corpus_trees,
    run_suite,
    tree_of,
    tree_shapes,
)


class TestShapeEnumeration:
    def test_counts_match_the_rooted_tree_numbers(self):
        assert [len(tree_shapes(n)) for n in range(7)] == [1, 1, 2, 4, 9, 20, 48]

    def test_shapes_are_distinct_groups(self):
        # at p = 2 the 4 shapes on 3 nodes give 3 isomorphism types:
        # Z8, Z4+Z2 (twice, as different trees), Z2^3
        trees = [tree_of(2, v) for v in tree_shapes(3)]
        counts = sorted(_order_counts(t) for t in trees)
        assert len(trees) == 4
        assert len(set(counts)) == 3

    def test_tree_of_names_and_parents(self):
        t = tree_of(3, (0, 1))
        assert t.parent == {"r": None, "n1": "r", "n2": "n1"}
        assert t.p == 3

    def test_corpus_sizes(self):
        assert len(corpus_trees(5, (2, 3))) == 74
        assert len(corpus_trees(6, (2,))) == 85


class TestOrderCounts:
    def test_cyclic_group(self):
        z8 = GroupTree(2, {"r": None, "a": "r", "b": "a", "c": "b"})
        assert _order_counts(z8) == (1, 2, 4, 8)

    def test_elementary_group(self):
        z2x2 = GroupTree(2, {"r": None, "a": "r", "b": "r"})
        assert _order_counts(z2x2) == (1, 4)

    def test_distinguishes_equal_size_groups(self):
        z4 = GroupTree(2, {"r": None, "a": "r", "b": "a"})
        z2x2 = GroupTree(2, {"r": None, "a": "r", "b": "r"})
        assert _order_counts(z4) != _order_counts(z2x2)


class TestDriver:
    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("nope")

    def test_result_shape(self):
        (r,) = run_suite("hat-exponents", seed=0)
        assert r.name == "hat-exponents"
        assert r.passed is True
        assert r.seconds >= 0
        assert "hat(w) = 3" in r.detail

    def test_all_suites_are_named_by_content(self):
        assert len(SUITES) == 9
        for name in SUITES:
            assert name == name.lower() and " " not in name

    @pytest.mark.parametrize("name", ["hat-exponents", "run-dichotomy"])
    def test_cheap_suites_pass(self, name):
        (r,) = run_suite(name, seed=0)
        assert r.passed, r.detail

    def test_seeded_details_reproduce(self):
        (a,) = run_suite("summand-histogram", seed=7)
        (b,) = run_suite("summand-histogram", seed=7)
        assert a.detail == b.detail
