"""Tests for greedy extended set cover (selection) and single-universe
cover (query rewriting)."""

from __future__ import annotations

import pytest

from repro.core import greedy_cover_query, greedy_select_views


def fs(*items):
    return frozenset(items)


class TestGreedySelect:
    def test_selects_covering_view(self):
        universes = [fs(1, 2, 3)]
        candidates = {"v1": fs(1, 2, 3)}
        result = greedy_select_views(universes, candidates, budget=5)
        assert result.selected == ["v1"]

    def test_budget_respected(self):
        universes = [fs(1, 2), fs(3, 4), fs(5, 6)]
        candidates = {"a": fs(1, 2), "b": fs(3, 4), "c": fs(5, 6)}
        result = greedy_select_views(universes, candidates, budget=2)
        assert len(result.selected) == 2

    def test_zero_budget(self):
        result = greedy_select_views([fs(1)], {"a": fs(1)}, budget=0)
        assert result.selected == []

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            greedy_select_views([], {}, budget=-1)

    def test_view_only_counts_for_containing_universes(self):
        # v covers 3 elements but is a subset of no universe: unusable.
        universes = [fs(1, 2), fs(2, 3)]
        candidates = {"v": fs(1, 2, 3)}
        result = greedy_select_views(universes, candidates, budget=3)
        assert result.selected == []

    def test_shared_view_beats_specific(self):
        # v_shared helps both universes; specific views help one each.
        universes = [fs(1, 2, 9), fs(1, 2, 8)]
        candidates = {
            "shared": fs(1, 2),
            "only_first": fs(1, 9),
            "only_second": fs(2, 8),
        }
        result = greedy_select_views(universes, candidates, budget=1)
        assert result.selected == ["shared"]

    def test_stops_when_singleton_is_best(self):
        # After the big view, only single uncovered elements remain —
        # selection must stop rather than burn budget (the §5.2 rule).
        universes = [fs(1, 2, 3, 4)]
        candidates = {"big": fs(1, 2, 3), "tiny": fs(3, 4)}
        result = greedy_select_views(universes, candidates, budget=5)
        assert result.selected == ["big"]
        assert result.stopped_on_singleton

    def test_weights_bias_choice(self):
        universes = [fs(1, 2), fs(3, 4)]
        candidates = {"a": fs(1, 2), "b": fs(3, 4)}
        weighted = greedy_select_views(
            universes, candidates, budget=1, weights={"a": 1.0, "b": 10.0}
        )
        assert weighted.selected == ["b"]

    def test_coverage_report(self):
        universes = [fs(1, 2, 3), fs(1, 2)]
        candidates = {"v": fs(1, 2)}
        result = greedy_select_views(universes, candidates, budget=1)
        assert result.coverage[0] == ["v"]
        assert result.coverage[1] == ["v"]

    def test_rounds_recorded(self):
        universes = [fs(1, 2, 3)]
        candidates = {"v": fs(1, 2, 3)}
        result = greedy_select_views(universes, candidates, budget=1)
        assert result.rounds[0] == ("v", 3)

    def test_marginal_gain_not_total(self):
        # Second pick is judged on *uncovered* elements only.
        universes = [fs(1, 2, 3, 4, 5, 6)]
        candidates = {
            "first": fs(1, 2, 3, 4),
            "overlapping": fs(3, 4, 5, 6),
            "disjoint": fs(5, 6),
        }
        result = greedy_select_views(universes, candidates, budget=2)
        assert result.selected[0] == "first"
        # overlapping gains 2 (5,6) same as disjoint (5,6): tie broken
        # deterministically, but both selections cover everything.
        assert len(result.selected) == 2

    def test_deterministic(self):
        universes = [fs(1, 2), fs(1, 2)]
        candidates = {"a": fs(1, 2), "b": fs(1, 2)}
        first = greedy_select_views(universes, candidates, budget=1).selected
        second = greedy_select_views(universes, candidates, budget=1).selected
        assert first == second


class TestGreedyCoverQuery:
    def test_single_view_cover(self):
        chosen, residue = greedy_cover_query(fs(1, 2, 3), {"v": fs(1, 2, 3)})
        assert chosen == ["v"] and residue == fs()

    def test_partial_cover_leaves_residue(self):
        chosen, residue = greedy_cover_query(fs(1, 2, 3), {"v": fs(1, 2)})
        assert chosen == ["v"] and residue == fs(3)

    def test_ignores_views_not_subset(self):
        chosen, residue = greedy_cover_query(fs(1, 2), {"v": fs(1, 2, 3)})
        assert chosen == [] and residue == fs(1, 2)

    def test_prefers_larger_marginal_cover(self):
        views = {"big": fs(1, 2, 3), "small": fs(1, 2)}
        chosen, _ = greedy_cover_query(fs(1, 2, 3, 4), views)
        assert chosen == ["big"]

    def test_stops_at_gain_one(self):
        # A view covering a single uncovered element is no better than the
        # existing b_i bitmap — don't use it.
        views = {"v": fs(1, 2), "tail": fs(2, 3)}
        chosen, residue = greedy_cover_query(fs(1, 2, 3), views)
        # Either 2-element view may win the tie, but the second one (gain 1
        # after the first) must NOT be used: one b_i bitmap does as well.
        assert len(chosen) == 1
        assert len(residue) == 1

    def test_multiple_views_compose(self):
        views = {"left": fs(1, 2), "right": fs(3, 4)}
        chosen, residue = greedy_cover_query(fs(1, 2, 3, 4), views)
        assert set(chosen) == {"left", "right"} and residue == fs()

    def test_no_views(self):
        chosen, residue = greedy_cover_query(fs(1, 2), {})
        assert chosen == [] and residue == fs(1, 2)

    def test_cover_never_increases_cost(self):
        # Using the chosen views + residue never fetches more columns than
        # the naive per-element plan.
        universe = fs(*range(10))
        views = {
            "a": fs(0, 1, 2, 3),
            "b": fs(3, 4, 5),
            "c": fs(6, 7),
            "d": fs(8, 9),
        }
        chosen, residue = greedy_cover_query(universe, views)
        assert len(chosen) + len(residue) <= len(universe)


class TestDeterministicTieBreaking:
    """Equal-gain rounds must resolve on candidate *content*, not on how
    the candidates happened to be keyed or ordered — ``select_graph_views``
    keys candidates by their element sets, which is sound only because
    the choice does not depend on the keys, and key-dependent ties once
    made the chosen view set drift between identical windows."""

    def test_selection_invariant_under_key_renaming(self):
        universes = [fs(1, 2, 9), fs(1, 2, 8), fs(3, 4, 9), fs(3, 4, 8)]
        sets = [fs(1, 2), fs(3, 4), fs(1, 9), fs(3, 8)]
        a = greedy_select_views(
            universes, {f"cand{i}": s for i, s in enumerate(sets)}, budget=2
        )
        b = greedy_select_views(
            universes,
            {f"zz{9 - i}": s for i, s in enumerate(sets)},
            budget=2,
        )
        pick_a = [dict(enumerate(sets))[int(k[4:])] for k in a.selected]
        pick_b = [sets[9 - int(k[2:])] for k in b.selected]
        assert pick_a == pick_b

    def test_selection_invariant_under_insertion_order(self):
        universes = [fs(1, 2), fs(1, 2), fs(3, 4), fs(3, 4)]
        forward = {"a": fs(1, 2), "b": fs(3, 4)}
        backward = {"b": fs(3, 4), "a": fs(1, 2)}
        first = greedy_select_views(universes, forward, budget=1).selected
        second = greedy_select_views(universes, backward, budget=1).selected
        assert [forward[k] for k in first] == [backward[k] for k in second]

    def test_equal_gain_prefers_larger_set(self):
        # Both candidates gain 2 in round one (only two of "wide"'s
        # elements are in any universe it covers... construct equal gain
        # directly): two disjoint pairs, each in two universes.
        universes = [fs(1, 2, 3), fs(1, 2, 3)]
        candidates = {"pair": fs(1, 2), "triple": fs(1, 2, 3)}
        # triple gains 6, pair gains 4: not a tie.  Make a real tie:
        universes = [fs(1, 2), fs(3, 4, 5)]
        candidates = {"small": fs(1, 2), "big": fs(3, 4)}
        # small gains 2 (universe 0), big gains 2 (universe 1): tie ->
        # content order prefers the lexicographically smaller canonical
        # element listing at equal size.
        result = greedy_select_views(universes, candidates, budget=1)
        assert result.selected == ["small"]

    def test_pinned_regression_view_set(self):
        """Pin the exact chosen sets for a fixed workload; shuffling the
        candidate enumeration must not change them."""
        universes = [
            fs("ab", "bc", "cd"),
            fs("ab", "bc", "de"),
            fs("bc", "cd", "de"),
            fs("ab", "cd", "de"),
        ]
        sets = [
            fs("ab", "bc"),
            fs("ab", "cd"),
            fs("bc", "cd"),
            fs("cd", "de"),
            fs("ab", "de"),
            fs("bc", "de"),
        ]
        expected = None
        import random

        for seed in range(6):
            order = list(sets)
            random.Random(seed).shuffle(order)
            keyed = {i: s for i, s in enumerate(order)}
            result = greedy_select_views(universes, keyed, budget=3)
            picked = [keyed[k] for k in result.selected]
            if expected is None:
                expected = picked
            assert picked == expected
        # The pinned outcome itself (content-ranked greedy): round one is
        # a six-way tie at gain 4 resolved to the smallest canonical
        # listing {ab,bc}; round two {cd,de} gains 4; round three is a
        # four-way tie at gain 2 resolved to {ab,cd}.
        assert expected == [fs("ab", "bc"), fs("cd", "de"), fs("ab", "cd")]

    def test_cover_query_tie_invariant_under_view_order(self):
        universe = fs(1, 2, 3, 4)
        forward = {"v1": fs(1, 2), "v2": fs(3, 4)}
        backward = {"v2": fs(3, 4), "v1": fs(1, 2)}
        chosen_f, _ = greedy_cover_query(universe, forward)
        chosen_b, _ = greedy_cover_query(universe, backward)
        assert [forward[k] for k in chosen_f] == [backward[k] for k in chosen_b]

    def test_cover_query_tie_prefers_content_order(self):
        # Equal gain, equal size: the lexicographically smaller element
        # listing wins regardless of insertion order or key names.
        universe = fs("p", "q", "x", "y")
        views = {"zz": fs("x", "y"), "aa": fs("p", "q")}
        chosen, _ = greedy_cover_query(universe, views)
        assert chosen[0] == "aa"
        views_flipped = {"aa": fs("x", "y"), "zz": fs("p", "q")}
        chosen, _ = greedy_cover_query(universe, views_flipped)
        assert chosen[0] == "zz"
