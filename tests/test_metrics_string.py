"""Unit tests for string metrics: edit distance and variants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import MetricError, ParameterError
from repro.metrics import (
    DamerauLevenshteinDistance,
    EditDistance,
    RelativeEditDistance,
    WeightedEditDistance,
    edit_distance,
)
from repro.metrics.string import damerau_levenshtein, levenshtein_bitparallel


class TestEditDistanceFunction:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("", "", 0),
            ("abc", "abc", 0),
            ("", "abc", 3),
            ("abc", "", 3),
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
            ("intention", "execution", 5),
            ("a", "b", 1),
            ("ab", "ba", 2),  # plain Levenshtein: transposition costs 2
        ],
    )
    def test_known_values(self, a, b, expected):
        assert edit_distance(a, b) == expected

    def test_symmetry(self):
        assert edit_distance("sunday", "saturday") == edit_distance("saturday", "sunday")

    def test_upper_bound_short_circuits(self):
        # True distance is 5 but we cap at 2.
        assert edit_distance("intention", "execution", upper_bound=2) == 2

    def test_upper_bound_no_effect_when_within(self):
        assert edit_distance("kitten", "sitting", upper_bound=10) == 3

    def test_upper_bound_on_length_difference(self):
        assert edit_distance("", "abcdef", upper_bound=2) == 2

    def test_weighted_costs(self):
        # Deleting 3 chars at cost 0.5 each.
        assert edit_distance("abcdef", "abc", delete_cost=0.5) == pytest.approx(1.5)

    def test_substitution_cost(self):
        assert edit_distance("abc", "axc", substitute_cost=0.4) == pytest.approx(0.4)


class TestEditDistanceMetric:
    def test_counts_calls(self):
        m = EditDistance()
        m.distance("abc", "abd")
        assert m.n_calls == 1

    def test_rejects_non_string(self):
        m = EditDistance()
        with pytest.raises(MetricError):
            m.distance("abc", 42)

    def test_upper_bound_param_validation(self):
        with pytest.raises(ParameterError):
            EditDistance(upper_bound=0)

    def test_one_to_many(self):
        m = EditDistance()
        out = m.one_to_many("cat", ["cat", "cut", "dog"])
        assert list(out) == [0, 1, 3]


class TestWeightedEditDistance:
    def test_symmetric(self):
        m = WeightedEditDistance(indel_cost=0.5, substitute_cost=0.8)
        assert m.distance("abc", "xbcd") == m.distance("xbcd", "abc")

    def test_rejects_metric_violating_costs(self):
        with pytest.raises(ParameterError):
            WeightedEditDistance(indel_cost=0.3, substitute_cost=1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            WeightedEditDistance(indel_cost=0)


class TestDamerauLevenshtein:
    def test_transposition_costs_one(self):
        assert damerau_levenshtein("ab", "ba") == 1

    def test_matches_levenshtein_without_transpositions(self):
        assert damerau_levenshtein("kitten", "sitting") == 3

    def test_known_osa(self):
        assert damerau_levenshtein("ca", "abc") == 3  # OSA restriction

    def test_metric_class(self):
        m = DamerauLevenshteinDistance()
        assert m.distance("word", "wrod") == 1


class TestRelativeEditDistance:
    def test_normalizes_by_longer(self):
        m = RelativeEditDistance()
        assert m.distance("abcd", "abce") == pytest.approx(0.25)

    def test_identical(self):
        assert RelativeEditDistance().distance("same", "same") == 0.0

    def test_empty_both(self):
        assert RelativeEditDistance().distance("", "") == 0.0

    def test_completely_different(self):
        assert RelativeEditDistance().distance("aaaa", "bbbb") == pytest.approx(1.0)

    def test_in_unit_interval(self):
        m = RelativeEditDistance()
        for a, b in [("a", "bcdef"), ("xy", "yx"), ("", "abc")]:
            assert 0.0 <= m.distance(a, b) <= 1.0


class TestLevenshteinBlock:
    """The bit-parallel kernel over a block of targets must equal the scalar DP."""

    def test_matches_scalar_on_random_strings(self):
        import random

        rng = random.Random(7)
        words = [
            "".join(rng.choice("abcde") for _ in range(rng.randrange(0, 10)))
            for _ in range(120)
        ]
        for query in ["", "a", "edcba", "abcde", words[0], words[50]]:
            got = levenshtein_bitparallel(query, words)
            assert got == [edit_distance(query, w) for w in words]
            assert all(type(d) is int for d in got)

    def test_edge_shapes(self):
        assert levenshtein_bitparallel("abc", []) == []
        assert levenshtein_bitparallel("", ["", "ab", "xyz"]) == [0, 2, 3]
        assert levenshtein_bitparallel("abc", ["", ""]) == [3, 3]
        assert levenshtein_bitparallel("a", ["a", "b", "ba", "bb"]) == [0, 1, 1, 2]
        # Generators stream: the kernel takes any iterable of targets.
        assert levenshtein_bitparallel("ab", (t for t in ["ab", "b"])) == [0, 1]

    def test_unicode_and_padding_mix(self):
        # Non-BMP characters are one code point each; lengths straddle the
        # 30-bit digit and 64-bit word boundaries of the masks.
        targets = ["", "á", "ábç∂", "😀x", "a" * 40, "ábç∂éf", "a" * 64, "😀" * 91]
        for query in ["ábç", "😀", "aaaa", "a" * 63, "a😀" * 33]:
            got = levenshtein_bitparallel(query, targets)
            assert got == [edit_distance(query, t) for t in targets]

    def test_one_to_many_uses_block_path_with_exact_counting(self):
        metric = EditDistance()
        words = ["cat", "cot", "dogs", "", "tack"]
        row = metric.one_to_many("cat", words)
        assert row.dtype == float
        assert list(row) == [edit_distance("cat", w) for w in words]
        assert metric.n_calls == len(words)
        # cross/pairwise route through one_to_many: same values, same counts.
        cross = metric.cross(words[:2], words)
        assert metric.n_calls == len(words) + 2 * len(words)
        assert cross[0].tolist() == row.tolist()
        pair = metric.pairwise(words)
        assert metric.n_calls == len(words) + 2 * len(words) + 5 * 4 // 2
        assert pair[1][0] == edit_distance("cot", "cat")
        assert metric.distance("tack", "cat") == edit_distance("tack", "cat")

    def test_upper_bound_falls_back_to_scalar_loop(self):
        bounded = EditDistance(upper_bound=2.0)
        words = ["kitten", "intention", "cat"]
        row = bounded.one_to_many("execution", words)
        assert list(row) == [
            edit_distance("execution", w, upper_bound=2.0) for w in words
        ]
        # The bounded DP returns the bound on an early exit but the exact
        # distance when no row exceeded it, so it is not min(d, bound).
        assert bounded.distance("intention", "execution") == 2.0
        assert bounded.distance("ab", "abcd") == 2.0
        assert EditDistance(upper_bound=1.0).distance("a", "abc") == 2.0


#: Lengths on both sides of the masks' 30-bit digit and 64-bit word edges.
_LENGTHS = [0, 1, 2, 29, 30, 31, 63, 64, 65, 91, 130]
#: Small alphabet (so strings share characters) with non-BMP code points.
_ALPHABET = "abé😀\U0001f9ea"


def _draw_string(draw):
    n = draw(st.sampled_from(_LENGTHS))
    return "".join(draw(st.lists(st.sampled_from(_ALPHABET), min_size=n, max_size=n)))


@st.composite
def _string_pair(draw):
    a = _draw_string(draw)
    if draw(st.booleans()):
        b = _draw_string(draw)
    else:
        # A few random edits of ``a``: small distances, long shared runs.
        b = list(a)
        for _ in range(draw(st.integers(0, 4))):
            pos = draw(st.integers(0, len(b)))
            op = draw(st.sampled_from(["insert", "delete", "substitute"]))
            ch = draw(st.sampled_from(_ALPHABET))
            if op == "insert":
                b.insert(pos, ch)
            elif pos < len(b):
                if op == "delete":
                    del b[pos]
                else:
                    b[pos] = ch
        b = "".join(b)
    return a, b


class TestBitParallelProperties:
    @settings(max_examples=150, deadline=None)
    @given(_string_pair())
    def test_equals_scalar_dp_and_is_symmetric(self, pair):
        a, b = pair
        expected = edit_distance(a, b)
        assert levenshtein_bitparallel(a, [b]) == [expected]
        assert levenshtein_bitparallel(b, [a]) == [expected]
        metric = EditDistance()
        assert metric.distance(a, b) == metric.distance(b, a) == expected
        assert metric.one_to_many(a, [b, a, ""]).tolist() == [expected, 0.0, len(a)]
