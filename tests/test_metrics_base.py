"""Unit tests for the distance-function base layer and NCD accounting."""

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.metrics import FunctionDistance
from repro.metrics.base import DistanceFunction


def abs_diff(a, b):
    return abs(a - b)


class TestFunctionDistance:
    def test_wraps_callable(self):
        m = FunctionDistance(abs_diff)
        result = m.distance(3, 7)
        assert result == 4.0
        assert isinstance(result, float)  # int results are coerced

    def test_rejects_non_callable(self):
        with pytest.raises(TypeError):
            FunctionDistance(42)

    def test_name(self):
        m = FunctionDistance(abs_diff, name="absdiff")
        assert m.name == "absdiff"

    def test_call_dunder(self):
        m = FunctionDistance(abs_diff)
        assert m(1, 5) == 4
        assert m.n_calls == 1


class TestCounting:
    def test_distance_counts_one(self):
        m = FunctionDistance(abs_diff)
        m.distance(0, 1)
        m.distance(2, 3)
        assert m.n_calls == 2

    def test_one_to_many_counts_len(self):
        m = FunctionDistance(abs_diff)
        out = m.one_to_many(0, [1, 2, 3, 4])
        assert m.n_calls == 4
        np.testing.assert_allclose(out, [1, 2, 3, 4])

    def test_one_to_many_empty(self):
        m = FunctionDistance(abs_diff)
        out = m.one_to_many(0, [])
        assert out.shape == (0,)
        assert m.n_calls == 0

    def test_pairwise_counts_half_matrix(self):
        m = FunctionDistance(abs_diff)
        out = m.pairwise([0, 1, 3])
        assert m.n_calls == 3  # 3*2/2
        expected = np.array([[0, 1, 3], [1, 0, 2], [3, 2, 0]], dtype=float)
        np.testing.assert_allclose(out, expected)

    def test_reset_counter(self):
        m = FunctionDistance(abs_diff)
        m.distance(0, 1)
        m.reset_counter()
        assert m.n_calls == 0

    def test_pairwise_symmetric_zero_diagonal(self):
        m = FunctionDistance(abs_diff)
        out = m.pairwise(list(range(6)))
        np.testing.assert_allclose(out, out.T)
        np.testing.assert_allclose(np.diag(out), 0)


def scalar_pairwise(metric, objects):
    """The scalar double loop ``_pairwise`` used before it went through rows."""
    n = len(objects)
    out = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = metric._distance(objects[i], objects[j])
    return out


class TestPairwiseRows:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 17])
    def test_edit_distance_bit_identical_to_scalar_loop(self, n):
        from repro.metrics import EditDistance

        rng = np.random.default_rng(n)
        words = ["".join(rng.choice(list("abcdé"), size=rng.integers(0, 12))) for _ in range(n)]
        m = EditDistance()
        out = m.pairwise(words)
        assert out.dtype == np.float64
        assert np.array_equal(out, scalar_pairwise(EditDistance(), words))
        assert m.n_calls == n * (n - 1) // 2

    @pytest.mark.parametrize("n", [0, 1, 2, 9])
    def test_function_distance_bit_identical_to_scalar_loop(self, n):
        points = list(np.random.default_rng(n).normal(size=n) * 1e3)
        m = FunctionDistance(lambda a, b: abs(a - b) ** 0.5)
        out = m.pairwise(points)
        assert np.array_equal(out, scalar_pairwise(m, points))
        assert m.n_calls == n * (n - 1) // 2


class TestAbstract:
    def test_cannot_instantiate_base(self):
        with pytest.raises(TypeError):
            DistanceFunction()
