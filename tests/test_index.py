"""Unit tests for the unified metric-index layer (:mod:`repro.index`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.preclusterer import BUBBLE
from repro.exceptions import (
    EmptyDatasetError,
    NotFittedError,
    ParameterError,
    StaleIndexError,
)
from repro.index import (
    CFTreeIndex,
    NeighborHeap,
    QueryBoundCache,
    available_backends,
    brute_force_reference,
    make_index,
)
from repro.metrics import EditDistance, EuclideanDistance
from repro.persistence import load_checkpoint, save_checkpoint


def _points(n=40, seed=0, dim=3):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=dim) for _ in range(n)]


def _fit_bubble(objects, metric=None):
    metric = metric if metric is not None else EuclideanDistance()
    return BUBBLE(
        metric,
        threshold=0.0,
        max_nodes=None,
        branching_factor=4,
        sample_size=8,
        representation_number=4,
        seed=0,
    ).fit(objects)


class TestQueryBoundCache:
    def test_put_get_and_lru_eviction(self):
        cache = QueryBoundCache(maxsize=2)
        cache.put("q", 0, 1.0)
        cache.put("q", 1, 2.0)
        assert cache.get("q", 0) == 1.0  # refreshes 0's recency
        cache.put("q", 2, 3.0)  # evicts ("q", 1)
        assert cache.get("q", 1) is None
        assert cache.get("q", 0) == 1.0
        assert cache.n_evictions == 1
        assert len(cache) == 2

    def test_hit_miss_counters_and_rate(self):
        cache = QueryBoundCache()
        assert cache.hit_rate == 0.0
        cache.put("q", 0, 1.5)
        assert cache.get("q", 0) == 1.5
        assert cache.get("q", 9) is None
        doc = cache.as_dict()
        assert doc["hits"] == 1 and doc["misses"] == 1
        assert doc["hit_rate"] == 0.5

    def test_unhashable_key_bypasses(self):
        cache = QueryBoundCache()
        # Tuples holding ndarrays hash-fail -> key_for signals bypass.
        assert cache.key_for((np.zeros(2), np.ones(2))) is None
        assert cache.key_for("abc") == "abc"
        key = cache.key_for(np.zeros(2))
        assert key is not None  # ndarrays key by (dtype, shape, bytes)

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ParameterError):
            QueryBoundCache(maxsize=0)


class TestNeighborHeap:
    def test_keeps_k_best_with_lowest_index_ties(self):
        heap = NeighborHeap(2)
        heap.offer(5, 1.0)
        heap.offer(3, 1.0)
        heap.offer(9, 0.5)
        assert heap.items() == [(0.5, 9), (1.0, 3)]
        assert heap.tau == 1.0

    def test_offer_is_idempotent_per_index(self):
        heap = NeighborHeap(3)
        heap.offer(1, 2.0)
        heap.offer(1, 2.0)
        heap.offer(2, 1.0)
        assert heap.items() == [(1.0, 2), (2.0, 1)]

    def test_tau_infinite_until_full(self):
        heap = NeighborHeap(2)
        assert heap.tau == np.inf
        heap.offer(0, 1.0)
        assert heap.tau == np.inf
        heap.offer(1, 3.0)
        assert heap.tau == 3.0


class TestRegistry:
    def test_all_backends_registered(self):
        assert set(available_backends()) >= {"brute", "cftree", "mtree", "vptree"}

    def test_make_index_builds_queryable_backend(self):
        for backend in ("brute", "mtree", "vptree"):
            index = make_index(backend, EuclideanDistance())
            index.build(_points(12))
            assert len(index) == 12
            assert index.nearest(np.zeros(3)).neighbors

    def test_unknown_backend_rejected(self):
        with pytest.raises(ParameterError, match="unknown index backend"):
            make_index("kd-tree", EuclideanDistance())

    def test_non_metric_rejected(self):
        with pytest.raises(ParameterError, match="DistanceFunction"):
            make_index("brute", object())  # type: ignore[arg-type]


class TestQueryResult:
    def test_as_dict_and_sequence_protocol(self):
        index = make_index("brute", EuclideanDistance())
        index.build(_points(10))
        result = index.nearest(np.zeros(3), k=3)
        assert len(result) == 3
        assert [n.index for n in result] == result.indices
        doc = result.as_dict()
        assert doc["kind"] == "knn"
        assert doc["n_candidates"] == 10
        assert doc["n_evaluated"] + doc["n_pruned"] == 10
        assert doc["neighbors"] == [(n.index, n.distance) for n in result]

    def test_invalid_query_parameters(self):
        index = make_index("brute", EuclideanDistance())
        index.build(_points(5))
        with pytest.raises(ParameterError):
            index.nearest(np.zeros(3), k=0)
        with pytest.raises(ParameterError):
            index.within(np.zeros(3), -1.0)


class TestRepeatedQueriesAreFree:
    def test_second_identical_query_costs_zero(self):
        index = make_index("vptree", EuclideanDistance(), seed=0)
        index.build(_points(30))
        query = np.full(3, 0.25)
        first = index.nearest(query, k=3)
        second = index.nearest(query, k=3)
        assert first.n_calls > 0
        assert second.n_calls == 0
        assert second.cache_hits > 0
        assert [(n.distance, n.index) for n in second] == [
            (n.distance, n.index) for n in first
        ]

    def test_shared_cache_across_backends(self):
        cache = QueryBoundCache()
        objects = _points(20, seed=3)
        brute = make_index("brute", EuclideanDistance(), bound_cache=cache)
        brute.build(objects)
        vp = make_index("vptree", EuclideanDistance(), seed=0, bound_cache=cache)
        vp.build(objects)
        query = np.zeros(3)
        brute.nearest(query, k=2)  # pays for all 20 distances
        result = vp.nearest(query, k=2)
        assert result.n_calls == 0  # vp-tree serves entirely from the cache


class TestCFTreeIndex:
    def test_from_tree_queries_match_brute(self):
        metric = EuclideanDistance()
        model = _fit_bubble(_points(60, seed=1), metric)
        index = CFTreeIndex.from_tree(model.tree_, metric=metric)
        query = np.zeros(3)
        row = metric.one_to_many(query, list(index.objects))
        expected = sorted((float(v), i) for i, v in enumerate(row))[:4]
        got = [(n.distance, n.index) for n in index.nearest(query, k=4)]
        assert got == expected

    def test_stale_after_tree_mutation(self):
        model = _fit_bubble(_points(30, seed=2))
        index = CFTreeIndex.from_tree(model.tree_)
        index.nearest(np.zeros(3))  # fine while fresh
        model.tree_.insert(np.full(3, 50.0))
        with pytest.raises(StaleIndexError):
            index.nearest(np.zeros(3))

    def test_empty_tree_rejected(self):
        metric = EuclideanDistance()
        model = BUBBLE(metric, threshold=0.0, max_nodes=None, seed=0)
        with pytest.raises((EmptyDatasetError, NotFittedError)):
            model.index()

    def test_build_grows_private_tree(self):
        index = make_index("cftree", EuclideanDistance())
        index.build(_points(25, seed=4))
        result = index.nearest(np.zeros(3), k=2)
        assert result.neighbors
        assert index.stats.build_calls > 0

    def test_fresh_fit_builds_every_leaf_geometry_at_adoption(self):
        # Clustered data under a node budget: objects are absorbed into
        # full leaves, so no leaf may arrive with geometry from the scan.
        metric = EuclideanDistance()
        rng = np.random.default_rng(9)
        centers = rng.uniform(0, 20, size=(6, 3))
        objects = [centers[i % 6] + 0.5 * rng.normal(size=3) for i in range(300)]
        model = BUBBLE(
            metric, max_nodes=30, branching_factor=6, sample_size=12,
            representation_number=4, seed=0,
        ).fit(objects)
        leaves = list(model.tree_.leaves())
        index = model.index()
        assert index.stats.extras["geometry_builds"] == len(leaves)
        assert index.stats.extras["maintenance_evals"] == sum(
            len(leaf.entries) ** 2 for leaf in leaves
        )
        for query in objects[:10] + [np.zeros(3)]:
            got = [(n.distance, n.index) for n in index.nearest(query, k=5)]
            assert got == brute_force_reference(metric, index.objects, query, 5)
        # A second adoption of the unchanged tree reuses every cached row.
        again = model.index()
        assert again.stats.extras == {"maintenance_evals": 0, "geometry_builds": 0}

    def test_model_index_accessor(self):
        model = _fit_bubble(_points(40, seed=5))
        index = model.index()
        assert index.backend == "cftree"
        assert len(index) == len(model.clustroids_)
        mt = model.index(backend="mtree")
        assert mt.backend == "mtree"
        assert len(mt) == len(model.clustroids_)


class TestCheckpointRoundTrip:
    def test_restored_checkpoint_serves_queries(self, tmp_path):
        metric = EuclideanDistance()
        model = _fit_bubble(_points(50, seed=6), metric)
        path = tmp_path / "scan.ckpt"
        save_checkpoint(path, model.tree_, cursor=50)
        fresh_metric = EuclideanDistance()
        ck = load_checkpoint(path, fresh_metric)
        index = ck.index()
        # Leaf geometry is uncounted maintenance: the counted index build
        # is only the non-leaf anchor gathers, far below one brute scan.
        assert index.stats.build_calls < len(index)
        query = np.zeros(3)
        row = fresh_metric.one_to_many(query, list(index.objects))
        expected = sorted((float(v), i) for i, v in enumerate(row))[:3]
        assert [(n.distance, n.index) for n in index.nearest(query, k=3)] == expected

    def test_restored_index_stats_flow(self, tmp_path):
        metric = EuclideanDistance()
        model = _fit_bubble(_points(30, seed=7), metric)
        path = tmp_path / "scan.ckpt"
        save_checkpoint(path, model.tree_, cursor=30)
        ck = load_checkpoint(path, EuclideanDistance())
        index = ck.index()
        index.nearest(np.zeros(3), k=2)
        doc = index.stats.as_dict()
        assert doc["n_queries"] == 1 and doc["n_knn"] == 1
        assert doc["query_calls"] == doc["last_query_calls"] > 0


class TestStatsSnapshotIntegration:
    def test_apply_index_embeds_query_counters(self):
        from repro.observability.stats import StatsSnapshot

        metric = EuclideanDistance()
        model = _fit_bubble(_points(40, seed=8), metric)
        index = model.index()
        index.nearest(np.zeros(3), k=2)
        index.within(np.zeros(3), 1.0)
        snapshot = StatsSnapshot.from_tree(model.tree_, metric=metric)
        snapshot.apply_index(index)
        assert snapshot.query is not None
        assert snapshot.query["n_queries"] == 2
        assert snapshot.query["backend"] == "cftree"
        assert snapshot.query["bound_cache"]["misses"] >= 0
        text = snapshot.format()
        assert "queries served" in text
        assert "query NCD" in text


class TestStringBackends:
    def test_edit_distance_queries_exact(self):
        words = ["cat", "cot", "dog", "dogs", "cart", "", "act"]
        metric = EditDistance()
        expected_row = metric.one_to_many("cat", words)
        expected = sorted((float(v), i) for i, v in enumerate(expected_row))
        for backend in ("brute", "mtree", "vptree"):
            index = make_index(backend, EditDistance())
            index.build(words)
            got = [(n.distance, n.index) for n in index.nearest("cat", k=3)]
            assert got == expected[:3], backend
            within = index.within("cat", 1.0)
            assert [(n.distance, n.index) for n in within] == [
                (v, i) for v, i in expected if v <= 1.0
            ], backend
