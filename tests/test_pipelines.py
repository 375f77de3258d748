"""Unit tests for the end-to-end pipelines."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import make_authority_dataset, make_cell_dataset
from repro.evaluation import adjusted_rand_index, distortion
from repro.exceptions import ParameterError
from repro.metrics import EditDistance, EuclideanDistance
from repro.observability import Tracer
from repro.pipelines import (
    cluster_dataset,
    labeling,
    map_first_cluster,
    nearest_assignment,
)


class TestNearestAssignment:
    def test_basic(self, euclidean):
        centers = [np.array([0.0, 0.0]), np.array([10.0, 0.0])]
        labels = nearest_assignment(
            euclidean, [np.array([1.0, 0.0]), np.array([9.0, 0.0])], centers
        )
        np.testing.assert_array_equal(labels, [0, 1])

    def test_empty_centers(self, euclidean):
        with pytest.raises(ParameterError):
            nearest_assignment(euclidean, [np.zeros(2)], [])



def _linear_labels(metric, objects, centers):
    """The unpruned reference: one full gather per object, first argmin."""
    return np.asarray(
        [int(np.argmin(metric.one_to_many(o, centers))) for o in objects], dtype=np.intp
    )


_grid_points = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=0, max_size=40
)
_words = st.lists(st.text(alphabet="ab", max_size=4), min_size=0, max_size=30)


class TestNearestAssignmentExact:
    """The pruned search returns the linear argmin's labels, ties included."""

    @settings(max_examples=150, deadline=None)
    @given(
        objects=_grid_points,
        centers=_grid_points.filter(len),
        dup=st.booleans(),
        block_cells=st.sampled_from([1, 8, 1 << 18]),
        stream=st.booleans(),
    )
    def test_vectors_on_an_integer_grid(self, objects, centers, dup, block_cells, stream):
        centers = [np.array(c, dtype=np.float64) for c in centers]
        if dup:  # duplicate centers, and objects equal to centers
            centers = centers + centers[:1]
        objects = [np.array(o, dtype=np.float64) for o in objects]
        if dup:
            objects = objects + centers
        want = _linear_labels(EuclideanDistance(), objects, centers)
        with patch.object(labeling, "_BLOCK_CELLS", block_cells):
            got = nearest_assignment(
                EuclideanDistance(), iter(objects) if stream else objects, centers
            )
        np.testing.assert_array_equal(got, want)
        assert got.dtype == np.intp

    @settings(max_examples=150, deadline=None)
    @given(
        objects=_words,
        centers=_words.filter(len),
        block_cells=st.sampled_from([1, 8, 1 << 18]),
        stream=st.booleans(),
    )
    def test_edit_distance_with_integer_ties(self, objects, centers, block_cells, stream):
        want = _linear_labels(EditDistance(), objects, centers)
        with patch.object(labeling, "_BLOCK_CELLS", block_cells):
            got = nearest_assignment(
                EditDistance(), iter(objects) if stream else objects, centers
            )
        np.testing.assert_array_equal(got, want)

    def test_rounding_cannot_prune_a_tied_center(self):
        # |d(x, p) - d(p, c)| computes a hair above d(x, c) here; without
        # the bound slack the search would drop a center that wins.
        centers = [np.array(c, dtype=np.float64)
                   for c in [(0, 4), (1, 0), (5, 4), (6, 1), (1, 7), (3, 4)]]
        objects = [np.array([4.0, 3.0])]
        np.testing.assert_array_equal(
            nearest_assignment(EuclideanDistance(), objects * 4, centers),
            _linear_labels(EuclideanDistance(), objects * 4, centers),
        )

    def test_no_objects(self, euclidean):
        got = nearest_assignment(euclidean, iter([]), [np.zeros(2), np.ones(2)])
        assert got.shape == (0,) and got.dtype == np.intp
        assert euclidean.n_calls == 0

    def test_single_center_gathers_once_per_block(self, euclidean):
        points = [np.full(2, float(i)) for i in range(7)]
        with patch.object(labeling, "_BLOCK_CELLS", 3):
            got = nearest_assignment(euclidean, points, [np.zeros(2)])
        np.testing.assert_array_equal(got, np.zeros(7))
        assert euclidean.n_calls == 7

    def test_supplied_center_matrix_is_not_remeasured(self, euclidean):
        centers = [np.zeros(2), np.full(2, 10.0), np.full(2, 20.0)]
        matrix = EuclideanDistance().pairwise(centers)
        points = [np.full(2, float(i)) for i in range(21)]
        got = nearest_assignment(euclidean, points, centers, center_dists=matrix)
        np.testing.assert_array_equal(got, _linear_labels(euclidean, points, centers))
        euclidean.reset_counter()
        nearest_assignment(euclidean, points, centers, center_dists=matrix)
        assert euclidean.n_calls < len(points) * len(centers)


class TestNearestAssignmentCost:
    def test_separated_blobs_cost_under_a_quarter_of_n_k(self):
        ds = make_cell_dataset(dim=10, n_clusters=20, n_points=2000, seed=4)
        objects = ds.as_objects()
        centers = [
            np.mean([objects[i] for i in np.flatnonzero(ds.labels == c)], axis=0)
            for c in range(20)
        ]
        metric = EuclideanDistance()
        got = nearest_assignment(metric, objects, centers)
        assert metric.n_calls < len(objects) * len(centers) / 4
        np.testing.assert_array_equal(
            got, _linear_labels(EuclideanDistance(), objects, centers)
        )

    def test_calls_land_in_redistribute_under_a_tracer(self):
        ds = make_cell_dataset(dim=5, n_clusters=6, n_points=600, seed=2)
        metric = EuclideanDistance()
        tracer = Tracer()
        res = cluster_dataset(
            ds.as_objects(), metric, n_clusters=6, max_nodes=20, seed=0, tracer=tracer
        )
        by_site = tracer.calls_by_site
        assert sum(by_site.values()) == metric.n_calls
        assert "unattributed" not in by_site
        k = res.n_clusters
        # The centroid centers' matrix plus the search, all under one site.
        assert k * (k - 1) // 2 < by_site["redistribute"] < len(ds.points) * k


def _parent_medoid_run(objects, metric, res):
    """Centers and labels of the unpruned pipeline over the same global
    phase: each weighted medoid from per-member gathers, then the linear
    argmin over every center."""
    clustroids = [s.clustroid for s in res.subclusters]
    weights = [s.n for s in res.subclusters]
    centers = []
    for cluster in range(res.n_clusters):
        idx = np.flatnonzero(res.subcluster_labels == cluster)
        group = [clustroids[i] for i in idx]
        w = np.asarray([weights[i] for i in idx], dtype=np.float64)
        best, best_cost = None, np.inf
        for obj in group:
            cost = float(np.dot(w, metric.one_to_many(obj, group) ** 2))
            if cost < best_cost:
                best, best_cost = obj, cost
        centers.append(best)
    return centers, _linear_labels(metric, objects, centers)


class TestMedoidCentersMatchTheUnprunedPipeline:
    def test_strings(self):
        ds = make_authority_dataset(n_classes=8, n_strings=60, seed=3)
        res = cluster_dataset(list(ds.strings), EditDistance(), n_clusters=8, seed=1)
        centers, labels = _parent_medoid_run(list(ds.strings), EditDistance(), res)
        assert res.centers == centers
        np.testing.assert_array_equal(res.labels, labels)

    def test_vectors(self, blob_data):
        points, _, _ = blob_data
        res = cluster_dataset(
            points, EuclideanDistance(), n_clusters=5, max_nodes=10,
            center_method="medoid", seed=0,
        )
        centers, labels = _parent_medoid_run(points, EuclideanDistance(), res)
        for got, want in zip(res.centers, centers):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(res.labels, labels)

    def test_hac_medoids_reuse_the_clustroid_matrix(self):
        ds = make_authority_dataset(n_classes=8, n_strings=60, seed=3)
        tracer = Tracer()
        res = cluster_dataset(
            list(ds.strings), EditDistance(), n_clusters=8, seed=1, tracer=tracer
        )
        n = len(res.subclusters)
        assert tracer.calls_by_site["global-phase"] == n * (n - 1) // 2


class TestClusterDataset:
    @pytest.mark.parametrize("algorithm", ["bubble", "bubble-fm"])
    def test_recovers_blob_structure(self, blob_data, algorithm):
        points, labels, centers = blob_data
        res = cluster_dataset(
            points,
            EuclideanDistance(),
            n_clusters=5,
            algorithm=algorithm,
            max_nodes=10,
            image_dim=2,
            seed=0,
        )
        assert res.n_clusters == 5
        assert adjusted_rand_index(labels, res.labels) > 0.95

    def test_rejects_unknown_algorithm(self, blob_data):
        points, _, _ = blob_data
        with pytest.raises(ParameterError):
            cluster_dataset(points, EuclideanDistance(), 3, algorithm="kmeans")

    def test_rejects_unknown_center_method(self, blob_data):
        points, _, _ = blob_data
        with pytest.raises(ParameterError):
            cluster_dataset(points, EuclideanDistance(), 3, center_method="mean")

    def test_skip_assignment(self, blob_data):
        points, _, _ = blob_data
        res = cluster_dataset(
            points, EuclideanDistance(), 5, max_nodes=10, assign=False, seed=0
        )
        assert res.labels is None
        assert res.n_clusters == 5

    def test_vector_centers_are_centroids(self, blob_data):
        points, _, centers = blob_data
        res = cluster_dataset(points, EuclideanDistance(), 5, max_nodes=10, seed=0)
        found = np.vstack(res.centers)
        for c in centers:
            assert np.min(np.linalg.norm(found - c, axis=1)) < 0.5

    def test_string_centers_are_medoids(self):
        ds = make_authority_dataset(n_classes=8, n_strings=60, seed=0)
        metric = EditDistance()
        res = cluster_dataset(
            ds.strings, metric, n_clusters=8, algorithm="bubble", seed=0
        )
        # Medoid centers must be actual strings from the dataset.
        for c in res.centers:
            assert isinstance(c, str)
            assert c in ds.strings

    def test_diagnostics_populated(self, blob_data):
        points, _, _ = blob_data
        res = cluster_dataset(points, EuclideanDistance(), 5, max_nodes=10, seed=0)
        assert res.n_distance_calls > 0
        assert 0 < res.scan_seconds <= res.total_seconds
        assert res.model is not None
        assert len(res.subcluster_labels) == len(res.subclusters)

    def test_n_clusters_capped_by_subclusters(self, euclidean):
        # Only 2 distinct objects -> at most 2 clusters even if 10 requested.
        points = [np.zeros(2)] * 10 + [np.ones(2) * 5] * 10
        res = cluster_dataset(points, euclidean, 10, seed=0)
        assert res.n_clusters == 2


class TestMapFirst:
    def test_runs_and_labels(self, blob_data):
        points, labels, _ = blob_data
        res = map_first_cluster(
            points, EuclideanDistance(), n_clusters=5, image_dim=2, max_nodes=10, seed=0
        )
        assert res.labels.shape == (len(points),)
        assert res.images.shape == (len(points), 2)
        assert res.n_clusters == 5

    def test_quality_on_easy_data(self, blob_data):
        points, labels, _ = blob_data
        res = map_first_cluster(
            points, EuclideanDistance(), n_clusters=5, image_dim=2, max_nodes=10, seed=0
        )
        # 2-d Euclidean data maps near-isometrically: quality should be fine.
        assert adjusted_rand_index(labels, res.labels) > 0.8

    def test_ncd_only_from_fastmap(self, blob_data):
        points, _, _ = blob_data
        metric = EuclideanDistance()
        res = map_first_cluster(points, metric, 5, image_dim=2, max_nodes=10, seed=0)
        # FastMap cost is O(N * k); nothing else may touch the metric.
        n, k = len(points), 2
        assert res.n_distance_calls <= (2 * 1 + 1) * n * k + 4 * k * k

    def test_rejects_bad_n_clusters(self, blob_data):
        points, _, _ = blob_data
        with pytest.raises(ParameterError):
            map_first_cluster(points, EuclideanDistance(), 0, image_dim=2)


class TestQualityComparison:
    def test_bubble_beats_or_ties_map_first_on_high_dim(self):
        """Table 1's qualitative claim at miniature scale: pre-clustering in
        the original space is at least as good as Map-First on the
        cell dataset."""
        ds = make_cell_dataset(dim=10, n_clusters=8, n_points=800, seed=0)
        bubble = cluster_dataset(
            ds.as_objects(), EuclideanDistance(), 8, max_nodes=30, seed=1
        )
        mf = map_first_cluster(
            ds.as_objects(), EuclideanDistance(), 8, image_dim=10, max_nodes=30, seed=1
        )
        d_bubble = distortion(ds.points, bubble.labels)
        d_mf = distortion(ds.points, mf.labels)
        assert d_bubble <= d_mf * 1.05


class TestGlobalMethod:
    def test_clarans_global_phase(self, blob_data):
        points, labels, _ = blob_data
        res = cluster_dataset(
            points,
            EuclideanDistance(),
            n_clusters=5,
            global_method="clarans",
            max_nodes=10,
            seed=0,
        )
        assert res.n_clusters == 5
        assert adjusted_rand_index(labels, res.labels) > 0.9

    def test_unknown_global_method(self, blob_data):
        points, _, _ = blob_data
        with pytest.raises(ParameterError):
            cluster_dataset(points, EuclideanDistance(), 3, global_method="kmeans")
