"""Unit tests for metric-space DBSCAN over the M-tree."""

import numpy as np
import pytest

from repro.dbscan import NOISE, MetricDBSCAN
from repro.exceptions import EmptyDatasetError, NotFittedError, ParameterError
from repro.metrics import EditDistance, EuclideanDistance


class TestValidation:
    def test_params(self):
        m = EuclideanDistance()
        with pytest.raises(ParameterError):
            MetricDBSCAN(eps=0, min_pts=3, metric=m)
        with pytest.raises(ParameterError):
            MetricDBSCAN(eps=1.0, min_pts=0, metric=m)
        with pytest.raises(ParameterError):
            MetricDBSCAN(eps=1.0, min_pts=3, metric="euclid")

    def test_empty(self):
        with pytest.raises(EmptyDatasetError):
            MetricDBSCAN(1.0, 3, EuclideanDistance()).fit([])

    def test_not_fitted(self):
        model = MetricDBSCAN(1.0, 3, EuclideanDistance())
        with pytest.raises(NotFittedError):
            _ = model.n_clusters_


class TestBasicClustering:
    def test_two_blobs_and_noise(self, rng):
        pts = list(np.array([0.0, 0.0]) + 0.2 * rng.normal(size=(50, 2)))
        pts += list(np.array([10.0, 10.0]) + 0.2 * rng.normal(size=(50, 2)))
        pts.append(np.array([5.0, 5.0]))  # isolated noise
        model = MetricDBSCAN(eps=0.5, min_pts=4, metric=EuclideanDistance()).fit(pts)
        assert model.n_clusters_ == 2
        assert model.labels_[-1] == NOISE
        # All members of each blob share a label.
        assert len(set(model.labels_[:50].tolist())) == 1
        assert len(set(model.labels_[50:100].tolist())) == 1
        assert model.labels_[0] != model.labels_[50]

    def test_all_noise(self, rng):
        pts = [np.array([float(i * 100), 0.0]) for i in range(10)]
        model = MetricDBSCAN(eps=1.0, min_pts=3, metric=EuclideanDistance()).fit(pts)
        assert model.n_clusters_ == 0
        assert model.n_noise_ == 10

    def test_single_dense_cluster(self, rng):
        pts = list(0.1 * rng.normal(size=(40, 2)))
        model = MetricDBSCAN(eps=0.5, min_pts=3, metric=EuclideanDistance()).fit(pts)
        assert model.n_clusters_ == 1
        assert model.n_noise_ == 0

    def test_min_pts_one_every_object_core(self):
        pts = [np.array([float(i * 10), 0.0]) for i in range(5)]
        model = MetricDBSCAN(eps=1.0, min_pts=1, metric=EuclideanDistance()).fit(pts)
        assert model.n_clusters_ == 5
        assert bool(model.core_mask_.all())


class TestArbitraryShapes:
    def test_elongated_chain_found_as_one_cluster(self):
        """The density-based advantage: a chain is one cluster for DBSCAN
        even though no single center covers it."""
        pts = [np.array([0.1 * i, 0.0]) for i in range(200)]  # a long line
        pts += [np.array([10.0, 8.0]), np.array([-5.0, 8.0])]  # two noise pts
        model = MetricDBSCAN(eps=0.25, min_pts=3, metric=EuclideanDistance()).fit(pts)
        assert model.n_clusters_ == 1
        assert model.n_noise_ == 2

    def test_two_concentric_rings(self, rng):
        angles = np.linspace(0, 2 * np.pi, 150, endpoint=False)
        inner = np.column_stack([np.cos(angles), np.sin(angles)])
        outer = 4.0 * np.column_stack([np.cos(angles), np.sin(angles)])
        pts = list(inner) + list(outer)
        model = MetricDBSCAN(eps=0.5, min_pts=3, metric=EuclideanDistance()).fit(pts)
        assert model.n_clusters_ == 2
        assert model.labels_[0] != model.labels_[150]


class TestDistanceSpace:
    def test_clusters_strings(self):
        words = (["cat", "cats", "bat", "rat", "mat"] * 3
                 + ["clustering", "clustering!", "clusterings"] * 3
                 + ["zzzzzzz"])
        model = MetricDBSCAN(eps=1.0, min_pts=3, metric=EditDistance()).fit(words)
        assert model.n_clusters_ == 2
        assert model.labels_[-1] == NOISE

    def test_core_mask_shape(self, blob_data):
        points, _, _ = blob_data
        model = MetricDBSCAN(eps=1.0, min_pts=4, metric=EuclideanDistance()).fit(points)
        assert model.core_mask_.shape == (len(points),)
        # Core objects are a subset of clustered objects.
        assert np.all(model.labels_[model.core_mask_] != NOISE)


class TestAgainstBruteForce:
    def test_matches_naive_dbscan(self, rng):
        """Cross-check labels against a brute-force O(n^2) implementation."""
        pts = list(rng.uniform(0, 10, size=(120, 2)))
        eps, min_pts = 1.2, 4
        model = MetricDBSCAN(eps, min_pts, EuclideanDistance()).fit(pts)

        # Brute force.
        arr = np.asarray(pts)
        d2 = ((arr[:, None, :] - arr[None, :, :]) ** 2).sum(axis=2)
        neighbours = [set(np.flatnonzero(d2[i] <= eps**2)) for i in range(len(pts))]
        core = {i for i, nb in enumerate(neighbours) if len(nb) >= min_pts}
        # Connected components of core objects.
        seen, comps = set(), []
        for i in core:
            if i in seen:
                continue
            comp, stack = set(), [i]
            while stack:
                j = stack.pop()
                if j in comp:
                    continue
                comp.add(j)
                stack.extend(k for k in neighbours[j] if k in core and k not in comp)
            seen |= comp
            comps.append(comp)
        # The partition of CORE objects is implementation-independent.
        got = {}
        for comp in comps:
            labels = {int(model.labels_[i]) for i in comp}
            assert len(labels) == 1, "core component split across clusters"
            label = labels.pop()
            assert label not in got, "two core components share a label"
            got[label] = comp
        assert set(np.flatnonzero(model.core_mask_)) == core


def brute_dbscan(metric, objects, eps, min_pts):
    """Reference DBSCAN over brute-force eps-neighbourhoods."""
    hoods = [
        np.flatnonzero(metric.one_to_many(obj, objects) <= eps).tolist()
        for obj in objects
    ]
    labels = np.full(len(objects), NOISE, dtype=np.intp)
    visited = np.zeros(len(objects), dtype=bool)
    cluster = 0
    for start in range(len(objects)):
        if visited[start]:
            continue
        visited[start] = True
        if len(hoods[start]) < min_pts:
            continue
        labels[start] = cluster
        queue = list(hoods[start])
        while queue:
            j = queue.pop()
            if labels[j] == NOISE:
                labels[j] = cluster
            if not visited[j]:
                visited[j] = True
                if len(hoods[j]) >= min_pts:
                    queue.extend(hoods[j])
        cluster += 1
    return labels


class TestBruteForceReference:
    def test_vector_labels_equal_reference(self, rng):
        centers = rng.uniform(0, 10, size=(4, 2))
        pts = [centers[i % 4] + 0.4 * rng.normal(size=2) for i in range(160)]
        pts += list(rng.uniform(0, 10, size=(20, 2)))  # scattered noise
        model = MetricDBSCAN(eps=0.35, min_pts=4, metric=EuclideanDistance()).fit(pts)
        expected = brute_dbscan(EuclideanDistance(), pts, 0.35, 4)
        np.testing.assert_array_equal(model.labels_, expected)

    def test_string_labels_equal_reference(self, rng):
        alphabet = list("abcd")
        words = [
            "".join(rng.choice(alphabet, size=int(rng.integers(3, 7))))
            for _ in range(80)
        ]
        model = MetricDBSCAN(eps=1.0, min_pts=3, metric=EditDistance()).fit(words)
        expected = brute_dbscan(EditDistance(), words, 1.0, 3)
        np.testing.assert_array_equal(model.labels_, expected)
