"""The Map-First baseline (Section 6.2).

"One possible approach for clustering data in a distance space is to map all
N objects into a coordinate space using FastMap, and then cluster the
resultant vectors using a scalable clustering algorithm for data in a
coordinate space." The paper shows this loses badly on quality (Table 1);
this module implements it so the comparison can be regenerated:

1. FastMap all objects into R^k (O(N k) distance calls);
2. run vector-space BIRCH over the image vectors;
3. global phase: hierarchical clustering of the BIRCH sub-cluster centroids
   down to the requested cluster count;
4. label every object by its nearest final center *in the image space*.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.birch import BIRCH
from repro.exceptions import ParameterError
from repro.fastmap import FastMap
from repro.hac import AgglomerativeClusterer
from repro.metrics.base import DistanceFunction, site
from repro.metrics.vector import EuclideanDistance

__all__ = ["MapFirstResult", "map_first_cluster"]


@dataclass
class MapFirstResult:
    """Output of the Map-First pipeline."""

    #: Per-object cluster labels (assigned in the image space).
    labels: np.ndarray
    #: Final cluster centers in the image space.
    image_centers: np.ndarray
    #: The image vectors of all objects.
    images: np.ndarray
    #: Calls to the original distance function (all from FastMap).
    n_distance_calls: int
    #: Wall-clock seconds of the whole pipeline.
    total_seconds: float

    @property
    def n_clusters(self) -> int:
        return len(self.image_centers)


def map_first_cluster(
    objects: Sequence,
    metric: DistanceFunction,
    n_clusters: int,
    image_dim: int,
    max_nodes: int | None = None,
    branching_factor: int = 15,
    fm_iterations: int = 1,
    linkage: str = "average",
    seed=None,
) -> MapFirstResult:
    """FastMap the dataset, then BIRCH + hierarchical global phase."""
    if n_clusters < 1:
        raise ParameterError(f"n_clusters must be >= 1, got {n_clusters}")
    start = time.perf_counter()
    calls_before = metric.n_calls

    # Every distance call of the pipeline (FastMap on the metric, then the
    # image-space BIRCH and global phase) is charged to one site.
    with site("map-first"):
        fastmap = FastMap(metric, image_dim, iterations=fm_iterations, seed=seed)
        images = fastmap.fit(list(objects))

        birch = BIRCH(
            branching_factor=branching_factor, max_nodes=max_nodes, seed=seed
        ).fit(list(images))
        subclusters = birch.subclusters_
        centroids = [np.asarray(s.clustroid) for s in subclusters]
        weights = [s.n for s in subclusters]

        k = min(n_clusters, len(centroids))
        hac = AgglomerativeClusterer(n_clusters=k, linkage=linkage)
        hac.fit(objects=centroids, metric=EuclideanDistance(), weights=weights)

    centers = np.vstack(
        [
            np.average(
                np.asarray([centroids[i] for i in np.flatnonzero(hac.labels_ == c)]),
                axis=0,
                weights=[weights[i] for i in np.flatnonzero(hac.labels_ == c)],
            )
            for c in range(hac.n_clusters_)
        ]
    )

    # Label in the image space: no further calls to the (expensive) metric.
    # Gram-matrix form keeps memory at O(N * K) instead of O(N * K * dim).
    x_sq = np.einsum("ij,ij->i", images, images)
    c_sq = np.einsum("ij,ij->i", centers, centers)
    d2 = x_sq[:, None] + c_sq[None, :] - 2.0 * (images @ centers.T)
    labels = np.argmin(d2, axis=1).astype(np.intp)

    return MapFirstResult(
        labels=labels,
        image_centers=centers,
        images=images,
        n_distance_calls=metric.n_calls - calls_before,
        total_seconds=time.perf_counter() - start,
    )
