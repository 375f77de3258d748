"""Refinement phase (BIRCH Phase 4) for distance and coordinate spaces.

BIRCH optionally ends with a refinement pass: re-assign every object to its
closest final center, recompute the centers from the assignments, and
repeat. It repairs the small inaccuracies pre-clustering introduces (objects
absorbed by the "wrong" nearby cluster early in the scan).

In a coordinate space the recomputed center is the centroid. In a distance
space it must be a member object; recomputing the exact clustroid of a large
cluster costs O(n^2) distance calls, so we recompute it from a bounded
random sample of members — the same "sampled medoid" compromise BUBBLE's
own CF* maintenance embodies.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import ParameterError
from repro.metrics.base import DistanceFunction, site
from repro.pipelines.labeling import nearest_assignment
from repro.utils.rng import ensure_rng
from repro.utils.sampling import sample_without_replacement

__all__ = ["refine_labels"]


def refine_labels(
    objects: Sequence,
    metric: DistanceFunction,
    centers: Sequence,
    labels: np.ndarray | None = None,
    iterations: int = 2,
    center_method: str = "auto",
    medoid_sample: int = 64,
    seed=None,
) -> tuple[np.ndarray, list]:
    """Iteratively re-assign objects and re-derive centers.

    Parameters
    ----------
    objects, metric:
        The dataset and its distance function.
    centers:
        Initial cluster centers (from the global phase).
    labels:
        Optional current labels; computed from ``centers`` if omitted.
    iterations:
        Refinement rounds. Each round costs one exact labeling scan
        (:func:`~repro.pipelines.labeling.nearest_assignment`: at most
        ``N * K`` calls, usually far fewer, plus ``K(K-1)/2`` for the new
        centers' distance matrix) and the center recomputation.
    center_method:
        ``"centroid"`` (vector mean), ``"medoid"`` (sampled clustroid), or
        ``"auto"`` (centroid when centers are numeric vectors).
    medoid_sample:
        Members sampled per cluster when recomputing a medoid.

    Returns
    -------
    ``(labels, centers)`` after the final round. Empty clusters keep their
    previous center.

    Every distance call is charged to the ``refine`` ledger site.
    """
    if iterations < 1:
        raise ParameterError(f"iterations must be >= 1, got {iterations}")
    if center_method not in ("auto", "centroid", "medoid"):
        raise ParameterError(f"unknown center_method {center_method!r}")
    if len(centers) == 0:
        raise ParameterError("refine_labels requires at least one center")
    rng = ensure_rng(seed)
    objects = list(objects)
    centers = list(centers)
    if center_method == "auto":
        center_method = "centroid" if _is_vector(centers[0]) else "medoid"

    with site("refine"):
        if labels is None:
            labels = nearest_assignment(metric, objects, centers)
        labels = np.asarray(labels, dtype=np.intp)

        for _ in range(iterations):
            new_centers = []
            for cluster in range(len(centers)):
                members = [objects[i] for i in np.flatnonzero(labels == cluster)]
                if not members:
                    new_centers.append(centers[cluster])
                    continue
                if center_method == "centroid":
                    new_centers.append(np.asarray(members, dtype=np.float64).mean(axis=0))
                else:
                    new_centers.append(_sampled_medoid(metric, members, medoid_sample, rng))
            centers = new_centers
            labels = nearest_assignment(metric, objects, centers)
    return labels, centers


def _sampled_medoid(metric: DistanceFunction, members: list, cap: int, rng):
    candidates = sample_without_replacement(members, cap, rng)
    reference = candidates  # measure candidates against each other
    best, best_rowsum = candidates[0], np.inf
    for candidate in candidates:
        dists = metric.one_to_many(candidate, reference)
        rowsum = float(np.dot(dists, dists))
        if rowsum < best_rowsum:
            best, best_rowsum = candidate, rowsum
    return best


def _is_vector(obj) -> bool:
    try:
        arr = np.asarray(obj, dtype=np.float64)
    except (TypeError, ValueError):
        return False
    return arr.ndim == 1 and arr.size > 0
