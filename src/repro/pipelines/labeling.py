"""Second-scan labeling: associate every object with its closest center.

Section 6.1: "The dataset D is scanned a second time to associate each
object O in D with a cluster whose representative object is closest to O."

The scan is exact but does not measure every object against every center.
With only ``k`` centers, their pairwise distances fit in one ``k x k``
matrix, and the triangle inequality turns each measured ``d(x, p)`` into a
lower bound ``|d(x, p) - d(p, c)|`` on every other center ``c`` (the
AESA / Anchors Hierarchy argument for cached distances, PAPERS.md). An
object stops once no unmeasured center can beat, or tie from a lower
index, the best one measured, so the labels equal
``argmin(metric.one_to_many(obj, centers))`` with its first-index tie rule.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, islice

import numpy as np

from repro.exceptions import ParameterError
from repro.metrics.base import DistanceFunction

__all__ = ["nearest_assignment"]

#: Search state per block, in cells (objects x centers): 2 MB of float64.
_BLOCK_CELLS = 1 << 18

#: Most objects per block, which bounds what one gather holds at once. A
#: block has ``min(_BLOCK_CELLS // k, _BLOCK_OBJECTS)`` objects (at least
#: one), so memory stays fixed however many objects stream through;
#: larger blocks put more objects in each per-center gather.
_BLOCK_OBJECTS = 1024

#: Slack taken off every triangle-inequality bound ``|d(x, p) - d(p, c)|``,
#: relative to ``d(x, p)`` plus the largest center distance, so rounding in
#: the metric's kernels (or in a supplied center matrix) never prunes a
#: center that wins or ties. It costs an extra evaluation only where a
#: bound lands exactly on the best distance.
_BOUND_SLACK = 1e-9


def nearest_assignment(
    metric: DistanceFunction,
    objects: Iterable,
    centers: Sequence,
    center_dists: np.ndarray | None = None,
) -> np.ndarray:
    """Label each object with the index of its nearest center.

    ``center_dists`` is the ``k x k`` distance matrix of ``centers`` when
    the caller already holds it (medoids' block of the global phase's
    matrix); its entries must be accurate to about ``_BOUND_SLACK``
    relative. Otherwise it is measured here, ``k(k-1)/2`` calls, when the
    search can pay for it (more than ``k/2`` objects). Objects are read in
    blocks, so a generator streams.

    Each object measures first the center with the least lower bound, and
    stops when every unmeasured center is provably no closer. Every call
    is a counted ``one_to_many``: one per distinct center per round
    (``d(center, x)``; the metric is symmetric), and one per object left
    once a round has more distinct centers than objects. Ties go to the
    lowest center index, as in the linear argmin.
    """
    k = len(centers)
    if k == 0:
        raise ParameterError("nearest_assignment requires at least one center")
    centers = list(centers)
    it = iter(objects)
    # With n objects, measuring the matrix can pay only if
    # n*k > k(k-1)/2 + n, i.e. n > k/2; reading k/2 + 1 objects ahead
    # settles it. Without a matrix, the scan is unpruned.
    head = list(islice(it, k // 2 + 1))
    if k == 1 or (center_dists is None and len(head) <= k / 2):
        center_dists = None
    elif center_dists is None:
        center_dists = _center_matrix(metric, centers)
    size = max(1, min(_BLOCK_CELLS // k, _BLOCK_OBJECTS))
    labels = [
        _scan(metric, centers, block)
        if center_dists is None
        else _search(metric, centers, center_dists, block)
        for block in _blocks(chain(head, it), size)
    ]
    if not labels:
        return np.empty(0, dtype=np.intp)
    return np.concatenate(labels)


def _blocks(it: Iterator, size: int) -> Iterator[list]:
    while block := list(islice(it, size)):
        yield block


def _center_matrix(metric: DistanceFunction, centers: list) -> np.ndarray:
    """Center-to-center distances from the metric's row kernel (not
    ``pairwise``: Euclidean's Gram-matrix form can lose more precision on
    close centers than the bound slack allows)."""
    k = len(centers)
    dists = np.zeros((k, k), dtype=np.float64)
    for i in range(k - 1):
        row = metric.one_to_many(centers[i], centers[i + 1 :])
        dists[i, i + 1 :] = row
        dists[i + 1 :, i] = row
    return dists


def _scan(metric: DistanceFunction, centers: list, block: list) -> np.ndarray:
    """Unpruned labels: one center-major gather per center."""
    dists = np.stack([metric.one_to_many(c, block) for c in centers])
    return np.argmin(dists, axis=0).astype(np.intp)


def _search(
    metric: DistanceFunction, centers: list, center_dists: np.ndarray, block: list
) -> np.ndarray:
    """Exact best-first search of one block over the center matrix.

    Only live objects carry state: ``lower`` holds each one's bound per
    center (``inf`` once measured), ``best``/``arg`` its closest center so
    far. Retired rows are dropped, so a round touches only the rows it
    measures.
    """
    n, k = len(block), len(centers)
    labels = np.empty(n, dtype=np.intp)
    rows = np.arange(n)
    lower = np.zeros((n, k), dtype=np.float64)
    best = np.full(n, np.inf)
    arg = np.zeros(n, dtype=np.intp)
    span = float(center_dists.max())
    while True:
        pick = np.argmin(lower, axis=1)
        low = lower[np.arange(len(rows)), pick]
        # The least bound is at the lowest index among equal bounds, so an
        # object is done when it exceeds the best, or meets it above arg.
        done = (low > best) | ((low >= best) & (pick > arg)) | np.isinf(low)
        if done.any():
            labels[rows[done]] = arg[done]
            keep = ~done
            rows, lower, best, arg, pick = (
                rows[keep], lower[keep], best[keep], arg[keep], pick[keep]
            )
        if not len(rows):
            return labels
        if len(rows) <= np.count_nonzero(np.bincount(pick)):
            labels[rows] = _finish(metric, centers, block, rows, lower, best, arg)
            return labels
        dist = _gather(metric, centers, block, rows, pick)
        better = (dist < best) | ((dist <= best) & (pick < arg))
        best = np.where(better, dist, best)
        arg = np.where(better, pick, arg)
        bound = center_dists[pick]
        bound -= dist[:, None]
        np.abs(bound, out=bound)
        bound -= (_BOUND_SLACK * (dist + span))[:, None]
        np.maximum(lower, bound, out=lower)
        lower[np.arange(len(rows)), pick] = np.inf


def _gather(
    metric: DistanceFunction, centers: list, block: list, rows: np.ndarray, pick: np.ndarray
) -> np.ndarray:
    """``d(centers[pick[i]], block[rows[i]])``: one counted gather per
    distinct center, over the objects that picked it."""
    dist = np.empty(len(rows), dtype=np.float64)
    order = np.argsort(pick, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(pick[order])) + 1).tolist(), len(order)]
    for start, stop in zip(cuts, cuts[1:]):
        group = order[start:stop]
        members = [block[i] for i in rows[group].tolist()]
        dist[group] = metric.one_to_many(centers[pick[group[0]]], members)
    return dist


def _finish(
    metric: DistanceFunction,
    centers: list,
    block: list,
    rows: np.ndarray,
    lower: np.ndarray,
    best: np.ndarray,
    arg: np.ndarray,
) -> np.ndarray:
    """Label the last live objects with one gather each, over the centers
    their bounds leave open."""
    order = np.arange(len(centers))
    out = np.empty(len(rows), dtype=np.intp)
    for i, row in enumerate(rows):
        bound = lower[i]
        open_ = np.flatnonzero(
            (bound < best[i]) | ((bound <= best[i]) & (order < arg[i]))
        )
        dist = metric.one_to_many(block[row], [centers[j] for j in open_])
        out[i] = arg[i]
        if len(dist):
            j = int(np.argmin(dist))
            if dist[j] < best[i] or (dist[j] <= best[i] and open_[j] < arg[i]):
                out[i] = open_[j]
    return out
