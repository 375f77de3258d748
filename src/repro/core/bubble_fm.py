"""BUBBLE-FM: BUBBLE with FastMap-powered non-leaf routing (Section 5).

BUBBLE measures a new object against up to ``SS`` sample objects at every
non-leaf node on its downward path — ``SS`` calls to a possibly very
expensive distance function per level. BUBBLE-FM instead maps each node's
sample objects *once* into a k-dimensional image space with FastMap; routing
a new object then needs only the ``2k`` distance calls of FastMap's
incremental mapping, after which distances to entries are Euclidean
distances to per-entry **image centroids** (no calls to ``d`` at all).

Per the paper:

* the non-leaf CF* becomes ``(S(NL_i), image centroid of S(NL_i))`` plus the
  image vectors of the ``2k`` pivot objects (Section 5.2);
* whenever ``S(NL)`` is refreshed (i.e. a child split), the node's image
  space is rebuilt by re-running FastMap (Section 4.2.2 / 5.2);
* when ``|S(NL)| <= 2k`` the image space is pointless and distances are
  measured in the original distance space exactly as BUBBLE does;
* FastMap is **never** used at the leaf level: approximation errors there
  would corrupt clusters, whereas at non-leaf levels they merely redirect
  objects to a different leaf (Section 5.2.1).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.bubble import BubblePolicy, _SampleCache
from repro.core.nodes import NonLeafNode
from repro.exceptions import ParameterError
from repro.fastmap import FastMap
from repro.fastmap.landmark import LandmarkMDS
from repro.metrics.base import DistanceFunction, site
from repro.utils.validation import check_integer

__all__ = ["BubbleFMPolicy"]


class _FMSampleCache(_SampleCache):
    """Sample cache extended with the node's image space: the fitted mapper
    (FastMap by default, Landmark MDS optionally), the image vector of every
    sample, and one image centroid per entry. ``mapper is None`` marks the
    distance-space fallback."""

    __slots__ = ("mapper", "centroids", "images")

    def __init__(
        self,
        flat: Any,
        offsets: Any,
        mapper: Any,
        centroids: np.ndarray | None,
        images: np.ndarray | None = None,
    ):
        super().__init__(flat, offsets)
        self.mapper = mapper
        self.centroids = centroids
        self.images = images


class BubbleFMPolicy(BubblePolicy):
    """BUBBLE-FM's components: BUBBLE's leaf level, FastMap at non-leaf nodes.

    Parameters
    ----------
    metric, representation_number, sample_size, seed:
        As in :class:`~repro.core.bubble.BubblePolicy`.
    image_dim:
        Image dimensionality ``k`` of every node's image space. The paper
        sets one global value (Section 5.2.2); the experiments use the data
        dimensionality.
    fm_iterations:
        FastMap's choose-distant-objects passes (the parameter ``c``).
    mapper:
        Which distance-preserving transformation builds the image spaces:
        ``"fastmap"`` (the paper's choice; 2k calls per routed object) or
        ``"landmark"`` (Landmark MDS; ~2k+2 calls per routed object, one
        joint eigendecomposition instead of sequential residual axes).
    prune:
        As in :class:`~repro.core.bubble.BubblePolicy`; applies to the leaf
        level and to non-leaf nodes in distance-space fallback (too few
        samples for an image space). Image-space routing already costs only
        ``2k`` calls and is left untouched.
    """

    _MAPPERS = ("fastmap", "landmark")

    def __init__(
        self,
        metric: DistanceFunction,
        representation_number: int = 10,
        sample_size: int = 75,
        image_dim: int = 2,
        fm_iterations: int = 1,
        mapper: str = "fastmap",
        seed: Any=None,
        prune: bool = True,
    ):
        super().__init__(metric, representation_number, sample_size, seed, prune=prune)
        self.image_dim = check_integer(image_dim, "image_dim", minimum=1)
        self.fm_iterations = check_integer(fm_iterations, "fm_iterations", minimum=1)
        if mapper not in self._MAPPERS:
            raise ParameterError(f"mapper must be one of {self._MAPPERS}, got {mapper!r}")
        self.mapper = mapper
        #: Number of image-space rebuilds performed (diagnostic).
        self.n_fastmap_fits = 0

    def _min_samples_for_mapping(self) -> int:
        """Below this many samples the image space cannot beat direct D2."""
        if self.mapper == "fastmap":
            return 2 * self.image_dim
        return 2 * self.image_dim + 2  # landmark count

    def _make_mapper(self) -> FastMap | LandmarkMDS:
        if self.mapper == "fastmap":
            return FastMap(
                self.metric, self.image_dim,
                iterations=self.fm_iterations, seed=self._rng,
            )
        return LandmarkMDS(self.metric, self.image_dim, seed=self._rng)

    def refresh_node(self, node: NonLeafNode) -> None:
        super().refresh_node(node)
        cache = node.aux
        flat, offsets = cache.flat, cache.offsets
        if len(flat) <= self._min_samples_for_mapping():
            # Too few samples for a k-dimensional image space: BUBBLE-FM
            # "measures distances at NL in the distance space, as in BUBBLE".
            node.aux = _FMSampleCache(flat, offsets, None, None, None)
            return
        mapper = self._make_mapper()
        # The site also attributes the refit when no tracer is recording,
        # e.g. under a shard worker's own ledger.
        with self.tracer.span("fastmap-refit"), site("fastmap-refit"):
            images = mapper.fit(flat)
        self.n_fastmap_fits += 1
        centroids = np.empty((len(node.entries), self.image_dim), dtype=np.float64)
        for i in range(len(node.entries)):
            centroids[i] = images[offsets[i] : offsets[i + 1]].mean(axis=0)
        node.aux = _FMSampleCache(flat, offsets, mapper, centroids, images)

    def on_node_split(self, old: NonLeafNode, left: NonLeafNode, right: NonLeafNode) -> None:
        """Reuse the split node's image space for both halves.

        The halves' entries keep their sample lists, which are contiguous
        segments of the old node's mapped sample set — a distance-preserving
        map of a superset stays distance-preserving on the subset, so the
        old FastMap and the cached image vectors carry over with zero calls
        to the distance function.
        """
        cache = old.aux
        if (
            not isinstance(cache, _FMSampleCache)
            or cache.mapper is None
            or cache.images is None
        ):
            super().on_node_split(old, left, right)
            return
        segments = {
            id(entry): (int(cache.offsets[i]), int(cache.offsets[i + 1]))
            for i, entry in enumerate(old.entries)
        }
        for half in (left, right):
            flat: list = []
            offsets = [0]
            image_blocks: list[np.ndarray] = []
            reusable = True
            for entry in half.entries:
                seg = segments.get(id(entry))
                if seg is None or not entry.summary:
                    reusable = False
                    break
                flat.extend(entry.summary)
                image_blocks.append(cache.images[seg[0] : seg[1]])
                offsets.append(len(flat))
            if not reusable:
                self.refresh_node(half)
                continue
            images = np.vstack(image_blocks)
            off = np.asarray(offsets, dtype=np.intp)
            centroids = np.vstack(
                [images[off[i] : off[i + 1]].mean(axis=0) for i in range(len(half.entries))]
            )
            half.aux = _FMSampleCache(flat, off, cache.mapper, centroids, images)

    def nonleaf_distances(self, node: NonLeafNode, obj: Any) -> np.ndarray:
        cache = self._node_cache(node)
        if getattr(cache, "mapper", None) is None:
            return super().nonleaf_distances(node, obj)
        with site("fastmap-map"):
            image = cache.mapper.transform(obj)  # exactly 2k distance calls
        diff = cache.centroids - image
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))

    def nonleaf_entry_distances(self, node: NonLeafNode) -> np.ndarray:
        cache = self._node_cache(node)
        if getattr(cache, "mapper", None) is None:
            return super().nonleaf_entry_distances(node)
        # Distance between entries NL_i, NL_j is the Euclidean distance
        # between their image centroids (Section 5.2) — zero calls to d.
        c = cache.centroids
        sq = np.einsum("ij,ij->i", c, c)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (c @ c.T)
        np.maximum(d2, 0.0, out=d2)
        np.fill_diagonal(d2, 0.0)
        return np.sqrt(d2)

    def _node_cache(self, node: NonLeafNode) -> _FMSampleCache:
        if not isinstance(node.aux, _FMSampleCache):
            self.refresh_node(node)
        return node.aux
