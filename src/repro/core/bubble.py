"""BUBBLE: the first BIRCH* instantiation for distance spaces (Section 4).

Leaf level: the :class:`~repro.core.features.BubbleClusterFeature` with
clustroid/RowSum/representative maintenance, routed and threshold-tested via
the clustroid distance ``D0``.

Non-leaf level: each entry NL_i carries **sample objects** ``S(NL_i)`` drawn
bottom-up from its child — random clustroids if the child is a leaf, random
members of the child's own samples otherwise (Section 4.2.1). The number of
samples at a node is capped by the *sample size* ``SS``; child ``i`` with
``n_i`` entries contributes ``max(floor(n_i * SS / sum_j n_j), 1)`` so every
child keeps at least one representative. A new object is routed to the entry
minimizing ``D2({O}, S(NL_i))``, the average inter-cluster distance of
Definition 4.4. Samples at a node are refreshed whenever one of its children
splits (Section 4.2.2).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.arena import FeatureArena
from repro.core.features import (
    BubbleClusterFeature,
    average_inter_cluster_distance,
)
from repro.core.nodes import LeafNode, NonLeafNode
from repro.core.policy import BirchStarPolicy
from repro.core.routing import (
    PruningStats,
    pruned_leaf_distances,
    pruned_segment_distances,
)
from repro.exceptions import ParameterError, TreeInvariantError
from repro.metrics.base import DistanceFunction, site
from repro.utils.rng import ensure_rng
from repro.utils.sampling import sample_without_replacement
from repro.utils.validation import check_integer

__all__ = ["BubblePolicy"]

#: Below this many leaf entries, pruning cannot beat the exhaustive gather
#: (pivot + seed measurements already cover most of the node).
_MIN_PRUNE_LEAF_ENTRIES = 4


class _SampleCache:
    """Node-level cache: the concatenation of all entry samples plus the
    segment boundaries, so one batched ``one_to_many`` serves a whole node.

    ``geometry`` is lazily-built pivot geometry for the pruned routing
    engine (:mod:`repro.core.routing`); ``None`` is always legal."""

    __slots__ = ("flat", "offsets", "geometry")

    def __init__(self, flat: list, offsets: np.ndarray):
        self.flat = flat
        self.offsets = offsets
        self.geometry = None


class BubblePolicy(BirchStarPolicy):
    """The components BUBBLE plugs into the BIRCH* framework.

    Parameters
    ----------
    metric:
        Distance function of the space.
    representation_number:
        ``2p``, the number of representative objects per leaf cluster
        (paper default 10).
    sample_size:
        ``SS``, the cap on sample objects per non-leaf node (paper default
        75 = 5 * branching factor).
    seed:
        Seed/generator driving sample selection.
    prune:
        Route through the exact triangle-inequality pruned engine
        (:mod:`repro.core.routing`). Routing decisions are bit-identical to
        the exhaustive scan either way; pruning only reduces NCD. On by
        default.
    """

    def __init__(
        self,
        metric: DistanceFunction,
        representation_number: int = 10,
        sample_size: int = 75,
        seed: int | np.random.Generator | None = None,
        prune: bool = True,
    ):
        if not isinstance(metric, DistanceFunction):
            raise ParameterError("metric must be a DistanceFunction")
        self.metric = metric
        self.representation_number = check_integer(
            representation_number, "representation_number", minimum=2
        )
        self.sample_size = check_integer(sample_size, "sample_size", minimum=1)
        self._rng = ensure_rng(seed)
        self.prune = bool(prune)
        #: Counters for the pruned routing engine (always present; all zero
        #: when ``prune`` is off or no node met the pruning gates).
        self.pruning_stats = PruningStats()
        #: Per-tree slab arena backing every leaf CF* this policy creates
        #: (RowSums + Neumaier compensations + representative handles in
        #: contiguous ndarrays; see :mod:`repro.core.arena`).
        self.arena = FeatureArena(self.representation_number)

    # ------------------------------------------------------------------
    # Leaf level (D0 everywhere)
    # ------------------------------------------------------------------
    def new_leaf_feature(self, obj: Any) -> BubbleClusterFeature:
        return BubbleClusterFeature(
            self.metric, obj, self.representation_number, arena=self.arena
        )

    def adopt_feature(self, feature: Any) -> None:
        """Move a foreign slab-backed feature's row into this policy's arena.

        Worker-shard features come home through the merge path with their
        own (unpickled) arenas; copying the row bit-for-bit keeps the merge
        exactly equivalent to having built the feature here, while letting
        the worker arena be garbage collected.
        """
        if (
            isinstance(feature, BubbleClusterFeature)
            and feature.arena is not self.arena
            and feature.arena.width <= self.arena.width
        ):
            old_arena, old_row = feature.arena, feature._row
            feature._row = self.arena.adopt_row(old_arena, old_row)
            feature.arena = self.arena
            old_arena.release(old_row)

    def leaf_distances(self, node: LeafNode, obj: Any) -> np.ndarray:
        if self.prune and len(node.entries) >= _MIN_PRUNE_LEAF_ENTRIES:
            return pruned_leaf_distances(self.metric, node, obj, self.pruning_stats)
        clustroids = [feature.clustroid for feature in node.entries]
        with site("leaf-d0"):
            return self.metric.one_to_many(obj, clustroids)

    def leaf_entry_distance(self, a: Any, b: Any) -> float:
        return self.metric.distance(a.clustroid, b.clustroid)

    def leaf_entry_matrix(self, entries: Any) -> np.ndarray:
        return self.metric.pairwise([feature.clustroid for feature in entries])

    # ------------------------------------------------------------------
    # Non-leaf level (sample objects, D2)
    # ------------------------------------------------------------------
    def nonleaf_distances(self, node: NonLeafNode, obj: Any) -> np.ndarray:
        cache = self._node_cache(node)
        if self._prunable_cache(node, cache) is not None:
            return pruned_segment_distances(
                self.metric, cache, len(node.entries), obj, self.pruning_stats
            )
        with site("nonleaf-d2"):
            dists = self.metric.one_to_many(obj, cache.flat)
        sq = dists**2
        offsets = cache.offsets
        out = np.empty(len(node.entries), dtype=np.float64)
        for i in range(len(out)):
            seg = sq[offsets[i] : offsets[i + 1]]
            out[i] = np.sqrt(seg.mean())
        return out

    def _prunable_cache(self, node: NonLeafNode, cache: _SampleCache) -> _SampleCache | None:
        """The node's sample cache if pruned D2 routing applies, else None.

        Pruning needs at least two entries (something to prune) and two
        samples (a pivot plus something it can bound), and must stand aside
        when the node routes through an image space (BUBBLE-FM's mapper)."""
        if not self.prune or len(node.entries) < 2 or len(cache.flat) < 2:
            return None
        if getattr(cache, "mapper", None) is not None:
            return None
        return cache

    def begin_insert_block(self, node: NonLeafNode, objs: Any) -> np.ndarray | None:
        """Batched pivot gather for a block of objects about to descend
        through ``node``: one counted ``one_to_many`` computes every
        object's ``d(obj, pivot)`` hint up front, reusing the row the
        per-object pruned path would otherwise measure one at a time."""
        cache = self._node_cache(node)
        if self._prunable_cache(node, cache) is None:
            return None
        with site("nonleaf-d2"):
            hints = self.metric.one_to_many(cache.flat[0], objs)
        self.pruning_stats.block_gathers += 1
        self.pruning_stats.block_hints += len(objs)
        return hints

    def nonleaf_distances_hinted(
        self, node: NonLeafNode, obj: Any, hint: float | None
    ) -> np.ndarray:
        if hint is None:
            return self.nonleaf_distances(node, obj)
        cache = self._node_cache(node)
        return pruned_segment_distances(
            self.metric, cache, len(node.entries), obj, self.pruning_stats, d_pivot=hint
        )

    def end_insert_block(self, n_unused: int) -> None:
        self.pruning_stats.block_hints_wasted += n_unused

    def nonleaf_entry_distances(self, node: NonLeafNode) -> np.ndarray:
        entries = node.entries
        n = len(entries)
        out = np.zeros((n, n), dtype=np.float64)
        for i in range(n):
            for j in range(i + 1, n):
                d = average_inter_cluster_distance(
                    self.metric, entries[i].summary, entries[j].summary
                )
                out[i, j] = d
                out[j, i] = d
        return out

    def refresh_node(self, node: NonLeafNode) -> None:
        """Redraw sample objects for every entry of ``node`` (Section 4.2.2)."""
        with self.tracer.span("sample-refresh"):
            entry_sizes = [len(entry.child.entries) for entry in node.entries]
            total = sum(entry_sizes)
            flat: list = []
            offsets = [0]
            for entry, n_i in zip(node.entries, entry_sizes):
                quota = max((n_i * self.sample_size) // max(total, 1), 1)
                pool = self._sample_pool(entry.child)
                entry.summary = sample_without_replacement(pool, quota, self._rng)
                flat.extend(entry.summary)
                offsets.append(len(flat))
            node.aux = _SampleCache(flat, np.asarray(offsets, dtype=np.intp))

    def _sample_pool(self, child: Any) -> list:
        """Objects a non-leaf entry may sample from: the child's clustroids
        if it is a leaf, otherwise the union of the child's own samples."""
        if child.is_leaf:
            return [feature.clustroid for feature in child.entries]
        pool: list = []
        for entry in child.entries:
            if entry.summary:
                pool.extend(entry.summary)
        if not pool:
            raise TreeInvariantError(
                "non-leaf child has no samples to draw from; refresh order violated"
            )
        return pool

    def _node_cache(self, node: NonLeafNode) -> _SampleCache:
        if node.aux is None or not isinstance(node.aux, _SampleCache):
            # Defensive: a node should always be refreshed on creation.
            self.refresh_node(node)
        return node.aux
