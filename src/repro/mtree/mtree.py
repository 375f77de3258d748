"""M-tree (Ciaccia, Patella & Zezula, VLDB 1997) for exact metric search.

Structure
---------
Every node holds up to ``node_capacity`` entries. A leaf entry is a data
object plus its distance to the parent routing object; an internal entry is
a *routing object* with a covering radius, the distance to its own parent,
and a child node containing everything within the covering radius.

Queries prune with two triangle-inequality tests, cheapest first:

1. parent filter (no distance call): an entry with distance-to-parent
   ``d_p`` under a parent at distance ``d_qp`` from the query cannot contain
   anything within ``r`` of the query if ``|d_qp - d_p| > r + r_cov``;
2. direct filter (one batched gather per node): compute ``d(q, routing)``
   for every surviving entry at once; prune the subtree if
   ``d(q, routing) - r_cov > r``.

Splits promote the farthest pair of entries and partition the rest to the
closer promoted object (the paper's ``mM_RAD``-style confirmed promotion is
approximated by farthest-pair, which behaves comparably and needs no
quadratic confirmation step).

The tree implements the :class:`repro.index.MetricIndex` protocol: objects
are indexed by insertion order, :meth:`~MTree.nearest`/:meth:`~MTree.within`
return typed :class:`~repro.index.QueryResult` records, per-node gathers go
through one counted ``one_to_many`` batch, and exact distances persist
across queries in the shared :class:`~repro.index.QueryBoundCache`. Routing
objects are copies of indexed objects and share their index, so a distance
paid on the way down is free when the leaf copy is reached.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from repro.exceptions import EmptyDatasetError, TreeInvariantError
from repro.index.base import (
    QUERY_BUILD_SITE,
    MetricIndex,
    NeighborHeap,
    QueryBoundCache,
    QuerySession,
)
from repro.metrics.base import DistanceFunction, site
from repro.utils.validation import check_integer

__all__ = ["MTree"]


class _Entry:
    """One slot of an M-tree node.

    For leaf entries ``child is None`` and ``radius == 0``; for routing
    entries ``child`` is the covered subtree and ``radius`` its covering
    radius. ``dist_to_parent`` is ``None`` at the root (no parent routing
    object to measure against). ``index`` is the object's position in
    insertion order; a routing entry carries the index of the leaf object
    it was promoted from.
    """

    __slots__ = ("obj", "index", "dist_to_parent", "radius", "child")

    def __init__(
        self,
        obj: Any,
        index: int,
        dist_to_parent: float | None = None,
        radius: float = 0.0,
        child: "_Node | None" = None,
    ):
        self.obj = obj
        self.index = index
        self.dist_to_parent = dist_to_parent
        self.radius = radius
        self.child = child


class _Node:
    __slots__ = ("entries", "is_leaf")

    def __init__(self, is_leaf: bool, entries: list[_Entry] | None = None):
        self.is_leaf = is_leaf
        self.entries: list[_Entry] = entries if entries is not None else []


class MTree(MetricIndex):
    """Dynamic exact similarity index over an arbitrary metric space.

    Parameters
    ----------
    metric:
        The distance function; every evaluation counts toward its NCD.
    node_capacity:
        Maximum entries per node (≥ 2 required so splits can distribute).
    bound_cache:
        Optional shared :class:`~repro.index.QueryBoundCache`; defaults to
        a private one.

    Examples
    --------
    >>> from repro.metrics import EditDistance
    >>> tree = MTree(EditDistance(), node_capacity=4)
    >>> for w in ["cat", "cart", "dog", "dig", "cog"]:
    ...     tree.insert(w)
    >>> sorted(obj for _, obj in tree.knn("cot", 2))
    ['cat', 'cog']
    >>> [n.index for n in tree.nearest("cot", 1)]
    [0]
    """

    backend = "mtree"

    def __init__(
        self,
        metric: DistanceFunction,
        node_capacity: int = 8,
        bound_cache: QueryBoundCache | None = None,
    ):
        super().__init__(metric, bound_cache=bound_cache)
        self.node_capacity = check_integer(node_capacity, "node_capacity", minimum=2)
        self._root = _Node(is_leaf=True)
        self._size = 0
        self._objects: list[Any] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def insert(self, obj: Any) -> None:
        """Insert one object (its index is the current size)."""
        start_calls = self.metric.n_calls
        with site(QUERY_BUILD_SITE):
            split = self._insert_into(
                self._root, obj, self._size, parent_routing=None
            )
            if split is not None:
                self._grow_root(split)
        self._objects.append(obj)
        self._size += 1
        self._count_build(start_calls)

    def build(self, objects: Iterable[Any]) -> "MTree":
        """Insert every object of an iterable; returns self."""
        for obj in objects:
            self.insert(obj)
        return self

    def _insert_into(
        self, node: _Node, obj: Any, index: int, parent_routing: Any
    ) -> tuple[_Entry, _Entry] | None:
        if node.is_leaf:
            dist = (
                None
                if parent_routing is None
                else float(self.metric.one_to_many(obj, [parent_routing])[0])
            )
            node.entries.append(_Entry(obj, index, dist_to_parent=dist))
            if len(node.entries) > self.node_capacity:
                return self._split(node)
            return None

        # Choose the child: prefer one whose covering radius already
        # contains the object; otherwise the one needing least enlargement.
        dists = self.metric.one_to_many(obj, [e.obj for e in node.entries])
        inside = [i for i in range(len(dists)) if dists[i] <= node.entries[i].radius]
        if inside:
            best = min(inside, key=lambda i: dists[i])
        else:
            best = min(
                range(len(dists)), key=lambda i: dists[i] - node.entries[i].radius
            )
            node.entries[best].radius = float(dists[best])
        entry = node.entries[best]
        split = self._insert_into(entry.child, obj, index, parent_routing=entry.obj)
        if split is not None:
            left, right = split
            node.entries.pop(best)
            if parent_routing is not None:
                # One batched gather re-measures both promoted entries.
                pair = self.metric.one_to_many(
                    parent_routing, [left.obj, right.obj]
                )
                left.dist_to_parent = float(pair[0])
                right.dist_to_parent = float(pair[1])
            node.entries.extend((left, right))
            if len(node.entries) > self.node_capacity:
                return self._split(node)
        return None

    def _split(self, node: _Node) -> tuple[_Entry, _Entry]:
        """Promote the farthest pair, partition to the closer promoted
        object, and return the two new routing entries."""
        entries = node.entries
        dm = self.metric.pairwise([e.obj for e in entries])
        flat = int(np.argmax(dm))
        ia, ib = divmod(flat, dm.shape[0])
        if ia == ib:  # all-identical objects: arbitrary halves
            half = len(entries) // 2
            groups = (list(range(half)), list(range(half, len(entries))))
        else:
            group_a, group_b = [], []
            for i in range(len(entries)):
                (group_a if dm[i, ia] <= dm[i, ib] else group_b).append(i)
            groups = (group_a, group_b)
            if not groups[0] or not groups[1]:  # pragma: no cover - defensive
                half = len(entries) // 2
                groups = (list(range(half)), list(range(half, len(entries))))

        promoted = []
        for anchor, idx_group in zip((ia, ib), groups):
            routing = entries[anchor]
            child = _Node(is_leaf=node.is_leaf)
            radius = 0.0
            for i in idx_group:
                e = entries[i]
                d = float(dm[i, anchor])
                e.dist_to_parent = d
                child.entries.append(e)
                radius = max(radius, d + e.radius)
            promoted.append(
                _Entry(routing.obj, routing.index, radius=radius, child=child)
            )
        return promoted[0], promoted[1]

    def _grow_root(self, split: tuple[_Entry, _Entry]) -> None:
        left, right = split
        self._root = _Node(is_leaf=False, entries=[left, right])

    # ------------------------------------------------------------------
    # MetricIndex protocol
    # ------------------------------------------------------------------
    @property
    def objects(self) -> Sequence[Any]:
        return self._objects

    def __len__(self) -> int:
        return self._size

    def _check_ready(self) -> None:
        if self._size == 0:
            raise EmptyDatasetError("query on an empty MTree")

    def _survivors(
        self,
        node: _Node,
        d_qp: float | None,
        tau: float,
        session: QuerySession,
    ) -> list[_Entry]:
        """Entries passing the (distance-free) parent filter at radius tau."""
        out = []
        for e in node.entries:
            if d_qp is not None and e.dist_to_parent is not None:
                session.bound_checks += 1
                if abs(d_qp - e.dist_to_parent) > tau + e.radius:
                    continue
            out.append(e)
        return out

    def _knn(
        self, session: QuerySession, obj: Any, k: int
    ) -> list[tuple[float, int]]:
        heap = NeighborHeap(k)
        counter = itertools.count()  # tie-breaker: nodes are not orderable
        # (lower_bound, tiebreak, node, d_query_parent)
        frontier: list[tuple[float, int, _Node, float | None]] = [
            (0.0, next(counter), self._root, None)
        ]
        while frontier:
            lower, _, node, d_qp = heapq.heappop(frontier)
            session.bound_checks += 1
            if lower > heap.tau:
                break
            survivors = self._survivors(node, d_qp, heap.tau, session)
            if not survivors:
                continue
            dists = session.measure_many([e.index for e in survivors])
            for e, value in zip(survivors, dists):
                d = float(value)
                # Routing objects are indexed objects too: offering them
                # tightens tau early and the heap dedupes by index.
                heap.offer(e.index, d)
                if not node.is_leaf:
                    bound = max(d - e.radius, 0.0)
                    session.bound_checks += 1
                    if bound <= heap.tau:
                        heapq.heappush(
                            frontier, (bound, next(counter), e.child, d)
                        )
        return heap.items()

    def _range(
        self, session: QuerySession, obj: Any, radius: float
    ) -> list[tuple[float, int]]:
        hits: dict[int, float] = {}
        stack: list[tuple[_Node, float | None]] = [(self._root, None)]
        while stack:
            node, d_qp = stack.pop()
            survivors = self._survivors(node, d_qp, radius, session)
            if not survivors:
                continue
            dists = session.measure_many([e.index for e in survivors])
            for e, value in zip(survivors, dists):
                d = float(value)
                if node.is_leaf:
                    if d <= radius:
                        hits[e.index] = d
                elif d <= radius + e.radius:
                    if d <= radius:
                        hits[e.index] = d
                    stack.append((e.child, d))
        return [(d, i) for i, d in hits.items()]

    # ------------------------------------------------------------------
    # Legacy query surface (kept for existing call sites)
    # ------------------------------------------------------------------
    def range_query(self, query: Any, radius: float) -> list:
        """All indexed objects within ``radius`` of ``query`` (inclusive)."""
        return [n.obj for n in self.within(query, radius)]

    def knn(self, query: Any, k: int) -> list[tuple[float, object]]:
        """The ``k`` nearest objects as ``(distance, object)``, ascending."""
        return [(n.distance, n.obj) for n in self.nearest(query, k)]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        h, node = 1, self._root
        while not node.is_leaf:
            node = node.entries[0].child
            h += 1
        return h

    def items(self) -> Iterable[Any]:
        """Iterate over all indexed objects."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                for e in node.entries:
                    yield e.obj
            else:
                stack.extend(e.child for e in node.entries)

    def check_invariants(self) -> None:
        """Verify covering radii, entry counts, and index wiring."""
        count = 0
        stack: list[tuple[_Node, object, float]] = [(self._root, None, np.inf)]
        while stack:
            node, routing, radius = stack.pop()
            if len(node.entries) > self.node_capacity:
                raise TreeInvariantError(
                    f"node holds {len(node.entries)} > capacity {self.node_capacity}"
                )
            for e in node.entries:
                if e.obj is not self._objects[e.index]:
                    raise TreeInvariantError("entry index points at wrong object")
                if routing is not None:
                    # NCD-neutral audit: invariant checks must not perturb the
                    # call counter (cf. repro.analysis.audit).
                    d = self.metric._distance(e.obj, routing)  # reprolint: disable=RPL001 -- NCD-neutral invariant audit
                    if e.dist_to_parent is None or abs(d - e.dist_to_parent) > 1e-9:
                        raise TreeInvariantError("stale dist_to_parent")
                    if d - 1e-9 > radius:
                        raise TreeInvariantError("entry outside covering radius")
                if node.is_leaf:
                    count += 1
                else:
                    stack.append((e.child, e.obj, e.radius))
        if count != self._size:
            raise TreeInvariantError(f"size {self._size} != walked {count}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MTree(size={self._size}, height={self.height})"
