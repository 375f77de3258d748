"""Exact triangle-inequality pruned routing for the CF*-tree.

Descent through the tree is dominated by distance gathers: at a leaf the
insertion step needs ``argmin_i D0(obj, CF_i)`` over the node's clustroids,
and at a non-leaf it needs ``argmin_i D2({obj}, S(NL_i))`` over the entries'
sample sets. The exhaustive implementations measure *every* candidate. This
module prunes candidates with the triangle inequality instead, without
changing a single routing decision:

* Each node keeps the **full pairwise distance matrix** ``D[i, j] =
  d(c_i, c_j)`` over its candidate objects (clustroids at a leaf, sample
  objects at a non-leaf), maintained lazily outside the counted path.
* Routing an object ``q`` measures a small set of initial **pivots**
  exactly. Every exactly-measured candidate ``a`` (pivot or not) becomes
  an *anchor*: the triangle inequality gives the lower bound ``lb_i =
  max_a |d(q, a) - D[a, i]| <= d(q, c_i)`` for every still-unmeasured
  candidate without touching the metric.
* Candidates are then measured **best-first** in ascending lower-bound
  order — each measurement is a batched ``one_to_many`` gather whose
  results immediately tighten the remaining bounds (the AESA refinement
  loop of Vidal Ruiz, adapted to the D0/D2 aggregates) — and the walk
  stops as soon as the smallest open lower bound exceeds the best exact
  distance seen so far. The rest are pruned.

Non-leaf nodes seed the walk with up to ``_MAX_SEGMENT_PIVOTS`` pivots
spread across their sample segments — in clustered data a single reference
point cannot separate two clusters that happen to be equidistant from it,
while pivots in distinct clusters can. Every pivot measurement fills an
exact sample slot, so even a query that prunes nothing issues no more
counted calls than the exhaustive gather.

Exactness
---------
Pruning happens only when ``lb_i`` is *strictly* greater than an exactly
measured distance ``best >= min_j d(q, c_j)``, so a pruned candidate
satisfies ``d(q, c_i) >= lb_i > min_j d(q, c_j)`` — it can never achieve,
or even tie, the minimum. (The best-first walk visits candidates in
ascending ``lb`` order, so when it stops at the first ``lb_i > best``
every remaining candidate is pruned by the same argument.) Pruned slots are reported as ``+inf``; every
measured slot is produced by the same ``one_to_many`` row computation the
exhaustive gather would have used, so the returned array has bit-identical
values at every index that matters and ``np.argmin`` (first minimal index)
selects exactly the entry the exhaustive scan would select. At non-leaf
nodes the same argument lifts through the D2 aggregate because the RMS is
monotone: ``lb_j <= d(q, s_j)`` pointwise (both non-negative) implies
``rms(lb) <= rms(d)`` per segment.

Accounting
----------
Cached geometry maintenance — measuring ``d(p, c_i)`` when a clustroid
drifts or a sample set is redrawn — goes through the *raw* metric hooks and
is deliberately **not** counted toward NCD: the pivot distances are a
reusable index structure, not part of the clustering decision procedure,
and charging them would double-count work the exhaustive algorithm never
performs either. The maintenance volume is tracked honestly in
:class:`PruningStats` (``maintenance_evals``) and surfaced by the stats
snapshot and the benchmark harness. This module is on the reprolint RPL001
allowlist for exactly these reads; every *routing* evaluation goes through
the counted public API under the same call site (``leaf-d0`` /
``nonleaf-d2``) as the exhaustive path.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from repro.metrics.base import DistanceFunction, site

__all__ = [
    "PruningStats",
    "LeafGeometry",
    "SampleGeometry",
    "ensure_leaf_geometry",
    "ensure_sample_geometry",
    "pruned_leaf_distances",
    "pruned_segment_distances",
]


@dataclass
class PruningStats:
    """Counters describing what the pruned routing engine did.

    All counters are cumulative since construction (or :meth:`reset`).
    ``candidates_evaluated + candidates_pruned == candidates_total`` holds
    at all times; ``maintenance_evals`` are raw (uncounted) metric
    evaluations spent keeping pivot geometry fresh.
    """

    #: Routing decisions served by the pruned path.
    queries: int = 0
    #: Lower-bound evaluations (one per open candidate per refinement
    #: round of the best-first walk).
    bound_checks: int = 0
    #: Candidate entries considered across all queries.
    candidates_total: int = 0
    #: Candidates measured exactly (pivot slot, seed, surviving candidates).
    candidates_evaluated: int = 0
    #: Candidates skipped because their lower bound exceeded the best.
    candidates_pruned: int = 0
    #: Raw (NCD-neutral) evaluations spent refreshing cached geometry.
    maintenance_evals: int = 0
    #: Pivot geometries built or rebuilt.
    geometry_builds: int = 0
    #: Batched pivot gathers issued for insert blocks.
    block_gathers: int = 0
    #: Pivot distances precomputed by block gathers.
    block_hints: int = 0
    #: Precomputed hints discarded because the tree changed mid-block.
    block_hints_wasted: int = 0
    #: Configured block-hint gather chunk size — configuration, not a
    #: counter; 0 until a tree adopts these stats (see
    #: ``CFTree(hint_chunk=...)``).
    hint_chunk: int = 0

    #: Fields that describe configuration rather than accumulated work.
    _CONFIG_FIELDS = ("hint_chunk",)

    def as_dict(self) -> dict[str, int]:
        """JSON-compatible copy of every counter."""
        return asdict(self)

    def reset(self) -> None:
        """Zero every counter (configuration fields keep their value)."""
        for name in self.__dataclass_fields__:
            if name not in self._CONFIG_FIELDS:
                setattr(self, name, 0)

    def absorb(self, counters: dict[str, int]) -> None:
        """Add another engine's counters into this one.

        Used when merging shard results: each worker process routed with
        its own :class:`PruningStats`, and the parent folds the per-shard
        counters in so one object still summarizes the whole build.
        Unknown keys and configuration fields are ignored.
        """
        for name in self.__dataclass_fields__:
            if name in self._CONFIG_FIELDS:
                continue
            value = counters.get(name)
            if value:
                setattr(self, name, getattr(self, name) + int(value))


class LeafGeometry:
    """Anchor geometry of one leaf node.

    ``pair[i, j]`` caches ``d(clustroid_i, clustroid_j)`` and
    ``clustroids[i]`` remembers *which* object row ``i`` was measured
    against, so clustroid drift (an absorb that moved the clustroid) is
    detected by identity and only the stale rows are re-measured; rows of
    surviving clustroids are carried over across entry insertions and
    removals. Identity survives pickling because the features and the
    geometry travel in one pickle graph.
    """

    __slots__ = ("clustroids", "pair")

    def __init__(self) -> None:
        self.clustroids: list[Any] = []
        self.pair: np.ndarray = np.zeros((0, 0), dtype=np.float64)


#: Cap on reference pivots per non-leaf sample cache: one per sample
#: segment, evenly spread, at most this many. More pivots tighten the D2
#: lower bounds (pivots in distinct clusters separate cluster pairs a
#: single reference point cannot) at a fixed per-query cost of one counted
#: call each — recovered because every pivot call fills an exact sample
#: slot.
_MAX_SEGMENT_PIVOTS = 8


class SampleGeometry:
    """Anchor geometry of one non-leaf sample cache.

    ``positions`` holds the flat indices of the initial pivots — the first
    sample of up to ``_MAX_SEGMENT_PIVOTS`` evenly spread segments.
    ``positions[0]`` is always ``0`` (``cache.flat[0]``) so block-gathered
    pivot hints stay valid. ``pair[i, j] == d(flat[i], flat[j])`` is the
    full sample-to-sample matrix feeding the anchor bounds. Sample sets
    are immutable between refreshes and a refresh installs a brand-new
    cache object, so this is built once per cache lifetime and never
    invalidated in place.
    """

    __slots__ = ("positions", "pair")

    def __init__(self, positions: np.ndarray, pair: np.ndarray) -> None:
        self.positions = positions
        self.pair = pair


def ensure_leaf_geometry(
    metric: DistanceFunction, node: Any, stats: PruningStats
) -> tuple[LeafGeometry, list[Any]]:
    """Return ``node``'s leaf geometry, refreshing any stale rows.

    Rows whose clustroid object is unchanged (by identity) are carried
    over; every other row is re-measured through the raw hooks.
    """
    clustroids = [feature.clustroid for feature in node.entries]
    n = len(clustroids)
    geom = node.aux
    if not isinstance(geom, LeafGeometry):
        geom = LeafGeometry()
        node.aux = geom
        stats.geometry_builds += 1
    old = geom.clustroids
    if len(old) == n and all(old[i] is clustroids[i] for i in range(n)):
        return geom, clustroids
    old_pos = {id(c): j for j, c in enumerate(old)}
    pair = np.zeros((n, n), dtype=np.float64)
    kept_new, kept_old, stale = [], [], []
    for i, clustroid in enumerate(clustroids):
        j = old_pos.get(id(clustroid))
        if j is None:
            stale.append(i)
        else:
            kept_new.append(i)
            kept_old.append(j)
    if kept_new:
        pair[np.ix_(kept_new, kept_new)] = geom.pair[np.ix_(kept_old, kept_old)]
    if stale:
        # One raw-hook cross gather covers every stale row at once (same
        # evaluation count as row-at-a-time, one batched dispatch).
        # Geometry maintenance is NCD-neutral by design (see module
        # docstring); tracked via stats.maintenance_evals.
        block = np.asarray(
            metric._cross([clustroids[i] for i in stale], clustroids),
            dtype=np.float64,
        )
        stats.maintenance_evals += len(stale) * n
        for k, i in enumerate(stale):
            pair[i, :] = block[k]
            pair[:, i] = block[k]
    geom.clustroids = clustroids
    geom.pair = pair
    return geom, clustroids


def ensure_sample_geometry(
    metric: DistanceFunction, cache: Any, stats: PruningStats
) -> SampleGeometry:
    """Return the pivot geometry of a non-leaf sample cache, building it
    on first use (raw, NCD-neutral)."""
    geom = cache.geometry
    flat = cache.flat
    if isinstance(geom, SampleGeometry) and geom.pair.shape[0] == len(flat):
        return geom
    offsets = np.asarray(cache.offsets)
    n_segments = len(offsets) - 1
    n_pivots = min(n_segments, _MAX_SEGMENT_PIVOTS)
    seg_ids = np.linspace(0, n_segments - 1, num=max(n_pivots, 1)).astype(int)
    positions = np.array(
        sorted({0} | {int(offsets[i]) for i in seg_ids}), dtype=np.intp
    )
    # Raw hook: geometry maintenance is NCD-neutral by design (see module
    # docstring); tracked via stats.maintenance_evals.
    pair = np.asarray(metric._pairwise(flat), dtype=np.float64)
    stats.maintenance_evals += len(flat) * (len(flat) - 1) // 2
    geom = SampleGeometry(positions, pair)
    cache.geometry = geom
    stats.geometry_builds += 1
    return geom


def pruned_leaf_distances(
    metric: DistanceFunction, node: Any, obj: Any, stats: PruningStats
) -> np.ndarray:
    """D0 distances from ``obj`` to every entry of leaf ``node``, with
    triangle-inequality pruning.

    Pruned slots hold ``+inf``; measured slots are bit-identical to the
    exhaustive ``one_to_many`` gather, and ``argmin`` over the result equals
    the exhaustive ``argmin`` (see module docstring). Never issues more
    counted calls than the exhaustive gather would.
    """
    geom, clustroids = ensure_leaf_geometry(metric, node, stats)
    n = len(clustroids)
    pair = geom.pair
    with site("leaf-d0"):
        out = np.full(n, np.inf, dtype=np.float64)
        known = np.zeros(n, dtype=bool)
        lb = np.zeros(n, dtype=np.float64)

        def admit(i: int, value: float) -> None:
            # An exactly-measured clustroid becomes an anchor tightening
            # every remaining lower bound (AESA refinement).
            out[i] = value
            known[i] = True
            np.maximum(lb, np.abs(pair[i] - value), out=lb)

        admit(0, float(metric.one_to_many(obj, [clustroids[0]])[0]))
        best = float(out[0])
        n_evaluated = 1
        while not known.all():
            open_lb = np.where(known, np.inf, lb)
            i = int(np.argmin(open_lb))
            stats.bound_checks += int(n - known.sum())
            if open_lb[i] > best:
                break
            admit(i, float(metric.one_to_many(obj, [clustroids[i]])[0]))
            n_evaluated += 1
            if out[i] < best:
                best = float(out[i])
        stats.queries += 1
        stats.candidates_total += n
        stats.candidates_evaluated += n_evaluated
        stats.candidates_pruned += n - n_evaluated
        return out


def pruned_segment_distances(
    metric: DistanceFunction,
    cache: Any,
    n_entries: int,
    obj: Any,
    stats: PruningStats,
    d_pivot: float | None = None,
) -> np.ndarray:
    """D2 distances from ``obj`` to every entry of a non-leaf node, with
    per-segment triangle-inequality pruning over the node's sample cache.

    ``d_pivot`` may carry a precomputed (already counted) ``d(obj, flat[0])``
    from a block gather; it must have been measured against *this* cache's
    pivot. Pruned entries hold ``+inf``; measured entries are bit-identical
    to the exhaustive computation. Never issues more counted calls than the
    exhaustive gather (``len(flat)``) would.
    """
    flat = cache.flat
    offsets = cache.offsets
    geom = ensure_sample_geometry(metric, cache, stats)
    pair = geom.pair
    pivot_positions = geom.positions
    n = len(flat)
    with site("nonleaf-d2"):
        d_full = np.full(n, np.nan, dtype=np.float64)
        known = np.zeros(n, dtype=bool)
        lb = np.zeros(n, dtype=np.float64)

        def admit(positions: list[int], values: np.ndarray) -> None:
            # Exactly-measured samples become anchors tightening every
            # remaining per-sample lower bound (AESA refinement). At an
            # anchor's own column the bound collapses to the exact
            # distance, so bounds and exact values mix consistently
            # inside a segment's RMS.
            d_full[positions] = values
            known[positions] = True
            np.maximum(
                lb, np.abs(pair[positions] - values[:, None]).max(axis=0), out=lb
            )

        if d_pivot is None:
            dq = np.asarray(
                metric.one_to_many(obj, [flat[int(p)] for p in pivot_positions]),
                dtype=np.float64,
            )
        else:
            # The hint carries d(obj, flat[0]) == d(obj, flat[positions[0]]);
            # gather the remaining pivots in one batch.
            dq = np.empty(len(pivot_positions), dtype=np.float64)
            dq[0] = d_pivot
            if len(pivot_positions) > 1:
                dq[1:] = metric.one_to_many(
                    obj, [flat[int(p)] for p in pivot_positions[1:]]
                )
        admit([int(p) for p in pivot_positions], dq)

        out = np.full(n_entries, np.inf, dtype=np.float64)
        lb_sq = np.empty(n, dtype=np.float64)
        open_entries = list(range(n_entries))
        best = np.inf
        n_evaluated = 0
        # Best-first walk: measure the open entry with the smallest RMS
        # lower bound (one batched gather per entry), let its samples
        # tighten the remaining bounds, and stop once the smallest open
        # bound exceeds the best exact D2 — which prunes everything left.
        while open_entries:
            np.multiply(lb, lb, out=lb_sq)
            entry_lb = [
                float(np.sqrt(lb_sq[offsets[i] : offsets[i + 1]].mean()))
                for i in open_entries
            ]
            stats.bound_checks += len(open_entries)
            pick = int(np.argmin(entry_lb))
            if entry_lb[pick] > best:
                break
            i = open_entries.pop(pick)
            lo, hi = int(offsets[i]), int(offsets[i + 1])
            unknown = [p for p in range(lo, hi) if not known[p]]
            if unknown:
                admit(unknown, metric.one_to_many(obj, [flat[p] for p in unknown]))
            seg = d_full[lo:hi]
            out[i] = float(np.sqrt((seg**2).mean()))
            n_evaluated += 1
            if out[i] < best:
                best = float(out[i])
        stats.queries += 1
        stats.candidates_total += n_entries
        stats.candidates_evaluated += n_evaluated
        stats.candidates_pruned += n_entries - n_evaluated
        return out
