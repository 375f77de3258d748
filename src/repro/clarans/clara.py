"""CLARA: sampled medoid search, parallel across the shard worker pool.

CLARANS over all leaf clustroids is the last sequential bottleneck of the
pipeline: each swap evaluation costs O(N) distance calls against the full
clustroid set. CLARA (Kaufman & Rousseeuw) sidesteps the quadratic blow-up
by drawing ``n_samples`` small subsamples, running the medoid search on
each sample independently, and keeping whichever candidate medoid set
scores best on the *full* dataset. The per-sample searches share nothing,
so they fan out across the same :class:`~repro.parallel.pool.ShardSupervisor`
worker pool the sharded build uses — crash detection, retries with fresh
metric copies, and inline fallback included.

Determinism: the sample draws and the per-sample search seeds both derive
from the root seed via ``SeedSequence.spawn``, samples are drawn in the
parent before dispatch, the supervisor returns results in task order, and
candidates are scored in that fixed order with a strict ``<`` best — so
the fitted medoids are a pure function of ``(objects, weights, seed,
n_samples, sample_size)`` and in particular independent of ``n_jobs``.

Accounting: each worker counts its sample search on a private metric copy
under its own :class:`~repro.metrics.base.CallLedger` with the
``global-sample`` site open; the parent books every successful
attempt's calls and their per-site split with one
:meth:`~repro.metrics.base.DistanceFunction.count_external` under a
``global-sample`` span, and scores candidates with batched ``cross()``
gathers under a ``global-assign`` span — so ``sum(by_site) == n_calls``
keeps holding through the sampled global phase, and calls spent by
crashed attempts die unbooked with the attempt.
"""

from __future__ import annotations

import os
import pickle
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.clarans.clarans import CLARANS
from repro.exceptions import EmptyDatasetError, NotFittedError, ParameterError
from repro.metrics.base import (
    CallLedger,
    DistanceFunction,
    activate_ledger,
    deactivate_ledger,
    site,
)
from repro.observability.tracer import NULL_TRACER, NullTracer
from repro.parallel.build import _metric_blob
from repro.parallel.pool import ShardSupervisor
from repro.robustness.injection import ChaosPolicy

__all__ = ["CLARA", "SampleTask", "SampleResult", "run_sample"]

#: Site/span label for worker-side sample searches (and their re-booking).
SAMPLE_SITE = "global-sample"
#: Span label for the parent-side full-dataset candidate scoring.
ASSIGN_SITE = "global-assign"


@dataclass
class SampleTask:
    """One sample's medoid search, as shipped to a worker."""

    #: Position of this sample in the draw order (supervisor contract).
    shard_id: int
    #: Global indices of the sampled objects (into the fit sequence).
    indices: np.ndarray
    #: The sampled objects themselves, in index order.
    objects: list[Any]
    n_clusters: int
    num_local: int
    max_neighbors: int | None
    #: This worker's private metric copy (counter reset on arrival).
    metric: DistanceFunction
    #: Sample-derived seed for the CLARANS search (``None`` = fresh entropy).
    seed: int | None
    #: Zero-based attempt number (the supervisor bumps this on retries).
    attempt: int = 0
    #: Seeded fault schedule for chaos drills (``None`` in production).
    chaos: ChaosPolicy | None = None


@dataclass
class SampleResult:
    """What one sample search sends home: candidate medoids plus accounting."""

    shard_id: int
    #: Winning medoids as *global* indices into the fit sequence.
    medoid_indices: list[int]
    #: CLARANS cost on the sample (not the selection criterion — the parent
    #: re-scores every candidate on the full dataset).
    sample_cost: float
    #: Distance calls spent by this worker (its metric copy's NCD).
    n_calls: int
    #: Per-site split of ``n_calls`` (sums exactly to it).
    by_site: dict[str, int] = field(default_factory=dict)
    #: Worker wall-clock seconds for the whole sample search.
    elapsed_seconds: float = 0.0


def run_sample(task: SampleTask) -> SampleResult:
    """Run CLARANS on one sample; module-level so ``spawn`` can pickle it.

    Works identically inline (``n_jobs=1``) and in a worker process: the
    search runs on the task's private metric copy under a fresh
    :class:`CallLedger` with the ``global-sample`` site open, so every call
    comes home site-attributed and the parent's re-booking preserves the
    conservation law.
    """
    start = time.perf_counter()
    metric = task.metric
    if task.chaos is not None:
        # Same splice point as the sharded build: injected faults must hit
        # whatever guard machinery the real metric chain carries.
        metric = task.chaos.wrap_metric(metric, task.shard_id, task.attempt)
    metric.reset_counter()
    objects: Any = task.objects
    if task.chaos is not None:
        # The scheduled kill fires while the search materializes the sample.
        objects = task.chaos.stream(task.objects, task.shard_id, task.attempt)
    search = CLARANS(
        task.n_clusters,
        metric,
        num_local=task.num_local,
        max_neighbors=task.max_neighbors,
        seed=task.seed,
    )
    ledger = CallLedger()
    previous = activate_ledger(ledger)
    try:
        with site(SAMPLE_SITE):
            search.fit(objects)
    finally:
        deactivate_ledger(previous)
    assert search.medoid_indices_ is not None and search.cost_ is not None
    return SampleResult(
        shard_id=task.shard_id,
        medoid_indices=[int(task.indices[i]) for i in search.medoid_indices_],
        sample_cost=float(search.cost_),
        n_calls=metric.n_calls,
        by_site=dict(ledger.by_site),
        elapsed_seconds=time.perf_counter() - start,
    )


class CLARA:
    """Sampled k-medoid search: CLARANS per subsample, best by full cost.

    Parameters
    ----------
    n_clusters:
        Number of medoids ``k``.
    metric:
        The parent distance function; it must pickle (each worker gets a
        private copy) and it keeps the authoritative NCD total.
    n_samples:
        Subsamples to draw and search (the classic recommendation is 5).
    sample_size:
        Objects per subsample; defaults to the classic ``40 + 2k``, and is
        clamped into ``[k, N]``.
    num_local, max_neighbors:
        Passed through to each per-sample :class:`CLARANS` search.
    n_jobs:
        Worker processes for the sample searches; ``<= 1`` runs them
        inline. Never affects the fitted result.
    seed:
        Root seed. Must be an int or ``None`` — per-sample draw and search
        seeds are spawned from it, so a ``Generator`` (whose state the
        spawn cannot reproduce) is rejected.
    tracer:
        Observability tracer; sample re-booking lands under a
        ``global-sample`` span, full-dataset scoring under
        ``global-assign``.
    max_retries, retry_backoff:
        Supervisor retry policy for crashed/failed sample workers.
    chaos:
        Seeded fault schedule for drills (sample ids play the shard-id
        role).

    Attributes
    ----------
    medoids_:
        The winning medoid objects.
    medoid_indices_:
        Their positions in the fitted object sequence.
    labels_:
        Index of the closest winning medoid per object.
    cost_:
        Weighted full-dataset cost of the winning medoid set.
    sample_costs_:
        Full-dataset cost of every candidate, in sample order.
    best_sample_:
        Index of the winning sample.
    sample_summaries_:
        Per-sample dicts (size, NCD, wall, attempts) for reports.
    """

    def __init__(
        self,
        n_clusters: int,
        metric: DistanceFunction,
        *,
        n_samples: int = 5,
        sample_size: int | None = None,
        num_local: int = 2,
        max_neighbors: int | None = None,
        n_jobs: int = 1,
        seed: int | None = None,
        tracer: NullTracer = NULL_TRACER,
        max_retries: int = 2,
        retry_backoff: float = 0.25,
        chaos: ChaosPolicy | None = None,
    ) -> None:
        if n_clusters < 1:
            raise ParameterError(f"n_clusters must be >= 1, got {n_clusters}")
        if n_samples < 1:
            raise ParameterError(f"n_samples must be >= 1, got {n_samples}")
        if sample_size is not None and sample_size < 1:
            raise ParameterError(f"sample_size must be >= 1, got {sample_size}")
        if isinstance(seed, np.random.Generator):
            raise ParameterError(
                "CLARA derives per-sample seeds from the root seed with "
                "SeedSequence.spawn, so seed must be an int or None, not a "
                "Generator"
            )
        self.n_clusters = int(n_clusters)
        self.metric = metric
        self.n_samples = int(n_samples)
        self.sample_size = None if sample_size is None else int(sample_size)
        self.num_local = int(num_local)
        self.max_neighbors = max_neighbors
        self.n_jobs = int(n_jobs)
        self.seed = seed if seed is None else int(seed)
        self.tracer = tracer
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)
        self.chaos = chaos
        self.medoids_: list[Any] | None = None
        self.medoid_indices_: list[int] | None = None
        self.labels_: np.ndarray | None = None
        self.cost_: float | None = None
        self.sample_costs_: list[float] | None = None
        self.best_sample_: int | None = None
        self.sample_summaries_: list[dict[str, Any]] = []

    # ------------------------------------------------------------------
    def _sample_seeds(self) -> list[tuple[int | None, int | None]]:
        """``(draw_seed, search_seed)`` per sample, spawned from the root."""
        if self.seed is None:
            return [(None, None)] * self.n_samples
        children = np.random.SeedSequence(self.seed).spawn(self.n_samples)
        seeds = []
        for child in children:
            draw, search = child.spawn(2)
            seeds.append(
                (
                    int(draw.generate_state(1, dtype=np.uint64)[0]),
                    int(search.generate_state(1, dtype=np.uint64)[0]),
                )
            )
        return seeds

    def _draw_indices(
        self, n: int, size: int, weights: np.ndarray, draw_seed: int | None
    ) -> np.ndarray:
        """Population-weighted sample of ``size`` distinct object indices."""
        if size >= n:
            return np.arange(n)
        rng = np.random.default_rng(draw_seed)
        return np.sort(
            rng.choice(n, size=size, replace=False, p=weights / weights.sum())
        )

    # ------------------------------------------------------------------
    def fit(
        self, objects: Sequence[Any], weights: Sequence[float] | None = None
    ) -> "CLARA":
        """Draw, search, and score the samples; keep the best medoid set.

        ``weights`` (e.g. leaf-cluster populations when the objects are
        clustroids) bias both the subsample draws and the full-dataset
        cost; omitted, every object weighs 1.
        """
        objs = list(objects)
        n = len(objs)
        if n == 0:
            raise EmptyDatasetError("CLARA.fit requires at least one object")
        if self.n_clusters > n:
            raise ParameterError(
                f"n_clusters={self.n_clusters} exceeds dataset size {n}"
            )
        w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
        if w.shape != (n,):
            raise ParameterError(f"weights must have length {n}, got shape {w.shape}")
        if not np.all(w > 0):
            raise ParameterError("weights must be strictly positive")

        k = self.n_clusters
        size = self.sample_size if self.sample_size is not None else 40 + 2 * k
        size = min(n, max(k, size))
        seeds = self._sample_seeds()
        blob = _metric_blob(self.metric)
        if self.chaos is not None:
            # Kills may only fire in worker processes, never in this parent.
            self.chaos.arm(os.getpid())

        tasks = []
        for sample_id, (draw_seed, search_seed) in enumerate(seeds):
            indices = self._draw_indices(n, size, w, draw_seed)
            tasks.append(
                SampleTask(
                    shard_id=sample_id,
                    indices=indices,
                    objects=[objs[int(i)] for i in indices],
                    n_clusters=k,
                    num_local=self.num_local,
                    max_neighbors=self.max_neighbors,
                    metric=pickle.loads(blob),
                    seed=search_seed,
                    chaos=self.chaos,
                )
            )

        tracer = self.tracer
        metric = self.metric

        def prepare_attempt(task: SampleTask, attempt: int) -> SampleTask:
            if attempt > 0:
                # A retry must replay the sample search from the identical
                # starting state the failed attempt had.
                task.metric = pickle.loads(blob)
            return task

        def absorb(result: SampleResult) -> None:
            # Book the successful attempt's worker-side calls on the parent
            # metric, preserving the worker's site labels, so the ledger
            # keeps partitioning n_calls exactly.
            with tracer.span(SAMPLE_SITE):
                metric.count_external(result.n_calls, by_site=result.by_site)

        supervisor = ShardSupervisor(
            tasks,
            n_jobs=self.n_jobs,
            runner=run_sample,
            max_retries=self.max_retries,
            backoff=self.retry_backoff,
            prepare_attempt=prepare_attempt,
            on_result=absorb,
        )

        with tracer.activation():
            results = supervisor.run()

            # Score every candidate on the full dataset in fixed sample
            # order; strict < makes ties resolve to the lowest sample id,
            # independent of worker completion order.
            best_cost = np.inf
            best_sample = -1
            best_labels: np.ndarray | None = None
            best_indices: list[int] | None = None
            sample_costs: list[float] = []
            with tracer.span(ASSIGN_SITE):
                for result in results:
                    medoid_objs = [objs[i] for i in result.medoid_indices]
                    dmat = metric.cross(medoid_objs, objs)
                    cost = float((dmat.min(axis=0) * w).sum())
                    sample_costs.append(cost)
                    if cost < best_cost:
                        best_cost = cost
                        best_sample = result.shard_id
                        best_labels = np.asarray(dmat.argmin(axis=0), dtype=np.intp)
                        best_indices = list(result.medoid_indices)

        if best_labels is None or best_indices is None:  # pragma: no cover
            raise NotFittedError("CLARA produced no candidate medoid set")

        failures = [f.shard_id for f in supervisor.stats.failures]
        self.sample_summaries_ = [
            {
                "sample_id": result.shard_id,
                "sample_size": len(tasks[result.shard_id].indices),
                "n_calls": result.n_calls,
                "elapsed_seconds": result.elapsed_seconds,
                "sample_cost": result.sample_cost,
                "full_cost": sample_costs[result.shard_id],
                "n_attempts": failures.count(result.shard_id) + 1,
            }
            for result in results
        ]
        self.sample_costs_ = sample_costs
        self.best_sample_ = best_sample
        self.medoid_indices_ = best_indices
        self.medoids_ = [objs[i] for i in best_indices]
        self.labels_ = best_labels
        self.cost_ = float(best_cost)
        return self

    # ------------------------------------------------------------------
    @property
    def n_clusters_(self) -> int:
        if self.medoids_ is None:
            raise NotFittedError("CLARA has not been fitted")
        return len(self.medoids_)
