"""The benchmark's workloads: inputs made from a seed, one measured
repetition through the program's public entry points, and output checks.

Every repetition goes through a :class:`~perfbench.shim.CountingMetric`
(or its timing subclass in the traced run), so ``pairs`` counts true
evaluations, and through a :class:`Recorder`, whose spans time each call
into the program. The program receives only the generated objects.
"""

from __future__ import annotations

import sys
import time
import traceback
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
from repro import BUBBLE, BUBBLEFM, cluster_dataset
from repro.datasets.strings import make_authority_dataset
from repro.datasets.vector import make_cell_dataset
from repro.evaluation.metrics import adjusted_rand_index
from repro.experiments.config import paper_max_nodes
from repro.index.base import brute_force_reference
from repro.metrics import EuclideanDistance
from repro.metrics.string import EditDistance
from repro.observability import NULL_TRACER

from perfbench.calibrate import string_reference_seconds, vector_reference_seconds
from perfbench.shim import CountingMetric, absorb_spool

__all__ = ["WORKLOADS", "Recorder", "Rep", "Instance", "sub_seed", "fm_collapse_sweep"]

#: Neighbours per k-NN query.
K = 3
#: Queries per index adoption that also run ``within``.
N_RANGE = 2


def sub_seed(seed: int, i: int) -> int:
    """The seed of the ``i``-th input drawn in a run with ``--seed seed``."""
    return seed * 1000 + i


class Recorder:
    """Benchmark-side spans around calls into the program: name, start and
    end on one clock (:func:`perfbench.layers.nest` derives parents).
    Entering a span also sets the shim's phase label, so the timing shim
    books hook time under it."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[dict[str, Any]] = []

    def clock(self) -> float:
        return time.perf_counter() - self.origin

    @contextmanager
    def span(self, name: str, metric: CountingMetric) -> Iterator[dict[str, Any]]:
        record = {"name": name, "source": "bench", "start": 0.0, "end": 0.0}
        self.spans.append(record)
        phase, metric.phase = metric.phase, name
        record["start"] = self.clock()
        try:
            yield record
        finally:
            record["end"] = self.clock()
            metric.phase = phase


@dataclass
class Instance:
    """One generated input: the objects the program clusters, their ground
    truth, and held-out query objects with theirs."""

    seed: int
    objects: list
    truth: np.ndarray
    queries: list
    query_truth: np.ndarray
    n_clusters: int


@dataclass
class Rep:
    """What one repetition measured, plus what its output checks need."""

    n_objects: int
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    #: True evaluations (shim pairs) during the measured work.
    pairs: int = 0
    #: Seconds spent absorbing objects into the tree.
    scan_s: float = 0.0
    query_ms: list[float] = field(default_factory=list)
    query_pairs: list[int] = field(default_factory=list)
    ari: float = 0.0
    n_subclusters: int = 0
    final_threshold: float = 0.0
    #: Sum of the workers' peak RSS in a sharded build.
    worker_rss_kb: int = 0
    model: Any = None
    labels: np.ndarray | None = None
    n_centers: int = 0
    #: ``(indexed objects, query, kind, k or radius, [(distance, index)])``.
    answers: list[tuple] = field(default_factory=list)
    results: list[Any] = field(default_factory=list)


def _failure(what: str) -> None:
    print(f"FAILED: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _authority(seed: int, n_strings: int, n_classes: int) -> Instance:
    ds = make_authority_dataset(n_classes=n_classes, n_strings=n_strings, seed=seed)
    return Instance(seed, list(ds.strings), ds.labels, [], ds.labels[:0], n_classes)


def _cells(seed: int, n_points: int, n_queries: int = 0) -> Instance:
    """DS20d.50c; the last ``n_queries`` points are held out as queries."""
    ds = make_cell_dataset(dim=20, n_clusters=50, n_points=n_points + n_queries, seed=seed)
    objects, truth = ds.as_objects(), ds.labels
    n = n_points
    return Instance(seed, objects[:n], truth[:n], objects[n:], truth[n:], 50)


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------
def _query(index, query, metric, rec, rep: Rep) -> Any:
    """One k-NN query, timed by its span; ``None`` when it raised."""
    rep.attempted += 1
    before = metric.pairs
    try:
        with rec.span("nearest", metric) as span:
            result = index.nearest(query, k=K)
    except Exception:
        _failure("nearest")
        rep.failed += 1
        return None
    rep.query_ms.append(1000.0 * (span["end"] - span["start"]))
    rep.query_pairs.append(metric.pairs - before)
    rep.answers.append((index.objects, query, "knn", K, _pairs(result)))
    rep.results.append(result)
    return result


def _range_query(index, query, radius: float, metric, rec, rep: Rep) -> None:
    rep.attempted += 1
    try:
        with rec.span("within", metric):
            result = index.within(query, radius)
    except Exception:
        _failure("within")
        rep.failed += 1
        return
    rep.answers.append((index.objects, query, "range", radius, _pairs(result)))


def _pairs(result) -> list[tuple[float, int]]:
    return [(n.distance, n.index) for n in result.neighbors]


def _query_phase(model, queries: list, metric, rec, rep: Rep) -> list:
    """Adopt the model's index and query it: k-NN for every query, then
    ``within`` at the k-th neighbour's distance for the first ``N_RANGE``.
    Returns the k-NN results (``None`` for a failed one)."""
    rep.attempted += 1
    try:
        with rec.span("index", metric):
            index = model.index()
    except Exception:
        _failure("index")
        rep.failed += 1
        return []
    results = [_query(index, q, metric, rec, rep) for q in queries]
    for q, result in list(zip(queries, results))[:N_RANGE]:
        if result is not None:
            _range_query(index, q, result.neighbors[-1].distance, metric, rec, rep)
    return results


class Workload:
    """Output checks every workload answers; the defaults check nothing.

    ``rep_seconds`` is the typical wall time of one repetition, set-up and
    checks included, on a 2-CPU machine; a run makes ``--seconds /
    rep_seconds`` repetitions. ``reference`` times the reference kernel of
    the workload's metric kind (:mod:`perfbench.calibrate`)."""

    rep_seconds: float
    reference: Callable[[], float]

    def check(self, inst: Instance, rep: Rep) -> list[str]:
        return []

    def second_build_check(self, inst: Instance, rep: Rep) -> tuple[list[str], float]:
        """Checks that cost a second full build, so a run makes them on
        one input only. Returns the problems and that build's scan
        seconds."""
        return [], 0.0


# ----------------------------------------------------------------------
# Batch workloads: one cluster_dataset call
# ----------------------------------------------------------------------
@dataclass
class BatchWorkload(Workload):
    name: str
    make: Callable[[int], Instance]
    metric: Callable[[], Any]
    params: dict[str, Any]
    rep_seconds: float
    reference: Callable[[], float]

    def run(self, inst: Instance, metric: CountingMetric, rec: Recorder, tracer=NULL_TRACER) -> Rep:
        rep = Rep(len(inst.objects), attempted=1)
        before = metric.pairs
        try:
            with rec.span("cluster_dataset", metric) as span:
                result = cluster_dataset(
                    inst.objects,
                    metric,
                    n_clusters=inst.n_clusters,
                    seed=inst.seed,
                    tracer=tracer,
                    **self.params,
                )
            absorb_spool(metric)
        except Exception:
            _failure("cluster_dataset")
            rep.failed += 1
            return rep
        rep.wall_s = span["end"] - span["start"]
        rep.pairs = metric.pairs - before
        rep.scan_s = result.scan_seconds
        rep.model = result.model
        rep.labels = result.labels
        rep.n_centers = len(result.centers)
        rep.n_subclusters = len(result.subclusters)
        rep.final_threshold = float(result.model.tree_.threshold)
        rep.worker_rss_kb = sum(s["peak_rss_kb"] for s in result.model.shard_summaries_)
        rep.ari = adjusted_rand_index(inst.truth, result.labels)
        return rep

    def check(self, inst: Instance, rep: Rep) -> list[str]:
        """Labels cover every object with a valid center index."""
        labels = rep.labels
        if labels is None or len(labels) != len(inst.objects):
            return ["labels do not cover every input object"]
        if len(labels) and (labels.min() < 0 or labels.max() >= rep.n_centers):
            return ["a label is not a valid center index"]
        return []


@dataclass
class ShardedWorkload(BatchWorkload):
    def second_build_check(self, inst: Instance, rep: Rep) -> tuple[list[str], float]:
        """The labels of ``n_jobs=2`` must equal those of ``n_jobs=1`` over
        the same ``n_shards``. Also returns the ``n_jobs=1`` scan seconds."""
        result = cluster_dataset(
            inst.objects,
            CountingMetric(self.metric()),
            n_clusters=inst.n_clusters,
            seed=inst.seed,
            **dict(self.params, n_jobs=1),
        )
        if rep.labels is not None and not np.array_equal(rep.labels, result.labels):
            return ["n_jobs=2 labels differ from n_jobs=1 labels"], result.scan_seconds
        return [], result.scan_seconds


# ----------------------------------------------------------------------
# The closed-loop stream: insert a batch, re-adopt the index, query it
# ----------------------------------------------------------------------
@dataclass
class StreamWorkload(Workload):
    name: str
    make: Callable[[int], Instance]
    metric: Callable[[], Any]
    max_nodes: int
    n_batches: int
    rep_seconds: float
    reference: Callable[[], float]

    def run(self, inst: Instance, metric: CountingMetric, rec: Recorder, tracer=NULL_TRACER) -> Rep:
        rep = Rep(len(inst.objects))
        before = metric.pairs
        batches = np.array_split(np.arange(len(inst.objects)), self.n_batches)
        query_batches = np.array_split(np.arange(len(inst.queries)), self.n_batches)
        knn: list = []
        with rec.span("stream", metric) as span:
            model = BUBBLE(metric, max_nodes=self.max_nodes, seed=inst.seed, tracer=tracer)
            for batch, qs in zip(batches, query_batches):
                rep.attempted += 1
                try:
                    with rec.span("partial_fit", metric) as fit:
                        model.partial_fit([inst.objects[i] for i in batch])
                except Exception:
                    _failure("partial_fit")
                    rep.failed += 1
                    continue
                rep.scan_s += fit["end"] - fit["start"]
                queries = [inst.queries[i] for i in qs]
                knn.extend(zip(qs, _query_phase(model, queries, metric, rec, rep)))
        rep.wall_s = span["end"] - span["start"]
        rep.pairs = metric.pairs - before
        if model.tree_ is None:
            return rep
        rep.model = model
        rep.n_subclusters = model.n_subclusters_
        rep.final_threshold = float(model.tree_.threshold)
        rep.ari = self._ari(inst, knn)
        return rep

    @staticmethod
    def _ari(inst: Instance, knn: list) -> float:
        """ARI of each query's true cluster against the true cluster of its
        nearest indexed clustroid: how well the sub-clusters answer
        "which cluster does this new object belong to"."""
        truth_of = {obj.tobytes(): int(t) for obj, t in zip(inst.objects, inst.truth)}
        pairs = [
            (int(inst.query_truth[q]), truth_of[r.neighbors[0].obj.tobytes()])
            for q, r in knn
            if r is not None
        ]
        if not pairs:
            return 0.0
        true, pred = zip(*pairs)
        return adjusted_rand_index(np.asarray(true), np.asarray(pred))

    def check(self, inst: Instance, rep: Rep) -> list[str]:
        return [] if rep.model is not None else ["the stream produced no tree"]


def check_answers(rep: Rep, metric_factory: Callable[[], Any]) -> tuple[list[str], list[float]]:
    """Compare every stored query answer with ``brute_force_reference`` on
    a separate metric instance, in (distance, index). Also returns the
    brute-force k-NN latencies in milliseconds."""
    reference = metric_factory()
    problems: list[str] = []
    brute_ms: list[float] = []
    for objects, query, kind, arg, got in rep.answers:
        if kind == "knn":
            t0 = time.perf_counter()
            want = brute_force_reference(reference, objects, query, arg)
            brute_ms.append(1000.0 * (time.perf_counter() - t0))
        else:
            want = [
                (d, i)
                for d, i in brute_force_reference(reference, objects, query, len(objects))
                if d <= arg
            ]
        if want != got:
            problems.append(f"{kind} answer differs from brute force")
    return problems, brute_ms


# ----------------------------------------------------------------------
# The BUBBLE-FM threshold-collapse sweep (traced runs only, untimed)
# ----------------------------------------------------------------------
#: Sweep size: DS20d.50c at this many points, this many seeds.
SWEEP_POINTS = 5000
SWEEP_SEEDS = 5


def fm_collapse_sweep(seed: int, make_tracer: Callable[[], Any]) -> list[tuple[Any, Any]]:
    """Fit BUBBLE-FM as ``cluster_dataset(algorithm="bubble-fm")`` would on
    five DS20d.50c inputs. Returns ``(model, tracer)`` per input; a model
    has collapsed when it keeps fewer sub-clusters than the 50 clusters the
    input has."""
    out = []
    for i in range(SWEEP_SEEDS):
        s = sub_seed(seed, 900 + i)
        ds = make_cell_dataset(dim=20, n_clusters=50, n_points=SWEEP_POINTS, seed=s)
        tracer = make_tracer()
        model = BUBBLEFM(
            EuclideanDistance(), max_nodes=paper_max_nodes(50), seed=s, tracer=tracer
        ).fit(ds.as_objects())
        out.append((model, tracer))
    return out


# ----------------------------------------------------------------------
# The workloads. Why each one is here is in BENCHMARK.json and README.md.
# ----------------------------------------------------------------------
WORKLOADS: dict[str, Any] = {
    w.name: w
    for w in (
        BatchWorkload(
            name="rds-bubble",
            make=lambda seed: _authority(seed, n_strings=90, n_classes=30),
            metric=EditDistance,
            params=dict(algorithm="bubble"),
            rep_seconds=1.1,
            reference=string_reference_seconds,
        ),
        StreamWorkload(
            name="ds20-stream",
            make=lambda seed: _cells(seed, n_points=1200, n_queries=60),
            metric=EuclideanDistance,
            max_nodes=60,
            n_batches=6,
            rep_seconds=1.8,
            reference=vector_reference_seconds,
        ),
        ShardedWorkload(
            name="ds20-sharded",
            make=lambda seed: _cells(seed, n_points=4000),
            metric=EuclideanDistance,
            params=dict(
                algorithm="bubble", max_nodes=paper_max_nodes(50), n_jobs=2, n_shards=2
            ),
            rep_seconds=2.4,
            reference=vector_reference_seconds,
        ),
    )
}
