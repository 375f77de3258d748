"""Per-layer metrics of the traced run, derived from three sources: the
benchmark's own spans around public calls, the timing shim's hook ledger,
and the spans and site ledger of the program's ``Tracer``."""

from __future__ import annotations

import json
import statistics
from typing import Any

from perfbench.shim import TimingMetric
from perfbench.workloads import Rep

__all__ = ["program_spans", "nest", "layer_metrics", "write_trace"]

#: Ledger sites of the scan that the tracer's site ledger books NCD under.
CORE_SITES = ("leaf-d0", "nonleaf-d2", "leaf-update", "split", "threshold")
#: Sites of the global phase (HAC over the clustroids plus the centers).
GLOBAL_SITES = ("global-phase", "global-matrix")


def program_spans(events: list[dict[str, Any]], t_init: float) -> list[dict[str, Any]]:
    """Spans from a ``ListSink``'s enter/exit events, shifted onto the
    benchmark clock (``t_init`` is that clock when the tracer was made)."""
    starts: dict[int, float] = {}
    spans = []
    for ev in events:
        if ev["ev"] == "enter":
            starts[ev["seq"]] = ev["t"]
        elif ev["ev"] == "exit":
            spans.append(
                {
                    "name": ev["span"],
                    "source": "program",
                    "start": t_init + starts.pop(ev["seq"]),
                    "end": t_init + ev["t"],
                }
            )
    return spans


def nest(spans: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Give each span an ``id``, its ``parent`` (the innermost span that
    encloses it) and ``self_s``: its duration minus the time its children
    cover. Returns the spans in start order."""
    spans = sorted(spans, key=lambda s: (s["start"], -s["end"]))
    stack: list[dict[str, Any]] = []
    for i, span in enumerate(spans):
        span["id"] = i
        while stack and stack[-1]["end"] < span["end"]:
            stack.pop()
        duration = span["end"] - span["start"]
        span["self_s"] = duration
        span["parent"] = stack[-1]["id"] if stack else None
        if stack:
            stack[-1]["self_s"] -= duration
        stack.append(span)
    return spans


def tail(values: list[float]) -> float:
    """The highest percentile of ``values`` with at least ten samples above
    it (zero for no samples)."""
    ordered = sorted(values)
    return ordered[max(len(ordered) - 11, 0)] if ordered else 0.0


def _seconds(spans: list[dict[str, Any]], name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def _self_seconds(spans: list[dict[str, Any]], name: str) -> float:
    return sum(s["self_s"] for s in spans if s["name"] == name)


def _count(spans: list[dict[str, Any]], name: str) -> int:
    return sum(1 for s in spans if s["name"] == name)


def _hook_pairs(metric: TimingMetric, phases=None, sites=None, exclude_sites=()) -> int:
    total = 0
    for key, (pairs, _) in metric.by_site.items():
        phase, site = key.split("/", 1)
        if phases is not None and phase not in phases:
            continue
        if sites is not None and site not in sites:
            continue
        if site in exclude_sites:
            continue
        total += pairs
    return int(total)


def layer_metrics(
    rep: Rep,
    metric: TimingMetric,
    tracer: Any,
    spans: list[dict[str, Any]],
    untraced: list[Rep],
    brute_ms: list[float],
    inline_fit_s: float,
    sweep: list[tuple[Any, list[dict[str, Any]]]],
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``. A layer the
    workload does not run reports zero. Query latency and ingest rate come
    from the ``untraced`` repetitions on the same input; the rest from the
    traced repetition ``rep``."""
    by_site = tracer.calls_by_site
    traced_wall = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    scan_phases = ("cluster_dataset", "partial_fit")
    n_knn = len(rep.query_ms)
    results = [r for r in rep.results if r is not None]
    shards = rep.model.shard_summaries_ if rep.model is not None else []
    shard_s = [s["elapsed_seconds"] for s in shards]
    merge_s = _seconds(spans, "merge")
    redistribute_s = _seconds(spans, "redistribute")
    untraced_wall = statistics.median(r.wall_s for r in untraced)
    query_ms = [ms for r in untraced for ms in r.query_ms]
    query_pairs = [p for r in untraced for p in r.query_pairs]
    sweep_spans = [s for _, ss in sweep for s in ss]
    collapsed = [m.n_subclusters_ < 50 for m, _ in sweep]
    fm_sites: dict[str, int] = {}
    for model, _ in sweep:
        for site, n in model.tracer.calls_by_site.items():
            fm_sites[site] = fm_sites.get(site, 0) + n

    out: dict[str, tuple[float, str]] = {
        # metrics: the shim at the hook boundary
        "metrics.pairs": (metric.pairs, "count"),
        "metrics.counted_ncd": (metric.n_calls, "count"),
        "metrics.uncounted_pairs": (metric.pairs - metric.n_calls, "count"),
        "metrics.kernel_s": (metric.kernel_s, "s"),
        "metrics.kernel_share": (metric.kernel_s / traced_wall, "share"),
        "metrics.scalar_pairs": (metric.scalar_pairs, "count"),
        "metrics.pairs_per_dispatch": (metric.pairs / max(metric.dispatches, 1), "pairs/dispatch"),
        # core: the CF*-tree scan
        "core.fit_s": (rep.scan_s, "s"),
        "core.ingest_objects_per_s": (
            statistics.median(r.n_objects / r.scan_s for r in untraced),
            "objects/s",
        ),
        "core.fit_pairs": (
            _hook_pairs(metric, scan_phases, exclude_sites=GLOBAL_SITES + ("redistribute",)),
            "count",
        ),
    }
    for site in CORE_SITES:
        out[f"core.ncd.{site}"] = (by_site.get(site, 0), "count")
    out.update(
        {
            "core.split_s": (_self_seconds(spans, "split"), "s"),
            "core.rebuild_s": (_self_seconds(spans, "rebuild"), "s"),
            "core.sample_refresh_s": (_self_seconds(spans, "sample-refresh"), "s"),
            "core.rebuilds": (_count(spans, "rebuild"), "count"),
            "core.n_subclusters": (rep.n_subclusters, "count"),
            "core.final_threshold": (rep.final_threshold, "distance"),
            "core.fm_collapse_share": (sum(collapsed) / len(collapsed), "share"),
            # fastmap: BUBBLE-FM's image space, from the collapse sweep
            "fastmap.ncd.map": (fm_sites.get("fastmap-map", 0), "count"),
            "fastmap.ncd.refit": (fm_sites.get("fastmap-refit", 0), "count"),
            "fastmap.refit_s": (_self_seconds(sweep_spans, "fastmap-refit"), "s"),
            "fastmap.refits": (_count(sweep_spans, "fastmap-refit"), "count"),
            # hac: the global phase, centers included
            "hac.global_s": (_seconds(spans, "global-phase"), "s"),
            "hac.global_pairs": (_hook_pairs(metric, sites=GLOBAL_SITES), "count"),
            # pipelines: second-scan labeling
            "pipelines.redistribute_s": (redistribute_s, "s"),
            "pipelines.redistribute_pairs": (_hook_pairs(metric, sites=("redistribute",)), "count"),
            "pipelines.redistribute_share": (
                redistribute_s / rep.wall_s if rep.wall_s else 0.0,
                "share",
            ),
            # index: adoption of the fitted tree and queries on it
            "index.adopt_s": (_seconds(spans, "index"), "s"),
            "index.build_pairs": (_hook_pairs(metric, phases=("index",)), "count"),
            "index.knn_s": (_seconds(spans, "nearest"), "s"),
            "index.range_s": (_seconds(spans, "within"), "s"),
            "index.pairs_per_knn": (
                _hook_pairs(metric, phases=("nearest",)) / max(n_knn, 1),
                "pairs/query",
            ),
            "index.prune_share": (
                sum(r.n_pruned for r in results) / max(sum(r.n_candidates for r in results), 1),
                "share",
            ),
            "index.cache_hit_share": (
                sum(r.cache_hits for r in results) / max(sum(r.n_evaluated for r in results), 1),
                "share",
            ),
            "index.query_p50_ms": (statistics.median(query_ms) if query_ms else 0.0, "ms"),
            "index.query_tail_ms": (tail(query_ms), "ms"),
            "index.query_samples": (len(query_ms), "count"),
            "index.evals_per_query": (sum(query_pairs) / max(len(query_pairs), 1), "evals/query"),
            "index.brute_p50_ms": (statistics.median(brute_ms) if brute_ms else 0.0, "ms"),
            # parallel: shard fits in workers, then the merge
            "parallel.shard_s_max": (max(shard_s, default=0.0), "s"),
            "parallel.shard_s_mean": (statistics.fmean(shard_s) if shard_s else 0.0, "s"),
            "parallel.merge_s": (merge_s, "s"),
            "parallel.merge_pairs": (_hook_pairs(metric, sites=("merge",)), "count"),
            "parallel.overhead_s": (
                rep.scan_s - max(shard_s) - merge_s if shard_s else 0.0,
                "s",
            ),
            "parallel.retries": (sum(s["n_attempts"] - 1 for s in shards), "count"),
            "parallel.inline_fit_s": (inline_fit_s, "s"),
            # observability: the program's tracer itself
            "observability.unattributed_ncd": (by_site.get("unattributed", 0), "count"),
            "observability.trace_overhead_share": (
                (rep.wall_s - untraced_wall) / untraced_wall,
                "share",
            ),
        }
    )
    return out


def write_trace(path: str, spans: list[dict[str, Any]], metric: TimingMetric) -> None:
    """Write spans (benchmark and program, nested) and the hook ledger as
    JSON lines."""
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps({"kind": "span", **span}) + "\n")
        for key, (pairs, seconds) in sorted(metric.by_site.items()):
            phase, site = key.split("/", 1)
            fh.write(
                json.dumps(
                    {"kind": "hooks", "phase": phase, "site": site, "pairs": pairs, "seconds": seconds}
                )
                + "\n"
            )
