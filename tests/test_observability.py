"""Observability layer: tracer, sinks, NCD attribution, stats snapshots.

The two load-bearing guarantees, each pinned by a regression test here:

* **conservation** — the site-attributed NCD histogram partitions the
  metric's global counter *exactly* (sum over sites == ``n_calls``), for
  BUBBLE, BUBBLE-FM, and wrapped metrics alike;
* **zero disabled-path overhead** — the default :data:`NULL_TRACER`
  changes neither the distance-call count nor (beyond a loose factor) the
  wall time of a scan.
"""

from __future__ import annotations

import io
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.preclusterer import BUBBLE, BUBBLEFM
from repro.datasets import make_ds2
from repro.exceptions import MetricBudgetExceededError, ParameterError
from repro.metrics import EuclideanDistance
from repro.metrics.base import (
    CallLedger,
    activate_ledger,
    active_ledger,
    deactivate_ledger,
    pop_site,
    push_site,
    site,
)
from repro.metrics.cache import CachedDistance
from repro.observability import (
    NULL_TRACER,
    JsonlSink,
    ListSink,
    NullTracer,
    StatsSnapshot,
    SummarySink,
    Tracer,
    format_summary,
)


def _ds2_objects(n=500, seed=13):
    return make_ds2(n_points=n, seed=seed).as_objects()


def _check_event_stream(events):
    """Assert the enter/exit events form a well-nested, monotone trace."""
    stack = []
    last_seq = -1
    last_ncd = 0
    for ev in events:
        if ev["ev"] == "summary":
            continue
        assert ev["ncd"] >= last_ncd, "ledger total must be monotone"
        last_ncd = ev["ncd"]
        if ev["ev"] == "enter":
            assert ev["seq"] > last_seq, "span seq must be strictly increasing"
            last_seq = ev["seq"]
            assert ev["depth"] == len(stack)
            stack.append((ev["span"], ev["seq"]))
        else:
            assert ev["ev"] == "exit"
            assert stack, f"exit {ev['span']!r} with no open span"
            name, seq = stack.pop()
            assert name == ev["span"], "exit must match the innermost open span"
            assert seq == ev["seq"]
            assert ev["dncd"] >= 0
            assert ev["dt"] >= 0
    assert not stack, f"spans left open: {[s for s, _ in stack]}"


# ----------------------------------------------------------------------
# Satellite 1: conservation — sites partition the global NCD counter
# ----------------------------------------------------------------------
class TestConservation:
    @pytest.mark.parametrize("cls", [BUBBLE, BUBBLEFM])
    def test_sites_sum_to_metric_counter(self, cls):
        metric = EuclideanDistance()
        tracer = Tracer()
        model = cls(metric, max_nodes=25, seed=3, tracer=tracer)
        model.fit(_ds2_objects())
        model.assign(_ds2_objects(n=100, seed=14))
        by_site = tracer.calls_by_site
        assert sum(by_site.values()) == tracer.total_calls == metric.n_calls
        # The taxonomy actually fired: routing and maintenance sites exist.
        assert by_site["leaf-d0"] > 0
        assert by_site["redistribute"] > 0
        if cls is BUBBLEFM:
            assert by_site["fastmap-refit"] > 0

    def test_conservation_under_wrapped_metric(self):
        # CachedDistance counts through the inner metric's public API, so
        # attribution must conserve against the *wrapper's* counter too.
        metric = CachedDistance(EuclideanDistance(), key=lambda v: v.tobytes())
        tracer = Tracer()
        model = BUBBLE(metric, max_nodes=20, seed=5, tracer=tracer)
        model.fit(_ds2_objects(n=300, seed=21))
        assert sum(tracer.calls_by_site.values()) == metric.n_calls

    def test_map_first_attributes_every_call(self):
        from repro.pipelines import map_first_cluster

        tracer = Tracer()
        with tracer:
            result = map_first_cluster(
                _ds2_objects(n=300, seed=23), EuclideanDistance(),
                n_clusters=5, image_dim=2, max_nodes=20, seed=0,
            )
        by_site = tracer.calls_by_site
        # Image-space BIRCH opens its own nested sites (``threshold``).
        assert "unattributed" not in by_site
        assert sum(by_site.values()) == tracer.total_calls
        assert by_site["map-first"] >= result.n_distance_calls > 0

    def test_untraced_metrics_do_not_leak_into_ledger(self):
        tracer = Tracer()
        outside = EuclideanDistance()
        with tracer:
            pass  # nothing measured while active
        outside.distance(np.zeros(2), np.ones(2))
        assert tracer.total_calls == 0


# ----------------------------------------------------------------------
# Satellite 2: trace well-formedness under splits and rebuilds (property)
# ----------------------------------------------------------------------
class TestTraceProperties:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n=st.integers(min_value=60, max_value=160),
        max_nodes=st.integers(min_value=5, max_value=12),
    )
    def test_events_always_well_nested(self, seed, n, max_nodes):
        # Tiny node budgets and branching force splits and repeated
        # rebuilds, the paths where span pairing could break.
        rng = np.random.default_rng(seed)
        objs = list(rng.uniform(0, 50, size=(n, 2)))
        sink = ListSink()
        tracer = Tracer(sinks=[sink])
        metric = EuclideanDistance()
        model = BUBBLE(
            metric, branching_factor=3, max_nodes=max_nodes, seed=seed, tracer=tracer
        )
        model.fit(objs)
        tracer.close()
        _check_event_stream(sink.events)
        assert sum(tracer.calls_by_site.values()) == metric.n_calls

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_events_well_nested_for_bubble_fm(self, seed):
        rng = np.random.default_rng(seed)
        objs = list(rng.normal(size=(120, 2)))
        sink = ListSink()
        tracer = Tracer(sinks=[sink])
        model = BUBBLEFM(
            EuclideanDistance(), branching_factor=4, max_nodes=8, seed=seed, tracer=tracer
        )
        model.fit(objs)
        tracer.close()
        _check_event_stream(sink.events)


# ----------------------------------------------------------------------
# Satellite 3: the disabled path is free
# ----------------------------------------------------------------------
class TestOverheadGuard:
    def _build(self, tracer):
        metric = EuclideanDistance()
        model = BUBBLE(metric, max_nodes=30, seed=9, tracer=tracer)
        start = time.perf_counter()
        model.fit(_ds2_objects(n=2_000, seed=17))
        return metric.n_calls, time.perf_counter() - start

    def test_null_tracer_adds_zero_distance_calls(self):
        untraced, t_plain = self._build(NULL_TRACER)
        nulled, t_null = self._build(NullTracer())
        traced_tracer = Tracer()
        metric = EuclideanDistance()
        model = BUBBLE(metric, max_nodes=30, seed=9, tracer=traced_tracer)
        model.fit(_ds2_objects(n=2_000, seed=17))
        assert untraced == nulled == metric.n_calls
        assert sum(traced_tracer.calls_by_site.values()) == metric.n_calls
        # Loose wall-clock guard only: the null path must not be pathologically
        # slower than itself run twice (catches accidental O(n) tracer work).
        assert t_null < 10 * max(t_plain, 1e-3)


# ----------------------------------------------------------------------
# Tracer / ledger mechanics
# ----------------------------------------------------------------------
class TestLedger:
    def test_push_pop_are_noops_without_active_ledger(self):
        assert active_ledger() is None
        push_site("anywhere")
        pop_site()  # must not raise
        assert active_ledger() is None

    def test_pop_tolerates_empty_stack(self):
        ledger = CallLedger()
        previous = activate_ledger(ledger)
        try:
            pop_site()
            assert ledger.stack == []
        finally:
            deactivate_ledger(previous)

    def test_charge_books_to_innermost_site(self):
        ledger = CallLedger()
        ledger.charge(2)
        ledger.stack.append("outer")
        ledger.charge(3)
        ledger.stack.append("inner")
        ledger.charge(5)
        assert ledger.by_site == {"unattributed": 2, "outer": 3, "inner": 5}
        assert ledger.total == 10

    def test_activation_nests_and_restores_previous(self):
        first = Tracer()
        second = Tracer()
        with first:
            with second:
                assert active_ledger() is second.ledger
            assert active_ledger() is first.ledger
        assert active_ledger() is None

    def test_over_deactivation_raises(self):
        tracer = Tracer()
        with pytest.raises(ParameterError):
            tracer._deactivate()

    def test_activation_is_the_reentrant_tracer(self):
        tracer = Tracer()
        assert tracer.activation() is tracer
        with tracer.activation():
            with tracer:
                assert active_ledger() is tracer.ledger
            assert active_ledger() is tracer.ledger
        assert active_ledger() is None


class TestSite:
    def test_noop_without_ledger(self):
        metric = EuclideanDistance()
        with site("anywhere") as opened:
            metric.distance(np.zeros(2), np.ones(2))
        assert opened.ledger is None
        assert active_ledger() is None
        assert metric.n_calls == 1

    def test_pops_on_normal_and_exception_exit(self):
        ledger = CallLedger()
        previous = activate_ledger(ledger)
        try:
            with site("outer"):
                with site("inner"):
                    assert ledger.stack == ["outer", "inner"]
                assert ledger.stack == ["outer"]
            assert ledger.stack == []
            with pytest.raises(RuntimeError):
                with site("doomed"):
                    raise RuntimeError("boom")
            assert ledger.stack == []
        finally:
            deactivate_ledger(previous)

    def test_closes_on_the_ledger_it_opened_on(self):
        # A ledger activated inside the block is not popped on exit.
        ledger = CallLedger()
        with site("before-activation"):
            previous = activate_ledger(ledger)
            ledger.charge(1)
        try:
            assert ledger.by_site == {"unattributed": 1}
            assert ledger.stack == []
        finally:
            deactivate_ledger(previous)

    def test_nests_with_tracer_spans(self):
        metric = EuclideanDistance()
        a, b = np.zeros(2), np.ones(2)
        tracer = Tracer()
        with tracer:
            with tracer.span("outer"):
                metric.distance(a, b)
                with site("inner"):
                    metric.one_to_many(a, [b, b, b])
                    with tracer.span("deep"):
                        metric.distance(a, b)
                metric.distance(a, b)
        assert tracer.calls_by_site == {"outer": 2, "inner": 3, "deep": 1}
        assert sum(tracer.calls_by_site.values()) == metric.n_calls
        assert tracer.ledger.stack == []
        assert tracer.span_aggregates()["outer"]["ncd"] == 6


class TestCountExternal:
    def test_books_each_site_then_the_residual(self):
        metric = EuclideanDistance()
        tracer = Tracer()
        with tracer, tracer.span("shard-ingest"):
            metric.count_external(12, by_site={"nonleaf-d2": 3, "leaf-d0": 7})
            metric.count_external(4)
        assert tracer.calls_by_site == {"leaf-d0": 7, "nonleaf-d2": 3, "shard-ingest": 6}
        assert sum(tracer.calls_by_site.values()) == metric.n_calls == 16

    def test_worker_unattributed_calls_join_the_residual(self):
        metric = EuclideanDistance()
        tracer = Tracer()
        with tracer, tracer.span("shard-ingest"):
            metric.count_external(9, by_site={"unattributed": 4, "leaf-d0": 5})
        assert tracer.calls_by_site == {"leaf-d0": 5, "shard-ingest": 4}

    def test_over_attribution_raises_with_nothing_booked(self):
        metric = EuclideanDistance()
        tracer = Tracer()
        with tracer:
            with pytest.raises(ValueError, match="attributes 9 calls"):
                metric.count_external(8, by_site={"leaf-d0": 5, "split": 4})
            with pytest.raises(ValueError):
                metric.count_external(-1)
        assert metric.n_calls == 0
        assert tracer.calls_by_site == {}

    def test_guarded_budget_breach_books_nothing(self):
        from repro.robustness import GuardedMetric

        metric = GuardedMetric(EuclideanDistance(), max_calls=10)
        tracer = Tracer()
        with tracer:
            metric.count_external(6, by_site={"leaf-d0": 6})
            with pytest.raises(MetricBudgetExceededError):
                metric.count_external(5, by_site={"leaf-d0": 2, "split": 2})
        assert metric.n_calls == 6
        assert tracer.calls_by_site == {"leaf-d0": 6}


class TestTracer:
    def test_out_of_order_span_exit_raises(self):
        tracer = Tracer()
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(ParameterError):
            outer.__exit__(None, None, None)

    def test_span_aggregates_are_inclusive(self):
        tracer = Tracer()
        metric = EuclideanDistance()
        a, b = np.zeros(2), np.ones(2)
        with tracer:
            with tracer.span("outer"):
                metric.distance(a, b)
                with tracer.span("inner"):
                    metric.distance(a, b)
        spans = tracer.span_aggregates()
        assert spans["outer"]["ncd"] == 2  # includes the nested span's call
        assert spans["inner"]["ncd"] == 1
        assert tracer.calls_by_site == {"outer": 1, "inner": 1}  # disjoint

    def test_close_is_idempotent_and_emits_summary(self):
        sink = ListSink()
        tracer = Tracer(sinks=[sink])
        with tracer, tracer.span("phase"):
            pass
        tracer.close()
        tracer.close()
        summaries = [e for e in sink.events if e["ev"] == "summary"]
        assert len(summaries) == 1
        assert summaries[0]["spans"]["phase"]["count"] == 1

    def test_null_tracer_contexts_are_shared_singletons(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")
        assert NULL_TRACER.activation() is NULL_TRACER.span("c")
        assert NULL_TRACER.enabled is False
        NULL_TRACER.close()


class TestSinks:
    def test_jsonl_sink_round_trips_events(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sinks=[JsonlSink(str(path))])
        metric = EuclideanDistance()
        with tracer, tracer.span("work"):
            metric.distance(np.zeros(2), np.ones(2))
        tracer.close()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        _check_event_stream(events)
        assert events[-1]["ev"] == "summary"
        assert events[-1]["ncd_by_site"] == {"work": 1}

    def test_jsonl_sink_on_stream_does_not_close_it(self):
        stream = io.StringIO()
        sink = JsonlSink(stream)
        sink.emit({"ev": "enter", "span": "x"})
        sink.close()
        assert not stream.closed
        assert json.loads(stream.getvalue()) == {"ev": "enter", "span": "x"}

    def test_summary_sink_prints_table(self):
        stream = io.StringIO()
        tracer = Tracer(sinks=[SummarySink(stream)])
        metric = EuclideanDistance()
        with tracer, tracer.span("scan"):
            metric.distance(np.zeros(2), np.ones(2))
        tracer.close()
        text = stream.getvalue()
        assert "NCD by site" in text
        assert "scan" in text

    def test_format_summary_handles_empty_trace(self):
        assert "distance calls: 0" in format_summary({"ncd_total": 0})


class TestStatsSnapshot:
    def test_from_model_reports_tree_and_sites(self):
        tracer = Tracer()
        metric = EuclideanDistance()
        model = BUBBLE(metric, max_nodes=20, seed=2, tracer=tracer)
        model.fit(_ds2_objects(n=300, seed=23))
        snap = StatsSnapshot.from_model(model)
        assert snap.n_objects == 300
        assert snap.n_nodes == model.tree_.n_nodes
        assert snap.n_leaves >= 1
        assert snap.max_nodes == 20
        assert snap.m_pressure == pytest.approx(model.tree_.n_nodes / 20)
        assert snap.ncd_total == metric.n_calls
        assert sum(snap.ncd_by_site.values()) == metric.n_calls
        doc = snap.to_dict()
        assert json.loads(json.dumps(doc)) == doc
        text = snap.format()
        assert "M-pressure" in text and "NCD by site" in text

    def test_cache_discovered_through_wrapper_chain(self):
        metric = CachedDistance(EuclideanDistance(), key=lambda v: v.tobytes())
        model = BUBBLE(metric, max_nodes=20, seed=2)
        model.fit(_ds2_objects(n=200, seed=29))
        snap = StatsSnapshot.from_model(model)
        assert snap.cache_misses == metric.n_calls
        assert snap.cache_hits == metric.n_hits

    def test_checkpoint_strips_live_tracer(self, tmp_path):
        from repro.persistence import load_checkpoint, save_checkpoint

        tracer = Tracer(sinks=[JsonlSink(str(tmp_path / "t.jsonl"))])
        metric = EuclideanDistance()
        model = BUBBLE(metric, max_nodes=15, seed=6, tracer=tracer)
        model.partial_fit(_ds2_objects(n=150, seed=31))
        path = tmp_path / "scan.ckpt"
        save_checkpoint(path, model.tree_, cursor=150)
        tracer.close()
        ck = load_checkpoint(path, metric=EuclideanDistance())
        assert ck.tree.tracer is NULL_TRACER
        assert ck.tree.policy.tracer is NULL_TRACER
