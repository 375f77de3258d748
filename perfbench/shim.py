"""Benchmark-side metric shims: count, and optionally time, every pair that
reaches a metric's kernel hooks.

The program books NCD in the public wrappers of
:class:`~repro.metrics.base.DistanceFunction` (``distance``,
``one_to_many``, ``pairwise``, ``cross``), but geometry maintenance calls
the hooks (``_distance``, ``_one_to_many``, ``_pairwise``, ``_cross``)
directly and books nothing. A shim wraps the user's metric at the hook
boundary, so its ``pairs`` counter is the number of true evaluations
whatever the program books, while ``n_calls`` stays the program's own
counted NCD.

A sharded build pickles the metric into every worker. Each unpickled copy
starts from zero and, because worker results only carry ``n_calls`` home,
publishes its counters to a spool file in ``spool_dir`` whenever the
program reads its ``n_calls`` (a worker does so once its shard is done).
:func:`absorb_spool` adds those files back into the parent's shim.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from collections.abc import Sequence
from typing import Any

import numpy as np
from repro.metrics.base import DistanceFunction, active_ledger

__all__ = ["CountingMetric", "TimingMetric", "absorb_spool"]


class CountingMetric(DistanceFunction):
    """Count every pair through the four hooks; read no clock.

    Each hook adds exactly one Python frame in front of the wrapped
    metric's hook. ``scalar_pairs`` counts the pairs the wrapped metric
    evaluates one at a time: ``_distance`` itself and any batched hook it
    leaves to the scalar loops of :class:`DistanceFunction`.
    """

    def __init__(self, inner: DistanceFunction, spool_dir: str | None = None):
        super().__init__()
        self.inner = inner
        self.name = inner.name
        self.spool_dir = spool_dir
        #: Benchmark phase label; :class:`TimingMetric` books under it.
        self.phase = "-"
        self.pairs = 0
        self.scalar_pairs = 0
        self.dispatches = 0
        self._spool_path: str | None = None
        kind, base = type(inner), DistanceFunction
        self._scalar_many = kind._one_to_many is base._one_to_many
        self._scalar_pairwise = kind._pairwise is base._pairwise
        self._scalar_cross = kind._cross is base._cross and self._scalar_many

    # -- hooks ---------------------------------------------------------
    def _distance(self, a: Any, b: Any) -> float:
        self.pairs += 1
        self.scalar_pairs += 1
        self.dispatches += 1
        return self.inner._distance(a, b)

    def _one_to_many(self, obj: Any, objects: Sequence) -> np.ndarray:
        n = len(objects)
        self.pairs += n
        self.dispatches += 1
        if self._scalar_many:
            self.scalar_pairs += n
        return self.inner._one_to_many(obj, objects)

    def _pairwise(self, objects: Sequence) -> np.ndarray:
        n = len(objects) * (len(objects) - 1) // 2
        self.pairs += n
        self.dispatches += 1
        if self._scalar_pairwise:
            self.scalar_pairs += n
        return self.inner._pairwise(objects)

    def _cross(self, objects_a: Sequence, objects_b: Sequence) -> np.ndarray:
        n = len(objects_a) * len(objects_b)
        self.pairs += n
        self.dispatches += 1
        if self._scalar_cross:
            self.scalar_pairs += n
        return self.inner._cross(objects_a, objects_b)

    # -- worker copies -------------------------------------------------
    @property
    def n_calls(self) -> int:
        if self._spool_path is not None:
            self._publish()
        return self._n_calls

    def counters(self) -> dict[str, Any]:
        return {
            "pairs": self.pairs,
            "scalar_pairs": self.scalar_pairs,
            "dispatches": self.dispatches,
        }

    def _add(self, counters: dict[str, Any]) -> None:
        self.pairs += counters["pairs"]
        self.scalar_pairs += counters["scalar_pairs"]
        self.dispatches += counters["dispatches"]

    def _publish(self) -> None:
        path = str(self._spool_path)
        with open(path + ".tmp", "w") as fh:
            json.dump(self.counters(), fh)
        os.replace(path + ".tmp", path)

    def __getstate__(self) -> dict[str, Any]:
        state = self.__dict__.copy()
        state.update(self._zero_state())
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        if self.spool_dir is not None:
            name = f"{os.getpid()}-{uuid.uuid4().hex}.json"
            self._spool_path = os.path.join(self.spool_dir, name)

    def _zero_state(self) -> dict[str, Any]:
        return {"pairs": 0, "scalar_pairs": 0, "dispatches": 0, "_spool_path": None}


class TimingMetric(CountingMetric):
    """:class:`CountingMetric` that also times each hook.

    Pairs and seconds are booked under ``"<phase>/<site>"``: the
    benchmark's current phase and the innermost open site or span of the
    active :class:`~repro.metrics.base.CallLedger` (``-`` when none is
    open), so hook time lands under its enclosing span instead of one span
    per hook.
    """

    def __init__(self, inner: DistanceFunction, spool_dir: str | None = None):
        super().__init__(inner, spool_dir)
        self.kernel_s = 0.0
        #: ``"<phase>/<site>" -> [pairs, seconds]``.
        self.by_site: dict[str, list[float]] = {}

    def _book(self, n: int, seconds: float) -> None:
        ledger = active_ledger()
        site = ledger.stack[-1] if ledger is not None and ledger.stack else "-"
        key = f"{self.phase}/{site}"
        entry = self.by_site.get(key)
        if entry is None:
            self.by_site[key] = [n, seconds]
        else:
            entry[0] += n
            entry[1] += seconds
        self.kernel_s += seconds

    def _distance(self, a: Any, b: Any) -> float:
        t0 = time.perf_counter()
        out = super()._distance(a, b)
        self._book(1, time.perf_counter() - t0)
        return out

    def _one_to_many(self, obj: Any, objects: Sequence) -> np.ndarray:
        t0 = time.perf_counter()
        out = super()._one_to_many(obj, objects)
        self._book(len(objects), time.perf_counter() - t0)
        return out

    def _pairwise(self, objects: Sequence) -> np.ndarray:
        t0 = time.perf_counter()
        out = super()._pairwise(objects)
        n = len(objects)
        self._book(n * (n - 1) // 2, time.perf_counter() - t0)
        return out

    def _cross(self, objects_a: Sequence, objects_b: Sequence) -> np.ndarray:
        t0 = time.perf_counter()
        out = super()._cross(objects_a, objects_b)
        self._book(len(objects_a) * len(objects_b), time.perf_counter() - t0)
        return out

    def counters(self) -> dict[str, Any]:
        out = super().counters()
        out.update(kernel_s=self.kernel_s, by_site=self.by_site)
        return out

    def _add(self, counters: dict[str, Any]) -> None:
        super()._add(counters)
        self.kernel_s += counters["kernel_s"]
        for key, (pairs, seconds) in counters["by_site"].items():
            entry = self.by_site.setdefault(key, [0, 0.0])
            entry[0] += pairs
            entry[1] += seconds

    def _zero_state(self) -> dict[str, Any]:
        out = super()._zero_state()
        out.update(kernel_s=0.0, by_site={})
        return out


def absorb_spool(shim: CountingMetric) -> int:
    """Add the counters that worker copies of ``shim`` published, delete
    their spool files, and return how many copies reported."""
    if shim.spool_dir is None:
        return 0
    names = sorted(n for n in os.listdir(shim.spool_dir) if n.endswith(".json"))
    for name in names:
        path = os.path.join(shim.spool_dir, name)
        with open(path) as fh:
            shim._add(json.load(fh))
        os.remove(path)
    return len(names)
