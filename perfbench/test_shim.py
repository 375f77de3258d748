"""Tests of the benchmark's metric shim.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_shim.py -q
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import cluster_dataset  # noqa: E402
from repro.datasets.strings import make_authority_dataset  # noqa: E402
from repro.datasets.vector import make_cell_dataset  # noqa: E402
from repro.metrics import EuclideanDistance  # noqa: E402
from repro.metrics.base import CallLedger, activate_ledger, deactivate_ledger, push_site, pop_site  # noqa: E402
from repro.metrics.string import EditDistance  # noqa: E402

from perfbench.shim import CountingMetric, TimingMetric, absorb_spool  # noqa: E402
from perfbench.workloads import WORKLOADS, Recorder, _cells  # noqa: E402

VECTORS = [np.arange(4, dtype=np.float64) + i for i in range(5)]
STRINGS = ["smith, j", "smyth, j", "smith, jo", "jones, a", "jones, b"]


@pytest.mark.parametrize("shim_class", [CountingMetric, TimingMetric])
@pytest.mark.parametrize(
    "inner, objects, scalar_pairwise",
    [(EuclideanDistance, VECTORS, False), (EditDistance, STRINGS, True)],
)
def test_each_hook_adds_its_pairs(shim_class, inner, objects, scalar_pairwise):
    shim = shim_class(inner())
    a, b = objects[:2], objects[2:]
    expected = [
        (lambda: shim._distance(objects[0], objects[1]), 1),
        (lambda: shim._one_to_many(objects[0], objects), len(objects)),
        (lambda: shim._pairwise(objects), len(objects) * (len(objects) - 1) // 2),
        (lambda: shim._cross(a, b), len(a) * len(b)),
    ]
    for call, pairs in expected:
        before = shim.pairs
        call()
        assert shim.pairs - before == pairs
    assert shim.dispatches == 4
    # _distance is scalar; EditDistance leaves _pairwise to the scalar loop.
    assert shim.scalar_pairs == 1 + (10 if scalar_pairwise else 0)
    # The hooks book nothing on the program's own counter.
    assert shim.n_calls == 0


def test_hooks_return_the_wrapped_metric_values():
    inner, shim = EditDistance(), CountingMetric(EditDistance())
    assert shim._distance(STRINGS[0], STRINGS[1]) == inner._distance(STRINGS[0], STRINGS[1])
    np.testing.assert_array_equal(shim._pairwise(STRINGS), inner._pairwise(STRINGS))
    np.testing.assert_array_equal(shim._cross(STRINGS[:2], STRINGS), inner._cross(STRINGS[:2], STRINGS))


def test_timing_shim_books_under_the_innermost_site():
    shim = TimingMetric(EuclideanDistance())
    shim.phase = "fit"
    ledger = CallLedger()
    previous = activate_ledger(ledger)
    try:
        push_site("leaf-d0")
        try:
            shim._one_to_many(VECTORS[0], VECTORS)
        finally:
            pop_site()
    finally:
        deactivate_ledger(previous)
    shim._distance(VECTORS[0], VECTORS[1])
    assert shim.by_site["fit/leaf-d0"][0] == len(VECTORS)
    assert shim.by_site["fit/-"][0] == 1
    assert shim.kernel_s == pytest.approx(sum(s for _, s in shim.by_site.values()))


@pytest.mark.parametrize("kind", ["vectors", "strings"])
def test_wrapping_leaves_labels_and_counted_ncd_bit_identical(kind):
    if kind == "vectors":
        ds = make_cell_dataset(dim=20, n_clusters=5, n_points=300, seed=3)
        objects, factory, k = ds.as_objects(), EuclideanDistance, 5
    else:
        ds = make_authority_dataset(n_classes=8, n_strings=60, seed=3)
        objects, factory, k = list(ds.strings), EditDistance, 8
    plain, shim = factory(), CountingMetric(factory())
    want = cluster_dataset(objects, plain, n_clusters=k, max_nodes=8, seed=3)
    got = cluster_dataset(objects, shim, n_clusters=k, max_nodes=8, seed=3)
    np.testing.assert_array_equal(got.labels, want.labels)
    assert shim.n_calls == plain.n_calls
    assert shim.pairs >= shim.n_calls


def test_worker_side_evaluations_reach_evals_per_object(tmp_path):
    small = replace(
        WORKLOADS["ds20-sharded"],
        make=lambda seed: _cells(seed, n_points=1500),
        params=dict(WORKLOADS["ds20-sharded"].params, max_nodes=20),
    )
    inline = replace(small, params=dict(small.params, n_jobs=1))
    inst = small.make(7)
    pairs = []
    for i, spec in enumerate((small, inline)):
        spool = tmp_path / str(i)
        spool.mkdir()
        rep = spec.run(inst, CountingMetric(EuclideanDistance(), str(spool)), Recorder())
        assert rep.failed == 0
        assert not list(spool.iterdir()), "run() absorbs every spool file"
        pairs.append(rep.pairs)
    # Every shard's evaluations come home, whichever process made them.
    assert pairs[0] == pairs[1]
    # Without the spool, the parent alone (merge, global phase, labeling)
    # sees fewer.
    rep = small.run(inst, CountingMetric(EuclideanDistance()), Recorder())
    assert rep.pairs < pairs[0]


def test_absorb_spool_without_a_spool_dir_is_a_no_op():
    assert absorb_spool(CountingMetric(EuclideanDistance())) == 0
