"""Memory + numerical-stability regression gate for the slab CF* storage.

Re-runs the slab-arena memory benchmark (same Figure 4–6 workloads,
seeds, and tree parameters as the committed ``BENCH_memory.json``) and
asserts the refactor's contract:

* the contiguous slab layout costs at least 30% fewer bytes per leaf
  than the legacy two-lists-of-boxed-floats layout it replaced;
* the long-stream drift cell's compensated RowSum error stays under the
  bound the pre-slab scalar ``+=`` accumulation measurably violates —
  strictly better, not merely no worse;
* the storage change is NCD-neutral: totals match the committed memory
  baseline within tolerance, and the per-site ledger still satisfies the
  conservation law exactly;
* every slab-backed tree audits clean.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks.harness import MEMORY_OUTPUT, run_memory_benchmark

#: Relative tolerance vs the committed baselines' NCD totals.
TOLERANCE = 0.02

#: Acceptance bar: slab bytes/leaf <= (1 - this) * legacy bytes/leaf.
MIN_BYTES_REDUCTION = 0.30

#: Exact-vs-incremental RowSum drift bound for the long-stream cell.
#: The compensated slab sits orders of magnitude below it; the replayed
#: naive accumulation exceeds it by more than 10x.
DRIFT_BOUND = 1e-13


@pytest.fixture(scope="module")
def memory_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("memory") / "BENCH_memory.json"
    return run_memory_benchmark(scale="smoke", output=out, verbose=False)


@pytest.fixture(scope="module")
def baseline_doc():
    if not MEMORY_OUTPUT.exists():
        pytest.skip("no committed BENCH_memory.json baseline")
    return json.loads(Path(MEMORY_OUTPUT).read_text(encoding="utf-8"))


def test_slab_meets_bytes_reduction_bar(memory_doc):
    for record in memory_doc["records"]:
        name = f"{record['workload']['name']}/{record['algorithm']}"
        slab = record["slab"]
        assert slab["rows_used"] > 0, name
        assert slab["bytes_per_leaf"] <= (1.0 - MIN_BYTES_REDUCTION) * slab[
            "legacy_bytes_per_leaf"
        ], f"{name}: slab layout saves < {MIN_BYTES_REDUCTION:.0%} per leaf"
        assert slab["bytes_reduction"] >= MIN_BYTES_REDUCTION, name


def test_drift_compensated_strictly_beats_naive(memory_doc):
    drift = memory_doc["drift"]
    assert drift["n_features"] == 1  # whole stream absorbed into one CF*
    assert drift["compensated_rel_err"] <= DRIFT_BOUND
    assert drift["naive_rel_err"] > 10 * DRIFT_BOUND
    assert drift["compensated_rel_err"] < drift["naive_rel_err"]
    # The compensation slot actually carries the sub-ulp mass (~n * 0.25).
    assert drift["compensation_term"] > 1e3


def test_slab_trees_audit_clean(memory_doc):
    for record in memory_doc["records"]:
        name = f"{record['workload']['name']}/{record['algorithm']}"
        assert record["audit"]["n_errors"] == 0, name


def test_conservation_law_still_pinned(memory_doc):
    for record in memory_doc["records"]:
        assert record["conservation"]
        assert sum(record["ncd_by_site"].values()) == record["ncd_total"]


def test_within_tolerance_of_committed_baseline(memory_doc, baseline_doc):
    assert baseline_doc["format"] == memory_doc["format"]
    baseline = {
        (r["workload"]["name"], r["algorithm"]): r for r in baseline_doc["records"]
    }
    for record in memory_doc["records"]:
        key = (record["workload"]["name"], record["algorithm"])
        assert key in baseline, f"workload {key} missing from committed baseline"
        want = baseline[key]
        assert record["ncd_total"] == pytest.approx(
            want["ncd_total"], rel=TOLERANCE
        ), f"{key} NCD drifted: {record['ncd_total']} vs {want['ncd_total']}"
        assert record["n_subclusters"] == want["n_subclusters"], key
    want_drift = baseline_doc["drift"]
    got_drift = memory_doc["drift"]
    assert got_drift["compensated_rel_err"] <= max(
        want_drift["compensated_rel_err"], DRIFT_BOUND
    ), "drift regressed vs committed baseline"


def test_rss_recorded(memory_doc):
    assert memory_doc["peak_rss_kb"] > 0
    for record in memory_doc["records"]:
        assert record["peak_rss_kb"] > 0
