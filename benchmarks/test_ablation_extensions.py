"""Ablations A5-A7 — design choices beyond the paper's reported experiments.

* A5: FastMap vs Landmark MDS as BUBBLE-FM's image-space mapper (the paper
  notes the mapping algorithm is pluggable, Section 5.2.2);
* A6: the two second-phase labeling strategies (the exact nearest-clustroid
  scan — the paper's method, pruned over the clustroid distance matrix —
  and approximate CF*-tree routing);
* A7: BUBBLE vs CLARANS, the related-work medoid method of Section 2.
"""

from __future__ import annotations

from repro.experiments import (
    run_ablation_clarans,
    run_ablation_labeling,
    run_ablation_mappers,
)


def test_a5_mapper_choice(benchmark, report, scale):
    result = benchmark.pedantic(
        run_ablation_mappers, kwargs={"scale": scale}, rounds=1, iterations=1
    )
    report.record(result)
    values = result.column("distortion")
    # Both mappers must deliver comparable clustering quality.
    assert max(values) <= 1.5 * min(values)


def test_a6_labeling_strategies(benchmark, report, scale):
    result = benchmark.pedantic(
        run_ablation_labeling, kwargs={"scale": scale}, rounds=1, iterations=1
    )
    report.record(result)
    by = result.row_map()
    ncd, agreement = 1, 3
    n, k = result.context["n_objects"], result.context["n_subclusters"]
    # The pruned linear scan is exact: it agrees with the unpruned argmin
    # everywhere, at a fraction of its N * K calls.
    assert by["linear"][agreement] == 1.0
    assert by["linear"][ncd] < n * k / 5
    # CF*-tree routing is approximate.
    assert by["tree"][agreement] > 0.5


def test_a7_bubble_vs_clarans(benchmark, report, scale):
    result = benchmark.pedantic(
        run_ablation_clarans, kwargs={"scale": scale}, rounds=1, iterations=1
    )
    report.record(result)
    by = result.row_map()
    # Both reach good quality on separable data; CLARANS pays the
    # swap-evaluation cost the paper's related-work section criticizes.
    assert by["BUBBLE pipeline"][3] > 0.8
    assert by["CLARANS"][1] > by["BUBBLE pipeline"][1]


def test_a8_metric_indexes(benchmark, report, scale):
    from repro.experiments import run_ablation_indexes

    result = benchmark.pedantic(
        run_ablation_indexes, kwargs={"scale": scale}, rounds=1, iterations=1
    )
    report.record(result)
    by = result.row_map()
    per_query, agreement = 3, 5
    # Both indexes are exact and beat the linear scan per query.
    for index in ("m-tree", "vp-tree"):
        assert by[index][agreement] == 1.0
        assert by[index][per_query] < by["linear scan"][per_query]
