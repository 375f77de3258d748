"""String metrics: edit distance and variants.

The paper motivates the distance-space setting with the edit distance, whose
``O(mn)`` cost dominates clustering time on string data (Sections 1 and 7).
This module provides:

* :class:`EditDistance` — Levenshtein distance, the metric used by the
  data-cleaning application (Section 7);
* :class:`WeightedEditDistance` — per-operation costs (a metric as long as
  the costs are symmetric and positive);
* :class:`DamerauLevenshteinDistance` — adds adjacent transposition, which
  matches one of the corruption classes in bibliographic data;
* :class:`RelativeEditDistance` — length-normalized edit distance as used by
  the RED comparator of French, Powell and Schulman.

Every unbounded :class:`EditDistance` evaluation, single or batched, runs
the bit-parallel kernel :func:`levenshtein_bitparallel`, which costs per
pair, not per dispatch, and is exact. The scalar two-row DP
:func:`edit_distance` serves weighted costs and the ``upper_bound`` early
exit: once every entry of the current row exceeds the bound the true
distance cannot come back below it, so the bound is returned instead. A
pair whose rows never all exceed it gets its exact distance, which may
still exceed the bound, so a bounded result is not ``min(d, bound)``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from repro.exceptions import MetricError, ParameterError
from repro.metrics.base import DistanceFunction

__all__ = [
    "edit_distance",
    "damerau_levenshtein",
    "levenshtein_bitparallel",
    "EditDistance",
    "WeightedEditDistance",
    "DamerauLevenshteinDistance",
    "RelativeEditDistance",
]


def edit_distance(
    a: str,
    b: str,
    insert_cost: float = 1.0,
    delete_cost: float = 1.0,
    substitute_cost: float = 1.0,
    upper_bound: float | None = None,
) -> float:
    """Weighted Levenshtein distance between two strings.

    Parameters
    ----------
    a, b:
        The strings to compare.
    insert_cost, delete_cost, substitute_cost:
        Per-operation costs. Defaults give the classic unit-cost edit
        distance. ``insert_cost`` must equal ``delete_cost`` for the result
        to be symmetric (and hence a metric); :class:`WeightedEditDistance`
        enforces this.
    upper_bound:
        If given, the computation stops as soon as the distance provably
        exceeds it and returns ``upper_bound`` itself. Useful when the caller
        only needs to know whether two strings are within a threshold.

    Returns
    -------
    float
        The minimum total cost of transforming ``a`` into ``b``. Integral
        for unit costs.
    """
    if a == b:
        return 0.0
    la, lb = len(a), len(b)
    if la == 0:
        total = lb * insert_cost
        return min(total, upper_bound) if upper_bound is not None else total
    if lb == 0:
        total = la * delete_cost
        return min(total, upper_bound) if upper_bound is not None else total
    # Ensure the inner loop runs over the longer string for fewer row swaps.
    prev = [j * insert_cost for j in range(lb + 1)]
    curr = [0.0] * (lb + 1)
    for i in range(1, la + 1):
        curr[0] = i * delete_cost
        ca = a[i - 1]
        row_min = curr[0]
        for j in range(1, lb + 1):
            cost_sub = prev[j - 1] + (0.0 if ca == b[j - 1] else substitute_cost)
            cost_del = prev[j] + delete_cost
            cost_ins = curr[j - 1] + insert_cost
            best = cost_sub
            if cost_del < best:
                best = cost_del
            if cost_ins < best:
                best = cost_ins
            curr[j] = best
            if best < row_min:
                row_min = best
        if upper_bound is not None and row_min > upper_bound:
            return float(upper_bound)
        prev, curr = curr, prev
    return float(prev[lb])


def damerau_levenshtein(a: str, b: str) -> float:
    """Restricted Damerau-Levenshtein distance (adjacent transpositions).

    Uses the optimal-string-alignment recurrence with three rows; each pair
    of adjacent characters may be transposed at cost 1.
    """
    if a == b:
        return 0.0
    la, lb = len(a), len(b)
    if la == 0:
        return float(lb)
    if lb == 0:
        return float(la)
    prev2 = [0.0] * (lb + 1)
    prev = [float(j) for j in range(lb + 1)]
    curr = [0.0] * (lb + 1)
    for i in range(1, la + 1):
        curr[0] = float(i)
        ca = a[i - 1]
        for j in range(1, lb + 1):
            cb = b[j - 1]
            cost = 0.0 if ca == cb else 1.0
            best = min(prev[j - 1] + cost, prev[j] + 1.0, curr[j - 1] + 1.0)
            if i > 1 and j > 1 and ca == b[j - 2] and a[i - 2] == cb:
                best = min(best, prev2[j - 2] + 1.0)
            curr[j] = best
        prev2, prev, curr = prev, curr, prev2
    return float(prev[lb])


def levenshtein_bitparallel(query: str, targets: Iterable[str]) -> list[int]:
    """Unit-cost Levenshtein distances from ``query`` to every target.

    Myers' bit-vector algorithm in Hyyrö's Levenshtein form: bit ``i`` of
    ``pv``/``mv`` says whether the DP column steps up/down by one at query
    row ``i``, so a column advances with about a dozen integer operations
    per target character. Masks are unbounded Python ints, so any length
    works; trimming ``pv`` to ``len(query)`` bits keeps them short and is
    safe, since carries and shifts move bits upward only and nothing above
    bit ``len(query) - 1``, the score's, can reach it. Exact.
    """
    m = len(query)
    if m == 0:
        return [len(t) for t in targets]
    peq: dict[str, int] = {}
    for i, ch in enumerate(query):
        peq[ch] = peq.get(ch, 0) | (1 << i)
    mask = (1 << m) - 1
    top = 1 << (m - 1)
    get = peq.get
    out = []
    for target in targets:
        pv, mv, score = mask, 0, m
        for ch in target:
            eq = get(ch, 0)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | ~(xh | pv)
            mh = pv & xh
            if ph & top:
                score += 1
            elif mh & top:
                score -= 1
            ph = (ph << 1) | 1
            pv = ((mh << 1) | ~(xv | ph)) & mask
            mv = ph & xv
        out.append(score)
    return out


def _require_str(x: Any) -> str:
    if not isinstance(x, str):
        raise MetricError(f"string metric expects str objects, got {type(x).__name__}")
    return x


class EditDistance(DistanceFunction):
    """Unit-cost Levenshtein distance — the paper's canonical expensive metric.

    Without an ``upper_bound`` every evaluation (``distance``,
    ``one_to_many`` and the ``cross``/``pairwise`` rows built on it) runs
    :func:`levenshtein_bitparallel`, bit-identical to :func:`edit_distance`;
    with one, every pair runs the scalar DP and its early exit.
    """

    name = "edit-distance"

    def __init__(self, upper_bound: float | None = None):
        super().__init__()
        if upper_bound is not None and upper_bound <= 0:
            raise ParameterError(f"upper_bound must be > 0, got {upper_bound}")
        self.upper_bound = upper_bound

    def _distance(self, a: Any, b: Any) -> float:
        if self.upper_bound is not None:
            return edit_distance(_require_str(a), _require_str(b), upper_bound=self.upper_bound)
        return float(levenshtein_bitparallel(_require_str(a), (_require_str(b),))[0])

    def _one_to_many(self, obj: Any, objects: Sequence) -> np.ndarray:
        if self.upper_bound is not None:  # the early exit is per pair
            return super()._one_to_many(obj, objects)
        row = levenshtein_bitparallel(_require_str(obj), [_require_str(t) for t in objects])
        return np.array(row, dtype=np.float64)


class WeightedEditDistance(DistanceFunction):
    """Edit distance with custom operation costs.

    ``indel_cost`` is shared by insertion and deletion so the function stays
    symmetric; ``substitute_cost`` must not exceed ``2 * indel_cost`` or the
    triangle inequality could be violated through delete+insert paths.
    """

    def __init__(self, indel_cost: float = 1.0, substitute_cost: float = 1.0):
        super().__init__()
        if indel_cost <= 0 or substitute_cost <= 0:
            raise ParameterError("edit operation costs must be positive")
        if substitute_cost > 2 * indel_cost:
            raise ParameterError(
                "substitute_cost must be <= 2 * indel_cost to remain a metric "
                f"(got substitute={substitute_cost}, indel={indel_cost})"
            )
        self.indel_cost = float(indel_cost)
        self.substitute_cost = float(substitute_cost)
        self.name = f"weighted-edit(indel={indel_cost:g},sub={substitute_cost:g})"

    def _distance(self, a: Any, b: Any) -> float:
        return edit_distance(
            _require_str(a),
            _require_str(b),
            insert_cost=self.indel_cost,
            delete_cost=self.indel_cost,
            substitute_cost=self.substitute_cost,
        )


class DamerauLevenshteinDistance(DistanceFunction):
    """Edit distance that also counts adjacent transpositions as one operation.

    Matches the "transposition of characters" corruption class the paper
    lists for bibliographic strings. Note the restricted (OSA) variant is not
    a true metric in pathological cases; the unrestricted variant is, but the
    OSA form is what approximate-matching systems typically deploy and it
    behaves metrically on natural-language name data.
    """

    name = "damerau-levenshtein"

    def _distance(self, a: Any, b: Any) -> float:
        return damerau_levenshtein(_require_str(a), _require_str(b))


class RelativeEditDistance(DistanceFunction):
    """Length-normalized edit distance ``ed(a, b) / max(|a|, |b|)``.

    This is the similarity notion behind the RED clustering comparator
    (French, Powell & Schulman; used as the baseline in Table 3): two
    variants of one long name can differ by several characters, so the
    threshold must scale with string length.
    """

    name = "relative-edit-distance"

    def _distance(self, a: Any, b: Any) -> float:
        a, b = _require_str(a), _require_str(b)
        longer = max(len(a), len(b))
        if longer == 0:
            return 0.0
        return edit_distance(a, b) / longer
