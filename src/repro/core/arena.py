"""Slab arenas for CF* leaf storage (ROADMAP item 3, BETULA-style).

Before this module, every :class:`~repro.core.features.BubbleClusterFeature`
owned two Python lists — representative objects and their RowSum floats —
so a tree with thousands of leaves paid two list headers, ``2p`` boxed
``float`` objects, and pointer-chasing per leaf, and every RowSum update
was a scalar ``+=`` in a Python loop.

:class:`FeatureArena` replaces that with contiguous per-tree slabs:

* ``rowsums``       — ``(capacity, width)`` float64, the running RowSum of
  each representative slot;
* ``compensations`` — ``(capacity, width)`` float64, the Neumaier
  compensation term paired with each RowSum (the *effective* RowSum of a
  slot is ``rowsums + compensations``, see :mod:`repro.utils.numerics`);
* ``reps``          — ``(capacity, width)`` object, the representative
  member objects themselves (identity-preserving: indexing hands back the
  exact Python object, which :class:`~repro.index.cftree.LeafGeometry`
  relies on for its ``id()``-keyed caches);
* ``counts``        — ``(capacity,)`` int32, how many leading slots of each
  row are live.

A cluster feature is then a *view*: ``(arena, row)``. Rows are recycled
through a free list when features merge away, and the slabs grow by
doubling, so the arena stays a handful of ndarray allocations for the
lifetime of the tree. Pickling the arena (checkpoints, worker shards)
round-trips the ndarrays bit-exactly.
"""

from __future__ import annotations

import sys
from typing import Any

import numpy as np

from repro.exceptions import ParameterError

__all__ = ["FeatureArena"]

_INITIAL_CAPACITY = 16

#: CPython's boxed ``float`` costs ~24 bytes on top of the 8-byte list slot
#: that points at it — the per-entry price of the legacy list-of-floats
#: layout that the slab's flat 8-byte float64 cell replaces.
_PYFLOAT_BYTES = sys.getsizeof(1.0)


class FeatureArena:
    """Contiguous slab storage for the CF* features of one tree.

    Parameters
    ----------
    width:
        Maximum representative slots per feature — the paper's ``2p``
        (``representation_number``). All features sharing an arena share
        one width.
    capacity:
        Initial number of rows; the slabs double when exhausted.
    """

    __slots__ = ("width", "rowsums", "compensations", "reps", "counts", "_free", "_rows_used")

    def __init__(self, width: int, capacity: int = _INITIAL_CAPACITY) -> None:
        if width < 1:
            raise ParameterError(f"FeatureArena width must be >= 1, got {width}")
        capacity = max(int(capacity), 1)
        self.width = int(width)
        self.rowsums = np.zeros((capacity, self.width), dtype=np.float64)
        self.compensations = np.zeros((capacity, self.width), dtype=np.float64)
        self.reps = np.empty((capacity, self.width), dtype=object)
        self.counts = np.zeros(capacity, dtype=np.int32)
        self._free: list[int] = list(range(capacity - 1, -1, -1))
        self._rows_used = 0

    # ------------------------------------------------------------------
    # Row lifecycle
    # ------------------------------------------------------------------
    def alloc(self) -> int:
        """Claim an empty row, growing the slabs (doubling) if needed."""
        if not self._free:
            self._grow()
        row = self._free.pop()
        self._rows_used += 1
        return row

    def release(self, row: int) -> None:
        """Return a row to the free list, dropping its object references."""
        self.reps[row, :] = None
        self.rowsums[row, :] = 0.0
        self.compensations[row, :] = 0.0
        self.counts[row] = 0
        self._free.append(row)
        self._rows_used -= 1

    def _grow(self) -> None:
        old = self.capacity
        new = old * 2
        for name in ("rowsums", "compensations"):
            slab = np.zeros((new, self.width), dtype=np.float64)
            slab[:old] = getattr(self, name)
            setattr(self, name, slab)
        reps = np.empty((new, self.width), dtype=object)
        reps[:old] = self.reps
        self.reps = reps
        counts = np.zeros(new, dtype=np.int32)
        counts[:old] = self.counts
        self.counts = counts
        self._free.extend(range(new - 1, old - 1, -1))

    def adopt_row(self, other: "FeatureArena", row: int) -> int:
        """Copy one row from ``other`` into this arena, bit-for-bit.

        Used when worker-shard features come home through
        ``insert_feature_batch``: the incoming feature's slab row is copied
        into the merge tree's arena (exact float64 bits, same object
        references), so the merged tree is independent of the worker arena.
        """
        if other.width > self.width:
            raise ParameterError(
                f"cannot adopt a row of width {other.width} into an arena of width {self.width}"
            )
        dest = self.alloc()
        k = int(other.counts[row])
        self.rowsums[dest, :k] = other.rowsums[row, :k]
        self.compensations[dest, :k] = other.compensations[row, :k]
        self.reps[dest, :k] = other.reps[row, :k]
        self.counts[dest] = k
        return dest

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return int(self.counts.shape[0])

    @property
    def rows_used(self) -> int:
        return self._rows_used

    @property
    def occupancy(self) -> float:
        """Fraction of allocated rows that are live."""
        return self._rows_used / self.capacity if self.capacity else 0.0

    def row_bytes(self) -> int:
        """Slab bytes attributable to one row (float cells + object slots)."""
        itemsize = int(self.rowsums.itemsize)
        return self.width * (2 * itemsize + self.reps.itemsize) + int(self.counts.itemsize)

    def bytes_estimate(self) -> int:
        """Total slab bytes currently allocated (all rows, used or free)."""
        return int(
            self.rowsums.nbytes + self.compensations.nbytes + self.reps.nbytes + self.counts.nbytes
        )

    def active_bytes_estimate(self) -> int:
        """Slab bytes attributable to *live* rows only."""
        return self._rows_used * self.row_bytes()

    def legacy_bytes_estimate(self) -> int:
        """What the live rows would cost in the pre-slab layout.

        The old ``BubbleClusterFeature`` kept ``_reps: list`` and
        ``_rowsums: list[float]``: two list headers plus one 8-byte slot
        per entry each, and every RowSum a boxed ~24-byte ``float``. The
        representative objects themselves are excluded from both sides —
        they exist either way.
        """
        total = 0
        for k in (int(c) for c in self.counts):
            if k:
                list_header = sys.getsizeof([None] * k)
                total += 2 * list_header + k * _PYFLOAT_BYTES
        return total

    def used_rows(self) -> list[int]:
        """Indices of live rows (for audits; order is unspecified)."""
        free = set(self._free)
        return [row for row in range(self.capacity) if row not in free]

    # ------------------------------------------------------------------
    # Row accessors (views, not copies)
    # ------------------------------------------------------------------
    def rowsum_view(self, row: int) -> np.ndarray:
        return self.rowsums[row, : int(self.counts[row])]

    def compensation_view(self, row: int) -> np.ndarray:
        return self.compensations[row, : int(self.counts[row])]

    def rep_view(self, row: int) -> np.ndarray:
        return self.reps[row, : int(self.counts[row])]

    def effective_rowsums(self, row: int) -> np.ndarray:
        """Compensated RowSum values of a row's live slots (a fresh array)."""
        k = int(self.counts[row])
        return self.rowsums[row, :k] + self.compensations[row, :k]

    def snapshot(self) -> dict[str, Any]:
        """Occupancy / bytes summary for :class:`~repro.observability.stats.StatsSnapshot`."""
        used = self.rows_used
        active = self.active_bytes_estimate()
        legacy = self.legacy_bytes_estimate()
        return {
            "rows_used": used,
            "capacity": self.capacity,
            "width": self.width,
            "occupancy": round(self.occupancy, 4),
            "bytes_total": self.bytes_estimate(),
            "bytes_per_leaf": (active // used) if used else 0,
            "legacy_bytes_per_leaf": (legacy // used) if used else 0,
            "bytes_reduction": round(1.0 - active / legacy, 4) if legacy else 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FeatureArena(width={self.width}, rows_used={self.rows_used}, "
            f"capacity={self.capacity})"
        )
