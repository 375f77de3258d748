"""Abstract distance function with NCD (number-of-calls-to-d) accounting.

The BIRCH* framework and both BUBBLE algorithms interact with data objects
*only* through a :class:`DistanceFunction`. Implementations provide a scalar
``_distance`` and may override ``_one_to_many`` with a vectorized version;
the public wrappers maintain the call counter that the paper reports as NCD
(Section 6.1).

Besides the per-metric total, this module hosts the **site-attribution
ledger** behind :mod:`repro.observability`: while a :class:`CallLedger` is
active, every counted call is additionally charged to the innermost *site*
label on the ledger's stack (``leaf-d0`` leaf routing, ``nonleaf-d2`` sample
routing, ``fastmap-map`` incremental mapping, ...; see
``docs/observability.md`` for the taxonomy). Counting and charging share one
code path (:meth:`DistanceFunction._count`), so the attributed totals sum
*exactly* to ``n_calls`` — the conservation law the regression tests pin.
With no ledger active the cost is a single ``None`` check per counted batch.

Library code opens a site only with ``with site(label):``, which closes it
on every exit path; this module is the only place that changes
``CallLedger.stack``. :func:`push_site`/:func:`pop_site` stay public for
instrumentation outside the package.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Mapping, Sequence
from types import TracebackType
from typing import Any

import numpy as np

__all__ = [
    "DistanceFunction",
    "FunctionDistance",
    "CallLedger",
    "UNATTRIBUTED_SITE",
    "activate_ledger",
    "deactivate_ledger",
    "active_ledger",
    "site",
    "push_site",
    "pop_site",
]

#: Site label for calls counted while a ledger is active but no span or
#: site is open (e.g. user code measuring distances between phases).
UNATTRIBUTED_SITE = "unattributed"


class CallLedger:
    """Site-attributed NCD accounting: who spent the distance calls.

    A ledger keeps a stack of *site* labels and a ``by_site`` histogram;
    :meth:`charge` books ``n`` calls against the innermost open site (or
    :data:`UNATTRIBUTED_SITE` when the stack is empty). At most one ledger
    is active at a time (see :func:`activate_ledger`); while active, every
    :class:`DistanceFunction` in the process charges it from the same
    statement that increments its own ``n_calls`` counter, so

    ``sum(ledger.by_site.values()) == ledger.total``

    always holds, and equals the per-metric NCD delta whenever a single
    metric is in play for the whole activation window.
    """

    __slots__ = ("stack", "by_site", "total")

    def __init__(self) -> None:
        #: Innermost-last stack of open site labels.
        self.stack: list[str] = []
        #: Calls charged per site label.
        self.by_site: dict[str, int] = {}
        #: Total calls charged (== sum of ``by_site`` values).
        self.total = 0

    def charge(self, n: int) -> None:
        """Book ``n`` distance calls against the innermost open site."""
        label = self.stack[-1] if self.stack else UNATTRIBUTED_SITE
        by_site = self.by_site
        by_site[label] = by_site.get(label, 0) + n
        self.total += n


#: The process-wide active ledger (``None`` = attribution disabled).
_ACTIVE_LEDGER: CallLedger | None = None


def activate_ledger(ledger: CallLedger) -> CallLedger | None:
    """Make ``ledger`` the active attribution target; returns the previous
    one (re-activate it via :func:`deactivate_ledger` when done)."""
    global _ACTIVE_LEDGER
    previous = _ACTIVE_LEDGER
    _ACTIVE_LEDGER = ledger
    return previous


def deactivate_ledger(previous: CallLedger | None = None) -> None:
    """Deactivate the active ledger, restoring ``previous`` (if given)."""
    global _ACTIVE_LEDGER
    _ACTIVE_LEDGER = previous


def active_ledger() -> CallLedger | None:
    """The currently active :class:`CallLedger`, or ``None``."""
    return _ACTIVE_LEDGER


class site:
    """Charge the distance calls counted inside a ``with`` block to ``name``.

    ::

        with site("leaf-d0"):
            d = metric.one_to_many(obj, clustroids)

    The site opens on ``ledger`` (default: the ledger active at entry) and
    closes on every exit path, normal or exceptional. With no ledger it is
    a no-op. Sites nest; the innermost one is charged.
    """

    __slots__ = ("name", "ledger")

    def __init__(self, name: str, ledger: CallLedger | None = None) -> None:
        self.name = name
        self.ledger = ledger

    def __enter__(self) -> "site":
        if self.ledger is None:
            self.ledger = _ACTIVE_LEDGER
        if self.ledger is not None:
            self.ledger.stack.append(self.name)
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        if self.ledger is not None:
            self.ledger.stack.pop()
        return False


def push_site(label: str) -> None:
    """Open attribution site ``label`` on the active ledger (no-op when
    attribution is disabled). Pair with :func:`pop_site` in a ``finally``;
    library code uses :class:`site` instead."""
    ledger = _ACTIVE_LEDGER
    if ledger is not None:
        ledger.stack.append(label)


def pop_site() -> None:
    """Close the innermost site opened by :func:`push_site`.

    Tolerates an empty stack so a push skipped because attribution was
    disabled never underflows its paired pop.
    """
    ledger = _ACTIVE_LEDGER
    if ledger is not None and ledger.stack:
        ledger.stack.pop()


class DistanceFunction(ABC):
    """A distance function ``d : S x S -> R`` over a domain of objects.

    Implementations must satisfy the metric axioms the paper assumes:
    non-negativity, identity of indiscernibles, symmetry, and the triangle
    inequality. The library never verifies them at runtime (that would cost
    extra distance calls), but the test suite property-checks each shipped
    metric.

    Attributes
    ----------
    n_calls:
        Number of object pairs measured so far; the paper's NCD metric.
        Batch methods count one call per pair.
    """

    #: Human-readable identifier used in experiment reports.
    name: str = "distance"

    def __init__(self) -> None:
        self._n_calls = 0

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def n_calls(self) -> int:
        """Total number of distance evaluations (the paper's NCD)."""
        return self._n_calls

    def reset_counter(self) -> None:
        """Reset the NCD counter to zero (e.g. between experiment phases)."""
        self._n_calls = 0

    def _count(self, n: int) -> None:
        """Book ``n`` true evaluations: the NCD counter plus, when a
        :class:`CallLedger` is active, site attribution.

        Every counted path — here and in wrappers that own their counting,
        like :class:`~repro.robustness.GuardedMetric` — must go through
        this method; it is what keeps the per-site ledger and ``n_calls``
        in exact agreement.
        """
        self._n_calls += n
        ledger = _ACTIVE_LEDGER
        if ledger is not None:
            ledger.charge(n)

    def count_external(self, n: int, by_site: Mapping[str, int] | None = None) -> None:
        """Book ``n`` evaluations performed *outside* this process or object.

        The parallel phases (:mod:`repro.parallel`, CLARA) run with their
        own metric copy in a worker process; when a result comes home, the
        parent books the worker's ``n_calls`` here so a single metric keeps
        the authoritative NCD total. ``by_site`` carries the worker
        ledger's per-site split: each site is booked under its own label,
        then the residual ``n - sum(by_site)`` against the innermost open
        site, so the active :class:`CallLedger` keeps partitioning
        ``n_calls`` exactly. The worker's :data:`UNATTRIBUTED_SITE` calls
        join the residual. An over-attributed split raises before anything
        is booked.

        No distance values flow through this method — only accounting.
        """
        if n < 0:
            raise ValueError(f"cannot absorb a negative call count ({n})")
        split = {
            label: int(k)
            for label, k in (by_site or {}).items()
            if label != UNATTRIBUTED_SITE
        }
        residual = n - sum(split.values())
        if residual < 0 or any(k < 0 for k in split.values()):
            raise ValueError(
                f"worker ledger attributes {sum(split.values())} calls "
                f"but reports only {n}: {split}"
            )
        for label in sorted(split):
            if split[label]:
                with site(label):
                    self._count(split[label])
        if residual:
            self._count(residual)

    # ------------------------------------------------------------------
    # Public measuring API (counted)
    # ------------------------------------------------------------------
    def distance(self, a: Any, b: Any) -> float:
        """Return ``d(a, b)`` as a ``float``; counts one call.

        The result is coerced to ``float`` so user-supplied callables that
        return ints or numpy scalars (common for edit distances and other
        counting metrics) still satisfy the scalar contract downstream code
        relies on.
        """
        self._count(1)
        return float(self._distance(a, b))

    def one_to_many(self, obj: Any, objects: Sequence) -> np.ndarray:
        """Return distances from ``obj`` to each element of ``objects``.

        Counts ``len(objects)`` calls. Subclasses with vectorizable metrics
        override :meth:`_one_to_many`; the default loops over
        :meth:`_distance`.
        """
        n = len(objects)
        if n == 0:
            return np.empty(0, dtype=np.float64)
        self._count(n)
        return self._one_to_many(obj, objects)

    def pairwise(self, objects: Sequence) -> np.ndarray:
        """Return the full symmetric distance matrix over ``objects``.

        Counts ``n * (n - 1) / 2`` calls (symmetry is exploited; the
        diagonal is free).
        """
        n = len(objects)
        pairs = n * (n - 1) // 2
        if pairs:
            self._count(pairs)
        return self._pairwise(objects)

    def cross(self, objects_a: Sequence, objects_b: Sequence) -> np.ndarray:
        """Return the ``|A| x |B|`` cross-distance matrix between two sets.

        Counts ``|A| * |B|`` calls. This is the batched gather behind D2
        computations and exact CF* merges: vectorized metrics pay one
        dispatch for the whole block instead of one per row.
        """
        na, nb = len(objects_a), len(objects_b)
        if na == 0 or nb == 0:
            return np.empty((na, nb), dtype=np.float64)
        self._count(na * nb)
        return self._cross(objects_a, objects_b)

    def __call__(self, a: Any, b: Any) -> float:
        return self.distance(a, b)

    # ------------------------------------------------------------------
    # Implementation hooks (uncounted)
    # ------------------------------------------------------------------
    @abstractmethod
    def _distance(self, a: Any, b: Any) -> float:
        """Compute ``d(a, b)`` without touching the counter."""

    def _one_to_many(self, obj: Any, objects: Sequence) -> np.ndarray:
        return np.fromiter(
            (self._distance(obj, o) for o in objects),
            dtype=np.float64,
            count=len(objects),
        )

    def _pairwise(self, objects: Sequence) -> np.ndarray:
        # Upper-triangle rows, so a vectorized _one_to_many serves the
        # whole matrix (one dispatch per row instead of one per pair).
        n = len(objects)
        out = np.zeros((n, n), dtype=np.float64)
        for i in range(n - 1):
            row = self._one_to_many(objects[i], objects[i + 1 :])
            out[i, i + 1 :] = row
            out[i + 1 :, i] = row
        return out

    def _cross(self, objects_a: Sequence, objects_b: Sequence) -> np.ndarray:
        return np.stack([self._one_to_many(a, objects_b) for a in objects_a])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n_calls={self._n_calls})"


class FunctionDistance(DistanceFunction):
    """Adapt a plain Python callable ``f(a, b) -> float`` into a metric.

    This is the extension point for user-defined distance spaces: any
    function satisfying the metric axioms can drive BUBBLE/BUBBLE-FM.

    Examples
    --------
    >>> metric = FunctionDistance(lambda a, b: abs(a - b), name="abs-diff")
    >>> metric.distance(3, 7)
    4.0
    >>> metric.n_calls
    1
    """

    def __init__(self, func: Callable[[object, object], float], name: str = "custom"):
        super().__init__()
        if not callable(func):
            raise TypeError("func must be callable")
        self._func = func
        self.name = name

    def _distance(self, a: Any, b: Any) -> float:
        return self._func(a, b)
