"""GuardedMetric: armor between the library and an untrusted distance function.

The whole BIRCH* framework interacts with data only through a user-supplied
``d`` — which is exactly where production deployments break: user callables
raise on malformed records, return NaN when a backend times out, go negative
on floating-point edge cases, or silently violate symmetry. BUBBLE-FM exists
*because* ``d`` may be expensive (Section 5 of the paper); this module exists
because ``d`` may also be wrong.

:class:`GuardedMetric` wraps any :class:`~repro.metrics.base.DistanceFunction`
and

* validates every result (finite, non-negative, optional randomized symmetry
  spot-checks),
* applies a configurable fault policy — ``"raise"``, ``"retry"`` with
  exponential backoff plus jitter, or ``"substitute"`` and record,
* enforces hard budgets: a maximum number of distance calls (the paper's NCD)
  and a wall-clock deadline, raised as typed exceptions so a scan can stop
  cleanly at a checkpoint instead of running away.

Every fault is recorded as a :class:`MetricFault`, and aggregate counters
(`n_retries`, `n_substitutions`, ...) feed the ingestion report printed by
the CLI.
"""

from __future__ import annotations

import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.exceptions import (
    DeadlineExceededError,
    MetricBudgetExceededError,
    MetricValueError,
    ParameterError,
)
from repro.metrics.base import DistanceFunction
from repro.utils.rng import ensure_rng

__all__ = ["GuardedMetric", "MetricFault"]

_POLICIES = ("raise", "retry", "substitute")

#: Negative results larger than this are treated as floating-point noise and
#: clamped to zero rather than reported as contract violations.
_NEGATIVE_TOLERANCE = 1e-9


@dataclass
class MetricFault:
    """One recorded misbehavior of the wrapped distance function."""

    #: ``"exception"``, ``"invalid-value"``, or ``"asymmetry"``.
    kind: str
    #: Human-readable detail (exception repr or the offending value).
    detail: str
    #: Evaluation attempts spent on this pair (1 = no retries).
    attempts: int = 1
    #: True when the fault policy substituted a value instead of raising.
    substituted: bool = False


class GuardedMetric(DistanceFunction):
    """Validate, retry, budget, and account every call to an inner metric.

    Parameters
    ----------
    inner:
        The distance function to guard. Its own NCD counter is left
        untouched; this wrapper's ``n_calls`` is the authoritative count.
    on_fault:
        What to do when the inner metric raises or returns an invalid
        value: ``"raise"`` propagates immediately (invalid values become
        :class:`~repro.exceptions.MetricValueError`); ``"retry"``
        re-evaluates up to ``max_retries`` times with exponential backoff
        and jitter, then raises; ``"substitute"`` records the fault and
        returns ``substitute_value``.
    max_retries:
        Extra attempts per pair under the ``"retry"`` policy.
    backoff, backoff_multiplier, jitter:
        Sleep ``backoff * multiplier**i * (1 + jitter * U[0,1))`` seconds
        before retry ``i``. Pass ``sleep=lambda s: None`` in tests.
    substitute_value:
        Finite non-negative stand-in distance for the ``"substitute"``
        policy (required by that policy, unused otherwise).
    symmetry_check_rate:
        Probability per scalar call of also evaluating ``d(b, a)`` and
        comparing. Costs one extra (counted) call per check; 0 disables.
    symmetry_rtol:
        Relative tolerance for the symmetry comparison.
    max_calls:
        Hard NCD budget; the call that would exceed it raises
        :class:`~repro.exceptions.MetricBudgetExceededError` *before*
        evaluating.
    deadline_seconds:
        Wall-clock budget measured from construction (or the last
        :meth:`reset_budget`); raises
        :class:`~repro.exceptions.DeadlineExceededError`.
    seed:
        Seed/generator for jitter and symmetry-check sampling.
    sleep, clock:
        Injectable time functions, so tests run instantly and
        deterministically.
    max_fault_records:
        Cap on stored :class:`MetricFault` records (counters keep exact
        totals regardless).

    Examples
    --------
    >>> from repro.metrics import FunctionDistance
    >>> inner = FunctionDistance(lambda a, b: abs(a - b))
    >>> guard = GuardedMetric(inner, on_fault="substitute", substitute_value=0.0)
    >>> guard.distance(3.0, 5.0)
    2.0
    >>> guard.n_faults
    0
    """

    name = "guarded"

    def __init__(
        self,
        inner: DistanceFunction,
        *,
        on_fault: str = "raise",
        max_retries: int = 3,
        backoff: float = 0.05,
        backoff_multiplier: float = 2.0,
        jitter: float = 0.5,
        substitute_value: float | None = None,
        symmetry_check_rate: float = 0.0,
        symmetry_rtol: float = 1e-6,
        max_calls: int | None = None,
        deadline_seconds: float | None = None,
        seed: int | np.random.Generator | None = None,
        sleep: Any=time.sleep,
        clock: Any=time.monotonic,
        max_fault_records: int = 1000,
    ):
        super().__init__()
        if not isinstance(inner, DistanceFunction):
            raise ParameterError("inner must be a DistanceFunction")
        if on_fault not in _POLICIES:
            raise ParameterError(f"on_fault must be one of {_POLICIES}, got {on_fault!r}")
        if on_fault == "substitute":
            if substitute_value is None:
                raise ParameterError(
                    'on_fault="substitute" requires a substitute_value '
                    "(a finite, non-negative stand-in distance)"
                )
            substitute_value = float(substitute_value)
            if not np.isfinite(substitute_value) or substitute_value < 0:
                raise ParameterError(
                    f"substitute_value must be finite and >= 0, got {substitute_value}"
                )
        if max_retries < 0:
            raise ParameterError(f"max_retries must be >= 0, got {max_retries}")
        if not 0.0 <= symmetry_check_rate <= 1.0:
            raise ParameterError(
                f"symmetry_check_rate must be in [0, 1], got {symmetry_check_rate}"
            )
        if max_calls is not None and max_calls < 1:
            raise ParameterError(f"max_calls must be >= 1, got {max_calls}")
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ParameterError(
                f"deadline_seconds must be > 0, got {deadline_seconds}"
            )
        self.inner = inner
        self.name = f"guarded({inner.name})"
        self.on_fault = on_fault
        self.max_retries = int(max_retries)
        self.backoff = float(backoff)
        self.backoff_multiplier = float(backoff_multiplier)
        self.jitter = float(jitter)
        self.substitute_value = substitute_value
        self.symmetry_check_rate = float(symmetry_check_rate)
        self.symmetry_rtol = float(symmetry_rtol)
        self.max_calls = max_calls
        self.deadline_seconds = deadline_seconds
        self._rng = ensure_rng(seed)
        self._sleep = sleep
        self._clock = clock
        self._start = clock()
        self.max_fault_records = int(max_fault_records)
        self._faults: list[MetricFault] = []
        self.n_faults = 0
        self.n_retries = 0
        self.n_substitutions = 0
        self.n_symmetry_checks = 0
        self.n_symmetry_failures = 0

    # ------------------------------------------------------------------
    # Budgets
    # ------------------------------------------------------------------
    def reset_budget(self) -> None:
        """Restart the wall-clock deadline and the NCD budget window.

        The NCD budget compares ``max_calls`` against :attr:`n_calls`, so
        this also resets the call counter (use between scan phases).
        """
        self._start = self._clock()
        self.reset_counter()

    @property
    def remaining_calls(self) -> int | None:
        """Calls left in the NCD budget (``None`` when unlimited)."""
        if self.max_calls is None:
            return None
        return max(self.max_calls - self._n_calls, 0)

    @property
    def remaining_seconds(self) -> float | None:
        """Wall-clock seconds left before the deadline (``None`` when unset)."""
        if self.deadline_seconds is None:
            return None
        return max(self.deadline_seconds - (self._clock() - self._start), 0.0)

    def _check_deadline(self) -> None:
        if self.deadline_seconds is not None:
            elapsed = self._clock() - self._start
            if elapsed > self.deadline_seconds:
                raise DeadlineExceededError(
                    f"wall-clock deadline of {self.deadline_seconds:.3g}s "
                    f"exceeded ({elapsed:.3g}s elapsed)"
                )

    def _check_budget(self, upcoming: int) -> None:
        if self.max_calls is not None and self._n_calls + upcoming > self.max_calls:
            raise MetricBudgetExceededError(
                f"distance-call budget exhausted: {self._n_calls} calls made, "
                f"{upcoming} more requested, budget is {self.max_calls}"
            )
        self._check_deadline()

    def count_external(self, n: int, by_site: Mapping[str, int] | None = None) -> None:
        """Absorb worker-side calls *against the budget*.

        A parallel build splits ``max_calls`` across shard workers and
        re-books their spending here; checking the budget once for all
        ``n``, before anything is booked, keeps the global cap
        authoritative even if a worker was handed a stale or over-generous
        share, and a breach leaves the ledger untouched.
        """
        if n > 0:
            self._check_budget(n)
        super().count_external(n, by_site=by_site)

    # ------------------------------------------------------------------
    # Fault bookkeeping
    # ------------------------------------------------------------------
    @property
    def faults(self) -> list[MetricFault]:
        """Recorded faults, oldest first (capped at ``max_fault_records``)."""
        return list(self._faults)

    def _record(self, kind: str, detail: str, attempts: int, substituted: bool = False) -> None:
        self.n_faults += 1
        if len(self._faults) < self.max_fault_records:
            self._faults.append(MetricFault(kind, detail, attempts, substituted))

    # ------------------------------------------------------------------
    # Guarded evaluation
    # ------------------------------------------------------------------
    def _invalid_reason(self, value: float) -> str | None:
        if not np.isfinite(value):
            return f"non-finite distance {value!r}"
        if value < 0:
            return f"negative distance {value!r}"
        return None

    def _guarded_eval(self, a: Any, b: Any) -> float:
        """Evaluate one pair applying the fault policy; never touches the
        counter (callers count and budget-check first)."""
        attempts = 0
        delay = self.backoff
        while True:
            attempts += 1
            problem: str | None = None
            error: Exception | None = None
            try:
                # The guard *is* the counting layer: it budgets and counts in
                # its own public wrappers, then probes the raw untrusted hook.
                value = float(self.inner._distance(a, b))  # reprolint: disable=RPL001 -- the guard is the counting layer probing the raw hook
            except Exception as exc:  # the whole point: d is untrusted
                error = exc
                problem = repr(exc)
            else:
                if -_NEGATIVE_TOLERANCE <= value < 0.0:
                    value = 0.0  # floating-point noise, not a contract breach
                problem = self._invalid_reason(value)
                if problem is None:
                    return value
            if self.on_fault == "retry" and attempts <= self.max_retries:
                self.n_retries += 1
                self._sleep(delay * (1.0 + self.jitter * float(self._rng.random())))
                delay *= self.backoff_multiplier
                continue
            kind = "exception" if error is not None else "invalid-value"
            if self.on_fault == "substitute":
                self._record(kind, problem, attempts, substituted=True)
                self.n_substitutions += 1
                return self.substitute_value
            self._record(kind, problem, attempts)
            if error is not None:
                raise error
            raise MetricValueError(
                f"metric {self.inner.name!r} returned {problem} "
                f"after {attempts} attempt(s)"
            )

    # ------------------------------------------------------------------
    # Public measuring API (budgeted + counted)
    # ------------------------------------------------------------------
    def distance(self, a: Any, b: Any) -> float:
        self._check_budget(1)
        self._count(1)
        value = self._guarded_eval(a, b)
        if self.symmetry_check_rate and float(self._rng.random()) < self.symmetry_check_rate:
            self.n_symmetry_checks += 1
            self._count(1)
            back = self._guarded_eval(b, a)
            scale = max(abs(value), abs(back), 1.0)
            if abs(value - back) > self.symmetry_rtol * scale:
                self.n_symmetry_failures += 1
                detail = f"d(a,b)={value!r} but d(b,a)={back!r}"
                if self.on_fault == "substitute":
                    self._record("asymmetry", detail, 1, substituted=True)
                    self.n_substitutions += 1
                    return 0.5 * (value + back)
                self._record("asymmetry", detail, 1)
                raise MetricValueError(f"metric {self.inner.name!r} is asymmetric: {detail}")
        return value

    def _batch_fits_budget(self, upcoming: int) -> bool:
        return self.max_calls is None or self._n_calls + upcoming <= self.max_calls

    def _validated_batch(self, raw: Any, shape: tuple[int, ...]) -> np.ndarray | None:
        """Coerce a raw batch-kernel result; ``None`` means "fall back"."""
        if raw is None:
            return None
        out = np.asarray(raw, dtype=np.float64)
        if out.shape != shape:
            return None
        out[(out < 0.0) & (out >= -_NEGATIVE_TOLERANCE)] = 0.0
        if bool(np.all(np.isfinite(out)) and np.all(out >= 0.0)):
            return out
        return None

    def _guarded_pair(self, a: Any, b: Any) -> float:
        """One budget-checked, counted, policy-guarded evaluation.

        This is the unit of the slow gather paths: an abort mid-gather
        (budget or deadline) leaves the ledger charged only for the pairs
        that were actually attempted.
        """
        self._check_budget(1)
        self._count(1)
        return self._guarded_eval(a, b)

    def one_to_many(self, obj: Any, objects: Sequence) -> np.ndarray:
        n = len(objects)
        if n == 0:
            return np.empty(0, dtype=np.float64)
        self._check_budget(0)  # deadline gate before any work
        if self._batch_fits_budget(n):
            # Fast path: probe the inner batch kernel uncounted, validate the
            # whole array, and charge the ledger only when it is usable — so a
            # faulty kernel falls back to guarded pair-by-pair evaluation
            # without double counting.
            try:
                raw = self.inner._one_to_many(obj, objects)  # reprolint: disable=RPL001 -- the guard is the counting layer probing the raw hook
            except Exception:
                raw = None
            out = self._validated_batch(raw, (n,))
            if out is not None:
                self._count(n)
                return out
        # Slow path (faulty kernel, or the budget cannot cover the batch):
        # measure pair by pair, budgeting and counting each evaluation.
        return np.fromiter(
            (self._guarded_pair(obj, o) for o in objects),
            dtype=np.float64,
            count=n,
        )

    def pairwise(self, objects: Sequence) -> np.ndarray:
        n = len(objects)
        pairs = n * (n - 1) // 2
        if pairs == 0:
            return np.zeros((n, n), dtype=np.float64)
        self._check_budget(0)
        if self._batch_fits_budget(pairs):
            try:
                raw = self.inner._pairwise(objects)  # reprolint: disable=RPL001 -- the guard is the counting layer probing the raw hook
            except Exception:
                raw = None
            out = self._validated_batch(raw, (n, n))
            if out is not None:
                self._count(pairs)
                return out
        result = np.zeros((n, n), dtype=np.float64)
        for i in range(n):
            for j in range(i + 1, n):
                d = self._guarded_pair(objects[i], objects[j])
                result[i, j] = d
                result[j, i] = d
        return result

    def cross(self, objects_a: Sequence, objects_b: Sequence) -> np.ndarray:
        na, nb = len(objects_a), len(objects_b)
        if na == 0 or nb == 0:
            return np.empty((na, nb), dtype=np.float64)
        self._check_budget(0)
        if self._batch_fits_budget(na * nb):
            try:
                raw = self.inner._cross(objects_a, objects_b)  # reprolint: disable=RPL001 -- the guard is the counting layer probing the raw hook
            except Exception:
                raw = None
            out = self._validated_batch(raw, (na, nb))
            if out is not None:
                self._count(na * nb)
                return out
        result = np.empty((na, nb), dtype=np.float64)
        for i in range(na):
            for j in range(nb):
                result[i, j] = self._guarded_pair(objects_a[i], objects_b[j])
        return result

    # ------------------------------------------------------------------
    # Implementation hook (used only if someone bypasses the public API)
    # ------------------------------------------------------------------
    def _distance(self, a: Any, b: Any) -> float:
        return self._guarded_eval(a, b)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GuardedMetric({self.inner!r}, on_fault={self.on_fault!r}, "
            f"n_calls={self._n_calls}, n_faults={self.n_faults})"
        )
