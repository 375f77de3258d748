"""Fixed reference computations, timed next to every repetition so that
wall times can be stated in units of them.

A shared host runs this benchmark at different speeds at different times:
on a 2-vCPU virtual machine, the same repetition on the same input took
1.3 s for forty seconds on end and 0.75 s for the next twenty, and the
guest reports no steal time. Over a run of tens of seconds, raw wall time
then measures the host's state as much as the program. The kernels below
are the benchmark's own code, so no change to the program moves them;
timed before and after each repetition, they track the host's state, and a
repetition's wall time divided by them does not.

The host's state slows some kinds of work more than others, so each
workload is divided by a kernel of its own metric's kind: interpreted
Python loops plus small NumPy operations for strings (scalar and block
Levenshtein), small NumPy gathers alone for vectors. Over 150 seconds of
``ds20-stream`` repetitions on one input, the log of their wall time
moved with the log of the vector kernel's time with slope 1.02
(correlation 0.71); with large NumPy gathers or pure-Python loops the
slope was 0.5 to 0.8.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["string_reference_seconds", "vector_reference_seconds"]

_RNG = np.random.default_rng(0)
_WORDS = ["".join(_RNG.choice(list("abcdefghij"), 24)) for _ in range(48)]
_SMALL = _RNG.standard_normal((200, 20))


def _levenshtein(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _edit_distances() -> int:
    total = 0
    for i, a in enumerate(_WORDS):
        for b in _WORDS[i + 1 : i + 9]:
            total += _levenshtein(a, b)
    return total


def _small_gathers(rounds: int) -> int:
    total = 0
    for k in range(rounds):
        d = np.sqrt(((_SMALL - _SMALL[k % len(_SMALL)]) ** 2).sum(axis=1))
        total += int(d.argmin())
    return total


def _timed(*parts) -> float:
    t0 = time.perf_counter()
    total = sum(part() for part in parts)
    elapsed = time.perf_counter() - t0
    if total <= 0:
        raise AssertionError("a reference kernel computed nothing")
    return elapsed


def string_reference_seconds() -> float:
    """Seconds the string kernel takes now (0.1 to 0.2 s on a 2-vCPU
    virtual machine)."""
    return _timed(_edit_distances, lambda: _small_gathers(900))


def vector_reference_seconds() -> float:
    """Seconds the vector kernel takes now (0.1 to 0.2 s on a 2-vCPU
    virtual machine)."""
    return _timed(lambda: _small_gathers(7000))
