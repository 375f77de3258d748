"""Process resource introspection used by workers and the benchmark harness."""

from __future__ import annotations

import resource
import sys

__all__ = ["peak_rss_kb"]


def peak_rss_kb() -> int:
    """Peak resident set size of the calling process, in KiB.

    ``VmHWM`` from ``/proc/self/status`` is this process's own peak. The
    fallback where there is no ``/proc``, ``ru_maxrss``, is not that for a
    spawned worker, which inherits its parent's peak across fork and exec;
    it is in bytes on macOS and normalized to KiB.
    """
    try:
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):  # pragma: no cover - platform-specific
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return int(peak // 1024 if sys.platform == "darwin" else peak)
