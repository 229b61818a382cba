"""Small measurement helpers: percentiles with their support, memory, environment."""

from __future__ import annotations

import math
import os
import platform
import resource

import numpy as np

#: Candidate percentiles, highest first, for :func:`percentile_summary`.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A percentile is reported as supported only with this many samples beyond it.
MIN_BEYOND = 10

#: Ambient settings that change what the program does; a run refuses them.
PINNED_ENV = (
    "REPRO_RUNTIME",
    "REPRO_FAULTS",
    "REPRO_OBS",
    "REPRO_KERNELS",
    "REPRO_SHM_BACKEND",
)

def samples_beyond(n: int, percentile: float) -> int:
    """How many of ``n`` sorted samples lie past the ``percentile`` rank."""
    return n - math.ceil(n * percentile / 100.0)


def percentile_summary(samples) -> dict:
    """Median, p99, sample count and the highest well-supported percentile.

    ``top`` is the highest percentile of :data:`PERCENTILES` with at least
    :data:`MIN_BEYOND` samples beyond it (``None`` when even the median
    lacks them); ``top_value`` is its value.
    """
    values = np.asarray(samples, dtype=float)
    n = int(values.size)
    if n == 0:
        raise ValueError("no samples to summarize")
    top = next((p for p in PERCENTILES if samples_beyond(n, p) >= MIN_BEYOND), None)
    return {
        "n": n,
        "p50": float(np.percentile(values, 50.0)),
        "p99": float(np.percentile(values, 99.0)),
        "top": top,
        "top_value": None if top is None else float(np.percentile(values, top)),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def refused_env(environ=os.environ) -> list[str]:
    """The :data:`PINNED_ENV` variables set in ``environ``."""
    return [name for name in PINNED_ENV if environ.get(name)]


def environment() -> dict:
    """Machine and toolchain facts recorded with every result."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }
