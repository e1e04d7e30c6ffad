"""Timing statistics, process resources and run metadata for the benchmark."""

from __future__ import annotations

import ctypes
import math
import os
import platform
import resource
import subprocess
from statistics import median

# a tail percentile is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10


def tail_percentile(samples, cap: float = 90.0) -> tuple[float, float]:
    """(percentile, value): the highest nearest-rank percentile up to cap
    that has at least TAIL_SAMPLES samples above it in sorted order.

    When no percentile above the median qualifies, the tail is the median
    itself, reported as percentile 50.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    i = min(n - 1 - TAIL_SAMPLES, math.ceil(cap * n / 100) - 1)
    pct = 100.0 * (i + 1) / n
    if pct <= 50.0:
        return 50.0, median(xs)
    return pct, xs[i]


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb(workers: int) -> float:
    """Peak resident set of this process plus `workers` times the largest
    reaped child's peak (a pool's workers run side by side)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _git_rev(root) -> str:
    try:
        top = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if len(top) != 2 or os.path.realpath(top[0]) != os.path.realpath(root):
        return "unknown"
    return top[1]


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def run_metadata(root, workload: str, seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "workload": workload,
        "seed": seed,
        "git_rev": _git_rev(root),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "platform": platform.platform(),
    }

