"""Statistics, failure counting, output digests and machine facts.

Kept free of module-level numpy and vtalarm imports so the launcher can
import it before BLAS threads are pinned.
"""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path


def tail_percentile(samples, beyond: int = 10) -> tuple[float, float, int]:
    """The highest nearest-rank percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, n)``. With ``n`` sorted samples the value
    at 1-based rank ``k = n - beyond`` leaves exactly ``beyond`` samples
    beyond it, and its percentile is ``100 * k / n``. With ``beyond`` or
    fewer samples no such percentile exists; the maximum is returned and
    the percentile reads 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    k = n - beyond
    if k < 1:
        return ordered[-1], 100.0, n
    return ordered[k - 1], 100.0 * k / n, n


class Operations:
    """Attempted and failed operations (set-ups, stages, quality splits).

    A failed output check counts as a failure of the operation whose
    output it checked; each operation is counted once however many of
    its checks fail.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(f"{what}: {p}" for p in problems)
        return not problems

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tree_digest(root, pattern: str = "*") -> str:
    """SHA-256 over the relative path and bytes of every file matching ``pattern``."""
    root = Path(root)
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob(pattern) if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


def machine_info(blas_threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "nproc": nproc(),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "platform": platform.platform(),
    }
