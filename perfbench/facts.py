"""Machine and software facts stored with every result, so numbers taken on
different machines are never compared without it showing."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path


def loadavg() -> str:
    return Path("/proc/loadavg").read_text().strip()


def _cpuinfo() -> dict:
    out = {}
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        key, _, value = line.partition(":")
        key = key.strip()
        if key in ("model name", "cache size") and key not in out:
            out[key] = value.strip()
    return out


def _lscpu_caches() -> dict:
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True,
                              check=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip().endswith("cache"):
            out[key.strip()] = value.strip()
    return out


def machine() -> dict:
    import mpmath
    import numpy

    cpu = _cpuinfo()
    return {
        "cpu_model": cpu.get("model name"),
        "cpuinfo_cache_size": cpu.get("cache size"),
        "caches": _lscpu_caches(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
    }


def comparable(a: dict, b: dict) -> list[str]:
    """The machine facts that differ between two results."""
    keys = ("cpu_model", "caches", "nproc", "python", "numpy", "mpmath")
    return [k for k in keys if a.get(k) != b.get(k)]
