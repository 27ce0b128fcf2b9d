"""Print the facts of the machine the benchmark runs on, as JSON.

    python3 perfbench/machine.py > perfbench/machine.json
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def caches() -> dict[str, str]:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        if level and size and kind != "Instruction":
            out[f"L{level}"] = size
    return out


def cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def facts() -> dict:
    import numpy
    import scipy

    largest = 512 * 512 * 16
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "caches_per_instance": caches(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "cgroup_cpu_max": _read("/sys/fs/cgroup/cpu.max"),
        "largest_array_bytes": largest,
        "note": ("The largest array (512^2 complex128, 4 MiB) fits in L3, so fft.bytes_computed "
                 "is computed from array sizes, not measured bandwidth, and no roofline ratio "
                 "is reported."),
    }


if __name__ == "__main__":
    print(json.dumps(facts(), indent=2))
