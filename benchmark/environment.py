"""The environment a benchmark run measures, and what the benchmark leaves out.

    python3 benchmark/environment.py > benchmark/environment.json

run from the root of a checkout, records the machine, the library versions
and the net ``src/`` line count next to the exclusions and their reasons.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from importlib import metadata
from pathlib import Path

BLAS_THREADS = 1

EXCLUSIONS = {
    "default_blas_threads": (
        "At 128x64 the volume-kind observe is bimodal at the default 2 BLAS threads "
        "(p90 16.0 ms in one process of three, 0.45 ms in the others; 0.41 ms at 1 "
        "thread), so every workload pins OPENBLAS_NUM_THREADS and OMP_NUM_THREADS to 1."
    ),
    "sweep_workers": (
        "sweep --workers is left out: on a 2-core shared machine a wall time with two "
        "workers measures the scheduler more than the program."
    ),
    "tier1_wall_time": (
        "The Tier-1 test suite is not timed: a full run takes minutes, and a "
        "single-run figure of it cannot repeat within the bounds set here."
    ),
    "manufactured": (
        "The manufactured module is used only by validate and the tests, so no "
        "workload calls it and it is not a measured layer."
    ),
}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def src_lines(root: Path) -> int:
    """Net line count of the Python sources under src/."""
    return sum(
        len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py"))
    )


def environment(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "src_lines": src_lines(root),
    }


if __name__ == "__main__":
    record = environment(Path.cwd())
    record["exclusions"] = EXCLUSIONS
    json.dump(record, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
