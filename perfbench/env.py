"""Process environment of a benchmark run: thread pinning, the source tree, the manifest.

Import this module, and call `pin_threads`, before anything imports numpy:
BLAS and OpenMP read their thread counts once, when they load.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_groundsent():
    """Import groundsent from this checkout's src/, never from an installed copy.

    Exits with status 2 when the checkout has no source tree.
    """
    if not (SRC / "groundsent" / "__init__.py").is_file():
        print(f"error: no groundsent source tree at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import groundsent.autodiff
    import groundsent.checkpoint
    import groundsent.data
    import groundsent.evaluation
    import groundsent.training

    if Path(groundsent.__file__).resolve().parent != SRC / "groundsent":
        print(f"error: groundsent imported from {groundsent.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return groundsent


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def src_lines() -> int:
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def manifest(workload: str, seed: int, seconds: int, trace: int, size: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "src_lines": src_lines(),
    }
