"""Environment stamp recorded with every result, and BLAS thread pinning."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_blas_threads(threads: int) -> int:
    """Fix the BLAS thread count in this process's environment. Must run
    before NumPy is imported; child processes inherit it."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _openblas_threads(np) -> int | None:
    """Ask the OpenBLAS bundled with NumPy how many threads it runs."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_sha(root: str) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root: str, pinned: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    measured = _openblas_threads(np)
    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in
                 ("name", "version", "openblas configuration")},
        "nproc": nproc(),
        "blas_threads": measured if measured is not None else pinned,
        "blas_threads_source": "openblas" if measured is not None else "environment",
    }
