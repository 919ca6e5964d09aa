import os

# One BLAS thread per process, unless the caller chose otherwise: faster for
# these small matrices, and the grid runners then train one process per CPU.
# OpenBLAS reads this once, when NumPy loads it, so it must come first.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import multiprocessing  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import rosa.linalg  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def workers(monkeypatch):
    """Set the CPU budget, rosa.linalg._worker_count, which sizes both the
    grid split and every factorize event's threads; returns the pids the
    test forks from then on. Every forked child must be reaped by the end
    of the test.
    """
    forked, every_pid = [], []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
            every_pid.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)

    def use(count):
        monkeypatch.setattr(rosa.linalg, "_worker_count", lambda: count)
        forked.clear()
        return forked

    yield use
    assert multiprocessing.active_children() == []
    for pid in every_pid:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
