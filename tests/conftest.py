import os

# One BLAS thread per process, unless the caller chose otherwise: faster for
# these small matrices, and the grid runners then train one process per CPU.
# OpenBLAS reads this once, when NumPy loads it, so it must come first.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import multiprocessing  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import rosa.experiments  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def workers(monkeypatch):
    """Set the worker count the cell runner sees; returns the pids it forks
    from then on. Every forked child must be reaped by the end of the test.
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
        monkeypatch.setattr(rosa.experiments, "_worker_count", lambda: count)
        forked.clear()
        return forked

    yield use
    assert multiprocessing.active_children() == []
    for pid in every_pid:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
