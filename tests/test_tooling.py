"""Checks on the benchmark tooling's view of the package.

perfbench/spans.py wraps package functions by (module, attribute) name and
calls getattr with no default, so a renamed or removed function would
crash every traced benchmark run; these tests catch that first. Likewise
perfbench/floors.py counts a layer's operations by its adapter's type name
and rank, so a renamed adapter class would silently skew its floors, and
perfbench/workloads.py counts greedy rounds by wrapping
rosa.experiments.rosa_exact_iterate, so a suite that stopped calling it
there would report no work. Every workload's operations must also match
perfbench/fingerprint.json, so a changed byte in training or in the SVD
path fails here before it fails a benchmark run. Each workload's setup
child, which perfbench/run.py times in a fresh interpreter, must start and
print "ready" from the source tree alone.
"""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from rosa.network import build_mlp
from rosa.training import TrainConfig, adapt_network

ROOT = pathlib.Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up in sys.modules while the class is made.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


SPANS = load("spans")
FLOORS = load("floors")
WORKLOADS = load("workloads")


@pytest.mark.parametrize("module, attribute, span", SPANS.FUNCTIONS,
                         ids=lambda v: str(v))
def test_span_function_resolves(module, attribute, span):
    assert callable(getattr(importlib.import_module(module), attribute))


@pytest.mark.parametrize("module, cls, method, span", SPANS.METHODS,
                         ids=lambda v: str(v))
def test_span_method_resolves(module, cls, method, span):
    owner = getattr(importlib.import_module(module), cls)
    assert callable(getattr(owner, method))


@pytest.mark.parametrize("method, factored", [
    ("ft", False), ("rosa", True), ("lora", True), ("ia3", False),
])
def test_floors_count_adapters(method, factored):
    rank = 3 if factored else None
    net = adapt_network(build_mlp([8, 6, 4], np.random.default_rng(0)),
                        TrainConfig(method=method, rank=rank),
                        np.random.default_rng(1))
    cols, layers = SPANS._net_shape(net, 5)
    for kind, m, n, r in layers:
        assert r == (rank if factored else 0)
        low_rank = 2 * r * n * cols + 2 * m * r * cols
        assert FLOORS.layer_forward_flops(kind, m, n, r, cols) == (
            2 * m * n * cols + low_rank)


def test_exact_unit_counts_every_round(tmp_path):
    # Ranks (1, 2, 4, 8) on residual rank 8 take 8, 4, 2 and 1 rounds, the
    # noisy rank-1 case 8; each trace runs two rounds past its prediction.
    exact = WORKLOADS.Exact(seed=0, workdir=str(tmp_path))
    exact.prepare()
    try:
        inspected = exact.inspect_unit("suite", exact.run_unit("suite"))
    finally:
        exact.close()
    fingerprint = json.loads((PERFBENCH / "fingerprint.json").read_text())
    assert inspected.work == sum(t + 2 for t in (8, 4, 2, 1, 8)) == 33
    assert inspected.ops == fingerprint["exact"]
    assert inspected.bad == set()


@pytest.mark.parametrize("name", ["grid", "resample"])
def test_workload_matches_fingerprint(name, tmp_path):
    workload = WORKLOADS.WORKLOADS[name](seed=0, workdir=str(tmp_path))
    workload.prepare()
    ops, bad = {}, set()
    for key in workload.unit_keys():
        inspected = workload.inspect_unit(key, workload.run_unit(key))
        ops.update(inspected.ops)
        bad |= inspected.bad
    fingerprint = json.loads((PERFBENCH / "fingerprint.json").read_text())
    assert ops == fingerprint[name]
    assert bad == set()


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_setup_child_starts_fresh(name, tmp_path):
    # The environment perfbench/run.py's SetupTimer gives the child.
    code, argv = WORKLOADS.WORKLOADS[name](seed=0,
                                           workdir=str(tmp_path)).setup_child()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    child = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                           cwd=tmp_path, capture_output=True, text=True,
                           timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "ready\n"
