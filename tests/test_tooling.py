"""Checks on the benchmark tooling's view of the package.

perfbench/spans.py wraps package functions by (module, attribute) name and
calls getattr with no default, so a renamed or removed function would
crash every traced benchmark run; these tests catch that first. Likewise
perfbench/floors.py counts a layer's operations by its adapter's type name
and rank, so a renamed adapter class would silently skew its floors.
"""

import importlib
import importlib.util
import pathlib

import numpy as np
import pytest

from rosa.network import build_mlp
from rosa.training import TrainConfig, adapt_network

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load("spans")
FLOORS = load("floors")


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
