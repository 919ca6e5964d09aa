"""Checks on the benchmark tooling's view of the package.

perfbench/spans.py wraps package functions by (module, attribute) name and
calls getattr with no default, so a renamed or removed function would
crash every traced benchmark run; these tests catch that first.
"""

import importlib
import importlib.util
import pathlib

import pytest

SPANS_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()


@pytest.mark.parametrize("module, attribute, span", SPANS.FUNCTIONS,
                         ids=lambda v: str(v))
def test_span_function_resolves(module, attribute, span):
    assert callable(getattr(importlib.import_module(module), attribute))


@pytest.mark.parametrize("module, cls, method, span", SPANS.METHODS,
                         ids=lambda v: str(v))
def test_span_method_resolves(module, cls, method, span):
    owner = getattr(importlib.import_module(module), cls)
    assert callable(getattr(owner, method))
