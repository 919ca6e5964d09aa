"""In-memory span recorder and the wrappers that feed it.

Tracing is done from outside the package: `install` replaces each public
function under the module attribute its caller looks up (for example
`rosa.training.forward`) with a wrapper that records one span per call.
Spans are kept in a list and summarised once the workload has finished;
nothing is written while the workload runs.

A span is (name, start, end, parent, run id, network-layer index, info).
A span's self time is its duration minus the durations of its direct
children; children never overlap because the package is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import os
from time import perf_counter

# (module, attribute, span name). Every name a caller looks up gets its own
# row, so `rosa.adapters.svd` and `rosa.exact.svd` both feed `linalg.svd`.
FUNCTIONS = (
    ("rosa.synthetic", "generate_synthetic", "synthetic.generate"),
    ("rosa.cli", "generate_synthetic", "synthetic.generate"),
    ("rosa.synthetic", "predict", "network.predict"),
    ("rosa.training", "forward", "network.forward"),
    ("rosa.training", "backward", "network.backward"),
    ("rosa.training", "mse_loss", "network.loss"),
    ("rosa.training", "mse_loss_gradient", "network.loss"),
    ("rosa.training", "predict", "network.predict"),
    ("rosa.training", "adapt_network", "training.adapt_network"),
    ("rosa.training", "numerical_rank", "linalg.numerical_rank"),
    ("rosa.experiments", "run_training", "training.run"),
    ("rosa.cli", "run_training", "training.run"),
    ("rosa.cli", "write_metrics_csv", "training.write"),
    ("rosa.cli", "write_summary_json", "training.write"),
    ("rosa.adapters", "svd", "linalg.svd"),
    ("rosa.adapters", "sample_indices", "linalg.sample_indices"),
    ("rosa.exact", "svd", "linalg.svd"),
    ("rosa.linalg", "singular_values", "linalg.singular_values"),
    ("rosa.exact", "singular_values", "linalg.singular_values"),
    ("rosa.experiments", "singular_values", "linalg.singular_values"),
    ("rosa.exact", "least_squares", "exact.least_squares"),
    ("rosa.exact", "data_error", "exact.data_error"),
    ("rosa.exact", "rrr_optimum", "exact.rrr_optimum"),
    ("rosa.exact", "predicted_rounds", "exact.predicted_rounds"),
    ("rosa.experiments", "realizable_instance", "exact.instance"),
    ("rosa.experiments", "with_off_range_noise", "exact.instance"),
    ("rosa.experiments", "predicted_rounds", "exact.predicted_rounds"),
    ("rosa.experiments", "rosa_exact_iterate", "exact.iterate"),
    ("rosa.experiments", "rrr_optimum", "exact.rrr_optimum"),
    ("rosa.experiments", "achieved_error", "exact.achieved_error"),
    ("rosa.experiments", "irreducible_error", "exact.irreducible_error"),
    ("rosa.experiments", "lora_error_lower_bound", "exact.lora_error_lower_bound"),
    ("rosa.experiments", "run_method_comparison", "experiments.run_method_comparison"),
    ("rosa.experiments", "sweep_learning_rates", "experiments.sweep"),
    ("rosa.experiments", "run_theorem_suite", "experiments.run_theorem_suite"),
    ("rosa.cli", "spectrum_report", "experiments.spectrum_report"),
    ("rosa.cli", "write_spectrum_csv", "experiments.write_spectrum_csv"),
    ("rosa.cli", "save_checkpoint", "checkpoint.save"),
    ("rosa.cli", "load_checkpoint", "checkpoint.load"),
    ("rosa.cli", "main", "cli.main"),
    ("rosa.cli", "_build_configs", "cli.build_configs"),
    ("rosa.cli", "cmd_train", "cli.cmd_train"),
    ("rosa.cli", "cmd_spectrum", "cli.cmd_spectrum"),
)

# (module, class, method, span name). Methods are looked up on the class,
# so wrapping the class attribute catches every caller.
METHODS = (
    ("rosa.optim", "AdamW", "step", "optim.step"),
    ("rosa.optim", "AdamW", "reset_moments", "optim.reset_moments"),
    ("rosa.adapters", "RosaAdapter", "factorize", "adapters.factorize"),
    ("rosa.exact", "RegressionProblem", "__post_init__", "exact.problem"),
)


class Recorder:
    """Span list plus the stack of open spans.

    Each span is a list [name, start, end, parent, run, layer, info]; the
    index in `spans` is the span id and `parent` is an id or -1.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run = -1
        # id(adapter) -> network-layer index, filled after adapt_network.
        self.layer_of: dict[int, int] = {}

    def open(self, name: str, layer=None) -> int:
        parent = self.stack[-1] if self.stack else -1
        sid = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, parent, self.run, layer, None])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = perf_counter()
        self.stack.pop()


def _wrap(rec: Recorder, name: str, fn, describe=None, layer_of=None):
    """Span-recording wrapper around fn. describe(args, result) fills the
    span's info after the clock stops; layer_of(args) names the layer."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        layer = layer_of(args) if layer_of is not None else None
        sid = rec.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(sid)
        if describe is not None:
            rec.spans[sid][6] = describe(args, result)
        return result

    return wrapper


def _net_shape(net, cols: int):
    """(cols, per-layer (kind, m, n, r)) for operation counts."""
    layers = []
    for layer in net.layers:
        ad = layer.adapter
        m, n = ad.shape
        layers.append((type(ad).__name__, m, n, getattr(ad, "rank", 0)))
    return cols, tuple(layers)


def _describers(rec: Recorder) -> dict:
    def forward(args, result):
        return _net_shape(args[0], args[1].shape[1])

    def backward(args, result):
        return _net_shape(args[0], args[2].shape[1])

    def step(args, result):
        # Trainable element count of the step's gradient set.
        return sum(g.size for layer in args[2].layers for g in layer.values())

    def svd(args, result):
        return tuple(args[0].shape)

    def adapt(args, result):
        for i, layer in enumerate(result.layers):
            rec.layer_of[id(layer.adapter)] = i
        return None

    def save(args, result):
        return os.path.getsize(args[1])

    return {
        "network.forward": forward,
        "network.backward": backward,
        "optim.step": step,
        "linalg.svd": svd,
        "linalg.singular_values": svd,
        "training.adapt_network": adapt,
        "checkpoint.save": save,
    }


def install(rec: Recorder) -> list:
    """Wrap every listed function and method; return the undo list."""
    describers = _describers(rec)
    layer_fns = {
        "optim.reset_moments": lambda args: args[1],
        "adapters.factorize": lambda args: rec.layer_of.get(id(args[0])),
    }
    undo = []
    for module_name, attr, name in FUNCTIONS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        undo.append((module, attr, original))
        setattr(module, attr, _wrap(rec, name, original, describers.get(name)))
    for module_name, cls_name, attr, name in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        original = cls.__dict__[attr]
        undo.append((cls, attr, original))
        setattr(cls, attr, _wrap(rec, name, original, describers.get(name),
                                 layer_fns.get(name)))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Per-span duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def check_nesting(spans: list[list], root_name: str, tol: float) -> tuple[int, int]:
    """Self-time check for every span named root_name.

    Each child must lie inside its parent's interval, and the self times of
    the span and all its descendants must add up to its duration within
    tol seconds. Returns (spans checked, spans failing).
    """
    own = self_times(spans)
    children: dict[int, list[int]] = {}
    for sid, s in enumerate(spans):
        children.setdefault(s[3], []).append(sid)
    checked = failing = 0
    for sid, s in enumerate(spans):
        if s[0] != root_name:
            continue
        checked += 1
        total, ok, todo = 0.0, True, [sid]
        while todo:
            cur = todo.pop()
            total += own[cur]
            for child in children.get(cur, ()):
                c, p = spans[child], spans[cur]
                if c[1] < p[1] or c[2] > p[2]:
                    ok = False
                todo.append(child)
        if not ok or abs(total - (s[2] - s[1])) > tol:
            failing += 1
    return checked, failing
