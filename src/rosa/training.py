"""Minibatch training of adapted networks, with per-epoch metrics.

The loop is deterministic: a single Generator seeded from the config
drives adapter initialization, batch shuffling, and subspace re-sampling,
in a fixed consumption order, so identical configs give bit-identical
metric sequences. Per-layer drift ranks cost one SVD per layer, so they
are taken only on epochs with a factorize event and on the last epoch.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import linalg
from .adapters import (full_init, ia3_init, lora_init, matrix_param_count,
                       rosa_init, trainable_reduction)
from .errors import (ConfigError, ContractViolationError, NumericError,
                     bounded, check_fields)
from .fileio import atomic_open, write_json
# perfbench/spans.py wraps these names (and adapt_network) on this module; keep all.
from .linalg import SamplingScheme, numerical_rank, svd_each
from .network import (DenseLayer, Mlp, backward, forward, mse_loss,  # noqa: F401
                      mse_loss_and_gradient, mse_loss_gradient, predict)
from .optim import AdamW
from .synthetic import SyntheticTask

@dataclass
class TrainConfig:
    """One training run. Each field's type and bound are checked, and the
    value normalized, by errors.check_fields; __post_init__ adds the rules
    that tie fields together."""

    method: str = bounded("rosa", choices=("ft", "lora", "rosa", "ia3"))
    rank: int | None = bounded(None, ge=1)
    factorize_every: int = bounded(1, ge=1)
    factorize_unit: str = bounded("epochs", choices=("steps", "epochs"))
    scheme: str = bounded("random",
                          choices=tuple(s.value for s in SamplingScheme))
    ablation: str = bounded(
        "full", choices=("full", "svd_init_factorize", "svd_init_only"))
    lr: float = bounded(1e-3, gt=0)
    epochs: int = bounded(10, ge=1)
    batch_size: int = bounded(128, ge=1)
    seed: int = bounded(0, ge=0)

    def __post_init__(self):
        check_fields(self)
        needs_rank = self.method in ("rosa", "lora")
        if needs_rank and self.rank is None:
            raise ConfigError("rank", f"required for method {self.method!r}")
        if not needs_rank and self.rank is not None:
            raise ConfigError("rank", f"must be omitted for method {self.method!r}")
        if self.ablation != "full" and self.method != "rosa":
            raise ConfigError("ablation",
                              f"{self.ablation!r} only applies to method 'rosa'")


@dataclass
class MetricsRecord:
    """One row per epoch. residual_ranks counts, per layer, the numerical
    rank of the effective weight's drift from the pretrained matrix; it is
    None except on factorize-event epochs and the last epoch."""

    epoch: int
    step: int
    train_loss: float
    val_loss: float
    trainable_params: int
    factorize_event: bool
    residual_ranks: tuple[int, ...] | None


@dataclass
class TrainResult:
    records: list[MetricsRecord]
    net: Mlp
    initial_net: Mlp
    summary: dict


def adapt_network(base: Mlp, config: TrainConfig,
                  rng: np.random.Generator) -> Mlp:
    """Wrap each layer of the base net in the configured adapter.

    Weights and biases are copied from the base; biases stay trainable in
    every method.
    """
    layers = []
    for layer in base.layers:
        w = layer.adapter.effective_weight()
        if config.method == "ft":
            adapter = full_init(w)
        elif config.method == "lora":
            adapter = lora_init(w, config.rank, rng)
        elif config.method == "ia3":
            adapter = ia3_init(w)
        else:
            adapter = rosa_init(
                w, config.rank, SamplingScheme(config.scheme), rng,
                subtract_at_init=config.ablation != "svd_init_only",
            )
        layers.append(DenseLayer(adapter=adapter, bias=layer.bias.copy(),
                                 activation=layer.activation))
    return Mlp(layers=layers)


def _factorize_rosa_layers(net: Mlp, optimizer: AdamW,
                           rng: np.random.Generator) -> None:
    """One factorize event (the schedule runs only for method rosa, so
    every layer is factored), in groups of linalg._worker_count() layers:
    take the SVDs of a group's merges at once on as many threads, then
    re-sample each layer of the group in order and reset the moments of its
    new (a, b). The event holds one group's merges and factors at a time; a
    net deeper than one group starts group size - 1 threads per group. A
    non-finite merge, left by a diverging step, raises NumericError.

    The SVDs draw nothing from rng, and factorize's own merge has the bytes
    of the group's, so the results are those of one layer after another.
    """
    workers = linalg._worker_count()
    for first in range(0, len(net.layers), workers):
        group = net.layers[first:first + workers]
        merges = [layer.adapter.effective_weight() for layer in group]
        for i, merged in enumerate(merges, first):
            if not np.isfinite(merged).all():
                raise NumericError(f"layer {i}'s merged weight became "
                                   f"non-finite before a factorize event")
        factors = svd_each(merges)
        for i, layer in enumerate(group, first):
            layer.adapter.factorize(rng, factors.pop(0))
            optimizer.reset_moments(i, ("a", "b"))
    net.bump()


def _drift_ranks(net: Mlp, initial_net: Mlp) -> tuple[int, ...]:
    """Numerical rank of each layer's move away from its starting weight,
    merged from the start snapshot one layer at a time."""
    return tuple(
        numerical_rank(layer.adapter.effective_weight()
                       - start.adapter.effective_weight())
        for layer, start in zip(net.layers, initial_net.layers)
    )


def run_training(config: TrainConfig, task: SyntheticTask) -> TrainResult:
    """Train an adapted copy of task.base against the teacher's data.

    Returns the per-epoch records, the trained net, a snapshot of the net
    at initialization, and a summary dict. Raises NumericError the moment
    a loss stops being finite. Records carry drift ranks on factorize-event
    epochs and on the last epoch only. For LoRA runs the final drift of
    every layer is checked to have numerical rank at most the configured
    rank; a violation raises ContractViolationError.
    """
    rng = np.random.default_rng(config.seed)
    net = adapt_network(task.base, config, rng)
    initial_net = net.copy()
    optimizer = AdamW(net, config.lr)
    n = task.x_train.shape[1]
    batch = min(config.batch_size, n)
    schedule_on = config.method == "rosa" and config.ablation == "full"
    records: list[MetricsRecord] = []
    trainable_params = sum(matrix_param_count(layer.adapter) + layer.bias.size
                           for layer in net.layers)
    global_step = 0
    for epoch in range(1, config.epochs + 1):
        perm = rng.permutation(n)
        event = False
        sq_sum = 0.0
        for start in range(0, n, batch):
            if (schedule_on and config.factorize_unit == "steps"
                    and (global_step + 1) % config.factorize_every == 0):
                _factorize_rosa_layers(net, optimizer, rng)
                event = True
            cols = perm[start:start + batch]
            xb = task.x_train[:, cols]
            yb = task.y_train[:, cols]
            pred, cache = forward(net, xb)
            loss, loss_grad = mse_loss_and_gradient(pred, yb)
            if not math.isfinite(loss):
                raise NumericError(
                    f"train loss became non-finite at epoch {epoch}, "
                    f"step {global_step}"
                )
            sq_sum += loss * cols.size
            optimizer.step(net, backward(net, cache, loss_grad))
            # So that the next forward pass holds one step's activations.
            del pred, cache, loss_grad
            global_step += 1
        if (schedule_on and config.factorize_unit == "epochs"
                and epoch % config.factorize_every == 0):
            _factorize_rosa_layers(net, optimizer, rng)
            event = True
        train_loss = sq_sum / n
        val_loss = mse_loss(predict(net, task.x_val), task.y_val)
        if not math.isfinite(val_loss):
            raise NumericError(f"validation loss became non-finite at epoch {epoch}")
        records.append(MetricsRecord(
            epoch=epoch,
            step=global_step,
            train_loss=train_loss,
            val_loss=val_loss,
            trainable_params=trainable_params,
            factorize_event=event,
            residual_ranks=(_drift_ranks(net, initial_net)
                            if event or epoch == config.epochs else None),
        ))
    lora_check = None
    if config.method == "lora":
        # A LoRA layer's drift is exactly its product a @ b, free of the
        # cancellation noise of differencing effective weights.
        ranks = tuple(numerical_rank(layer.adapter.product())
                      for layer in net.layers)
        if any(r > config.rank for r in ranks):
            raise ContractViolationError(
                f"low-rank drift bound violated: ranks {ranks} "
                f"exceed configured rank {config.rank}"
            )
        lora_check = {"residual_ranks": list(ranks), "bound": config.rank, "ok": True}
    summary = _summarize(config, net, records, lora_check)
    return TrainResult(records=records, net=net, initial_net=initial_net,
                       summary=summary)


def _summarize(config: TrainConfig, net: Mlp, records: list[MetricsRecord],
               lora_check: dict | None) -> dict:
    matrix_counts = [matrix_param_count(layer.adapter) for layer in net.layers]
    bias_counts = [layer.bias.size for layer in net.layers]
    reductions = None
    if config.rank is not None:
        reductions = [trainable_reduction(layer.adapter.shape[0],
                                          layer.adapter.shape[1], config.rank)
                      for layer in net.layers]
    return {
        "config": asdict(config),
        "final_train_loss": records[-1].train_loss,
        "final_val_loss": records[-1].val_loss,
        "best_val_loss": min(r.val_loss for r in records),
        "trainable_params": {
            "total": sum(matrix_counts) + sum(bias_counts),
            "matrix": sum(matrix_counts),
            "bias": sum(bias_counts),
            "matrix_per_layer": matrix_counts,
        },
        "trainable_reduction_per_layer": reductions,
        "factorize_events": sum(1 for r in records if r.factorize_event),
        "final_residual_ranks": list(records[-1].residual_ranks),
        "lora_rank_check": lora_check,
    }


def write_metrics_csv(records: list[MetricsRecord], path) -> None:
    """Write one CSV row per record. Floats use repr, so equal runs give
    byte-identical files. A record without drift ranks gets empty rank
    cells; the rank columns follow the first record that has ranks."""
    if not records:
        raise ValueError("no records to write")
    n_layers = next((len(r.residual_ranks) for r in records
                     if r.residual_ranks is not None), 0)
    header = ["epoch", "step", "train_loss", "val_loss", "trainable_params",
              "factorize_event"]
    header += [f"residual_rank_{i}" for i in range(n_layers)]
    lines = [",".join(header)]
    for r in records:
        row = [str(r.epoch), str(r.step), repr(r.train_loss), repr(r.val_loss),
               str(r.trainable_params), str(int(r.factorize_event))]
        ranks = r.residual_ranks
        row += [str(v) for v in ranks] if ranks is not None else [""] * n_layers
        lines.append(",".join(row))
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary_json(summary: dict, path) -> None:
    write_json(summary, path)
