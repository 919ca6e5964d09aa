"""Teacher-student regression tasks for desk-scale adaptation experiments.

A base network plays the role of a pretrained model. The teacher is the
same network with an unknown low-rank drift added to every weight matrix;
the student starts from the base and must recover the teacher from data.
Because the drift has a known rank per layer, methods whose corrections are
capped below that rank have a provable quality gap to close.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_field_types
from .linalg import Array
from .network import Mlp, build_mlp, predict


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape and size of one synthetic task.

    layer_dims lists the MLP widths input-first, so (64, 64, 64) is a
    two-matrix network. drift_rank is the exact rank of the per-layer
    teacher drift. Inputs are i.i.d. standard Gaussian.
    """

    layer_dims: tuple[int, ...] = (64, 64, 64)
    drift_rank: int = 24
    n_train: int = 1024
    n_val: int = 256
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if len(self.layer_dims) < 2:
            raise ConfigError("layer_dims", f"need at least 2 dims, got {self.layer_dims}")
        if any(d < 1 for d in self.layer_dims):
            raise ConfigError("layer_dims", f"dims must be positive, got {self.layer_dims}")
        narrowest = min(min(self.layer_dims[i], self.layer_dims[i + 1])
                        for i in range(len(self.layer_dims) - 1))
        if not 1 <= self.drift_rank <= narrowest:
            raise ConfigError(
                "drift_rank",
                f"must be in [1, {narrowest}] for dims {self.layer_dims}, "
                f"got {self.drift_rank}",
            )
        if self.n_train < 1:
            raise ConfigError("n_train", f"must be >= 1, got {self.n_train}")
        if self.n_val < 1:
            raise ConfigError("n_val", f"must be >= 1, got {self.n_val}")
        if self.seed < 0:
            raise ConfigError("seed", f"must be >= 0, got {self.seed}")


@dataclass
class SyntheticTask:
    base: Mlp
    teacher: Mlp
    x_train: Array
    y_train: Array
    x_val: Array
    y_val: Array


def generate_synthetic(spec: SyntheticSpec) -> SyntheticTask:
    """Draw base net, teacher drift, and data, all from spec.seed.

    The drift on each weight is p @ q with factor entries scaled so the
    drift's per-entry std is that of the He-initialized base weight
    (rank * var_p * var_q = 2 / fan_in).
    Targets are exact teacher outputs, so the task is realizable by
    construction. The training arrays are stored column-contiguous
    (Fortran order), so gathering a minibatch of columns copies whole
    samples.
    """
    rng = np.random.default_rng(spec.seed)
    base = build_mlp(list(spec.layer_dims), rng)
    teacher = base.copy()
    for layer in teacher.layers:
        fan_out, fan_in = layer.adapter.shape
        std = (2.0 / (fan_in * spec.drift_rank)) ** 0.25
        p = rng.normal(0.0, std, size=(fan_out, spec.drift_rank))
        q = rng.normal(0.0, std, size=(spec.drift_rank, fan_in))
        layer.adapter.w += p @ q
    teacher.bump()
    d_in = spec.layer_dims[0]
    x_train = rng.normal(0.0, 1.0, size=(d_in, spec.n_train))
    x_val = rng.normal(0.0, 1.0, size=(d_in, spec.n_val))
    return SyntheticTask(
        base=base,
        teacher=teacher,
        x_train=np.asfortranarray(x_train),
        y_train=np.asfortranarray(predict(teacher, x_train)),
        x_val=x_val,
        y_val=predict(teacher, x_val),
    )
