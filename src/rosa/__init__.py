"""Random subspace adaptation of dense networks, with exact linear solvers.

The package splits into small layers: linalg (deterministic SVD and
rank), adapters (the weight parameterizations), network (MLP with
hand-written gradients), optim (AdamW), exact (closed-form solvers
for the linear case), synthetic/training/experiments (the desk-scale
harness), checkpoint (binary model files), fileio (atomic output files),
and cli (the `rosa` command).
"""

from .adapters import (FullyTrainable, Ia3Adapter, RosaAdapter, full_init,
                       ia3_init, lora_init, matrix_param_count, rosa_init,
                       trainable_reduction)
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import (CheckpointFormatError, ConfigError,
                     ContractViolationError, InvalidInputError, NumericError,
                     RankTooLargeError, RosaError, ShapeError,
                     SingularMatrixError)
from .exact import (RegressionProblem, RosaTrace, achieved_error, data_error,
                    irreducible_error, least_squares, lora_error_lower_bound,
                    predicted_rounds, realizable_instance, residual_rank,
                    rosa_exact_iterate, rrr_optimum, with_off_range_noise)
from .linalg import (SamplingScheme, SvdFactors, numerical_rank,
                     sample_indices, singular_values, svd, svd_each)
from .network import (Activation, DenseLayer, ForwardCache, GradientSet, Mlp,
                      backward, build_mlp, forward, mse_loss,
                      mse_loss_and_gradient, mse_loss_gradient, predict)
from .optim import AdamW
from .synthetic import SyntheticSpec, SyntheticTask, generate_synthetic
from .training import (MetricsRecord, TrainConfig, TrainResult, adapt_network,
                       run_training, write_metrics_csv, write_summary_json)

__version__ = "0.1.0"
