"""Random subspace adaptation of dense networks, with exact linear solvers.

The package splits into small layers: linalg (deterministic SVD and
projections), adapters (the weight parameterizations), network (MLP with
hand-written gradients), optim (SGD, AdamW), exact (closed-form solvers
for the linear case), synthetic/training/experiments (the desk-scale
harness), checkpoint (binary model files), and cli (the `rosa` command).
"""

from .adapters import (FullyTrainable, Ia3Adapter, LoraAdapter, RosaAdapter,
                       factorize_step, full_init, ia3_init, lora_init,
                       matrix_param_count, rosa_init, trainable_reduction)
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import (CheckpointFormatError, ConfigError,
                     ContractViolationError, InvalidInputError, NumericError,
                     RankTooLargeError, RosaError, ShapeError,
                     SingularMatrixError)
from .exact import (RegressionProblem, RosaTrace, achieved_error, data_error,
                    irreducible_error, least_squares, lora_error_lower_bound,
                    predicted_rounds, random_instance, realizable_instance,
                    residual_rank, rosa_exact_iterate, rrr_optimum,
                    with_off_range_noise)
from .linalg import (SamplingScheme, SvdFactors, numerical_rank,
                     projection_onto_range, sample_indices, singular_values,
                     svd)
from .network import (Activation, DenseLayer, ForwardCache, GradientSet, Mlp,
                      backward, build_mlp, forward, mse_loss,
                      mse_loss_and_gradient, mse_loss_gradient, predict)
from .optim import AdamW, Sgd
from .synthetic import SyntheticSpec, SyntheticTask, generate_synthetic
from .training import (MetricsRecord, TrainConfig, TrainResult, adapt_network,
                       run_training, write_metrics_csv, write_summary_json)

__version__ = "0.1.0"
