"""Training-free checkpoint merging via hierarchical pruning and scaling,
guided by layer-wise contribution and conflict analysis."""

from .checkpoint import (
    PRE,
    POST,
    DEFAULT_LAYER_RULE,
    Checkpoint,
    LayerPartition,
    TensorRecord,
    fingerprint,
    load_checkpoint,
    partition_layers,
    save_checkpoint,
    validate_compat,
)
from .delta import (
    DeltaVector,
    PruneScaleParams,
    apply_delta,
    compute_delta,
    load_delta,
    model_wise_process,
    prune_topp,
    save_delta,
    scale,
)
from .errors import (
    CompatError,
    ConfigError,
    EvaluatorError,
    FormatError,
    HiMergeError,
)
from .evaluation import (
    ConstantTask,
    EvalCache,
    EvalResult,
    EvalTask,
    EvaluationBridge,
    SyntheticCompositeTask,
    SyntheticLinearTask,
    hidden_optimum,
    synthetic_linear_eval,
)
from .analysis import (
    AnalysisContext,
    ConflictProfile,
    addition_impact,
    conflict_profile,
    deletion_impact,
)
from .merge import MergeWeights, assemble_final, delta_weighted_merge, weighted_average_merge
from .resolver import (
    ConflictCase,
    HiMergeConfig,
    HiMergeResult,
    IterationPolicy,
    ResolutionAction,
    ResolutionLog,
    classify_layer,
    hi_merge,
    iterate,
    resolve_layer,
)

__version__ = "0.1.0"
