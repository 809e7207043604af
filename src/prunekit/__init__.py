"""prunekit: channel pruning by learning gates on frozen random weights.

The workflow this package implements:

1. build a convolutional architecture from a preset (optionally widened
   by a channel-expansion multiplier) and initialize it randomly;
2. learn per-channel gate values against classification loss plus a
   sparsity penalty while every weight stays frozen;
3. bisect a global gate threshold until the surviving channels meet a
   FLOPS budget;
4. train the resulting structure from scratch, scaling the epoch count
   so the pruned model receives the full model's compute budget;
5. compare structures across seeds and weight sources by per-layer
   keep-ratio correlation.

Submodules stay importable on their own (``prunekit.tensor`` is the
autodiff core); this namespace re-exports the high-level API.
"""

# assigned before the submodule imports: cli reads it back at import time
__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from . import tensor
from .analysis import (
    SimilarityMatrix,
    StructureFeature,
    StudyBundle,
    correlation_matrix,
    emit_report,
    mean_pairwise_correlation,
    run_pretrain_effect_study,
    structure_feature,
    study_summary,
)
from .arch import (
    PRESETS,
    ArchSpec,
    ChannelConfig,
    LayerSpec,
    Model,
    count_flops,
    evaluate_accuracy,
    expand_channels,
    full_config,
    preset,
    prune_by_threshold,
)
from .cli import PipelineConfig, main
from .data import (
    Dataset,
    RunRecord,
    SynthSpec,
    derive_rng,
    derive_seed,
    load_cifar10,
    load_run,
    load_weights,
    make_validation_split,
    save_run,
    save_weights,
    synth_suite,
)
from .errors import (
    ArchError,
    BudgetError,
    ConfigError,
    DegenerateFeatureError,
    DivergenceError,
    FormatError,
    PipelineError,
    PruneKitError,
)
from .gates import (
    GateSnapshot,
    GateState,
    ImportanceConfig,
    init_gates,
    learn_channel_importance,
    select_best_gates,
    sparsity_penalty,
)
from .search import SearchConfig, SearchResult, search_structure
from .train import (
    TrainReport,
    TrainSchedule,
    budget_epochs,
    fit,
    lottery_model,
    train_from_scratch,
)

# every name imported above is public; of the submodules, only tensor
__all__ = ["tensor"] + sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType))
