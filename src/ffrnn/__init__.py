"""ffrnn: train vanilla recurrent networks on the 3-bit flip-flop memory
task and analyze the trained dynamics."""

__version__ = "0.1.0"

from .analysis import (
    CubeReport,
    ProjectionResult,
    Spectrum,
    collect_and_project,
    compare_realizations,
    export_connectivity,
    memory_states,
    procrustes_align,
    spectrum,
)
from .linalg import (
    SeededRng,
    eigenvalues,
    matmul,
    orthogonal_init,
    pca_top_k,
    random_normal,
)
from .model import (
    ActivityTrace,
    ModelConfig,
    RnnParams,
    batch_forward,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .task import (
    Dataset,
    TaskConfig,
    Trial,
    flipflop_oracle,
    generate_dataset,
    generate_probe,
    generate_trial,
    load_dataset,
    save_dataset,
)
from .training import (
    AdamState,
    DivergenceError,
    EvalMetrics,
    GradcheckReport,
    TrainConfig,
    TrainReport,
    adam_update,
    bptt_gradients,
    evaluate,
    init_adam_state,
    loss,
    run_gradcheck,
    train,
)
