"""ffrnn: train vanilla recurrent networks on the 3-bit flip-flop memory
task and analyze the trained dynamics.

The package root holds the names of the README's "Library" example and of
the acceptance suite; everything else is imported from its module
(``ffrnn.model``, ``ffrnn.training``, ``ffrnn.analysis``, ...).
"""

__version__ = "0.1.0"

from .analysis import collect_and_project, memory_states
from .linalg import SeededRng
from .model import ModelConfig, init_params
from .task import TaskConfig, generate_dataset, generate_probe, generate_trial
from .training import TrainConfig, run_gradcheck, train

__all__ = [
    "ModelConfig",
    "SeededRng",
    "TaskConfig",
    "TrainConfig",
    "collect_and_project",
    "generate_dataset",
    "generate_probe",
    "generate_trial",
    "init_params",
    "memory_states",
    "run_gradcheck",
    "train",
]
