"""From-scratch GAP feature heads and Dense-Dropout classifiers for binary
MRI tumor detection, with a seeded training harness and evaluation suite."""

__version__ = "0.1.0"

from .pipeline import ModelSpec, Model, decide, count_parameters  # noqa: F401
from .train import TrainConfig, train_loop  # noqa: F401
