"""Part-prior masked image modeling, small enough to run on a laptop.

Human-part-aware mask sampling over a patch grid, a tiny ViT-style masked
autoencoder in plain numpy with exact gradients, and a contrastive alignment
term between two masked views of one crop. Everything is deterministic given a seed.
"""

__version__ = "0.1.0"

from .errors import ConfigError, NumericsError
from .geometry import ImageBuffer, KeypointSet, PatchGrid, make_patch_grid
from .losses import LossConfig
from .mask_sampling import MaskPlan, part_guided_mask, random_mask
from .model import ModelConfig, ModelParams, init_params
from .training import TrainConfig, run_pretrain

__all__ = [
    "ConfigError",
    "NumericsError",
    "ImageBuffer",
    "KeypointSet",
    "PatchGrid",
    "make_patch_grid",
    "LossConfig",
    "MaskPlan",
    "part_guided_mask",
    "random_mask",
    "ModelConfig",
    "ModelParams",
    "init_params",
    "TrainConfig",
    "run_pretrain",
    "__version__",
]
