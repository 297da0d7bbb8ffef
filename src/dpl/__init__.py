"""Disentangled perceptual learning at desk scale: a numpy-backed autodiff
core, synthetic image-transformation tasks, feature-space losses with an
online contrastive selection layer, and evaluation metrics."""

from .tensor import ComputationTape, Tensor, backward, conv2d, max_pool2, relu, upsample_nearest2
from .optim import Adam
from .rng import Rng
from .image import (Image, augment, color_jitter, from_tensor, gaussian_blur,
                    load_image, random_crop, save_image, to_grayscale, to_tensor)
from .synth import generate_synthetic
from .networks import FeatureNetPsi, GeneratorF, SelectionPhi, pretrain_psi
from .checkpoint import load_checkpoint, save_checkpoint
from .losses import (color_loss, contextual_loss, perceptual_loss, pixel_loss,
                     texture_loss, triplet_loss)
from .trainer import Triplet, build_triplet, distort, run_training
from .metrics import feature_distance, ms_ssim, psnr
from .config import ExperimentConfig, emit_config, parse_config

__version__ = "0.1.0"
