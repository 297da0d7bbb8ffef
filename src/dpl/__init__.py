"""Disentangled perceptual learning at desk scale: a numpy-backed autodiff
core, synthetic image-transformation tasks, feature-space losses with an
online contrastive selection layer, and evaluation metrics."""

__version__ = "0.1.0"
