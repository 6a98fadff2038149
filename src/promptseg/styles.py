"""Analytic style transforms standing in for learned image translation.

A style is a short fixed pipeline over an RGB image in [0, 1]:
hue rotation -> contrast gain -> brightness shift -> gamma -> vertical
lighting ramp -> haze mix -> gaussian noise -> clamp.  Identity parameters
leave the image bit-identical.  Masks are never touched; styles act on
pixels only.
"""

from dataclasses import dataclass, fields

import numpy as np


@dataclass(frozen=True)
class StyleParams:
    hue_shift: float = 0.0  # degrees around the gray axis
    brightness: float = 0.0  # additive
    contrast: float = 1.0  # multiplicative gain
    gamma: float = 1.0  # applied to clipped-positive values
    noise_sigma: float = 0.0
    haze: float = 0.0  # mix weight toward mid gray
    v_ramp: float = 0.0  # vertical lighting slope; > 0 brightens the bottom


def hue_rotation_matrix(degrees: float) -> np.ndarray:
    """Rotation of RGB space about the gray axis (1,1,1)/sqrt(3)."""
    if degrees == 0.0:
        return np.eye(3, dtype=np.float64)
    theta = np.deg2rad(degrees)
    a = np.ones(3) / np.sqrt(3.0)
    k = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    return (
        np.cos(theta) * np.eye(3)
        + np.sin(theta) * k
        + (1.0 - np.cos(theta)) * np.outer(a, a)
    )


def apply_style(image: np.ndarray, params: StyleParams, seed: int) -> np.ndarray:
    """Stylize a (3, H, W) image in [0, 1]; deterministic in ``seed``."""
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"expected (3, H, W) image, got {image.shape}")
    out = image.astype(np.float32)
    if params.hue_shift != 0.0:
        q = hue_rotation_matrix(params.hue_shift).astype(np.float32)
        out = (q @ out.reshape(3, -1)).reshape(out.shape)
    if params.contrast != 1.0:
        out = out * params.contrast
    if params.brightness != 0.0:
        out = out + params.brightness
    if params.gamma != 1.0:
        out = np.clip(out, 0.0, None) ** params.gamma
    if params.v_ramp != 0.0:
        h = out.shape[1]
        rows = np.arange(h, dtype=np.float32) / max(h - 1, 1) - 0.5
        out = out * (1.0 + params.v_ramp * rows)[None, :, None]
    if params.haze != 0.0:
        out = (1.0 - params.haze) * out + params.haze * 0.5
    if params.noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        out = out + rng.normal(0.0, params.noise_sigma, out.shape)
    return np.clip(out, 0.0, 1.0).astype(np.float32)


def style_presets():
    """The four fixed training styles, in canonical order."""
    return {
        "cool_dim": StyleParams(
            hue_shift=-35.0, brightness=-0.12, contrast=0.75,
            gamma=1.25, noise_sigma=0.020, haze=0.30,
        ),
        "high_contrast": StyleParams(
            hue_shift=15.0, brightness=0.0, contrast=1.40,
            gamma=0.90, noise_sigma=0.015, haze=0.05,
        ),
        "green_bright": StyleParams(
            hue_shift=45.0, brightness=0.12, contrast=1.10,
            gamma=0.80, noise_sigma=0.010, haze=0.10,
        ),
        "warm_hazy": StyleParams(
            hue_shift=-60.0, brightness=-0.05, contrast=0.85,
            gamma=1.10, noise_sigma=0.030, haze=0.45,
        ),
    }


# Held-out target styles: distinct from every training preset, but milder.
# Targets sit between the base distribution and the trained styles; a shift
# as severe as the presets themselves would reward raw amplitude over the
# learned direction and wash out the fusion comparison.
TARGET_STYLES = {
    "dusk": StyleParams(
        hue_shift=-12.0, brightness=-0.10, contrast=0.94,
        gamma=1.18, noise_sigma=0.020, haze=0.12,
    ),
    "snow_glare": StyleParams(
        hue_shift=5.0, brightness=0.12, contrast=1.15,
        gamma=0.85, noise_sigma=0.015, haze=0.18,
    ),
}


@dataclass(frozen=True)
class StyleJitter:
    """Per-field uniform half-widths applied around a mean StyleParams."""

    hue_shift: float = 0.0
    brightness: float = 0.0
    contrast: float = 0.0
    gamma: float = 0.0
    noise_sigma: float = 0.0
    haze: float = 0.0
    v_ramp: float = 0.0


def jittered(mean: StyleParams, jitter: StyleJitter, rng) -> StyleParams:
    """Draw params uniformly within +-jitter of the mean, clamped to sane ranges."""
    draw = {}
    for f in fields(StyleParams):
        m = getattr(mean, f.name)
        j = getattr(jitter, f.name)
        draw[f.name] = m + (float(rng.uniform(-j, j)) if j else 0.0)
    draw["contrast"] = max(0.05, draw["contrast"])
    draw["gamma"] = max(0.05, draw["gamma"])
    draw["noise_sigma"] = max(0.0, draw["noise_sigma"])
    draw["haze"] = min(1.0, max(0.0, draw["haze"]))
    return StyleParams(**draw)
