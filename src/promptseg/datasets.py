"""Domain assembly and persistence.

A domain is a list of rendered samples, optionally pushed through a jittered
style.  Content is a pure function of the DomainSpec, so two builds of the
same spec hash identically.

On disk a domain is a "DOMN" table in the checkpoint container, the one binary
container: ``images`` (N, 3, H, W) and ``masks`` (N, H, W), both f32, which
holds the small integer labels exactly.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .checkpoint import load_checkpoint, loader, save_checkpoint
from .errors import FormatError
from .scenes import CHANNELS, CLASS_COUNT, Sample, SceneSpec, render_scene
from .seeding import mix_seed
from .styles import StyleJitter, StyleParams, apply_style, jittered

KIND = "DOMN"


@dataclass(frozen=True)
class DomainSpec:
    name: str
    scene: SceneSpec
    count: int
    style_seed: int = 0
    style_mean: StyleParams | None = None  # None renders the neutral base style
    style_jitter: StyleJitter | None = None


def make_domain(spec: DomainSpec, scenes: dict | None = None) -> list[Sample]:
    """The samples of ``spec``.  ``scenes``, shared by the domains of one world
    build, holds each render by ``(SceneSpec, index)``, so a scene is drawn once
    however many domains restyle it; a styled sample shares its render's mask."""
    if spec.count < 1:
        raise ValueError("domain count must be >= 1")
    samples = []
    for i in range(spec.count):
        if scenes is None:
            s = render_scene(spec.scene, i)
        elif (s := scenes.get((spec.scene, i))) is None:
            s = scenes[spec.scene, i] = render_scene(spec.scene, i)
        if spec.style_mean is not None:
            rng = np.random.default_rng((spec.style_seed, i))
            params = (
                jittered(spec.style_mean, spec.style_jitter, rng)
                if spec.style_jitter is not None
                else spec.style_mean
            )
            image = apply_style(s.image, params, seed=mix_seed(spec.style_seed, "noise", i))
            s = Sample(image=image, mask=s.mask)
        samples.append(s)
    return samples


def domain_digest(samples) -> str:
    """Content hash over all image and mask payloads."""
    h = hashlib.blake2b(digest_size=16)
    for s in samples:
        h.update(np.ascontiguousarray(s.image, dtype="<f4").tobytes())
        h.update(np.ascontiguousarray(s.mask, dtype=np.uint8).tobytes())
    return h.hexdigest()


def save_domain(path, samples):
    images = stack_images(samples)
    masks = np.stack([s.mask for s in samples], dtype=np.float32)
    save_checkpoint(path, KIND, {"images": images, "masks": masks})


@loader
def load_domain(path) -> list[Sample]:
    _, t = load_checkpoint(path, KIND)
    if set(t) != {"images", "masks"}:
        raise FormatError(f"{path}: a domain table holds images and masks, "
                          f"not {sorted(t)}")
    images, masks = t["images"], t["masks"]
    n, _, h, w = images.shape  # ValueError, hence FormatError, unless 4-D
    if not n:
        raise FormatError(f"{path}: the domain holds no images")
    if (images.shape[1], masks.shape) != (CHANNELS, (n, h, w)):
        raise FormatError(f"{path}: images and masks do not pair up")
    if not np.isfinite(images).all():
        raise FormatError(f"{path}: non-finite pixel values")
    # range and integrality before the cast, which warns on NaN or a negative value
    if not ((masks >= 0) & (masks < CLASS_COUNT) & (np.floor(masks) == masks)).all():
        raise FormatError(f"{path}: mask values must be integers in [0, {CLASS_COUNT})")
    return [Sample(image, mask) for image, mask in zip(images, masks.astype(np.uint8))]


def stack_images(samples, indices=None) -> np.ndarray:
    """Batch (B, 3, H, W) f32 view of selected samples."""
    sel = samples if indices is None else [samples[i] for i in indices]
    return np.stack([s.image for s in sel], dtype=np.float32)


def stack_masks(samples, indices=None) -> np.ndarray:
    sel = samples if indices is None else [samples[i] for i in indices]
    return np.stack([s.mask for s in sel], dtype=np.int64)
