"""Domain assembly and the on-disk dataset format.

A domain is a list of rendered samples, optionally pushed through a jittered
style.  Content is a pure function of the DomainSpec, so two builds of the
same spec hash identically.

File layout (little-endian): magic "SGWD", version u32, count u32, then per
sample H, W, K as u32 followed by the f32 image payload (3*H*W) and the u8
mask payload (H*W).
"""

import hashlib
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .checkpoint import atomic_open, loader
from .errors import FormatError
from .scenes import Sample, SceneSpec, render_scene
from .seeding import mix_seed
from .styles import StyleJitter, StyleParams, apply_style, jittered

MAGIC = b"SGWD"
VERSION = 1


@dataclass(frozen=True)
class DomainSpec:
    name: str
    scene: SceneSpec
    count: int
    style_seed: int = 0
    style_mean: StyleParams | None = None  # None renders the neutral base style
    style_jitter: StyleJitter | None = None


def make_domain(spec: DomainSpec) -> list[Sample]:
    if spec.count < 1:
        raise ValueError("domain count must be >= 1")
    samples = []
    for i in range(spec.count):
        s = render_scene(spec.scene, i)
        if spec.style_mean is not None:
            rng = np.random.default_rng((spec.style_seed, i))
            params = (
                jittered(spec.style_mean, spec.style_jitter, rng)
                if spec.style_jitter is not None
                else spec.style_mean
            )
            image = apply_style(s.image, params, seed=mix_seed(spec.style_seed, "noise", i))
            s = Sample(image=image, mask=s.mask, class_count=s.class_count)
        samples.append(s)
    return samples


def domain_digest(samples) -> str:
    """Content hash over all image and mask payloads."""
    h = hashlib.blake2b(digest_size=16)
    for s in samples:
        h.update(np.ascontiguousarray(s.image, dtype="<f4").tobytes())
        h.update(np.ascontiguousarray(s.mask, dtype=np.uint8).tobytes())
        h.update(struct.pack("<I", s.class_count))
    return h.hexdigest()


def save_domain(path, samples):
    parts = [MAGIC, struct.pack("<II", VERSION, len(samples))]
    for s in samples:
        _, h, w = s.image.shape
        if s.mask.shape != (h, w):
            raise ValueError("mask shape does not match image")
        parts.append(struct.pack("<III", h, w, s.class_count))
        parts.append(np.ascontiguousarray(s.image, dtype="<f4").tobytes())
        parts.append(np.ascontiguousarray(s.mask, dtype=np.uint8).tobytes())
    blob = b"".join(parts)
    with atomic_open(path, "wb") as f:
        f.write(blob)
        f.write(struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF))


@loader
def load_domain(path) -> list[Sample]:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 16 or blob[:4] != MAGIC:
        raise FormatError(f"{path}: not a dataset file")
    (stored_crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    if zlib.crc32(blob[:-4]) & 0xFFFFFFFF != stored_crc:
        raise FormatError(f"{path}: CRC mismatch")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != VERSION:
        raise FormatError(f"{path}: unsupported dataset version {version}")
    samples = []
    off = 12
    end = len(blob) - 4
    for _ in range(count):
        if off + 12 > end:
            raise FormatError(f"{path}: truncated sample header")
        h, w, k = struct.unpack_from("<III", blob, off)
        off += 12
        img_bytes = 3 * h * w * 4
        if off + img_bytes + h * w > end:
            raise FormatError(f"{path}: truncated sample payload")
        image = np.frombuffer(blob, dtype="<f4", count=3 * h * w, offset=off)
        image = image.reshape(3, h, w).copy()
        off += img_bytes
        if not np.isfinite(image).all():
            raise FormatError(f"{path}: non-finite pixel values")
        mask = np.frombuffer(blob, dtype=np.uint8, count=h * w, offset=off)
        mask = mask.reshape(h, w).copy()
        off += h * w
        if mask.size and mask.max() >= k:
            raise FormatError(f"{path}: mask value exceeds class count {k}")
        samples.append(Sample(image=image, mask=mask, class_count=int(k)))
    if off != end:
        raise FormatError(f"{path}: trailing bytes after last sample")
    return samples


def stack_images(samples, indices=None) -> np.ndarray:
    """Batch (B, 3, H, W) f32 view of selected samples."""
    sel = samples if indices is None else [samples[i] for i in indices]
    return np.stack([s.image for s in sel]).astype(np.float32)


def stack_masks(samples, indices=None) -> np.ndarray:
    sel = samples if indices is None else [samples[i] for i in indices]
    return np.stack([s.mask for s in sel]).astype(np.int64)
