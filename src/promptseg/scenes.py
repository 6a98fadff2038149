"""Procedural segmentation scenes with exact ground truth.

Each scene is a flat-shaded composition on a small canvas: a road band with
lane stripes, buildings standing on the road's top edge, tree blobs and sign
discs in the sky region.  The mask is drawn first; the image recolors it with
a fixed palette plus a mild per-scene tint and pixel noise, so the mask can be
recovered from the image almost perfectly (which the tests exploit).
"""

from dataclasses import dataclass

import numpy as np

# One reference color per class; pairwise distances are large relative to the
# rendering noise so nearest-color classification recovers the mask.
PALETTE = np.array(
    [
        [0.60, 0.66, 0.70],  # background sky/ground
        [0.24, 0.24, 0.27],  # road asphalt
        [0.58, 0.36, 0.30],  # building brick
        [0.92, 0.78, 0.18],  # sign yellow
        [0.18, 0.52, 0.24],  # tree green
        [0.93, 0.93, 0.88],  # lane paint
    ],
    dtype=np.float32,
)
# the world's one label space: every mask labels pixels in [0, CLASS_COUNT)
CLASS_COUNT = len(PALETTE)
# and its one color space: every image, and every prompt, has CHANNELS planes
CHANNELS = PALETTE.shape[1]


@dataclass(frozen=True)
class SceneSpec:
    """Content seed plus canvas geometry."""

    seed: int
    height: int = 64
    width: int = 64


@dataclass
class Sample:
    image: np.ndarray  # (3, H, W) float32 in [0, 1]
    mask: np.ndarray  # (H, W) uint8


def _disc(mask, cy, cx, r, value):
    h, w = mask.shape
    y0, y1 = max(0, cy - r), min(h, cy + r + 1)
    x0, x1 = max(0, cx - r), min(w, cx + r + 1)
    yy, xx = np.ogrid[y0:y1, x0:x1]
    inside = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
    mask[y0:y1, x0:x1][inside] = value


def _blob(mask, cy, cx, rx, ry, value):
    h, w = mask.shape
    y0, y1 = max(0, cy - ry), min(h, cy + ry + 1)
    x0, x1 = max(0, cx - rx), min(w, cx + rx + 1)
    yy, xx = np.ogrid[y0:y1, x0:x1]
    inside = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
    mask[y0:y1, x0:x1][inside] = value


def render_scene(spec: SceneSpec, index: int) -> Sample:
    """Deterministic scene for (spec.seed, index)."""
    if index < 0:
        raise ValueError("scene index must be non-negative")
    rng = np.random.default_rng((spec.seed, index))
    h, w = spec.height, spec.width
    mask = np.zeros((h, w), dtype=np.uint8)

    # road band across the lower half of the canvas
    band = int(rng.integers(max(4, int(0.16 * h)), max(5, int(0.28 * h)) + 1))
    y_road = int(rng.integers(int(0.50 * h), int(0.72 * h) + 1))
    mask[y_road : min(h, y_road + band)] = 1

    # dashed lane stripe along the road center; dashes and gaps both kept
    # wide enough that the oracle's 1/8-resolution decoder can resolve them
    thick = max(4, band // 3)
    stripe = min(h - thick, y_road + (band - thick) // 2)
    cursor = int(rng.integers(0, 8))
    for _ in range(int(rng.integers(4, 8))):
        dash = int(rng.integers(16, 28))
        gap = int(rng.integers(12, 19))
        if cursor >= w:
            break
        mask[stripe : stripe + thick, cursor : min(w, cursor + dash)] = 5
        cursor += dash + gap

    # buildings stand on the road's top edge
    for _ in range(int(rng.integers(1, 4))):
        bw = int(rng.integers(max(6, w // 8), max(8, w // 4) + 1))
        bh = int(rng.integers(max(8, h // 6), max(10, int(0.4 * h)) + 1))
        bx = int(rng.integers(0, max(1, w - bw)))
        mask[max(0, y_road - bh) : y_road, bx : bx + bw] = 2

    # tree blobs in the sky region
    for _ in range(int(rng.integers(1, 5))):
        r = int(rng.integers(5, max(6, h // 7) + 1))
        cy = int(rng.integers(r, max(r + 1, y_road - 2)))
        cx = int(rng.integers(0, w))
        ry = max(4, int(r * rng.uniform(0.7, 1.3)))
        _blob(mask, cy, cx, r, ry, 4)

    # sign discs drawn last so they stay visible; kept near the road edge so
    # they rarely carve holes into buildings
    for _ in range(int(rng.integers(2, 6))):
        r = int(rng.integers(5, max(6, h // 9) + 1))
        lo = max(r + 1, y_road - 2 * r)
        hi = min(h - r - 1, y_road + band - r)
        cy = int(rng.integers(lo, max(lo + 1, hi)))
        cx = int(rng.integers(r + 1, w - r - 1))
        _disc(mask, cy, cx, r, 3)

    image = PALETTE[mask].transpose(2, 0, 1).astype(np.float32)
    tint = rng.normal(0.0, 0.015, (CHANNELS, 1, 1))
    noise = rng.normal(0.0, 0.015, image.shape)
    image = np.clip(image + tint + noise, 0.0, 1.0).astype(np.float32)
    return Sample(image=image, mask=mask)

