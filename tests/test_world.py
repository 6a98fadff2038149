import math
import re
from dataclasses import fields

import numpy as np
import pytest
from conftest import save_counted_domain, save_empty_domain, sgwd_v1

from promptseg.datasets import (
    DomainSpec,
    domain_digest,
    load_domain,
    make_domain,
    save_domain,
)
from promptseg.errors import FormatError
from promptseg.scenes import CLASS_COUNT, PALETTE, SceneSpec, render_scene
from promptseg.styles import (
    StyleJitter,
    StyleParams,
    TARGET_STYLES,
    apply_style,
    hue_rotation_matrix,
    jittered,
    style_presets,
)


def recover_mask(image):
    """Nearest-palette-color classification of a base-style image."""
    flat = image.reshape(3, -1).T
    d = ((flat[:, None, :] - PALETTE[None, :, :]) ** 2).sum(axis=2)
    return d.argmin(axis=1).astype(np.uint8).reshape(image.shape[1:])


def params_vector(params):
    """Style fields as a flat vector, hue scaled to about unit range (for distances)."""
    v = np.array([getattr(params, f.name) for f in fields(params)], dtype=np.float64)
    v[0] /= 90.0
    return v


class TestRenderScene:
    def test_bit_identical_for_same_seed_index(self):
        spec = SceneSpec(seed=77)
        a = render_scene(spec, 3)
        b = render_scene(spec, 3)
        assert a.image.tobytes() == b.image.tobytes()
        assert a.mask.tobytes() == b.mask.tobytes()

    def test_different_indices_differ(self):
        spec = SceneSpec(seed=77)
        assert render_scene(spec, 0).mask.tobytes() != render_scene(spec, 1).mask.tobytes()

    def test_mask_has_background_and_content(self):
        s = render_scene(SceneSpec(seed=5), 0)
        present = set(np.unique(s.mask).tolist())
        assert 0 in present
        assert len(present) >= 2
        assert s.mask.max() < CLASS_COUNT

    def test_palette_recovery_iou(self):
        # the image is flat palette colors + noise, so nearest-color
        # classification should agree with the mask almost everywhere
        for index in range(5):
            s = render_scene(SceneSpec(seed=11), index)
            rec = recover_mask(s.image)
            ious = []
            for c in np.unique(s.mask):
                inter = np.logical_and(rec == c, s.mask == c).sum()
                union = np.logical_or(rec == c, s.mask == c).sum()
                ious.append(inter / union)
            assert min(ious) >= 0.99

    def test_class_balance_over_200_scenes(self):
        spec = SceneSpec(seed=123)
        counts = np.zeros(6, np.int64)
        for i in range(200):
            m = render_scene(spec, i).mask
            counts += np.bincount(m.reshape(-1), minlength=6)
        shares = counts / counts.sum()
        assert (shares >= 0.01).all(), f"class shares too small: {shares}"

    def test_image_range(self):
        s = render_scene(SceneSpec(seed=2), 0)
        assert s.image.dtype == np.float32
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0


class TestApplyStyle:
    def test_identity_is_bitwise_noop(self):
        img = render_scene(SceneSpec(seed=1), 0).image
        out = apply_style(img, StyleParams(), seed=9)
        assert out.tobytes() == img.tobytes()

    def test_full_haze_is_uniform_gray(self):
        img = render_scene(SceneSpec(seed=1), 0).image
        out = apply_style(img, StyleParams(haze=1.0), seed=0)
        np.testing.assert_allclose(out, 0.5, atol=1e-6)

    def test_mean_tracks_contrast_and_brightness(self):
        rng = np.random.default_rng(3)
        img = rng.uniform(0.2, 0.8, (3, 32, 32)).astype(np.float32)
        params = StyleParams(contrast=1.1, brightness=0.02)
        out = apply_style(img, params, seed=0)
        expected = img.mean() * 1.1 + 0.02
        assert abs(out.mean() - expected) < 1e-3

    def test_deterministic_in_seed(self):
        img = render_scene(SceneSpec(seed=1), 0).image
        p = StyleParams(noise_sigma=0.05)
        a = apply_style(img, p, seed=42)
        b = apply_style(img, p, seed=42)
        c = apply_style(img, p, seed=43)
        assert a.tobytes() == b.tobytes()
        assert a.tobytes() != c.tobytes()

    def test_output_clamped(self):
        img = render_scene(SceneSpec(seed=1), 0).image
        out = apply_style(img, StyleParams(brightness=0.5, contrast=1.5), seed=0)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_hue_matrix_is_rotation_fixing_gray(self):
        q = hue_rotation_matrix(50.0)
        np.testing.assert_allclose(q @ q.T, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(q @ np.ones(3), np.ones(3), atol=1e-12)


class TestPresets:
    def test_four_named_presets(self):
        presets = style_presets()
        assert len(presets) == 4
        assert list(presets) == ["cool_dim", "high_contrast", "green_bright", "warm_hazy"]

    def test_pairwise_distinct_in_two_fields(self):
        presets = list(style_presets().values())
        for i in range(len(presets)):
            for j in range(i + 1, len(presets)):
                a, b = params_vector(presets[i]), params_vector(presets[j])
                assert (a != b).sum() >= 2

    def test_pairwise_distance_above_threshold(self):
        vecs = [params_vector(p) for p in style_presets().values()]
        for i in range(len(vecs)):
            for j in range(i + 1, len(vecs)):
                assert np.linalg.norm(vecs[i] - vecs[j]) > 0.2

    def test_targets_differ_from_every_preset(self):
        for t in TARGET_STYLES.values():
            for p in style_presets().values():
                assert np.linalg.norm(params_vector(t) - params_vector(p)) > 0.1


class TestMakeDomain:
    base = DomainSpec(name="base", scene=SceneSpec(seed=10, height=32, width=32), count=12)
    styled = DomainSpec(
        name="styled",
        scene=SceneSpec(seed=10, height=32, width=32),
        count=12,
        style_seed=4,
        style_mean=TARGET_STYLES["dusk"],
        style_jitter=StyleJitter(hue_shift=4.0, brightness=0.03, contrast=0.08),
    )

    def test_same_spec_same_digest(self):
        assert domain_digest(make_domain(self.base)) == domain_digest(make_domain(self.base))

    def test_masks_survive_styling(self):
        for a, b in zip(make_domain(self.base), make_domain(self.styled)):
            assert a.mask.tobytes() == b.mask.tobytes()
            assert a.image.tobytes() != b.image.tobytes()

    def test_domain_separation_exceeds_jitter(self):
        a = make_domain(self.base)
        b = make_domain(self.styled)
        mean_a = np.stack([s.image.mean(axis=(1, 2)) for s in a])
        mean_b = np.stack([s.image.mean(axis=(1, 2)) for s in b])
        separation = np.linalg.norm(mean_a.mean(0) - mean_b.mean(0))
        scatter = max(
            np.linalg.norm(mean_a - mean_a.mean(0), axis=1).mean(),
            np.linalg.norm(mean_b - mean_b.mean(0), axis=1).mean(),
        )
        assert separation > scatter

    def test_jitter_varies_between_samples_only(self):
        rng_a = np.random.default_rng((9, 0))
        rng_b = np.random.default_rng((9, 0))
        j = StyleJitter(hue_shift=5.0, haze=0.1)
        assert jittered(TARGET_STYLES["dusk"], j, rng_a) == jittered(TARGET_STYLES["dusk"], j, rng_b)


class TestDatasetIo:
    def test_round_trip_bit_identical(self, tmp_path):
        samples = make_domain(TestMakeDomain.styled)
        path = tmp_path / "d.dom"
        save_domain(path, samples)
        back = load_domain(path)
        assert len(back) == len(samples)
        for a, b in zip(samples, back):
            assert a.image.tobytes() == b.image.tobytes()
            assert a.mask.tobytes() == b.mask.tobytes()

    def test_truncated_file_raises_format_error(self, tmp_path):
        samples = make_domain(TestMakeDomain.base)
        path = tmp_path / "d.dom"
        save_domain(path, samples)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError):
            load_domain(path)

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "junk.dom"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_domain(path)

    def test_file_size_matches_arithmetic(self, tmp_path):
        spec = DomainSpec(name="x", scene=SceneSpec(seed=3, height=16, width=16), count=100)
        samples = make_domain(spec)
        path = tmp_path / "d.dom"
        save_domain(path, samples)
        n, h, w = 100, 16, 16
        records = {"images": (n, 3, h, w), "masks": (n, h, w)}
        # magic, version, kind; per record its name length, name, rank, dims
        # and f32 payload; the CRC trailer
        raw = 12 + sum(4 + len(name) + 4 + 4 * len(dims) + 4 * math.prod(dims)
                       for name, dims in records.items()) + 4
        assert path.stat().st_size == raw  # the format has no padding at all

    def test_old_sgwd_file_names_the_path(self, tmp_path):
        # domains saved before the checkpoint table fail to load, naming the file
        path = tmp_path / "old.dom"
        path.write_bytes(sgwd_v1(make_domain(TestMakeDomain.base)))
        with pytest.raises(FormatError, match=re.escape(str(path))):
            load_domain(path)

    def test_domain_with_class_counts_names_the_path(self, tmp_path):
        # a table that still holds one class count per sample is refused, not
        # read without its counts
        path = tmp_path / "counted.dom"
        save_counted_domain(path, make_domain(TestMakeDomain.base))
        with pytest.raises(FormatError, match=re.escape(str(path))):
            load_domain(path)

    def test_domain_of_no_images_names_the_path(self, tmp_path):
        # loaded, it would be an empty domain that fails later without a name
        path = tmp_path / "empty.dom"
        save_empty_domain(path)
        with pytest.raises(FormatError, match=re.escape(f"{path}: the domain holds no images")):
            load_domain(path)

    def test_payload_bit_flip_rejected(self, tmp_path):
        # structural checks alone would not catch a flipped image byte;
        # the CRC trailer must
        samples = make_domain(TestMakeDomain.base)
        path = tmp_path / "d.dom"
        save_domain(path, samples)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="CRC"):
            load_domain(path)
