"""Loader fuzzing: a malformed file raises FormatError and nothing else.

Every loader reads a small valid file, then damaged copies of it:

- truncation at every record boundary and one byte past it;
- one flipped bit at each of about 1,000 evenly spaced bytes (the bit
  position cycles with the offset);
- structural edits written with a fresh, valid CRC: a record dropped, a
  record's last dimension grown by one, and a non-ASCII kind or record name;
- values the container holds but the artifact cannot, also with a fresh
  CRC: for domains a NaN pixel, a mask label out of range or not an integer,
  arrays whose sample counts differ, and a checkpoint of another kind; for
  fusion heads an encoder fingerprint byte that is NaN, negative, above 255
  or fractional.

The module loaders fill modules built as a config builds them, so a file
whose records are not exactly the module's table is refused.

The CRC catches every truncation and bit flip; the structural edits get past
it, so the loaders' own checks must catch them.
"""

import struct
import zlib

import numpy as np
import pytest

from promptseg.checkpoint import MAGIC, VERSION, load_checkpoint
from promptseg.datasets import DomainSpec, load_domain, make_domain, save_domain
from promptseg.errors import FormatError
from promptseg.fusion import FusionHeads, load_heads, save_heads
from promptseg.oracle import SegModel, load_oracle, save_oracle
from promptseg.prompts import StylePromptGenerator, load_generator, save_generator
from promptseg.scenes import CLASS_COUNT, SceneSpec
from promptseg.seeding import stream

def with_crc(body):
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def encode(kind, records):
    """Checkpoint bytes from a kind tag and (name, array) records, raw bytes
    allowed in both; returns (blob, offset where each record starts)."""
    parts, starts, off = [MAGIC, struct.pack("<I", VERSION), kind], [], 12
    for name, arr in records:
        a = np.ascontiguousarray(arr, dtype="<f4")
        name = name.encode() if isinstance(name, str) else name
        rec = (struct.pack("<I", len(name)) + name + struct.pack("<I", a.ndim)
               + struct.pack(f"<{a.ndim}I", *a.shape) + a.tobytes())
        parts.append(rec)
        starts.append(off)
        off += len(rec)
    return with_crc(b"".join(parts)), starts


def grown(arr):
    """``arr`` with its last dimension one longer."""
    return np.concatenate([arr, np.zeros(arr.shape[:-1] + (1,), arr.dtype)], axis=-1)


def oracle(seed=0):
    return SegModel(6, stream(seed, "fuzz"), widths=(4, 4, 4), kernel=3)


def generator(seed=0):
    return StylePromptGenerator("s", "a_border", size=16, pad=2, depth=2,
                                seed=seed)


def heads(seed=0):
    return FusionHeads(feature_dim=4, embed_dim=2, seed=seed)


def save_oracle_file(path):
    save_oracle(path, oracle())


def save_generator_file(path):
    save_generator(path, generator())


def save_heads_file(path):
    save_heads(path, heads(), 0x1234)


def save_domain_file(path):
    save_domain(path, make_domain(DomainSpec("d", SceneSpec(seed=1, height=16, width=16), 3)))


# each module loader fills a fresh module of the saved architecture
CHECKPOINT_LOADERS = {
    "load_oracle": (lambda path: load_oracle(path, oracle(1)), save_oracle_file),
    "load_generator": (lambda path: load_generator(path, generator(1)), save_generator_file),
    "load_heads": (lambda path: load_heads(path, heads(1)), save_heads_file),
    "load_domain": (load_domain, save_domain_file),
}
LOADERS = dict(CHECKPOINT_LOADERS, load_checkpoint=(load_checkpoint, save_generator_file))


def assert_rejected(load, path, cases):
    """Every (label, bytes) case raises FormatError when ``load`` reads it."""
    assert cases
    for label, blob in cases:
        path.write_bytes(blob)
        try:
            load(path)
        except FormatError:
            continue
        except Exception as e:  # anything else is the bug under test
            pytest.fail(f"{label}: {type(e).__name__}: {e}")
        pytest.fail(f"{label}: loaded without error")


def valid_file(tmp_path, name):
    """(loader, path, bytes of the valid file at path, (kind, records))."""
    load, save = LOADERS[name]
    path = tmp_path / "artifact"
    save(path)
    load(path)  # the undamaged file loads
    blob = path.read_bytes()
    kind, arrays = load_checkpoint(path)
    kind = kind.encode()
    assert encode(kind, arrays.items())[0] == blob  # the test encoder matches
    return load, path, blob, (kind, arrays)


def record_starts(blob, parsed):
    """Offsets where the file's header fields and records begin."""
    return [0, 4, 8] + encode(parsed[0], parsed[1].items())[1] + [len(blob) - 4]


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_truncation_at_every_record_boundary(tmp_path, name):
    load, path, blob, parsed = valid_file(tmp_path, name)
    cuts = sorted({c for s in record_starts(blob, parsed) for c in (s, s + 1)
                   if c < len(blob)})
    assert_rejected(load, path, [(f"cut at {c}", blob[:c]) for c in cuts])


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_single_bit_flips(tmp_path, name):
    load, path, blob, _ = valid_file(tmp_path, name)
    cases = []
    for i in range(0, len(blob), max(1, len(blob) // 1000)):
        flipped = bytearray(blob)
        flipped[i] ^= 1 << (i % 8)
        cases.append((f"bit {i % 8} of byte {i}", bytes(flipped)))
    assert_rejected(load, path, cases)


@pytest.mark.parametrize("name", sorted(CHECKPOINT_LOADERS))
def test_dropped_record(tmp_path, name):
    load, path, blob, (kind, arrays) = valid_file(tmp_path, name)
    cases = [(f"drop {n}", encode(kind, [(m, a) for m, a in arrays.items() if m != n])[0])
             for n in arrays]
    # the file cut at a record boundary, its CRC made valid again
    cases += [(f"records before byte {s}", with_crc(blob[:s]))
              for s in record_starts(blob, (kind, arrays))[3:-1]]
    assert_rejected(load, path, cases)


@pytest.mark.parametrize("name", sorted(CHECKPOINT_LOADERS))
def test_changed_dimension(tmp_path, name):
    load, path, _, (kind, arrays) = valid_file(tmp_path, name)
    cases = [(f"grow {n}", encode(kind, [(m, grown(a) if m == n else a)
                                         for m, a in arrays.items()])[0])
             for n in arrays]
    assert_rejected(load, path, cases)


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_non_ascii_tag(tmp_path, name):
    load, path, _, (kind, arrays) = valid_file(tmp_path, name)
    records = list(arrays.items())
    cases = [("non-ASCII kind", encode(b"S\xc3\xa9D", records)[0]),
             ("non-UTF-8 record name", encode(kind, records + [(b"\xff\xfe", np.zeros(1))])[0])]
    assert_rejected(load, path, cases)


def test_encoder_fingerprint_value_edits(tmp_path):
    load, path, _, (kind, arrays) = valid_file(tmp_path, "load_heads")

    def edited(value):
        fp = arrays["meta.encoder_fp"].copy()
        fp[3] = value
        return encode(kind, {**arrays, "meta.encoder_fp": fp}.items())[0]

    cases = [(f"a fingerprint byte of {v}", edited(v)) for v in (np.nan, -1.0, 256.0, 0.5)]
    assert_rejected(load, path, cases)


def test_domain_value_edits(tmp_path):
    load, path, _, (kind, arrays) = valid_file(tmp_path, "load_domain")
    images, masks = arrays["images"], arrays["masks"]

    def edited(name, at, value):
        arr = arrays[name].copy()
        arr[at] = value
        return encode(kind, {**arrays, name: arr}.items())[0]

    save_oracle_file(tmp_path / "oracle.ckpt")
    cases = [
        ("a NaN pixel", edited("images", (1, 2, 3, 4), np.nan)),
        ("a mask label equal to CLASS_COUNT", edited("masks", (1, 2, 3), CLASS_COUNT)),
        ("a negative mask label", edited("masks", (1, 2, 3), -1.0)),
        ("a NaN mask label", edited("masks", (1, 2, 3), np.nan)),
        ("a fractional mask label", edited("masks", (1, 2, 3), 0.5)),
        ("one mask fewer than images",
         encode(kind, {**arrays, "masks": masks[:-1]}.items())[0]),
        ("images without their channel axis",
         encode(kind, {**arrays, "images": images[:, 0]}.items())[0]),
        ("an ORCL checkpoint", (tmp_path / "oracle.ckpt").read_bytes()),
    ]
    assert_rejected(load, path, cases)
