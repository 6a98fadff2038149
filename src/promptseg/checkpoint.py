"""The one binary container: a named f32 tensor table with a CRC trailer.

Layout (little-endian): magic "SAGE", version u32, kind tag (4 ascii bytes),
then repeated records of name length u32, name bytes, rank u32, dims u32 each,
f32 payload, and finally CRC32 over everything before it.  Records are read
until exactly the CRC remains, so the count is implicit.
"""

import functools
import math
import os
import struct
import zlib
from contextlib import contextmanager

import numpy as np

from .errors import FormatError, KindMismatchError

MAGIC = b"SAGE"
VERSION = 1


@contextmanager
def atomic_open(path, mode="w"):
    """Write through a temp file beside ``path`` that replaces it on success.

    The parent directory is created if missing.  A write that raises, or a
    process killed mid-write, leaves any earlier file at ``path`` as it was;
    on an exception the temp file is removed.
    """
    if os.path.dirname(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def loader(fn):
    """Decorator for ``fn(path, ...)``: a file it cannot decode raises FormatError,
    also when its CRC holds but a record is missing or has the wrong shape."""

    @functools.wraps(fn)
    def load(path, *args, **kwargs):
        try:
            return fn(path, *args, **kwargs)
        except FormatError:
            raise
        except (KeyError, ValueError) as e:
            raise FormatError(f"{path}: {type(e).__name__}: {e}") from e

    return load


def save_checkpoint(path, kind: str, tensors: dict) -> None:
    """Write named arrays (cast to f32) in dict order; order defines the bytes."""
    kind_b = kind.encode("ascii")
    if len(kind_b) != 4:
        raise ValueError(f"kind must be exactly 4 ascii bytes, got {kind!r}")
    seen = set()
    parts = [MAGIC + struct.pack("<I", VERSION) + kind_b]
    for name, arr in tensors.items():
        if name in seen:
            raise ValueError(f"duplicate tensor name {name!r}")
        seen.add(name)
        name_b = name.encode("utf-8")
        a = np.ascontiguousarray(arr, dtype="<f4")
        header = struct.pack(f"<I{len(name_b)}sI{a.ndim}I", len(name_b), name_b, a.ndim, *a.shape)
        parts += [header, a]
    with atomic_open(path, "wb") as f:
        crc = 0
        for part in parts:
            f.write(part)
            crc = zlib.crc32(part, crc)
        f.write(struct.pack("<I", crc))


@loader
def load_checkpoint(path, expect_kind: str | None = None) -> tuple[str, dict]:
    """Read (kind, name->f32 array).  Validates magic, CRC, and optional kind."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 16:
        raise FormatError(f"{path}: too short to be a checkpoint")
    if blob[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}")
    (stored_crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    if zlib.crc32(blob[:-4]) & 0xFFFFFFFF != stored_crc:
        raise FormatError(f"{path}: CRC mismatch")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    kind = blob[8:12].decode("ascii")
    if expect_kind is not None and kind != expect_kind:
        raise KindMismatchError(f"{path}: kind {kind!r}, expected {expect_kind!r}")

    tensors = {}
    off = 12
    end = len(blob) - 4
    while off < end:
        if off + 4 > end:
            raise FormatError(f"{path}: truncated record header")
        (name_len,) = struct.unpack_from("<I", blob, off)
        off += 4
        if off + name_len + 4 > end:
            raise FormatError(f"{path}: truncated tensor name")
        name = blob[off : off + name_len].decode("utf-8")
        off += name_len
        (rank,) = struct.unpack_from("<I", blob, off)
        off += 4
        if rank > 8 or off + 4 * rank > end:
            raise FormatError(f"{path}: bad tensor rank for {name!r}")
        dims = struct.unpack_from(f"<{rank}I", blob, off) if rank else ()
        off += 4 * rank
        count = math.prod(dims)
        if off + 4 * count > end:
            raise FormatError(f"{path}: truncated payload for {name!r}")
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=off).reshape(dims).copy()
        off += 4 * count
        if name in tensors:
            raise FormatError(f"{path}: duplicate tensor name {name!r}")
        tensors[name] = arr
    if off != end:
        raise FormatError(f"{path}: trailing bytes inside tensor table")
    return kind, tensors


def pack_u64(value: int) -> np.ndarray:
    """A u64 (e.g. a fingerprint) as 8 byte-valued floats, exact in f32."""
    return np.frombuffer(int(value).to_bytes(8, "little"), dtype=np.uint8).astype(np.float32)


def unpack_u64(arr: np.ndarray) -> int:
    b = bytes(np.asarray(arr).astype(np.uint8).tolist())
    if len(b) != 8:
        raise ValueError("expected 8 byte values")
    return int.from_bytes(b, "little")


def pack_tag(text: str) -> np.ndarray:
    """A short ascii tag as byte-valued floats, so labels ride along with tensors."""
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8).astype(np.float32)


def unpack_tag(arr: np.ndarray) -> str:
    return bytes(np.asarray(arr).astype(np.uint8).tolist()).decode("ascii")
