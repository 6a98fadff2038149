"""The one binary container: a named f32 tensor table with a CRC trailer.

Layout (little-endian): magic "SAGE", version u32, kind tag (4 ascii bytes),
then repeated records of name length u32, name bytes, rank u32, dims u32 each,
f32 payload, and finally CRC32 over everything before it.  Records are read
until exactly the CRC remains, so the count is implicit.

A module's file holds its ``tensors()`` table and nothing that describes it:
the config is the one description of a model, so a stage builds the module
from it and ``load_module`` fills it, refusing records that are not its own.
"""

import functools
import math
import os
import struct
import zlib
from contextlib import contextmanager

import numpy as np

from .autograd.layers import load_tensor_arrays
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
    """Read (kind, name->f32 array).  Validates magic, CRC, and optional kind.
    Each payload goes straight into its own array under a running CRC, so a
    load holds the file once, and returns nothing before the CRC holds."""
    with open(path, "rb") as f:
        end = os.fstat(f.fileno()).st_size - 4  # where the CRC starts
        head = f.read(12)
        if end < 12:
            raise FormatError(f"{path}: too short to be a checkpoint")
        if head[:4] != MAGIC:
            raise FormatError(f"{path}: bad magic {head[:4]!r}")
        crc, off, tensors = zlib.crc32(head), 12, {}

        def read(n, what):
            nonlocal crc, off
            if off + n > end:
                raise FormatError(f"{path}: truncated {what}")
            b = f.read(n)
            crc, off = zlib.crc32(b, crc), off + n
            return b

        while off < end:
            (name_len,) = struct.unpack("<I", read(4, "record header"))
            name = read(name_len, "tensor name").decode("utf-8")
            (rank,) = struct.unpack("<I", read(4, "tensor rank"))
            if rank > 8:
                raise FormatError(f"{path}: bad tensor rank for {name!r}")
            dims = struct.unpack(f"<{rank}I", read(4 * rank, "tensor dims"))
            if off + 4 * math.prod(dims) > end:
                raise FormatError(f"{path}: truncated payload for {name!r}")
            arr = np.empty(dims, "<f4")
            payload = arr.reshape(-1).view(np.uint8)
            if f.readinto(payload) != payload.size:
                raise FormatError(f"{path}: file changed while loading")
            crc, off = zlib.crc32(payload, crc), off + payload.size
            if name in tensors:
                raise FormatError(f"{path}: duplicate tensor name {name!r}")
            tensors[name] = arr
        (stored_crc,) = struct.unpack("<I", f.read(4))
    if crc != stored_crc:
        raise FormatError(f"{path}: CRC mismatch")
    (version,) = struct.unpack_from("<I", head, 4)
    if version != VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    kind = head[8:12].decode("ascii")
    if expect_kind is not None and kind != expect_kind:
        raise KindMismatchError(f"{path}: kind {kind!r}, expected {expect_kind!r}")
    return kind, tensors


@loader
def load_module(path, kind: str, module, extra=()) -> dict:
    """Fill ``module`` from a ``kind`` checkpoint whose records are exactly its
    ``tensors()`` and the names in ``extra``, every shape checked; returns them all."""
    _, arrays = load_checkpoint(path, kind)
    table = module.tensors()
    names, want = set(arrays), set(table) | set(extra)
    if names != want:
        raise FormatError(f"{path}: not the configured {kind} module: extra records "
                          f"{sorted(names - want)}, missing {sorted(want - names)}")
    load_tensor_arrays(table, arrays)
    return arrays


def pack_u64(value: int) -> np.ndarray:
    """A u64 (e.g. a fingerprint) as 8 byte-valued floats, exact in f32."""
    return np.frombuffer(int(value).to_bytes(8, "little"), dtype=np.uint8).astype(np.float32)


def unpack_u64(arr: np.ndarray) -> int:
    """The u64 of ``pack_u64``; anything but 8 integers in [0, 255] is a ValueError."""
    a = np.asarray(arr)
    if a.shape != (8,) or not np.isin(a, np.arange(256)).all():
        raise ValueError("expected 8 byte values")
    return int.from_bytes(a.astype(np.uint8).tobytes(), "little")
