"""Binary checkpoint format: magic "DPLC", version 1, named float32 tensors.

Layout: magic (4 bytes) | version u32 | tensor count u32, then per tensor
name length u16 + UTF-8 name | rank u8 | dims u32 each | payload as
little-endian float32. Names are written in lexicographic order so the
byte output is a pure function of the bundle. A checkpoint is written with
``atomic_write``, as is every CLI output but the images.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MAGIC = b"DPLC"
VERSION = 1


class CheckpointError(Exception):
    pass


def _as_array(value) -> np.ndarray:
    return np.ascontiguousarray(value, dtype="<f4")


@contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open a temporary file beside ``path`` for writing and rename it over
    ``path`` when the block ends without an exception. An interrupted write
    leaves the previous file (or none), never a truncated one, and no
    temporary file. There is no fsync: this covers an interrupted process,
    not a power loss."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as f:
            yield f
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_checkpoint(bundle: dict, path) -> None:
    names = sorted(bundle)
    for name in names:
        if not name:
            raise CheckpointError("empty tensor name")
    with atomic_write(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, len(names)))
        for name in names:
            arr = _as_array(bundle[name])
            nb = name.encode("utf-8")
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", arr.ndim))
            for d in arr.shape:
                f.write(struct.pack("<I", d))
            f.write(arr.tobytes())


def load_checkpoint(path, written_by: str = "") -> dict[str, np.ndarray]:
    """Read a bundle; every error names ``path``, and ``written_by`` names the
    command that writes it."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        by = f"; `{written_by}` writes it" if written_by else ""
        raise CheckpointError(f"cannot read checkpoint {path}: {e.strerror}{by}") from None
    try:
        return _parse(raw)
    except CheckpointError as e:
        raise CheckpointError(f"{path}: {e}") from None


def _parse(raw: bytes) -> dict[str, np.ndarray]:
    off = 0

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(raw):
            raise CheckpointError(f"truncated checkpoint: wanted {n} bytes at offset {off}")
        chunk = raw[off : off + n]
        off += n
        return chunk

    if take(4) != MAGIC:
        raise CheckpointError("bad magic: not a DPLC checkpoint")
    version, count = struct.unpack("<II", take(8))
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    bundle: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<H", take(2))
        try:
            name = take(nlen).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"tensor name at offset {off - nlen} is not UTF-8") from None
        if name in bundle:
            raise CheckpointError(f"duplicate tensor name {name!r}")
        (rank,) = struct.unpack("<B", take(1))
        dims = [struct.unpack("<I", take(4))[0] for _ in range(rank)]
        payload = take(4 * math.prod(dims))
        bundle[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
        if not np.isfinite(bundle[name]).all():
            raise CheckpointError(f"tensor {name!r} holds a NaN or infinite value")
    if off != len(raw):
        raise CheckpointError(f"{len(raw) - off} trailing bytes after checkpoint payload")
    return bundle
