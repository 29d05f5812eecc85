"""Bit-specified named-tensor checkpoint files.

Layout (all integers little-endian):

    8 bytes   magic "UDCPCKPT"
    u32       format version (currently 2)
    u64       tensor count
    per tensor, in ascending name order:
        u16   name length, then that many UTF-8 bytes
        u8    rank
        u64 * rank  extents
        f64 * prod(extents)  row-major payload
    u64       checksum of every preceding byte: the 8-byte blake2b digest

A save goes to a temporary file in the target's directory that is fsynced
and renamed over the target, so a crash mid-write leaves the previous
checkpoint intact.  The checksum catches damage, not forgery, so a record
that does not parse (a name or config snapshot that is not UTF-8, extents
past the payload) is an ``IntegrityError`` too.

The config snapshot rides along as the reserved tensor "__config__": its
UTF-8 JSON bytes stored one byte per f64 element, which keeps the container
format uniform.  Usage counters are stored as f64 (exact below 2**53).
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import secrets
import struct

import numpy as np

from .config import ModelConfig
from .pools import IntegrityError

__all__ = ["save_checkpoint", "load_checkpoint", "blake2b64",
           "MAGIC", "VERSION", "CONFIG_KEY"]

MAGIC = b"UDCPCKPT"
VERSION = 2
CONFIG_KEY = "__config__"

def blake2b64(data: bytes) -> int:
    """The 8-byte blake2b digest of ``data`` read as a little-endian u64."""
    digest = hashlib.blake2b(data, digest_size=8).digest()
    return int.from_bytes(digest, "little")


_HEADER = len(MAGIC) + 4 + 8  # magic, version, tensor count
_TRAILER = 8


def _config_tensor(config: ModelConfig) -> np.ndarray:
    raw = config.to_json().encode("utf-8")
    return np.frombuffer(raw, dtype=np.uint8).astype(np.float64)


def _config_from_tensor(arr: np.ndarray) -> ModelConfig:
    raw = arr.astype(np.uint8).tobytes()
    return ModelConfig.from_json(_utf8(raw, "config snapshot"))


def _utf8(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise IntegrityError(f"checkpoint {what} is not UTF-8") from None


def save_checkpoint(path, config: ModelConfig, tensors: dict[str, np.ndarray]):
    """Write tensors (plus the config snapshot) and the trailing checksum."""
    if CONFIG_KEY in tensors:
        raise ValueError(f"{CONFIG_KEY!r} is reserved")
    entries = dict(tensors)
    entries[CONFIG_KEY] = _config_tensor(config)

    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<I", VERSION))
    buf.write(struct.pack("<Q", len(entries)))
    for name in sorted(entries):
        arr = np.asarray(entries[name], dtype=np.float64)
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)  # 0-d input must stay rank 0
        raw_name = name.encode("utf-8")
        if len(raw_name) > 0xFFFF:
            raise ValueError(f"tensor name too long: {name!r}")
        if arr.ndim > 0xFF:
            raise ValueError(f"tensor rank too large: {arr.ndim}")
        buf.write(struct.pack("<H", len(raw_name)))
        buf.write(raw_name)
        buf.write(struct.pack("<B", arr.ndim))
        for extent in arr.shape:
            buf.write(struct.pack("<Q", extent))
        buf.write(arr.astype("<f8").tobytes())
    buf.write(struct.pack("<Q", blake2b64(buf.getvalue())))
    _write_atomic(path, buf.getvalue())


def _write_atomic(path, data):
    """Replace ``path`` with ``data`` so that a crash leaves old or new bytes.

    The bytes go to a temporary file in the same directory, which is flushed
    and fsynced, renamed over ``path``, and the directory is fsynced so the
    rename itself is durable.  On any failure the temporary file is removed
    and the exception propagates; ``path`` is then untouched.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    tmp = f"{path}.{secrets.token_hex(4)}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass  # never created, or already renamed over path
        raise


def load_checkpoint(path) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    """Read and verify a checkpoint; returns (config, tensors)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER + _TRAILER:
        raise IntegrityError("checkpoint truncated")
    if blob[:len(MAGIC)] != MAGIC:
        raise IntegrityError("bad checkpoint magic")
    version, count = struct.unpack_from("<IQ", blob, len(MAGIC))
    if version != VERSION:
        raise IntegrityError(f"unsupported checkpoint version {version}")
    view = memoryview(blob)[:-_TRAILER]
    (stored,) = struct.unpack_from("<Q", blob, len(view))
    if blake2b64(view) != stored:
        raise IntegrityError("checkpoint checksum mismatch")

    off = _HEADER

    def take(n):
        nonlocal off
        if off + n > len(view):
            raise IntegrityError("checkpoint truncated inside a record")
        chunk = view[off:off + n]
        off += n
        return chunk

    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = _utf8(bytes(take(name_len)), "tensor name")
        (rank,) = struct.unpack("<B", take(1))
        shape = tuple(struct.unpack("<Q", take(8))[0] for _ in range(rank))
        payload = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8")
        try:
            arr = payload.reshape(shape)
        except ValueError:  # an empty payload under an oversized extent
            raise IntegrityError(f"checkpoint extents {list(shape)} are "
                                 f"too large") from None
        tensors[name] = arr.astype(np.float64)  # own, writable copy
    if off != len(view):
        raise IntegrityError("trailing bytes after the last tensor")

    config_arr = tensors.pop(CONFIG_KEY, None)
    if config_arr is None:
        raise IntegrityError("checkpoint lacks the config snapshot")
    return _config_from_tensor(config_arr), tensors
