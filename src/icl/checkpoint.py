"""Binary checkpoint files: named float64 parameter arrays.

Layout (little-endian throughout):
    magic  b"ICLC"
    u16    format version (1)
    u32    parameter count
    per parameter, sorted by name:
        u16     name length in bytes
        bytes   utf-8 name
        u8      ndim
        u32[]   dims
        f64[]   row-major values
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import IclError

MAGIC = b"ICLC"
VERSION = 1


class CheckpointError(IclError):
    pass


def save_checkpoint(path, params: dict[str, np.ndarray]) -> None:
    path = Path(path)
    chunks = [MAGIC, struct.pack("<HI", VERSION, len(params))]
    for name in sorted(params):
        arr = np.asarray(params[name], dtype=np.float64)  # tobytes() is C-order
        nb = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.astype("<f8").tobytes())
    path.write_bytes(b"".join(chunks))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    path = Path(path)
    buf = path.read_bytes()
    if buf[:4] != MAGIC:
        raise CheckpointError(f"bad magic in {path}: {buf[:4]!r}")
    params: dict[str, np.ndarray] = {}
    try:
        version, count = struct.unpack_from("<HI", buf, 4)
        if version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        pos = 10
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", buf, pos)
            pos += 2
            name = buf[pos: pos + nlen].decode("utf-8")
            pos += nlen
            (ndim,) = struct.unpack_from("<B", buf, pos)
            pos += 1
            shape = struct.unpack_from(f"<{ndim}I", buf, pos)
            pos += 4 * ndim
            n = int(np.prod(shape, dtype=np.int64)) if ndim else 1
            arr = np.frombuffer(buf, dtype="<f8", count=n, offset=pos).reshape(shape)
            pos += 8 * n
            params[name] = arr.astype(np.float64)
    except (struct.error, ValueError) as exc:
        raise CheckpointError(f"truncated or corrupt checkpoint {path}: {exc}") from exc
    if pos != len(buf):
        raise CheckpointError(f"checkpoint {path} has {len(buf) - pos} bytes after its last "
                              "parameter")
    return params
