"""Self-describing flat binary for parameter sets.

Layout (all integers little-endian):
    magic  b"MSMP"
    u32    version (1)
    u32    parameter count
    per parameter, in sorted-name order:
        u16  name length, then that many UTF-8 bytes
        u32  ndim, then ndim x u32 extents
    then, in the same order, each parameter's float64 values (little-endian,
    row-major).

The name table makes files interoperable across implementations.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .params import ParamStore

MAGIC = b"MSMP"
VERSION = 1


class ParamFormatError(Exception):
    pass


def write_params(store: ParamStore, path: Path) -> None:
    items = store.items()
    chunks = [MAGIC, struct.pack("<II", VERSION, len(items))]
    for name, tensor in items:
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        dims = tensor.data.shape
        chunks.append(struct.pack("<I", len(dims)))
        chunks.append(struct.pack(f"<{len(dims)}I", *dims))
    for _, tensor in items:
        chunks.append(np.ascontiguousarray(tensor.data, dtype="<f8").tobytes())
    Path(path).write_bytes(b"".join(chunks))


def read_params(path: Path) -> dict[str, np.ndarray]:
    buf = Path(path).read_bytes()
    if buf[:4] != MAGIC:
        raise ParamFormatError(f"bad magic {buf[:4]!r}")
    try:
        version, count = struct.unpack_from("<II", buf, 4)
        if version != VERSION:
            raise ParamFormatError(f"unsupported version {version}")
        pos = 12
        table: list[tuple[str, tuple[int, ...]]] = []
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", buf, pos)
            pos += 2
            name = buf[pos:pos + name_len].decode("utf-8")
            pos += name_len
            (ndim,) = struct.unpack_from("<I", buf, pos)
            pos += 4
            dims = struct.unpack_from(f"<{ndim}I", buf, pos)
            pos += 4 * ndim
            table.append((name, dims))
        out = {}
        for name, dims in table:
            n = int(np.prod(dims)) if dims else 1
            arr = np.frombuffer(buf, dtype="<f8", count=n, offset=pos).reshape(dims)
            pos += 8 * n
            out[name] = arr.astype(np.float64)
    except (struct.error, ValueError) as e:  # a cut header or body
        raise ParamFormatError(f"truncated or malformed params file: {e}") from None
    if pos != len(buf):
        raise ParamFormatError(f"{len(buf) - pos} trailing bytes")
    return out


def load_params(store: ParamStore, path: Path) -> None:
    store.load_values(read_params(path))
