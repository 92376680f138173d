"""Binary PPM (P6, maxval 255) reader/writer.

Chosen as the raster interchange format because it is codec-free and
byte-exact: write(read(x)) == x for any 8-bit raster. One header parser
serves the whole-raster reader (`read_ppm`), the band reader
(`read_ppm_bands`) and the size check (`ppm_size`), so a malformed file
gives each of them the same `PpmError`.
"""

from __future__ import annotations

import mmap
import os
from contextlib import contextmanager, nullcontext
from typing import BinaryIO, Iterator

import numpy as np


class PpmError(Exception):
    def __init__(self, path, message: str, offset: int):
        super().__init__(f"{path}: {message} (byte offset {offset})")
        self.offset = offset


_SPACE = b" \t\n\v\f\r"  # bytes.isspace()


def _next_token(path, buf, pos: int) -> tuple[bytes, int]:
    n = len(buf)
    while pos < n:
        if buf[pos] == ord("#"):
            while pos < n and buf[pos] not in b"\n\r":
                pos += 1
        elif buf[pos] in _SPACE:
            pos += 1
        else:
            break
    if pos >= n:
        raise PpmError(path, "unexpected end of header", pos)
    start = pos
    while pos < n and buf[pos] not in _SPACE:
        pos += 1
    return bytes(buf[start:pos]), pos


def _header(path, buf) -> tuple[int, int, int]:
    """(width, height, offset of the first pixel) of the P6 file whose bytes
    are `buf`, after checking that the raster fills the rest of the file."""
    if bytes(buf[:2]) != b"P6":
        raise PpmError(path, f"not a P6 file (magic {bytes(buf[:2])!r})", 0)
    pos = 2
    fields = []
    for _ in range(3):
        tok, pos = _next_token(path, buf, pos)
        if not tok.isdigit():
            raise PpmError(path, f"expected integer, got {tok!r}", pos - len(tok))
        fields.append(int(tok))
    width, height, maxval = fields
    if maxval != 255:
        raise PpmError(path, f"unsupported maxval {maxval}", pos - len(str(maxval)))
    if pos >= len(buf) or buf[pos] not in _SPACE:
        raise PpmError(path, "missing whitespace after maxval", pos)
    pos += 1
    need = width * height * 3
    have = len(buf) - pos
    if have < need:
        raise PpmError(path, f"truncated raster: need {need} bytes, have {have}", len(buf))
    if have > need:
        raise PpmError(path, f"{have - need} trailing bytes after the raster", pos + need)
    return width, height, pos


@contextmanager
def _raster(path) -> Iterator[tuple[BinaryIO, int, int]]:
    """The open P6 file at its first pixel, with its width and height. The
    header is parsed on a read-only map of the file, so no pixel is read."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) if size else nullcontext(b"") as buf:
            width, height, pos = _header(path, buf)
        fh.seek(pos)
        yield fh, width, height


def ppm_size(path) -> tuple[int, int]:
    """(width, height) of a P6 raster whose header and file size `read_ppm`
    would accept, with its errors; reads no pixel."""
    with _raster(path) as (_, width, height):
        return width, height


def read_ppm(path) -> np.ndarray:
    """Read a P6 raster as a writeable (H, W, 3) uint8 array.

    The header and the file size are checked first; then the pixels are
    read straight into the array, so the raster is held in memory once.
    """
    with _raster(path) as (fh, width, height):
        raster = np.empty((height, width, 3), dtype=np.uint8)
        fh.readinto(raster)
    return raster


def read_ppm_bands(path, rows: int) -> Iterator[np.ndarray]:
    """The raster of a P6 file as (rows, W, 3) uint8 bands, top to bottom;
    the last is shorter when `rows` does not divide H. The file is checked as
    `read_ppm` checks it, before the first band. Every band is read into one
    buffer, which the next band overwrites: no whole-raster buffer is made."""
    with _raster(path) as (fh, width, height):
        band = np.empty((rows, width, 3), dtype=np.uint8)
        for y in range(0, height, rows):
            view = band[: min(rows, height - y)]
            fh.readinto(view)
            yield view


def write_ppm(raster: np.ndarray, path) -> None:
    arr = np.asarray(raster)
    if arr.ndim != 3 or arr.shape[2] != 3 or arr.dtype != np.uint8:
        raise ValueError(f"write_ppm wants (H, W, 3) uint8, got {arr.shape} {arr.dtype}")
    h, w = arr.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())
