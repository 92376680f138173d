"""Binary PPM (P6, maxval 255) reader/writer.

Chosen as the raster interchange format because it is codec-free and
byte-exact: write(read(x)) == x for any 8-bit raster.
"""

from __future__ import annotations

import numpy as np


class PpmError(Exception):
    def __init__(self, path, message: str, offset: int):
        super().__init__(f"{path}: {message} (byte offset {offset})")
        self.offset = offset


_SPACE = b" \t\n\v\f\r"  # bytes.isspace()


def _next_token(path, buf: np.ndarray, pos: int) -> tuple[bytes, int]:
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


def read_ppm(path) -> np.ndarray:
    """Read a P6 raster as a writeable (H, W, 3) uint8 view of the file's bytes.

    The file is read once into a numpy buffer of its size and the array is a
    view of it past the header, so the raster is held in memory once.
    """
    buf = np.fromfile(path, dtype=np.uint8)
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
    return buf[pos:].reshape(height, width, 3)


def write_ppm(raster: np.ndarray, path) -> None:
    arr = np.asarray(raster)
    if arr.ndim != 3 or arr.shape[2] != 3 or arr.dtype != np.uint8:
        raise ValueError(f"write_ppm wants (H, W, 3) uint8, got {arr.shape} {arr.dtype}")
    h, w = arr.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())
