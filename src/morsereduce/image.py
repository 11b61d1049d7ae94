"""Binary images: Netpbm input, connected components, and a seeded generator.

Foreground pixels are the ones carrying topology. PBM marks them directly
(1 = black); PGM pixels are foreground iff their raw sample value is
strictly below a threshold (default 128), with no maxval rescaling.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "NetpbmError",
    "BinaryImage",
    "parse_pbm",
    "parse_pgm",
    "load_image",
    "count_components",
    "random_image",
]

_WHITESPACE = b" \t\r\n\x0b\x0c"
_COMMENT = re.compile(rb"#[^\r\n]*")  # a '#' comment runs to the end of its line
_NOT_A_BIT = re.compile(rb"[^01]")


class NetpbmError(ValueError):
    """Malformed Netpbm input: bad magic, truncated data, or broken header."""


@dataclass(frozen=True)
class BinaryImage:
    """A width x height bitmap; bit (r * width + c) of ``bits`` is pixel (r, c)."""

    width: int
    height: int
    bits: int

    def __post_init__(self):
        if self.width < 0 or self.height < 0:
            raise ValueError(f"negative image size {self.width}x{self.height}")
        if self.bits < 0 or self.bits >> (self.width * self.height):
            raise ValueError("pixel bits outside the image")

    @classmethod
    def from_rows(cls, rows: list[list[int]]) -> BinaryImage:
        height = len(rows)
        width = len(rows[0]) if rows else 0
        digits = bytearray()
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged rows")
            for v in row:
                if v not in (0, 1):
                    raise ValueError(f"pixel {v!r} is not 0 or 1")
                digits.append(0x30 + v)
        return cls(width, height, _from_digits(digits))

    def get(self, r: int, c: int) -> int:
        if not (0 <= r < self.height and 0 <= c < self.width):
            raise IndexError(f"({r}, {c}) out of range for {self.width}x{self.height}")
        return (self.bits >> (r * self.width + c)) & 1

    def foreground(self) -> list[tuple[int, int]]:
        """Foreground pixel coordinates in row-major order."""
        out = []
        bits = self.bits
        while bits:  # peel from the top, so each step shortens the word
            idx = bits.bit_length() - 1
            out.append(divmod(idx, self.width))
            bits ^= 1 << idx
        out.reverse()
        return out

    def count_foreground(self) -> int:
        return self.bits.bit_count()

    def to_pbm(self) -> bytes:
        """Render as plain PBM (P1)."""
        w = self.width
        pixels = format(self.bits, f"0{w * self.height}b")[::-1]
        lines = [b"P1", f"{w} {self.height}".encode()]
        for r in range(self.height):
            lines.append(" ".join(pixels[r * w : (r + 1) * w]).encode())
        return b"\n".join(lines) + b"\n"


def _from_digits(digits: bytearray) -> int:
    """The pixel word of row-major ASCII 0/1 digits, pixel 0 first.

    One base-2 conversion of the reversed digits, which is linear in the
    pixel count; setting one bit per pixel on a growing integer is not.
    """
    return int(digits[::-1] or b"0", 2)


class _Scanner:
    """Byte cursor over a Netpbm payload that understands '#' comments."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _skip_filler(self) -> None:
        data, n = self.data, len(self.data)
        while self.pos < n:
            b = data[self.pos]
            if b in _WHITESPACE:
                self.pos += 1
            elif b == 0x23:  # '#' comment runs to end of line
                while self.pos < n and data[self.pos] not in (0x0A, 0x0D):
                    self.pos += 1
            else:
                return

    def token(self) -> bytes:
        self._skip_filler()
        if self.pos >= len(self.data):
            raise NetpbmError("unexpected end of header")
        start = self.pos
        data, n = self.data, len(self.data)
        while self.pos < n and data[self.pos] not in _WHITESPACE and data[self.pos] != 0x23:
            self.pos += 1
        return data[start : self.pos]

    def int_token(self, what: str) -> int:
        tok = self.token()
        if not tok.isdigit():
            raise NetpbmError(f"bad {what}: {tok!r}")
        return int(tok)

    def start_raster(self) -> bytes:
        # Binary rasters begin after exactly one whitespace byte.
        if self.pos >= len(self.data) or self.data[self.pos] not in _WHITESPACE:
            raise NetpbmError("missing whitespace before raster")
        self.pos += 1
        return self.data[self.pos :]

    def plain_bits(self, count: int) -> bytes:
        """The next count plain-PBM pixels as ASCII digits.

        Each pixel is a bare 0 or 1, with no separator required; comments
        and whitespace between them are dropped in bulk, and the first
        count bytes left are the pixels. The first of them that is not 0
        or 1 is named, before any shortage is.
        """
        rest = _COMMENT.sub(b"", self.data[self.pos :]).translate(None, _WHITESPACE)
        pixels = rest[:count]
        bad = _NOT_A_BIT.search(pixels)
        if bad is not None:
            raise NetpbmError(f"bad pixel byte {bad.group()!r}")
        if len(pixels) < count:
            raise NetpbmError("truncated pixel data")
        return pixels


def _read_size(s: _Scanner) -> tuple[int, int]:
    width = s.int_token("width")
    height = s.int_token("height")
    if width * height > 1 << 26:
        raise NetpbmError(f"image size {width}x{height} exceeds the supported limit")
    return width, height


def parse_pbm(data: bytes) -> BinaryImage:
    """Parse PBM (P1 plain or P4 raw); 1 bits are foreground."""
    s = _Scanner(data)
    magic = s.token()
    width, height = _read_size(s)
    digits = bytearray()
    if magic == b"P1":
        digits += s.plain_bits(width * height)
    elif magic == b"P4":
        raster = s.start_raster()
        stride = (width + 7) // 8
        if len(raster) < stride * height:
            raise NetpbmError("truncated raster")
        spec = f"0{8 * stride}b"
        for r in range(height):
            row = int.from_bytes(raster[r * stride : (r + 1) * stride], "big")
            digits += format(row, spec)[:width].encode()
    else:
        raise NetpbmError(f"not a PBM file: magic {magic!r}")
    return BinaryImage(width, height, _from_digits(digits))


def parse_pgm(data: bytes, threshold: int = 128) -> BinaryImage:
    """Parse PGM (P2 plain or P5 raw); foreground iff sample < threshold."""
    s = _Scanner(data)
    magic = s.token()
    if magic not in (b"P2", b"P5"):
        raise NetpbmError(f"not a PGM file: magic {magic!r}")
    width, height = _read_size(s)
    maxval = s.int_token("maxval")
    if not 0 < maxval < 65536:
        raise NetpbmError(f"maxval {maxval} out of range")
    count = width * height
    digits = bytearray()
    if magic == b"P2":
        for _ in range(count):
            v = s.int_token("pixel")
            if v > maxval:
                raise NetpbmError(f"pixel {v} exceeds maxval {maxval}")
            digits.append(0x31 if v < threshold else 0x30)
    else:
        raster = s.start_raster()
        step = 1 if maxval < 256 else 2
        if len(raster) < count * step:
            raise NetpbmError("truncated raster")
        for idx in range(count):
            if step == 1:
                v = raster[idx]
            else:
                v = (raster[2 * idx] << 8) | raster[2 * idx + 1]
            digits.append(0x31 if v < threshold else 0x30)
    return BinaryImage(width, height, _from_digits(digits))


def load_image(path: str, threshold: int = 128) -> BinaryImage:
    """Load a PBM or PGM file, dispatching on its magic number."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:2]
    if magic in (b"P1", b"P4"):
        return parse_pbm(data)
    if magic in (b"P2", b"P5"):
        return parse_pgm(data, threshold)
    raise NetpbmError(f"unsupported magic {magic!r}")


def count_components(img: BinaryImage) -> int:
    """Number of 8-connected foreground components (union-find)."""
    width = img.width
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for r, c in img.foreground():
        idx = r * width + c
        parent[idx] = idx
        # Earlier-scanned neighbors cover every adjacent pair once. They
        # come before idx in row-major order, so one is in parent exactly
        # when it is foreground.
        for dr, dc in ((-1, -1), (-1, 0), (-1, 1), (0, -1)):
            nidx = (r + dr) * width + (c + dc)
            if 0 <= r + dr and 0 <= c + dc < width and nidx in parent:
                union(idx, nidx)
    return sum(1 for x in parent if parent[x] == x)


def random_image(width: int, height: int, density: float, seed: int) -> BinaryImage:
    """Deterministic pseudo-random image from a SplitMix64 stream.

    Pixels are drawn in row-major order. For each pixel the generator state
    advances by the 64-bit golden-gamma constant and is finalized with the
    SplitMix64 mix (xor-shift 30, multiply 0xBF58476D1F4EE2B9, xor-shift 27,
    multiply 0x94D049BB133111EB, xor-shift 31); the pixel is foreground iff
    the top 53 bits of the output are below floor(density * 2**53). Equal
    (width, height, density, seed) always reproduce the same image, in any
    implementation of this scheme.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density {density} outside [0, 1]")
    mask = (1 << 64) - 1
    state = seed & mask
    cut = int(density * (1 << 53))
    digits = bytearray()
    for _ in range(width * height):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1F4EE2B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        digits.append(0x31 if (z >> 11) < cut else 0x30)
    return BinaryImage(width, height, _from_digits(digits))
