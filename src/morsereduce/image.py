"""Binary images: Netpbm input, connected components, and a seeded generator.

Foreground pixels are the ones carrying topology. PBM marks them directly
(1 = black); PGM pixels are foreground iff their raw sample value is
strictly below a threshold (default 128), with no maxval rescaling.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import islice

__all__ = [
    "NetpbmError",
    "BinaryImage",
    "parse_pbm",
    "parse_pgm",
    "load_image",
    "count_components",
    "random_image",
]

# Netpbm filler, between header fields and between plain samples or
# pixels: whitespace, or a '#' comment to the end of its line. A match is
# filler and then a field, the bytes up to the next filler; the field is
# empty only at the end of the data.
_FIELD = re.compile(rb"\s*(?:#[^\r\n]*\s*)*([^\s#]*)")
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
        # One base-2 conversion, pixel 0 first, as in to_pbm; peeling the
        # bits off the word one at a time would be quadratic.
        w = self.width
        pixels = format(self.bits, f"0{w * self.height}b")[::-1]
        return [divmod(one.start(), w) for one in re.finditer("1", pixels)]

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


def _from_digits(digits: bytes) -> int:
    """The pixel word of row-major ASCII 0/1 digits, pixel 0 first.

    One base-2 conversion of the reversed digits, which is linear in the
    pixel count; setting one bit per pixel on a growing integer is not.
    """
    return int(digits[::-1] or b"0", 2)


def _field(fields: Iterator[re.Match]) -> re.Match:
    """The next header field, which the data must have."""
    field = next(fields)
    if not field[1]:
        raise NetpbmError("unexpected end of header")
    return field


def _decimal(digits: bytes, what: str) -> int:
    """A field of ASCII digits as a number; one too long to convert is named, not printed."""
    try:
        return int(digits)
    except ValueError:  # more digits than the interpreter's limit, 4300 by default
        raise NetpbmError(f"{what} too long: {len(digits)} digits") from None


def _number(fields: Iterator[re.Match], what: str) -> tuple[int, int]:
    """The next header field as a number, and the end of the field."""
    field = _field(fields)
    if not field[1].isdigit():
        raise NetpbmError(f"bad {what}: {field[1]!r}")
    return _decimal(field[1], what), field.end()


def _read_size(fields: Iterator[re.Match]) -> tuple[int, int, int]:
    """Width, height and the end of the height field."""
    width, _ = _number(fields, "width")
    height, end = _number(fields, "height")
    if width * height > 1 << 26:
        raise NetpbmError(f"image size {width}x{height} exceeds the supported limit")
    return width, height, end


def _raster(data: bytes, end: int, size: int) -> bytes:
    """The size bytes of a binary raster whose header ends at end."""
    # Binary rasters begin after exactly one whitespace byte.
    if not data[end : end + 1].isspace():
        raise NetpbmError("missing whitespace before raster")
    raster = data[end + 1 : end + 1 + size]
    if len(raster) < size:
        raise NetpbmError("truncated raster")
    return raster


def _plain_bits(rest: bytes, count: int) -> bytes:
    """The first count plain-PBM pixels of rest, as ASCII digits.

    Each pixel is a bare 0 or 1, with no separator required, so the pixels
    are the fields of rest joined. Spaces and tabs never end a comment, so
    cutting them first, in bulk, leaves the same pixels in fewer fields.
    The first pixel that is not 0 or 1 is named, before any shortage is.
    """
    fields = _FIELD.finditer(rest.translate(None, b" \t\x0b\x0c"))
    pixels = b"".join(field[1] for field in fields)[:count]
    bad = _NOT_A_BIT.search(pixels)
    if bad is not None:
        raise NetpbmError(f"bad pixel byte {bad.group()!r}")
    if len(pixels) < count:
        raise NetpbmError("truncated pixel data")
    return pixels


def parse_pbm(data: bytes) -> BinaryImage:
    """Parse PBM (P1 plain or P4 raw); 1 bits are foreground."""
    fields = _FIELD.finditer(data)
    magic = _field(fields)[1]
    width, height, end = _read_size(fields)
    if magic == b"P1":
        digits = _plain_bits(data[end:], width * height)
    elif magic == b"P4":
        stride = (width + 7) // 8
        raster = _raster(data, end, stride * height)
        digits = bytearray()
        if width * height:  # an image with no pixels does no per-row work
            row_bits = 8 * stride
            bits = format(int.from_bytes(raster, "big"), f"0{row_bits * height}b")
            for i in range(0, len(bits), row_bits):
                digits += bits[i : i + width].encode()  # the row without its pad bits
            del bits  # freed before the digits are reversed: 67 MB at 2^26 pixels
    else:
        raise NetpbmError(f"not a PBM file: magic {magic!r}")
    return BinaryImage(width, height, _from_digits(digits))


def parse_pgm(data: bytes, threshold: int = 128) -> BinaryImage:
    """Parse PGM (P2 plain or P5 raw); foreground iff sample < threshold."""
    fields = _FIELD.finditer(data)
    magic = _field(fields)[1]
    if magic not in (b"P2", b"P5"):
        raise NetpbmError(f"not a PGM file: magic {magic!r}")
    width, height, _ = _read_size(fields)
    maxval, end = _number(fields, "maxval")
    if not 0 < maxval < 65536:
        raise NetpbmError(f"maxval {maxval} out of range")
    count = width * height
    if magic == b"P2":
        digits = bytearray()
        for field in islice(fields, count):  # streamed: no list of samples
            sample = field[1]
            if not sample.isdigit():
                raise NetpbmError(f"bad pixel: {sample!r}" if sample else "truncated pixel data")
            v = _decimal(sample, "pixel")
            if v > maxval:
                raise NetpbmError(f"pixel {v} exceeds maxval {maxval}")
            digits.append(0x31 if v < threshold else 0x30)
    elif maxval < 256:
        raster = _raster(data, end, count)
        _within_maxval(raster, maxval)
        digits = raster.translate(bytes(0x31 if v < threshold else 0x30 for v in range(256)))
    else:
        from array import array  # a shared library, loaded only for the files that need it

        raster = _raster(data, end, 2 * count)
        samples = array("H", raster)  # two bytes a sample
        if sys.byteorder == "little":  # the raster is big-endian
            samples.byteswap()
        _within_maxval(samples, maxval)
        digits = bytes(0x31 if v < threshold else 0x30 for v in samples)
    return BinaryImage(width, height, _from_digits(digits))


def _within_maxval(samples: Sequence[int], maxval: int) -> None:
    """Name the first raw sample above maxval, as P2 names a plain one."""
    if max(samples, default=0) > maxval:  # at C speed, for every sample at once
        v = next(v for v in samples if v > maxval)
        raise NetpbmError(f"pixel {v} exceeds maxval {maxval}")


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
