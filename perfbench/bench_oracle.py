"""Expected outputs for the benchmark's images, computed without morsereduce.

Nothing here imports the package. Pixels come from a from-scratch
SplitMix64 stream, cell counts come from a scan of the padded pixel grid
(not from deduplicated cell sets), b0 comes from an 8-connected flood fill,
and b1 from the Euler characteristic: for the closed-pixel complex of a 2D
image b2 = 0, so b1 = b0 - (c0 - c1 + c2). Every step is linear in the
pixel count, so the oracle stays cheap at any image size.
"""

from __future__ import annotations

from dataclasses import dataclass

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def seeded_pixels(width: int, height: int, density: float, seed: int) -> list[list[int]]:
    """Rows of 0/1 pixels from the SplitMix64 scheme `random_image` documents.

    Row-major order; a pixel is foreground iff the top 53 bits of the mixed
    output fall below floor(density * 2**53).
    """
    cut = int(density * (1 << 53))
    state = seed & _MASK64
    rows = []
    for _ in range(height):
        row = []
        for _ in range(width):
            state = (state + _GAMMA) & _MASK64
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1F4EE2B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            z ^= z >> 31
            row.append(1 if (z >> 11) < cut else 0)
        rows.append(row)
    return rows


@dataclass(frozen=True)
class Expected:
    """Cell counts and Betti numbers of one image's cubical complex."""

    c0: int
    c1: int
    c2: int
    b0: int

    @property
    def cells(self) -> int:
        return self.c0 + self.c1 + self.c2

    @property
    def b1(self) -> int:
        return self.b0 - (self.c0 - self.c1 + self.c2)

    @property
    def betti(self) -> list[int]:
        return [self.b0, self.b1, 0]


def expected(rows: list[list[int]]) -> Expected:
    """Count corners, sides and pixels, and 8-connected components."""
    height = len(rows)
    width = len(rows[0]) if rows else 0
    # Pad by one pixel on every side so lattice point (i, j) sees pixels
    # (i-1..i, j-1..j) at padded indices (i..i+1, j..j+1).
    pw = width + 2
    grid = bytearray(pw * (height + 2))
    for r, row in enumerate(rows):
        if len(row) != width:
            raise ValueError("ragged rows")
        base = (r + 1) * pw + 1
        for c, v in enumerate(row):
            if v:
                grid[base + c] = 1

    c0 = c1 = c2 = 0
    for i in range(height + 1):
        up = i * pw  # padded row of pixels (i-1, *)
        down = up + pw  # padded row of pixels (i, *)
        for j in range(width + 1):
            ul, ur = grid[up + j], grid[up + j + 1]
            dl, dr = grid[down + j], grid[down + j + 1]
            if ul or ur or dl or dr:
                c0 += 1
            if ur or dr:  # horizontal side (i, j) -- (i, j+1)
                c1 += 1
            if dl or dr:  # vertical side (i, j) -- (i+1, j)
                c1 += 1
            if dr:
                c2 += 1

    b0 = 0
    seen = bytearray(len(grid))
    steps = (-pw - 1, -pw, -pw + 1, -1, 1, pw - 1, pw, pw + 1)
    for start in range(len(grid)):
        if not grid[start] or seen[start]:
            continue
        b0 += 1
        seen[start] = 1
        stack = [start]
        while stack:
            p = stack.pop()
            for step in steps:
                q = p + step
                if grid[q] and not seen[q]:
                    seen[q] = 1
                    stack.append(q)
    return Expected(c0, c1, c2, b0)


def problems(out: dict, exp: Expected) -> list[str]:
    """Every way one pipeline report disagrees with the oracle.

    ``out`` has the shape of the package's JSON report: ``original`` cell
    counts, ``betti_original``, ``betti_reduced``, ``components`` and
    ``checks`` (None for a check the mode skipped).
    """
    found = []
    counts = [out["original"][k] for k in ("c0", "c1", "c2")]
    if counts != [exp.c0, exp.c1, exp.c2]:
        found.append(f"cell counts {counts} != {[exp.c0, exp.c1, exp.c2]}")
    for key in ("betti_original", "betti_reduced"):
        if list(out[key]) != exp.betti:
            found.append(f"{key} {list(out[key])} != {exp.betti}")
    if out["components"] != exp.b0:
        found.append(f"components {out['components']} != {exp.b0}")
    found.extend(f"check {k} is {v}" for k, v in out["checks"].items() if v is not None and v is not True)
    return found
