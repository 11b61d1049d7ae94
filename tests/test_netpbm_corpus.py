"""Netpbm parsing against a recorded corpus of good and broken files.

netpbm_outcomes.json holds, for each input below, what `parse_pbm` and
`parse_pgm` (at the entry's threshold) make of it: the image, or the
exception's type and message. The corpus is every error path written by
hand, then seeded mutations of valid P1, P4, P2 and P5 (8- and 16-bit)
files: byte flips, truncations, comments and whitespace inserted
anywhere, and changed digits. A change that means to keep the parsers'
behaviour leaves every outcome as it is. A change that means to alter it
re-records the file by running this module as a script, with the package
on PYTHONPATH, and says so:

    PYTHONPATH=src python tests/test_netpbm_corpus.py
"""

from __future__ import annotations

import json
import pathlib
import random
import sys

from morsereduce.image import BinaryImage, parse_pbm, parse_pgm

RECORD = pathlib.Path(__file__).with_name("netpbm_outcomes.json")

HAND_WRITTEN = [
    # Header fields, shared by both parsers.
    b"",
    b"   \n# only a comment",
    b"P1",
    b"P1 3",
    b"P1 x 3\n",
    b"P1 3 -1\n",
    b"P1 3 3.0\n",
    b"P1 +3 3\n",
    b"P1 9000 9000\n",  # over the 2^26-pixel limit
    b"P1 8192 8192\n",  # at the limit: the pixels run out
    b"P1 0 99999999999999\n",  # no pixels, nothing read
    b"P7 1 1\n0\n",  # PBM reads the size before it rejects the magic
    b"P7 x\n",
    b"P1x 1 1 1",
    b"#c\nP1 1 1 1",
    b"P1#c\n2#d\n2#e\n1#f\n0 0 1",
    b"P1\r\n2\r2\x0b1\x0c0\t01",
    b"P1 2 1 1#\n0",
    b"P1 2 1 1#\r0",
    b"P1 2 1 1 # 0\n",
    # P1 pixels.
    b"P1\n2 2\n1 0 1\n",
    b"P1\n2 2\n1 0 # 1 1\n1",
    b"P1\n2 2\n1 0 1 2\n",
    b"P1\n2 2\n1 x",  # the bad byte is named before the shortage
    b"P1\n2 2\n1 0 1 1 x",  # bytes past the last pixel are not read
    b"P1 2 1 10",
    b"P1 2 1\n\x0010",
    # P4 rasters.
    b"P4 2 2",
    b"P4 2 2#c\n\x80\x40",
    b"P4 9 2\n\x00",
    b"P4\n10 2\n\x80\x40\x60\x00",
    b"P4\n0 5\n",
    b"P4\n0 5",
    b"P4\n5 0\n",
    b"P4\n0 3000000\n",
    b"P4 8 1\n\xff",
    b"P4 8 1\n\xff\xff",
    b"P4 3 1 \xe0",
    b"P4 8 1\n\n",  # one whitespace byte ends the header; the next is raster
    # PGM headers.
    b"P4 1 1\n\x80",  # PGM rejects the magic first
    b"P7 x\n",
    b"P2 x",
    b"P2 2 1\n",
    b"P2 2 1 x",
    b"P5 2 1\n0\n\x00\x00",
    b"P5 2 1 65536 \x00\x00\x00\x00",
    b"P2 2 1 1e3 0 0",
    # P2 samples.
    b"P2\n2 1\n255\n300 0\n",
    b"P2 2 1 255 7",
    b"P2 2 1 255 7 # 8",
    b"P2 2 1 255 7 x",
    b"P2 2 1 255 7 8x",
    b"P2 2 1 255 7#c\n8",
    b"P2 2 1 255 x 300",  # the first fault in file order is named
    b"P2 2 1 255 300 x",
    b"P2 0 3 255",
    b"P2 3 0 255 junk",
    b"P2 1 1 255 0255",
    b"P2 1 1 65535 65535",
    # P5 rasters.
    b"P5 2 2\n255\n\x00",
    b"P5 2 1 255",
    b"P5 2 1 255#c\n\x00\x00",
    b"P5 2 1 65535\n\x00\x64\x01\x00",
    b"P5 2 1 65535\n\x00\x64\x01",
    b"P5 2 1 255\n\x0a\xfa",
    b"P5 2 1 256\n\x00\xff\x01\x00",
    b"P5 0 2 255\n",
]

THRESHOLDS = [128, -1, 0, 1, 100, 101, 255, 256, 257, 25600, 25601, 65535, 65536, 70000]
FILLERS = [b" ", b"\n", b"\t", b"\r\n", b"\x0b", b"\x0c", b"  ", b" #c\n", b"#\n", b"\n# a b\r"]
MAXVALS = {"P2": [1, 15, 255, 1000, 65535], "P5": [1, 15, 255], "P5-16": [256, 1000, 65535]}
PALETTE = b"0123456789 \t\r\n\x0b\x0c#P25x\x00\xff"


def _valid_file(rng: random.Random) -> bytes:
    """A valid Netpbm file of a small random image, in a random format."""
    width, height = rng.randint(0, 6), rng.randint(0, 5)
    count = width * height
    kind = rng.choice(["P1", "P4", "P2", "P5", "P5-16"])
    if kind in ("P1", "P4"):
        fields = [kind[:2].encode(), b"%d" % width, b"%d" % height]
    else:
        maxval = rng.choice(MAXVALS[kind])
        fields = [kind[:2].encode(), b"%d" % width, b"%d" % height, b"%d" % maxval]
    head = fields[0]
    for field in fields[1:]:
        head += rng.choice(FILLERS) + field
    if kind == "P1":
        body = b""
        for _ in range(count):
            body += rng.choice([b"", b" ", b"\n", b" #p\n"]) + rng.choice([b"0", b"1"])
        return head + rng.choice(FILLERS) + body + rng.choice([b"", b"\n"])
    if kind == "P4":
        stride = (width + 7) // 8
        return head + b"\n" + bytes(rng.randrange(256) for _ in range(stride * height))
    if kind == "P2":
        samples = [b"%d" % rng.randint(0, maxval) for _ in range(count)]
        body = b"".join(rng.choice(FILLERS) + s for s in samples)
        return head + body + rng.choice([b"", b"\n"])
    if kind == "P5":
        return head + b" " + bytes(rng.randint(0, maxval) for _ in range(count))
    return head + b"\n" + b"".join(rng.randint(0, maxval).to_bytes(2, "big") for _ in range(count))


def _mutate(data: bytes, rng: random.Random) -> bytes:
    """data with one seeded fault: a flip, cut, insertion or changed digit."""
    how = rng.choice(["flip", "truncate", "comment", "whitespace", "digit"])
    pos = rng.randint(0, len(data))
    if how == "flip" and data:
        pos = min(pos, len(data) - 1)
        new = rng.choice([rng.randrange(256), rng.choice(PALETTE)])
        return data[:pos] + bytes([new]) + data[pos + 1 :]
    if how == "truncate":
        return data[:pos]
    if how == "comment":
        text = b"#" + bytes(rng.choice(b"ab 01#") for _ in range(rng.randint(0, 4)))
        return data[:pos] + text + rng.choice([b"\n", b"\r", b""]) + data[pos:]
    if how == "whitespace":
        return data[:pos] + rng.choice(FILLERS[:6]) * rng.randint(1, 2) + data[pos:]
    digits = [i for i, b in enumerate(data) if 0x30 <= b <= 0x39]
    if not digits:
        return data + b"0"
    pos = rng.choice(digits)
    return data[:pos] + bytes([rng.choice(b"0123456789")]) + data[pos + 1 :]


def corpus() -> list[tuple[bytes, int]]:
    """Each input with the threshold parse_pgm reads it at."""
    cases = [(data, 128) for data in HAND_WRITTEN]
    for sample in (b"P2 2 1 255 100 101", b"P5 2 1 255\n\x64\x65", b"P5 2 1 65535\n\x64\x00\x64\x01"):
        cases += [(sample, t) for t in THRESHOLDS[1:]]
    rng = random.Random(20260418)
    for _ in range(70):
        data = _valid_file(rng)
        cases.append((data, rng.choice(THRESHOLDS)))
        for _ in range(5):
            cases.append((_mutate(data, rng), rng.choice(THRESHOLDS)))
    return cases


def outcome(parse, *args) -> list:
    """["image", width, height, bits in hex], or the exception's type and message."""
    try:
        img: BinaryImage = parse(*args)
    except Exception as exc:  # every type is recorded, so a stray one shows
        return [type(exc).__name__, str(exc)]
    return ["image", img.width, img.height, hex(img.bits)]


def record_entry(data: bytes, threshold: int) -> dict:
    return {
        "data": data.decode("latin-1"),
        "threshold": threshold,
        "pbm": outcome(parse_pbm, data),
        "pgm": outcome(parse_pgm, data, threshold),
    }


def _recorded() -> list[dict]:
    return json.loads(RECORD.read_text(encoding="ascii"))


def test_the_corpus_is_the_recorded_one():
    recorded = [(e["data"].encode("latin-1"), e["threshold"]) for e in _recorded()]
    assert recorded == corpus()


def test_every_outcome_is_the_recorded_one():
    changed = []
    for entry in _recorded():
        got = record_entry(entry["data"].encode("latin-1"), entry["threshold"])
        if got != entry:
            changed.append((entry, got))
    assert changed == []


def test_no_input_raises_anything_but_a_netpbm_error():
    kinds = {e[key][0] for e in _recorded() for key in ("pbm", "pgm")}
    assert kinds == {"image", "NetpbmError"}


if __name__ == "__main__":
    entries = [record_entry(data, threshold) for data, threshold in corpus()]
    RECORD.write_text(json.dumps(entries, indent=1) + "\n", encoding="ascii")
    sys.exit(0)
