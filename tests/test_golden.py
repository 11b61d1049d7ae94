"""Byte-identity of the command line outputs against a recorded copy.

golden_outputs.json holds, for each case below, the exit code, stdout
and stderr of one `morsereduce` command, with every number under
"timings_ms" replaced by "T". A change that means to keep the reports as
they are must leave every case byte for byte equal. A change that means
to alter them re-records the file by running this module as a script,
with the package on PYTHONPATH, and says so:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import random
import re
import sys
import tempfile

import pytest

from morsereduce import cli
from morsereduce.cubical import boundary_matrices, build_cubical
from morsereduce.gf2 import Gf2Matrix, format_matrix_text
from morsereduce.image import random_image

GOLDEN = pathlib.Path(__file__).with_name("golden_outputs.json")

IMAGES = {
    "empty": "P1\n0 0\n",
    "one_pixel": "P1\n1 1\n1\n",
    "ring": "P1\n3 3\n1 1 1\n1 0 1\n1 1 1\n",
    "random_32x32_d0.6": lambda: random_image(32, 32, 0.6, 1).to_pbm().decode(),
    "random_48x40_d0.35": lambda: random_image(48, 40, 0.35, 2).to_pbm().decode(),
}
MODES = {"certified": [], "fast": ["--fast"], "no_reduce": ["--no-reduce"]}


def _dense(rows: int, cols: int, density: float, seed: int) -> Gf2Matrix:
    rng = random.Random(seed)
    return Gf2Matrix.from_rows(
        [[int(rng.random() < density) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


MATRICES = {
    "dense_7x9": lambda: _dense(7, 9, 0.5, 1),
    "sparse_16x16": lambda: _dense(16, 16, 0.3, 2),
    "image_10x8_d1": lambda: boundary_matrices(build_cubical(random_image(10, 8, 0.5, 3))).d1,
}

# Each case: its id, the file to write (name and a function giving its
# text) or None, and the arguments after it.
CASES = [
    *(
        (f"homology/{image}/{mode}", ("image.pbm", IMAGES[image]), ["homology", "{path}", *flags])
        for image in IMAGES
        for mode, flags in MODES.items()
    ),
    *(
        (f"dvf/{name}", ("matrix.txt", lambda make=make: format_matrix_text(make())), ["dvf", "{path}"])
        for name, make in MATRICES.items()
    ),
    ("verify/random_20_12x12_d0.6", None,
     ["verify", "--random", "20", "--size", "12", "12", "--density", "0.6"]),
]


def _untimed(out: str) -> str:
    """out with each number after "timings_ms" replaced by "T"."""
    head, sep, tail = out.partition('"timings_ms": ')
    return head + sep + re.sub(r"-?\d+(\.\d+)?([eE][-+]?\d+)?", "T", tail)


def run_case(file: tuple | None, argv: list[str], workdir: pathlib.Path) -> dict:
    """Exit code, untimed stdout and stderr of one command."""
    if file is not None:
        name, text = file
        path = workdir / name
        path.write_text(text() if callable(text) else text, encoding="ascii")
        argv = [str(path) if arg == "{path}" else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"code": code, "out": _untimed(out.getvalue()), "err": err.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case(golden):
    assert list(golden) == [case_id for case_id, _, _ in CASES]


@pytest.mark.parametrize("case_id, file, argv", CASES, ids=[c[0] for c in CASES])
def test_output_is_byte_identical_to_the_recorded_one(golden, tmp_path, case_id, file, argv):
    assert run_case(file, argv, tmp_path) == golden[case_id]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recorded = {case_id: run_case(file, argv, pathlib.Path(tmp)) for case_id, file, argv in CASES}
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
