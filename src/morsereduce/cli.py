"""Command line interface.

Subcommands: homology (JSON report for one image), dvf (vector-field dump
for a matrix), verify (full invariant battery over one image or a seeded
random batch), bench (CSV timings over seeded random images).

Exit codes: 0 success / all checks passed, 1 verification failure,
2 usage or input errors. MORSEREDUCE_THREADS > 1 runs batch instances in
a process pool; the default is serial.

Each command runs with the cyclic garbage collector paused, in this
process and in every pool worker, and main turns it back on only if it
was on when main began. A pipeline run makes no reference cycle: only
the boundary check writes a record, from D1 to the D2 it annihilates,
and never from a matrix to itself or to one that records it; pins point
from a matrix to the blocks it names, never back. So reference counting
frees each result and the collector would only walk live objects: on
192x192 --fast images that walk took about 13% of each call, and the
median call got 13.5% faster without it. Library calls such as
reduce_pipeline leave the collector alone.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import os
import sys
from collections.abc import Callable

from .complexes import BoundaryViolation, betti
from .cubical import boundary_matrices, build_cubical
from .gf2 import parse_matrix_text
from .image import BinaryImage, NetpbmError, count_components, load_image, random_image
from .pipeline import CHECKS, STAGE_KEYS, PipelineResult, reduce_pipeline, report_dict
from .vectorfield import check_admissible, format_dvf, rs_algorithm

__all__ = ["main", "main_entry"]


def _euler(res: PipelineResult) -> bool:
    """c0 - c1 + c2 == b0 - b1 + b2 on the original complex.

    With b0 and b2 pinned by the checks before it, this pins b1 without
    the rank code that computes it.
    """
    c0, c1, c2 = res.original.dims()
    b = res.betti_original
    return c0 - c1 + c2 == b[0] - b[1] + b[2]


# Checks that verify runs on a pipeline result, after the pipeline's CHECKS.
_RESULT_CHECKS = {
    "betti_equal": lambda res: res.betti_original == res.betti_reduced,
    "betti0_components": lambda res: res.betti_original[0] == res.components,
    "betti2_zero": lambda res: res.betti_original[2] == 0,
    "euler": _euler,
}


def _map_jobs(fn: Callable, jobs: list) -> list:
    """fn of each job, in job order; in a process pool if MORSEREDUCE_THREADS > 1.

    The pool has at most one process per job, and each worker pauses the
    collector as main does, under any start method. The pool is imported
    here, only when used, since importing it costs more than the rest of
    the CLI.
    """
    raw = os.environ.get("MORSEREDUCE_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        raise ValueError(f"MORSEREDUCE_THREADS must be an integer, got {raw!r}")
    if threads > 1 and jobs:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=min(threads, len(jobs)), initializer=gc.disable
        ) as pool:
            return list(pool.map(fn, jobs))
    return [fn(job) for job in jobs]


def _count(text: str, least: int = 0) -> int:
    """An argparse type for --trials, --size and (least 1) --random: an int, least or more."""
    try:
        n = int(text)
    except ValueError:
        n = least - 1
    if n < least:
        raise argparse.ArgumentTypeError(f"must be an integer, {least} or more, got {text!r}")
    return n


def _density(text: str) -> float:
    """An argparse type for --density: a number in [0, 1] (NaN is outside)."""
    try:
        d = float(text)
    except ValueError:
        d = float("nan")
    if not 0.0 <= d <= 1.0:
        raise argparse.ArgumentTypeError(f"must be a number in [0, 1], got {text!r}")
    return d


def _cmd_homology(args: argparse.Namespace) -> int:
    img = load_image(args.image, args.threshold)
    if args.no_reduce:
        original = boundary_matrices(build_cubical(img))
        b = betti(original)
        result = PipelineResult(
            image=img,
            components=count_components(img),
            original=original,
            vector_field=None,
            reordered=None,
            reduced=original,
            triple=None,
            betti_original=b,
            betti_reduced=b,
            # boundary_matrices raised BoundaryViolation unless D1 . D2 = 0.
            checks={"boundary": True},
        )
    else:
        result = reduce_pipeline(img, fast=args.fast)
    json.dump(report_dict(result), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0 if result.ok else 1


def _cmd_dvf(args: argparse.Namespace) -> int:
    with open(args.matrix, "r", encoding="ascii") as fh:
        m = parse_matrix_text(fh.read())
    vf = rs_algorithm(m)
    report = check_admissible(m, vf)
    sys.stdout.write(format_dvf(vf, m))
    if not report.ok:
        print(f"admissibility check failed: {report}", file=sys.stderr)
        return 1
    return 0


def _battery_one(img: BinaryImage) -> dict[str, bool]:
    """Run the full pipeline on one image and flatten every check to a bool."""
    res = reduce_pipeline(img, fast=False)
    out = {k: bool(res.checks.get(k)) for k in CHECKS}
    out.update((k, check(res)) for k, check in _RESULT_CHECKS.items())
    return out


def _battery_random(params: tuple[int, int, float, int]) -> dict[str, bool]:
    width, height, density, seed = params
    return _battery_one(random_image(width, height, density, seed))


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.image is not None and args.random is not None:
        raise ValueError("give an image path or --random, not both")
    if args.image is not None:
        results = [_battery_one(load_image(args.image, args.threshold))]
    elif args.random is not None:
        jobs = [
            (args.size[0], args.size[1], args.density, args.seed + i)
            for i in range(args.random)
        ]
        results = _map_jobs(_battery_random, jobs)
    else:
        raise ValueError("verify needs an image path or --random N")
    total = len(results)
    all_ok = True
    for name in [*CHECKS, *_RESULT_CHECKS]:
        passed = sum(1 for r in results if r[name])
        print(f"{name}: {passed}/{total}")
        all_ok = all_ok and passed == total
    return 0 if all_ok else 1


def _bench_row(params: tuple[int, int, int, float, int, bool]) -> list:
    trial, width, height, density, seed, fast = params
    res = reduce_pipeline(random_image(width, height, density, seed), fast=fast)
    row: list = [
        trial,
        res.original.c0,
        res.original.c1,
        res.original.c2,
        res.nv,
        res.reduced.c0,
        res.reduced.c1,
        res.reduced.c2,
    ]
    for key in STAGE_KEYS:
        ms = res.timings_ms.get(key)
        row.append("" if ms is None else f"{ms:.3f}")
    return row


def _cmd_bench(args: argparse.Namespace) -> int:
    jobs = [
        (i, args.size[0], args.size[1], args.density, args.seed + i, args.fast)
        for i in range(args.trials)
    ]
    # Every row before the header, so an error (a bad MORSEREDUCE_THREADS
    # among them) leaves no output.
    rows = _map_jobs(_bench_row, jobs)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(
        ["trial", "c0", "c1", "c2", "nv", "reduced_c0", "reduced_c1", "reduced_c2"]
        + [f"{k}_ms" for k in STAGE_KEYS]
    )
    writer.writerows(rows)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morsereduce",
        description="Homology of binary images by vector-field reduction over GF(2), "
        "with runtime verification of the algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_hom = sub.add_parser("homology", help="reduce one image and report as JSON")
    p_hom.add_argument("image", help="PBM (P1/P4) or PGM (P2/P5) file")
    p_hom.add_argument("--threshold", type=int, default=128,
                       help="PGM foreground cut: value < threshold (default 128)")
    mode = p_hom.add_mutually_exclusive_group()
    mode.add_argument("--fast", action="store_true",
                      help="skip the expensive re-verifications (reported as null)")
    mode.add_argument("--no-reduce", action="store_true",
                      help="compute Betti numbers directly on the original matrices")
    p_hom.set_defaults(func=_cmd_homology)

    p_dvf = sub.add_parser("dvf", help="print the vector field of a 0/1 matrix file")
    p_dvf.add_argument("matrix", help="dense matrix text: 'rows cols' line then 0/1 rows")
    p_dvf.set_defaults(func=_cmd_dvf)

    p_ver = sub.add_parser("verify", help="run the full invariant battery")
    p_ver.add_argument("image", nargs="?", default=None, help="image file to verify")
    p_ver.add_argument("--threshold", type=int, default=128)
    p_ver.add_argument("--random", type=lambda text: _count(text, 1), metavar="N",
                       help="verify N seeded random images instead of a file")
    p_ver.add_argument("--size", type=_count, nargs=2, default=(16, 16),
                       metavar=("W", "H"))
    p_ver.add_argument("--density", type=_density, default=0.5)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(func=_cmd_verify)

    p_bench = sub.add_parser("bench", help="CSV timings over seeded random images")
    p_bench.add_argument("--size", type=_count, nargs=2, default=(32, 32),
                         metavar=("W", "H"))
    p_bench.add_argument("--density", type=_density, default=0.5)
    p_bench.add_argument("--trials", type=_count, default=1)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--fast", action="store_true",
                         help="benchmark without the re-verification stages")
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # The command's objects are freed by reference counting before the
    # collector comes back on, so it has no live result to walk then.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (OSError, NetpbmError, BoundaryViolation, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if was_enabled:
            gc.enable()


def main_entry() -> None:
    sys.exit(main())
