"""Command line interface.

Subcommands: homology (JSON report for one image), dvf (vector-field dump
for a matrix), verify (full invariant battery over one image or a seeded
random batch), bench (CSV timings over seeded random images).

Exit codes: 0 success / all checks passed, 1 verification failure,
2 usage or input errors. MORSEREDUCE_THREADS > 1 runs batch instances in
a process pool; the default is serial.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .complexes import BoundaryViolation, betti
from .gf2 import parse_matrix_text
from .image import BinaryImage, NetpbmError, load_image, random_image
from .pipeline import CHECK_KEYS, STAGE_KEYS, reduce_pipeline, report_dict
from .vectorfield import check_admissible, format_dvf, rs_algorithm

__all__ = ["main", "main_entry"]

_BATTERY = (
    "boundary",
    "dvf",
    "triangular",
    "reduction_axioms",
    "bpl_match",
    "nilpotency",
    "betti_equal",
    "betti0_components",
    "betti2_zero",
)


def _thread_count() -> int:
    raw = os.environ.get("MORSEREDUCE_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"MORSEREDUCE_THREADS must be an integer, got {raw!r}")
    return max(1, n)


def _no_reduce_report(img: BinaryImage) -> dict:
    from .cubical import boundary_matrices, build_cubical
    from .image import count_components

    t = boundary_matrices(build_cubical(img))
    b = betti(t)
    checks = dict.fromkeys(CHECK_KEYS)
    checks["boundary"] = t.d1.mul(t.d2).is_zero()
    dims = {"c0": t.c0, "c1": t.c1, "c2": t.c2}
    return {
        "original": dims,
        "nv": 0,
        "reduced": dict(dims),
        "betti_original": [b[k] for k in (0, 1, 2)],
        "betti_reduced": [b[k] for k in (0, 1, 2)],
        "components": count_components(img),
        "checks": checks,
        "timings_ms": {},
    }


def _cmd_homology(args: argparse.Namespace) -> int:
    img = load_image(args.image, args.threshold)
    if args.no_reduce:
        report = _no_reduce_report(img)
    else:
        result = reduce_pipeline(img, fast=args.fast)
        report = report_dict(result)
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    failed = [k for k, v in report["checks"].items() if v is False]
    return 1 if failed else 0


def _cmd_dvf(args: argparse.Namespace) -> int:
    with open(args.matrix, "r", encoding="ascii") as fh:
        m = parse_matrix_text(fh.read())
    vf = rs_algorithm(m)
    report = check_admissible(m, vf)
    sys.stdout.write(format_dvf(vf))
    if not report.ok:
        print(f"admissibility check failed: {report}", file=sys.stderr)
        return 1
    return 0


def _battery_one(img: BinaryImage) -> dict[str, bool]:
    """Run the full pipeline on one image and flatten every check to a bool."""
    res = reduce_pipeline(img, fast=False)
    out = {k: bool(res.checks.get(k)) for k in CHECK_KEYS}
    out["betti_equal"] = res.betti_original == res.betti_reduced
    out["betti0_components"] = res.betti_original[0] == res.components
    out["betti2_zero"] = res.betti_original[2] == 0
    return out


def _battery_random(params: tuple[int, int, float, int]) -> dict[str, bool]:
    width, height, density, seed = params
    return _battery_one(random_image(width, height, density, seed))


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.image is not None and args.random:
        raise ValueError("give an image path or --random, not both")
    if args.image is not None:
        results = [_battery_one(load_image(args.image, args.threshold))]
    elif args.random:
        jobs = [
            (args.size[0], args.size[1], args.density, args.seed + i)
            for i in range(args.random)
        ]
        threads = _thread_count()
        if threads > 1:
            with ProcessPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(_battery_random, jobs))
        else:
            results = [_battery_random(j) for j in jobs]
    else:
        raise ValueError("verify needs an image path or --random N")
    total = len(results)
    all_ok = True
    for name in _BATTERY:
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
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(
        ["trial", "c0", "c1", "c2", "nv", "reduced_c0", "reduced_c1", "reduced_c2"]
        + [f"{k}_ms" for k in STAGE_KEYS]
    )
    jobs = [
        (i, args.size[0], args.size[1], args.density, args.seed + i, args.fast)
        for i in range(args.trials)
    ]
    threads = _thread_count()
    if threads > 1 and jobs:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            for row in pool.map(_bench_row, jobs):
                writer.writerow(row)
    else:
        for job in jobs:
            writer.writerow(_bench_row(job))
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
    p_hom.add_argument("--fast", action="store_true",
                       help="skip the expensive re-verifications (reported as null)")
    p_hom.add_argument("--no-reduce", action="store_true",
                       help="compute Betti numbers directly on the original matrices")
    p_hom.set_defaults(func=_cmd_homology)

    p_dvf = sub.add_parser("dvf", help="print the vector field of a 0/1 matrix file")
    p_dvf.add_argument("matrix", help="dense matrix text: 'rows cols' line then 0/1 rows")
    p_dvf.set_defaults(func=_cmd_dvf)

    p_ver = sub.add_parser("verify", help="run the full invariant battery")
    p_ver.add_argument("image", nargs="?", default=None, help="image file to verify")
    p_ver.add_argument("--threshold", type=int, default=128)
    p_ver.add_argument("--random", type=int, default=0, metavar="N",
                       help="verify N seeded random images instead of a file")
    p_ver.add_argument("--size", type=int, nargs=2, default=(16, 16),
                       metavar=("W", "H"))
    p_ver.add_argument("--density", type=float, default=0.5)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(func=_cmd_verify)

    p_bench = sub.add_parser("bench", help="CSV timings over seeded random images")
    p_bench.add_argument("--size", type=int, nargs=2, default=(32, 32),
                         metavar=("W", "H"))
    p_bench.add_argument("--density", type=float, default=0.5)
    p_bench.add_argument("--trials", type=int, default=1)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--fast", action="store_true",
                         help="benchmark without the re-verification stages")
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, NetpbmError, BoundaryViolation, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())
