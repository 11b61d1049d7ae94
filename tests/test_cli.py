"""End-to-end tests for the command line interface."""

import concurrent.futures
import gc
import json
import multiprocessing
import operator
import os
import pathlib
import subprocess
import sys

import pytest

from morsereduce import cli, pipeline
from morsereduce.complexes import ReductionTriple
from morsereduce.cubical import boundary_matrices, build_cubical
from morsereduce.gf2 import Gf2Matrix
from morsereduce.image import parse_pbm, random_image
from morsereduce.reduction import hexagonal_reduce
from morsereduce.verification import VerificationReport

SNAKE_PBM = "P1\n3 3\n1 1 0\n0 1 0\n0 1 1\n"
RING_PBM = "P1\n3 3\n1 1 1\n1 0 1\n1 1 1\n"
TWO_DOTS_PBM = "P1\n3 1\n1 0 1\n"

# The lines of `verify`, in print order: the pipeline's checks, then the
# checks on its result.
BATTERY = [
    "dvf",
    "triangular",
    "boundary",
    "reduction_axioms",
    "bpl_match",
    "nilpotency",
    "betti_equal",
    "betti0_components",
    "betti2_zero",
    "euler",
]

CHECK_KEYS = {"dvf", "triangular", "boundary", "reduction_axioms", "bpl_match", "nilpotency"}
REPORT_KEYS = {
    "original",
    "nv",
    "reduced",
    "betti_original",
    "betti_reduced",
    "components",
    "checks",
    "timings_ms",
}


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    return str(path)


def untimed(csv_text):
    """CSV lines with each timing cell reduced to whether it is filled."""
    return [
        cells[:8] + [cell != "" for cell in cells[8:]]
        for cells in (line.split(",") for line in csv_text.splitlines())
    ]


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_homology_reports_full_json(tmp_path, capsys):
    path = write(tmp_path, "ring.pbm", RING_PBM)
    code, out, err = run(capsys, ["homology", path])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert set(report) == REPORT_KEYS
    assert set(report["checks"]) == CHECK_KEYS
    assert report["betti_original"] == [1, 1, 0]
    assert report["betti_reduced"] == [1, 1, 0]
    assert report["components"] == 1
    assert all(v is True for v in report["checks"].values())
    assert report["original"] == {"c0": 16, "c1": 24, "c2": 8}
    assert report["nv"] + report["reduced"]["c0"] == report["original"]["c0"]
    assert set(report["timings_ms"]) <= set(cli.STAGE_KEYS)


def test_homology_is_deterministic_apart_from_timings(tmp_path, capsys):
    path = write(tmp_path, "snake.pbm", SNAKE_PBM)
    _, first, _ = run(capsys, ["homology", path])
    _, second, _ = run(capsys, ["homology", path])
    a, b = json.loads(first), json.loads(second)
    a.pop("timings_ms"), b.pop("timings_ms")
    assert a == b


def test_homology_fast_skips_reverification(tmp_path, capsys):
    path = write(tmp_path, "ring.pbm", RING_PBM)
    code, out, _ = run(capsys, ["homology", path, "--fast"])
    report = json.loads(out)
    assert code == 0
    assert report["checks"]["boundary"] is True
    assert report["checks"]["triangular"] is True
    for key in ("dvf", "reduction_axioms", "bpl_match", "nilpotency"):
        assert report["checks"][key] is None
    assert report["betti_original"] == [1, 1, 0]


def test_homology_no_reduce_mirrors_original(tmp_path, capsys):
    cases = [
        (RING_PBM, {"c0": 16, "c1": 24, "c2": 8}, [1, 1, 0], 1),
        (TWO_DOTS_PBM, {"c0": 8, "c1": 8, "c2": 2}, [2, 0, 0], 2),
    ]
    for text, dims, betti, components in cases:
        path = write(tmp_path, "image.pbm", text)
        code, out, _ = run(capsys, ["homology", path, "--no-reduce"])
        assert code == 0
        expected = {
            "original": dims,
            "nv": 0,
            "reduced": dims,
            "betti_original": betti,
            "betti_reduced": betti,
            "components": components,
            "checks": {
                "dvf": None,
                "triangular": None,
                "boundary": True,
                "reduction_axioms": None,
                "bpl_match": None,
                "nilpotency": None,
            },
            "timings_ms": {},
        }
        assert out == json.dumps(expected, indent=2) + "\n"


def test_homology_reports_a_failed_check_with_exit_one(tmp_path, capsys, monkeypatch):
    failing = VerificationReport()
    failing.add("f_g_identity", False, 0)
    monkeypatch.setattr(pipeline, "verify_reduction", lambda triple: failing)
    path = write(tmp_path, "ring.pbm", RING_PBM)
    code, out, _ = run(capsys, ["homology", path])
    assert code == 1
    assert json.loads(out)["checks"]["reduction_axioms"] is False
    code, out, _ = run(capsys, ["homology", path, "--fast"])
    assert code == 0
    assert json.loads(out)["checks"]["reduction_axioms"] is None


def test_bpl_match_compares_the_whole_triple(tmp_path, capsys, monkeypatch):
    # A route that returns the right small complex but one wrong entry
    # of h must fail bpl_match.
    def tampered_route(rc, **kw):
        _, triple = hexagonal_reduce(rc)
        h0 = triple.h(0)
        flipped = Gf2Matrix(h0.rows, h0.cols, (h0.bits[0] ^ 1,) + h0.bits[1:])
        ks = triple.big.degrees()
        return ReductionTriple(
            triple.big,
            triple.small,
            {k: triple.f(k) for k in ks},
            {k: triple.g(k) for k in ks},
            {k: flipped if k == 0 else triple.h(k) for k in ks},
        )

    monkeypatch.setattr(pipeline, "vf_reduction_via_bpl", tampered_route)
    res = pipeline.reduce_pipeline(parse_pbm(RING_PBM.encode("ascii")))
    assert res.checks["bpl_match"] is False
    path = write(tmp_path, "ring.pbm", RING_PBM)
    code, out, _ = run(capsys, ["homology", path])
    assert code == 1
    assert json.loads(out)["checks"]["bpl_match"] is False


def test_failed_reduction_axioms_name_their_identities(tmp_path, capsys, monkeypatch):
    failing = VerificationReport()
    failing.add("f_g_identity", True, 1)
    failing.add("f_g_identity", False, 0)
    monkeypatch.setattr(pipeline, "verify_reduction", lambda triple: failing)
    res = pipeline.reduce_pipeline(parse_pbm(RING_PBM.encode("ascii")))
    assert res.failed_checks == {"reduction_axioms": ["f_g_identity[0]"]}
    path = write(tmp_path, "ring.pbm", RING_PBM)
    code, out, _ = run(capsys, ["homology", path])
    assert code == 1
    report = json.loads(out)
    assert list(report) == [
        "original",
        "nv",
        "reduced",
        "betti_original",
        "betti_reduced",
        "components",
        "checks",
        "failed_checks",
        "timings_ms",
    ]
    assert report["failed_checks"] == {"reduction_axioms": ["f_g_identity[0]"]}


def test_a_route_that_differs_names_the_identities_it_breaks(monkeypatch):
    # The direct triple with h(0)[0][0] flipped breaks g f + d h + h d = I.
    def tampered_route(rc, **kw):
        _, triple = hexagonal_reduce(rc)
        h0 = triple.h(0)
        flipped = Gf2Matrix(h0.rows, h0.cols, (h0.bits[0] ^ 1,) + h0.bits[1:])
        ks = triple.big.degrees()
        h = {k: flipped if k == 0 else triple.h(k) for k in ks}
        return ReductionTriple(triple.big, triple.small, triple.f, triple.g, h)

    monkeypatch.setattr(pipeline, "vf_reduction_via_bpl", tampered_route)
    res = pipeline.reduce_pipeline(parse_pbm(RING_PBM.encode("ascii")))
    assert res.checks["bpl_match"] is False
    assert set(res.failed_checks) == {"bpl_match"}
    assert "g_f_plus_dh_plus_hd_identity[0]" in res.failed_checks["bpl_match"]
    assert pipeline.report_dict(res)["failed_checks"] == res.failed_checks


def test_homology_no_reduce_forms_the_boundary_product_twice(tmp_path, capsys, monkeypatch):
    # The constructor and betti each check D1 . D2 = 0; the report
    # reuses the constructor's result.
    img = random_image(48, 40, 0.6, 1)
    dims = boundary_matrices(build_cubical(img)).dims()
    path = tmp_path / "image.pbm"
    path.write_bytes(img.to_pbm())
    calls = []
    mul = Gf2Matrix.mul

    def counting_mul(a, b):
        if (a.rows, a.cols, b.cols) == dims:
            calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(Gf2Matrix, "mul", counting_mul)
    code, out, _ = run(capsys, ["homology", str(path), "--no-reduce"])
    assert code == 0
    assert json.loads(out)["checks"]["boundary"] is True
    assert len(calls) <= 2


def test_homology_missing_file_is_a_usage_error(tmp_path, capsys):
    code, out, err = run(capsys, ["homology", str(tmp_path / "nope.pbm")])
    assert code == 2 and out == ""
    assert "error:" in err


def test_homology_rejects_malformed_images(tmp_path, capsys):
    path = write(tmp_path, "bad.pbm", "P1\n2 2\n1 1 1\n")
    code, _, err = run(capsys, ["homology", path])
    assert code == 2 and "error:" in err


def test_pgm_threshold_changes_the_foreground(tmp_path, capsys):
    path = write(tmp_path, "grad.pgm", "P2\n2 1\n255\n100 200\n")
    _, out, _ = run(capsys, ["homology", path])
    assert json.loads(out)["original"] == {"c0": 4, "c1": 4, "c2": 1}
    _, out, _ = run(capsys, ["homology", path, "--threshold", "250"])
    report = json.loads(out)
    assert report["original"] == {"c0": 6, "c1": 7, "c2": 2}
    assert report["components"] == 1


def test_dvf_prints_the_frozen_dump(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "3 3\n1 0 0\n0 1 1\n1 0 1\n")
    code, out, err = run(capsys, ["dvf", path])
    assert code == 0 and err == ""
    assert out == "0 0 2\n2 2 1\n1 1 0\n0 -> 2\n2 -> 1\n"


def test_dvf_rejects_malformed_matrices(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "2 2\n1 0\n1\n")
    code, _, err = run(capsys, ["dvf", path])
    assert code == 2 and "error:" in err


def test_dvf_rejects_a_header_over_the_dimension_limit(tmp_path, capsys):
    path = write(tmp_path, "m.txt", f"{(1 << 20) + 1} 0\n")
    code, out, err = run(capsys, ["dvf", path])
    assert code == 2 and out == ""
    assert err == "error: header 1048577 0: each dimension must be 0 to 1048576\n"


def test_dvf_names_a_header_too_long_to_print_by_its_length(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "1" * 5000 + " 0\n")
    code, out, err = run(capsys, ["dvf", path])
    assert code == 2 and out == ""
    assert err == "error: bad matrix header: <5000 characters> '0'\n"
    assert len(err.encode()) < 200


def test_verify_single_image_prints_the_battery(tmp_path, capsys):
    path = write(tmp_path, "ring.pbm", RING_PBM)
    code, out, err = run(capsys, ["verify", path])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines == [f"{name}: 1/1" for name in BATTERY]


def test_verify_random_batch(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "--random", "3", "--size", "6", "6", "--density", "0.6", "--seed", "9"],
    )
    assert code == 0
    assert out.splitlines() == [f"{name}: 3/3" for name in BATTERY]


def test_verify_random_batch_in_a_process_pool(capsys, monkeypatch):
    monkeypatch.setenv("MORSEREDUCE_THREADS", "2")
    code, out, _ = run(
        capsys, ["verify", "--random", "2", "--size", "5", "5", "--seed", "4"]
    )
    assert code == 0
    assert out.splitlines() == [f"{name}: 2/2" for name in BATTERY]


def test_the_pool_has_at_most_one_process_per_job(capsys, monkeypatch):
    pools = []

    class SerialPool:
        """Records the pool size asked for and runs the jobs in this process."""

        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setenv("MORSEREDUCE_THREADS", "64")
    code, out, _ = run(capsys, ["verify", "--random", "2", "--size", "4", "4"])
    assert code == 0
    assert out.splitlines() == [f"{name}: 2/2" for name in BATTERY]
    assert pools == [2]
    assert multiprocessing.active_children() == []


def _run_python(*args, timeout):
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    paths = [str(src), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout
    )


def test_importing_the_cli_leaves_the_process_pool_unimported():
    done = _run_python(
        "-c", "import sys, morsereduce.cli; print('concurrent.futures.process' in sys.modules)",
        timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "False\n")


def test_an_image_with_no_columns_and_a_huge_height_is_read_at_once(tmp_path):
    # 19 bytes: no pixels, so no row of the raster is visited.
    path = tmp_path / "empty.pbm"
    path.write_bytes(b"P4\n0 1000000000000\n")
    done = _run_python("-m", "morsereduce", "homology", str(path), timeout=10)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["original"] == {"c0": 0, "c1": 0, "c2": 0}
    assert report["betti_original"] == [0, 0, 0]


def test_verify_rejects_ambiguous_input(tmp_path, capsys):
    path = write(tmp_path, "ring.pbm", RING_PBM)
    code, _, err = run(capsys, ["verify", path, "--random", "2"])
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, ["verify"])
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("count", ["-3", "x", "0"])
@pytest.mark.parametrize("image", [False, True], ids=["alone", "with-image"])
def test_verify_refuses_a_count_that_is_not_one_or_more(tmp_path, capsys, count, image):
    # --random 0 would verify nothing, so it is refused at parse time, with
    # or without an image path beside it.
    argv = ["verify", "--random", count]
    if image:
        argv.insert(1, write(tmp_path, "ring.pbm", RING_PBM))
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: morsereduce verify")
    assert f"argument --random: must be an integer, 1 or more, got '{count}'" in captured.err


def test_homology_refuses_fast_with_no_reduce(tmp_path, capsys):
    # --no-reduce runs no reduction, so --fast beside it would be dropped.
    path = write(tmp_path, "ring.pbm", RING_PBM)
    for flags in (["--fast", "--no-reduce"], ["--no-reduce", "--fast"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["homology", path, *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: morsereduce homology")
        assert "not allowed with argument" in captured.err


def test_verify_reports_failures_with_exit_one(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "ring.pbm", RING_PBM)
    broken = {name: True for name in BATTERY}
    broken["betti_equal"] = False
    monkeypatch.setattr(cli, "_battery_one", lambda img: broken)
    code, out, _ = run(capsys, ["verify", path])
    assert code == 1
    assert "betti_equal: 0/1" in out.splitlines()


def test_bench_writes_csv_rows(capsys, monkeypatch):
    argv = ["bench", "--size", "8", "8", "--trials", "2", "--seed", "3", "--fast"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    lines = out.splitlines()
    header = lines[0].split(",")
    assert header[:8] == ["trial", "c0", "c1", "c2", "nv", "reduced_c0", "reduced_c1", "reduced_c2"]
    assert header[8:] == [f"{k}_ms" for k in cli.STAGE_KEYS]
    assert len(lines) == 3
    for trial, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert len(cells) == len(header)
        assert cells[0] == str(trial)
        assert int(cells[1]) >= 0
    # Fast mode leaves the skipped stage columns empty.
    row = lines[1].split(",")
    skipped = {"dvf_check", "verify_reduction", "nilpotency", "bpl_route"}
    for key, cell in zip(cli.STAGE_KEYS, row[8:]):
        assert (cell == "") == (key in skipped)
    # A process pool writes the same rows in the same order; only the
    # values of the timing cells differ.
    monkeypatch.setenv("MORSEREDUCE_THREADS", "2")
    code, pooled, _ = run(capsys, argv)
    assert code == 0
    assert untimed(pooled) == untimed(out)


def test_bench_with_zero_trials_prints_only_the_header(capsys):
    code, out, _ = run(capsys, ["bench", "--trials", "0"])
    assert code == 0
    assert len(out.splitlines()) == 1


@pytest.mark.parametrize("count", ["-2", "x"])
def test_bench_refuses_a_count_that_is_not_zero_or_more(capsys, count):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "--trials", count])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # not even the header
    assert f"argument --trials: must be an integer, 0 or more, got '{count}'" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bench", "--density", "2"], "argument --density: must be a number in [0, 1], got '2'"),
        (["bench", "--trials", "0", "--density", "2"], "argument --density: must be a number in [0, 1], got '2'"),
        (["bench", "--density", "nan"], "argument --density: must be a number in [0, 1], got 'nan'"),
        (["bench", "--size", "4", "-1"], "argument --size: must be an integer, 0 or more, got '-1'"),
        (["verify", "--random", "1", "--density", "-0.5"], "argument --density: must be a number in [0, 1], got '-0.5'"),
        (["verify", "--random", "1", "--density", "x"], "argument --density: must be a number in [0, 1], got 'x'"),
        (["verify", "--random", "1", "--size", "x", "4"], "argument --size: must be an integer, 0 or more, got 'x'"),
    ],
    ids=[
        "bench-density-2",
        "bench-no-trials-density-2",
        "bench-density-nan",
        "bench-size-negative",
        "verify-density-negative",
        "verify-density-text",
        "verify-size-text",
    ],
)
def test_random_image_arguments_are_checked_before_any_output(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_bench_with_a_bad_thread_count_prints_no_header(capsys, monkeypatch):
    monkeypatch.setenv("MORSEREDUCE_THREADS", "two")
    code, out, err = run(capsys, ["bench", "--trials", "1", "--size", "4", "4"])
    assert code == 2 and out == ""
    assert err == "error: MORSEREDUCE_THREADS must be an integer, got 'two'\n"


def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys, monkeypatch):
    ring = write(tmp_path, "ring.pbm", RING_PBM)
    broken = {name: True for name in BATTERY}
    broken["euler"] = False
    monkeypatch.setattr(cli, "_battery_one", lambda img: broken)
    seen = []

    def spy(img, **kw):
        seen.append(gc.isenabled())
        return pipeline.reduce_pipeline(img, **kw)

    monkeypatch.setattr(cli, "reduce_pipeline", spy)
    runs = [
        (["homology", ring], 0),
        (["verify", ring], 1),
        (["homology", str(tmp_path / "nope.pbm")], 2),
    ]
    assert gc.isenabled()
    try:
        for was_enabled in (True, False):
            for argv, expected in runs:
                assert run(capsys, argv)[0] == expected
                assert gc.isenabled() is was_enabled
            with pytest.raises(SystemExit):
                cli.main(["verify", "--random", "-1"])
            assert gc.isenabled() is was_enabled
            with monkeypatch.context() as patch:
                patch.setattr(cli, "_cmd_dvf", lambda args: 1 / 0)
                with pytest.raises(ZeroDivisionError):
                    cli.main(["dvf", ring])
            assert gc.isenabled() is was_enabled
            gc.disable()
    finally:
        gc.enable()
    assert seen == [False, False]


def test_pool_workers_run_with_the_collector_paused(monkeypatch):
    monkeypatch.setenv("MORSEREDUCE_THREADS", "2")
    assert gc.isenabled()
    assert cli._map_jobs(operator.call, [gc.isenabled] * 2) == [False, False]
    assert multiprocessing.active_children() == []


def cyclic_garbage(capsys, argv):
    """Objects that only the cycle collector frees after one cli.main call, and its exit code."""
    gc.collect()
    gc.disable()
    try:
        code = cli.main(argv)
        capsys.readouterr()
        return gc.collect(), code
    finally:
        gc.enable()


def test_the_cyclic_garbage_of_a_command_does_not_grow_with_its_input(tmp_path, capsys):
    # argparse's parser and json's indented encoder leave a fixed number
    # of cycles. A cycle in the package would grow with the input and pile
    # up while main keeps the collector paused.
    small = write(tmp_path, "small.pbm", RING_PBM)
    large = str(tmp_path / "large.pbm")
    pathlib.Path(large).write_bytes(random_image(24, 20, 0.6, 3).to_pbm())
    small_m = write(tmp_path, "small.txt", "3 3\n1 0 0\n0 1 1\n1 0 1\n")
    grid = [[int((i * j + i) % 3 == 0) for j in range(12)] for i in range(12)]
    large_m = write(tmp_path, "large.txt", "12 12\n" + "".join(" ".join(map(str, row)) + "\n" for row in grid))
    small_bad = write(tmp_path, "small_bad.pbm", "P1\n2 2\n1 1 1\n")
    large_bad = write(tmp_path, "large_bad.pbm", "P1\n40 40\n" + "1 0 " * 700)
    batch = ["--size", "6", "6", "--density", "0.6"]
    paths = [
        (["homology", small], ["homology", large], 0),
        (["homology", "--fast", small], ["homology", "--fast", large], 0),
        (["homology", "--no-reduce", small], ["homology", "--no-reduce", large], 0),
        (["dvf", small_m], ["dvf", large_m], 0),
        (["verify", small], ["verify", large], 0),
        (["verify", "--random", "1", *batch], ["verify", "--random", "3", *batch], 0),
        (["bench", "--trials", "1", *batch], ["bench", "--trials", "3", *batch], 0),
        (["homology", small_bad], ["homology", large_bad], 2),
    ]
    for small_argv, large_argv, code in paths:
        # The first call warms the caches that a path fills once.
        assert cyclic_garbage(capsys, small_argv)[1] == code
        assert cyclic_garbage(capsys, small_argv) == cyclic_garbage(capsys, large_argv)


def test_entry_point_exits_with_main_status(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["morsereduce", "homology", str(tmp_path / "x.pbm")])
    with pytest.raises(SystemExit) as exc:
        cli.main_entry()
    assert exc.value.code == 2
