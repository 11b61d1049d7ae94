"""Benchmark of the morsereduce pipeline, driven from outside the package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli-sparse-192 --seed 1 --seconds 45 --trace 0

It imports the package from ``src/``, makes its images from ``--seed``,
and calls the public API on them one after another in this process until
``--seconds`` have passed (a closed loop with one caller). Every output is
checked against the independent oracle in ``bench_oracle``. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The end-to-end times are wall times
rescaled to a nominal host speed, which a fixed job in ``bench_reference``
gauges around every timed call. The line before it records the
environment, the plain wall times and every image's outputs. See
README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import bench_oracle
import bench_reference
from bench_trace import Tracer

ROOT = Path(__file__).resolve().parent.parent

SETUP_REPEATS = 9

_COMMON_SPANS = frozenset({
    "pipeline.reduce_pipeline",
    "image.count_components",
    "cubical.build_cubical",
    "cubical.boundary_matrices",
    "vectorfield.rs_algorithm",
    "vectorfield.sort_by_lambda",
    "reduction.reorder",
    "reduction.hexagonal_reduce",
    "complexes.betti",
    "gf2.mul",
    "gf2.transpose",
    "gf2.permute",
    "gf2.rank",
    "gf2.inv_unit_lower_triangular",
})
_CERTIFIED_SPANS = frozenset({
    "vectorfield.check_admissible",
    "complexes.verify_reduction",
    "perturbation.vf_reduction_via_bpl",
    "perturbation.bpl",
    "perturbation.decompose",
    "perturbation.hexagonal_general",
    "gf2.right_kernel_basis",
    "gf2.inverse",
    "gf2.pow",
    "gf2.nilpotent_series_inverse",
})
_CLI_SPANS = frozenset({"cli.main", "image.load_image", "image.parse_pbm", "pipeline.report_dict"})


@dataclass(frozen=True)
class Workload:
    """One set of inputs: n x n images of one density, run in one mode."""

    name: str
    size: int
    density: float
    mode: str  # "certified": reduce_pipeline(fast=False); "cli": cli.main homology --fast
    pool: int  # distinct images made per run; the timed loop cycles through them
    spans: frozenset[str]  # spans a traced run must see fire


# Why these two: each is slow in different layers. certified-32 is the
# fully verified path, where the perturbation cross-check and the dense
# GF(2) kernels do ~90% of the work. cli-sparse-192 is the file-ingest
# path with many small components: building, pairing and permuting the
# sparse boundary rows, five full D1.D2 products and the reduction's
# L^-1 T dominate, and f, g, h are built though nothing reads them.
# A fast-128 workload (reduce_pipeline --fast on dense 128x128 images)
# was dropped: on a shared host its run medians spread by up to 0.38.
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("certified-32", 32, 0.6, "certified", 32, _COMMON_SPANS | _CERTIFIED_SPANS),
        Workload("cli-sparse-192", 192, 0.35, "cli", 8, _COMMON_SPANS | _CLI_SPANS),
    )
}

END_TO_END = (
    ("latency_p50_s", "s"),
    ("cells_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# Per-layer metrics of the traced run. "calls" and "self_ms"/"total_ms" are
# per image. A span that fires on only some workloads is reported as a
# share of the traced wall time ("self_pct"/"total_pct") instead: on the
# other workloads it is 0, and a share stays comparable across workloads.
PER_LAYER = (
    ("gf2.mul.calls", "calls/image"),
    ("gf2.mul.self_ms", "ms/image"),
    ("gf2.mul.boundary_calls", "calls/image"),
    ("gf2.inv_unit_lower_triangular.calls", "calls/image"),
    ("gf2.inv_unit_lower_triangular.self_ms", "ms/image"),
    ("gf2.permute.self_ms", "ms/image"),
    ("gf2.transpose.self_ms", "ms/image"),
    ("gf2.rank.calls", "calls/image"),
    ("gf2.rank.self_ms", "ms/image"),
    ("gf2.right_kernel_basis.calls", "calls/image"),
    ("gf2.right_kernel_basis.self_pct", "%"),
    ("gf2.inverse.calls", "calls/image"),
    ("gf2.inverse.self_pct", "%"),
    ("gf2.pow.calls", "calls/image"),
    ("gf2.pow.self_pct", "%"),
    ("gf2.nilpotent_series_inverse.calls", "calls/image"),
    ("gf2.nilpotent_series_inverse.self_pct", "%"),
    ("perturbation.vf_reduction_via_bpl.total_pct", "%"),
    ("perturbation.decompose.total_pct", "%"),
    ("perturbation.hexagonal_general.total_pct", "%"),
    ("perturbation.bpl.self_pct", "%"),
    ("complexes.verify_reduction.calls", "calls/image"),
    ("complexes.verify_reduction.self_pct", "%"),
    ("complexes.betti.self_ms", "ms/image"),
    ("reduction.reorder.self_ms", "ms/image"),
    ("reduction.hexagonal_reduce.self_ms", "ms/image"),
    ("reduction.linv_fill", "ratio"),
    ("reduction.critical_ratio", "ratio"),
    ("reduction.bytes_per_nnz_computed", "B/nnz"),
    ("vectorfield.rs_algorithm.self_ms", "ms/image"),
    ("vectorfield.sort_by_lambda.self_ms", "ms/image"),
    ("vectorfield.check_admissible.self_pct", "%"),
    ("cubical.build_cubical.self_ms", "ms/image"),
    ("cubical.boundary_matrices.self_ms", "ms/image"),
    ("cubical.cells", "count/image"),
    ("image.count_components.self_ms", "ms/image"),
    ("image.load_image.self_pct", "%"),
    ("image.parse_pbm.self_pct", "%"),
    ("image.foreground_px", "count/image"),
    ("pipeline.reduce_pipeline.self_ms", "ms/image"),
    ("cli.main.self_pct", "%"),
    ("pipeline.components_ms", "ms/image"),
    ("pipeline.build_ms", "ms/image"),
    ("pipeline.dvf_ms", "ms/image"),
    ("pipeline.reorder_ms", "ms/image"),
    ("pipeline.reduce_ms", "ms/image"),
    ("pipeline.betti_original_ms", "ms/image"),
    ("pipeline.betti_reduced_ms", "ms/image"),
    ("pipeline.total_ms", "ms/image"),
    ("pipeline.dvf_check_pct", "%"),
    ("pipeline.verify_reduction_pct", "%"),
    ("pipeline.nilpotency_pct", "%"),
    ("pipeline.bpl_route_pct", "%"),
    ("trace.latency_p50_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class MissingSpans(RuntimeError):
    """A span the workload must fire never did: the package was renamed or restructured."""


@dataclass
class Sample:
    """One timed call on one image and what it returned."""

    image: int
    latency_s: float
    cells: int
    report: dict | None
    problems: list[str]
    host_factor: float = 1.0  # bench_reference.NOMINAL_S over the reference job's time around the call
    inspect: dict[str, float] = field(default_factory=dict)

    @property
    def scaled_s(self) -> float:
        """The latency rescaled to the nominal host speed."""
        return self.latency_s * self.host_factor


def image_seed(seed: int, index: int) -> int:
    return (seed << 20) + index


def git_revision(root: Path) -> str | None:
    """HEAD of the checkout's git directory, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def import_package(root: Path) -> None:
    """Import morsereduce from the checkout's src/, and nowhere else."""
    src = (root / "src").resolve()
    if not (src / "morsereduce" / "__init__.py").is_file():
        raise FileNotFoundError(f"no morsereduce package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("morsereduce")
    importlib.import_module("morsereduce.cli")
    if not Path(pkg.__file__).resolve().is_relative_to(src):
        raise ImportError(f"imported morsereduce from {pkg.__file__}, not from {src}")


_IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import morsereduce, morsereduce.cli; print(time.perf_counter() - t)"
)


def fresh_import_s(root: Path) -> float:
    """Seconds a fresh interpreter takes to import the package, as a CLI user pays."""
    out = subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT_TIMER, str((root / "src").resolve())],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout)


def make_inputs(wl: Workload, seed: int, workdir: Path) -> list:
    """The workload's images, or for the CLI workload their PBM file paths."""
    image = sys.modules["morsereduce.image"]
    images = [image.random_image(wl.size, wl.size, wl.density, image_seed(seed, i))
              for i in range(wl.pool)]
    if wl.mode != "cli":
        return images
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, img in enumerate(images):
        path = workdir / f"image{i}.pbm"
        path.write_bytes(img.to_pbm())
        paths.append(str(path))
    return paths


def pipeline_report(res) -> dict:
    """The fields of a PipelineResult the oracle and the record read."""
    return {
        "original": {"c0": res.original.c0, "c1": res.original.c1, "c2": res.original.c2},
        "nv": res.nv,
        "reduced": {"c0": res.reduced.c0, "c1": res.reduced.c1, "c2": res.reduced.c2},
        "betti_original": [res.betti_original[k] for k in (0, 1, 2)],
        "betti_reduced": [res.betti_reduced[k] for k in (0, 1, 2)],
        "components": res.components,
        "checks": dict(res.checks),
        "timings_ms": dict(res.timings_ms),
    }


def make_call(wl: Workload):
    """The timed call for one input, and the conversion of its result to a report.

    Package functions are looked up on their modules at call time, so a
    tracer's wrappers are seen.
    """
    pipeline = sys.modules["morsereduce.pipeline"]
    cli = sys.modules["morsereduce.cli"]
    if wl.mode == "certified":
        return (lambda img: pipeline.reduce_pipeline(img, fast=False)), pipeline_report

    def call(path: str) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["homology", "--fast", path])
        return code, out.getvalue()

    def report(result: tuple[int, str]) -> dict:
        code, text = result
        if code != 0:
            raise RuntimeError(f"homology exited with code {code}")
        return json.loads(text)

    return call, report


def run_images(wl, inputs, oracle, seconds=None, count=None, first=0, before=None, after=None, gauge=False):
    """Call the package on inputs in turn from input ``first``, until ``seconds`` pass or ``count`` calls.

    At least one call is made. ``oracle(k)`` gives image k's expected
    output; ``before(expected)`` and ``after(sample)`` run outside the
    timed call. With ``gauge``, the reference job is timed before the
    first call and after each call, and each sample's ``host_factor``
    comes from the two timings around it.
    """
    call, to_report = make_call(wl)
    samples: list[Sample] = []
    start = time.perf_counter()
    ref_s = bench_reference.gauge_s() if gauge else None
    while True:
        i = len(samples)
        if count is not None and i >= count:
            break
        if count is None and i > 0 and time.perf_counter() - start >= seconds:
            break
        k = (first + i) % len(inputs)
        exp = oracle(k)
        if before is not None:
            before(exp)
        t0 = time.perf_counter()
        try:
            result = call(inputs[k])
            error = None
        except Exception:  # a failing image is counted, not fatal
            error = traceback.format_exc()
        latency = time.perf_counter() - t0
        host_factor = 1.0
        if gauge:
            ref_after = bench_reference.gauge_s()
            host_factor = 2 * bench_reference.NOMINAL_S / (ref_s + ref_after)
            ref_s = ref_after
        report, problems = None, []
        if error is None:
            try:
                report = to_report(result)
                problems = bench_oracle.problems(report, exp)
            except Exception:  # an unreadable report fails this image only
                error = traceback.format_exc()
            del result
        if error is not None:
            print(f"image {k}: {error}", file=sys.stderr)
            problems = [error.strip().splitlines()[-1]]
        sample = Sample(k, latency, exp.cells if report is not None else 0, report, problems, host_factor)
        if after is not None:
            after(sample)
        samples.append(sample)
    return samples


def end_to_end(samples: list[Sample], setup_s: float) -> dict[str, float]:
    """The end-to-end metrics; times are rescaled to the nominal host speed."""
    latencies = [s.scaled_s for s in samples]
    return {
        "latency_p50_s": statistics.median(latencies),
        "cells_per_s": sum(s.cells for s in samples) / sum(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def _nnz(bits) -> int:
    return sum(w.bit_count() for w in bits)


def inspect_result(res) -> dict[str, float]:
    """Fill and size figures of one pipeline result, read after the call."""
    rc = res.reordered
    rows = rc.reordered.d1.bits + rc.reordered.d2.bits
    return {
        "reduction.linv_fill": _nnz(res.triple.h(0).bits) / max(1, _nnz(rc.L.bits)),
        "reduction.critical_ratio": sum(res.reduced.dims()) / sum(res.original.dims()),
        "reduction.bytes_per_nnz_computed": sum(sys.getsizeof(w) for w in rows) / max(1, _nnz(rows)),
    }


def per_layer(plain: list[Sample], traced: list[Sample], tracer: Tracer) -> dict[str, float]:
    """Every PER_LAYER metric, from untraced and traced calls on the same images."""
    n = len(traced)
    summary = tracer.summary()
    durations = tracer.durations()
    traced_wall = sum(durations[i] for i in tracer.roots())
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    stages: dict[str, float] = {}
    for s in plain:
        for key, ms in (s.report or {}).get("timings_ms", {}).items():
            stages[key] = stages.get(key, 0.0) + ms
    inspected = [s.inspect for s in traced if s.inspect]
    values: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        head, _, kind = name.rpartition(".")
        row = summary.get(head, zero)
        if head == "reduction" and kind in ("linv_fill", "critical_ratio", "bytes_per_nnz_computed"):
            value = statistics.median(i[name] for i in inspected) if inspected else 0.0
        elif head == "pipeline" and kind.endswith("_ms") and kind[:-3] in stages:
            value = stages[kind[:-3]] / len(plain)
        elif head == "pipeline" and kind.endswith("_pct"):
            value = 100.0 * stages.get(kind[:-4], 0.0) / stages.get("total", 1.0)
        elif kind == "calls":
            value = row["calls"] / n
        elif kind in ("self_ms", "total_ms"):
            value = 1000.0 * row[kind[:-3] + "_s"] / n
        elif kind in ("self_pct", "total_pct"):
            value = 100.0 * row[kind[:-4] + "_s"] / traced_wall
        elif name == "gf2.mul.boundary_calls":
            value = tracer.counters[name] / n
        elif name == "cubical.cells":
            value = sum(s.cells for s in traced) / n
        elif name == "image.foreground_px":
            value = sum(s.report["original"]["c2"] for s in traced if s.report) / n
        elif name == "trace.latency_p50_s":
            value = statistics.median(s.latency_s for s in traced)
        elif name == "trace.overhead_ratio":
            value = statistics.median(t.latency_s / p.latency_s for p, t in zip(plain, traced))
        else:
            raise KeyError(f"no rule computes per-layer metric {name}")
        values[name] = value
    return values


def traced_run(wl: Workload, inputs, oracle, seconds=None, count=None):
    """Run each image untraced and traced, until ``seconds`` pass or ``count`` pairs.

    Pairing the two calls on one image, back to back, keeps drift in the
    host's speed out of the overhead ratio, and alternating which call of
    a pair goes first keeps out the advantage of going second. An untimed
    first call keeps the process's first growth of its heap out of it.
    Returns the untraced samples, the traced samples and the tracer.
    """
    tracer = Tracer()
    dims: list[tuple[int, int, int]] = [(-1, -1, -1)]
    captured: list = []

    def count_boundary(a, b) -> None:
        if (a.rows, a.cols, b.cols) == dims[0]:
            tracer.counters["gf2.mul.boundary_calls"] += 1

    def before(exp) -> None:
        dims[0] = (exp.c0, exp.c1, exp.c2)

    def after(sample: Sample) -> None:
        if captured:
            sample.inspect = inspect_result(captured.pop())
        captured.clear()

    run_images(wl, inputs, oracle, count=1)
    plain: list[Sample] = []
    traced: list[Sample] = []
    start = time.perf_counter()

    def more() -> bool:
        if count is not None:
            return len(plain) < count
        return not plain or time.perf_counter() - start < seconds

    def traced_call() -> None:
        tracer.install(
            on_call={"gf2.mul": count_boundary},
            on_return={"pipeline.reduce_pipeline": captured.append},
        )
        try:
            traced.extend(run_images(wl, inputs, oracle, count=1, first=len(traced),
                                     before=before, after=after))
        finally:
            tracer.uninstall()

    while more():
        if len(plain) % 2:
            traced_call()
        plain.extend(run_images(wl, inputs, oracle, count=1, first=len(plain)))
        if len(traced) < len(plain):
            traced_call()
    missing = sorted(wl.spans - set(tracer.names))
    if missing:
        raise MissingSpans(f"{wl.name}: spans never fired: {', '.join(missing)}")
    return plain, traced, tracer


def sample_record(seed: int, s: Sample) -> dict:
    rec = {"image_seed": image_seed(seed, s.image), "latency_s": s.latency_s, "host_factor": s.host_factor}
    if s.report is not None:
        rep = s.report
        rec.update({
            "c": [rep["original"][k] for k in ("c0", "c1", "c2")],
            "nv": rep["nv"],
            "reduced": [rep["reduced"][k] for k in ("c0", "c1", "c2")],
            "betti": rep["betti_original"],
            "timings_ms": rep["timings_ms"],
        })
    if s.problems:
        rec["problems"] = s.problems
    return rec


def run(wl: Workload, seed: int, seconds: float, trace: bool, root: Path = ROOT) -> tuple[dict, dict]:
    """One benchmark run; returns the result object and the record of the run."""
    import_package(root)
    workdir = root / ".bench_work" / f"{wl.name}-{seed}-{os.getpid()}"
    try:
        # Set-up is importing the package in a fresh interpreter plus making
        # the inputs. It is repeated, with the reference job timed before
        # each repeat and after the last, and the median repeat is rescaled
        # to the nominal host speed by the median reference time.
        setup_times, ref_times = [], [bench_reference.gauge_s()]
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = make_inputs(wl, seed, workdir)
            make_s = time.perf_counter() - t0
            setup_times.append(fresh_import_s(root) + make_s)
            ref_times.append(bench_reference.gauge_s())
        setup_s = statistics.median(setup_times) * bench_reference.NOMINAL_S / statistics.median(ref_times)

        expected: dict[int, bench_oracle.Expected] = {}

        def oracle(k: int) -> bench_oracle.Expected:
            if k not in expected:
                rows = bench_oracle.seeded_pixels(wl.size, wl.size, wl.density, image_seed(seed, k))
                expected[k] = bench_oracle.expected(rows)
            return expected[k]

        record = {
            "workload": wl.name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "git_revision": git_revision(root),
            "morsereduce_threads": os.environ.get("MORSEREDUCE_THREADS"),
            "size": [wl.size, wl.size],
            "density": wl.density,
            "mode": wl.mode,
            "pool": wl.pool,
            "setup_runs_s": setup_times,
        }
        if not trace:
            # One untimed call first, on the pool's last image, so that the
            # heap has grown before timing starts; its output is still checked.
            warm = run_images(wl, inputs, oracle, count=1, first=len(inputs) - 1)
            timed = run_images(wl, inputs, oracle, seconds=seconds, gauge=True)
            metrics = end_to_end(timed, setup_s)
            units = dict(END_TO_END)
            record["samples"] = {"warm_up": len(warm), "timed": len(timed)}
            record["wall"] = {
                "latency_p50_s": statistics.median(s.latency_s for s in timed),
                "cells_per_s": sum(s.cells for s in timed) / sum(s.latency_s for s in timed),
                "setup_s": statistics.median(setup_times),
            }
            record["host_factor_median"] = statistics.median(s.host_factor for s in timed)
            record["stage_ms_median"] = {
                key: statistics.median(s.report["timings_ms"][key] for s in timed if s.report)
                for key in (timed[0].report or {}).get("timings_ms", {})
            }
            samples = warm + timed
        else:
            plain, traced, tracer = traced_run(wl, inputs, oracle, seconds=seconds)
            metrics = per_layer(plain, traced, tracer)
            units = dict(PER_LAYER)
            samples = plain + traced
            record["samples"] = {"untraced": len(plain), "traced": len(traced)}
            record["spans"] = dict(sorted(tracer.summary().items()))
            trace_path = root / ".bench_work" / f"trace-{wl.name}-seed{seed}.json"
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            trace_path.write_text(json.dumps({"record": record, "spans": tracer.spans()}))
            record["trace_file"] = str(trace_path.relative_to(root))
        record["images"] = [sample_record(seed, s) for s in samples]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for s in samples if s.problems)
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (OSError, ImportError, subprocess.SubprocessError, ValueError, MissingSpans) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
