"""Tests of the benchmark's own code: oracle, tracer, and result shape.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

import bench_oracle
import bench_reference
import run
from bench_trace import Tracer

run.import_package(run.ROOT)

import morsereduce  # noqa: E402  (importable once import_package put src/ on the path)
from morsereduce import BinaryImage, random_image, reduce_pipeline  # noqa: E402


@pytest.mark.parametrize(
    "width,height,density,seed",
    [(6, 6, 0.5, 0), (9, 7, 0.6, 1), (12, 12, 0.35, 2), (10, 10, 0.8, 3), (1, 9, 0.5, 4), (16, 5, 0.45, 5)],
)
def test_oracle_agrees_with_the_pipeline_on_seeded_images(width, height, density, seed):
    rows = bench_oracle.seeded_pixels(width, height, density, seed)
    img = random_image(width, height, density, seed)
    assert rows == [[img.get(r, c) for c in range(width)] for r in range(height)]
    exp = bench_oracle.expected(rows)
    res = reduce_pipeline(img, fast=False)
    assert bench_oracle.problems(run.pipeline_report(res), exp) == []
    assert (exp.c0, exp.c1, exp.c2) == res.original.dims()
    assert exp.betti == [res.betti_original[k] for k in (0, 1, 2)]


@pytest.mark.parametrize(
    "rows,c,betti",
    [
        ([[1, 1, 1], [1, 0, 1], [1, 1, 1]], (16, 24, 8), [1, 1, 0]),  # ring
        ([[1, 0], [0, 1]], (7, 8, 2), [1, 0, 0]),  # diagonal pixels share a corner
        ([[0, 0, 0], [0, 0, 0]], (0, 0, 0), [0, 0, 0]),  # empty
        ([[1, 0, 1]], (8, 8, 2), [2, 0, 0]),  # two separate pixels
    ],
)
def test_oracle_on_hand_made_shapes(rows, c, betti):
    exp = bench_oracle.expected(rows)
    assert (exp.c0, exp.c1, exp.c2) == c
    assert exp.betti == betti
    res = reduce_pipeline(BinaryImage.from_rows(rows), fast=False)
    assert bench_oracle.problems(run.pipeline_report(res), exp) == []


def test_oracle_reports_every_disagreement():
    exp = bench_oracle.expected([[1, 1, 1], [1, 0, 1], [1, 1, 1]])
    report = {
        "original": {"c0": 16, "c1": 24, "c2": 9},
        "betti_original": [1, 1, 0],
        "betti_reduced": [1, 0, 0],
        "components": 2,
        "checks": {"boundary": True, "dvf": None, "bpl_match": False},
    }
    found = bench_oracle.problems(report, exp)
    assert len(found) == 4
    assert any("cell counts" in p for p in found)
    assert any("betti_reduced" in p for p in found)
    assert any("components" in p for p in found)
    assert any("bpl_match" in p for p in found)


def _small(name: str, **changes) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], **changes)


def _inputs_and_oracle(wl, seed, tmp_path):
    inputs = run.make_inputs(wl, seed, tmp_path)

    def oracle(k):
        rows = bench_oracle.seeded_pixels(wl.size, wl.size, wl.density, run.image_seed(seed, k))
        return bench_oracle.expected(rows)

    return inputs, oracle


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_self_times_sum_to_the_measured_wall_time(name, tmp_path):
    wl = _small(name, size=12, pool=2)
    inputs, oracle = _inputs_and_oracle(wl, 7, tmp_path)
    plain, samples, tracer = run.traced_run(wl, inputs, oracle, count=3)
    assert [s.problems for s in plain + samples] == [[]] * 6
    roots = tracer.roots()
    assert len(roots) == 3
    durations = tracer.durations()
    root_total = sum(durations[i] for i in roots)
    assert math.isclose(sum(tracer.self_times()), root_total, rel_tol=1e-9)
    assert all(t >= 0 for t in tracer.self_times())
    wall = sum(s.latency_s for s in samples)
    # The root spans sit inside the timed calls; what is left is the
    # root wrappers' own cost plus, for the CLI, stdout capture.
    assert root_total <= wall
    assert wall - root_total < 0.05 * wall + 0.005


def test_traced_run_counts_five_boundary_products_per_fast_image(tmp_path):
    wl = _small("cli-sparse-192", size=12, pool=2)
    inputs, oracle = _inputs_and_oracle(wl, 3, tmp_path)
    _, samples, tracer = run.traced_run(wl, inputs, oracle, count=2)
    assert tracer.counters["gf2.mul.boundary_calls"] == 10
    names = set(tracer.names)
    assert not any(n.startswith("perturbation.") for n in names)
    assert "complexes.verify_reduction" not in names
    assert all(set(s.inspect) == {"reduction.linv_fill", "reduction.critical_ratio",
                                  "reduction.bytes_per_nnz_computed"} for s in samples)


def test_missing_span_fails_the_traced_run(tmp_path):
    wl = _small("cli-sparse-192", size=8, pool=1, spans=frozenset({"pipeline.renamed_stage"}))
    inputs, oracle = _inputs_and_oracle(wl, 1, tmp_path)
    with pytest.raises(run.MissingSpans, match="pipeline.renamed_stage"):
        run.traced_run(wl, inputs, oracle, count=1)


def test_uninstall_restores_every_original():
    gf2 = morsereduce.gf2.Gf2Matrix
    before = (gf2.mul, morsereduce.pipeline.verify_reduction,
              morsereduce.perturbation.verify_reduction, morsereduce.verify_reduction)
    tracer = Tracer()
    installed = tracer.install()
    assert "complexes.verify_reduction" in installed and "gf2.mul" in installed
    assert morsereduce.pipeline.verify_reduction is morsereduce.perturbation.verify_reduction
    assert morsereduce.pipeline.verify_reduction is not before[1]
    tracer.uninstall()
    after = (gf2.mul, morsereduce.pipeline.verify_reduction,
             morsereduce.perturbation.verify_reduction, morsereduce.verify_reduction)
    assert after == before


def test_self_time_subtracts_only_direct_children():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner() or inner())
    outer()  # outer 0..5, inner 1..2 and 3..4
    assert tracer.durations() == [5.0, 1.0, 1.0]
    assert tracer.self_times() == [3.0, 1.0, 1.0]
    summary = tracer.summary()
    assert summary["outer"] == {"calls": 1, "self_s": 3.0, "total_s": 5.0}
    assert summary["inner"] == {"calls": 2, "self_s": 2.0, "total_s": 2.0}


def test_end_to_end_times_are_rescaled_by_the_reference_job(tmp_path, monkeypatch):
    # A host on which the reference job takes twice its nominal time runs
    # at half speed, so every timed call counts half its wall time.
    monkeypatch.setattr(bench_reference, "gauge_s", lambda: 2 * bench_reference.NOMINAL_S)
    wl = _small("certified-32", size=8, pool=2)
    inputs, oracle = _inputs_and_oracle(wl, 4, tmp_path)
    samples = run.run_images(wl, inputs, oracle, count=3, gauge=True)
    assert [s.host_factor for s in samples] == [0.5] * 3
    metrics = run.end_to_end(samples, setup_s=1.0)
    wall = [s.latency_s for s in samples]
    assert math.isclose(metrics["latency_p50_s"], 0.5 * sorted(wall)[1])
    assert math.isclose(metrics["cells_per_s"], 2 * sum(s.cells for s in samples) / sum(wall))
    assert [s.host_factor for s in run.run_images(wl, inputs, oracle, count=2)] == [1.0] * 2


def test_reference_job_is_fixed():
    assert bench_reference._eliminate() == bench_reference._eliminate() == 512
    assert bench_reference.gauge_s() > 0


@pytest.mark.parametrize("trace", [False, True])
def test_run_prints_every_declared_metric(trace):
    wl = _small("cli-sparse-192", size=10, pool=2)
    result, record = run.run(wl, seed=5, seconds=0, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(declared)
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert record["python"] and record["cpu_count"] and record["images"][0]["betti"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
