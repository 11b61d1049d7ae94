"""End-to-end homology pipeline for binary images.

Builds the cubical complex, constructs and verifies a discrete vector
field on D1, reduces along it, recomputes the same reduction through the
perturbation lemma, and compares Betti numbers of the original and
reduced complexes. Every algebraic claim is re-checked at runtime unless
fast mode is requested.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .complexes import ReductionTriple, TruncatedComplex, betti, verify_reduction
from .cubical import build_cubical, boundary_matrices
from .gf2 import Gf2Matrix
from .image import BinaryImage, count_components
from .perturbation import vf_reduction_via_bpl
from .reduction import ReorderedComplex, hexagonal_reduce, reorder
from .vectorfield import DiscreteVectorField, check_admissible, rs_algorithm, sort_by_lambda

__all__ = ["PipelineResult", "reduce_pipeline", "report_dict"]

# Order of the per-stage timing keys; fast mode leaves skipped stages absent.
STAGE_KEYS = (
    "components",
    "build",
    "dvf",
    "dvf_check",
    "reorder",
    "reduce",
    "verify_reduction",
    "betti_original",
    "betti_reduced",
    "nilpotency",
    "bpl_route",
    "total",
)

# Order of the pipeline's checks in reports; fast mode reports the skipped
# ones as None.
CHECK_KEYS = ("dvf", "triangular", "boundary", "reduction_axioms", "bpl_match", "nilpotency")


@dataclass
class PipelineResult:
    """Everything one image run produces: complexes, maps, checks, timings."""

    image: BinaryImage
    components: int
    original: TruncatedComplex
    vector_field: DiscreteVectorField
    reordered: ReorderedComplex
    reduced: TruncatedComplex
    triple: ReductionTriple
    betti_original: dict[int, int]
    betti_reduced: dict[int, int]
    checks: dict[str, bool | None] = field(default_factory=dict)
    timings_ms: dict[str, float] = field(default_factory=dict)

    @property
    def nv(self) -> int:
        return self.reordered.nv

    @property
    def ok(self) -> bool:
        return all(v is not False for v in self.checks.values())


def reduce_pipeline(img: BinaryImage, fast: bool = False) -> PipelineResult:
    """Run the whole chain on one image.

    With fast=True the admissibility re-check, the reduction axioms, the
    nilpotency power, and the perturbation-lemma cross-check are skipped
    and reported as None; constructions still validate their own
    invariants (boundary conditions, triangularity).
    """
    timings: dict[str, float] = {}
    checks: dict[str, bool | None] = {}
    t_start = time.perf_counter()

    def clock(key: str, start: float) -> None:
        timings[key] = (time.perf_counter() - start) * 1000.0

    t0 = time.perf_counter()
    components = count_components(img)
    clock("components", t0)

    t0 = time.perf_counter()
    original = boundary_matrices(build_cubical(img))
    clock("build", t0)
    checks["boundary"] = original.d1.mul(original.d2).is_zero()

    t0 = time.perf_counter()
    vf = rs_algorithm(original.d1)
    clock("dvf", t0)

    if fast:
        checks["dvf"] = None
    else:
        t0 = time.perf_counter()
        checks["dvf"] = check_admissible(original.d1, vf).ok
        clock("dvf_check", t0)

    t0 = time.perf_counter()
    rc = reorder(original, sort_by_lambda(vf))
    clock("reorder", t0)
    # reorder raises TriangularityViolation otherwise, so reaching here
    # means the paired block is unit lower triangular.
    checks["triangular"] = rc.L.is_lower_unitriangular()

    t0 = time.perf_counter()
    reduced, triple = hexagonal_reduce(rc)
    clock("reduce", t0)

    if fast:
        checks["reduction_axioms"] = None
    else:
        t0 = time.perf_counter()
        checks["reduction_axioms"] = verify_reduction(triple).ok
        clock("verify_reduction", t0)

    t0 = time.perf_counter()
    betti_orig = betti(original)
    clock("betti_original", t0)
    t0 = time.perf_counter()
    betti_red = betti(reduced)
    clock("betti_reduced", t0)

    if fast:
        checks["nilpotency"] = None
        checks["bpl_match"] = None
    else:
        t0 = time.perf_counter()
        shifted = rc.L + Gf2Matrix.identity(rc.nv)
        checks["nilpotency"] = shifted.pow(rc.nv).is_zero()
        clock("nilpotency", t0)

        t0 = time.perf_counter()
        alt = vf_reduction_via_bpl(rc)
        checks["bpl_match"] = (
            alt.small.d(1) == reduced.d1 and alt.small.d(2) == reduced.d2
        )
        clock("bpl_route", t0)

    timings["total"] = (time.perf_counter() - t_start) * 1000.0
    return PipelineResult(
        image=img,
        components=components,
        original=original,
        vector_field=vf,
        reordered=rc,
        reduced=reduced,
        triple=triple,
        betti_original=betti_orig,
        betti_reduced=betti_red,
        checks=checks,
        timings_ms=timings,
    )


def report_dict(res: PipelineResult) -> dict:
    """The JSON-ready report for one pipeline run."""
    return {
        "original": {
            "c0": res.original.c0,
            "c1": res.original.c1,
            "c2": res.original.c2,
        },
        "nv": res.nv,
        "reduced": {
            "c0": res.reduced.c0,
            "c1": res.reduced.c1,
            "c2": res.reduced.c2,
        },
        "betti_original": [res.betti_original[k] for k in (0, 1, 2)],
        "betti_reduced": [res.betti_reduced[k] for k in (0, 1, 2)],
        "components": res.components,
        "checks": {key: res.checks.get(key) for key in CHECK_KEYS},
        "timings_ms": {k: res.timings_ms[k] for k in STAGE_KEYS if k in res.timings_ms},
    }
