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
from typing import Any, Callable

from .complexes import ReductionTriple, TruncatedComplex, betti, verify_reduction
from .cubical import build_cubical, boundary_matrices
from .gf2 import Gf2Matrix
from .image import BinaryImage, count_components
from .perturbation import vf_reduction_via_bpl
from .reduction import ReorderedComplex, hexagonal_reduce, reorder
from .vectorfield import DiscreteVectorField, check_admissible, rs_algorithm, sort_by_lambda
from .verification import VerificationError, VerificationReport

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

# The pipeline's checks in report order, each mapped to the timing stage
# that runs it. Fast mode skips exactly the checks that own a stage and
# reports them as None; boundary and triangular own none and always run,
# untimed, right after build and reorder.
CHECKS = {
    "dvf": "dvf_check",
    "triangular": None,
    "boundary": None,
    "reduction_axioms": "verify_reduction",
    "bpl_match": "bpl_route",
    "nilpotency": "nilpotency",
}


@dataclass
class PipelineResult:
    """Everything one image run produces: complexes, maps, checks, timings.

    A run that does not reduce has no vector field, reordering or triple.
    failed_checks maps a check that failed on a verification report to
    the labels of the identities that failed, such as "h_h_zero[1]".
    """

    image: BinaryImage
    components: int
    original: TruncatedComplex
    vector_field: DiscreteVectorField | None
    reordered: ReorderedComplex | None
    reduced: TruncatedComplex
    triple: ReductionTriple | None
    betti_original: dict[int, int]
    betti_reduced: dict[int, int]
    checks: dict[str, bool | None] = field(default_factory=dict)
    failed_checks: dict[str, list[str]] = field(default_factory=dict)
    timings_ms: dict[str, float] = field(default_factory=dict)

    @property
    def nv(self) -> int:
        return 0 if self.reordered is None else self.reordered.nv

    @property
    def ok(self) -> bool:
        return all(v is not False for v in self.checks.values())


def reduce_pipeline(img: BinaryImage, fast: bool = False) -> PipelineResult:
    """Run the whole chain on one image.

    With fast=True the checks that own a stage in CHECKS (admissibility,
    reduction axioms, nilpotency, perturbation-lemma cross-check) are
    skipped and reported as None; constructions still validate their own
    invariants (boundary conditions, triangularity).
    """
    timings: dict[str, float] = {}
    checks: dict[str, bool | None] = {}
    failed: dict[str, list[str]] = {}
    t_start = time.perf_counter()

    def timed(stage: str, fn: Callable[[], Any]) -> Any:
        t0 = time.perf_counter()
        out = fn()
        timings[stage] = (time.perf_counter() - t0) * 1000.0
        return out

    def check(name: str, fn: Callable[[], bool]) -> None:
        stage = CHECKS[name]
        if stage is None:
            checks[name] = fn()
        else:
            checks[name] = None if fast else timed(stage, fn)

    def passes(name: str, report: VerificationReport) -> bool:
        if not report.ok:
            failed[name] = [e.label() for e in report.failures()]
        return report.ok

    def route_matches() -> bool:
        # An equal route triple passes the check triple passed, so the
        # route verifies itself only if triple failed. A route triple that
        # differs is verified here just to name the identities it breaks.
        # A route that fails its own check fails this one, by name.
        verified = checks["reduction_axioms"] is True
        try:
            route = vf_reduction_via_bpl(rc, verify=not verified)
        except VerificationError as exc:
            return passes("bpl_match", exc.report)
        if route == triple:
            return True
        if verified:
            passes("bpl_match", verify_reduction(route))
        return False

    components = timed("components", lambda: count_components(img))
    original = timed("build", lambda: boundary_matrices(build_cubical(img)))
    check("boundary", lambda: original.d1.mul(original.d2).is_zero())
    vf = timed("dvf", lambda: rs_algorithm(original.d1))
    check("dvf", lambda: check_admissible(original.d1, vf).ok)
    rc = timed("reorder", lambda: reorder(original, sort_by_lambda(vf)))
    # reorder raises TriangularityViolation otherwise, so reaching here
    # means the paired block is unit lower triangular.
    check("triangular", rc.L.is_lower_unitriangular)
    reduced, triple = timed("reduce", lambda: hexagonal_reduce(rc))
    check("reduction_axioms", lambda: passes("reduction_axioms", verify_reduction(triple)))
    betti_orig = timed("betti_original", lambda: betti(original))
    betti_red = timed("betti_reduced", lambda: betti(reduced))
    check("nilpotency", lambda: (rc.L + Gf2Matrix.identity(rc.nv)).pow(rc.nv).is_zero())
    check("bpl_match", route_matches)

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
        failed_checks=failed,
        timings_ms=timings,
    )


def report_dict(res: PipelineResult) -> dict:
    """The JSON-ready report for one pipeline run.

    "failed_checks" follows "checks" only when some check names the
    identities it failed, so a passing report has no such key.
    """
    report = {
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
        "checks": {key: res.checks.get(key) for key in CHECKS},
    }
    if res.failed_checks:
        report["failed_checks"] = res.failed_checks
    report["timings_ms"] = {k: res.timings_ms[k] for k in STAGE_KEYS if k in res.timings_ms}
    return report
