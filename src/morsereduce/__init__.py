"""Homology of 2D binary images via discrete vector field reduction.

The package computes Betti numbers of the cubical complex of a binary
image by pairing cells along an admissible discrete vector field,
eliminating the pairs through exact block Gaussian elimination over
GF(2), and independently rebuilding the same reduction through the
perturbation lemma. Every algebraic identity involved is re-checked at
runtime.
"""

from .complexes import (
    BoundaryViolation,
    FGChainComplex,
    ReductionTriple,
    TruncatedComplex,
    betti,
    verify_reduction,
)
from .cubical import CubicalComplex, boundary_matrices, build_cubical
from .gf2 import (
    Gf2Matrix,
    NotNilpotent,
    Permutation,
    Singular,
    format_matrix_text,
    hstack,
    parse_matrix_text,
    vstack,
)
from .image import (
    BinaryImage,
    NetpbmError,
    count_components,
    load_image,
    parse_pbm,
    parse_pgm,
    random_image,
)
from .perturbation import (
    Decomposition,
    DecompositionFailure,
    NotInvertible,
    Perturbation,
    bpl,
    decompose,
    hexagonal_general,
    vf_reduction_via_bpl,
)
from .pipeline import PipelineResult, reduce_pipeline, report_dict
from .reduction import (
    ReorderedComplex,
    SplitComplex,
    TriangularityViolation,
    hexagonal_reduce,
    reorder,
)
from .vectorfield import (
    DiscreteVectorField,
    check_admissible,
    format_dvf,
    rs_algorithm,
    sort_by_lambda,
)
from .verification import CheckEntry, VerificationError, VerificationReport

__version__ = "0.1.0"

__all__ = [
    "BinaryImage",
    "BoundaryViolation",
    "CheckEntry",
    "CubicalComplex",
    "Decomposition",
    "DecompositionFailure",
    "DiscreteVectorField",
    "FGChainComplex",
    "Gf2Matrix",
    "NetpbmError",
    "NotInvertible",
    "NotNilpotent",
    "Permutation",
    "Perturbation",
    "PipelineResult",
    "ReductionTriple",
    "ReorderedComplex",
    "SplitComplex",
    "TriangularityViolation",
    "TruncatedComplex",
    "VerificationError",
    "VerificationReport",
    "betti",
    "boundary_matrices",
    "bpl",
    "build_cubical",
    "check_admissible",
    "count_components",
    "decompose",
    "format_dvf",
    "format_matrix_text",
    "hexagonal_general",
    "hexagonal_reduce",
    "hstack",
    "load_image",
    "parse_matrix_text",
    "parse_pbm",
    "parse_pgm",
    "random_image",
    "reduce_pipeline",
    "reorder",
    "report_dict",
    "rs_algorithm",
    "sort_by_lambda",
    "Singular",
    "verify_reduction",
    "vf_reduction_via_bpl",
    "vstack",
]
