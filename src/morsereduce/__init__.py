"""Homology of 2D binary images via discrete vector field reduction.

The package computes Betti numbers of the cubical complex of a binary
image by pairing cells along an admissible discrete vector field,
eliminating the pairs through exact block Gaussian elimination over
GF(2), and independently rebuilding the same reduction through the
perturbation lemma. Every algebraic identity involved is re-checked at
runtime.
"""

from . import (
    complexes,
    cubical,
    gf2,
    image,
    perturbation,
    pipeline,
    reduction,
    vectorfield,
    verification,
)
from .complexes import *
from .cubical import *
from .gf2 import *
from .image import *
from .perturbation import *
from .pipeline import *
from .reduction import *
from .vectorfield import *
from .verification import *

__version__ = "0.1.0"

# Each layer's __all__ declares its public names once; the package exports
# them all.
_LAYERS = (
    complexes, cubical, gf2, image, perturbation, pipeline, reduction, vectorfield, verification
)
__all__ = [name for layer in _LAYERS for name in layer.__all__]
