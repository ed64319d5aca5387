"""wmha: exact verification of weak multiplier Hopf algebra structure.

Construct or load a finite-dimensional algebra with a coproduct (given
by its canonical maps), then certify the full axiom set: canonical
idempotent, projection maps, generalized inverses, antipode,
source/target maps, regularity, star compatibility and the weak-Hopf
classification.  All arithmetic is exact over the Gaussian rationals.
"""

__version__ = "0.1.0"

from .scalars import Scalar, ONE, ZERO, rational
from .linalg import Matrix, Subspace, generalized_inverse
from .algebras import Algebra, Multiplier, validate_algebra
from .coproducts import CoproductData, compute_E, solve_counit
from .groupoids import preset, function_algebra, convolution_algebra

__all__ = [
    "Scalar", "ONE", "ZERO", "rational",
    "Matrix", "Subspace", "generalized_inverse",
    "Algebra", "Multiplier", "validate_algebra",
    "CoproductData", "compute_E", "solve_counit",
    "preset", "function_algebra", "convolution_algebra",
    "__version__",
]
