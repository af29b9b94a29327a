"""Finite-dimensional Banach-sequence-lattice norm calculus.

Norm families and Koethe duals, atomic lattices with the pointwise
functional calculus, mixed tuple norms, operators with convexity and
concavity constants, and the duality between the two.
"""

from types import ModuleType as _ModuleType

from .errors import (DescriptorError, DimensionMismatchError, InputError,
                     ScaleGuardError)
from .seq_lattice import (CustomFamily, LpFamily, NumericDualFamily,
                          OrliczFamily, OrliczFunction, SeqNormFamily,
                          WeightedLpFamily, conjugate_exponent, dual_witness,
                          kothe_dual, kothe_dual_norm)
from .descriptors import family_from_descriptor, parse_gauge
from .finite_lattice import (FiniteLattice, HomogeneousFunction, NormedSpace,
                             compose, homogeneous, krivine_apply, lattice,
                             lattice_valued_norm, norm_function, projection)
from .mixed_norms import pointwise_mixed_norm, strong_mixed_norm, tail_profile
from .operators import OperatorInstance, apply_n, operator_norm, transpose
from .optimize import AscentBudget, maximize_ratio
from .constants import (brute_force_constant, concavity_ratio,
                        convexity_ratio, duality_check, estimate_constant,
                        functional_norm, lattice_constants)

__version__ = "0.1.0"

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
