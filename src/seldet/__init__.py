"""Sparse LDL^T factorization, selected inversion, and log-determinant
derivatives for variance-component mixed models.

The pipeline: build or load a sparse symmetric matrix, compute a
fill-reducing ordering, analyze the pattern symbolically, factorize
numerically, then either solve linear systems, take the log-determinant,
or compute the selected inverse — the entries of the full inverse on the
factor's sparsity pattern — which is exactly what trace-form derivatives
of the log-determinant consume.
"""

from . import (datagen, errors, numeric, ordering, reml, selinv,
               sparse_core, symbolic)
from .datagen import *  # noqa: F403
from .errors import *  # noqa: F403
from .numeric import *  # noqa: F403
from .ordering import *  # noqa: F403
from .reml import *  # noqa: F403
from .selinv import *  # noqa: F403
from .sparse_core import *  # noqa: F403
from .symbolic import *  # noqa: F403

__version__ = "0.1.0"

# Each layer's __all__ lists exactly what it defines; the package's names
# are their union.
__all__ = [name for layer in (sparse_core, ordering, symbolic, numeric, selinv,
                              reml, datagen, errors)
           for name in layer.__all__] + ["__version__"]
