"""Finite frame analysis: bounds, duals, selectors, sampling, extraction.

The package studies finite vector families in real or complex inner
product spaces: verifying frame inequalities, producing canonical
duals, partitioning operator sums with binary selectors, replicating
weighted rank-one sums into uniform samples, extracting nearly tight
subfamilies, estimating point-set densities, and exercising the same
machinery on cyclic time-frequency models.
"""

from . import errors, extraction, frames, linalg, pointsets, sampling, selectors, timefreq
from .errors import *
from .extraction import *
from .frames import *
from .linalg import *
from .pointsets import *
from .sampling import *
from .selectors import *
from .timefreq import *

__version__ = "0.1.0"

# each module's __all__ is the one list of what it exports
__all__ = ["__version__"] + [
    name
    for module in (errors, linalg, frames, selectors, sampling, extraction, pointsets, timefreq)
    for name in module.__all__
]
