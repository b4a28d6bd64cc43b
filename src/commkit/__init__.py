"""commkit: constructions and certified checks for commutators of
entrywise-positive matrices and operators on the sequence space l2.

Each module's ``__all__`` lists its public names; the package exports them all.
"""

from .matrices import *
from .scalars import *
from .lazyops import *
from .constructions import *
from .verdict import *
from .verifiers import *
from . import constructions, lazyops, matrices, scalars, verdict, verifiers

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (matrices, scalars, lazyops, constructions, verdict, verifiers)
    for name in module.__all__
)
