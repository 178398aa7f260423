"""Exact computation with quiver representations over the rationals and prime fields.

The package re-exports the `__all__` of `linalg`, `quiver`, `roots`, `rep`,
`indec` and `deform`; each module's `__all__` is its public API.
"""

__version__ = "0.1.0"

from . import linalg, quiver, roots, rep, indec, deform
from .linalg import *
from .quiver import *
from .roots import *
from .rep import *
from .indec import *
from .deform import *

__all__ = ["__version__"] + [name for m in (linalg, quiver, roots, rep, indec, deform) for name in m.__all__]
