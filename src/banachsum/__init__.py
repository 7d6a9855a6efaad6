"""Exact run-structured integer sets, windowed density profiles, and
verified sumset constructions.

The package exports the public names of its modules, each listed once in
its module's __all__.  The modules are imported in the order they import
one another, so none is loaded before it is needed.
"""

from .errors import *
from .intset import *
from .density import *
from .sumset import *
from .construct import *

__version__ = "0.1.0"

# importing a submodule binds it in this namespace by its own name
__all__ = [
    *errors.__all__,
    *intset.__all__,
    *density.__all__,
    *sumset.__all__,
    *construct.__all__,
    "__version__",
]
