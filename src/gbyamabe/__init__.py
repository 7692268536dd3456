"""Gauss-Bonnet curvature invariants and constant-invariant conformal
metrics on model space forms.

The package has three layers: exact double-form algebra on ranked
multi-index coefficient matrices (forms, invariants), spectral axisymmetric
conformal geometry over space forms (spaceform, linearization), and a Newton
solver with certification on top (newton). The cli module exposes all of it
as deterministic JSON-reporting subcommands.

Each rule has one owner: the package exports exactly its five submodules'
__all__ lists; argument rules (integers, counts, finite positive numbers,
tolerances) live in _validate, the order rule 2k < n in invariants, and the
quotient and parity rules of zonal fields in spaceform.
"""

from . import forms, invariants, linearization, newton, spaceform
from .forms import *  # noqa: F403
from .invariants import *  # noqa: F403
from .linearization import *  # noqa: F403
from .newton import *  # noqa: F403
from .spaceform import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *forms.__all__,
    *invariants.__all__,
    *spaceform.__all__,
    *linearization.__all__,
    *newton.__all__,
]
