"""Block-matrix gradations of the classical Lie algebras and the Toda field
equations of their loop groups: construction, folding reductions, and
light-cone integration.

The API lives in the submodules ``lie_core``, ``gradation``, ``toda``,
``folding``, ``solver`` and ``cli``; import them directly."""

from .lie_core import ConvergenceError

__version__ = "0.1.0"
