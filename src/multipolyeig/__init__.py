"""Global solver for polynomial multiparameter eigenvalue problems.

A system of d matrix polynomials in d variables is solved by hiding the last
variable, building a resultant R(x_d) (the tensor Dixon resultant, or the
operator-determinant pencil of a linear problem), solving it by shift and
invert, reading the remaining coordinates off the structured eigenvectors,
and polishing every root with Newton steps on the original system.
`solve` runs the whole pipeline; the building blocks are exported.
"""

from .dixon import DixonShape, build_resultant, dixon_numerator_eval
from .errors import (
    MultiPolyEigError,
    ParseError,
    ProjectionFailureError,
    SingularMepError,
    SingularPencilError,
)
from .extract import (
    Solution,
    SolutionSet,
    filter_solutions,
    refine,
    residual,
    vandermonde_ratios,
)
from .io import parse_pmep, parse_solutions, serialize_pmep, serialize_solutions
from .mpoly import Basis, MatrixPoly, Pmep
from .opdet import delta, solve_linear_mep
from .oracle import newton_oracle
from .pep import normal_rank, project_singular, solve_pep
from .solver import choose_hidden_variable, solve

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "MatrixPoly",
    "Pmep",
    "DixonShape",
    "build_resultant",
    "dixon_numerator_eval",
    "delta",
    "solve_linear_mep",
    "solve_pep",
    "normal_rank",
    "project_singular",
    "Solution",
    "SolutionSet",
    "vandermonde_ratios",
    "residual",
    "refine",
    "filter_solutions",
    "solve",
    "choose_hidden_variable",
    "newton_oracle",
    "parse_pmep",
    "serialize_pmep",
    "parse_solutions",
    "serialize_solutions",
    "MultiPolyEigError",
    "SingularMepError",
    "SingularPencilError",
    "ProjectionFailureError",
    "ParseError",
    "__version__",
]
