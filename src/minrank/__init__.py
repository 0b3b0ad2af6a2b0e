"""Exact simultaneous minimal rank completion of block lower triangular arrays.

The corner block X of an n x n block lower triangular array can always be
chosen to minimize the ranks of all n overlapping bottom-left submatrices at
once; the set of such X is an affine space.  This package computes that
solution set exactly over the rationals or any prime field, exposes the
block 2x2 completion machinery it is built on, and ships a brute-force
finite-field oracle that certifies the construction end to end.
"""

from .fields import (
    Field,
    FieldMismatchError,
    GF,
    PrimeField,
    QQ,
    RationalField,
    field_from_name,
)
from .matrix import (
    DimensionError,
    InconsistentSystemError,
    Matrix,
    RankDeficiencyError,
    SingularMatrixError,
    hstack,
    inverse,
    left_inverse,
    max_independent_cols,
    max_independent_rows,
    minimal_spanning_columns,
    minimal_spanning_rows,
    rank,
    rref,
    right_inverse,
    solve_left,
    vstack,
)
from .ucl import (
    AffineCoefficients,
    HypothesisError,
    InternalInvariantError,
    UclInstance,
    affine_coefficients,
    block_c_inverse,
    check_hypotheses,
    solve_ucl,
)
from .block2x2 import (
    FreeChoice,
    TwoByTwoProblem,
    TwoByTwoSolutionSet,
    analyze,
    complete,
    is_minimal,
    r_opt,
)
from .overlap import (
    BlockProblem,
    IndexChains,
    OverlapSolutionSet,
    analyze_overlap,
    build_chains,
    complete_overlap,
    complete_overlap_columnwise,
    dimension_and_ranks,
    hankel_ranks,
    hankel_subproblem,
    transpose_problem,
    uniqueness_shortcut,
)
from .oracle import (
    BudgetExceededError,
    CertificationResult,
    ExhaustiveReport,
    UnsupportedFieldError,
    certify,
    exhaust,
)
from .files import ProblemFormatError
