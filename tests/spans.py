"""Span predicates: containment and trivial intersection of row and column spaces.

The package reads these conditions as rank comparisons where it needs them
(``ucl.check_hypotheses``); the tests use the predicates as an independent
statement of the same conditions.
"""

from __future__ import annotations

from minrank import DimensionError, Matrix, hstack, rank, vstack
from minrank.fields import require_same_field


def row_space_contained(a: Matrix, b: Matrix) -> bool:
    """Row(a) subset of Row(b)."""
    require_same_field(a.field, b.field)
    if a.cols != b.cols:
        raise DimensionError("operands disagree on column count")
    return rank(vstack([a, b])) == rank(b)


def col_space_contained(a: Matrix, b: Matrix) -> bool:
    """Col(a) subset of Col(b)."""
    require_same_field(a.field, b.field)
    if a.rows != b.rows:
        raise DimensionError("operands disagree on row count")
    return rank(hstack([a, b])) == rank(b)


def trivial_col_intersection(a: Matrix, b: Matrix) -> bool:
    """Col(a) meets Col(b) only at zero."""
    require_same_field(a.field, b.field)
    if a.rows != b.rows:
        raise DimensionError("operands disagree on row count")
    return rank(hstack([a, b])) == rank(a) + rank(b)


def trivial_row_intersection(a: Matrix, b: Matrix) -> bool:
    """Row(a) meets Row(b) only at zero."""
    require_same_field(a.field, b.field)
    if a.cols != b.cols:
        raise DimensionError("operands disagree on column count")
    return rank(vstack([a, b])) == rank(a) + rank(b)
