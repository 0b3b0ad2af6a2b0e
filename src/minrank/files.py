"""JSON encodings of problems, free choices, and solution reports.

Field elements travel as strings ("3", "-1/2"); a matrix is an array of row
arrays, or an object {"rows": r, "cols": c, "entries": [row-major]} which is
required whenever a dimension is zero (a bare nested array cannot express
0 x k).  Plain JSON integers are accepted as elements for convenience.
Block keys are "i,j" with 1-based indices.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from .block2x2 import FreeChoice2x2, TwoByTwoProblem, TwoByTwoSolutionSet
from .fields import Field, field_from_name
from .matrix import DimensionError, IndexSet, Matrix
from .overlap import BlockProblem, FreeChoiceOverlap, IndexChains, OverlapSolutionSet


class ProblemFormatError(ValueError):
    """Malformed or inconsistent input file content."""


def _parse_element(field: Field, value: Any, where: str):
    try:
        if isinstance(value, str):
            return field.parse(value)
        return field.canon(value)
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"{where}: bad element {value!r} ({exc})") from exc


def matrix_from_json(field: Field, obj: Any, where: str = "matrix") -> Matrix:
    if isinstance(obj, list):
        if not obj or any(not isinstance(row, list) or not row for row in obj):
            raise ProblemFormatError(
                f"{where}: nested-array form needs nonempty rows; use the "
                "object form {\"rows\": ..., \"cols\": ..., \"entries\": []} "
                "for zero-dimension matrices")
        widths = {len(row) for row in obj}
        if len(widths) != 1:
            raise ProblemFormatError(f"{where}: ragged rows of lengths {sorted(widths)}")
        return Matrix.from_rows(
            field, [[_parse_element(field, v, where) for v in row] for row in obj])
    if isinstance(obj, Mapping):
        try:
            rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
        except KeyError as exc:
            raise ProblemFormatError(f"{where}: object form needs key {exc}") from exc
        if not isinstance(rows, int) or not isinstance(cols, int) or rows < 0 or cols < 0:
            raise ProblemFormatError(f"{where}: rows/cols must be nonnegative integers")
        if not isinstance(entries, list) or len(entries) != rows * cols:
            raise ProblemFormatError(
                f"{where}: expected {rows * cols} entries for {rows}x{cols}")
        return Matrix.from_flat(field, rows, cols,
                                [_parse_element(field, v, where) for v in entries])
    raise ProblemFormatError(f"{where}: expected an array of rows or an object form")


def matrix_to_json(m: Matrix) -> Any:
    f = m.field
    if m.rows == 0 or m.cols == 0:
        return {"rows": m.rows, "cols": m.cols, "entries": []}
    return [[f.format(v) for v in row] for row in m.data]


def _require(obj: Mapping, key: str, where: str) -> Any:
    if key not in obj:
        raise ProblemFormatError(f"{where}: missing key \"{key}\"")
    return obj[key]


def _field_of(obj: Mapping, where: str) -> Field:
    name = _require(obj, "field", where)
    if not isinstance(name, str):
        raise ProblemFormatError(f"{where}: \"field\" must be a string")
    try:
        return field_from_name(name)
    except ValueError as exc:
        raise ProblemFormatError(f"{where}: {exc}") from exc


def _size_vector(obj: Mapping, key: str, n: int, where: str) -> tuple[int, ...]:
    raw = _require(obj, key, where)
    if (not isinstance(raw, list) or len(raw) != n
            or any(not isinstance(v, int) or isinstance(v, bool) or v < 0 for v in raw)):
        raise ProblemFormatError(
            f"{where}: \"{key}\" must be a list of {n} nonnegative integers")
    return tuple(raw)


def _block_key(raw: str, where: str) -> tuple[int, int]:
    parts = raw.split(",")
    try:
        i, j = (int(s) for s in parts)
    except ValueError:
        raise ProblemFormatError(
            f"{where}: block key \"{raw}\" is not of the form \"i,j\"") from None
    return i, j


def _raw_blocks(obj: Any, where: str) -> Mapping:
    """The ``"blocks"`` mapping of a JSON object."""
    if not isinstance(obj, Mapping):
        raise ProblemFormatError(f"{where}: expected a JSON object")
    raw_blocks = _require(obj, "blocks", where)
    if not isinstance(raw_blocks, Mapping):
        raise ProblemFormatError(f"{where}: \"blocks\" must be an object")
    return raw_blocks


def _indexed_blocks(obj: Any, field: Field, where: str) -> dict[tuple[int, int], Matrix]:
    """The ``"blocks"`` of a JSON object, parsed from ``"i,j"`` keys."""
    blocks = {}
    for raw_key, literal in _raw_blocks(obj, where).items():
        key = _block_key(raw_key, where)
        blocks[key] = matrix_from_json(field, literal, f"{where}: block \"{raw_key}\"")
    return blocks


def problem_from_json(obj: Any, where: str = "problem") -> BlockProblem:
    if not isinstance(obj, Mapping):
        raise ProblemFormatError(f"{where}: expected a JSON object")
    field = _field_of(obj, where)
    n = _require(obj, "n", where)
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ProblemFormatError(f"{where}: \"n\" must be an integer >= 2")
    row_sizes = _size_vector(obj, "row_sizes", n, where)
    col_sizes = _size_vector(obj, "col_sizes", n, where)
    blocks = _indexed_blocks(obj, field, where)
    try:
        return BlockProblem(field=field, row_sizes=row_sizes, col_sizes=col_sizes,
                            blocks=blocks)
    except (DimensionError, ValueError) as exc:
        raise ProblemFormatError(f"{where}: {exc}") from exc


def problem_to_json(p: BlockProblem) -> dict:
    return {
        "field": p.field.name,
        "n": p.n,
        "row_sizes": list(p.row_sizes),
        "col_sizes": list(p.col_sizes),
        "blocks": {f"{i},{j}": matrix_to_json(p.block(i, j))
                   for i in range(1, p.n + 1) for j in range(1, i + 1)
                   if (i, j) != (p.n, 1)},
    }


def overlap_free_choice_from_json(obj: Any, p: BlockProblem, chains: IndexChains,
                                  where: str = "free choice") -> FreeChoiceOverlap:
    choice = FreeChoiceOverlap(_indexed_blocks(obj, p.field, where))
    try:
        choice.validate_for(p, chains)
    except DimensionError as exc:
        raise ProblemFormatError(f"{where}: {exc}") from exc
    return choice


def _index_list(s: IndexSet) -> list[int]:
    return list(s.indices)


def solution_to_json(p: BlockProblem, sol: OverlapSolutionSet, completion: Matrix,
                     enumerated: Optional[list[Matrix]] = None) -> dict:
    chains = sol.chains
    out = {
        "field": p.field.name,
        "base_solution": matrix_to_json(sol.base_solution),
        "completion": matrix_to_json(completion),
        "dimension": sol.dimension,
        "alphas": list(sol.alphas),
        "betas": list(sol.betas),
        "block_opt_ranks": list(sol.block_opt_ranks),
        "partition": {
            "row_groups": [_index_list(chains.row_group(i))
                           for i in range(1, chains.n + 1)],
            "col_groups": [_index_list(chains.col_group(j))
                           for j in range(1, chains.n + 1)],
        },
    }
    if enumerated is not None:
        out["solutions"] = [matrix_to_json(m) for m in enumerated]
    return out


def two_by_two_from_json(obj: Any, where: str = "problem") -> TwoByTwoProblem:
    if not isinstance(obj, Mapping):
        raise ProblemFormatError(f"{where}: expected a JSON object")
    field = _field_of(obj, where)
    mats = {name: matrix_from_json(field, _require(obj, name, where), f"{where}: \"{name}\"")
            for name in ("B", "C", "D")}
    try:
        return TwoByTwoProblem(**mats)
    except DimensionError as exc:
        raise ProblemFormatError(f"{where}: {exc}") from exc


def two_by_two_to_json(p: TwoByTwoProblem) -> dict:
    return {"field": p.field.name, "B": matrix_to_json(p.B),
            "C": matrix_to_json(p.C), "D": matrix_to_json(p.D)}


def two_by_two_free_choice_from_json(obj: Any, field: Field, s: TwoByTwoSolutionSet,
                                     where: str = "free choice") -> FreeChoice2x2:
    raw_blocks = _raw_blocks(obj, where)
    shapes = FreeChoice2x2.block_shapes(s)
    unknown = set(raw_blocks) - set(shapes)
    if unknown:
        raise ProblemFormatError(
            f"{where}: unknown free block(s) {sorted(unknown)}; "
            f"expected among {sorted(shapes)}")
    blocks = {}
    for name, (r, c) in shapes.items():
        if name in raw_blocks:
            blocks[name] = matrix_from_json(field, raw_blocks[name], f"{where}: \"{name}\"")
        else:
            blocks[name] = Matrix.zeros(field, r, c)
    choice = FreeChoice2x2(**blocks)
    try:
        choice.validate_for(s)
    except DimensionError as exc:
        raise ProblemFormatError(f"{where}: {exc}") from exc
    return choice


def two_by_two_solution_to_json(p: TwoByTwoProblem, s: TwoByTwoSolutionSet,
                                completion: Matrix,
                                enumerated: Optional[list[Matrix]] = None) -> dict:
    out = {
        "field": p.field.name,
        "r_opt": s.r_opt,
        "dimension": s.dimension,
        "row_partition": {
            "free": _index_list(s.free_rows),
            "aux_basis": _index_list(s.aux_basis_rows),
            "dependent": _index_list(s.dependent_rows),
        },
        "col_partition": {
            "free": _index_list(s.free_cols),
            "aux_basis": _index_list(s.aux_basis_cols),
            "dependent": _index_list(s.dependent_cols),
        },
        "base_solution": matrix_to_json(s.base_solution),
        "completion": matrix_to_json(completion),
    }
    if enumerated is not None:
        out["solutions"] = [matrix_to_json(m) for m in enumerated]
    return out
