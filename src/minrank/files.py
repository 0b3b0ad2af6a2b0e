"""JSON encodings of problems, free choices, and solution reports.

Field elements travel as strings ("3", "-1/2"); a matrix is an array of row
arrays, or an object {"rows": r, "cols": c, "entries": [row-major]} which is
required whenever a dimension is zero (a bare nested array cannot express
0 x k).  Plain JSON integers are accepted as elements for convenience.
Block keys are "i,j" with 1-based indices.  No matrix side, and neither
total of a problem's block sizes, may exceed ``MAX_SIDE``: a zero-width
matrix carries no entries, so the file's length does not bound its size.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Mapping, Optional, TextIO

from . import block2x2, overlap
from .block2x2 import FreeChoice, TwoByTwoProblem, TwoByTwoSolutionSet
from .fields import Field, field_from_name
from .matrix import DimensionError, Matrix
from .overlap import BlockProblem, IndexChains, OverlapSolutionSet


MAX_SIDE = 4096


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
        if any(not isinstance(v, int) or isinstance(v, bool) or v < 0 for v in (rows, cols)):
            raise ProblemFormatError(f"{where}: rows/cols must be nonnegative integers")
        if max(rows, cols) > MAX_SIDE:
            raise ProblemFormatError(f"{where}: {rows}x{cols} exceeds the limit of "
                                     f"{MAX_SIDE} rows or columns")
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
            f"{where}: block key {json.dumps(raw)} is not of the form \"i,j\"") from None
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
        blocks[key] = matrix_from_json(field, literal, f"{where}: block {json.dumps(raw_key)}")
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
    if max(sum(row_sizes), sum(col_sizes)) > MAX_SIDE:
        raise ProblemFormatError(f"{where}: the block sizes total {sum(row_sizes)} rows "
                                 f"and {sum(col_sizes)} columns, over the limit of {MAX_SIDE}")
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


def _free_choice(blocks: Mapping, field: Field, shapes: Mapping, where: str) -> FreeChoice:
    """``blocks`` as a free choice checked against the shape table ``shapes``."""
    choice = FreeChoice(blocks)
    try:
        choice.validate(field, shapes)
    except DimensionError as exc:
        raise ProblemFormatError(f"{where}: {exc}") from exc
    return choice


def overlap_free_choice_from_json(obj: Any, p: BlockProblem, chains: IndexChains,
                                  where: str = "free choice") -> FreeChoice:
    return _free_choice(_indexed_blocks(obj, p.field, where), p.field,
                        overlap.free_shapes(chains), where)


def solution_to_json(p: BlockProblem, sol: OverlapSolutionSet, completion: Matrix) -> dict:
    chains = sol.chains
    return {
        "field": p.field.name,
        "base_solution": matrix_to_json(sol.base_solution),
        "completion": matrix_to_json(completion),
        "dimension": sol.dimension,
        "alphas": list(sol.alphas),
        "betas": list(sol.betas),
        "block_opt_ranks": list(sol.block_opt_ranks),
        "partition": {
            "row_groups": [list(chains.row_group(i))
                           for i in range(1, chains.n + 1)],
            "col_groups": [list(chains.col_group(j))
                           for j in range(1, chains.n + 1)],
        },
    }


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
                                     where: str = "free choice") -> FreeChoice:
    blocks = {name: matrix_from_json(field, literal, f"{where}: {json.dumps(name)}")
              for name, literal in _raw_blocks(obj, where).items()}
    return _free_choice(blocks, field, block2x2.free_shapes(s), where)


def two_by_two_solution_to_json(p: TwoByTwoProblem, s: TwoByTwoSolutionSet,
                                completion: Matrix) -> dict:
    return {
        "field": p.field.name,
        "r_opt": s.r_opt,
        "dimension": s.dimension,
        "row_partition": {
            "free": list(s.free_rows),
            "aux_basis": list(s.aux_basis_rows),
            "dependent": list(s.dependent_rows),
        },
        "col_partition": {
            "free": list(s.free_cols),
            "aux_basis": list(s.aux_basis_cols),
            "dependent": list(s.dependent_cols),
        },
        "base_solution": matrix_to_json(s.base_solution),
        "completion": matrix_to_json(completion),
    }


def write_json(doc: Mapping, out: TextIO,
               solutions: Optional[Iterable[Matrix]] = None) -> None:
    """Write ``json.dumps(doc, indent=2)`` and a newline to ``out``.

    ``solutions``, if given, becomes a last key ``"solutions"`` written one
    matrix at a time, so neither the matrices nor the whole text is held in
    memory; the text is the same as with the list of matrices in ``doc``.
    """
    if solutions is None:
        out.write(json.dumps(doc, indent=2) + "\n")
        return
    head = json.dumps({**doc, "solutions": []}, indent=2)
    out.write(head[:-len("[]\n}")])
    opener = "["
    for m in solutions:
        out.write(opener + "\n    " + _member_text(m))
        opener = ","
    out.write("[]\n}\n" if opener == "[" else "\n  ]\n}\n")


def _member_text(m: Matrix) -> str:
    """``json.dumps(matrix_to_json(m), indent=2)`` two levels deep, as a member sits.

    With ``indent`` set ``json.dumps`` runs the pure-Python encoder, so the
    rows are joined here from ``Field.format`` strings, which hold only
    digits, a sign and a slash and so need no escaping.
    """
    if m.rows == 0 or m.cols == 0:
        return json.dumps(matrix_to_json(m), indent=2).replace("\n", "\n    ")
    fmt, sep = m.field.format, '",\n        "'
    return ("[\n      "
            + ",\n      ".join('[\n        "' + sep.join(map(fmt, row)) + '"\n      ]'
                                for row in m.data)
            + "\n    ]")
