"""Seeded random generators shared by the unit and acceptance tests.

Every generator takes an explicit ``random.Random`` so any failure is
reproducible from the seed alone.  Admissible instances are built
constructively (then re-checked) rather than by rejection over the full
space, which keeps admissible-case generation cheap even over tiny fields.
Scalar and matrix draws are those of ``scripts/random_problem.py``.
"""

from __future__ import annotations

import random

from minrank import (
    BlockProblem,
    Field,
    FreeChoice,
    IndexChains,
    Matrix,
    TwoByTwoProblem,
    TwoByTwoSolutionSet,
    UclInstance,
    block2x2,
    check_hypotheses,
    hstack,
    overlap,
    rank,
    vstack,
)
from random_problem import rand_blocks, rand_matrix


def rand_block_problem(
    rng: random.Random,
    field: Field,
    n: int | None = None,
    max_size: int = 2,
    max_x_entries: int | None = None,
    min_size: int = 1,
) -> BlockProblem:
    if n is None:
        n = rng.choice([2, 3, 4])
    while True:
        row_sizes = tuple(rng.randint(min_size, max_size) for _ in range(n))
        col_sizes = tuple(rng.randint(min_size, max_size) for _ in range(n))
        if max_x_entries is None or row_sizes[-1] * col_sizes[0] <= max_x_entries:
            break
    return BlockProblem(field=field, row_sizes=row_sizes, col_sizes=col_sizes,
                        blocks=rand_blocks(rng, field, row_sizes, col_sizes))


def rand_two_by_two(
    rng: random.Random,
    field: Field,
    max_side: int = 3,
    min_side: int = 0,
) -> TwoByTwoProblem:
    m = rng.randint(min_side, max_side)
    b = rng.randint(min_side, max_side)
    c = rng.randint(min_side, max_side)
    d = rng.randint(min_side, max_side)
    return TwoByTwoProblem(
        B=rand_matrix(rng, field, m, b),
        C=rand_matrix(rng, field, m, c),
        D=rand_matrix(rng, field, d, c),
    )


def rand_free_choice(rng: random.Random, field: Field, shapes) -> FreeChoice:
    """Random values for every block of a shape table, in the table's order."""
    return FreeChoice({key: rand_matrix(rng, field, r, c) for key, (r, c) in shapes.items()})


def rand_free_choice_2x2(
    rng: random.Random, field: Field, s: TwoByTwoSolutionSet
) -> FreeChoice:
    return rand_free_choice(rng, field, block2x2.free_shapes(s))


def rand_free_choice_overlap(
    rng: random.Random, field: Field, chains: IndexChains
) -> FreeChoice:
    return rand_free_choice(rng, field, overlap.free_shapes(chains))


def rand_admissible_ucl(rng: random.Random, field: Field, cap: int = 2) -> UclInstance:
    """Random instance satisfying all six unique-completion hypotheses.

    B1 is forced into the column space of [C11 C12] and D2 into the row
    space of [C12; C22]; the remaining hypotheses are checked and the draw
    retried, which converges fast at these sizes.
    """
    for _ in range(1000):
        r1 = rng.randint(0, cap + 1)
        c1 = rng.randint(0, min(r1, cap))
        c2 = rng.randint(0, cap)
        r2 = rng.randint(0, min(c2, cap))
        b = rng.randint(0, cap)
        d = rng.randint(0, cap)
        C11 = rand_matrix(rng, field, r1, c1)
        C12 = rand_matrix(rng, field, r1, c2)
        C21 = rand_matrix(rng, field, r2, c1)
        C22 = rand_matrix(rng, field, r2, c2)
        B1 = hstack([C11, C12]) @ rand_matrix(rng, field, c1 + c2, b)
        D2 = rand_matrix(rng, field, d, r1 + r2) @ vstack([C12, C22])
        inst = UclInstance(
            B1=B1,
            B2=rand_matrix(rng, field, r2, b),
            C11=C11,
            C12=C12,
            C21=C21,
            C22=C22,
            D1=rand_matrix(rng, field, d, c1),
            D2=D2,
        )
        if all(check_hypotheses(inst)):
            return inst
    raise RuntimeError("failed to draw an admissible instance")


def rand_admissible_c_blocks(
    rng: random.Random, field: Field, max_c1: int = 2, max_c2: int = 3
) -> tuple[Matrix, Matrix, Matrix, Matrix]:
    """Random square C = [[C11, C12], [C21, C22]] on which the block
    inverse formula applies: C11 full column rank, C22 full row rank,
    trivial column/row intersections with C12, and C invertible."""
    for _ in range(5000):
        c1 = rng.randint(0, max_c1)
        c2 = rng.randint(0, max_c2)
        r2 = rng.randint(0, c2)
        r1 = c1 + c2 - r2
        k = c2 - r2
        C11 = rand_matrix(rng, field, r1, c1)
        C22 = rand_matrix(rng, field, r2, c2)
        C12 = rand_matrix(rng, field, r1, k) @ rand_matrix(rng, field, k, c2)
        if rank(C11) < c1 or rank(C22) < r2 or rank(C12) < k:
            continue
        if rank(hstack([C11, C12])) < r1 or rank(vstack([C12, C22])) < c2:
            continue
        C21 = rand_matrix(rng, field, r2, c1)
        return C11, C12, C21, C22
    raise RuntimeError("failed to draw an admissible block C")
