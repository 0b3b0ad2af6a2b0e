"""The benchmark's own exact linear algebra over GF(p) and the rationals.

Kept apart from ``minrank`` on purpose: the generators build their inputs
with it and the checkers recompute ranks with it, so neither shares code
with the program under test.  A field is given by its modulus ``p``, or
``None`` for the rationals (scalars are ``int`` residues or ``Fraction``).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional, Sequence

Rows = list[list]


def modulus(field_name: str) -> Optional[int]:
    """``"gf(p)"`` -> p, ``"rational"`` -> None."""
    if field_name == "rational":
        return None
    match = re.fullmatch(r"gf\((\d+)\)", field_name)
    if match is None:
        raise ValueError(f"unknown field {field_name!r}")
    return int(match.group(1))


def parse(text: str, p: Optional[int]):
    return int(text) % p if p else Fraction(text)


def matmul(a: Rows, b: Rows, p: Optional[int]) -> Rows:
    cols = list(zip(*b))
    out = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]
    return [[v % p for v in row] for row in out] if p else out


def hstack(parts: Sequence[Rows]) -> Rows:
    return [sum(rows, []) for rows in zip(*parts)]


def vstack(parts: Sequence[Rows]) -> Rows:
    return [list(row) for part in parts for row in part]


def rank(m: Rows, p: Optional[int]) -> int:
    """Rank by forward elimination."""
    rows = [list(r) for r in m if any(r)]
    width = len(rows[0]) if rows else 0
    rk = 0
    for c in range(width):
        pivot = next((i for i in range(rk, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        top = rows[rk]
        inv = pow(top[c], -1, p) if p else Fraction(1) / top[c]
        for i in range(rk + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] * inv
                if p:
                    rows[i] = [(x - f * y) % p for x, y in zip(rows[i], top)]
                else:
                    rows[i] = [x - f * y for x, y in zip(rows[i], top)]
        rk += 1
        if rk == len(rows):
            break
    return rk


def known_stack(blocks, row_sizes, col_sizes, i_lo, i_hi, j_lo, j_hi) -> Rows:
    """Known blocks over inclusive 1-based block ranges; empty ranges give
    empty row lists (rank 0)."""
    return [sum((blocks[(i, j)][r] for j in range(j_lo, j_hi + 1)), [])
            for i in range(i_lo, i_hi + 1) for r in range(row_sizes[i - 1])]


def dimension(problem: dict) -> int:
    """Solution-set dimension from rank differences of the known data:
    sum over i < j of (alpha_i - alpha_{i-1}) (beta_{j-1} - beta_j)."""
    n, p = problem["n"], modulus(problem["field"])
    rs, cs, blocks = problem["row_sizes"], problem["col_sizes"], problem["blocks"]

    def rk(i_lo, i_hi, j_lo, j_hi):
        return rank(known_stack(blocks, rs, cs, i_lo, i_hi, j_lo, j_hi), p)

    alphas = [0] * (n + 1)
    alphas[n] = rs[-1]
    for i in range(1, n):
        known = known_stack(blocks, rs, cs, i + 1, n - 1, 2, i + 1)
        bottom = known_stack(blocks, rs, cs, n, n, 2, i + 1)
        alphas[i] = rank(known + bottom, p) - rank(known, p)
    betas = [0] * (n + 1)
    betas[1] = rk(1, n - 1, 1, 1)
    for j in range(2, n):
        betas[j] = rk(j, n - 1, 1, j) - rk(j, n - 1, 2, j)
    return sum((alphas[i] - alphas[i - 1]) * (betas[j - 1] - betas[j])
               for i in range(1, n + 1) for j in range(i + 1, n + 1))
