"""Reference elimination and product: one ``Field`` call per scalar.

The package runs packed GF(p) and fraction-free rational kernels; the tests
compare both, and the CLI's outputs, with these textbook loops.
"""

from __future__ import annotations

from minrank import Matrix
from minrank.fields import require_same_field
from minrank.matrix import DimensionError, Eliminated


def eliminate(m: Matrix, reduce: bool = False) -> Eliminated:
    """``matrix._eliminate`` over any field, with unit pivots.

    A pivot row is zero left of its pivot, so no column before the pivot is
    ever recomputed.
    """
    F = m.field
    # Scalars are canonical, so a zero test is a plain comparison.
    zero, sub, mul = F.zero, F.sub, F.mul
    a = [list(r) for r in m.data]
    t = ([[F.one if i == j else zero for j in range(m.rows)] for i in range(m.rows)]
         if reduce else None)
    pivots = []
    for col in range(m.cols):
        r = len(pivots)
        if r == m.rows:
            break
        pr = next((i for i in range(r, m.rows) if a[i][col] != zero), None)
        if pr is None:
            continue
        pivots.append(col)
        a[r], a[pr] = a[pr], a[r]
        inv = F.inverse(a[r][col])
        if reduce:
            t[r], t[pr] = t[pr], t[r]
            a[r][col:] = [F.one] + [mul(inv, x) for x in a[r][col + 1:]]
            t[r] = [mul(inv, x) for x in t[r]]
            targets = [i for i in range(m.rows) if i != r]
        else:
            targets = range(r + 1, m.rows)
        tail = a[r][col + 1:]
        for i in targets:
            c = a[i][col]
            if c == zero:
                continue
            if reduce:
                a[i][col] = zero
                t[i] = [sub(x, mul(c, y)) for x, y in zip(t[i], t[r])]
            else:
                c = mul(c, inv)
            a[i][col + 1:] = [sub(x, mul(c, y)) for x, y in zip(a[i][col + 1:], tail)]
    return (tuple(pivots), a, t) if reduce else (tuple(pivots), None, None)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """``a @ b`` as a sum of ``Field`` products, entry by entry."""
    F = require_same_field(a.field, b.field)
    if a.cols != b.rows:
        raise DimensionError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    bt = b.transpose().data
    out = []
    for ra in a.data:
        out_row = []
        for cb in bt:
            acc = F.zero
            for x, y in zip(ra, cb):
                acc = F.add(acc, F.mul(x, y))
            out_row.append(acc)
        out.append(tuple(out_row))
    return Matrix(F, a.rows, b.cols, tuple(out))
