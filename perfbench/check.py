"""Output checks, run outside the timed region.

Each check takes the generated problem and the parsed stdout of one CLI
operation and raises :class:`CheckError` on the first thing that is wrong.
The ranks are recomputed with the benchmark's own stacking and elimination
(:mod:`exact`), never with ``minrank``'s.
"""

from __future__ import annotations

from exact import hstack, known_stack, modulus, parse, rank, vstack


class CheckError(ValueError):
    """An operation's output is wrong."""


def check_solve(problem: dict, out: dict) -> None:
    """The completion attains, in every overlapping block, the reported
    optimum, and that optimum is rank[B C] + rank[C;D] - rank C."""
    n, p = problem["n"], modulus(problem["field"])
    rs, cs, blocks = problem["row_sizes"], problem["col_sizes"], problem["blocks"]
    X = [[parse(v, p) for v in row] for row in out["completion"]]
    if out["base_solution"] != out["completion"]:
        raise CheckError("completion without --free differs from the base solution")
    if len(X) != rs[-1] or any(len(row) != cs[0] for row in X):
        raise CheckError("completion has the wrong shape")
    reported = out["block_opt_ranks"]
    if len(reported) != n:
        raise CheckError(f"{len(reported)} block optima for n = {n}")
    filled = {**blocks, (n, 1): X}
    for k in range(1, n + 1):
        b = known_stack(blocks, rs, cs, k, n - 1, 1, 1)
        c = known_stack(blocks, rs, cs, k, n - 1, 2, k)
        d = known_stack(blocks, rs, cs, n, n, 2, k)
        bound = rank(hstack([b, c]), p) + rank(vstack([c, d]), p) - rank(c, p)
        attained = rank(known_stack(filled, rs, cs, k, n, 1, k), p)
        if not attained == reported[k - 1] == bound:
            raise CheckError(f"block {k}: completion rank {attained}, reported optimum "
                             f"{reported[k - 1]}, rank bound {bound}")


def check_enumerate(problem: dict, out: dict) -> None:
    """The solve checks, plus p^dimension distinct members."""
    check_solve(problem, out)
    members = out["solutions"]
    want = modulus(problem["field"]) ** out["dimension"]
    if len(members) != want:
        raise CheckError(f"{len(members)} members, expected {want}")
    if len({repr(m) for m in members}) != len(members):
        raise CheckError("enumerated members are not distinct")


def check_verify(problem: dict, out: dict) -> None:
    if out.get("ok") is not True:
        raise CheckError(f"certification failed: {out.get('diagnostic')}")


CHECKS = {"solve": check_solve, "enumerate": check_enumerate, "verify": check_verify}
