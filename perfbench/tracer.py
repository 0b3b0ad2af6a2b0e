"""Outside-in tracer: times and counts ``minrank``'s layers by rebinding their
public functions to wrappers, with no change to the package's source.

A function is rebound in its defining module and under every name that any
loaded ``minrank`` module binds to it, so ``from .matrix import rank`` call
sites are traced too; methods are rebound on their class.  Spans form a
stack, so a span's self time is its duration minus that of the spans it
encloses.  A call made from inside a span of the same name (for example
``minimal_spanning_rows`` calling ``minimal_spanning_columns``) is folded
into the enclosing span and not counted again.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _cells(rows: int, cols: int) -> int:
    return rows * cols * min(rows, cols)


def _one_input(m, *_):
    return _cells(m.rows, m.cols)


def _span_cols(extra, anchor):        # eliminates [anchor | extra]
    return _cells(extra.rows, anchor.cols + extra.cols)


def _span_rows(extra, anchor):        # eliminates [anchor ; extra]
    return _cells(anchor.rows + extra.rows, extra.cols)


class Tracer:
    """Collects self time per span name and event counts while installed.

    Counting every scalar operation slows elimination several-fold, which
    would distort the self times, so a tracer made with ``scalars=True``
    counts only the field operations and one made without times the layers.
    """

    def __init__(self, scalars: bool = False):
        self.scalars = scalars
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[list] = []          # [name, seconds in child spans]
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn, calls: bool = False, cells=None, after=None):
        stack, counts, self_s, total_s = self._stack, self.counts, self.self_s, self.total_s

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            if calls:
                counts[name + ".calls"] += 1
            if cells is not None:
                counts["matrix.elim_cells"] += cells(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[name] += elapsed - frame[1]
                total_s[name] += elapsed
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(result, *args)
            return result
        return wrapper

    def _counter(self, *names: str):
        def make(fn):
            counts = self.counts

            def wrapper(*args, **kwargs):
                for name in names:
                    counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _rebind(self, module, attr: str, make) -> None:
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in [m for key, m in sys.modules.items()
                    if key == "minrank" or key.startswith("minrank.")]:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def _rebind_method(self, cls, attr: str, make) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def _exhausted(self, report, problem, *_):
        self.counts["oracle.candidates"] += problem.field.p ** (problem.x_rows * problem.x_cols)
        self.counts["oracle.minimizers"] += len(report.simultaneous_minimizers)

    def install(self) -> None:
        from minrank import block2x2, cli, fields, files, matrix, oracle, overlap, ucl

        if self.scalars:
            for cls in (fields.PrimeField, fields.RationalField):
                for attr in ("add", "sub", "mul", "neg"):
                    self._rebind_method(cls, attr, self._counter("fields.scalar_ops"))
                self._rebind_method(cls, "inverse", self._counter(
                    "fields.scalar_ops", "fields.inverse.calls"))
            return

        def span(name, **kw):
            return lambda fn: self._span(name, fn, **kw)

        self._rebind(cli, "main", span("cli"))
        for attr in dir(files):
            if not attr.startswith("_") and attr.endswith("_from_json"):
                self._rebind(files, attr, span("files.parse"))
            elif not attr.startswith("_") and attr.endswith("_to_json"):
                self._rebind(files, attr, span("files.emit"))
        self._rebind(overlap, "build_chains", span("overlap.build_chains"))
        self._rebind(overlap, "dimension_and_ranks", span("overlap.dimension_and_ranks"))
        self._rebind(overlap, "complete_overlap", span("overlap.complete_overlap", calls=True))
        self._rebind_method(overlap.BlockProblem, "known_stack",
                            self._counter("overlap.known_stack.calls"))
        self._rebind(block2x2, "r_opt", span("block2x2.r_opt", calls=True))
        self._rebind(ucl, "solve_ucl", span("ucl.solve_ucl", calls=True))
        self._rebind(ucl, "check_hypotheses", span("ucl.check_hypotheses"))
        self._rebind(ucl, "block_c_inverse", span("ucl.block_c_inverse"))
        self._rebind(oracle, "exhaust", span("oracle.exhaust", after=self._exhausted))
        self._rebind(matrix, "rank", span("matrix.rank", calls=True, cells=_one_input))
        self._rebind(matrix, "rref", span("matrix.rref", calls=True, cells=_one_input))
        for attr, cells in (("max_independent_rows", _one_input),
                            ("max_independent_cols", _one_input),
                            ("minimal_spanning_columns", _span_cols),
                            ("minimal_spanning_rows", _span_rows)):
            self._rebind(matrix, attr, span("matrix.select", calls=True, cells=cells))
        self._rebind(matrix, "hstack", span("matrix.stack"))
        self._rebind(matrix, "vstack", span("matrix.stack"))
        self._rebind_method(matrix.Matrix, "__matmul__", span("matrix.matmul"))
        self._rebind_method(matrix.Matrix, "assign_submatrix",
                            span("matrix.assign", calls=True))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
