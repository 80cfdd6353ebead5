"""Span recording around fockop's public functions, from outside the package.

A :class:`Tracer` wraps a function, a method or a static method and
rebinds the wrapper under every name that refers to the original in any
loaded ``fockop`` module, so callers that imported the name directly
(``from .operators import hankel_product_apply``) or look it up as a
module global go through the wrapper as well.

Each call records a span (name, start, end, parent span, operation id)
on a thread-local stack.  Self time is the span's duration minus the
time its child spans cover; it is accumulated as spans close, so it is
exact without keeping every span.  The first ``KEEP_SPANS`` spans are kept
in memory and written out by :meth:`Tracer.write_spans` when the run ends.
"""

from __future__ import annotations

import sys
import threading
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional

KEEP_SPANS = 100_000

class SpanStats:
    __slots__ = ("calls", "self_s", "total_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0


class Tracer:
    def __init__(self, expected_errors: tuple) -> None:
        self.stats: Dict[str, SpanStats] = {}
        # layer -> [expected, unexpected] exceptions escaping wrapped calls
        self.errors: Dict[str, List[int]] = {}
        self.op_id = 0
        self.span_count = 0
        self._expected = expected_errors
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._span_id = array("q")
        self._span_name = array("i")
        self._span_parent = array("q")
        self._span_op = array("q")
        self._span_start = array("d")
        self._span_end = array("d")
        self._local = threading.local()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _is_expected(self, exc: BaseException) -> bool:
        if isinstance(exc, SystemExit):  # argparse rejects bad input with exit 2
            return exc.code == 2
        return isinstance(exc, self._expected)

    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped in a span called ``name``.

        ``on_result(result)`` runs after the span closes; its cost is
        charged to no span (the parent sees it as covered by a child).
        """
        stats = self.stats.setdefault(name, SpanStats())
        name_id = self._name_ids.setdefault(name, len(self._names))
        if name_id == len(self._names):
            self._names.append(name)
        layer = name.split(".", 1)[0]
        errors = self.errors.setdefault(layer, [0, 0])
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            tracer.span_count += 1
            span_id = tracer.span_count
            frame = [0.0, span_id]  # child time covered, span id
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                errors[0 if tracer._is_expected(exc) else 1] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[0]
                if span_id <= KEEP_SPANS:
                    tracer._span_id.append(span_id)
                    tracer._span_name.append(name_id)
                    tracer._span_parent.append(parent[1] if parent else 0)
                    tracer._span_op.append(tracer.op_id)
                    tracer._span_start.append(start)
                    tracer._span_end.append(end)
                if parent is not None:
                    parent[0] += duration
            if on_result is not None:
                on_result(result)
                if parent is not None:
                    parent[0] += perf_counter() - end
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def patch_function(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> int:
        """Rebind every module-level reference to ``fn`` in loaded fockop modules.

        Returns the number of names rebound.
        """
        wrapper = self.wrap(name, fn, on_result)
        rebound = 0
        for module in fockop_modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    rebound += 1
        return rebound

    def patch_method(self, name: str, cls: type, attr: str, on_result: Optional[Callable] = None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(self.wrap(name, raw.__func__, on_result)))
        else:
            setattr(cls, attr, self.wrap(name, raw, on_result))

    # -- output ------------------------------------------------------------

    def write_spans(self, path: str) -> int:
        """Write kept spans as TSV (id, parent, op, name, start_s, end_s)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\top\tname\tstart_s\tend_s\n")
            for i, name_id in enumerate(self._span_name):
                fh.write(
                    f"{self._span_id[i]}\t{self._span_parent[i]}\t{self._span_op[i]}\t"
                    f"{self._names[name_id]}\t{self._span_start[i]:.9f}\t{self._span_end[i]:.9f}\n"
                )
        return len(self._span_name)


def fockop_modules() -> list:
    return [
        module
        for key, module in sorted(sys.modules.items())
        if module is not None and (key == "fockop" or key.startswith("fockop."))
    ]
