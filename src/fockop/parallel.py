"""One process fan-out for the exact sweeps.

The exact engine is pure Python, so threads share one interpreter lock
and give no speedup; worker processes do.  ``fan_out`` maps a
module-level function over a sequence of items in forked workers and
returns the results in item order, so output never depends on the job
count.  The pool lives only inside the call: every worker has exited
and been reaped when ``fan_out`` returns or raises.

Workers inherit the items through the fork and are handed only their
indices, so the items need not be picklable; the results must be.

Workers are forked, not spawned: a fork starts in milliseconds and
inherits the imported package, where a spawned worker would import it
again for every call.  fockop starts no threads of its own; a caller
that runs threads of its own while it forks should pass ``jobs=1``.

The first exception stops the fan-out.  Items not yet handed to a
worker are cancelled, and items already queued to a worker, which the
executor can no longer cancel, find the stop flag set and are skipped.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def worker_count(jobs: int, items: int) -> int:
    """Processes ``fan_out`` starts: at most one per item and per usable CPU.

    Capped before anything forks: with the fork start method every worker
    is launched when the pool opens.
    """
    return max(1, min(jobs, items, usable_cpus()))


# Stop flag and items of the running pool: forked workers inherit both (an
# Event cannot be pickled into a task, and an item need not be picklable).
# ``fan_out`` sets the flag on the first exception.
_stop = None
_items: Optional[Sequence] = None


def _unless_stopped(fn: Callable[[T], R], index: int) -> Optional[R]:
    if _stop.is_set():
        return None  # the fan-out has failed; nobody reads this result
    return fn(_items[index])


def fan_out(
    fn: Callable[[T], R],
    items: Sequence[T],
    jobs: int,
    on_result: Optional[Callable[[R], None]] = None,
) -> List[R]:
    """``[fn(x) for x in items]``, spread over up to ``jobs`` processes.

    Runs in this process when ``worker_count(jobs, len(items))`` is 1.
    ``fn`` must be a module-level function and the results picklable
    (the items need not be).  ``on_result(result)`` runs here, in item
    order, as each result becomes available.  The first exception, raised
    by ``fn`` or by ``on_result``, is raised here; from then on no item
    starts, and items already running finish before it is raised.
    """
    global _stop, _items
    workers = worker_count(jobs, len(items))
    if workers == 1:
        return _collect(map(fn, items), on_result)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    _stop = context.Event()
    _items = items
    try:
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            try:
                return _collect(pool.map(partial(_unless_stopped, fn), range(len(items))), on_result)
            except BaseException:
                _stop.set()
                pool.shutdown(cancel_futures=True)
                raise
    finally:
        _items = None


def _collect(results: Iterable[R], on_result: Optional[Callable[[R], None]]) -> List[R]:
    out: List[R] = []
    for result in results:
        out.append(result)
        if on_result is not None:
            on_result(result)
    return out
