"""One process fan-out for the exact sweeps.

The exact engine is pure Python, so threads share one interpreter lock
and give no speedup; worker processes do.  ``fan_out`` maps a
module-level function over picklable items in forked workers and
returns the results in item order, so output never depends on the job
count.  The pool lives only inside the call: every worker has exited
and been reaped when ``fan_out`` returns or raises.

Workers are forked, not spawned: a fork starts in milliseconds and
inherits the imported package, where a spawned worker would import it
again for every call.  fockop starts no threads of its own; a caller
that runs threads of its own while it forks should pass ``jobs=1``.
"""

from __future__ import annotations

import os
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


def fan_out(
    fn: Callable[[T], R],
    items: Sequence[T],
    jobs: int,
    on_result: Optional[Callable[[R], None]] = None,
) -> List[R]:
    """``[fn(x) for x in items]``, spread over up to ``jobs`` processes.

    Runs in this process when ``worker_count(jobs, len(items))`` is 1.
    ``fn`` must be a module-level function and the items and results
    picklable.  ``on_result(result)`` runs here, in item order, as each
    result becomes available.  An exception raised by ``fn`` is raised
    here; items not yet handed to a worker are cancelled.
    """
    workers = worker_count(jobs, len(items))
    if workers == 1:
        return _collect(map(fn, items), on_result)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return _collect(pool.map(fn, items), on_result)


def _collect(results: Iterable[R], on_result: Optional[Callable[[R], None]]) -> List[R]:
    out: List[R] = []
    for result in results:
        out.append(result)
        if on_result is not None:
            on_result(result)
    return out
