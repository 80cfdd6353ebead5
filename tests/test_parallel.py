import concurrent.futures
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fockop import errors, parallel
from fockop.parallel import fan_out, worker_count


def square(x):
    return x * x


class RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records the worker count, forks nothing."""

    created = []

    def __init__(self, max_workers, mp_context=None):
        RecordingExecutor.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture
def recorder(monkeypatch):
    RecordingExecutor.created = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    return RecordingExecutor.created


def test_fan_out_keeps_item_order(recorder, monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)
    seen = []
    assert fan_out(square, list(range(10)), 3, on_result=seen.append) == [x * x for x in range(10)]
    assert seen == [x * x for x in range(10)]
    assert recorder == [3]


def test_fan_out_runs_serially_for_one_job(recorder, monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)
    assert fan_out(square, [1, 2, 3], 1) == [1, 4, 9]
    assert fan_out(square, [5], 8) == [25]
    assert fan_out(square, [], 8) == []
    assert recorder == []


def test_worker_count_is_capped_before_anything_forks(recorder, monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)
    assert worker_count(100_000, 50) == 4
    assert worker_count(3, 2) == 2
    assert worker_count(2, 50) == 2
    fan_out(square, list(range(50)), 100_000)
    fan_out(square, [1, 2], 3)
    assert recorder == [4, 2]


def record_then_sleep(task):
    """Mark item k as started in ``directory``; item 0 returns at once,
    item 1 fails at once, and every later item sleeps 1 s."""
    directory, k = task
    Path(directory, str(k)).touch()
    if k == 1:
        raise ValueError("item 1 fails")
    if k > 1:
        time.sleep(1.0)
    return k


def test_fan_out_stops_after_the_first_error(tmp_path, monkeypatch):
    # Items 0 and 1 end at once, so the failure reaches this process while
    # each of the 2 workers sleeps in at most one later item; the stop
    # flag has that whole second to be set before a worker fetches again.
    # So at most 2 of the 10 later items start.
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    tasks = [(str(tmp_path), k) for k in range(12)]
    with pytest.raises(ValueError, match="item 1 fails"):
        fan_out(record_then_sleep, tasks, 2)
    started = sorted(int(path.name) for path in tmp_path.iterdir())
    assert started[:2] == [0, 1]
    assert len(started) <= 4, started


# Unpicklable items through a real two-worker fan-out, in a child process
# with a timeout: a fan-out that pickles its items can hang in the pool's
# shutdown when that fails.
UNPICKLABLE_ITEMS = """
import pickle
from fockop import parallel

def call(thunk):
    return thunk()

parallel.usable_cpus = lambda: 2
thunks = [lambda k=k: k * k for k in range(7)]
try:
    pickle.dumps(thunks[0])
except Exception:
    pass
else:
    raise SystemExit("a lambda pickled")
assert parallel.fan_out(call, thunks, 2) == parallel.fan_out(call, thunks, 1) == [k * k for k in range(7)]
assert parallel._items is None
print("ok")
"""


def test_items_need_not_be_picklable():
    src = str(Path(parallel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", UNPICKLABLE_ITEMS], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")


def test_usable_cpus_is_positive():
    assert parallel.usable_cpus() >= 1


def _error_instances():
    out = []
    for value in vars(errors).values():
        if isinstance(value, type) and issubclass(value, Exception) and value.__module__ == errors.__name__:
            if value is errors.SymbolSyntaxError:
                out.append(value("unexpected token", "z1 + $", 5))
            else:
                out.append(value(f"{value.__name__} message"))
    return out


@pytest.mark.parametrize("exc", _error_instances(), ids=lambda e: type(e).__name__)
def test_errors_survive_pickling(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)

