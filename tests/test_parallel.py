import concurrent.futures
import pickle

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

