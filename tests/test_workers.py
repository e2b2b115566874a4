"""Worker threads: each item once, the serial loop's error, the caller's context."""

import os
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

from vtalarm import workers


def _workers(monkeypatch, n: int) -> None:
    """Run with ``n`` workers, as on a process allowed ``n`` CPUs."""
    monkeypatch.setattr(workers, "usable_cpus", lambda: n)


class _Log:
    """What the workers did: states built, items run and the thread of each."""

    def __init__(self, n_workers: int):
        self.lock = threading.Lock()
        self.states = 0
        self.items = Counter()
        self.threads = set()
        # The first n_workers items wait for each other, so each of them is
        # held by its own worker and every worker runs at least one item.
        self.barrier = threading.Barrier(n_workers)

    def state(self) -> int:
        with self.lock:
            self.states += 1
            return self.states

    def item(self, s: int, i: int) -> None:
        if i < self.barrier.parties:
            self.barrier.wait(timeout=10)
        with self.lock:
            self.items[i] += 1
            self.threads.add(threading.get_ident())


@pytest.mark.parametrize("n_workers", [1, 2, 3, 8])
def test_every_item_runs_exactly_once(monkeypatch, n_workers):
    """More workers than CPUs, switched every microsecond: no index is lost
    or claimed twice, and each worker builds its state once."""
    n = 300
    _workers(monkeypatch, n_workers)
    log = _Log(n_workers)
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers.run(n, log.state, log.item)
    finally:
        sys.setswitchinterval(interval)
    assert log.items == dict.fromkeys(range(n), 1)
    assert log.states == len(log.threads) == n_workers
    assert threading.active_count() == threads  # every helper has ended


def test_no_more_workers_than_items(monkeypatch):
    _workers(monkeypatch, 8)
    log = _Log(3)
    workers.run(3, log.state, log.item)
    assert log.items == dict.fromkeys(range(3), 1)
    assert log.states == len(log.threads) == 3


@pytest.mark.parametrize("n_workers", [1, 2])
def test_the_lowest_failing_index_raises(monkeypatch, n_workers):
    """Item 3 fails slowly and item 7 at once, so at 2 workers item 7 fails
    first: item 3's error is raised all the same, as a serial loop raises
    it, and no item past the failure is claimed once both have ended."""
    _workers(monkeypatch, n_workers)

    def item(_, i: int) -> None:
        if i == 3:
            time.sleep(0.005)
        if i in (3, 7):
            raise ValueError(f"item {i}")

    threads = threading.active_count()
    for _ in range(20):
        with pytest.raises(ValueError, match="item 3"):
            workers.run(100, lambda: None, item)
    assert threading.active_count() == threads


def test_no_index_is_claimed_after_an_error(monkeypatch):
    _workers(monkeypatch, 1)
    ran = []

    def item(_, i: int) -> None:
        ran.append(i)
        if i == 4:
            raise KeyError(i)

    with pytest.raises(KeyError):
        workers.run(10, lambda: None, item)
    assert ran == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("n_workers", [1, 2])
def test_a_state_error_is_raised(monkeypatch, n_workers):
    _workers(monkeypatch, n_workers)
    ran = []

    def state():
        raise MemoryError("no workspace")

    with pytest.raises(MemoryError, match="no workspace"):
        workers.run(5, state, lambda s, i: ran.append(i))
    assert ran == []


def test_a_helper_state_error_is_raised(monkeypatch):
    """Only the second state fails: the caller's worker may run every item,
    and the helper's error is raised all the same."""
    _workers(monkeypatch, 2)
    built = []

    def state():
        built.append(None)
        if len(built) == 2:
            raise MemoryError("no second workspace")

    threads = threading.active_count()
    with pytest.raises(MemoryError, match="no second workspace"):
        workers.run(50, state, lambda s, i: None)
    assert threading.active_count() == threads


@pytest.mark.parametrize("n_workers", [2, 3])
def test_the_callers_errstate_holds_in_every_worker(monkeypatch, n_workers):
    """numpy keeps its floating-point error settings in a context variable,
    which a new thread does not inherit by itself."""
    _workers(monkeypatch, n_workers)
    log = _Log(n_workers)
    settings = []

    def item(s, i):
        log.item(s, i)
        settings.append(np.geterr()["over"])
        with pytest.raises(FloatingPointError):
            np.float64(1e308) * np.float64(10.0)

    with np.errstate(over="raise"):
        workers.run(12, log.state, item)
    assert len(log.threads) == n_workers
    assert settings == ["raise"] * 12
    assert np.geterr()["over"] != "raise"


def test_usable_cpus_follow_the_affinity_mask_or_the_cpu_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert workers.usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert workers.usable_cpus() == (os.cpu_count() or 1)
