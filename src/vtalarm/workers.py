"""Independent items on one worker thread per CPU the process may use.

:func:`run` is the one place the package starts threads. Synth runs one
event per item and featurize one window per item; numpy's FFTs, sines,
normal draws and array passes release the interpreter lock, so the
workers overlap on separate CPUs.
"""

from __future__ import annotations

import contextvars
import os
import threading
from typing import Callable, TypeVar

S = TypeVar("S")


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS keeps one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run(n: int, state: Callable[[], S], item: Callable[[S, int], None]) -> None:
    """Call ``item(s, i)`` once for each ``i`` in ``range(n)``.

    ``min(usable_cpus(), n)`` workers share the items, and the calling
    thread is one of them. Each worker builds its own ``s = state()``
    once, then claims the next index from a shared counter until none is
    left. Each helper thread runs in a copy of the caller's context, so a
    setting the caller holds in a context variable, such as
    ``np.errstate``, holds in every worker.

    Once an item or a state raises, no worker claims another index. Each
    finishes the item it holds, and the error of the lowest failing index
    is raised here, a state's error before any item's. Indices are handed
    out in order, so that is the error a serial loop raises.
    """
    lock = threading.Lock()
    claimed = 0
    errors: dict[int, BaseException] = {}

    def work() -> None:
        nonlocal claimed
        i = -1  # a state's error ranks before every item's
        try:
            s = state()
            while True:
                with lock:
                    if errors or claimed == n:
                        return
                    i, claimed = claimed, claimed + 1
                item(s, i)
        except BaseException as exc:  # re-raised in the caller once every worker has stopped
            with lock:
                errors[i] = exc

    helpers = [
        threading.Thread(target=contextvars.copy_context().run, args=(work,))
        for _ in range(min(usable_cpus(), n) - 1)
    ]
    for thread in helpers:
        thread.start()
    work()
    for thread in helpers:
        thread.join()
    if errors:
        raise errors[min(errors)]


__all__ = ["usable_cpus", "run"]
