"""Open- and closed-loop request generators over a few connections.

The open loop sends request ``i`` at its due time ``t0 + offsets[i]``
whatever happened before, from one process over at most ``connections``
keep-alive connections (one sender thread each, sharing one FIFO).  When
every connection is busy a due request waits; its latency is still
counted from the due time, so a stall shows in the requests queued
behind it instead of disappearing from the sample.

Per request the generator records ``due``, ``sent`` and ``done``:

* latency    = done - due
* queue wait = sent - due (waiting for a free connection, plus lateness)
* lateness   = sent - due for requests whose sender was idle and asleep
  until the due time: how late the generator itself woke up.

The clock and sleep are injectable so the accounting can be tested under
a fake clock.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from harness import median


@dataclass(frozen=True)
class Sample:
    index: int
    due: float
    sent: float
    done: float
    #: The sender was idle before the due time and slept until it.
    idle: bool
    ok: bool

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def queue_wait(self) -> float:
        return max(0.0, self.sent - self.due)


def poisson_offsets(rate: float, duration: float, rng: random.Random) -> list[float]:
    """Arrival offsets (seconds from start) of a Poisson process."""
    offsets = []
    t = rng.expovariate(rate)
    while t < duration:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


def open_loop(
    offsets: Sequence[float],
    send: Callable[[int, int], bool],
    connections: int,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> list[Sample]:
    """Send request ``i`` at ``start + offsets[i]`` over ``connections``
    senders; ``send(connection, i)`` performs one request and returns
    whether it succeeded.  Returns the samples in request order."""
    lock = threading.Lock()
    cursor = [0]
    samples: list[Sample | None] = [None] * len(offsets)
    start = clock()

    def sender(conn: int) -> None:
        while True:
            with lock:
                i = cursor[0]
                if i >= len(offsets):
                    return
                cursor[0] += 1
            due = start + offsets[i]
            now = clock()
            idle = now < due
            if idle:
                sleep(due - now)
            sent = clock()
            ok = send(conn, i)
            samples[i] = Sample(i, due, sent, clock(), idle, ok)

    _run_senders(sender, connections)
    return [s for s in samples if s is not None]


def closed_loop(
    count: Callable[[], int | None],
    send: Callable[[int, int], bool],
    connections: int,
    clock: Callable[[], float] = time.perf_counter,
) -> list[Sample]:
    """Each connection sends its next request as soon as the last one is
    answered; ``count()`` hands out request indexes, ``None`` to stop."""
    lock = threading.Lock()
    samples: list[Sample] = []

    def sender(conn: int) -> None:
        while True:
            with lock:
                i = count()
            if i is None:
                return
            sent = clock()
            ok = send(conn, i)
            done = clock()
            with lock:
                samples.append(Sample(i, sent, sent, done, False, ok))

    _run_senders(sender, connections)
    return sorted(samples, key=lambda s: s.index)


def _run_senders(sender: Callable[[int], None], connections: int) -> None:
    errors: list[BaseException] = []

    def guarded(conn: int) -> None:
        try:
            sender(conn)
        except BaseException as exc:  # re-raised in the caller below
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(c,), daemon=True)
        for c in range(connections)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def lateness(samples: Sequence[Sample]) -> list[float]:
    """Generator lateness of the requests whose sender waited for them."""
    return [s.sent - s.due for s in samples if s.idle]


def backlog_grows(samples: Sequence[Sample], offsets: Sequence[float]) -> bool:
    """True when the queue in front of the connections keeps growing.

    Compares the median queue wait of the last quarter of requests with
    the first quarter.  A sustainable rate keeps it near zero; an
    unsustainable one makes it climb by more than a few mean
    inter-arrival gaps, and then a latency averaged over the phase would
    describe a queue, not the server.
    """
    if len(samples) < 8 or len(offsets) < 2:
        return False
    gap = (offsets[-1] - offsets[0]) / (len(offsets) - 1)
    quarter = len(samples) // 4
    first = median([s.queue_wait for s in samples[:quarter]])
    last = median([s.queue_wait for s in samples[-quarter:]])
    return last > first + 4.0 * gap
