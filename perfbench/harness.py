"""Shared plumbing of the repository benchmark.

Statistics (median, the tail-percentile rule), the span recorder that
splits a traced run into stages, and the process runner that times one
program process from spawn to exit and reads its peak RSS.  Nothing here
imports ``repro``: the program is only ever started as a process or
called from the workload modules.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ContextManager, Iterator, Sequence

#: Tail percentiles tried from the highest down; 50 is the fallback when
#: the sample is too small for p90 to have ten samples beyond it.
TAIL_PERCENTILES = (99.0, 90.0, 50.0)

#: A percentile is only reported when at least this many samples lie
#: beyond it.
MIN_BEYOND = 10

#: Hard limit on any single program process (seconds).
PROCESS_TIMEOUT_S = 60.0

#: Iterations of the calibration loop, and the seconds it takes on the
#: reference host (2-vCPU VM at 2.1 GHz, in its quieter phases).
CAL_ITERATIONS = 500_000
CAL_REFERENCE_S = 0.125

#: Loops per calibration, averaged: a single 0.1 s loop right after a
#: program process exits is itself noisy.
CAL_REPEATS = 3

#: How strongly a program process follows the calibration: its wall time
#: goes as ``calibration ** CAL_EXPONENT``.  The loop is pure Python; a
#: program process also imports, allocates and runs numpy, which a busy
#: host slows less.  Over ten zoo-grid runs whose raw per-run medians
#: spread 0.47 (IQR / median), scaling left 0.24 at exponent 0.6, 0.20 at
#: 0.7-0.8 and 0.22 at 1.0; with a memory-bound neighbour process slowing
#: ``repro campaign`` 1.5x, the mean of three loops at 0.8 brought the
#: medians with and without the neighbour within 2 % (8 % for one loop).
CAL_EXPONENT = 0.8


# -- statistics ----------------------------------------------------------


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample (mean of the middle pair when even)."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def nearest_rank(ordered: Sequence[float], pct: float) -> tuple[int, float]:
    """``(rank, value)`` of the nearest-rank percentile of a sorted sample;
    ``rank`` is 1-based, so ``len(ordered) - rank`` samples lie beyond."""
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return rank, float(ordered[rank - 1])


def tail(values: Sequence[float]) -> tuple[float, float]:
    """``(percentile, value)``: the highest of :data:`TAIL_PERCENTILES`
    with at least :data:`MIN_BEYOND` samples beyond it.  A sample too small
    for any of them reports its maximum as percentile 100."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("tail of an empty sample")
    for pct in TAIL_PERCENTILES:
        rank, value = nearest_rank(ordered, pct)
        if len(ordered) - rank >= MIN_BEYOND:
            return pct, value
    return 100.0, float(ordered[-1])


def summary(values: Sequence[float]) -> dict[str, float]:
    """Median, tail and sample count of one timing, for the run record."""
    pct, value = tail(values)
    return {"median": median(values), "tail_pct": pct, "tail": value,
            "n": len(values), "values": list(values)}


# -- host speed ----------------------------------------------------------


def calibrate(iterations: int = CAL_ITERATIONS) -> float:
    """Wall seconds of a fixed pure-Python loop: how fast the host runs
    interpreter-bound code right now.

    On a shared host the same program process can take +-25 % longer for
    reasons outside the program, in phases lasting seconds to minutes.  A
    process timed between two calibrations is scaled by them
    (:meth:`Context.run_scaled`), which cancels most of that drift while a
    change to the program still moves the result in full.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(iterations):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    return time.perf_counter() - start


# -- spans ---------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    #: Stage spans are what the traced total is split into; the others
    #: (a root, a process) only group them.
    stage: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Spans:
    """In-memory span log: ``(name, start, end, parent)`` per span.

    Spans are only kept in memory while the run goes on and written once
    at the end (:meth:`write`), so recording costs a clock read and an
    append.  Each thread keeps its own stack of open spans, so a threaded
    server can record from every handler thread.

    Stage spans may nest (a profile builds a graph).  A stage's *self
    time* is its duration minus the stage spans directly inside it, so
    the self times of every stage under a root, plus :meth:`unattributed`,
    add up to the root's duration.
    """

    clock: Callable[[], float] = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _local: threading.local = field(default_factory=threading.local)

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, stage: bool = True) -> Iterator[int]:
        index = self.begin(name, stage)
        try:
            yield index
        finally:
            self.end(index)

    def begin(self, name: str, stage: bool = True) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        now = self.clock()
        with self._lock:
            self.spans.append(Span(name, now, now, parent, stage))
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        stack = self._stack()
        if not stack or stack[-1] != index:
            raise RuntimeError("spans must close innermost first")
        stack.pop()
        self.spans[index].end = self.clock()

    def graft(self, records: Sequence[dict[str, Any]],
              roots: Sequence[int]) -> int:
        """Adopt spans recorded by another process.

        Each of its top-level spans goes under the root that covers it in
        time, with its descendants; one no root covers is dropped.  Both
        processes read the same monotonic clock (``time.perf_counter`` is
        ``CLOCK_MONOTONIC`` on Linux), so times need no shifting.  Returns
        the number of top-level spans dropped."""
        mapped: dict[int, int] = {}
        dropped = 0
        for old, rec in enumerate(records):
            if rec["parent"] is None:
                parent = next(
                    (r for r in roots
                     if self.spans[r].start <= rec["start"]
                     and rec["end"] <= self.spans[r].end), None)
                dropped += parent is None
            else:
                parent = mapped.get(rec["parent"])
            if parent is None:
                continue
            self.spans.append(Span(rec["name"], rec["start"], rec["end"],
                                   parent, rec["stage"]))
            mapped[old] = len(self.spans) - 1
        return dropped

    def stages(self, root: int) -> list[tuple[int, int | None]]:
        """``(index, enclosing stage or None)`` of every stage span under
        ``root``; children always follow their parent in the log."""
        owner: dict[int, int | None] = {root: None}
        found = []
        for i in range(root + 1, len(self.spans)):
            span = self.spans[i]
            if span.parent not in owner:
                continue
            up = owner[span.parent]
            if span.stage:
                found.append((i, up))
                owner[i] = i
            else:
                owner[i] = up
        return found

    def stage_total(self, root: int) -> float:
        """Duration of the outermost stage spans under ``root``."""
        return sum(self.spans[i].duration
                   for i, up in self.stages(root) if up is None)

    def unattributed(self, root: int) -> float:
        """The root's duration minus the stage spans under it."""
        return self.spans[root].duration - self.stage_total(root)

    def durations(self, root: int) -> dict[str, list[float]]:
        """Stage name -> duration of every stage span under ``root``,
        nested stages included: how long each call took."""
        found: dict[str, list[float]] = {}
        for i, _ in self.stages(root):
            found.setdefault(self.spans[i].name, []).append(
                self.spans[i].duration)
        return found

    def self_times(self, root: int) -> dict[str, list[float]]:
        """Stage name -> self time of every stage span under ``root``."""
        stages = self.stages(root)
        inner: dict[int, float] = {}
        for i, up in stages:
            if up is not None:
                inner[up] = inner.get(up, 0.0) + self.spans[i].duration
        found: dict[str, list[float]] = {}
        for i, _ in stages:
            found.setdefault(self.spans[i].name, []).append(
                self.spans[i].duration - inner.get(i, 0.0))
        return found

    def to_records(self) -> list[dict[str, Any]]:
        return [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "stage": s.stage}
            for s in self.spans
        ]

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.to_records()}))


# -- program processes ---------------------------------------------------


@dataclass(frozen=True)
class ProcessResult:
    argv: tuple[str, ...]
    returncode: int
    wall_s: float
    peak_rss_mb: float
    timed_out: bool

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and not self.timed_out


def program_env(root: Path) -> dict[str, str]:
    """The environment program processes run in: the checkout's ``src``
    first on the import path, unbuffered output."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def repro_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro.cli", *args]


def traced_argv(out: Path, layers: Sequence[str], *args: str) -> list[str]:
    """The same ``repro`` command run through ``layers.py``, which wraps
    ``layers`` in spans and writes them to ``out``."""
    return [sys.executable, str(Path(__file__).with_name("layers.py")),
            "--out", str(out), "--layers", *layers, "--", *args]


def reap(proc: subprocess.Popen, timeout: float) -> tuple[int, float, bool]:
    """Wait for ``proc``; ``(returncode, peak RSS MiB, timed_out)``.

    ``os.wait4`` returns the child's own resource usage, so the peak RSS
    is that process's and not the largest of every child so far.  A timer
    kills a process that outlives ``timeout``.
    """
    timed_out = threading.Event()

    def kill() -> None:
        timed_out.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return proc.returncode, usage.ru_maxrss / 1024.0, timed_out.is_set()


def run_process(
    argv: Sequence[str],
    *,
    cwd: Path,
    env: dict[str, str],
    log: Path,
    spawned: Callable[[subprocess.Popen], None] = lambda proc: None,
    timeout: float = PROCESS_TIMEOUT_S,
) -> ProcessResult:
    """Run one program process to completion; wall time is spawn to exit."""
    with log.open("ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            list(argv), cwd=cwd, env=env, stdin=subprocess.DEVNULL,
            stdout=out, stderr=subprocess.STDOUT,
        )
        spawned(proc)
        rc, rss, timed_out = reap(proc, timeout)
        wall = time.perf_counter() - start
    return ProcessResult(tuple(argv), rc, wall, rss, timed_out)


def stop_process(proc: subprocess.Popen, grace: float = 10.0) -> tuple[int, float]:
    """Interrupt a long-lived process and reap it: ``(returncode, RSS MiB)``."""
    if proc.returncode is not None:
        return proc.returncode, 0.0
    try:
        proc.send_signal(signal.SIGINT)
    except ProcessLookupError:
        pass
    rc, rss, _ = reap(proc, grace)
    return rc, rss


# -- correctness helpers -------------------------------------------------


def records_digest(records: Sequence[dict[str, Any]]) -> str:
    """Digest of a campaign's records, independent of file formatting."""
    canon = json.dumps(list(records), sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canon.encode(), digest_size=16).hexdigest()


def read_json(path: Path) -> Any:
    """A JSON document the program wrote, or None when it is missing or
    malformed (a failed check, not a benchmark crash)."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def file_records_digest(path: Path) -> str | None:
    doc = read_json(path)
    try:
        return records_digest(doc["records"])
    except (KeyError, TypeError):
        return None


# -- run record ----------------------------------------------------------


def source_digest(root: Path) -> str:
    """Digest of every Python source file under ``src/repro``: identifies
    the program measured when the checkout is not a git repository."""
    h = hashlib.blake2b(digest_size=16)
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    # Only ask git inside a checkout that is itself a repository, so git
    # never searches the directories above it.
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else None


def environment(root: Path) -> dict[str, Any]:
    """What a trajectory row needs to compare like with like."""
    import numpy
    import scipy

    return {
        "commit": git_commit(root),
        "source_digest": source_digest(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


# -- one benchmark run ---------------------------------------------------


@dataclass
class Context:
    """State of one benchmark run: where it works, what it counted."""

    root: Path
    work: Path
    seed: int
    seconds: float
    env: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    details: dict[str, Any] = field(default_factory=dict)
    #: Every process started, so a watchdog can stop what is still running.
    procs: list[subprocess.Popen] = field(default_factory=list)
    #: Every calibration taken (seconds), for the run record.
    calibrations: list[float] = field(default_factory=list)

    @property
    def log(self) -> Path:
        return self.work / "programs.log"

    def run(self, argv: Sequence[str]) -> ProcessResult:
        """Run one program process from the checkout root."""
        result = run_process(argv, cwd=self.root, env=self.env, log=self.log,
                             spawned=self.procs.append)
        self.peak_rss_mb = max(self.peak_rss_mb, result.peak_rss_mb)
        return result

    def calibrate(self) -> float:
        self.calibrations.append(
            sum(calibrate() for _ in range(CAL_REPEATS)) / CAL_REPEATS)
        return self.calibrations[-1]

    def scale(self, wall_s: float, before: float, after: float) -> float:
        """A wall time taken between calibrations ``before`` and ``after``,
        at the reference host speed."""
        return wall_s * (CAL_REFERENCE_S / ((before + after) / 2.0)
                         ) ** CAL_EXPONENT

    def run_scaled(
        self,
        argv: Sequence[str],
        around: Callable[[], ContextManager[Any]] = nullcontext,
    ) -> tuple[ProcessResult, float]:
        """Run one program process between two calibrations; returns it
        and its wall time at the reference host speed.  Consecutive calls
        share the calibration between them.  ``around()`` is entered for
        the process alone (a traced run's span), not the calibrations."""
        before = self.calibrations[-1] if self.calibrations else self.calibrate()
        with around():
            result = self.run(argv)
        return result, self.scale(result.wall_s, before, self.calibrate())

    def kill_all(self) -> None:
        for proc in self.procs:
            if proc.returncode is None:
                proc.kill()

    def check(self, ok: bool, what: str) -> bool:
        """Count one attempted operation; a false ``ok`` is a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok
