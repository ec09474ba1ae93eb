"""Self-tests of the benchmark harness (no program processes started).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import random
import threading

import pytest

import loadgen
from harness import (
    CAL_EXPONENT,
    CAL_REFERENCE_S,
    Context,
    Spans,
    median,
    nearest_rank,
    tail,
)


# -- the percentile rule ---------------------------------------------------


def test_median_odd_and_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_nearest_rank_counts_samples_beyond():
    ordered = [float(i) for i in range(1, 101)]
    rank, value = nearest_rank(ordered, 90.0)
    assert (rank, value) == (90, 90.0)
    assert len(ordered) - rank == 10


@pytest.mark.parametrize("n, pct", [
    (2000, 99.0),   # p99 leaves 20 beyond
    (1000, 99.0),   # p99 leaves exactly 10 beyond
    (999, 90.0),    # p99 would leave 9: fall back to p90
    (100, 90.0),    # p90 leaves exactly 10 beyond
    (99, 50.0),     # p90 would leave 9: fall back to the median
    (20, 50.0),
    (19, 100.0),    # nothing has 10 beyond: the maximum
])
def test_tail_picks_highest_percentile_with_ten_beyond(n, pct):
    values = [float(i) for i in range(n)]
    random.Random(n).shuffle(values)
    got_pct, value = tail(values)
    assert got_pct == pct
    beyond = sum(v > value for v in values)
    if pct < 100.0:
        assert beyond >= 10
    else:
        assert value == max(values)


# -- the stage-sum identity ------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def test_stages_plus_unattributed_equal_total():
    clock = FakeClock()
    spans = Spans(clock=clock)
    root = spans.begin("total", stage=False)
    clock.advance(0.5)                      # glue before the first stage
    with spans.span("zoo.build"):
        clock.advance(1.0)
    group = spans.begin("worker", stage=False)
    clock.advance(0.25)                     # worker start-up
    with spans.span("verify.campaign"):
        clock.advance(2.0)
    with spans.span("engine.loop"):
        clock.advance(0.75)
    spans.end(group)
    clock.advance(0.125)
    spans.end(root)

    total = spans.spans[root].duration
    assert total == 4.625
    assert spans.stage_total(root) == 3.75
    assert spans.unattributed(root) == 0.875
    assert spans.stage_total(root) + spans.unattributed(root) == total
    assert spans.durations(root) == {
        "zoo.build": [1.0], "verify.campaign": [2.0], "engine.loop": [0.75],
    }


def test_nested_stages_split_into_self_times():
    clock = FakeClock()
    spans = Spans(clock=clock)
    root = spans.begin("process", stage=False)
    clock.advance(0.25)                     # interpreter start
    with spans.span("roofline.profile"):
        clock.advance(0.5)
        with spans.span("zoo.build"):       # the profile builds its graph
            clock.advance(1.0)
        clock.advance(0.25)
    with spans.span("verify.campaign"):
        with spans.span("zoo.build"):
            clock.advance(1.0)
        with spans.span("verify.rule.check_shapes"):
            clock.advance(0.5)
    spans.end(root)

    assert spans.durations(root) == {
        "roofline.profile": [1.75], "zoo.build": [1.0, 1.0],
        "verify.campaign": [1.5], "verify.rule.check_shapes": [0.5],
    }
    own = spans.self_times(root)
    assert own == {
        "roofline.profile": [0.75], "zoo.build": [1.0, 1.0],
        "verify.campaign": [0.0], "verify.rule.check_shapes": [0.5],
    }
    total = spans.spans[root].duration
    assert spans.stage_total(root) == 3.25
    assert spans.unattributed(root) == 0.25
    assert sum(sum(v) for v in own.values()) + spans.unattributed(root) \
        == total


def test_grafted_spans_go_under_the_root_that_covers_them():
    clock = FakeClock()
    spans = Spans(clock=clock)
    first = spans.begin("request", stage=False)
    clock.advance(3.0)
    spans.end(first)
    clock.advance(1.0)
    second = spans.begin("request", stage=False)
    clock.advance(2.0)
    spans.end(second)
    # As another process writes them: each thread's top span has parent
    # None; the warm-up call at 3.5 falls in no request and is dropped
    # with its child.
    dropped = spans.graft([
        {"name": "serve.answer", "start": 0.5, "end": 2.5, "parent": None,
         "stage": True},
        {"name": "serve.feature_lookup", "start": 1.0, "end": 2.0,
         "parent": 0, "stage": True},
        {"name": "serve.answer", "start": 3.25, "end": 3.75, "parent": None,
         "stage": True},
        {"name": "serve.feature_lookup", "start": 3.5, "end": 3.6,
         "parent": 2, "stage": True},
        {"name": "serve.parse", "start": 4.5, "end": 5.0, "parent": None,
         "stage": True},
    ], [first, second])
    assert dropped == 1
    assert spans.durations(first) == {
        "serve.answer": [2.0], "serve.feature_lookup": [1.0]}
    assert spans.self_times(first) == {
        "serve.answer": [1.0], "serve.feature_lookup": [1.0]}
    assert spans.unattributed(first) == 1.0
    assert spans.durations(second) == {"serve.parse": [0.5]}
    assert spans.unattributed(second) == 1.5


def test_threads_keep_their_own_open_spans():
    spans = Spans()
    root = spans.begin("process", stage=False)
    seen = []

    def handler() -> None:
        with spans.span("serve.parse") as i:
            seen.append(spans.spans[i].parent)

    worker = threading.Thread(target=handler)
    worker.start()
    worker.join()
    spans.end(root)
    assert seen == [None]          # not nested under the main thread's root


def test_spans_must_close_innermost_first():
    spans = Spans(clock=FakeClock())
    outer = spans.begin("outer")
    spans.begin("inner")
    with pytest.raises(RuntimeError):
        spans.end(outer)


# -- due-time accounting under a fake clock --------------------------------


def test_open_loop_counts_latency_from_due_time():
    clock = FakeClock()
    service = {0: 0.3, 1: 0.1, 2: 0.1, 3: 0.1}

    def send(conn: int, i: int) -> bool:
        clock.advance(service[i])
        return True

    # Request 0 takes 0.3 s on the only connection, so requests 1 and 2
    # (due at 0.1 and 0.2) wait for it; request 3 (due at 1.0) does not.
    samples = loadgen.open_loop([0.0, 0.1, 0.2, 1.0], send, 1,
                                clock=clock, sleep=clock.advance)
    assert [s.index for s in samples] == [0, 1, 2, 3]
    got = [(s.due, s.sent, s.done) for s in samples]
    assert got == pytest.approx([(0.0, 0.0, 0.3), (0.1, 0.3, 0.4),
                                 (0.2, 0.4, 0.5), (1.0, 1.0, 1.1)])
    assert [s.latency for s in samples] == pytest.approx([0.3, 0.3, 0.3, 0.1])
    assert [s.queue_wait for s in samples] == pytest.approx(
        [0.0, 0.2, 0.2, 0.0])
    # Only requests whose sender slept until the due time measure the
    # generator's own lateness; the fake sleep is exact.
    assert [s.idle for s in samples] == [False, False, False, True]
    assert loadgen.lateness(samples) == pytest.approx([0.0])


def test_generator_lateness_is_oversleep():
    clock = FakeClock()

    def late_sleep(dt: float) -> None:
        clock.advance(dt + 0.002)

    samples = loadgen.open_loop(
        [0.5, 1.0], lambda c, i: True, 1, clock=clock, sleep=late_sleep
    )
    assert loadgen.lateness(samples) == pytest.approx([0.002, 0.002])
    assert [s.latency for s in samples] == pytest.approx([0.002, 0.002])


def test_backlog_growth_is_flagged():
    def run(service: float) -> bool:
        clock = FakeClock()

        def send(conn: int, i: int) -> bool:
            clock.advance(service)
            return True

        offsets = [0.05 * i for i in range(200)]   # 20 requests/s
        samples = loadgen.open_loop(offsets, send, 1, clock=clock,
                                    sleep=clock.advance)
        return loadgen.backlog_grows(samples, offsets)

    assert not run(0.02)     # 40 % utilisation: no queue
    assert run(0.08)         # 160 %: the queue grows without bound


def test_poisson_offsets_are_seeded():
    a = loadgen.poisson_offsets(20.0, 10.0, random.Random(3))
    b = loadgen.poisson_offsets(20.0, 10.0, random.Random(3))
    assert a == b
    assert all(x < y for x, y in zip(a, a[1:]))
    assert 120 < len(a) < 280


# -- host-speed scaling ----------------------------------------------------


def test_scaling_to_reference_host_speed(tmp_path):
    ctx = Context(root=tmp_path, work=tmp_path, seed=0, seconds=1.0)
    # A host running the calibration loop at half the reference speed
    # makes a process look 2 ** CAL_EXPONENT times as long as it is at
    # reference speed.
    slow = 2 * CAL_REFERENCE_S
    assert ctx.scale(3.0, slow, slow) == pytest.approx(3.0 / 2 ** CAL_EXPONENT)
    assert ctx.scale(3.0, CAL_REFERENCE_S, CAL_REFERENCE_S) == 3.0
    # The two calibrations around the process are averaged.
    assert ctx.scale(3.0, CAL_REFERENCE_S, slow) == pytest.approx(
        3.0 / 1.5 ** CAL_EXPONENT)


# -- companions of a traced run ----------------------------------------------


class FakeTraced:
    """A workload whose traced run reports fixed metrics."""

    found = {
        "node-sweep-store": {"a_s": 1.0, "b_s": 2.0},
        "serve-mix": {"b_s": 3.0, "c_s": 4.0},
    }

    def __init__(self, name: str, ctx: Context, calls: list[str]) -> None:
        self.name, self.ctx, self.calls = name, ctx, calls

    def run_traced(self) -> dict[str, float]:
        self.calls.append(self.name)
        self.ctx.check(self.name != "serve-mix", "fake failure")
        return dict(self.found[self.name])


def _companion_ctx(tmp_path, monkeypatch, calls):
    import run

    monkeypatch.setattr(run, "make_workload",
                        lambda name, ctx: FakeTraced(name, ctx, calls))
    ctx = Context(root=tmp_path, work=tmp_path / "work", seed=0, seconds=1.0)
    ctx.work.mkdir()
    return run, ctx


def test_companions_fill_only_missing_metrics_in_order(tmp_path, monkeypatch):
    calls: list[str] = []
    run, ctx = _companion_ctx(tmp_path, monkeypatch, calls)
    measured = {"a_s": 0.5}
    run.run_companions("zoo-grid", ctx, measured, {"a_s", "b_s", "c_s"})
    assert calls == ["node-sweep-store", "serve-mix"]
    assert measured == {"a_s": 0.5, "b_s": 2.0, "c_s": 4.0}
    assert ctx.details["companions"] == {
        "node-sweep-store": ["b_s"], "serve-mix": ["c_s"]}
    # A companion's checks count in the run's own.
    assert (ctx.attempted, ctx.failed) == (2, 1)
    assert ctx.failures == ["serve-mix: fake failure"]


def test_no_companion_runs_when_nothing_is_missing(tmp_path, monkeypatch):
    calls: list[str] = []
    run, ctx = _companion_ctx(tmp_path, monkeypatch, calls)
    measured = {"a_s": 0.5, "b_s": 0.5}
    run.run_companions("zoo-grid", ctx, measured, {"a_s", "b_s"})
    assert calls == []
    assert measured == {"a_s": 0.5, "b_s": 0.5}
