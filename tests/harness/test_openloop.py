"""Tests for the open-loop source."""

import pytest

from repro.harness.latency import EpochLatencyRecorder, LatencyTimeline
from repro.harness.openloop import ElasticOpenLoopSource, OpenLoopSource
from tests.helpers import make_dataflow


def build(rate, duration_s, granularity_ms=10, dilation=1, slow_cost=None):
    from tests.helpers import FAST_COST

    cost = FAST_COST if slow_cost is None else FAST_COST.with_overrides(
        record_cost=slow_cost
    )
    df = make_dataflow(num_workers=2, workers_per_process=2, cost=cost)
    stream, group = df.new_input("data")
    probe = stream.map(lambda x: x).probe()
    runtime = df.build()
    timeline = LatencyTimeline()
    recorder = EpochLatencyRecorder(
        runtime, probe, granularity_ms, timeline, dilation=dilation
    )
    source = OpenLoopSource(
        runtime, group,
        generator=lambda w, t, n: [(w, t, i) for i in range(n)],
        rate=rate, duration_s=duration_s, granularity_ms=granularity_ms,
        recorder=recorder, dilation=dilation,
    )
    return runtime, source, timeline


def test_rate_is_honored_exactly():
    runtime, source, _ = build(rate=1000, duration_s=2.0)
    source.start()
    runtime.run_to_quiescence()
    assert source.records_injected == pytest.approx(2000)


def test_fractional_rates_accumulate_via_carry():
    # 150 records/s at 10ms ticks = 1.5 records per tick.
    runtime, source, _ = build(rate=150, duration_s=2.0)
    source.start()
    runtime.run_to_quiescence()
    assert source.records_injected == pytest.approx(300)


def test_latency_recorded_per_epoch():
    runtime, source, timeline = build(rate=2000, duration_s=1.0)
    source.start()
    runtime.run_to_quiescence()
    series = timeline.series()
    assert series
    # Light load: latency within a few milliseconds.
    assert max(s.max_s for s in series) < 0.05


def test_open_loop_does_not_slow_down_under_backlog():
    """The defining property: injection continues at the nominal rate even
    when the system cannot keep up, and latency grows."""
    runtime, source, timeline = build(
        rate=5000, duration_s=1.0, slow_cost=2e-3  # 2 ms per record: overload
    )
    source.start()
    runtime.run(until=1.0)
    # All scheduled injections happened on time despite the backlog.
    assert source.records_injected == pytest.approx(5000, rel=0.01)
    runtime.run_to_quiescence()
    assert timeline.overall.max_value > 1.0  # seconds of backlog


def test_dilated_epochs_measure_latency_in_processing_time():
    runtime, source, timeline = build(rate=1000, duration_s=1.0, dilation=50)
    source.start()
    runtime.run_to_quiescence()
    # Event time ran 50x faster, but latency is measured against the
    # injection wall-clock: still small under light load.
    assert timeline.overall.max_value < 0.05


def test_closed_handle_share_is_redistributed():
    # A handle closing mid-run (a crashed process) must not silently drop
    # its share of the offered load: each tick deals the full count over
    # the still-open handles, keeping the open-loop rate exact.
    df = make_dataflow(num_workers=4, workers_per_process=4)
    stream, group = df.new_input("data")
    stream.map(lambda x: x).probe()
    runtime = df.build()
    source = OpenLoopSource(
        runtime, group,
        generator=lambda w, t, n: [(w, t, i) for i in range(n)],
        rate=1000, duration_s=1.0,
    )
    runtime.sim.schedule_at(0.495, group.handles()[1].close)
    source.start()
    runtime.run_to_quiescence()
    assert source.records_injected == 1000


# -- elastic source -------------------------------------------------------------


def build_elastic(rate, duration_s, active, num_workers=4, collect=None):
    df = make_dataflow(num_workers=num_workers, workers_per_process=num_workers)
    stream, group = df.new_input("data")
    if collect is not None:
        stream = stream.map(lambda x: (collect.append(x), x)[1])
    stream.probe()
    runtime = df.build()
    source = ElasticOpenLoopSource(
        runtime, group,
        generator=lambda v, t, n: [(v, t, i) for i in range(n)],
        rate=rate, duration_s=duration_s,
        active=active,
    )
    return runtime, source, group


def test_elastic_source_requires_active_set():
    with pytest.raises(ValueError, match="initially-fed"):
        build_elastic(rate=100, duration_s=1.0, active=None)


def test_elastic_feed_mutation_is_idempotent():
    _, source, _ = build_elastic(rate=100, duration_s=1.0, active=[0, 1])
    assert source.feed == [0, 1]
    source.open_worker(2)
    source.open_worker(2)  # re-opening is a no-op
    assert source.feed == [0, 1, 2]
    source.remove_worker(1)
    source.remove_worker(1)  # re-removing is a no-op
    assert source.feed == [0, 2]
    source.remove_worker(3)  # removing a never-fed slot is a no-op
    assert source.feed == [0, 2]


def test_elastic_records_are_membership_independent():
    # The defining invariant: the virtual-stream universe pins record
    # content, so a run whose feed set churns mid-flight injects exactly
    # the records a static-feed run does — only the carrying handle moves.
    static_seen = []
    runtime, source, _ = build_elastic(
        rate=1000, duration_s=1.0, active=[0, 1, 2, 3], collect=static_seen
    )
    source.start()
    runtime.run_to_quiescence()

    churn_seen = []
    runtime, source, _ = build_elastic(
        rate=1000, duration_s=1.0, active=[0, 1], collect=churn_seen
    )
    runtime.sim.schedule_at(0.25, lambda: source.open_worker(2))
    runtime.sim.schedule_at(0.45, lambda: source.open_worker(3))
    runtime.sim.schedule_at(0.75, lambda: source.remove_worker(3))
    source.start()
    runtime.run_to_quiescence()

    assert sorted(churn_seen) == sorted(static_seen)
    assert len(static_seen) == 1000
