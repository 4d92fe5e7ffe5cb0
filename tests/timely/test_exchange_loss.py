"""The exchange path's loss paths leave no progress or memory behind.

A batch worker 0 sends to worker 1 (another process, so it crosses a link)
can be lost three ways: the sender may crash after its flush charged the
in-flight count but before the completion event hands the message to the
network, a link fault may drop the message in the network, or the receiver
may be dead when it arrives.  Either way the runtime must drain to
``idle()``, the sender's retained bytes must return to zero, and no send
queue may keep bytes at quiescence.
"""

from repro.chaos.inject import ChaosInjector
from repro.chaos.plan import FaultPlan, LinkFault
from repro.runtime_events.bus import TraceLog
from repro.runtime_events.events import TOPIC_FAULTS, MessageDropped
from repro.timely.graph import Exchange, Pipeline
from tests.helpers import feed_epochs, make_dataflow

RETAINED = 4096
# CPU charged per shipped batch: the window between the flush and the
# completion event that hands the batch to the network.
SHIP_COST_S = 0.01


class _Shipper:
    """Ships each batch onward, pinning ``RETAINED`` sender bytes until the
    network drains it (the shape of a migration's serialized state)."""

    def __init__(self, on_ship):
        self._on_ship = on_ship

    def on_input(self, ctx, port, time, records):
        ctx.memory.add_retained(RETAINED)
        ctx.send(0, time, records, size_bytes=RETAINED, retained_bytes=RETAINED)
        ctx.charge(SHIP_COST_S)
        self._on_ship(ctx)


class _Collect:
    def __init__(self, received):
        self._received = received

    def on_input(self, ctx, port, time, records):
        self._received.append((ctx.worker_id, time, list(records)))


def _run(on_ship=lambda runtime, ctx: None, plan=None):
    df = make_dataflow(num_workers=2, workers_per_process=1)
    data, group = df.new_input("data")
    holder = {}
    shipped = data.unary(
        "ship",
        lambda w: _Shipper(lambda ctx: on_ship(holder["runtime"], ctx)),
        pact=Pipeline(),
    )
    received = []
    shipped.unary(
        "collect", lambda w: _Collect(received), pact=Exchange(lambda record: 1)
    )
    runtime = df.build()
    holder["runtime"] = runtime
    log = TraceLog(runtime.sim.trace, topics=(TOPIC_FAULTS,))
    if plan is not None:
        ChaosInjector(runtime, plan).install()
    feed_epochs(runtime, group, [[("x", 1)]])
    runtime.run_to_quiescence()
    return runtime, received, log


def _assert_drained(runtime):
    assert runtime.idle()
    cluster = runtime.cluster
    for process in cluster.processes:
        assert process.memory.retained_bytes == 0
        assert process.memory.send_queue_bytes == 0
    for src in range(len(cluster.processes)):
        for dst in range(len(cluster.processes)):
            if src != dst:
                assert cluster.link(src, dst).queued_bytes == 0.0


def test_delivered_batch_releases_sender_memory():
    runtime, received, log = _run()
    assert received == [(1, 0, [("x", 1)])]
    assert not log.of_type(MessageDropped)
    _assert_drained(runtime)


def _crash_mid_activation(worker_id):
    """Crash ``worker_id`` after the shipper's flush (which runs at the end
    of its activation) and before the completion event at busy_until that
    hands the batch to the network."""

    def on_ship(runtime, ctx):
        worker = runtime.workers[worker_id]

        def crash():
            worker.alive = False
            worker.discard_pending_work()
            worker.release_all_capabilities()

        runtime.sim.schedule_at(ctx.now + SHIP_COST_S / 2, crash)

    return on_ship


def test_sender_crash_between_flush_and_handoff_loses_batch_cleanly():
    runtime, received, log = _run(on_ship=_crash_mid_activation(0))
    assert received == []
    drops = log.of_type(MessageDropped)
    assert [d.reason for d in drops] == ["crashed-sender"]
    assert (drops[0].src_worker, drops[0].dst_worker) == (0, 1)
    assert drops[0].size_bytes == RETAINED
    _assert_drained(runtime)


def test_batch_arriving_at_dead_receiver_is_consumed():
    runtime, received, log = _run(on_ship=_crash_mid_activation(1))
    assert received == []
    drops = log.of_type(MessageDropped)
    assert [d.reason for d in drops] == ["dead-worker"]
    assert drops[0].dst_worker == 1
    assert drops[0].size_bytes == RETAINED
    _assert_drained(runtime)


def test_message_lost_by_link_fault_is_compensated():
    plan = FaultPlan(
        link_faults=(
            LinkFault(at_s=0.0, duration_s=1.0, src_process=0, dst_process=1,
                      drop_prob=1.0),
        )
    )
    runtime, received, log = _run(plan=plan)
    assert received == []
    drops = log.of_type(MessageDropped)
    assert [d.reason for d in drops] == ["partition"]
    assert (drops[0].src_worker, drops[0].dst_worker) == (0, 1)
    _assert_drained(runtime)
