"""End-to-end tests with partially ordered (product) timestamps.

Timely dataflow frontiers are set-valued because timestamps may be only
partially ordered (paper Definition 1).  These tests run actual dataflows
on product timestamps and check the frontier machinery copes.
"""

from repro.timely.operators import FnLogic
from tests.helpers import make_dataflow


def test_product_timestamps_flow_and_complete():
    df = make_dataflow(num_workers=1, workers_per_process=1)
    stream, group = df.new_input(initial_timestamp=(0, 0))
    seen = []
    stream.map(lambda x: x).sink(lambda w, t, recs: seen.append((t, list(recs))))
    runtime = df.build()

    def drive():
        handle = group.handle(0)
        handle.send((0, 1), ["a"])
        handle.send((1, 0), ["b"])  # incomparable with (0, 1)
        handle.close()

    runtime.sim.schedule_at(0.0, drive)
    runtime.run_to_quiescence()
    assert sorted(seen) == [((0, 1), ["a"]), ((1, 0), ["b"])]
    assert runtime.idle()


def test_set_valued_frontier_observed_by_probe():
    df = make_dataflow(num_workers=1, workers_per_process=1)
    stream, group = df.new_input(initial_timestamp=(0, 0))
    probe = stream.map(lambda x: x).probe()
    runtime = df.build()

    def drive():
        handle = group.handle(0)
        # Hold capabilities at two incomparable timestamps.
        handle.send((0, 5), ["x"])
        handle.send((5, 0), ["y"])

    runtime.sim.schedule_at(0.0, drive)
    runtime.run(until=0.01)
    frontier = probe.frontier()
    # The epoch capability (0, 0) dominates both in-flight timestamps.
    assert frontier.elements() == [(0, 0)]
    runtime.sim.schedule(0.0, group.close_all)
    runtime.run_to_quiescence()
    assert probe.done()


def test_incomparable_notifications_deliver_eventually():
    df = make_dataflow(num_workers=1, workers_per_process=1)
    stream, group = df.new_input(initial_timestamp=(0, 0))
    fired = []

    def factory(worker_id):
        def on_input(ctx, port, time, records):
            ctx.notify_at(time)

        def on_notify(ctx, time):
            fired.append(time)

        return FnLogic(on_input=on_input, on_notify=on_notify)

    stream.unary("pnotify", factory)
    runtime = df.build()

    def drive():
        handle = group.handle(0)
        handle.send((0, 1), ["a"])
        handle.send((1, 0), ["b"])
        handle.close()

    runtime.sim.schedule_at(0.0, drive)
    runtime.run_to_quiescence()
    assert sorted(fired) == [(0, 1), (1, 0)]
