"""Multiple migrateable operators in one dataflow (paper §3.4).

"This construction can be repeated for all the operators in the dataflow
that need support for migration.  Separate operators can be migrated
independently (via separate configuration update streams), or in a
coordinated manner by re-using the same configuration update stream."
"""


from repro.megaphone.control import BinnedConfiguration, bin_of, stable_hash
from repro.megaphone.controller import EpochTicker, MigrationController
from repro.megaphone.migration import plan_all_at_once
from repro.megaphone.operators import build_migrateable
from tests.helpers import make_dataflow

WORKERS = 2
BINS = 4


def counting_applier(log):
    def applier(app):
        state = app.state
        out = []
        for _tag, (key, val) in app.entries:
            state[key] = state.get(key, 0) + val
            log.append((app.time, app.worker, key))
            out.append((key, 1))
        app.emit(out)

    return applier


def drive(runtime, ticker, data_group, controllers, n_epochs=50):
    def make(e):
        def tick():
            for w, handle in enumerate(data_group.handles()):
                handle.send(e, [(f"k{(e * 3 + w) % 6}", 1)])
                handle.advance_to(e + 1)

        return tick

    for e in range(n_epochs):
        runtime.sim.schedule_at(e * 0.001, make(e))
    runtime.sim.schedule_at(n_epochs * 0.001, data_group.close_all)
    runtime.run(until=(n_epochs + 10) * 0.001)
    guard = 0
    while any(not c.done for c in controllers):
        runtime.sim.run(max_events=10_000)
        guard += 1
        assert guard < 500
    ticker.stop()
    runtime.run_to_quiescence()


def test_shared_control_stream_migrates_operators_in_lockstep():
    df = make_dataflow(num_workers=WORKERS, workers_per_process=2)
    control, control_group = df.new_input("control")
    data, data_group = df.new_input("data")
    initial = BinnedConfiguration.round_robin(BINS, WORKERS)
    log_a, log_b = [], []

    op_a = build_migrateable(
        control, [data], [lambda r: stable_hash(r[0])],
        counting_applier(log_a), num_bins=BINS, name="a", initial=initial,
    )
    # The second operator consumes the first's output — a two-stage
    # stateful pipeline sharing one control stream.
    op_b = build_migrateable(
        control, [op_a.output], [lambda r: stable_hash(r[0])],
        counting_applier(log_b), num_bins=BINS, name="b", initial=initial,
    )
    probe = df.probe(op_b.output)
    runtime = df.build()
    ticker = EpochTicker(runtime, control_group, granularity_ms=1)
    ticker.start()

    target = BinnedConfiguration(tuple((w + 1) % WORKERS for w in initial.assignment))
    controller = MigrationController(
        runtime, control_group, ticker, probe, plan_all_at_once(initial, target)
    )
    controller.start_at(0.010)
    drive(runtime, ticker, data_group, [controller])

    migration_time = controller.result.steps[0].time
    # Both operators' bins moved (same commands, same stream).
    for worker in range(WORKERS):
        for op in (op_a, op_b):
            store = op.store(runtime, worker)
            assert sorted(store.resident_bins()) == sorted(target.bins_of(worker))
    # Both operators honored the same configuration switch point.
    for log, op in ((log_a, op_a), (log_b, op_b)):
        assert log
        for time, worker, key in log:
            bin_id = bin_of(stable_hash(key), BINS)
            expected = (
                target if time >= migration_time else initial
            ).worker_of(bin_id)
            assert worker == expected


def test_independent_control_streams_migrate_independently():
    df = make_dataflow(num_workers=WORKERS, workers_per_process=2)
    control_a, group_a = df.new_input("control_a")
    control_b, group_b = df.new_input("control_b")
    data, data_group = df.new_input("data")
    initial = BinnedConfiguration.round_robin(BINS, WORKERS)
    log_a, log_b = [], []

    op_a = build_migrateable(
        control_a, [data], [lambda r: stable_hash(r[0])],
        counting_applier(log_a), num_bins=BINS, name="a", initial=initial,
    )
    op_b = build_migrateable(
        control_b, [op_a.output], [lambda r: stable_hash(r[0])],
        counting_applier(log_b), num_bins=BINS, name="b", initial=initial,
    )
    probe_a = df.probe(op_a.output)
    df.probe(op_b.output)
    runtime = df.build()
    ticker_a = EpochTicker(runtime, group_a, granularity_ms=1)
    ticker_b = EpochTicker(runtime, group_b, granularity_ms=1)
    ticker_a.start()
    ticker_b.start()

    target = BinnedConfiguration(tuple((w + 1) % WORKERS for w in initial.assignment))
    # Only operator A migrates.
    controller = MigrationController(
        runtime, group_a, ticker_a, probe_a, plan_all_at_once(initial, target)
    )
    controller.start_at(0.010)

    def make(e):
        def tick():
            for w, handle in enumerate(data_group.handles()):
                handle.send(e, [(f"k{(e + w) % 6}", 1)])
                handle.advance_to(e + 1)

        return tick

    for e in range(50):
        runtime.sim.schedule_at(e * 0.001, make(e))
    runtime.sim.schedule_at(0.050, data_group.close_all)
    runtime.run(until=0.08)
    guard = 0
    while not controller.done:
        runtime.sim.run(max_events=10_000)
        guard += 1
        assert guard < 500
    ticker_a.stop()
    ticker_b.stop()
    runtime.run_to_quiescence()

    for worker in range(WORKERS):
        assert sorted(op_a.store(runtime, worker).resident_bins()) == sorted(
            target.bins_of(worker)
        )
        # B never migrated.
        assert sorted(op_b.store(runtime, worker).resident_bins()) == sorted(
            initial.bins_of(worker)
        )
    assert log_b, "downstream operator still processed data"
