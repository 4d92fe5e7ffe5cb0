"""Layer tracing from outside the program: spans and exact counters.

The traced run patches the program's public functions from the
benchmark's own files, records a span for every call into a layer, and
restores every patch afterwards.  Spans carry a name, a start, an end and
a parent; they are kept in flat arrays in memory and written once, when
the run ends.  A layer's self time is the total duration of its spans
minus the part covered by their child spans.

Root spans are the simulator's dispatched callbacks.  ``Simulator.schedule``
and ``schedule_fast`` hand off to ``schedule_at`` and ``schedule_fast_at``,
and every scheduling call site in ``src/`` outside ``repro.parallel``
(which the benchmark leaves out) goes through these four, so wrapping
them sees every event; each callback is named after the module
that owns its code (``repro/timely/worker.py`` -> ``timely.worker``).
Child spans are the calls into each layer's public functions, patched
where they are looked up (``megaphone.operators`` calls the column kernels
as ``columns.<name>``, so the module attributes are patched).

Span names are ``layer`` or ``layer:function``; the part before ``:``
decides which layer's self time a span counts toward.
"""

from __future__ import annotations

import inspect
import os
import time
from array import array

import numpy as np

from check import Patcher

# The progress pump callback lives in repro/timely/dataflow.py but is the
# progress layer's work; it is attributed there.
_PROGRESS_PUMP = "timely.progress:pump"

# Column kernels timed as runtime_events.columns (first argument's length,
# or the index argument's for ``gather``, is the rows of one call).
_COLUMN_KERNELS = ("bin_ids_for", "split_by_destination", "group_by_bin_sorted")


def _layer_of_code(code) -> str:
    path = code.co_filename.replace(os.sep, "/")
    at = path.rfind("/repro/")
    if at < 0:
        return "other"
    return path[at + len("/repro/"):].rsplit(".py", 1)[0].replace("/", ".")


def _percentile(values, q: float) -> float:
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q * 100))


class Tracer:
    """Spans plus exact counters for one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self._code_names: dict = {}
        self._worker_id = self.name_id("timely.worker")
        self._useful = False
        self._scheduling = False
        self._state_depth = 0
        self.counts = dict(
            scheduled=0,
            activations=0,
            useful_activations=0,
            activate_calls=0,
            send_bytes=0.0,
            column_rows=0,
            moved_bins=0,
            moved_bytes=0.0,
            wal_appends=0,
            wal_bytes=0,
            wal_syncs=0,
            wal_compactions=0,
            generated_events=0,
        )
        self.dispatch_waits = array("d")
        self.link_waits = array("d")
        self._patcher = Patcher()

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- span wrappers -----------------------------------------------------

    def wrap(self, fn, name: str, before=None):
        """``fn`` recording one span per call; ``before(*args)`` counts."""
        nid = self.name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        ns = time.perf_counter_ns

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(i)
            starts.append(ns())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = ns()
                stack.pop()

        return traced

    def _callback_name(self, callback) -> int:
        code = getattr(callback, "__code__", None)
        if code is None:
            func = getattr(callback, "__func__", None)
            code = getattr(func, "__code__", None)
        nid = self._code_names.get(code)
        if nid is None:
            if code is None:
                name = type(callback).__module__.replace("repro.", "", 1)
            else:
                name = _layer_of_code(code)
            nid = self._code_names[code] = self.name_id(name)
        return nid

    def _dispatcher(self, sim, callback):
        """Wrap a scheduled callback so its dispatch is a root span."""
        nid = self._callback_name(callback)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        ns = time.perf_counter_ns
        scheduled_at = sim.now
        tracer = self
        if nid != self._worker_id:

            def dispatch():
                i = len(names)
                names.append(nid)
                parents.append(stack[-1] if stack else -1)
                ends.append(0)
                stack.append(i)
                starts.append(ns())
                try:
                    callback()
                finally:
                    ends[i] = ns()
                    stack.pop()

            return dispatch
        waits = self.dispatch_waits
        counts = self.counts

        def dispatch_worker():
            waits.append((sim.now - scheduled_at) * 1e3)
            tracer._useful = False
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(i)
            starts.append(ns())
            try:
                callback()
            finally:
                ends[i] = ns()
                stack.pop()
                counts["activations"] += 1
                if tracer._useful:
                    counts["useful_activations"] += 1

        return dispatch_worker

    def _wrap_schedule(self, fn):
        tracer = self

        def schedule(sim, when, callback):
            # schedule/schedule_fast delegate to the *_at methods; only the
            # outermost call wraps the callback and counts it.
            if tracer._scheduling:
                return fn(sim, when, callback)
            tracer._scheduling = True
            try:
                tracer.counts["scheduled"] += 1
                return fn(sim, when, tracer._dispatcher(sim, callback))
            finally:
                tracer._scheduling = False

        return schedule

    def _wrap_hook(self, hook, name: str):
        traced = self.wrap(hook, name)
        tracer = self

        def operator_hook(*args):
            tracer._useful = True
            return traced(*args)

        return operator_hook

    def _wrap_state(self, fn, name: str):
        """Count only calls into the state layer from outside it."""
        traced = self.wrap(fn, name)
        tracer = self

        def state_call(*args, **kwargs):
            if tracer._state_depth:
                return fn(*args, **kwargs)
            tracer._state_depth += 1
            try:
                return traced(*args, **kwargs)
            finally:
                tracer._state_depth -= 1

        return state_call

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        from repro.harness.workloads import CountWorkload
        from repro.megaphone.bins import BinStore
        from repro.megaphone.operators import _FLogic, _SLogic
        from repro.nexmark import harness as nexmark_harness
        from repro.runtime_events import columns
        from repro.runtime_events.bus import TraceBus
        from repro.sim.engine import Simulator
        from repro.sim.network import Cluster, Link
        from repro.state import wal
        from repro.state.backend import StateBackend
        from repro.timely.dataflow import Dataflow, InputHandle, Runtime
        from repro.timely.progress import ProgressTracker
        from repro.timely.worker import WorkerRuntime

        p = self._patcher
        counts = self.counts
        self._code_names[Runtime._progress_step.__code__] = self.name_id(
            _PROGRESS_PUMP
        )

        # sim.engine: every scheduled callback, and the drain loop.
        for name in ("schedule", "schedule_at", "schedule_fast", "schedule_fast_at"):
            p.patch(Simulator, name, self._wrap_schedule(Simulator.__dict__[name]))
        p.patch(Simulator, "run", self.wrap(Simulator.__dict__["run"], "sim.engine:run"))

        # sim.network
        def count_send(cluster, message, on_delivered):
            counts["send_bytes"] += message.size_bytes

        link_waits = self.link_waits

        def note_wait(link, message, on_delivered, on_sent=None):
            wait = link.busy_until - link._sim.now
            link_waits.append(wait * 1e3 if wait > 0.0 else 0.0)

        p.patch(Cluster, "send", self.wrap(Cluster.__dict__["send"], "sim.network:send", count_send))
        p.patch(Link, "transmit", self.wrap(Link.__dict__["transmit"], "sim.network:transmit", note_wait))

        # timely: worker activation requests, operator hooks, progress.
        activate = WorkerRuntime.__dict__["activate"]

        def counted_activate(worker):
            counts["activate_calls"] += 1
            return activate(worker)

        p.patch(WorkerRuntime, "activate", counted_activate)
        install = WorkerRuntime.__dict__["install"]
        tracer = self

        def traced_install(worker, desc, logic):
            ctx = install(worker, desc, logic)
            if isinstance(logic, _FLogic):
                name = "megaphone.F"
            elif isinstance(logic, _SLogic):
                name = "megaphone.S"
            else:
                name = type(logic).__module__.replace("repro.", "", 1) + ":operator"
            for table in (worker._on_input, worker._on_frontier, worker._on_notify):
                if table[-1] is not None:
                    table[-1] = tracer._wrap_hook(table[-1], name)
            return ctx

        p.patch(WorkerRuntime, "install", traced_install)
        p.patch(
            ProgressTracker,
            "propagate",
            self.wrap(ProgressTracker.__dict__["propagate"], "timely.progress:propagate"),
        )
        p.patch(Dataflow, "build", self.wrap(Dataflow.__dict__["build"], "timely.dataflow:build"))
        p.patch(
            InputHandle,
            "send",
            self.wrap(p.original(InputHandle, "send"), "timely.dataflow:input_send"),
        )

        # megaphone bins leaving a worker.
        extract = BinStore.__dict__["extract"]

        def counted_extract(store, bin_id, *, remove=True, dirty_since=None):
            payload = extract(store, bin_id, remove=remove, dirty_since=dirty_since)
            if remove:
                counts["moved_bins"] += 1
                counts["moved_bytes"] += payload.size_bytes
            return payload

        p.patch(BinStore, "extract", counted_extract)

        # runtime_events.columns kernels and batch surgery.
        def rows_of_first(first, *rest):
            counts["column_rows"] += len(first)

        def rows_of_index(vector, idx):
            counts["column_rows"] += len(idx)

        for name in _COLUMN_KERNELS:
            p.patch(
                columns,
                name,
                self.wrap(getattr(columns, name), f"runtime_events.columns:{name}", rows_of_first),
            )
        p.patch(
            columns,
            "gather",
            self.wrap(columns.gather, "runtime_events.columns:gather", rows_of_index),
        )
        batch_cls = columns.ColumnBatch

        def rows_of_take(batch, sel):
            counts["column_rows"] += len(sel)

        def rows_of_concat(cls, batches):
            counts["column_rows"] += sum(len(b) for b in batches)

        p.patch(
            batch_cls,
            "take",
            self.wrap(batch_cls.__dict__["take"], "runtime_events.columns:take", rows_of_take),
        )
        concat = batch_cls.__dict__["concat"].__func__
        p.patch(
            batch_cls,
            "concat",
            classmethod(self.wrap(concat, "runtime_events.columns:concat", rows_of_concat)),
        )
        p.patch(TraceBus, "publish", self.wrap(TraceBus.__dict__["publish"], "runtime_events.bus:publish"))

        # state: the public StateBackend methods on every backend class.
        public = [
            name
            for name, value in vars(StateBackend).items()
            if not name.startswith("_") and inspect.isfunction(value)
        ]
        classes = [StateBackend]
        for cls in classes:
            classes.extend(c for c in cls.__subclasses__() if c not in classes)
        for cls in classes:
            for name in public:
                if name in vars(cls):
                    p.patch(cls, name, self._wrap_state(vars(cls)[name], f"state:{name}"))

        encode_frame = wal.encode_frame

        def counted_encode(kind, record):
            frame = encode_frame(kind, record)
            counts["wal_bytes"] += len(frame)
            return frame

        p.patch(wal, "encode_frame", counted_encode)
        append = wal.WorkerWal.__dict__["append"]
        sync = wal.WorkerWal.__dict__["sync"]
        compact = wal.WalBackend.__dict__["compact"]

        def counted_append(log, kind, record):
            counts["wal_appends"] += 1
            return append(log, kind, record)

        def counted_sync(log):
            counts["wal_syncs"] += 1
            return sync(log)

        def counted_compact(backend):
            counts["wal_compactions"] += 1
            return compact(backend)

        p.patch(wal.WorkerWal, "append", counted_append)
        p.patch(wal.WorkerWal, "sync", counted_sync)
        p.patch(wal.WalBackend, "compact", counted_compact)

        # Input generation: harness.workloads (count) and repro.nexmark.
        make_count = CountWorkload.__dict__["make_generator"]

        def traced_count_generator(workload):
            return tracer.wrap(make_count(workload), "harness.workloads:generate")

        p.patch(CountWorkload, "make_generator", traced_count_generator)
        make_nexmark = nexmark_harness.make_generator

        def traced_nexmark_generator(*args, **kwargs):
            generate = make_nexmark(*args, **kwargs)

            def counted(worker, epoch_ms, count):
                events = generate(worker, epoch_ms, count)
                counts["generated_events"] += len(events)
                return events

            return tracer.wrap(counted, "nexmark.generator:generate")

        p.patch(nexmark_harness, "make_generator", traced_nexmark_generator)

    def restore(self) -> None:
        self._patcher.restore()

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict:
        """Self seconds per span name."""
        n = len(self.span_name)
        if n == 0:
            return {}
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = (
            np.frombuffer(self.span_end, dtype=np.int64)
            - np.frombuffer(self.span_start, dtype=np.int64)
        ).astype(np.float64)
        has_parent = parents >= 0
        covered = np.bincount(
            parents[has_parent], weights=dur[has_parent], minlength=n
        )
        own = dur - covered
        per_name = np.bincount(names, weights=own, minlength=len(self.names))
        return {name: per_name[i] / 1e9 for i, name in enumerate(self.names)}

    def span_counts(self) -> dict:
        names = np.frombuffer(self.span_name, dtype=np.int32)
        per_name = np.bincount(names, minlength=len(self.names))
        return {name: int(per_name[i]) for i, name in enumerate(self.names)}

    def span_seconds(self, name: str) -> float:
        """Total duration of the spans called ``name``."""
        nid = self._name_ids.get(name)
        if nid is None:
            return 0.0
        names = np.frombuffer(self.span_name, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=np.int64) - np.frombuffer(
            self.span_start, dtype=np.int64
        )
        return float(dur[names == nid].sum()) / 1e9

    def write(self, path: str) -> None:
        """Write every span to ``path`` (numpy ``.npz``)."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
        )

    def layer_metrics(self, result, records: int) -> dict:
        """The per-layer metrics of this run (``records`` input records)."""
        own = self.self_times()
        spans = self.span_counts()
        counts = self.counts
        krec = records / 1000.0

        def layer_self(layer: str) -> float:
            return float(
                sum(s for name, s in own.items() if name.split(":", 1)[0] == layer)
            )

        def spans_of(prefix: str) -> int:
            return sum(c for name, c in spans.items() if name.startswith(prefix))

        steps = [s for m in result.migrations for s in m.steps]
        step_ms = [s.duration * 1e3 for s in steps if s.duration is not None]
        column_calls = spans_of("runtime_events.columns:")
        generator_calls = spans.get("nexmark.generator:generate", 0)
        return {
            "sim.engine.events_per_krec": result.sim_events / krec,
            "sim.engine.fired_frac": result.sim_events / max(counts["scheduled"], 1),
            "sim.engine.self_s": layer_self("sim.engine"),
            "sim.network.sends_per_krec": spans.get("sim.network:send", 0) / krec,
            "sim.network.transmits_per_krec": spans.get("sim.network:transmit", 0) / krec,
            "sim.network.bytes_per_rec": counts["send_bytes"] / records,
            "sim.network.link_wait_p50_ms": _percentile(self.link_waits, 0.50),
            "sim.network.link_wait_p99_ms": _percentile(self.link_waits, 0.99),
            "sim.network.self_s": layer_self("sim.network"),
            "timely.worker.activations_per_krec": counts["activations"] / krec,
            "timely.worker.activate_calls_per_krec": counts["activate_calls"] / krec,
            "timely.worker.useful_frac": counts["useful_activations"]
            / max(counts["activations"], 1),
            "timely.worker.dispatch_wait_p99_ms": _percentile(self.dispatch_waits, 0.99),
            "timely.worker.self_s": layer_self("timely.worker"),
            "timely.progress.propagates_per_krec": spans.get("timely.progress:propagate", 0)
            / krec,
            "timely.progress.self_s": layer_self("timely.progress"),
            "timely.dataflow.build_s": self.span_seconds("timely.dataflow:build"),
            "megaphone.F.calls_per_krec": spans.get("megaphone.F", 0) / krec,
            "megaphone.F.self_s": layer_self("megaphone.F"),
            "megaphone.S.calls_per_krec": spans.get("megaphone.S", 0) / krec,
            "megaphone.S.self_s": layer_self("megaphone.S"),
            "megaphone.controller.steps": len(steps),
            "megaphone.controller.attempts_per_step": (
                sum(s.attempts for s in steps) / len(steps) if steps else 0.0
            ),
            "megaphone.controller.step_p50_ms": _percentile(step_ms, 0.50),
            "megaphone.controller.step_max_ms": max(step_ms, default=0.0),
            "megaphone.bins.moved_bins": counts["moved_bins"],
            "megaphone.bins.moved_bytes": counts["moved_bytes"],
            "runtime_events.columns.calls_per_krec": column_calls / krec,
            "runtime_events.columns.rows_per_call": counts["column_rows"]
            / max(column_calls, 1),
            "runtime_events.columns.self_s": layer_self("runtime_events.columns"),
            "runtime_events.bus.publishes_per_krec": spans.get(
                "runtime_events.bus:publish", 0
            )
            / krec,
            "runtime_events.bus.self_s": layer_self("runtime_events.bus"),
            "state.calls_per_krec": spans_of("state:") / krec,
            "state.self_s": layer_self("state"),
            "state.wal.appends_per_krec": counts["wal_appends"] / krec,
            "state.wal.bytes_per_rec": counts["wal_bytes"] / records,
            "state.wal.syncs_per_krec": counts["wal_syncs"] / krec,
            "state.wal.compactions": counts["wal_compactions"],
            "harness.openloop.self_s": layer_self("harness.openloop"),
            "nexmark.generator.self_s": layer_self("nexmark.generator"),
            "nexmark.generator.events_per_call": counts["generated_events"]
            / max(generator_calls, 1),
        }
