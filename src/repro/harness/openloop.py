"""Open-loop load generation.

The paper's harness "supplies the input at a specified rate, even if the
system itself becomes less responsive (e.g., during a migration)".  In the
simulation this is natural: injections are scheduled at fixed simulated
times and merely enqueue work; a backlogged worker falls behind, and the
latency recorder sees the lag through the output frontier.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.harness.latency import EpochLatencyRecorder
from repro.timely.dataflow import InputGroup, Runtime

# generator(worker_id, epoch_ms, count) -> list of records
Generator = Callable[[int, int, int], list]


class OpenLoopSource:
    """Injects ``rate`` records per second, split across all workers.

    Every ``granularity_ms`` of simulated time, each worker's handle
    receives its share of the interval's records with the interval's epoch
    timestamp, then advances to the next epoch.  The injected counts are
    reported to the latency recorder for weighting.
    """

    def __init__(
        self,
        runtime: Runtime,
        group: InputGroup,
        generator: Generator,
        rate: float,
        duration_s: float,
        granularity_ms: int = 10,
        recorder: Optional[EpochLatencyRecorder] = None,
        start_s: float = 0.0,
        dilation: int = 1,
    ) -> None:
        self.runtime = runtime
        self.group = group
        self.generator = generator
        self.rate = rate
        self.duration_s = duration_s
        self.granularity_ms = granularity_ms
        self.recorder = recorder
        self.start_s = start_s
        self.dilation = dilation
        # An int: injected counts are exact, never float-accumulated.
        self._records_injected = 0
        self._carry = 0.0

    @property
    def records_injected(self) -> int:
        """Total records injected so far."""
        return self._records_injected

    def start(self) -> None:
        """Schedule all injection ticks."""
        tick_s = self.granularity_ms / 1000.0
        n_ticks = int(round(self.duration_s / tick_s))
        per_tick_exact = self.rate * tick_s
        sim = self.runtime.sim
        for i in range(n_ticks):
            at = self.start_s + i * tick_s
            sim.schedule_at(at, self._make_tick(i, per_tick_exact))
        sim.schedule_at(self.start_s + n_ticks * tick_s, self.group.close_all)

    def _make_tick(self, index: int, per_tick_exact: float):
        def tick() -> None:
            epoch_ms = int(
                round((self.start_s * 1000) + index * self.granularity_ms)
            ) * self.dilation
            self._carry += per_tick_exact
            count = int(self._carry)
            self._carry -= count
            # A crashed process closes its workers' input handles; the load
            # keeps flowing through the survivors (open-loop means the
            # offered rate does not drop because part of the cluster did).
            open_handles = [
                (w, handle)
                for w, handle in enumerate(self.group.handles())
                if handle.epoch is not None
            ]
            if not open_handles:
                return
            per_worker = count // len(open_handles)
            extra = count % len(open_handles)
            total = 0
            for i, (w, handle) in enumerate(open_handles):
                n = per_worker + (1 if i < extra else 0)
                if n > 0:
                    records = self.generator(w, epoch_ms, n)
                    handle.send(epoch_ms, records)
                    total += len(records)
                handle.advance_to(epoch_ms + self.granularity_ms * self.dilation)
            self._records_injected += total
            if self.recorder is not None:
                self.recorder.note_injected(epoch_ms, max(total, 1))

        return tick


class ElasticOpenLoopSource(OpenLoopSource):
    """Open-loop source over a *dynamic* feed set with a fixed record universe.

    Elastic runs change which workers ingest mid-run, but the offered load
    must not depend on membership history — a scaling run's final state is
    pinned against a static-membership twin.  So record content is drawn
    from ``num_workers`` fixed **virtual streams** (one deterministic
    generator stream per provisioned slot, exactly the allocation a fully
    open tick would compute), and virtual stream ``v`` is carried by
    the ``v % len(feed)``-th currently-fed open handle.  Membership changes
    therefore alter only *which handle carries* a record — never the
    record, its count, or its epoch — and the downstream exchange routes by
    key, so per-bin state is byte-identical across membership histories.

    Every provisioned handle that is still open (standby slots included) is
    advanced each tick, keeping input frontiers on the epoch clock; only
    *fed* handles receive records.  ``open_worker`` adds a slot to the feed
    set (joins), ``remove_worker`` removes it without closing the handle
    (drain start — the coordinator closes the handle after the evacuation's
    frontier passes).
    """

    def __init__(self, *args, active: Optional[list] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if active is None:
            raise ValueError("elastic source needs the initially-fed workers")
        self._feed = sorted(active)

    @property
    def feed(self) -> list:
        """Workers currently receiving records, ascending."""
        return list(self._feed)

    def open_worker(self, worker: int) -> None:
        """Start feeding ``worker`` (a joining slot)."""
        if worker not in self._feed:
            self._feed.append(worker)
            self._feed.sort()

    def remove_worker(self, worker: int) -> None:
        """Stop feeding ``worker``; its handle stays open and advancing."""
        if worker in self._feed:
            self._feed.remove(worker)

    def _make_tick(self, index: int, per_tick_exact: float):
        def tick() -> None:
            epoch_ms = int(
                round((self.start_s * 1000) + index * self.granularity_ms)
            ) * self.dilation
            self._carry += per_tick_exact
            count = int(self._carry)
            self._carry -= count
            handles = self.group.handles()
            universe = len(handles)
            per_stream = count // universe
            extra = count % universe
            fed = [
                handles[w]
                for w in self._feed
                if handles[w].epoch is not None
            ]
            total = 0
            if fed:
                k = len(fed)
                for v in range(universe):
                    n = per_stream + (1 if v < extra else 0)
                    if n > 0:
                        records = self.generator(v, epoch_ms, n)
                        fed[v % k].send(epoch_ms, records)
                        total += len(records)
            advance_to = epoch_ms + self.granularity_ms * self.dilation
            for handle in handles:
                if handle.epoch is not None:
                    handle.advance_to(advance_to)
            self._records_injected += total
            if self.recorder is not None:
                self.recorder.note_injected(epoch_ms, max(total, 1))

        return tick


class Lcg:
    """Deterministic 64-bit linear congruential generator (per worker)."""

    MULT = 6364136223846793005
    INC = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int) -> None:
        self.state = (seed * 0x9E3779B97F4A7C15 + 1) & self.MASK

    def next(self) -> int:
        """The next pseudo-random 48-bit value."""
        self.state = (self.state * self.MULT + self.INC) & self.MASK
        return self.state >> 16
