"""Output checking: taps at the input, a reference fold, a state comparison.

Every data record is tapped where it enters the dataflow
(``InputHandle.send``) and folded outside the dataflow, by code that shares
nothing with the program's operators:

* count workloads: a numpy count per key, summed into bins with the
  benchmark's own splitmix64.  The program's count state is modeled (each
  bin keeps a tally of the records folded into it, not a count per key;
  see ``repro.harness.workloads.ModeledCountState``), so the comparison is
  per bin, the finest grain the state holds.
* NEXMark Q3: a plain-Python fold of the filtered persons and auctions.

The fold is compared with the final state gathered from every worker's
bin store, so the check does not depend on which worker owns which key.
``failed`` counts input records whose effect is missing, duplicated or
wrong; a run whose scheduled migrations did not all complete fails whole.

Every check also runs once on a copy of the state with one planted defect
(one bin's tally off by one, or one auction id dropped) and must flag it;
otherwise the checker itself is broken and the run is not correct.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np

from shapes import Q3_CATEGORY, Q3_STATES, Workload


class Patcher:
    """Replaces attributes and puts every original back on ``restore``."""

    def __init__(self) -> None:
        self._saved: list = []

    def patch(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def original(self, owner, name: str):
        """The attribute as it was before this patcher touched it."""
        for saved_owner, saved_name, value in self._saved:
            if saved_owner is owner and saved_name == name:
                return value
        return owner.__dict__[name]

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def splitmix_bins(keys: np.ndarray, num_bins: int) -> np.ndarray:
    """Bin of each key: the top bits of splitmix64, as Megaphone bins keys."""
    bits = num_bins.bit_length() - 1
    if bits == 0:
        return np.zeros(len(keys), dtype=np.int64)
    u = np.uint64
    x = keys.astype(np.uint64) + u(0x9E3779B97F4A7C15)
    x = (x ^ (x >> u(30))) * u(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> u(27))) * u(0x94D049BB133111EB)
    return ((x ^ (x >> u(31))) >> u(64 - bits)).astype(np.int64)


class RunTaps:
    """Per-run observation: input taps, exact latencies, runtime capture.

    Installed around one run; ``restore`` removes every patch.  None of the
    patches changes what the program computes.  With ``probe`` given, it is
    called after every ``every``-th completed epoch and the monotonic
    nanoseconds before and after each call are kept in ``probes``.
    """

    def __init__(self, workload: Workload, probe=None, every: int = 20) -> None:
        from repro.harness.latency import LatencyTimeline
        from repro.runtime_events.columns import ColumnBatch
        from repro.timely.dataflow import Dataflow, InputHandle, Runtime

        self.workload = workload
        self.key_taps: list = []
        self.persons: dict = {}
        self.auctions: dict = {}
        self.tapped = 0
        self.latencies: list = []
        self.probes: list = []
        self.runtime = None
        self.first_run_ns = None
        self._patcher = p = Patcher()
        taps = self
        column_batch = ColumnBatch
        is_q3 = workload.kind == "q3"

        send = p.original(InputHandle, "send")

        def tapped_send(handle, time, records):
            if type(records) is column_batch:
                taps.key_taps.append(records.keys)
                taps.tapped += len(records)
            elif is_q3:
                taps._fold_q3(records)
            return send(handle, time, records)

        p.patch(InputHandle, "send", tapped_send)

        record = p.original(LatencyTimeline, "record")
        from time import monotonic_ns

        latencies, probes = self.latencies, self.probes

        def recorded(timeline, at_s, latency_s, weight=1.0):
            latencies.append((latency_s, weight))
            if probe is not None and len(latencies) % every == 0:
                before = monotonic_ns()
                probe()
                probes.append((before, monotonic_ns()))
            return record(timeline, at_s, latency_s, weight)

        p.patch(LatencyTimeline, "record", recorded)

        build = p.original(Dataflow, "build")

        def captured_build(dataflow, *args, **kwargs):
            runtime = build(dataflow, *args, **kwargs)
            taps.runtime = runtime
            return runtime

        p.patch(Dataflow, "build", captured_build)

        run = p.original(Runtime, "run")

        def timed_run(runtime, until=None):
            if taps.first_run_ns is None:
                taps.first_run_ns = monotonic_ns()
            return run(runtime, until)

        p.patch(Runtime, "run", timed_run)

    def restore(self) -> None:
        self._patcher.restore()

    def _fold_q3(self, events) -> None:
        from repro.nexmark.model import Auction, Bid, Person

        for event in events:
            kind = type(event)
            if kind is Bid:
                self.tapped += 1
            elif kind is Person:
                self.tapped += 1
                if event.state in Q3_STATES:
                    self.persons[event.id] = (event.name, event.city, event.state)
            elif kind is Auction:
                self.tapped += 1
                if event.category == Q3_CATEGORY:
                    self.auctions.setdefault(event.seller, []).append(event.id)

    # -- the final state, gathered from every worker -----------------------

    def _stores(self, name: str):
        key = f"megaphone:{name}"
        for worker in self.runtime.workers:
            store = worker.shared.get(key)
            if store is not None:
                yield store

    def observed_state(self):
        """The final state in the reference's shape (owner-independent)."""
        if self.workload.kind == "count":
            tallies = np.zeros(self.workload.config["num_bins"], dtype=np.int64)
            for store in self._stores("count"):
                for bin_id in store.resident_bins():
                    tallies[bin_id] += store.get(bin_id).state.records
            return tallies
        persons: dict = {}
        duplicates = 0
        auctions: dict = {}
        for store in self._stores("q3"):
            for bin_id in store.resident_bins():
                state = store.get(bin_id).state
                for pid, info in state.get("p", {}).items():
                    if pid in persons:
                        duplicates += 1
                    persons[pid] = info
                for seller, ids in state.get("a", {}).items():
                    auctions.setdefault(seller, []).extend(ids)
        return {"persons": persons, "auctions": auctions, "duplicates": duplicates}

    def reference_state(self):
        """The fold of the input taps, in the same shape."""
        if self.workload.kind == "count":
            num_bins = self.workload.config["num_bins"]
            if not self.key_taps:
                return np.zeros(num_bins, dtype=np.int64)
            keys, counts = np.unique(
                np.concatenate(self.key_taps), return_counts=True
            )
            return np.bincount(
                splitmix_bins(keys, num_bins), weights=counts, minlength=num_bins
            ).astype(np.int64)
        return {"persons": self.persons, "auctions": self.auctions, "duplicates": 0}

    def mismatches(self, observed, reference) -> int:
        """Input records whose effect is missing, duplicated or wrong."""
        if self.workload.kind == "count":
            return int(np.abs(observed - reference).sum())
        bad = observed["duplicates"]
        seen, want = observed["persons"], reference["persons"]
        bad += sum(1 for pid, info in want.items() if seen.get(pid) != info)
        bad += sum(1 for pid in seen if pid not in want)
        got, expect = observed["auctions"], reference["auctions"]
        for seller in set(got) | set(expect):
            diff = Counter(got.get(seller, ())) - Counter(expect.get(seller, ()))
            diff_back = Counter(expect.get(seller, ())) - Counter(got.get(seller, ()))
            bad += sum(diff.values()) + sum(diff_back.values())
        return bad

    def planted_defect(self, observed):
        """A copy of ``observed`` with one record's effect made wrong."""
        if self.workload.kind == "count":
            copy = observed.copy()
            copy[int(np.argmax(copy))] += 1
            return copy
        auctions = {s: list(ids) for s, ids in observed["auctions"].items()}
        seller = min(s for s, ids in auctions.items() if ids)
        auctions[seller].pop()
        return {**observed, "auctions": auctions}

    @staticmethod
    def digest(observed) -> str:
        """A fingerprint of the final state, independent of owners."""
        h = hashlib.sha256()
        if isinstance(observed, np.ndarray):
            h.update(observed.tobytes())
        else:
            for pid in sorted(observed["persons"]):
                h.update(repr((pid, observed["persons"][pid])).encode())
            for seller in sorted(observed["auctions"]):
                h.update(repr((seller, sorted(observed["auctions"][seller]))).encode())
        return h.hexdigest()[:16]


def weighted_percentile(observations: list, q: float) -> float:
    """Exact record-weighted quantile of ``(latency_s, weight)`` pairs."""
    ordered = sorted(observations)
    total = sum(w for _l, w in ordered)
    threshold = q * total
    seen = 0.0
    for latency, weight in ordered:
        seen += weight
        if seen >= threshold:
            return latency
    return ordered[-1][0]


def check_run(taps: RunTaps, result) -> dict:
    """Check one finished run; the simulated outcome and check verdict."""
    workload = taps.workload
    observed = taps.observed_state()
    reference = taps.reference_state()
    failed = taps.mismatches(observed, reference)
    defect_flagged = taps.mismatches(taps.planted_defect(observed), reference) > 0
    completed = len(result.migrations) == workload.migrations and all(
        m.completed_at is not None for m in result.migrations
    )
    attempted = result.records_injected
    if not completed or taps.tapped != attempted:
        failed = attempted
    obs = taps.latencies
    p99 = weighted_percentile(obs, 0.99)
    sim = {
        "records": attempted,
        "epochs": len(obs),
        "epochs_beyond_p99": sum(1 for latency, _w in obs if latency > p99),
        "sim_events": result.sim_events,
        "sim_mean_ms": sum(l * w for l, w in obs) / sum(w for _l, w in obs) * 1e3,
        "sim_p50_ms": weighted_percentile(obs, 0.50) * 1e3,
        "sim_p99_ms": p99 * 1e3,
        "sim_max_ms": result.overall_max_latency() * 1e3,
        "migration_max_ms": (
            result.migration_max_latency(0) * 1e3 if result.migrations else 0.0
        ),
        "migration_s": result.migration_duration(0) if result.migrations else 0.0,
        "state_digest": RunTaps.digest(observed),
    }
    return {
        "sim": sim,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "migrations_completed": completed,
        "defect_flagged": defect_flagged,
    }
