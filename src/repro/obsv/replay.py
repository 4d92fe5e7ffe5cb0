"""Deterministic replay: re-execute a recorded run and verify its pin.

The simulation is deterministic given its config (seeds included), and
bus subscribers cannot perturb it, so a recorded log's footer fingerprint
is a *complete* promise: re-running the header's config must reproduce it
byte-identically.  :func:`replay_run` does exactly that —

1. validate the log (version, footer) via :mod:`repro.obsv.eventlog`,
2. rebuild the :class:`ExperimentConfig` from the header's provenance,
3. re-execute through the ordinary harness entry points while counting
   bus events on the recorded topics,
4. compare the fresh ``result_fingerprint`` and per-topic event counts
   against the footer.

A mismatch means the build no longer reproduces the recorded run — a
determinism regression, a semantic change without a version bump, or a
corrupted log.  The report says which topics drifted to narrow it down.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obsv.eventlog import EventLogError, config_from_dict, read_log_meta


@dataclass
class ReplayReport:
    """Outcome of one replay, ready for printing or asserting."""

    path: str
    workload_kind: str
    expected_fingerprint: str
    actual_fingerprint: str
    expected_events: dict = field(default_factory=dict)
    actual_events: dict = field(default_factory=dict)
    records_injected: int = 0
    sim_events: int = 0

    @property
    def fingerprint_match(self) -> bool:
        return self.expected_fingerprint == self.actual_fingerprint

    @property
    def drifted_topics(self) -> list[str]:
        """Topics whose replayed event count differs from the recording."""
        topics = sorted(set(self.expected_events) | set(self.actual_events))
        return [
            t
            for t in topics
            if self.expected_events.get(t, 0) != self.actual_events.get(t, 0)
        ]

    @property
    def ok(self) -> bool:
        return self.fingerprint_match and not self.drifted_topics


def replay_run(path: str) -> ReplayReport:
    """Re-execute the run recorded at ``path``; compare against its footer."""
    header, footer = read_log_meta(path)
    cfg = config_from_dict(header["config"])
    # The recorded fingerprint covers final state (recording forces state
    # fingerprinting); the replay must measure the same thing.
    cfg.fingerprint_state = True
    topics = header.get("topics")
    counts: dict[str, int] = {}
    kind = header.get("workload_kind", "count")
    result = _execute(kind, cfg, header, topics, counts)
    from repro.harness.experiment import result_fingerprint

    return ReplayReport(
        path=path,
        workload_kind=kind,
        expected_fingerprint=footer["result_fingerprint"],
        actual_fingerprint=result_fingerprint(result),
        expected_events=dict(footer.get("events_by_topic", {})),
        actual_events=counts,
        records_injected=result.records_injected,
        sim_events=result.sim_events,
    )


def _execute(kind: str, cfg, header: dict, topics, counts: dict):
    if kind == "count":
        from repro.harness.experiment import run_count_experiment

        cfg.collect_topic_counts = tuple(topics) if topics is not None else ()
        result = run_count_experiment(cfg)
        counts.update(result.topic_counts)
        return result
    if kind == "nexmark":
        from repro.nexmark.config import NexmarkConfig
        from repro.nexmark.harness import run_nexmark_experiment

        extra = header.get("extra", {})
        query = extra.get("query")
        if not isinstance(query, int):
            raise EventLogError(
                f"nexmark log header lacks an integer query (got {query!r})"
            )
        nexmark_kwargs = extra.get("nexmark") or {}
        cfg.collect_topic_counts = tuple(topics) if topics is not None else ()
        result = run_nexmark_experiment(
            query, cfg, nexmark=NexmarkConfig(**nexmark_kwargs)
        )
        counts.update(result.topic_counts)
        return result
    raise EventLogError(
        f"cannot replay workload kind {kind!r}; this build replays "
        "'count' and 'nexmark' logs"
    )
