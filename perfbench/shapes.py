"""The benchmark's workloads: shapes, rationale and how each one runs.

Every number that defines a workload is written here, in the benchmark's
own files.  Nothing is imported from ``repro.perf.hotpath.SCALES`` or
``benchmarks/_common.py``, so a later edit under ``src/`` or
``benchmarks/`` cannot silently change what a workload measures.

The seed is the only input the benchmark varies between runs; it reaches
the program only as ``ExperimentConfig.seed``.

Input durations are 10 s of simulated input at 10 ms epochs, i.e. 1000
epochs per run.  All records of an epoch share one latency, so a latency
percentile is supported by epochs, not records: at 1000 epochs the p99
has ten epochs beyond it, which is the fewest the benchmark accepts.
"""

from __future__ import annotations

from dataclasses import dataclass

# Per-record simulated CPU costs of the paper's Fig 1/16 operating point:
# the paper's 4e6 rec/s is materialised 200x slower with each record 200x
# more expensive (0.25 us/record becomes 50 us).  Copied as plain numbers.
_RATE_SCALE = 200.0
FLUID_COST = dict(
    record_cost=0.25e-6 * _RATE_SCALE,
    ingest_record_cost=0.05e-6 * _RATE_SCALE,
    route_cost=0.05e-6 * _RATE_SCALE,
    batch_overhead=20e-6,
    progress_update_cost=1e-6,
)

# NEXMark Q3's filters, copied from the query definition so that the
# reference fold does not read them from the program under test.
Q3_STATES = ("OR", "ID", "CA")
Q3_CATEGORY = 10

EPOCH_MS = 10
INPUT_S = 10.0

# Why each workload is in the benchmark (the same lines as BENCHMARK.json).
WHY = {
    "hashcount": (
        "Paper 5.2 hash count, 8 workers, 256 bins, 50k rec/s, one batched "
        "migration: data-path-bound, F routing and S apply show here"
    ),
    "nexmark-q3": (
        "NEXMark Q3 incremental join at 20k events/s without migration: "
        "bypasses the migration path; the only workload running repro.nexmark"
    ),
    "fluid-migration": (
        "Paper Fig 1/16 shape: 256-step fluid move of 10^9 modeled keys on 16 "
        "workers; bookkeeping-bound, carries the latency-during-migration headline"
    ),
    "hashcount-wal": (
        "hashcount on the WAL backend (fsync every batch): same inputs and "
        "simulated results, the only workload where repro.state does real work"
    ),
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    why: str
    kind: str  # "count" or "q3"
    config: dict  # ExperimentConfig fields, minus the seed
    migrations: int  # scheduled migrations that must complete

    @property
    def records(self) -> int:
        """Input records one run injects (rate x input duration)."""
        return int(round(self.config["rate"] * self.config["duration_s"]))


_HASHCOUNT = dict(
    num_workers=8,
    workers_per_process=4,
    num_bins=256,
    domain=1_000_000,
    variant="hash",
    rate=50_000.0,
    duration_s=INPUT_S,
    granularity_ms=EPOCH_MS,
    migrate_at_s=(0.4 * INPUT_S,),
    strategy="batched",
    batch_size=16,
    state_backend="dict",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="hashcount",
            why=WHY["hashcount"],
            kind="count",
            config=_HASHCOUNT,
            migrations=1,
        ),
        Workload(
            name="nexmark-q3",
            why=WHY["nexmark-q3"],
            kind="q3",
            config=dict(
                num_workers=8,
                workers_per_process=4,
                num_bins=256,
                rate=20_000.0,
                duration_s=INPUT_S,
                granularity_ms=EPOCH_MS,
                migrate_at_s=(),
            ),
            migrations=0,
        ),
        Workload(
            name="fluid-migration",
            why=WHY["fluid-migration"],
            kind="count",
            config=dict(
                num_workers=16,
                workers_per_process=4,
                num_bins=1024,
                domain=10**9,
                bytes_per_key=8.0,
                rate=20_000.0,
                duration_s=INPUT_S,
                granularity_ms=EPOCH_MS,
                migrate_at_s=(2.0,),
                strategy="fluid",
                cost=FLUID_COST,
            ),
            migrations=1,
        ),
        Workload(
            name="hashcount-wal",
            why=WHY["hashcount-wal"],
            kind="count",
            config={**_HASHCOUNT, "state_backend": "wal", "wal_sync_every": 1},
            migrations=1,
        ),
    )
}


def make_config(workload: Workload, seed: int):
    """The ``ExperimentConfig`` of ``workload`` at ``seed``."""
    from repro.harness.experiment import ExperimentConfig
    from repro.sim.cost import CostModel

    fields = dict(workload.config)
    if "cost" in fields:
        fields["cost"] = CostModel(**fields["cost"])
    return ExperimentConfig(seed=seed, **fields)


def run_workload(workload: Workload, seed: int):
    """Run ``workload`` once through the program's public entry points."""
    cfg = make_config(workload, seed)
    if workload.kind == "q3":
        from repro.nexmark.harness import run_nexmark_experiment

        return run_nexmark_experiment(3, cfg)
    from repro.harness.experiment import run_count_experiment

    return run_count_experiment(cfg)
