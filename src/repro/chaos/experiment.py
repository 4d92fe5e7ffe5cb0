"""Canned chaos scenarios and the all-strategy robustness matrix.

This is the harness-facing face of the chaos subsystem (and the only chaos
module allowed to import the harness).  A *scenario* is a named recipe that
turns an :class:`~repro.harness.experiment.ExperimentConfig` into a
:class:`~repro.chaos.plan.ChaosConfig` aimed at its migration schedule —
e.g. ``crash-target`` kills the process that is about to *receive* the
migrated bins, mid-migration, which is the hardest case for each strategy's
Completion guarantee.

``run_chaos_matrix`` runs one scenario against every migration strategy and
reports a verdict per strategy, answering the question the subsystem exists
for: which strategy degrades most gracefully under faults?
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.chaos.plan import (
    ChaosConfig,
    FaultPlan,
    LinkFault,
    ProcessCrash,
    WorkerStall,
)
from repro.chaos.watchdog import WatchdogConfig
from repro.harness.experiment import (
    ExperimentConfig,
    ExperimentResult,
    run_count_experiment,
)
from repro.megaphone.controller import RetryPolicy
from repro.megaphone.migration import STRATEGIES, imbalanced_target

SCENARIOS = (
    "crash-target",
    "crash-restart",
    "crash-storage",
    "partition",
    "stall",
    "lossy",
)

# Offset from the first migration start to the fault onset: long enough for
# the first control step to be issued, short enough to land mid-migration.
FAULT_DELAY_S = 0.15


def default_chaos_experiment_config(**overrides) -> ExperimentConfig:
    """A small, fast cluster that still has two processes to break.

    State is deliberately heavy relative to the network (8 MB of state on a
    4 MB/s fabric) so a migration step takes hundreds of simulated
    milliseconds — faults injected ``FAULT_DELAY_S`` after the migration
    start land *mid-step*, which is the case the retry/recovery machinery
    exists for.
    """
    cfg = ExperimentConfig(
        num_workers=4,
        workers_per_process=2,
        num_bins=16,
        domain=1 << 12,
        rate=20_000.0,
        duration_s=6.0,
        migrate_at_s=(2.0,),
        strategy="batched",
        batch_size=4,
        bytes_per_key=2048.0,
        bandwidth_bytes_per_s=4e6,
    )
    return replace(cfg, **overrides)


def migration_target_process(cfg: ExperimentConfig) -> int:
    """The process receiving the most bins in the first scheduled migration.

    Crashing it mid-step is the adversarial case: the in-flight state
    shipments address workers that no longer exist.
    """
    from repro.megaphone.control import BinnedConfiguration

    initial = BinnedConfiguration.round_robin(cfg.num_bins, cfg.num_workers)
    target = imbalanced_target(initial)
    gained: dict[int, int] = {}
    for inst in initial.moved_bins(target):
        process = inst.worker // cfg.workers_per_process
        gained[process] = gained.get(process, 0) + 1
    if not gained:
        return (cfg.num_workers - 1) // cfg.workers_per_process
    return max(sorted(gained), key=lambda p: gained[p])


def scenario_chaos(
    scenario: str,
    cfg: ExperimentConfig,
    seed: int = 0,
    restart_after_s: Optional[float] = None,
    drop_prob: float = 0.3,
) -> ChaosConfig:
    """Build the :class:`ChaosConfig` for a named scenario against ``cfg``."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; pick one of {SCENARIOS}")
    migrate_at = cfg.migrate_at_s[0] if cfg.migrate_at_s else cfg.duration_s / 3
    at_s = migrate_at + FAULT_DELAY_S
    if scenario == "crash-target":
        plan = FaultPlan(
            seed=seed,
            crashes=(
                ProcessCrash(at_s=at_s, process=migration_target_process(cfg)),
            ),
        )
    elif scenario == "crash-restart":
        plan = FaultPlan(
            seed=seed,
            crashes=(
                ProcessCrash(
                    at_s=at_s,
                    process=migration_target_process(cfg),
                    restart_after_s=restart_after_s
                    if restart_after_s is not None
                    else 1.0,
                ),
            ),
        )
    elif scenario == "crash-storage":
        # Crash-restart with storage damage: the final frame is torn and
        # the unsynced tail is lost.  Meaningful on a durable backend
        # (recovery must detect and truncate the damage); identical to
        # crash-restart on in-memory ones.
        plan = FaultPlan(
            seed=seed,
            crashes=(
                ProcessCrash(
                    at_s=at_s,
                    process=migration_target_process(cfg),
                    restart_after_s=restart_after_s
                    if restart_after_s is not None
                    else 1.0,
                    torn_write=True,
                    lose_unsynced_tail=True,
                ),
            ),
        )
    elif scenario == "partition":
        plan = FaultPlan(
            seed=seed,
            link_faults=(
                LinkFault(at_s=at_s, duration_s=0.75, drop_prob=1.0),
            ),
        )
    elif scenario == "stall":
        plan = FaultPlan(
            seed=seed,
            stalls=(
                WorkerStall(at_s=at_s, duration_s=0.75, worker=0, slowdown=0.0),
            ),
        )
    else:  # lossy
        plan = FaultPlan(
            seed=seed,
            link_faults=(
                LinkFault(at_s=at_s, duration_s=1.0, drop_prob=drop_prob),
            ),
        )
    return ChaosConfig(
        plan=plan,
        retry=RetryPolicy(timeout_s=0.5, backoff=2.0, max_attempts=5),
        watchdog=WatchdogConfig(
            poll_interval_s=0.1, stall_after_s=0.75, give_up_after_s=10.0
        ),
        # Checkpoint just before the fault so crash recovery has state to
        # reinstall (the scenario is about liveness either way).
        snapshot_at_s=max(migrate_at - 0.5, 0.25),
    )


@dataclass
class ChaosRunResult:
    """Verdict of one (scenario, strategy) chaos run."""

    scenario: str
    strategy: str
    verdict: str  # completed | recovered | stalled
    recoveries: int
    abandoned_steps: int
    dropped_messages: int
    restored_bins: int
    result: ExperimentResult = field(repr=False, default=None)

    @property
    def live(self) -> bool:
        """True when the run kept (or regained) the Completion guarantee."""
        return self.verdict in ("completed", "recovered")


def _per_strategy_path(path: str, strategy: str) -> str:
    """Insert the strategy into an output path, before its extension.

    The chaos matrix runs one experiment per strategy; a single
    ``--record``/``--export-metrics`` destination would be overwritten
    four times, so each strategy gets its own file
    (``run.jsonl`` -> ``run.batched.jsonl``).
    """
    root, dot, ext = path.rpartition(".")
    if not dot:
        return f"{path}.{strategy}"
    return f"{root}.{strategy}.{ext}"


def run_chaos_experiment(
    scenario: str,
    strategy: str,
    cfg: Optional[ExperimentConfig] = None,
    seed: int = 0,
    **scenario_kwargs,
) -> ChaosRunResult:
    """Run the counting benchmark under one scenario and strategy."""
    if cfg is None:
        cfg = default_chaos_experiment_config()
    cfg = replace(cfg, strategy=strategy)
    if cfg.record_log:
        cfg = replace(
            cfg, record_log=_per_strategy_path(cfg.record_log, strategy)
        )
    if cfg.export_metrics and cfg.export_metrics != "-":
        cfg = replace(
            cfg,
            export_metrics=_per_strategy_path(cfg.export_metrics, strategy),
        )
    cfg = replace(
        cfg, chaos=scenario_chaos(scenario, cfg, seed=seed, **scenario_kwargs)
    )
    result = run_count_experiment(cfg)
    from repro.runtime_events.events import MessageDropped, StateReinstalled

    log = result.fault_log
    return ChaosRunResult(
        scenario=scenario,
        strategy=strategy,
        verdict=result.chaos_verdict or "stalled",
        recoveries=result.chaos_recoveries,
        abandoned_steps=result.abandoned_steps,
        dropped_messages=log.count(MessageDropped) if log else 0,
        restored_bins=sum(
            e.restored_bins
            for e in (log.recovery if log else ())
            if type(e) is StateReinstalled
        ),
        result=result,
    )


def run_chaos_matrix(
    scenario: str = "crash-target",
    strategies: tuple = STRATEGIES,
    cfg: Optional[ExperimentConfig] = None,
    seed: int = 0,
    **scenario_kwargs,
) -> list[ChaosRunResult]:
    """The robustness matrix: one scenario against every strategy."""
    return [
        run_chaos_experiment(
            scenario, strategy, cfg=cfg, seed=seed, **scenario_kwargs
        )
        for strategy in strategies
    ]
