"""The migration controller: drives a plan through the control stream.

Megaphone itself only consumes configuration updates; deciding *what* to
migrate and *when* is an external controller's job (paper §4.4 — DS2, Chi,
or Dhalion could supply the stream).  This module provides:

* ``EpochTicker`` — advances an input group's epochs with simulated time so
  control (and data) frontiers keep moving;
* ``MigrationController`` — issues one plan step at a time, awaits its
  completion through a probe on the S output frontier, optionally waits a
  drain gap, then issues the next step (paper §3.3's "await the migration's
  completion before choosing the next");
* ``ResilientMigrationController`` — the same, plus per-step timeouts with
  retry and exponential backoff, and crash-driven reconfiguration: crashed
  workers are excluded from targets and their orphaned bins are reassigned
  to survivors (the recovery half of the chaos subsystem);
* ``StepResult`` — per-step issue/completion bookkeeping used by the
  benchmarks to report migration duration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.megaphone.control import ControlInst
from repro.megaphone.migration import MigrationPlan
from repro.runtime_events.events import (
    MigrationStepAbandoned,
    MigrationStepCompleted,
    MigrationStepIssued,
    MigrationStepOutcome,
    MigrationStepRetried,
    MigrationStepTimedOut,
    WorkerExcluded,
)
from repro.timely.dataflow import InputGroup, Runtime
from repro.timely.timestamp import Timestamp


class EpochTicker:
    """Advances every handle of an input group once per tick.

    Epochs are integer timestamps derived from simulated time:
    ``epoch = round(sim_time * 1000 / granularity_ms) * granularity_ms``,
    i.e. event-time milliseconds quantized to the tick granularity.
    """

    def __init__(
        self,
        runtime: Runtime,
        group: InputGroup,
        granularity_ms: int = 10,
        until_s: Optional[float] = None,
        dilation: int = 1,
    ) -> None:
        self.runtime = runtime
        self.group = group
        self.granularity_ms = granularity_ms
        self.until_s = until_s
        self.dilation = dilation
        self._stopped = False

    @property
    def tick_s(self) -> float:
        return self.granularity_ms / 1000.0

    def current_epoch(self) -> int:
        """The (event-time) epoch corresponding to the current simulated time."""
        quantized = int(round(self.runtime.sim.now * 1000 / self.granularity_ms))
        return quantized * self.granularity_ms * self.dilation

    def start(self) -> None:
        """Begin ticking at the next tick boundary."""
        self.runtime.sim.schedule(self.tick_s, self._tick)

    def stop(self) -> None:
        """Stop ticking and close the group at the next tick."""
        self._stopped = True

    def _tick(self) -> None:
        now = self.runtime.sim.now
        if self._stopped or (self.until_s is not None and now >= self.until_s):
            self.group.close_all()
            return
        epoch = self.current_epoch() + self.granularity_ms * self.dilation
        for handle in self.group.handles():
            if handle.epoch is not None and handle.epoch < epoch:
                handle.advance_to(epoch)
        self.runtime.sim.schedule(self.tick_s, self._tick)


@dataclass
class StepResult:
    """Timing of one reconfiguration step.

    ``insts``/``attempts``/``abandoned`` feed the resilient controller: the
    instructions are kept so a timed-out step can be re-issued, ``time`` is
    rewritten to the retry's control timestamp, and ``abandoned`` marks a
    step that exhausted its retry budget.  Instances are compared by
    identity (dataclass equality is unsafe as a membership test here: two
    retries of one step may be field-identical).
    """

    time: Timestamp
    moves: int
    issued_at: float
    completed_at: Optional[float] = None
    insts: tuple = ()
    attempts: int = 1
    abandoned: bool = False
    # The batch the controller chose for this step.  Plan-driven
    # controllers record the step's move count; the adaptive controller
    # records its chosen batch, which can exceed ``moves`` on the tail
    # step.  Cost models relate this to the realized duration.
    batch_size: int = 0

    @property
    def duration(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.issued_at


def _outcome_of(step: StepResult, at: float) -> MigrationStepOutcome:
    """The step's trace-bus outcome record (completion or abandonment)."""
    return MigrationStepOutcome(
        time=step.time,
        moves=step.moves,
        batch_size=step.batch_size,
        attempts=step.attempts,
        abandoned=step.abandoned,
        duration_s=step.duration if step.duration is not None else at - step.issued_at,
        at=at,
    )


@dataclass
class MigrationResult:
    """Timings of a whole plan."""

    strategy: str
    steps: list[StepResult] = field(default_factory=list)

    @property
    def batch_sizes(self) -> list[int]:
        """Chosen batch size of every step, in issue order."""
        return [step.batch_size for step in self.steps]

    @property
    def total_attempts(self) -> int:
        """Issues including retries across all steps (> len(steps) means
        at least one step timed out and was re-issued)."""
        return sum(step.attempts for step in self.steps)

    @property
    def started_at(self) -> Optional[float]:
        return self.steps[0].issued_at if self.steps else None

    @property
    def completed_at(self) -> Optional[float]:
        if not self.steps or self.steps[-1].completed_at is None:
            return None
        return self.steps[-1].completed_at

    @property
    def duration(self) -> Optional[float]:
        if self.started_at is None or self.completed_at is None:
            return None
        return self.completed_at - self.started_at


class MigrationController:
    """Feeds a migration plan into the control stream, step by step.

    The controller issues each step at the current control epoch, watches
    the S output frontier (via the provided probe) until the step's
    timestamp has fully passed — state shipped *and* backlog drained — then
    waits ``gap_s`` (paper §4.4's drain gap) and issues the next step.
    """

    def __init__(
        self,
        runtime: Runtime,
        control_group: InputGroup,
        ticker: EpochTicker,
        probe,
        plan: MigrationPlan,
        gap_s: float = 0.0,
        pace_s: Optional[float] = None,
        on_done: Optional[Callable[[MigrationResult], None]] = None,
    ) -> None:
        self._runtime = runtime
        self._group = control_group
        self._ticker = ticker
        self._probe = probe
        self._plan = plan
        self._gap_s = gap_s
        # Completion pacing (default): the next step is issued gap_s after
        # the previous one's frontier-confirmed completion.  Timer pacing
        # (pace_s set): steps are issued every pace_s seconds regardless of
        # completion — the regime where the paper's drain gap matters.
        self._pace_s = pace_s
        self._on_done = on_done
        self._next_step = 0
        self._awaiting: list[StepResult] = []
        self._finished = False
        self.result = MigrationResult(strategy=plan.strategy)
        probe.on_advance(self._check_progress)

    @property
    def done(self) -> bool:
        """True when every step has been issued and completed."""
        return self._next_step >= len(self._plan.steps) and not self._awaiting

    def start_at(self, sim_time_s: float) -> None:
        """Begin issuing steps at the given simulated time."""
        self._runtime.sim.schedule_at(sim_time_s, self._issue_next)

    def _issue_next(self) -> None:
        if self._next_step >= len(self._plan.steps):
            self._finish()
            return
        step = self._plan.steps[self._next_step]
        self._next_step += 1
        if not step.insts:
            self._issue_next()
            return
        self._issue(list(step.insts))
        if self._pace_s is not None:
            self._runtime.sim.schedule(self._pace_s, self._issue_next)
        # The frontier may conceivably already be past; check synchronously.
        self._check_progress(None)

    # -- issue pipeline (hooks for the resilient subclass) -------------------

    def _control_handle(self):
        """The input handle control records are sent through."""
        return self._group.handle(0)

    def _prepare_insts(self, insts: list) -> list:
        """Final say over a step's instructions just before sending."""
        return list(insts)

    def _after_issue(self, result: StepResult) -> None:
        """Called once per issued step (the subclass arms its timeout here)."""

    def _issue(self, insts: list) -> StepResult:
        handle = self._control_handle()
        if handle is None or handle.epoch is None:
            raise RuntimeError("control input closed while a migration is pending")
        insts = self._prepare_insts(insts)
        time = handle.epoch
        handle.send(time, list(insts))
        now = self._runtime.sim.now
        trace = self._runtime.sim.trace
        if trace.wants_migration:
            trace.publish(
                MigrationStepIssued(time=time, moves=len(insts), at=now)
            )
        result = StepResult(
            time=time, moves=len(insts), issued_at=now, insts=tuple(insts),
            batch_size=len(insts),
        )
        self._awaiting.append(result)
        self.result.steps.append(result)
        self._after_issue(result)
        return result

    def _check_progress(self, _frontier) -> None:
        completed_any = False
        trace = self._runtime.sim.trace
        while self._awaiting and self._probe.passed(self._awaiting[0].time):
            step = self._awaiting.pop(0)
            step.completed_at = self._runtime.sim.now
            if trace.wants_migration:
                trace.publish(
                    MigrationStepCompleted(time=step.time, at=step.completed_at)
                )
                trace.publish(_outcome_of(step, step.completed_at))
            completed_any = True
        if completed_any and self._pace_s is None and not self._awaiting:
            self._runtime.sim.schedule(self._gap_s, self._issue_next)

    def _finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        if self._on_done is not None:
            self._on_done(self.result)


@dataclass(frozen=True)
class RetryPolicy:
    """Per-step deadline discipline for the resilient controller.

    Attempt ``k`` (1-based) of a step must complete within
    ``timeout_s * backoff**(k-1)`` seconds of its (re-)issue; after
    ``max_attempts`` the step is abandoned and reported.
    """

    timeout_s: float = 1.0
    backoff: float = 2.0
    max_attempts: int = 5

    def deadline_for(self, attempt: int) -> float:
        """Seconds granted to attempt ``attempt`` (1-based)."""
        return self.timeout_s * (self.backoff ** (attempt - 1))


class ResilientMigrationController(MigrationController):
    """A migration controller that survives injected faults.

    Three mechanisms on top of the base controller:

    * **Timeout + retry with backoff** — every issued step is given a
      deadline; a step whose timestamp has not passed the probe by then is
      re-issued at the current control epoch with the same instructions.
      Re-issuing is idempotent: F diffs each instruction against its
      current owner, so already-applied moves produce no new shipments.
      Steps that exhaust ``retry.max_attempts`` are abandoned (and show up
      in ``abandoned``).
    * **Worker exclusion** — instructions targeting a dead worker are
      retargeted (at issue *and* retry time) onto the live worker owning
      the fewest bins in the configuration ledger, lowest id on ties.
      ``placeable`` (when given) further restricts the candidates — elastic
      runs pass a membership filter so crash retargeting never lands bins
      on a draining or standby worker.
    * **Crash reconciliation** — on a crash notification, bins the ledger
      places on dead workers are reassigned to survivors through an extra
      recovery step, so the key space stays fully owned; the
      ``on_recovery_step`` callback lets a recovery coordinator reinstall
      snapshot state into the new owners.

    ``injector`` is the chaos injector (membership oracle); ``ledger`` a
    :class:`~repro.chaos.recovery.ConfigurationLedger` tracking the intended
    assignment.  Both are optional: without them the controller degrades to
    pure timeout/retry (useful under partitions and stalls).
    """

    def __init__(
        self,
        runtime: Runtime,
        control_group: InputGroup,
        ticker: EpochTicker,
        probe,
        plan: MigrationPlan,
        retry: Optional[RetryPolicy] = None,
        injector=None,
        ledger=None,
        on_recovery_step: Optional[Callable[[StepResult], None]] = None,
        reconcile: bool = True,
        placeable: Optional[Callable[[int], bool]] = None,
        **kwargs,
    ) -> None:
        super().__init__(runtime, control_group, ticker, probe, plan, **kwargs)
        self._retry = retry if retry is not None else RetryPolicy()
        self._injector = injector
        self._ledger = ledger
        self._on_recovery_step = on_recovery_step
        self._placeable = placeable
        # Timeout events keyed by id(StepResult): StepResult's generated
        # equality makes it unusable as a dict key or membership probe.
        self._timeout_events: dict[int, object] = {}
        self._pending_recovery: list[list[ControlInst]] = []
        self.abandoned: list[StepResult] = []
        # With several controllers sharing one ledger (one per scheduled
        # migration), exactly one should reconcile crashes — otherwise each
        # would issue its own recovery step for the same orphaned bins.
        if injector is not None and reconcile:
            injector.on_membership_change(self._on_membership)

    @property
    def done(self) -> bool:
        """Base completion plus no recovery steps waiting to be issued."""
        return super().done and not self._pending_recovery

    # -- issue-pipeline overrides --------------------------------------------

    def _control_handle(self):
        if self._injector is None:
            return self._group.handle(0)
        for worker in self._injector.live_workers():
            handle = self._group.handle(worker)
            if handle.epoch is not None:
                return handle
        return None

    def _prepare_insts(self, insts: list) -> list:
        out = list(insts)
        if self._injector is not None:
            dead = set(self._injector.dead_workers())
            if dead and any(inst.worker in dead for inst in out):
                counts = self._live_bin_counts()
                retargeted = []
                for inst in out:
                    if inst.worker in dead:
                        dst = min(counts, key=lambda w: (counts[w], w))
                        counts[dst] += 1
                        retargeted.append(ControlInst(bin=inst.bin, worker=dst))
                    else:
                        retargeted.append(inst)
                out = retargeted
        if self._ledger is not None:
            self._ledger.apply(out)
        return out

    def _after_issue(self, result: StepResult) -> None:
        self._arm_timeout(result)

    def _live_bin_counts(self) -> dict[int, float]:
        live = list(self._injector.live_workers())
        if self._placeable is not None:
            # Never leave bins unowned: if membership rules exclude every
            # live worker, fall back to the full live set.
            eligible = [w for w in live if self._placeable(w)]
            live = eligible or live
        if self._ledger is not None:
            return {w: len(self._ledger.current.bins_of(w)) for w in live}
        return {w: 0 for w in live}

    # -- timeouts and retries -------------------------------------------------

    def _arm_timeout(self, result: StepResult) -> None:
        delay = self._retry.deadline_for(result.attempts)
        event = self._runtime.sim.schedule(
            delay, lambda: self._on_timeout(result)
        )
        self._timeout_events[id(result)] = event

    def _cancel_timeout(self, result: StepResult) -> None:
        event = self._timeout_events.pop(id(result), None)
        if event is not None:
            event.cancel()

    def _on_timeout(self, result: StepResult) -> None:
        self._timeout_events.pop(id(result), None)
        if not any(step is result for step in self._awaiting):
            return
        now = self._runtime.sim.now
        trace = self._runtime.sim.trace
        if trace.wants_recovery:
            trace.publish(
                MigrationStepTimedOut(
                    time=result.time,
                    attempt=result.attempts,
                    timeout_s=self._retry.deadline_for(result.attempts),
                    at=now,
                )
            )
        handle = self._control_handle()
        if result.attempts >= self._retry.max_attempts or handle is None or (
            handle.epoch is None
        ):
            self._abandon(result, now)
            return
        old_time = result.time
        insts = self._prepare_insts(list(result.insts))
        result.attempts += 1
        result.insts = tuple(insts)
        result.time = handle.epoch
        handle.send(result.time, list(insts))
        if trace.wants_recovery:
            trace.publish(
                MigrationStepRetried(
                    time=old_time,
                    retry_time=result.time,
                    moves=len(insts),
                    attempt=result.attempts,
                    at=now,
                )
            )
        self._arm_timeout(result)

    def _abandon(self, result: StepResult, now: float) -> None:
        result.abandoned = True
        self._awaiting[:] = [s for s in self._awaiting if s is not result]
        self.abandoned.append(result)
        trace = self._runtime.sim.trace
        if trace.wants_recovery:
            trace.publish(
                MigrationStepAbandoned(
                    time=result.time, attempts=result.attempts, at=now
                )
            )
        if trace.wants_migration:
            trace.publish(_outcome_of(result, now))
        if self._pace_s is None and not self._awaiting:
            self._runtime.sim.schedule(self._gap_s, self._issue_next)

    def nudge(self) -> None:
        """Force an immediate retry of every awaiting step (watchdog hook)."""
        for step in list(self._awaiting):
            self._cancel_timeout(step)
            self._on_timeout(step)

    # -- crash reconciliation --------------------------------------------------

    def _on_membership(self, kind: str, process: int, workers: tuple) -> None:
        if kind != "crash":
            # A restart cannot regress frontiers; nothing to reconcile.
            return
        now = self._runtime.sim.now
        trace = self._runtime.sim.trace
        orphaned: list[int] = []
        per_worker: dict[int, int] = {}
        if self._ledger is not None:
            for worker in workers:
                bins = self._ledger.current.bins_of(worker)
                per_worker[worker] = len(bins)
                orphaned.extend(bins)
        if trace.wants_recovery:
            for worker in workers:
                trace.publish(
                    WorkerExcluded(
                        worker=worker,
                        orphaned_bins=per_worker.get(worker, 0),
                        at=now,
                    )
                )
        if not orphaned:
            return
        counts = self._live_bin_counts()
        insts = []
        for bin_id in sorted(orphaned):
            dst = min(counts, key=lambda w: (counts[w], w))
            counts[dst] += 1
            insts.append(ControlInst(bin=bin_id, worker=dst))
        self._pending_recovery.append(insts)
        self._runtime.sim.schedule(0.0, self._issue_recovery)

    def _issue_recovery(self) -> None:
        while self._pending_recovery:
            insts = self._pending_recovery.pop(0)
            handle = self._control_handle()
            if handle is None or handle.epoch is None:
                # Control stream gone: recovery is impossible; the watchdog
                # will diagnose the stall if one follows.
                return
            result = self._issue(insts)
            if self._on_recovery_step is not None:
                self._on_recovery_step(result)
        self._check_progress(None)

    # -- completion ------------------------------------------------------------

    def _check_progress(self, _frontier) -> None:
        completed_any = False
        now = self._runtime.sim.now
        trace = self._runtime.sim.trace
        # Scan every awaiting step, not just the head: retried steps carry
        # rewritten (later) timestamps, so completion order is not issue
        # order.
        remaining: list[StepResult] = []
        for step in self._awaiting:
            if self._probe.passed(step.time):
                step.completed_at = now
                self._cancel_timeout(step)
                if trace.wants_migration:
                    trace.publish(
                        MigrationStepCompleted(time=step.time, at=now)
                    )
                    trace.publish(_outcome_of(step, now))
                completed_any = True
            else:
                remaining.append(step)
        self._awaiting[:] = remaining
        if completed_any and self._pace_s is None and not self._awaiting:
            self._runtime.sim.schedule(self._gap_s, self._issue_next)
