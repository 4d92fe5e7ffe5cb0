"""Every scheduled callback is code that lives in the ``repro`` package.

Layer profilers name a simulator event after the module owning its
callback's code object (``repro/timely/worker.py`` -> ``timely.worker``).
A ``functools.partial``, a builtin or a callable object has no such code
object, so its time would land in the wrong layer without any error.  This
records every callback a small migrating count run schedules and checks
that each one resolves to a source file under ``repro/``.
"""

import os

from repro.harness.experiment import ExperimentConfig, run_count_experiment
from repro.sim.engine import Simulator


def _code_of(callback):
    code = getattr(callback, "__code__", None)
    if code is None:
        code = getattr(getattr(callback, "__func__", None), "__code__", None)
    return code


def test_scheduled_callbacks_resolve_to_repro_code(monkeypatch):
    scheduled = []
    for name in ("schedule_at", "schedule_fast_at"):
        original = getattr(Simulator, name)

        def recording(sim, time, callback, _original=original):
            scheduled.append(callback)
            return _original(sim, time, callback)

        monkeypatch.setattr(Simulator, name, recording)

    cfg = ExperimentConfig(
        num_workers=4,
        workers_per_process=2,
        num_bins=16,
        rate=4_000.0,
        duration_s=1.0,
        granularity_ms=10,
        migrate_at_s=(0.4,),
        strategy="fluid",
        seed=1,
        domain=1 << 12,
    )
    result = run_count_experiment(cfg)
    assert result.migrations and result.migrations[0].completed_at is not None

    assert len(scheduled) >= result.sim_events
    files = set()
    for callback in scheduled:
        code = _code_of(callback)
        assert code is not None, f"callback without a code object: {callback!r}"
        files.add(code.co_filename.replace(os.sep, "/"))
    outside = sorted(f for f in files if "/repro/" not in f)
    assert not outside, f"callbacks scheduled from outside repro/: {outside}"
    # The exchange path's callbacks are among them: worker activations and
    # completions, and the network's delivery and send-complete events.
    assert any(f.endswith("/repro/timely/worker.py") for f in files)
    assert any(f.endswith("/repro/sim/network.py") for f in files)
