"""The workload process: one workload, single-threaded, nothing else.

``run.py`` starts this file as a fresh interpreter, so that set-up time
and peak memory are those of a process that ran only this workload:

    python3 perfbench/child.py setup <workload> <seed> <spawn_ns>
    python3 perfbench/child.py run <workload> <seed> <spawn_ns> <seconds> <trace> <out_dir>

``spawn_ns`` is ``time.monotonic_ns()`` taken by the parent just before it
started this process; set-up time runs from there to the first
``Runtime.run`` call.  ``setup`` stops at that call.  ``run`` repeats the
untraced workload for about ``seconds`` (at least ``MIN_REPS`` times); with
``trace`` 1 it runs it once untraced as the baseline, then traced, twice.  Each finished run is printed at once as one JSON line, so
a run that stalls and is killed still leaves the earlier ones.

Reference speed
---------------
The machine this benchmark was written on shares its cores with other
tenants, and its speed at running Python swings by up to 2x over seconds
to minutes, while the process never waits for a CPU (its CPU time equals
its wall time).  Every wall time is therefore also converted to the time
it would have taken at a fixed reference speed.  ``probe`` is a fixed
pure-Python job (heap, dict and integer work, like the simulator's inner
loop) that shares no code with the program; the untraced runs call it
after every ``SLICE_EPOCHS``-th completed epoch.  Each slice of wall time
between two probes, probes excluded, is scaled by ``REFERENCE_PROBE_S``
over the duration of the probe that ends it, and the slices are summed.
Set-up is scaled by the median of ``SETUP_PROBES`` probes taken before
the program's imports and as many taken after the first ``Runtime.run``
call; the first probes' time is subtracted from it.  On that machine this
cut the spread of throughput between runs minutes apart from about 0.26
to 0.03 of the median, and that of set-up from about 0.36 to 0.12.  A change to the
program moves the scaled time as it moves the wall time; the probe's own
code never changes with the program.
"""

from __future__ import annotations

import gc
import heapq
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

MIN_REPS = 3
SLICE_EPOCHS = 20
SETUP_PROBES = 5
PROBE_STEPS = 3000
# The probe's duration at the reference speed (about its fastest on the
# machine the benchmark was written on), so scaled times read close to
# that machine's unloaded wall times.
REFERENCE_PROBE_S = 0.0025


class _SetupDone(Exception):
    """Raised at the first ``Runtime.run`` call of a set-up probe."""


def _emit(kind: str, payload: dict) -> None:
    print(kind, json.dumps(payload), flush=True)


def probe() -> None:
    """A fixed pure-Python job whose duration tracks the core's speed.

    The garbage collector is held off, so that a collection of the
    program's heap, whose size varies with the program, is not timed here.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        heap: list = []
        counts: dict = {}
        x = 12345
        for i in range(PROBE_STEPS):
            x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
            heapq.heappush(heap, (i + (x >> 60), i, x & 1023))
            if len(heap) > 64:
                key = heapq.heappop(heap)[2]
                counts[key] = counts.get(key, 0) + 1
    finally:
        if collecting:
            gc.enable()


def _reference_wall(start_ns: int, probes: list, end_ns: int) -> tuple:
    """Wall seconds outside the probes, and the same at reference speed."""
    wall = reference = 0.0
    scale = 1.0
    slice_start = start_ns
    for before, after in probes:
        scale = REFERENCE_PROBE_S / ((after - before) / 1e9)
        seconds = (before - slice_start) / 1e9
        wall += seconds
        reference += seconds * scale
        slice_start = after
    # The tail after the last probe (the run's return) at the last speed.
    seconds = (end_ns - slice_start) / 1e9
    return wall + seconds, reference + seconds * scale


def _one_run(workload, seed: int, tracer=None) -> tuple:
    """Run the workload once: its wall time, outcome and check, and result.

    Untraced runs are probed for the reference speed; traced runs are not.
    """
    from check import RunTaps, check_run
    from shapes import run_workload

    if tracer is not None:
        tracer.install()
    taps = RunTaps(workload, probe if tracer is None else None, SLICE_EPOCHS)
    try:
        result = run_workload(workload, seed)
        end_ns = time.monotonic_ns()
    finally:
        taps.restore()
        if tracer is not None:
            tracer.restore()
    out = check_run(taps, result)
    out["wall_s"], out["reference_s"] = _reference_wall(
        taps.first_run_ns, taps.probes, end_ns
    )
    return out, result


def _timed_probes() -> list:
    """Seconds taken by each of ``SETUP_PROBES`` probes in a row."""
    seconds = []
    for _ in range(SETUP_PROBES):
        before = time.perf_counter()
        probe()
        seconds.append(time.perf_counter() - before)
    return seconds


def main(argv: list) -> int:
    mode, name, seed, spawn_ns = argv[0], argv[1], int(argv[2]), int(argv[3])
    # Set-up is probed before the program's imports and after its first
    # ``Runtime.run`` call; the first probes' time is not set-up.
    probe_s = _timed_probes() if mode == "setup" else []
    imports_started = time.perf_counter()
    import repro.harness.experiment  # noqa: F401
    import repro.nexmark.harness  # noqa: F401
    from repro.timely.dataflow import Runtime

    import_s = time.perf_counter() - imports_started
    from shapes import WORKLOADS, run_workload

    workload = WORKLOADS[name]
    if mode == "setup":
        run = Runtime.run

        def stop_at_run(runtime, until=None):
            raise _SetupDone(time.monotonic_ns())

        Runtime.run = stop_at_run
        try:
            run_workload(workload, seed)
        except _SetupDone as done:
            setup_s = (done.args[0] - spawn_ns) / 1e9 - sum(probe_s)
        else:
            raise RuntimeError("the workload never called Runtime.run")
        finally:
            Runtime.run = run
        probe_s += _timed_probes()
        _emit(
            "SETUP",
            {
                "setup_s": setup_s,
                "reference_s": setup_s * REFERENCE_PROBE_S / statistics.median(probe_s),
            },
        )
        return 0

    seconds, trace, out_dir = float(argv[4]), argv[5] == "1", argv[6]
    started = time.perf_counter()
    reps = 0
    last = 0.0
    # Stop before a repeat that would end past ``seconds``.  A traced
    # invocation needs one untraced run only, as its baseline.
    while reps < (1 if trace else MIN_REPS) or (
        not trace and time.perf_counter() - started + last <= seconds
    ):
        # Every repeat starts from a collected heap, so garbage left by the
        # previous one neither slows it nor raises the peak.
        gc.collect()
        repeat_started = time.perf_counter()
        out, _result = _one_run(workload, seed)
        last = time.perf_counter() - repeat_started
        reps += 1
        _emit("REP", out)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _emit("RSS", {"peak_rss_mb": rss_mb})
    if trace:
        from tracer import Tracer

        for index in range(2):
            gc.collect()
            tracer = Tracer()
            out, result = _one_run(workload, seed, tracer)
            out["layers"] = tracer.layer_metrics(result, out["attempted"])
            out["layers"]["harness.setup.import_s"] = import_s
            out["span_count"] = len(tracer.span_name)
            if index == 0:
                os.makedirs(out_dir, exist_ok=True)
                tracer.write(os.path.join(out_dir, f"{name}-seed{seed}-spans.npz"))
            del tracer
            _emit("TRACE", out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
