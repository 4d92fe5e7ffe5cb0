"""The repository's benchmark: four workloads, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hashcount --seed 1 --seconds 20 --trace 0

``--workload all`` runs the four workloads one after another and prints
every one's metrics (the last line then keys them ``workload/metric``).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a separate traced run.  Each metric is printed by
name with its unit, and the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The benchmark
needs the program's sources under ``src/``; without them it exits with
code 2 and prints no result.

How a run is measured
---------------------
The source is a simulated open loop at a fixed rate: every 10 ms epoch of
simulated time its records are injected, whether or not the system kept
up.  Each epoch's latency is timed from when its input was due, so a
simulated stall counts against every later epoch, and the generator is
driven by simulated time, so it cannot run late in it.  On the wall-clock
side each run is a batch job over a stated number of input records.

Each workload runs in a fresh single-threaded process that runs nothing
else (``child.py``), and no two workloads ever run at once.  The untraced
workload is repeated in that process for about ``--seconds``, never
starting a repeat that would end later, and at least three times.  Set-up
is sampled in seven other fresh processes that stop at the first
``Runtime.run`` call.  A traced invocation samples no set-up and runs the
workload once untraced, as the baseline of ``trace.overhead_frac``, then
twice traced, so that it ends within its time limit on a slow machine.

Times are reported at a reference speed.  The machine this benchmark was
written on runs Python up to 2x slower for seconds to minutes at a time
while other tenants load it, which no number of repeats averages away.
So the untraced runs stop for a fixed 3000-step pure-Python probe after
every 20th completed epoch, and each slice of wall time between probes
is scaled by how much longer than its reference 2.5 ms the probe took
(``child.py`` says how).  ``records_per_s`` and ``setup_s`` are medians
of such scaled times; the plain wall-clock values are printed beside
them.  The probe's code is the benchmark's own and never changes with the
program, so a change that makes the program faster or slower moves the
scaled time as it moves the wall time.

The seed only reaches the program as ``ExperimentConfig.seed``.  The same
seed gives the same inputs, and every simulated number repeats exactly:
the benchmark fails a run whose repeats disagree on any of them, or on a
per-layer count between its two traced runs.  With ``--workload all`` it
also fails unless hashcount and hashcount-wal, which differ only in the
state backend, give identical simulated results and final-state digests.

End-to-end metrics
------------------
* ``records_per_s`` (rec/s): input records over the wall time from the
  first ``Runtime.run`` call to the run's return, probes excluded, at the
  reference speed; the median over the repeats.
* ``setup_s`` (s): from process start to the first ``Runtime.run`` call
  (imports, configuration, cluster and dataflow build), at the reference
  speed; the median of seven processes.
* ``peak_rss_mb`` (MB): ``ru_maxrss`` of the process that ran the workload.
* ``sim_mean_ms``, ``sim_p99_ms`` (ms): exact record-weighted mean and
  99th percentile of simulated service latency over every epoch.  All
  records of an epoch share one latency, so the samples are epochs: 1000
  per run, ten beyond the p99.  The median is printed but is not a
  metric: on nexmark-q3 fixed per-batch costs set most epochs' latency,
  and its median is the same number for every seed, which says nothing a
  comparison could use; the mean moves with every epoch.
* ``sim_max_ms`` (ms): the largest simulated latency after the first
  second (``ExperimentResult.overall_max_latency``).  On the migrating
  workloads it is the spike during the migration, the quantity of the
  paper's Figs 1 and 16-19; it is defined on every workload, where
  ``migration_max_ms`` is not.
* Failures: ``attempted`` counts input records over every run of the
  invocation and ``failed`` those whose effect is missing, duplicated or
  wrong in the checked final state (a run that raises or stalls fails
  whole); the printed ``failed_frac`` is their ratio.  It is not a metric
  in ``BENCHMARK.json`` because it is 0 on a correct program.

The simulated metrics are deterministic per seed, so any move is a change
of behaviour, not noise.  ``sim_events_per_s`` is deliberately not an
end-to-end metric: halving the events per record can lower it while the
run gets faster.  No ratio against a baseline from another machine is
reported.

Per-layer metrics (``--trace 1``) and what each should move
-----------------------------------------------------------
Layers are named after ``src/repro`` modules; counts are exact per 1000
input records, times are self seconds of the traced run, waits are in
simulated time.  On the workloads not named, the prediction is no change.

* ``sim.engine`` events, fired/scheduled, self time -> ``records_per_s``
  on fluid-migration much more than on hashcount.
* ``sim.network`` sends, transmits, modeled bytes, link waits -> bytes
  and waits move ``migration_s`` and the migration spike on
  fluid-migration; self time moves ``records_per_s`` there.
* ``timely`` worker activations, activate calls, useful share, dispatch
  wait, progress propagations, self times -> ``records_per_s`` on
  fluid-migration; ``timely.dataflow.build_s`` -> ``setup_s`` everywhere.
* ``megaphone`` F/S calls and self time -> ``records_per_s`` on hashcount
  (not on nexmark-q3); controller steps and step times, moved bins and
  bytes, ``migration_max_ms``, ``migration_s`` -> the migration spike and
  duration on fluid-migration (zero on nexmark-q3).
* ``runtime_events`` column-kernel calls, rows per call, bus publishes,
  self times -> ``records_per_s`` on hashcount (long columns) against
  fluid-migration (short columns, per-call overhead).
* ``state`` backend calls, WAL appends/bytes/syncs/compactions, self time
  -> ``records_per_s`` on hashcount-wal against hashcount; the simulated
  metrics of the two must stay equal.
* ``harness`` open-loop self time, import time -> ``setup_s`` everywhere.
* ``nexmark.generator`` self time, events per call -> ``records_per_s``
  on nexmark-q3 only.
* ``trace.overhead_frac``: traced wall time over the untraced wall time,
  minus 1.

Left out on purpose: ``repro.parallel`` (expected to be deleted; its own
change measures the kill criterion), chaos, elastic, planner and obsv
(off the default path), and a simulated sustainable-rate sweep (many runs
per check).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_SAMPLES = 7
DEADLINE_S = 170.0

E2E_UNITS = {
    "records_per_s": "rec/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_mean_ms": "ms",
    "sim_p99_ms": "ms",
    "sim_max_ms": "ms",
}

LAYER_UNITS = {
    "sim.engine.events_per_krec": "1/krec",
    "sim.engine.fired_frac": "ratio",
    "sim.engine.self_s": "s",
    "sim.network.sends_per_krec": "1/krec",
    "sim.network.transmits_per_krec": "1/krec",
    "sim.network.bytes_per_rec": "B/rec",
    "sim.network.link_wait_p50_ms": "ms",
    "sim.network.link_wait_p99_ms": "ms",
    "sim.network.self_s": "s",
    "timely.worker.activations_per_krec": "1/krec",
    "timely.worker.activate_calls_per_krec": "1/krec",
    "timely.worker.useful_frac": "ratio",
    "timely.worker.dispatch_wait_p99_ms": "ms",
    "timely.worker.self_s": "s",
    "timely.progress.propagates_per_krec": "1/krec",
    "timely.progress.self_s": "s",
    "timely.dataflow.build_s": "s",
    "megaphone.F.calls_per_krec": "1/krec",
    "megaphone.F.self_s": "s",
    "megaphone.S.calls_per_krec": "1/krec",
    "megaphone.S.self_s": "s",
    "megaphone.controller.steps": "count",
    "megaphone.controller.attempts_per_step": "ratio",
    "megaphone.controller.step_p50_ms": "ms",
    "megaphone.controller.step_max_ms": "ms",
    "megaphone.bins.moved_bins": "count",
    "megaphone.bins.moved_bytes": "B",
    "migration_max_ms": "ms",
    "migration_s": "s",
    "runtime_events.columns.calls_per_krec": "1/krec",
    "runtime_events.columns.rows_per_call": "rows",
    "runtime_events.columns.self_s": "s",
    "runtime_events.bus.publishes_per_krec": "1/krec",
    "runtime_events.bus.self_s": "s",
    "state.calls_per_krec": "1/krec",
    "state.self_s": "s",
    "state.wal.appends_per_krec": "1/krec",
    "state.wal.bytes_per_rec": "B/rec",
    "state.wal.syncs_per_krec": "1/krec",
    "state.wal.compactions": "count",
    "harness.openloop.self_s": "s",
    "harness.setup.import_s": "s",
    "nexmark.generator.self_s": "s",
    "nexmark.generator.events_per_call": "1/call",
    "trace.overhead_frac": "ratio",
}

# Per-layer metrics that are wall-clock times; every other one is exact
# and must repeat between two runs of one seed.
WALL_LAYER_METRICS = {
    name
    for name in LAYER_UNITS
    if name.endswith("self_s")
    or name in ("timely.dataflow.build_s", "harness.setup.import_s", "trace.overhead_frac")
}


def _child_env() -> dict:
    env = dict(os.environ)
    # One thread: numpy must not start a BLAS thread pool beside the run.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    # One string-hash layout in every process, so its speed does not vary
    # with the interpreter's random hash seed.
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args: list, timeout: float) -> tuple:
    """Run ``child.py`` with ``args``; its parsed lines and return code."""
    spawn_ns = time.monotonic_ns()
    cmd = [sys.executable, os.path.join(HERE, "child.py"), args[0], args[1], args[2]]
    cmd += [str(spawn_ns)] + args[3:]
    try:
        done = subprocess.run(
            cmd,
            cwd=ROOT,
            env=_child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(timeout, 1.0),
        )
        stdout, stderr, code = done.stdout, done.stderr, done.returncode
    except subprocess.TimeoutExpired as expired:
        stdout = expired.stdout or ""
        stderr = "timed out"
        code = -1
        if isinstance(stdout, bytes):
            stdout = stdout.decode()
    lines = []
    for line in stdout.splitlines():
        kind, _, payload = line.partition(" ")
        if kind in ("SETUP", "REP", "RSS", "TRACE"):
            lines.append((kind, json.loads(payload)))
    if code != 0:
        sys.stderr.write(stderr[-2000:])
    return lines, code


def _machine() -> str:
    import numpy

    return (
        f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
        f"numpy {numpy.__version__}, {platform.platform()}"
    )


def _print_metric(name: str, value, unit: str, note: str = "") -> None:
    print(f"  {name:<42} {value!r:>24} {unit}{'  ' + note if note else ''}")


def measure(workload, seed: int, seconds: float, trace: bool):
    """Measure one workload and print its block.

    Returns ``(correct, attempted, failed, metrics, sim)``, or None when
    the workload process failed before a single run finished.
    """
    started = time.monotonic()
    print(f"perfbench: workload {workload.name}, seed {seed}, trace {int(trace)}")
    print(f"  why: {workload.why}")
    print(f"  shape: {workload.config}")
    print(
        f"  source: simulated open loop, {workload.config['rate']:.0f} rec/s in "
        f"{workload.config['granularity_ms']} ms epochs; latency timed from each "
        "epoch's due time, so stalls count against later epochs; the generator "
        "runs on simulated time and cannot run late in it"
    )
    print(f"  machine: {_machine()}")

    setups = []
    for _ in range(0 if trace else SETUP_SAMPLES):
        lines, code = _spawn(["setup", workload.name, str(seed)], 60.0)
        setups.extend(p for kind, p in lines if kind == "SETUP")
    remaining = DEADLINE_S - (time.monotonic() - started)
    lines, code = _spawn(
        ["run", workload.name, str(seed), str(seconds), str(int(trace)), OUT_DIR],
        remaining,
    )
    reps = [p for kind, p in lines if kind == "REP"]
    traces = [p for kind, p in lines if kind == "TRACE"]
    rss = [p["peak_rss_mb"] for kind, p in lines if kind == "RSS"]
    if not reps or not rss or not (traces if trace else setups):
        sys.stderr.write(f"perfbench: the workload process failed (exit {code})\n")
        return None

    problems = []
    runs = reps + traces
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if code != 0:
        # The run that raised or stalled fails whole.
        attempted += workload.records
        failed += workload.records
        problems.append(f"workload process exited with {code}")
    if any(not r["migrations_completed"] for r in runs):
        problems.append("a scheduled migration did not complete")
    if any(not r["defect_flagged"] for r in runs):
        problems.append("the planted defect was not flagged: the checker is broken")
    sim = reps[0]["sim"]
    if any(r["sim"] != sim for r in runs):
        problems.append("simulated results differ between runs of one seed")
    if len(traces) == 2:
        counts = [
            {k: v for k, v in t["layers"].items() if k not in WALL_LAYER_METRICS}
            for t in traces
        ]
        if counts[0] != counts[1]:
            problems.append("per-layer counts differ between two traced runs")

    walls = [r["wall_s"] for r in reps]
    run_wall = statistics.median(walls)
    run_reference = statistics.median(r["reference_s"] for r in reps)
    setup_walls = [p["setup_s"] for p in setups]
    print(
        f"  wall clock: batch job of {sim['records']} input records per run, "
        f"{len(reps)} untraced runs, set-up sampled {len(setups)} times"
    )
    print(
        f"  simulated: {sim['records']} records, {sim['epochs']} epochs, "
        f"{sim['epochs_beyond_p99']} epochs beyond p99, {sim['sim_events']} events, "
        f"p50 {sim['sim_p50_ms']!r} ms, state digest {sim['state_digest']}"
    )
    if workload.migrations:
        print(
            f"  migration: completed {reps[0]['migrations_completed']}, "
            f"migration_max_ms {sim['migration_max_ms']!r}, migration_s {sim['migration_s']!r}"
        )
    print(f"  failed_frac {failed / attempted!r} ratio ({failed} of {attempted} records)")

    metrics = {}
    if trace:
        layers = dict(traces[0]["layers"])
        layers["migration_max_ms"] = sim["migration_max_ms"]
        layers["migration_s"] = sim["migration_s"]
        # Traced runs are not probed, so both sides are plain wall time.
        layers["trace.overhead_frac"] = traces[0]["wall_s"] / run_wall - 1.0
        print(
            f"per-layer metrics (traced run, {traces[0]['span_count']} spans, "
            f"written to {os.path.relpath(OUT_DIR, ROOT)}/):"
        )
        for name, unit in LAYER_UNITS.items():
            _print_metric(name, layers[name], unit)
            metrics[name] = {"value": layers[name], "unit": unit}
    else:
        values = {
            "records_per_s": sim["records"] / run_reference,
            "setup_s": statistics.median(p["reference_s"] for p in setups),
            "peak_rss_mb": rss[0],
            "sim_mean_ms": sim["sim_mean_ms"],
            "sim_p99_ms": sim["sim_p99_ms"],
            "sim_max_ms": sim["sim_max_ms"],
        }
        notes = {
            "records_per_s": f"median of {len(reps)} at reference speed; wall clock "
            f"{sim['records'] / run_wall:.0f} (repeats "
            + ", ".join(f"{sim['records'] / w:.0f}" for w in walls)
            + ")",
            "setup_s": f"median of {len(setups)} at reference speed; wall clock "
            f"{statistics.median(setup_walls):.3f} (samples "
            + ", ".join(f"{s:.3f}" for s in setup_walls)
            + ")",
        }
        print("end-to-end metrics:")
        for name, unit in E2E_UNITS.items():
            _print_metric(name, values[name], unit, notes.get(name, ""))
            metrics[name] = {"value": values[name], "unit": unit}

    for problem in problems:
        print(f"  NOT CORRECT: {problem}")
    return not problems and failed == 0, attempted, failed, metrics, sim


def main() -> int:
    sys.path.insert(0, HERE)
    from shapes import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=sorted(WORKLOADS) + ["all"],
        help="one workload, or all of them one after another",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "harness", "experiment.py")):
        sys.stderr.write("perfbench: no program sources under src/repro; nothing to measure\n")
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics, sims = True, 0, 0, {}, {}
    for name in names:
        measured = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        if measured is None:
            return 1
        ok, tried, bad, values, sims[name] = measured
        correct, attempted, failed = correct and ok, attempted + tried, failed + bad
        if len(names) == 1:
            metrics = values
        else:
            metrics.update({f"{name}/{k}": v for k, v in values.items()})
    # The state backend must not change what the dataflow computes.
    if {"hashcount", "hashcount-wal"} <= sims.keys():
        if sims["hashcount"] != sims["hashcount-wal"]:
            print("NOT CORRECT: hashcount and hashcount-wal simulated results differ")
            correct = False
        else:
            print("hashcount and hashcount-wal: identical simulated results and state digest")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
