"""Wall-clock performance measurement of the simulator's hot path.

``repro.perf.hotpath`` drives the two paper workloads the optimization work
is judged against — the hash-count microbenchmark and NEXMark Q3 — and
reports wall-clock records/s, simulator events/s, and a per-layer CPU
breakdown.  ``python -m repro.cli bench`` is the command-line entry point.
"""

from repro.perf.hotpath import (
    SCALES,
    BenchScale,
    layer_breakdown,
    run_bench,
    run_hashcount_bench,
    run_q3_bench,
    write_report,
)

__all__ = [
    "SCALES",
    "BenchScale",
    "layer_breakdown",
    "run_bench",
    "run_hashcount_bench",
    "run_q3_bench",
    "write_report",
]
