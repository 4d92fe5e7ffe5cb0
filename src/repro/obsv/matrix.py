"""The experiment-matrix runner: sweep, aggregate, gate.

A *matrix spec* (TOML or JSON) declares axes — {strategy x backend x
codec x workload x faults} — and a base experiment configuration; the
runner expands the cartesian product into cells, runs each cell's
experiment across parallel worker processes, and aggregates one report
(``BENCH_matrix.json``) with a row per cell: throughput, latency
headlines, the chaos verdict (for fault cells), and the deterministic
``result_fingerprint``.

``check_matrix`` compares a fresh report against a checked-in baseline so
CI can gate on the whole matrix at once:

* **fingerprint drift** is a correctness regression — the simulation no
  longer reproduces the committed run — and fails the check whenever the
  environments are fingerprint-comparable (same interpreter version and
  batch representation; the simulated results are machine-independent,
  but pickle-based codecs may legitimately differ across interpreters).
* **throughput regression** beyond the cell's tolerance fails only when
  the machine metadata matches (same downgrade-to-warning rule as
  ``bench --check``).

Worker processes fork once per job, ship results back over a pipe as one
pickled payload, and poll child liveness so a crashed worker surfaces as
a structured per-cell failure instead of a hang.
"""

from __future__ import annotations

import itertools
import json
import os
import pickle
import struct
from dataclasses import dataclass, replace
from typing import Optional

from repro.versions import (
    MATRIX_READ_VERSIONS,
    MATRIX_SCHEMA,
    MATRIX_SCHEMA_FAMILY,
)

# Axis name -> ExperimentConfig field it drives.  "faults" is special: it
# names a chaos scenario ("none" disables injection).
AXES = ("strategy", "backend", "codec", "workload", "faults")
_AXIS_FIELD = {
    "strategy": "strategy",
    "backend": "state_backend",
    "codec": "codec",
    "workload": "workload",
}
NO_FAULTS = "none"


class MatrixSpecError(ValueError):
    """The spec file cannot be parsed into a runnable matrix."""


@dataclass(frozen=True)
class MatrixCell:
    """One point of the sweep."""

    strategy: str
    backend: str
    codec: str
    workload: str
    faults: str

    @property
    def cell_id(self) -> str:
        return "/".join(
            (self.strategy, self.backend, self.codec, self.workload, self.faults)
        )


def load_spec(path: str) -> dict:
    """Parse a TOML or JSON matrix spec; validate axes and base config."""
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    else:
        import tomllib

        with open(path, "rb") as handle:
            try:
                data = tomllib.load(handle)
            except tomllib.TOMLDecodeError as exc:
                raise MatrixSpecError(f"{path}: invalid TOML ({exc})") from None
    if not isinstance(data, dict) or "matrix" not in data:
        raise MatrixSpecError(f"{path}: spec needs a [matrix] table of axes")
    axes = data["matrix"]
    for axis in AXES:
        values = axes.get(axis)
        if values is None:
            # Missing axes default to a single neutral value.
            axes[axis] = [_default_axis_value(axis)]
        elif (
            not isinstance(values, list)
            or not values
            or not all(isinstance(v, str) for v in values)
        ):
            raise MatrixSpecError(
                f"{path}: [matrix].{axis} must be a non-empty list of strings"
            )
    unknown = set(axes) - set(AXES)
    if unknown:
        raise MatrixSpecError(
            f"{path}: unknown axes {sorted(unknown)}; known: {list(AXES)}"
        )
    _validate_axis_values(path, axes)
    base = data.setdefault("base", {})
    if not isinstance(base, dict):
        raise MatrixSpecError(f"{path}: [base] must be a table")
    tolerance = data.setdefault("tolerance", {})
    if not isinstance(tolerance, dict):
        raise MatrixSpecError(f"{path}: [tolerance] must be a table")
    tolerance.setdefault("default", 0.25)
    return data


def _default_axis_value(axis: str) -> str:
    return {
        "strategy": "batched",
        "backend": "dict",
        "codec": "modeled",
        "workload": "uniform",
        "faults": NO_FAULTS,
    }[axis]


def _validate_axis_values(path: str, axes: dict) -> None:
    from repro.chaos.experiment import SCENARIOS
    from repro.megaphone.migration import STRATEGIES
    from repro.state import backend_names, codec_names

    checks = (
        ("strategy", STRATEGIES),
        ("backend", backend_names()),
        ("codec", codec_names()),
        ("workload", ("uniform", "skewed")),
        ("faults", (NO_FAULTS,) + tuple(SCENARIOS)),
    )
    for axis, known in checks:
        for value in axes[axis]:
            if value not in known:
                raise MatrixSpecError(
                    f"{path}: [matrix].{axis} value {value!r} is not one of "
                    f"{sorted(known)}"
                )


def expand_cells(spec: dict) -> list[MatrixCell]:
    """The cartesian product of the spec's axes, in spec order."""
    axes = spec["matrix"]
    return [
        MatrixCell(*combo)
        for combo in itertools.product(*(axes[axis] for axis in AXES))
    ]


def cell_config(spec: dict, cell: MatrixCell):
    """Build the :class:`ExperimentConfig` for one cell."""
    from repro.chaos.experiment import scenario_chaos
    from repro.harness.experiment import ExperimentConfig

    base = dict(spec.get("base", {}))
    chaos_seed = base.pop("chaos_seed", 0)
    for key, value in list(base.items()):
        if isinstance(value, list):
            base[key] = tuple(value)
    try:
        cfg = ExperimentConfig(**base)
    except TypeError as exc:
        raise MatrixSpecError(f"[base] does not fit ExperimentConfig: {exc}") from None
    for axis, fld in _AXIS_FIELD.items():
        cfg = replace(cfg, **{fld: getattr(cell, axis)})
    cfg.fingerprint_state = True
    if cell.faults != NO_FAULTS:
        cfg = replace(cfg, chaos=scenario_chaos(cell.faults, cfg, seed=chaos_seed))
    return cfg


# -- running cells --------------------------------------------------------------


def run_cell(spec: dict, cell: MatrixCell) -> dict:
    """Run one cell's experiment; return its aggregated report row."""
    from repro.harness.experiment import result_fingerprint, run_count_experiment

    cfg = cell_config(spec, cell)
    result = run_count_experiment(cfg)
    row = {
        "cell": cell.cell_id,
        "status": "ok",
        "records": result.records_injected,
        "sim_events": result.sim_events,
        "wall_seconds": round(result.wall_seconds, 4),
        "records_per_s": round(
            result.records_injected / result.wall_seconds, 2
        )
        if result.wall_seconds
        else 0.0,
        "steady_max_latency_s": round(result.steady_max_latency(), 9),
        "migrations": len(result.migrations),
        "result_fingerprint": result_fingerprint(result),
    }
    if result.migrations:
        row["migration_max_latency_s"] = round(
            result.migration_max_latency(0), 9
        )
        row["migration_duration_s"] = round(result.migration_duration(0), 9)
    if cell.faults != NO_FAULTS:
        row["chaos_verdict"] = result.chaos_verdict or "stalled"
        if row["chaos_verdict"] == "stalled":
            row["status"] = "stalled"
    return row


def _run_cells_inline(spec: dict, cells: list[MatrixCell]) -> list[dict]:
    return [run_cell(spec, cell) for cell in cells]


def _child_main(spec: dict, jobs_cells: list, write_fd: int) -> None:
    """Worker body: run assigned cells, pickle one reply, hard-exit."""
    rows = []
    for index, cell in jobs_cells:
        try:
            rows.append((index, run_cell(spec, cell)))
        except BaseException as exc:  # report, keep running remaining cells
            rows.append(
                (
                    index,
                    {
                        "cell": cell.cell_id,
                        "status": "error",
                        "error": f"{type(exc).__name__}: {exc}",
                    },
                )
            )
    payload = pickle.dumps(rows, protocol=pickle.HIGHEST_PROTOCOL)
    with os.fdopen(write_fd, "wb") as pipe:
        pipe.write(struct.pack("<Q", len(payload)))
        pipe.write(payload)


def _run_cells_forked(
    spec: dict, cells: list[MatrixCell], jobs: int
) -> list[dict]:
    """Round-robin the cells over ``jobs`` forked workers.

    Each worker writes one length-prefixed pickle when done; the parent
    reads every pipe to EOF *before* reaping, so a payload larger than the
    pipe buffer cannot deadlock, and a child that died early yields a
    short read that marks its cells failed instead of hanging the sweep.
    """
    jobs = max(1, min(jobs, len(cells)))
    assignments: list[list] = [[] for _ in range(jobs)]
    for index, cell in enumerate(cells):
        assignments[index % jobs].append((index, cell))
    children: list[tuple[int, int, list]] = []  # (pid, read_fd, cells)
    for assigned in assignments:
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child
            os.close(read_fd)
            status = 0
            try:
                _child_main(spec, assigned, write_fd)
            except BaseException:
                status = 1
            finally:
                os._exit(status)
        os.close(write_fd)
        children.append((pid, read_fd, assigned))
    rows: dict[int, dict] = {}
    for pid, read_fd, assigned in children:
        chunks = []
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
        os.waitpid(pid, 0)
        chunks.append(data)
        payload = b"".join(chunks)
        try:
            (length,) = struct.unpack("<Q", payload[:8])
            reply = pickle.loads(payload[8 : 8 + length])
            if len(payload) < 8 + length:
                raise EOFError("short read")
        except Exception:
            reply = [
                (
                    index,
                    {
                        "cell": cell.cell_id,
                        "status": "crashed",
                        "error": f"matrix worker (pid {pid}) died mid-sweep",
                    },
                )
                for index, cell in assigned
            ]
        for index, row in reply:
            rows[index] = row
    return [rows[i] for i in sorted(rows)]


def run_matrix(
    spec: dict, jobs: Optional[int] = None, spec_path: str = ""
) -> dict:
    """Run every cell; return the aggregated BENCH_matrix report.

    ``jobs=0`` runs inline (no forking — the deterministic reference
    path); ``None`` picks ``min(cells, cpu_count)``.
    """
    from repro.perf.hotpath import machine_metadata

    cells = expand_cells(spec)
    if jobs is None:
        jobs = min(len(cells), os.cpu_count() or 1)
    if jobs <= 0 or len(cells) == 1:
        rows = _run_cells_inline(spec, cells)
        mode = "inline"
    else:
        rows = _run_cells_forked(spec, cells, jobs)
        mode = f"forked/{min(jobs, len(cells))}"
    return {
        "schema": MATRIX_SCHEMA,
        "spec_path": spec_path,
        "mode": mode,
        "machine": machine_metadata(),
        "axes": {axis: list(spec["matrix"][axis]) for axis in AXES},
        "base": {
            k: list(v) if isinstance(v, tuple) else v
            for k, v in spec.get("base", {}).items()
        },
        "tolerance": dict(spec.get("tolerance", {})),
        "cells": rows,
    }


def write_matrix_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as out:
        json.dump(report, out, indent=2, sort_keys=False)
        out.write("\n")


# -- the regression gate --------------------------------------------------------


def fingerprints_comparable(current: Optional[dict], committed: Optional[dict]) -> bool:
    """Whether two environments must agree on simulation fingerprints.

    Simulated results are machine-independent, but codecs that consult
    the interpreter (pickle sizes) and the batch representation (numpy vs
    stdlib arrays — asserted identical, pinned here anyway) are the two
    environmental inputs; fingerprints gate only when both match.
    """
    if not current or not committed:
        return False
    return all(
        current.get(k) == committed.get(k)
        for k in ("python", "batch_representation")
    )


def check_matrix(
    report: dict,
    baseline_path: str,
    tolerance: Optional[float] = None,
) -> tuple[bool, list[dict]]:
    """Compare a fresh matrix report against a committed baseline.

    Returns ``(ok, rows)`` with one row per cell in the fresh report.
    Statuses: ``ok``, ``new`` (not in the baseline), ``regression``
    (throughput beyond tolerance, comparable machines),
    ``cross-machine-warn`` (same, machines differ), ``fingerprint-drift``
    (simulation changed; fails when fingerprints are comparable),
    ``error``/``crashed``/``stalled`` (the cell itself failed — always
    fails the check).
    """
    from repro.perf.hotpath import machines_comparable

    with open(baseline_path, encoding="utf-8") as handle:
        baseline = json.load(handle)
    from repro.versions import check_schema

    check_schema(
        baseline.get("schema", ""), MATRIX_SCHEMA_FAMILY, MATRIX_READ_VERSIONS
    )
    base_cells = {row["cell"]: row for row in baseline.get("cells", [])}
    tolerances = report.get("tolerance", {})
    default_tol = (
        tolerance if tolerance is not None else tolerances.get("default", 0.25)
    )
    perf_comparable = machines_comparable(
        report.get("machine"), baseline.get("machine")
    )
    fp_comparable = fingerprints_comparable(
        report.get("machine"), baseline.get("machine")
    )
    ok = True
    rows: list[dict] = []
    for row in report.get("cells", []):
        cell = row["cell"]
        committed = base_cells.get(cell)
        entry = {
            "cell": cell,
            "records_per_s": row.get("records_per_s", 0.0),
            "baseline_records_per_s": (committed or {}).get("records_per_s"),
            "delta": None,
            "status": "ok",
        }
        if row.get("status") != "ok" and row.get("status") != "new":
            entry["status"] = row.get("status", "error")
            ok = False
            rows.append(entry)
            continue
        if committed is None:
            entry["status"] = "new"
            rows.append(entry)
            continue
        if (
            committed.get("result_fingerprint")
            and row.get("result_fingerprint")
            and committed["result_fingerprint"] != row["result_fingerprint"]
        ):
            entry["status"] = (
                "fingerprint-drift" if fp_comparable else "fingerprint-warn"
            )
            if fp_comparable:
                ok = False
            rows.append(entry)
            continue
        base_rps = committed.get("records_per_s") or 0.0
        current_rps = row.get("records_per_s", 0.0)
        delta = (current_rps - base_rps) / base_rps if base_rps else 0.0
        entry["delta"] = round(delta, 4)
        allowed = tolerances.get(cell, default_tol)
        if delta < -allowed:
            if perf_comparable:
                entry["status"] = "regression"
                ok = False
            else:
                entry["status"] = "cross-machine-warn"
        rows.append(entry)
    return ok, rows
