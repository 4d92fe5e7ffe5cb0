"""``check_report`` gates simulated event counts exactly, on any machine.

Throughput only gates within one environment, but the simulation is
deterministic: a different ``sim_events`` at the same scale means the
program's behaviour changed, wherever the check runs.
"""

import json

import pytest

from repro.perf.hotpath import check_report

MACHINE = {
    "cpu_count": 4,
    "machine": "x86_64",
    "implementation": "CPython",
    "numpy": "2.0",
    "batch_representation": "columnar-numpy",
}
OTHER_MACHINE = {**MACHINE, "cpu_count": 1}


def _report(machine, hash_rps, hash_events, q3_events=102_362, backend="dict"):
    return {
        "scale": "full",
        "state_backend": backend,
        "machine": machine,
        "workloads": {
            "hash_count": {"records_per_s": hash_rps, "sim_events": hash_events},
            "nexmark_q3": {"records_per_s": 60_000.0, "sim_events": q3_events},
        },
    }


@pytest.fixture
def baseline(tmp_path):
    path = tmp_path / "BENCH_hotpath.json"
    path.write_text(json.dumps(_report(MACHINE, 100_000.0, 158_606)))
    return str(path)


def _status(rows):
    return {row["workload"]: row["status"] for row in rows}


def test_matching_events_pass(baseline):
    ok, rows = check_report(_report(MACHINE, 101_000.0, 158_606), baseline)
    assert ok
    assert _status(rows) == {"hash_count": "ok", "nexmark_q3": "ok"}
    by_name = {row["workload"]: row for row in rows}
    assert by_name["hash_count"]["baseline_sim_events"] == 158_606
    assert by_name["hash_count"]["sim_events"] == 158_606


def test_event_mismatch_fails_on_the_same_machine(baseline):
    ok, rows = check_report(_report(MACHINE, 150_000.0, 158_607), baseline)
    assert not ok
    assert _status(rows) == {"hash_count": "events-mismatch", "nexmark_q3": "ok"}


def test_event_mismatch_fails_across_machines(baseline):
    ok, rows = check_report(
        _report(OTHER_MACHINE, 100_000.0, 158_606, q3_events=102_000), baseline
    )
    assert not ok
    assert _status(rows) == {"hash_count": "ok", "nexmark_q3": "events-mismatch"}


def test_throughput_drop_only_warns_across_machines(baseline):
    ok, rows = check_report(_report(OTHER_MACHINE, 50_000.0, 158_606), baseline)
    assert ok
    assert _status(rows)["hash_count"] == "cross-machine-warn"
    ok, rows = check_report(_report(MACHINE, 50_000.0, 158_606), baseline)
    assert not ok
    assert _status(rows)["hash_count"] == "regression"


def test_events_not_judged_across_state_backends(baseline):
    ok, rows = check_report(
        _report(MACHINE, 100_000.0, 160_000, backend="tiered"), baseline
    )
    assert ok
    assert _status(rows)["hash_count"] == "ok"


def test_scale_mismatch_raises(baseline):
    report = _report(MACHINE, 100_000.0, 158_606)
    report["scale"] = "smoke"
    with pytest.raises(ValueError, match="does not match"):
        check_report(report, baseline)
