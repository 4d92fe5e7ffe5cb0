"""Negative-path tests for Megaphone's public API."""

import pytest

from repro.megaphone.api import state_machine
from repro.megaphone.control import BinnedConfiguration
from repro.megaphone.operators import build_migrateable
from tests.helpers import make_dataflow


def make_inputs():
    df = make_dataflow(num_workers=2, workers_per_process=2)
    control, _ = df.new_input("control")
    data, _ = df.new_input("data")
    return df, control, data


def test_state_machine_requires_fold():
    _, control, data = make_inputs()
    with pytest.raises(ValueError, match="fold"):
        state_machine(control, data, num_bins=4)


def test_build_requires_matching_key_fns():
    _, control, data = make_inputs()
    with pytest.raises(ValueError, match="one key function per data stream"):
        build_migrateable(control, [data], [], lambda app: None, num_bins=4,
                          name="bad")


def test_build_requires_a_data_stream():
    _, control, _ = make_inputs()
    with pytest.raises(ValueError, match="at least one data stream"):
        build_migrateable(control, [], [], lambda app: None, num_bins=4,
                          name="bad")


def test_build_rejects_wrong_initial_size():
    _, control, data = make_inputs()
    with pytest.raises(ValueError, match="wrong number of bins"):
        build_migrateable(
            control, [data], [lambda r: 0], lambda app: None, num_bins=8,
            name="bad", initial=BinnedConfiguration.round_robin(4, 2),
        )


def test_non_power_of_two_bins_rejected_at_routing():
    _, control, data = make_inputs()
    build_migrateable(
        control, [data], [lambda r: 0], lambda app: None, num_bins=4,
        name="ok",
    )
    # bin_of itself guards the power-of-two requirement.
    from repro.megaphone.control import bin_of

    with pytest.raises(ValueError):
        bin_of(1, 6)


def test_duplicate_build_on_same_dataflow():
    df, control, data = make_inputs()
    state_machine(control, data, fold=lambda k, v, s: [], num_bins=4, name="a")
    state_machine(control, data, fold=lambda k, v, s: [], num_bins=4, name="b")
    df.build()
    with pytest.raises(RuntimeError, match="already built"):
        df.build()
