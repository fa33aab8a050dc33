"""Tests for the SSD endurance model and RAID0 arrays (Sec. II-C/III-D)."""

import pytest

from repro.device.ssd import (
    INTEL_OPTANE_P5800X_1600GB,
    RAID0Array,
    SAMSUNG_980_PRO_1TB,
    SSD,
    SSDEnduranceModel,
    SECONDS_PER_YEAR,
)


def test_effective_endurance_includes_sequential_and_retention_bonus():
    model = SSDEnduranceModel(jesd_waf=2.5, workload_waf=1.0, retention_relaxation=86.0)
    eff = model.effective_endurance_bytes(SAMSUNG_980_PRO_1TB)
    # 600 TBW x 2.5 x 86
    assert eff == pytest.approx(600e12 * 2.5 * 86.0)


def test_lifespan_formula():
    model = SSDEnduranceModel()
    # t_life = S_endurance * t_step / S_activations
    years = model.lifespan_years(
        SAMSUNG_980_PRO_1TB,
        activation_bytes_per_step=100e9,
        step_time_s=10.0,
        num_ssds=4,
    )
    endurance = model.effective_endurance_bytes(SAMSUNG_980_PRO_1TB) * 4
    assert years == pytest.approx(endurance * 10.0 / 100e9 / SECONDS_PER_YEAR)


def test_lifespan_zero_writes_is_infinite():
    model = SSDEnduranceModel()
    assert model.lifespan_years(SAMSUNG_980_PRO_1TB, 0, 1.0) == float("inf")


def test_lifespan_monotone_in_step_time():
    model = SSDEnduranceModel()
    slow = model.lifespan_years(SAMSUNG_980_PRO_1TB, 1e9, 10.0)
    fast = model.lifespan_years(SAMSUNG_980_PRO_1TB, 1e9, 1.0)
    assert slow > fast


def test_paper_fig5_assumption_exceeds_two_years():
    """4x 980 PRO per GPU, ~12 GB/s writes -> lifespan > 2 years."""
    model = SSDEnduranceModel()
    step = 30.0
    act_bytes = 12e9 * step / 2  # write bw x half step
    years = model.lifespan_years(SAMSUNG_980_PRO_1TB, act_bytes, step, num_ssds=4)
    assert years > 2.0


def test_write_read_time_scale_with_size():
    ssd = SSD(INTEL_OPTANE_P5800X_1600GB)
    assert ssd.write_time(2 * 10**9) > ssd.write_time(10**9)
    assert ssd.read_time(0) == 0.0
    assert ssd.write_time(0) == 0.0


def test_invalid_waf_rejected():
    with pytest.raises(ValueError):
        SSDEnduranceModel(jesd_waf=0)
    with pytest.raises(ValueError):
        SSDEnduranceModel(retention_relaxation=0.5)


def test_raid0_bandwidth_scales_with_members():
    one = RAID0Array(INTEL_OPTANE_P5800X_1600GB, num_ssds=1)
    four = RAID0Array(INTEL_OPTANE_P5800X_1600GB, num_ssds=4)
    assert four.write_bw == pytest.approx(4 * one.write_bw)
    assert four.write_time(10**9) < one.write_time(10**9)


def test_raid0_requires_member():
    with pytest.raises(ValueError):
        RAID0Array(num_ssds=0)


def test_evaluation_machine_arrays():
    """Table II: two arrays, 3x and 4x P5800X."""
    md0 = RAID0Array(INTEL_OPTANE_P5800X_1600GB, num_ssds=3, name="md0")
    md1 = RAID0Array(INTEL_OPTANE_P5800X_1600GB, num_ssds=4, name="md1")
    assert md1.write_bw > md0.write_bw
    # Combined write bandwidth comfortably covers the paper's max
    # requirement of ~18 GB/s per GPU (Table III).
    assert md1.write_bw / 1e9 > 18.0
