"""Tests for the PCIe link model."""

import pytest

from repro.device.pcie import (
    GPU_LINK_GEN4_X16,
    PCIeGeneration,
    PCIeLink,
    SSD_LINK_GEN4_X4,
)


def test_gen4_x16_bandwidth_in_expected_range():
    # A100's x16 Gen4 link: ~25-28 GB/s usable.
    assert 24.0 < GPU_LINK_GEN4_X16.bandwidth_gbps < 32.0


def test_bandwidth_scales_with_lanes():
    x4 = PCIeLink(PCIeGeneration.GEN4, lanes=4)
    x16 = PCIeLink(PCIeGeneration.GEN4, lanes=16)
    assert x16.bandwidth == pytest.approx(4 * x4.bandwidth)


def test_gen5_doubles_gen4():
    g4 = PCIeLink(PCIeGeneration.GEN4, lanes=4)
    g5 = PCIeLink(PCIeGeneration.GEN5, lanes=4)
    assert g5.bandwidth == pytest.approx(2 * g4.bandwidth, rel=0.01)


def test_transfer_time_includes_latency():
    link = PCIeLink(latency_s=1e-5)
    assert link.transfer_time(0) == 0.0
    assert link.transfer_time(1) > 1e-5


def test_ssd_link_covers_p5800x():
    # One P5800X writes at ~6.1 GB/s; its x4 Gen4 link must cover that.
    assert SSD_LINK_GEN4_X4.bandwidth_gbps > 6.1


def test_invalid_links_rejected():
    with pytest.raises(ValueError):
        PCIeLink(lanes=0)
    with pytest.raises(ValueError):
        PCIeLink(efficiency=1.5)
    with pytest.raises(ValueError):
        GPU_LINK_GEN4_X16.transfer_time(-1)
