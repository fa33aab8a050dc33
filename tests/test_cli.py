"""Tests for the artifact-regeneration CLI."""

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from repro import cli
from repro.cli import COMMANDS, build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in COMMANDS:
        assert name in out


def test_no_command_lists(capsys):
    assert main([]) == 0
    assert "fig6" in capsys.readouterr().out


def test_fig1_runs(capsys):
    assert main(["fig1"]) == 0
    out = capsys.readouterr().out
    assert "gpu_flops" in out and "growth" in out


def test_fig5_runs(capsys):
    assert main(["fig5"]) == 0
    out = capsys.readouterr().out
    assert "Megatron 175B" in out and "ZeRO3" in out


def test_fig7_respects_hidden_flag(capsys):
    assert main(["fig7", "--hidden", "8192"]) == 0
    out = capsys.readouterr().out
    assert "offload" in out and "recompute" in out


def test_fig8a_runs(capsys):
    assert main(["fig8a"]) == 0
    assert "update" in capsys.readouterr().out


def test_fig8b_runs(capsys):
    assert main(["fig8b"]) == 0
    assert "reference" in capsys.readouterr().out


def test_table3_runs(capsys):
    assert main(["table3"]) == 0
    out = capsys.readouterr().out
    assert "offloaded" in out and "estimate" in out


def test_memory_zero_stages(capsys):
    assert main(["memory", "--zero", "3", "--layers", "4", "--hidden", "1024"]) == 0
    out = capsys.readouterr().out
    assert "optimizer" in out and "activations" in out


def test_fig2_renders_timeline(capsys):
    assert main(["fig2", "--hidden", "8192"]) == 0
    out = capsys.readouterr().out
    assert "gpu" in out and "store" in out


def test_parser_rejects_unknown_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["not-a-figure"])


def test_tiers_sweeps_cpu_pool(capsys):
    assert main(["tiers", "--hidden", "8192"]) == 0
    out = capsys.readouterr().out
    assert "CPU pool" in out and "SSD BW req" in out


def test_tiers_single_pool_row(capsys):
    assert main(["tiers", "--hidden", "8192", "--cpu-pool-bytes", str(4 * 2**30)]) == 0
    assert out_has_one_data_row(capsys.readouterr().out)


def out_has_one_data_row(out: str) -> bool:
    rows = [l for l in out.splitlines() if l.strip().endswith("GB/s")]
    return len(rows) == 1


def test_parser_accepts_offload_target_axes():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["quickstart", "--io-direct"])
    args = parser.parse_args(
        ["quickstart", "--target", "tiered",
         "--cpu-pool-bytes", "262144", "--chunk-bytes", "65536"]
    )
    assert args.target == "tiered"
    assert args.cpu_pool_bytes == 262144
    assert args.chunk_bytes == 65536
    with pytest.raises(SystemExit):
        parser.parse_args(["quickstart", "--target", "tape"])


def test_quickstart_three_tier_run(capsys):
    """Acceptance: a GPU/CPU/SSD run is drivable straight from the CLI."""
    assert main(
        ["quickstart", "--target", "tiered",
         "--cpu-pool-bytes", "262144", "--chunk-bytes", "65536"]
    ) == 0
    out = capsys.readouterr().out
    assert "tier traffic" in out
    assert "losses identical" in out


def test_autotune_step_drop_ab(capsys):
    """The controller A/B is drivable from the CLI and visibly beats the
    static budget after the drift."""
    assert main(["autotune", "--hidden", "8192", "--steps", "10", "--drift-step", "5"]) == 0
    out = capsys.readouterr().out
    assert "one-shot budget" in out
    assert "retuned" in out
    assert "post-drift backward stall" in out


def test_autotune_scenario_axes(capsys):
    parser = build_parser()
    args = parser.parse_args(["autotune", "--scenario", "ramp", "--factor", "0.4"])
    assert args.scenario == "ramp" and args.factor == 0.4
    with pytest.raises(SystemExit):
        parser.parse_args(["autotune", "--scenario", "spike"])
    assert main(["autotune", "--hidden", "8192", "--scenario", "microbatch",
                 "--steps", "8", "--drift-step", "4"]) == 0
    assert "scenario: microbatch" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["sched"], "priority dequeue removes"),
        (["faults"], "lane death at step"),
        (["faults", "--functional"], "losses bit-exact"),
        (["faults", "--heal"], "resurrected by canary probes"),
        (["tenants"], "quota round"),
        (["fig6"], "gpt"),
        (["kv", "--requests", "8"], "reproduced p50/p99 exactly"),
    ],
    ids=["sched", "faults", "faults-functional", "faults-heal", "tenants", "fig6", "kv"],
)
def test_demo_commands_run_their_own_assertions(argv, expected, capsys, tmp_path, monkeypatch):
    """The A/B and chaos demos assert their own claims (bit-exact
    losses, reconciled books, the fairness bars); running them here puts
    those assertions in tier-1 instead of in one CI smoke step each.
    A demo that makes a store directory removes it when it is done."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert main(argv) == 0
    assert expected in capsys.readouterr().out
    assert list(tmp_path.glob("ssdtrain-*")) == []


def test_example_commands_run_outside_the_checkout(tmp_path):
    """``quickstart`` loads its example by path, not as the ``examples``
    package of the working directory; each example removes the
    temporary directory it made."""
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(tmp))
    examples = (
        (["-m", "repro", "quickstart"], "losses identical"),
        ([str(SRC.parent / "examples" / "trace_and_export.py")], "steps.csv"),
    )
    for command, expected in examples:
        proc = subprocess.run(
            [sys.executable, *command],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert expected in proc.stdout
        assert list(tmp.glob("ssdtrain-*")) == [], command


def test_missing_example_names_the_file(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "__file__", str(tmp_path / "src" / "repro" / "cli.py"))
    missing = (tmp_path / "examples" / "quickstart.py").resolve()
    with pytest.raises(SystemExit, match=re.escape(str(missing))):
        cli._example_main("quickstart")
