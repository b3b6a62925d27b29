"""Smoke tests for the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from workloads import TINY, WORKLOADS, CheckFailed  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def simulated(name: str):
    trial = WORKLOADS[name](1, TINY[name])
    trial.simulate()
    trial.check()
    return trial


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_passes_its_checks_at_tiny_size(name):
    trial = simulated(name)
    attempted, failed = trial.operations()
    assert attempted > 0
    assert failed == 0
    assert trial.sim_metrics()["ready_p50_s"] > 0


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_emitted_metrics_match_benchmark_json(trace, section, capsys):
    code = run.main(["--workload", "fleet-fluid", "--seconds", "0.01",
                     "--trace", str(trace), "--tiny"])
    assert code == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert result["metrics"] == {
        metric["name"]: {"value": result["metrics"][metric["name"]]["value"],
                         "unit": metric["unit"]}
        for metric in SPEC[section]}
    if section == "end_to_end":
        assert all(entry["value"] > 0
                   for entry in result["metrics"].values())


def test_workload_names_match_benchmark_json():
    listed = [workload["name"] for workload in SPEC["workloads"]]
    assert listed == list(run.WORKLOAD_NAMES) == list(WORKLOADS)


def test_flipped_disk_block_is_caught():
    trial = simulated("deploy-p2p")
    trial.testbed.nodes[2].disk.contents.set_range(4096, 8, ("flipped",))
    with pytest.raises(CheckFailed, match="does not hold the image"):
        trial.check()


@pytest.mark.parametrize("tag, offset", [("fio-layout", 3),
                                         ("fio-write", 4)])
def test_wrong_read_back_is_caught(tag, offset):
    """A block holding fio's layout data, or another block's write."""
    trial = simulated("guest-io-moderated")
    reads = trial.fio.instance.reads
    guest, _, first = reads[0][2][0][2]
    lba, count, _ = reads[3]
    reads[3] = (lba, count, [(lba, lba + count, (guest, tag,
                                                  first + offset))])
    with pytest.raises(CheckFailed, match="not the data fio wrote"):
        trial.check()


def test_packet_mode_fleet_is_caught():
    trial = simulated("fleet-fluid")
    trial.instances[0].platform.fluid.demote("test")
    with pytest.raises(CheckFailed, match="not active"):
        trial.check()


def test_unaccounted_request_is_caught():
    trial = simulated("elastic-ctl")
    trial.report["served"] -= 1
    with pytest.raises(CheckFailed, match="requests admitted"):
        trial.check()


def test_fails_without_the_simulator(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deploy-p2p",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
