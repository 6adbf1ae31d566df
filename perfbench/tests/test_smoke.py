"""End to end: the one command on a two-case campaign (~15 s on 2 CPUs)."""

import json
import os
import shutil
import signal
import subprocess
import sys

import pytest

import run
from pb import workloads

CHECKOUT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SPEC = os.path.join(CHECKOUT, "BENCHMARK.json")


@pytest.fixture
def two_cases(monkeypatch):
    monkeypatch.chdir(CHECKOUT)
    monkeypatch.setattr(workloads, "campaign_cases", lambda: ["f3", "f10"])
    handler = signal.getsignal(signal.SIGTERM)
    yield
    signal.signal(signal.SIGTERM, handler)


def _main(capsys, trace):
    code = run.main(["--workload", "campaign", "--seed", "1", "--seconds", "1",
                     "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out.strip().splitlines()[-1])


def _names(key):
    with open(SPEC) as handle:
        return {m["name"] for m in json.load(handle)[key]}


def test_two_case_campaign_end_to_end(two_cases, capsys):
    result = _main(capsys, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    # two set-up probes and one measured campaign, 20 cells each
    assert result["attempted"] == 60
    assert set(result["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not os.path.exists(os.path.join(CHECKOUT, ".perfbench_work"))


def test_two_case_campaign_traced(two_cases, capsys):
    metrics = _main(capsys, 1)["metrics"]
    assert set(metrics) == _names("per_layer")
    shares = sum(v["value"] for k, v in metrics.items()
                 if k.startswith("profile.") and not k.endswith("_s"))
    assert abs(shares - 1.0) < 1e-6
    assert metrics["sim.runs"]["value"] > 0
    assert metrics["cache.misses"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(os.path.join(CHECKOUT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
