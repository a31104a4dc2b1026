"""Self-tests of the benchmark.

Run from the repository root with ``python3 -m pytest perfbench -q``
(about a minute: the last tests run every workload at tiny scale).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from repro.core.client import ChtCluster  # noqa: E402
from repro.core.config import ChtConfig  # noqa: E402
from repro.net.client import NetKV  # noqa: E402
from repro.objects.kvstore import KVStoreSpec, get, put  # noqa: E402

import net_kv  # noqa: E402
from common import Tally, check_counters, check_history, isolated  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402

SMALL = {"sim-reads": "1", "sim-writes": "1", "net-kv": "8"}


def _small_history():
    cluster = ChtCluster(KVStoreSpec(), ChtConfig(n=3), seed=1)
    cluster.start()
    leader = cluster.run_until_leader()
    # Each op is invoked strictly after the previous one responded, so
    # the history has exactly one linearization.
    cluster.execute(leader.pid, put("k", 1))
    cluster.run(5.0)
    cluster.execute(leader.pid, put("k", 2))
    cluster.run(5.0)
    assert cluster.execute((leader.pid + 1) % 3, get("k")) == 2
    return cluster.stats.records


def test_gate_accepts_real_history():
    assert check_history(KVStoreSpec(), _small_history(), 100) is None


def test_gate_rejects_planted_stale_read():
    records = _small_history()
    read = next(r for r in records if r.kind == "read")
    read.response = 1  # the value the second put overwrote
    reason = isolated(check_history, KVStoreSpec(), records, 100)
    assert reason is not None and "not linearizable" in reason


def test_gate_rejects_counter_mismatch():
    assert check_counters({"c0": 3, "c1": 1}, {"c0": 3, "c1": 1}) is None
    assert check_counters({"c0": 3}, {"c0": 4}) is not None
    assert check_counters({"c0": 3}, {}) is not None


def test_net_gate_catches_planted_duplicate_increment(monkeypatch):
    """A client that applies every 10th increment twice, acking once,
    must fail the net-kv round's exactly-once check."""
    original = NetKV.increment
    calls = [0]

    def doubled(self, key, amount=1, timeout=30.0):
        calls[0] += 1
        if calls[0] % 10 == 0:
            original(self, key, amount, timeout)
        return original(self, key, amount, timeout)

    monkeypatch.setattr(NetKV, "increment", doubled)
    tally = Tally()
    net_kv.run_round(7, 1.5, tally)
    assert any("counter != acked" in v for v in tally.violations)


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3",
         "--seconds", SMALL[workload], "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(SMALL))
def test_tiny_run_emits_every_metric(workload, trace):
    out = _run(workload, trace)
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == list(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name][0]
        assert math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0, name


def test_benchmark_json_matches_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(SMALL)


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    out = _run("sim-reads", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
