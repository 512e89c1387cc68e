"""The benchmark's own tests, on tiny sizes of its three workloads.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import loads  # noqa: E402
import run  # noqa: E402
from repro.ftl import NoFTL  # noqa: E402

#: Tiny versions of the workloads: same shape, seconds of host time.
TINY = {
    "txn_tpcc": dataclasses.replace(
        loads.WORKLOADS["txn_tpcc"], logical_pages=256, txns=60
    ),
    "device_mixed": dataclasses.replace(
        loads.WORKLOADS["device_mixed"], logical_pages=1024, requests=1500
    ),
    "device_readmostly": dataclasses.replace(
        loads.WORKLOADS["device_readmostly"], logical_pages=512, requests=1500
    ),
}


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _measured(name: str, seed: int = 7, trace: bool = False, seconds: float = 0.0):
    bench = run.Run(TINY[name], seed, trace)
    bench.measure(seconds)
    return bench, bench.result()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_prints_with_its_unit(name, trace):
    bench, result = _measured(name, trace=trace)
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], bench.errors
    assert result["attempted"] >= 1 and result["failed"] == 0
    text = run.report(bench, result)
    for metric, unit in expected.items():
        assert result["metrics"][metric]["unit"] == unit
        assert isinstance(result["metrics"][metric]["value"], (int, float))
        assert any(
            line.split()[:1] == [metric] and line.split()[-1] == unit
            for line in text.splitlines()
        ), metric
    json.dumps(result)


def test_metric_names_match_benchmark_json():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(loads.WORKLOADS)


@pytest.mark.parametrize("name", ["device_mixed", "device_readmostly"])
def test_read_back_catches_one_corrupted_byte(name):
    instance = TINY[name].instance(7)
    instance.setup()
    instance.run()
    assert instance.check() == []
    device = instance.device
    lpn = 5
    image = bytearray(device.read(lpn, instance.end_us).data)
    image[100] ^= 0x01
    # The class method bypasses the shadow's wrapper on the instance.
    type(device).write(device, lpn, bytes(image), instance.end_us)
    errors = instance.check()
    assert len(errors) == 1 and errors[0].startswith(f"lpn {lpn}:")


def test_txn_checks_hold_and_rollbacks_are_not_failures():
    instance = TINY["txn_tpcc"].instance(7)
    instance.setup()
    instance.run()
    assert instance.check() == []
    executor = instance.executor
    assert executor.txns_started == executor.txns_committed + executor.txns_aborted
    assert instance.sim["failed"] == executor.txns_retried == 0


def test_slowdown_in_a_device_call_lowers_host_throughput(monkeypatch):
    bound = {m["name"]: m["bound"] for m in _benchmark_json()["end_to_end"]}
    fast, fast_result = _measured("device_readmostly", seconds=1.0)
    original = NoFTL.read

    def slow_read(self, lpn, now=0.0):
        until = time.perf_counter() + 100e-6
        while time.perf_counter() < until:
            pass
        return original(self, lpn, now)

    monkeypatch.setattr(NoFTL, "read", slow_read)
    slow, slow_result = _measured("device_readmostly", seconds=1.0)
    fast_ops = fast_result["metrics"]["host_ops_per_s"]["value"]
    slow_ops = slow_result["metrics"]["host_ops_per_s"]["value"]
    assert slow_ops < fast_ops * (1.0 - bound["host_ops_per_s"])
    ref_ratio = statistics.median(slow.refs) / statistics.median(fast.refs)
    assert 0.7 < ref_ratio < 1.4
    for metric in ("sim_ops_per_s", "sim_mean_us", "sim_p99_us", "flash_bytes_per_op"):
        assert slow_result["metrics"][metric] == fast_result["metrics"][metric]


@pytest.mark.parametrize("name", sorted(TINY))
def test_same_seed_repeats_and_another_seed_differs(name):
    sims = []
    for seed in (7, 7, 11):
        instance = TINY[name].instance(seed)
        instance.setup()
        instance.run()
        sims.append(instance.sim)
    assert sims[0] == sims[1]
    assert sims[0]["mean_us"] != sims[2]["mean_us"]


def test_traced_layers_add_up_and_bypassed_layers_are_zero():
    for name in ("device_mixed", "device_readmostly"):
        bench, result = _measured(name, trace=True)
        metrics = result["metrics"]
        assert result["correct"], bench.errors
        shares = [
            metrics[f"{layer}.share"]["value"] for layer in (*run.LAYERS, "remainder")
        ]
        assert sum(shares) == pytest.approx(1.0, abs=1e-6)
        assert metrics["core.share"]["value"] == 0.0
        assert metrics["storage.share"]["value"] == 0.0
    bench, result = _measured("txn_tpcc", trace=True)
    assert result["metrics"]["core.share"]["value"] > 0.0
    assert result["metrics"]["harness.share"]["value"] == 0.0


def test_exits_non_zero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, tmp_path / BENCH_DIR.name,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    spec = _benchmark_json()
    completed = subprocess.run(
        [*spec["command"], "--workload", "txn_tpcc", "--seed", "7",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
