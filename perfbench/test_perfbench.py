"""Tests of the benchmark itself, at the tiny "smoke" scale.

Run from the repository root:  python3 -m pytest perfbench -q
"""
from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(workload: str, seed: int, trace: int = 0, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=str(cwd), capture_output=True, text=True, timeout=170)
    return proc


def parsed(proc):
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    split = out.rindex("}\n{") + 1
    return json.loads(out[:split]), json.loads(out[split:])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    details, result = parsed(bench(workload, seed=5, trace=trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, details["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    assert details["environment"]["child_env"]["OPENBLAS_NUM_THREADS"] == "1"
    if trace:
        assert details["tracing"]["spans_per_rep"] > 0
        assert (ROOT / details["spans_path"]).stat().st_size > 0


def test_same_seed_same_reports_and_a_new_seed_new_inputs():
    first, result = parsed(bench("small_data_roster", seed=3))
    again, _ = parsed(bench("small_data_roster", seed=3))
    other, other_result = parsed(bench("small_data_roster", seed=4))
    assert result["correct"] and other_result["correct"]
    assert len(first["outputs_sha256"]) == 1
    assert first["inputs_sha256"] == again["inputs_sha256"]
    assert first["outputs_sha256"] == again["outputs_sha256"]
    assert other["inputs_sha256"] != first["inputs_sha256"]
    assert other["outputs_sha256"] != first["outputs_sha256"]


def test_host_speed_scale_is_reference_over_measured_time():
    slow = {part: 2.0 * t for part, t in hostspeed.REFERENCE_S.items()}
    assert hostspeed.HostSpeed.scale([slow], hostspeed.WHOLE) == pytest.approx(0.5)
    # Averaged over the probes on either side of a phase.
    assert hostspeed.HostSpeed.scale([hostspeed.REFERENCE_S, slow],
                                     hostspeed.ONE_ROW) == pytest.approx(1 / 1.5)
    probe = hostspeed.HostSpeed()()
    assert set(probe) == set(hostspeed.REFERENCE_S) and all(t > 0 for t in probe.values())


def test_the_program_sees_the_seed_only_through_the_generated_files(tmp_path):
    config = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    size = config["workloads"]["inference"]["smoke"]
    specs, files = [], []
    for seed in (3, 4):
        args = argparse.Namespace(workload="inference", seed=seed, seconds=1.0, trace=0)
        generated = inputs.generate(seed, size, tmp_path / "inputs")
        specs.append(run.session_spec(config, size, generated, ROOT, tmp_path, args))
        files.append(Path(generated["train_csv"]).read_bytes())
    assert specs[0] == specs[1]
    assert files[0] != files[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], seed=1, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
