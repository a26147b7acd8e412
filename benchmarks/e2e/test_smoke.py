"""The whole benchmark at toy sizes, its correctness gates, and its files."""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import time

import numpy as np

from benchmarks.e2e import cli, inputs, serving

ROOT = pathlib.Path(__file__).resolve().parents[2]
RUN = ROOT / "benchmarks" / "e2e" / "run.py"


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_smoke_runs_every_workload_and_passes_every_gate(tmp_path):
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    took = time.perf_counter() - started
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = _last_json(proc.stdout)
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] > 0
    config = cli.load_config()
    for name in config["workloads"]:
        for metric in config["end_to_end"]:
            value = doc["metrics"][f"{name}/{metric['name']}"]["value"]
            assert value > 0, (name, metric["name"])
            assert f"{name} {metric['name']} " in proc.stdout
    assert took < 30  # about 13 s on a 2-vCPU VM


def test_a_corrupted_served_answer_fails_the_run(tmp_path, monkeypatch, capsys):
    measure = serving._measure

    async def corrupted(*args, **kwargs):
        measured = await measure(*args, **kwargs)
        answers = measured["served"]["query"]
        answers[0] = answers[0].replace(b'"item":', b'"item": ')
        return measured

    monkeypatch.setattr(serving, "_measure", corrupted)
    code = cli.main(["--smoke", "--workload", "serve-read", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code != 0
    assert "GATE FAILED query: 1 of" in out
    assert _last_json(out)["correct"] is False


def test_without_the_program_the_benchmark_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "batch-paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_describes_this_benchmark():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    config = cli.load_config()
    assert [w["name"] for w in bench["workloads"]] == list(config["workloads"])
    strip = lambda ms: [{k: m[k] for k in ("name", "unit", "better")} for m in ms]  # noqa: E731
    assert strip(bench["end_to_end"]) == config["end_to_end"]
    assert bench["per_layer"] == config["per_layer"]
    assert bench["run_seconds"] == config["run_seconds"]
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_exact_top_k_matches_ground_truth():
    from repro.streams.ground_truth import GroundTruth
    from repro.streams.model import PeriodicStream

    events = inputs.network_like_events(20_000, 2_000, seed=3, num_periods=20)
    truth = GroundTruth(PeriodicStream(events=events.tolist(), num_periods=20))
    assert inputs.exact_top_k(events, 1_000, 50) == truth.top_k(50, 1.0, 1.0)
    assert np.array_equal(inputs.zipf_events(5_000, 500, 1.0, 9), inputs.zipf_events(5_000, 500, 1.0, 9))
