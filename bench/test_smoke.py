"""Smoke test of the bench at toy scale (M=16, K=64, small budget and grid).

Runs every workload's code path, untraced and traced, from a copy of the
checkout, and checks the result line, the report and the trace accounting.
Run with `python3 -m pytest bench/test_smoke.py`.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    """The files the bench needs, away from the working tree."""
    dest = tmp_path_factory.mktemp("checkout")
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copytree(BENCH, dest / "bench", ignore=ignore)
    shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    return dest


def _bench(checkout, *args):
    cmd = [sys.executable, "bench/run.py", "--scale", "toy", "--seconds", "0", *args]
    return subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=120)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def _report(checkout, workload):
    return json.loads((checkout / ".bench_out" / f"{workload}-toy" / "report.json").read_text())


def test_benchmark_json_matches_the_bench():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert run.WORKLOAD_NAMES == workloads.WORKLOADS


def test_readme_lists_every_metric_with_its_unit():
    text = (BENCH / "README.md").read_text()
    for name, unit in {**run.REPORTED, **run.LAYER_REPORTED}.items():
        assert f"| `{name}` | {unit} |" in text, name


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_workload_untraced_then_traced(checkout, workload):
    first = _result(_bench(checkout, "--workload", workload, "--seed", "3", "--trace", "0"))
    assert {k: m["unit"] for k, m in first["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in first["metrics"].values())
    report = _report(checkout, workload)
    assert {k: m["unit"] for k, m in report["end_to_end"].items()} == run.REPORTED
    assert report["seeds"] == {"workload": 3, "geometry.seed": 1, "learner.seed": 0}
    assert set(report["environment"]) == {
        "nproc", "cpu", "python", "numpy", "blas", "blas_threads"
    }

    traced = _result(_bench(checkout, "--workload", workload, "--seed", "3", "--trace", "1"))
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == run.PER_LAYER
    # every time on the result line was measured on this workload
    assert all(v["value"] != 0 for v in traced["metrics"].values() if v["unit"] in ("s", "us"))
    report = _report(checkout, workload)
    m = {k: v["value"] for k, v in report["per_layer"].items()}
    assert set(m) == set(run.LAYER_REPORTED)
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["traced pass writes the same files as untraced passes"]["ok"]

    # a layer the workload skips has no time, ratio or loss: n/a, not 0
    learned = workload == "learned-reference"
    runs = {
        "critic.train": learned,
        "critic.init": learned,
        "phase_learning.learn": learned,
        "phase_learning.ascent": learned,
        "sim.center_measure": workload != "oracle-search",
        "cli.gain_map": workload == "oracle-search",
    }
    for metric, span in run.SOME_WORKLOADS.items():
        if runs[span]:
            assert m[metric] is not None and m[metric] >= 0, metric
        else:
            assert m[metric] is None, metric

    # per-layer self times add up to the traced pipeline time, which differs
    # from the untraced one by the reported overhead
    self_sum = sum(v or 0.0 for k, v in m.items() if k.startswith("self_s."))
    assert self_sum == pytest.approx(m["trace.pipeline_s"], rel=1e-9)
    assert m["trace.self_sum_s"] == pytest.approx(self_sum, rel=1e-9)
    untraced = report["end_to_end"]["pipeline_s"]["value"]
    assert m["trace.pipeline_s"] - m["trace.overhead_s"] == pytest.approx(untraced, rel=1e-9)

    assert (m["critic.fits"] > 0) == learned
    assert (m["sim.measure_power.calls"] > 0) == (workload == "noisy-oracle")
    assert (m["cli.gain_map.points"] > 0) == (workload == "oracle-search")
    assert m["delay_search.candidates"] > 0 and m["channel.synth_s"] > 0


def _cli(checkout, tmp_path, cfg, *args):
    out = tmp_path / "cli"
    cmd = [sys.executable, "-m", "beamfocus", "--config", str(cfg), "--out", str(out), *args]
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    subprocess.run(cmd, cwd=checkout, env=env, check=True, capture_output=True, timeout=120)
    return out


@pytest.mark.parametrize(
    "workload, commands",
    [
        ("learned-reference", [["learn"], ["profile"]]),
        ("oracle-search", [["search-delays"], ["heatmap", "--source", "pdf-oracle"]]),
    ],
)
def test_outputs_equal_the_cli_outputs(checkout, tmp_path, workload, commands):
    _result(_bench(checkout, "--workload", workload, "--seed", "0", "--trace", "0"))
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(workloads.config_text(workload, toy=True))
    for command in commands:
        out = _cli(checkout, tmp_path, cfg, *command)
    bench_out = checkout / ".bench_out" / f"{workload}-toy" / "pass0"
    renamed = {"search_trace.csv": "search_trace_N16.csv"}
    compared = 0
    for path in sorted(out.iterdir()):
        if path.name == "combiner_final.txt":
            continue  # search-delays only; the bench keeps its result in memory
        assert path.read_bytes() == (bench_out / renamed.get(path.name, path.name)).read_bytes()
        compared += 1
    assert compared >= 3


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle-search", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_all_prints_every_end_to_end_metric_for_every_workload(checkout):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--scale", "toy", "--seconds", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    table = {ln.split()[0]: ln.split()[1:] for ln in lines[1:-1]}
    for name, unit in run.REPORTED.items():
        assert table[name][0] == unit and len(table[name]) == 1 + len(run.WORKLOAD_NAMES)
    assert table["error_rate"][1:] == ["0"] * len(run.WORKLOAD_NAMES)
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
