"""Reference-scenario benchmark for beamfocus.

Run from the root of a source checkout; beamfocus is imported from ./src:

    python3 bench/run.py --workload learned-reference --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --workload all    # every end-to-end metric, all workloads

One run sets the scenario up several times (setup_s is their median), then
repeats end-to-end passes until --seconds have gone by, at least once
(pipeline_s is their median). With --trace 1 it adds one traced pass, whose
spans give the per-layer metrics. Single process; BLAS threads are capped
at the number of usable CPUs.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
ones with --trace 1. The lines before it are the full report, which is also
written to .bench_out/<workload>/report.json. bench/README.md has the
metric table.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# numpy is first imported after this, so the cap holds for its BLAS
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("learned-reference", "oracle-search", "noisy-oracle")
SETUP_REPEATS = 15

# The end-to-end metrics of BENCHMARK.json, printed on the last line.
END_TO_END = {
    "pipeline_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "bw_n0_ghz": "GHz",
    "amp_ratio_n16": "ratio",
    "oracle_measurements": "count",
}
# Reported by every run (with n/a where a workload has no such stage);
# error_rate is also the last line's failed / attempted.
REPORTED = {
    "pipeline_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "bw_n0_ghz": "GHz",
    "bw_n8_ghz": "GHz",
    "gap_n8_db": "dB",
    "gap_n16_db": "dB",
    "measurements": "count",
    "error_rate": "ratio",
    "amp_ratio_n16": "ratio",
    "oracle_measurements": "count",
}
# Reported by traced runs.
LAYER_REPORTED = {
    "critic.fits": "count",
    "critic.train_s": "s",
    "critic.samples": "count",
    "critic.iters": "count",
    "critic.accepted_step_ratio": "ratio",
    "critic.final_loss": "W2",
    "critic.init_s": "s",
    "phase_learning.learn_s": "s",
    "phase_learning.self_s": "s",
    "phase_learning.ascent.calls": "count",
    "phase_learning.ascent_s": "s",
    "phase_learning.ascent_cycles": "count",
    "phase_learning.exploit_improved_ratio": "ratio",
    "sim.center_measure.calls": "count",
    "sim.center_measure.s": "s",
    "sim.center_measure.p99_us": "us",
    "sim.profile_measure.calls": "count",
    "sim.profile_measure.s": "s",
    "sim.profile_measure.p99_us": "us",
    "sim.measure_power.calls": "count",
    "sim.gain_profile.calls": "count",
    "sim.gain_profile.s": "s",
    "delay_search.search_s": "s",
    "delay_search.candidates": "count",
    "delay_search.self_s": "s",
    "delay_search.bins_scored": "count",
    "delay_search.beat_ps_only_ratio": "ratio",
    "combiner.recompensate.calls": "count",
    "combiner.recompensate_s": "s",
    "baselines.oracle_s": "s",
    "channel.synth_s": "s",
    "channel.coeff_bytes": "bytes",
    "cli.gain_map.calls": "count",
    "cli.gain_map_s": "s",
    "cli.gain_map.points": "count",
    "cli.csv_write_s": "s",
    "cli.csv_bytes": "bytes",
    "self_s.sim": "s",
    "self_s.critic": "s",
    "self_s.phase_learning": "s",
    "self_s.delay_search": "s",
    "self_s.combiner": "s",
    "self_s.baselines": "s",
    "self_s.cli": "s",
    "self_s.bench": "s",
    "trace.pipeline_s": "s",
    "trace.self_sum_s": "s",
    "trace.overhead_s": "s",
}
# Times, latencies, ratios and losses of a layer that a workload skips: the
# critic and the learner on oracle-search and noisy-oracle, the center
# measurements on oracle-search, the heatmap on the other two. They are
# reported as n/a there, and left off the result line of every workload.
SOME_WORKLOADS = {
    "critic.train_s": "critic.train",
    "critic.accepted_step_ratio": "critic.train",
    "critic.final_loss": "critic.train",
    "critic.init_s": "critic.init",
    "phase_learning.learn_s": "phase_learning.learn",
    "phase_learning.self_s": "phase_learning.learn",
    "phase_learning.ascent_s": "phase_learning.ascent",
    "phase_learning.exploit_improved_ratio": "phase_learning.learn",
    "sim.center_measure.s": "sim.center_measure",
    "sim.center_measure.p99_us": "sim.center_measure",
    "cli.gain_map_s": "cli.gain_map",
    "self_s.critic": "critic.train",
    "self_s.phase_learning": "phase_learning.learn",
}
# The per-layer metrics of BENCHMARK.json, printed on the last line.
PER_LAYER = {k: u for k, u in LAYER_REPORTED.items() if k not in SOME_WORKLOADS}
# Derived from array and file sizes rather than counted at an event.
COMPUTED = ("channel.coeff_bytes", "cli.csv_bytes", "delay_search.bins_scored")
PIPELINE_LAYERS = ("sim", "critic", "phase_learning", "delay_search", "combiner", "baselines", "cli", "bench")


def _import_beamfocus():
    """Import beamfocus from this checkout's src/, or exit 2."""
    if not (SRC / "beamfocus" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no beamfocus sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import beamfocus

    if Path(beamfocus.__file__).resolve().parent != (SRC / "beamfocus").resolve():
        sys.stderr.write(f"bench: imported beamfocus from {beamfocus.__file__}, not {SRC}\n")
        sys.exit(2)


def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


# -- traced run ---------------------------------------------------------------


def _on_fit(counters, args, result):
    data = args[1]
    _, trace = result
    counters["critic.samples"] += len(data)
    counters["critic.iters"] += len(trace)
    counters["critic.transitions"] += len(trace) - 1
    counters["critic.accepted_steps"] += int((trace[1:] < trace[:-1]).sum())
    counters["critic.final_loss"] = float(trace[-1])


def _on_ascent(counters, args, result):
    counters["phase_learning.ascent_cycles"] += result[1]


def _on_learn(counters, args, result):
    history = result[1]
    for inv, _, p_x in history.exploit_events:
        counters["phase_learning.exploits"] += 1
        before = history.measured_powers[: inv - 1]
        counters["phase_learning.exploits_improved"] += int(before.size == 0 or p_x > before.max())


def _on_search(counters, args, result):
    counters["delay_search.candidates"] += len(result.trace)
    counters["delay_search.beat_ps_only"] += int(result.score > result.ps_only_score)


def _on_gain_map(counters, args, result):
    counters["cli.gain_map.points"] += result.size


def _count_bins(counters, args, result):
    counters["delay_search.bins_scored"] += result.size


def install_spans(tracer) -> None:
    """Wrap the layers' entry points where the pipeline looks them up."""
    from beamfocus import baselines, cli, config, delay_search, phase_learning, sim

    tracer.patch(config, "near_field_channel", "channel.synth")
    # cli's pipelines call learn_phases and search_delays by the names cli
    # imported, and the callbacks its measurement factories return
    tracer.patch(cli, "learn_phases", "phase_learning.learn", _on_learn)
    tracer.patch(cli, "search_delays", "delay_search.search", _on_search)
    tracer.patch_factory(cli, "make_center_measure", "sim.center_measure")
    tracer.patch_factory(cli, "make_profile_measure", "sim.profile_measure", _count_bins)
    tracer.patch(phase_learning, "coordinate_ascent", "phase_learning.ascent", _on_ascent)
    tracer.patch(phase_learning, "initialize_critic", "critic.init")
    tracer.patch(phase_learning, "train_critic", "critic.train", _on_fit)
    tracer.patch(delay_search, "recompensate_phases", "combiner.recompensate")
    tracer.patch(baselines, "recompensate_phases", "combiner.recompensate")
    tracer.patch(baselines, "ps_only_oracle", "baselines.ps_only_oracle")
    tracer.patch(baselines, "pdf_oracle", "baselines.pdf_oracle")
    tracer.patch(sim, "measure_power", "sim.measure_power")  # the per-bin noisy loop
    tracer.patch(sim, "gain_profile", "sim.gain_profile")
    tracer.patch(sim, "avg_amplitude_gain", "sim.avg_amplitude_gain")
    tracer.patch(sim, "three_db_bandwidth", "sim.three_db_bandwidth")
    tracer.patch(cli, "gain_map", "cli.gain_map", _on_gain_map)


def layer_metrics(
    pipe: dict, setup: dict, counters: dict, untraced_s: float, coeff_bytes: int, csv_bytes: int
) -> dict:
    import numpy as np

    names = pipe["names"]

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    def total(name):
        return names.get(name, {}).get("total_s", 0.0)

    def p99_us(name):
        d = names.get(name, {}).get("durations")
        return float(np.percentile(d, 99)) * 1e6 if d else 0.0

    def ratio(num, den):
        return counters.get(num, 0) / counters[den] if counters.get(den) else 0.0

    synth = setup["names"].get("channel.synth", {}).get("durations", [])
    self_by_layer = {layer: pipe["layers"].get(layer, 0.0) for layer in PIPELINE_LAYERS}
    m = {
        "critic.fits": calls("critic.train"),
        "critic.train_s": total("critic.train"),
        "critic.samples": counters.get("critic.samples", 0),
        "critic.iters": counters.get("critic.iters", 0),
        "critic.accepted_step_ratio": ratio("critic.accepted_steps", "critic.transitions"),
        "critic.final_loss": counters.get("critic.final_loss", 0.0),
        "critic.init_s": total("critic.init"),
        "phase_learning.learn_s": total("phase_learning.learn"),
        "phase_learning.self_s": names.get("phase_learning.learn", {}).get("self_s", 0.0),
        "phase_learning.ascent.calls": calls("phase_learning.ascent"),
        "phase_learning.ascent_s": total("phase_learning.ascent"),
        "phase_learning.ascent_cycles": counters.get("phase_learning.ascent_cycles", 0),
        "phase_learning.exploit_improved_ratio": ratio(
            "phase_learning.exploits_improved", "phase_learning.exploits"
        ),
        "sim.center_measure.calls": calls("sim.center_measure"),
        "sim.center_measure.s": total("sim.center_measure"),
        "sim.center_measure.p99_us": p99_us("sim.center_measure"),
        "sim.profile_measure.calls": calls("sim.profile_measure"),
        "sim.profile_measure.s": total("sim.profile_measure"),
        "sim.profile_measure.p99_us": p99_us("sim.profile_measure"),
        "sim.measure_power.calls": calls("sim.measure_power"),
        "sim.gain_profile.calls": calls("sim.gain_profile"),
        "sim.gain_profile.s": total("sim.gain_profile"),
        "delay_search.search_s": total("delay_search.search"),
        "delay_search.candidates": counters.get("delay_search.candidates", 0),
        "delay_search.self_s": names.get("delay_search.search", {}).get("self_s", 0.0),
        "delay_search.bins_scored": counters.get("delay_search.bins_scored", 0),
        "delay_search.beat_ps_only_ratio": (
            counters.get("delay_search.beat_ps_only", 0) / calls("delay_search.search")
            if calls("delay_search.search")
            else 0.0
        ),
        "combiner.recompensate.calls": calls("combiner.recompensate"),
        "combiner.recompensate_s": total("combiner.recompensate"),
        "baselines.oracle_s": pipe["top_level"].get("baselines", 0.0),
        "channel.synth_s": statistics.median(synth) if synth else 0.0,
        "channel.coeff_bytes": coeff_bytes,
        "cli.gain_map.calls": calls("cli.gain_map"),
        "cli.gain_map_s": total("cli.gain_map"),
        "cli.gain_map.points": counters.get("cli.gain_map.points", 0),
        "cli.csv_write_s": names.get("cli.csv_write", {}).get("self_s", 0.0),
        "cli.csv_bytes": csv_bytes,
        "trace.pipeline_s": pipe["root_s"],
        "trace.self_sum_s": sum(pipe["layers"].values()),
        "trace.overhead_s": pipe["root_s"] - untraced_s,
    }
    m.update({f"self_s.{layer}": s for layer, s in self_by_layer.items()})
    for metric, span in SOME_WORKLOADS.items():
        if not calls(span):
            m[metric] = None
    return m


# -- one workload ---------------------------------------------------------------


def _digests(out: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
    }


def _run_setups(workloads, text, tracer):
    times, scenario = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with tracer.span("setup"):
            scenario = workloads.setup(text)
        times.append(time.perf_counter() - t0)
    return times, scenario


def _one_pass(workloads, name, scenario, out, tracer, seed, toy):
    """(seconds, PassResult, digests), or None after printing the traceback."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        with tracer.span("bench.pipeline"):
            rec = workloads.run_pass(name, scenario, out, tracer, seed, toy=toy)
        seconds = time.perf_counter() - t0
    except Exception:
        traceback.print_exc()
        return None
    return seconds, rec, _digests(out)


def run_workload(name: str, seed: int, seconds: float, trace: bool, toy: bool) -> dict:
    import workloads
    from spans import NullTracer, Tracer

    tag = name + ("-toy" if toy else "")
    base = OUT / tag
    text = workloads.config_text(name, toy)
    checks = []  # (name, ok, detail)
    setup_times, scenario = _run_setups(workloads, text, NullTracer())

    passes = []
    exceptions = 0
    start = time.perf_counter()
    while True:
        done = _one_pass(
            workloads, name, scenario, base / f"pass{len(passes)}", NullTracer(), seed, toy
        )
        if done is None:
            exceptions += 1
            break
        passes.append(done)
        if time.perf_counter() - start >= seconds:
            break

    layer = None
    if trace and passes:
        tracer = Tracer()
        install_spans(tracer)
        try:
            _, traced_scenario = _run_setups(workloads, text, tracer)
            root = len(tracer.names)
            traced = _one_pass(workloads, name, traced_scenario, base / "traced", tracer, seed, toy)
        finally:
            tracer.unpatch()
        tracer.write(base / "spans.json")
        if traced is None:
            exceptions += 1
        else:
            checks.append(
                (
                    "traced pass writes the same files as untraced passes",
                    traced[2] == passes[0][2],
                    f"{len(traced[2])} files",
                )
            )
            layer = layer_metrics(
                tracer.summary([root]),
                tracer.summary([i for i, n in enumerate(tracer.names) if n == "setup"]),
                tracer.counters,
                untraced_s=statistics.median(p[0] for p in passes),
                coeff_bytes=traced_scenario.H.coeffs.nbytes,
                csv_bytes=sum(p.stat().st_size for p in (base / "traced").iterdir()),
            )

    for i, (_, rec, digests) in enumerate(passes):
        checks.extend((f"pass {i}: {c}", ok, d) for c, ok, d in rec.checks)
        if i:
            checks.append(
                (
                    f"pass {i} writes byte-identical files to pass 0",
                    digests == passes[0][2] and rec.quality == passes[0][1].quality,
                    f"{len(digests)} files",
                )
            )

    failed = exceptions + sum(not ok for _, ok, _ in checks)
    attempted = exceptions + len(checks)
    report = {
        "workload": name,
        "scale": "toy" if toy else "reference",
        "trace": bool(trace),
        "seeds": {
            "workload": seed,
            "geometry.seed": scenario.ec.geometry_seed,
            "learner.seed": scenario.ec.learner_seed,
        },
        "environment": environment(),
        "config": text,
        "pass_seconds": [p[0] for p in passes],
        "setup_seconds": setup_times,
        "checks": [{"name": c, "ok": ok, "detail": d} for c, ok, d in checks],
        "attempted": attempted,
        "failed": failed,
        "computed": list(COMPUTED),
    }
    if passes:
        quality, counts = passes[0][1].quality, passes[0][1].counts
        values = {
            "pipeline_s": statistics.median(p[0] for p in passes),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "measurements": counts.get("learner_measurements"),
            "error_rate": failed / attempted,
            "oracle_measurements": counts["oracle_measurements"],
        }
        for key in ("bw_n0_ghz", "bw_n8_ghz", "gap_n8_db", "gap_n16_db", "amp_ratio_n16"):
            values[key] = quality.get(key)
        report["end_to_end"] = {k: {"value": values[k], "unit": u} for k, u in REPORTED.items()}
    if layer is not None:
        report["per_layer"] = {k: {"value": layer[k], "unit": u} for k, u in LAYER_REPORTED.items()}
    base.mkdir(parents=True, exist_ok=True)
    (base / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    return report


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_report(report: dict) -> None:
    env, seeds = report["environment"], report["seeds"]
    print(f"# workload {report['workload']} ({report['scale']}), trace {int(report['trace'])}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("# seeds " + " ".join(f"{k}={v}" for k, v in seeds.items()))
    for c in report["checks"]:
        print(f"# check {'PASS' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")
    for section in ("end_to_end", "per_layer"):
        for k, m in report.get(section, {}).items():
            tag = " (computed)" if k in report["computed"] else ""
            print(f"# {section} {k} = {_fmt(m['value'])} {m['unit']}{tag}")


def result_line(report: dict) -> dict:
    section, units = ("per_layer", PER_LAYER) if report["trace"] else ("end_to_end", END_TO_END)
    metrics = report.get(section, {})
    ok = report["failed"] == 0 and all(k in metrics for k in units)
    return {
        "correct": ok,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": metrics[k]["value"], "unit": u} for k, u in units.items() if k in metrics},
    }


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    reports = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
               "--scale", args.scale]
        path = OUT / (name + ("-toy" if args.scale == "toy" else "")) / "report.json"
        path.unlink(missing_ok=True)
        subprocess.run(cmd, stdout=subprocess.DEVNULL, check=False)
        if not path.exists():
            sys.stderr.write(f"bench: {name} wrote no report\n")
            return 1
        reports[name] = json.loads(path.read_text())
    width = max(len(k) for k in REPORTED)
    print(f"{'metric':<{width}}  {'unit':<6}" + "".join(f"  {n:>18}" for n in WORKLOAD_NAMES))
    for k, unit in REPORTED.items():
        cells = "".join(
            f"  {_fmt(reports[n].get('end_to_end', {}).get(k, {}).get('value')):>18}"
            for n in WORKLOAD_NAMES
        )
        print(f"{k:<{width}}  {unit:<6}{cells}")
    failed = sum(r["failed"] for r in reports.values())
    attempted = sum(r["attempted"] for r in reports.values())
    metrics = {
        f"{n}.{k}": {"value": m["value"], "unit": m["unit"]}
        for n, r in reports.items()
        for k, m in r.get("end_to_end", {}).items()
        if k in END_TO_END
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=10.0, help="measure at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("reference", "toy"), default="reference",
                        help="toy: M=16, K=64, small budget and grid (smoke test)")
    args = parser.parse_args(argv)
    _import_beamfocus()
    if args.workload == "all":
        return run_all(args)
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale == "toy")
    print_report(report)
    result = result_line(report)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
