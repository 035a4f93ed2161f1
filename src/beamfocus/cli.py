"""Experiment runner CLI: the pipelines and the command line.

The `profile`, `heatmap`, `learn` and `search-delays` subcommands build
the seeded scenario from a config file and write their results. Every
output file starts with a `#` header embedding the resolved
configuration, so identical configs reproduce byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .baselines import pdf_oracle, ps_only_oracle
from .channel import ChannelMatrix, SystemConfig, gain_map, near_field_channel
from .combiner import CombinerConfig, effective_combiner, load_combiner, save_combiner
from .config import (
    ConfigError,
    ExperimentConfig,
    build_channel,
    build_codebook,
    build_geometry,
    build_system,
    build_ue,
    check_heatmap,
    emit_config,
    heatmap_shape,
    parse_config,
    stamp_lines,
)
from .critic import save_critic
from .delay_search import ScoredRows, check_prediction, search_delays, seed_position
from .delay_search import write_search_trace_csv
from .files import write_atomic
from .focus import locate_focus
from .geometry import ArrayGeometry, UePosition
from .phase_learning import learn_phases, write_history_csv
from .sim import (
    avg_amplitude_gain,
    center_bin,
    gain_profile,
    make_center_measure,
    make_profile_measure,
    mean_amplitude,
    three_db_bandwidth,
    write_gain_csv,
)


# the delay search scores its candidates on at least this many subcarriers
SEARCH_SUBCARRIERS = 128


def _search_stride(num_subcarriers: int) -> int:
    """K // SEARCH_SUBCARRIERS, or 1 when K is smaller."""
    return max(1, num_subcarriers // SEARCH_SUBCARRIERS)


def decimate_channel(H: ChannelMatrix) -> ChannelMatrix:
    """H on every (K // SEARCH_SUBCARRIERS)-th subcarrier from bin 0 (all when K is smaller).

    These are the bins delay candidates are scored on; final reported
    profiles always use every bin.
    """
    idx = np.arange(0, H.num_subcarriers, _search_stride(H.num_subcarriers))
    return ChannelMatrix(coeffs=H.coeffs[:, idx], freqs_hz=H.freqs_hz[idx])


def _heatmap_axes(ec: ExperimentConfig):
    nx, ny = heatmap_shape(ec)
    xs = np.linspace(ec.heatmap_x_min_m, ec.heatmap_x_max_m, int(nx))
    ys = np.linspace(ec.heatmap_y_min_m, ec.heatmap_y_max_m, int(ny))
    return xs, ys


def _scenario(ec: ExperimentConfig):
    """(geom, cb, cfg, H): the seeded scenario every command starts from."""
    geom = build_geometry(ec)
    cfg = build_system(ec)
    return geom, build_codebook(ec), cfg, build_channel(ec, geom, cfg)


def learn_pipeline(ec: ExperimentConfig, H: ChannelMatrix, cfg: SystemConfig, cb):
    """Run the measurement-only phase learner on ec's array; returns (theta, history)."""
    measure = make_center_measure(ec, H, cfg)
    return learn_phases(measure, build_geometry(ec), cfg, cb, ec)


def search_pipeline(
    ec: ExperimentConfig,
    theta_star,
    geom: ArrayGeometry,
    H: ChannelMatrix,
    cfg: SystemConfig,
    cb,
):
    """Design the delays for theta_star, measuring on the decimated channel.

    theta_star's focus is located here alone, and `seed_position` picks
    the search's start from it. One `ScoredRows` measures every row, so no
    row is measured twice. With a seed, the search first runs on the
    noiseless one-path model built from the located point on the search's
    bins, which it scores without measuring, and `check_prediction`
    measures only the model's winner and the zero-delay row. If the check
    fails, or there is no seed, the measured search runs on the same
    scorer, and the check's rows compete for its result. The result's trace
    holds every row measured, the zero-delay row first. The model reads
    theta_star, the geometry and the located point only.
    """
    H_dec = decimate_channel(H)
    rows = ScoredRows(theta_star, make_profile_measure(ec, H_dec, cfg), geom, cfg, cb)
    points = (ec.ax_points, ec.ay_points, ec.b_points)
    focus = locate_focus(theta_star, geom, cfg.center_freq_hz)
    seed = seed_position(focus, geom, points)
    if seed is not None:
        stride = _search_stride(H.num_subcarriers)
        model = near_field_channel(geom, UePosition(*focus[:2]), cfg, stride)

        def predict(cc):
            return gain_profile(cc, model, cfg).per_subcarrier

        predicted = search_delays(ScoredRows(theta_star, predict, geom, cfg, cb), points, seed)
        if check_prediction(predicted, rows):
            return rows.best()
    return search_delays(rows, points, seed)


def run_profile(ec: ExperimentConfig, out_dir, oracle: bool = False) -> list[Path]:
    """Sweep TD-unit counts; write profile_N<k>.csv per entry plus summary.csv.

    With oracle=True, phases come from the conjugate center-frequency oracle
    and delays from the phase-delay focusing oracle, with no learning. Every
    design is computed before the directory and the files are made, so a
    failed run writes nothing.
    """
    ue = build_ue(ec)
    # the channel and the zero-delay phases are independent of the TD-unit
    # count, so both are built once for the whole sweep
    geom, cb, base_cfg, H = _scenario(ec)
    if oracle:
        theta_star = ps_only_oracle(H, base_cfg, cb).theta
    else:
        theta_star, _ = learn_pipeline(ec, H, base_cfg, cb)

    profiles = []
    summary_rows = []
    for n in ec.n_sweep:
        cfg_n = build_system(ec, num_td_units=n)
        pdf_cc = pdf_oracle(geom, ue, H, cfg_n, cb)
        if n == 0:
            cc = CombinerConfig(theta=theta_star, tau=np.zeros(cfg_n.num_td_units))
        elif oracle:
            cc = pdf_cc
        else:
            result = search_pipeline(ec, theta_star, geom, H, cfg_n, cb)
            cc = CombinerConfig(theta=result.theta, tau=result.tau)

        gp = gain_profile(cc, H, cfg_n)
        profiles.append(gp)
        amp = mean_amplitude(gp.per_subcarrier)
        amp_pdf = amp if cc is pdf_cc else avg_amplitude_gain(pdf_cc, H, cfg_n)
        gap_db = 20.0 * np.log10(amp / amp_pdf) if amp > 0 and amp_pdf > 0 else float("nan")
        summary_rows.append((n, three_db_bandwidth(gp, cfg_n), amp, gap_db))

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for n, gp in zip(ec.n_sweep, profiles):
        path = out / f"profile_N{n}.csv"
        write_gain_csv(gp, path, header_comment=stamp_lines(ec, command="profile", n=n))
        written.append(path)
    summary = out / "summary.csv"
    with write_atomic(summary) as fh:
        fh.write(stamp_lines(ec, command="profile", oracle=oracle))
        fh.write("N,three_db_bandwidth_hz,avg_amplitude_gain,gap_to_pdf_db\n")
        for n, bw, amp, gap in summary_rows:
            fh.write(f"{n},{bw:.10g},{amp:.12g},{gap:.6f}\n")
    written.append(summary)
    return written


def run_heatmap(
    ec: ExperimentConfig,
    out_dir,
    cc: CombinerConfig,
    cfg: SystemConfig,
    freqs_hz,
    label: str = "heatmap",
) -> list[Path]:
    """Write one gain-matrix CSV per requested frequency.

    Rows follow the y axis, columns the x axis; the header records the axes
    and the true user position marker. Two frequencies that would write the
    same file are a ConfigError, raised before anything is computed or
    written.
    """
    names = _heatmap_names(label, freqs_hz)
    geom = build_geometry(ec)
    xs, ys = _heatmap_axes(ec)
    freqs = np.asarray(freqs_hz, dtype=float)
    w = np.array([effective_combiner(cc, cfg, f) for f in freqs])
    maps = gain_map(geom, cfg, w, freqs, xs, ys)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for f, name, gains in zip(freqs, names, maps):
        path = out / name
        with write_atomic(path) as fh:
            fh.write(stamp_lines(ec, command="heatmap", freq_hz=f))
            fh.write(f"# ue_m = {ec.ue_x_m} {ec.ue_y_m}\n")
            fh.write("# x_m = " + " ".join(f"{x:.10g}" for x in xs) + "\n")
            fh.write("# y_m = " + " ".join(f"{y:.10g}" for y in ys) + "\n")
            rows = np.asarray(gains, dtype=float)
            line = ",".join(["%.12g"] * rows.shape[-1]) + "\n"
            fh.write("".join([line % tuple(row) for row in rows.tolist()]))
        written.append(path)
    return written


def _heatmap_names(label: str, freqs_hz) -> list[str]:
    """The file name of each frequency's map; two frequencies may not share one."""
    names = [f"{label}_f{f / 1e9:.6g}GHz.csv" for f in freqs_hz]
    first = {}
    for f, name in zip(freqs_hz, names):
        if first.setdefault(name, f) != f:
            raise ConfigError(f"heatmap: {first[name]} Hz and {f} Hz would both write {name}")
    return names


def _load_combiner_arg(path, cb, cfg: SystemConfig) -> CombinerConfig:
    """The --combiner file; one that fails to load or does not fit cb and cfg is a config error."""
    try:
        cc, file_cb = load_combiner(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"--combiner: {exc}") from exc
    if file_cb != cb:
        raise ConfigError(f"combiner file has ps_bits {file_cb.bits}, system.ps_bits is {cb.bits}")
    if cc.theta.size != cfg.num_antennas or cc.tau.size != cfg.num_td_units:
        raise ConfigError("combiner file does not match system.M/system.N")
    # delays are stored to 1e-18 s, so a delay clipped to tau_max may read
    # back above it; one full step leaves room for float rounding
    if np.any(cc.tau > cfg.tau_max_s + 1e-18):
        raise ConfigError(f"combiner file delays exceed system.tau_max_s = {cfg.tau_max_s:.6g}")
    return cc


def _parse_freqs(text: str, ec: ExperimentConfig) -> list[float]:
    """The --freqs list in Hz: finite positive numbers at which ec's heatmaps stay in range."""
    try:
        freqs = [float(tok) for tok in text.split(",")]
        if not all(0.0 < f < np.inf for f in freqs):
            raise ValueError(f"'{text}' holds a frequency that is not finite and positive")
        check_heatmap(ec, build_system(ec), freqs)
    except ValueError as exc:
        raise ConfigError(f"--freqs: {exc}") from exc
    return freqs


def _cmd_heatmap(ec: ExperimentConfig, args) -> list[Path]:
    freqs = None if args.freqs == "edges" else _parse_freqs(args.freqs, ec)
    geom, cb, cfg, H = _scenario(ec)
    if freqs is None:  # the lowest, center and highest bins
        freqs = H.freqs_hz[[0, center_bin(H.freqs_hz, cfg.center_freq_hz), -1]]
    # one file per distinct frequency, in the order first given
    freqs = list(dict.fromkeys(freqs))
    label = "heatmap_custom" if args.combiner else f"heatmap_{args.source}"
    _heatmap_names(label, freqs)  # fails before any combiner work

    if args.combiner:
        cc = _load_combiner_arg(args.combiner, cb, cfg)
    elif args.source == "ps-oracle":
        cc = ps_only_oracle(H, cfg, cb)
    elif args.source == "pdf-oracle":
        cc = pdf_oracle(geom, build_ue(ec), H, cfg, cb)
    else:  # learned
        theta, _ = learn_pipeline(ec, H, cfg, cb)
        result = search_pipeline(ec, theta, geom, H, cfg, cb)
        cc = CombinerConfig(theta=result.theta, tau=result.tau)
    return run_heatmap(ec, args.out, cc, cfg, freqs, label=label)


def _cmd_learn(ec: ExperimentConfig, args) -> list[Path]:
    _, cb, cfg, H = _scenario(ec)
    theta, history = learn_pipeline(ec, H, cfg, cb)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stamp = stamp_lines(ec, command="learn")
    write_history_csv(history, cb, out / "history.csv", stamp)
    cc = CombinerConfig(theta=theta, tau=np.zeros(cfg.num_td_units))
    save_combiner(cc, cb, out / "combiner_learned.txt", header_comment=stamp)
    save_critic(history.final_model, out / "critic.txt", header_comment=stamp)
    return [out / "history.csv", out / "combiner_learned.txt", out / "critic.txt"]


def _cmd_search_delays(ec: ExperimentConfig, args) -> list[Path]:
    geom, cb, cfg, H = _scenario(ec)
    if args.combiner:
        theta_star = _load_combiner_arg(args.combiner, cb, cfg).theta
    else:
        theta_star = ps_only_oracle(H, cfg, cb).theta
    result = search_pipeline(ec, theta_star, geom, H, cfg, cb)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stamp = stamp_lines(ec, command="search-delays")
    write_search_trace_csv(result, out / "search_trace.csv", stamp)
    cc = CombinerConfig(theta=result.theta, tau=result.tau)
    save_combiner(cc, cb, out / "combiner_final.txt", header_comment=stamp)
    return [out / "search_trace.csv", out / "combiner_final.txt"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamfocus",
        description="Near-field wideband TD-PS beam focusing experiments",
    )
    parser.add_argument("--config", type=str, default=None, help="config file path")
    parser.add_argument("--seed", type=int, default=None, help="override learner.seed")
    parser.add_argument("--out", type=str, default="out", help="output directory (default: out)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="sweep TD-unit counts, export gain profiles")
    p.add_argument("--oracle", action="store_true", help="bypass learning, use oracles")

    p = sub.add_parser("heatmap", help="map beam gain over user positions")
    source = p.add_mutually_exclusive_group()
    source.add_argument(
        "--source",
        choices=["learned", "ps-oracle", "pdf-oracle"],
        default="pdf-oracle",
        help="where the combiner comes from",
    )
    source.add_argument("--combiner", type=str, default=None, help="combiner file to load")
    p.add_argument(
        "--freqs",
        type=str,
        default="edges",
        help="'edges' (lowest/center/highest bins) or comma-separated Hz",
    )

    sub.add_parser("learn", help="run only the phase-learning stage")

    p = sub.add_parser("search-delays", help="run only the delay search")
    p.add_argument("--combiner", type=str, default=None, help="phases to start from")

    sub.add_parser("print-defaults", help="print the default config with all keys")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "print-defaults":
        sys.stdout.write(emit_config(ExperimentConfig()))
        return 0
    try:
        ec = parse_config(args.config) if args.config else ExperimentConfig()
        if args.seed is not None:
            ec = replace(ec, learner_seed=args.seed)
        # mkdir would fail only after the work: check the output path first
        out = Path(args.out)
        nearest = next(p for p in (out, *out.parents) if p.exists() or p.is_symlink())
        if not nearest.is_dir():
            raise ConfigError(f"--out: '{nearest}' is not a directory")
        handlers = {
            "profile": lambda ec, args: run_profile(ec, args.out, oracle=args.oracle),
            "heatmap": _cmd_heatmap,
            "learn": _cmd_learn,
            "search-delays": _cmd_search_delays,
        }
        # each handler returns the paths it wrote, printed once all are written
        for path in handlers[args.command](ec, args):
            print(path)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
