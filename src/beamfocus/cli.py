"""Experiment runner CLI.

Subcommands build seeded scenarios from a config file and export CSV
results: `profile` sweeps TD-unit counts and writes per-subcarrier gain
profiles plus a summary, `heatmap` maps the beam gain over user positions
at chosen frequencies, `learn` runs only the phase-learning stage, and
`search-delays` runs only the delay search. Every output file starts with
a `#` header embedding the resolved configuration, so identical configs
reproduce byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .baselines import pdf_oracle, ps_only_oracle
from .channel import ChannelMatrix, SystemConfig, spherical_wave
from .combiner import CombinerConfig, effective_combiner, load_combiner, save_combiner
from .config import (
    ConfigError,
    ExperimentConfig,
    build_channel,
    build_codebook,
    build_geometry,
    build_system,
    build_ue,
    emit_config,
    parse_config,
    stamp_lines,
    validate,
)
from .critic import save_critic
from .delay_search import search_delays, write_search_trace_csv
from .files import write_atomic
from .geometry import ArrayGeometry, point_distances
from .phase_learning import learn_phases, write_history_csv
from .sim import (
    avg_amplitude_gain,
    center_bin,
    gain_profile,
    measure_power,
    measure_profile_powers,
    three_db_bandwidth,
    write_gain_csv,
)


def decimate_channel(H: ChannelMatrix, target: int) -> ChannelMatrix:
    """H on the subcarriers used while scoring delay candidates.

    Every (K/target)-th bin, but never fewer than 16 bins (all bins when K
    is small). Final reported profiles always use every bin.
    """
    K = H.num_subcarriers
    idx = np.arange(0, K, max(1, K // max(target, 16)))
    if idx.size < 16:
        idx = np.arange(K)
    return ChannelMatrix(coeffs=H.coeffs[:, idx], freqs_hz=H.freqs_hz[idx])


def _noise_rng(ec: ExperimentConfig, *key: int) -> np.random.Generator:
    # learner.seed keys one noise stream per measurement callback: (0,) for
    # the center callback, (1, N) for the profile callback of the N-TD-unit
    # search. Each callback owns its Generator, so its measurements are
    # independent, the searches of one sweep draw different noise, and a
    # config still reproduces its files.
    return np.random.default_rng(np.random.SeedSequence(ec.learner_seed, spawn_key=key))


def make_center_measure(ec: ExperimentConfig, H: ChannelMatrix, cfg: SystemConfig):
    """Callback phases -> center-frequency power for the phase learner.

    `phases` are the M codebook phases of a zero-delay beam. In noisy mode
    the known noise floor is subtracted (clipped at zero) so the critic
    regresses calibrated signal powers.
    """
    h = H.coeffs[:, center_bin(H.freqs_hz, cfg.center_freq_hz)]
    rng = _noise_rng(ec, 0)

    def measure(phases):
        # w^H h at the center bin for w = e^{j phases} / sqrt(M) (zero delays)
        wh = np.vdot(np.exp(1j * phases) / np.sqrt(cfg.num_antennas), h)
        p = cfg.tx_power_w / cfg.num_subcarriers * float(np.abs(wh) ** 2)
        if cfg.noise_power_w > 0.0:
            p = measure_power(p, cfg, ec.snapshots, rng)
        return max(p - cfg.noise_power_w, 0.0)

    return measure


def make_profile_measure(ec: ExperimentConfig, H_dec: ChannelMatrix, cfg: SystemConfig):
    """Callback config -> per-subcarrier powers for the delay search.

    Takes one configuration or a stack and returns one row of powers per
    configuration (see `measure_profile_powers`). Its noise stream is keyed
    by cfg.num_td_units.
    """
    rng = _noise_rng(ec, 1, cfg.num_td_units)

    def measure(cc):
        powers = measure_profile_powers(cc, H_dec, cfg, snapshots=ec.snapshots, rng=rng)
        return np.maximum(powers - cfg.noise_power_w, 0.0)

    return measure


# heatmap points evaluated per block, bounding the (points x M) temporaries
GAIN_MAP_BLOCK = 512


def gain_map(
    geom: ArrayGeometry,
    w: np.ndarray,
    freq_hz,
    xs: np.ndarray,
    ys: np.ndarray,
    rho_factor=1.0,
) -> np.ndarray:
    """|w^H h(q')|^2 over a position grid, channel re-synthesized per point.

    Returns shape (len(ys), len(xs)); rows follow ys, columns follow xs.
    `w` may stack one combining vector per frequency, shape (F, M), with
    `freq_hz` and `rho_factor` broadcasting to (F,); the result then has
    shape (F, len(ys), len(xs)). The points are evaluated in blocks of
    GAIN_MAP_BLOCK, each block's distances once for every frequency, so
    memory stays bounded at any grid size.
    """
    gx, gy = np.meshgrid(np.asarray(xs, float), np.asarray(ys, float))
    px, py = gx.ravel(), gy.ravel()
    w_conj = np.conj(w)
    batch = w_conj.shape[:-1]
    freqs = np.broadcast_to(freq_hz, batch)
    rhos = np.broadcast_to(rho_factor, batch)
    vals = np.empty(batch + (px.size,))
    for start in range(0, px.size, GAIN_MAP_BLOCK):
        block = slice(start, start + GAIN_MAP_BLOCK)
        d = point_distances(geom, px[block], py[block])  # (points, M)
        for i in np.ndindex(batch):
            h = spherical_wave(d, freqs[i], rhos[i])
            vals[i + (block,)] = np.abs(h @ w_conj[i]) ** 2
    return vals.reshape(batch + gx.shape)


def _heatmap_axes(ec: ExperimentConfig):
    def axis(lo, hi, res):
        n = int(round((hi - lo) / res)) + 1
        return np.linspace(lo, hi, max(n, 1))

    xs = axis(ec.heatmap_x_min_m, ec.heatmap_x_max_m, ec.heatmap_resolution_m)
    ys = axis(ec.heatmap_y_min_m, ec.heatmap_y_max_m, ec.heatmap_resolution_m)
    return xs, ys


def learn_pipeline(ec: ExperimentConfig, H: ChannelMatrix, cfg: SystemConfig, cb):
    """Run the measurement-only phase learner; returns (theta, history)."""
    measure = make_center_measure(ec, H, cfg)
    return learn_phases(measure, cfg, cb, ec)


def search_pipeline(
    ec: ExperimentConfig,
    theta_star,
    geom: ArrayGeometry,
    H: ChannelMatrix,
    cfg: SystemConfig,
    cb,
):
    """Run the delay search against a decimated measurement set."""
    H_dec = decimate_channel(H, target=ec.search_subcarriers)
    measure = make_profile_measure(ec, H_dec, cfg)
    points = (ec.ax_points, ec.ay_points, ec.b_points)
    return search_delays(theta_star, measure, geom, cfg, cb, points)


def run_profile(ec: ExperimentConfig, out_dir, oracle: bool = False) -> list[Path]:
    """Sweep TD-unit counts; write profile_N<k>.csv per entry plus summary.csv.

    With oracle=True the learning stage is bypassed: phases come from the
    conjugate center-frequency oracle and delays from the true-geometry
    phase-delay focusing oracle (fast acceptance path).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    geom = build_geometry(ec)
    ue = build_ue(ec)
    cb = build_codebook(ec)

    # the channel and the phase-learning stage are independent of the
    # TD-unit count, so both are built once for the whole sweep
    base_cfg = build_system(ec, num_td_units=1)
    H = build_channel(ec, geom, base_cfg)

    theta_learned = None
    if not oracle:
        theta_learned, _ = learn_pipeline(ec, H, base_cfg, cb)

    written = []
    summary_rows = []
    for n in ec.n_sweep:
        cfg_n = build_system(ec, num_td_units=n)
        pdf_cc = pdf_oracle(geom, ue, H, cfg_n, cb)
        if oracle:
            theta_star = ps_only_oracle(H, cfg_n, cb).theta
        else:
            theta_star = theta_learned

        if n == 0:
            cc = CombinerConfig(theta=theta_star, tau=np.zeros(cfg_n.num_td_units))
        elif oracle:
            cc = pdf_cc
        else:
            result = search_pipeline(ec, theta_star, geom, H, cfg_n, cb)
            cc = CombinerConfig(theta=result.theta, tau=result.tau)

        gp = gain_profile(cc, H, cfg_n)
        path = out / f"profile_N{n}.csv"
        write_gain_csv(gp, path, header_comment=stamp_lines(ec, command="profile", n=n))
        written.append(path)

        amp = float(np.mean(np.sqrt(gp.per_subcarrier)))  # avg_amplitude_gain of cc
        amp_pdf = amp if cc is pdf_cc else avg_amplitude_gain(pdf_cc, H, cfg_n)
        gap_db = 20.0 * np.log10(amp / amp_pdf) if amp > 0 and amp_pdf > 0 else float("nan")
        summary_rows.append((n, three_db_bandwidth(gp, cfg_n), amp, gap_db))

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
    and the true user position marker.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    geom = build_geometry(ec)
    xs, ys = _heatmap_axes(ec)
    freqs = np.asarray(freqs_hz, dtype=float)
    rho = freqs / ec.center_freq_hz if ec.rho_mode == "flat_amplitude" else 1.0
    w = np.array([effective_combiner(cc, cfg, f) for f in freqs])
    maps = gain_map(geom, w, freqs, xs, ys, rho_factor=rho)
    written = []
    for f, gains in zip(freqs, maps):
        path = out / f"{label}_f{f / 1e9:.6g}GHz.csv"
        with write_atomic(path) as fh:
            fh.write(stamp_lines(ec, command="heatmap", freq_hz=f))
            fh.write(f"# ue_m = {ec.ue_x_m} {ec.ue_y_m}\n")
            fh.write("# x_m = " + " ".join(f"{x:.10g}" for x in xs) + "\n")
            fh.write("# y_m = " + " ".join(f"{y:.10g}" for y in ys) + "\n")
            for row in gains:
                fh.write(",".join(f"{g:.12g}" for g in row) + "\n")
        written.append(path)
    return written


def _cmd_profile(ec: ExperimentConfig, args) -> int:
    files = run_profile(ec, args.out, oracle=args.oracle)
    for path in files:
        print(path)
    return 0


def _load_combiner_arg(path) -> CombinerConfig:
    """The --combiner file's configuration; a file it cannot load is a config error."""
    try:
        cc, _ = load_combiner(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"--combiner: {exc}") from exc
    return cc


def _parse_freqs(text: str) -> list[float]:
    """The --freqs list in Hz; each entry must be a finite positive number."""
    try:
        freqs = [float(tok) for tok in text.split(",")]
        if not all(0.0 < f < np.inf for f in freqs):
            raise ValueError(f"'{text}' holds a frequency that is not finite and positive")
    except ValueError as exc:
        raise ConfigError(f"--freqs: {exc}") from exc
    return freqs


def _cmd_heatmap(ec: ExperimentConfig, args) -> int:
    freqs = None if args.freqs == "edges" else _parse_freqs(args.freqs)
    geom = build_geometry(ec)
    ue = build_ue(ec)
    cb = build_codebook(ec)
    cfg = build_system(ec)
    H = build_channel(ec, geom, cfg)

    if args.combiner:
        cc = _load_combiner_arg(args.combiner)
        if cc.theta.size != cfg.num_antennas or cc.tau.size != cfg.num_td_units:
            raise ConfigError("combiner file does not match system.M/system.N")
    elif args.source == "ps-oracle":
        cc = ps_only_oracle(H, cfg, cb)
    elif args.source == "pdf-oracle":
        cc = pdf_oracle(geom, ue, H, cfg, cb)
    else:  # learned
        theta, _ = learn_pipeline(ec, H, cfg, cb)
        result = search_pipeline(ec, theta, geom, H, cfg, cb)
        cc = CombinerConfig(theta=result.theta, tau=result.tau)

    if freqs is None:  # the lowest, center and highest bins
        freqs = H.freqs_hz[[0, center_bin(H.freqs_hz, cfg.center_freq_hz), -1]]
    # one file per distinct frequency, in the order first given
    freqs = list(dict.fromkeys(freqs))
    label = "heatmap_custom" if args.combiner else f"heatmap_{args.source}"
    files = run_heatmap(ec, args.out, cc, cfg, freqs, label=label)
    for path in files:
        print(path)
    return 0


def _cmd_learn(ec: ExperimentConfig, args) -> int:
    geom = build_geometry(ec)
    cb = build_codebook(ec)
    cfg = build_system(ec)
    H = build_channel(ec, geom, cfg)
    theta, history = learn_pipeline(ec, H, cfg, cb)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stamp = stamp_lines(ec, command="learn")
    write_history_csv(history, cb, out / "history.csv", stamp)
    save_combiner(
        CombinerConfig(theta=theta, tau=np.zeros(cfg.num_td_units)),
        cb,
        out / "combiner_learned.txt",
        header_comment=stamp,
    )
    print(out / "history.csv")
    print(out / "combiner_learned.txt")
    if history.final_model is not None:
        save_critic(history.final_model, out / "critic.txt", header_comment=stamp)
        print(out / "critic.txt")
    return 0


def _cmd_search_delays(ec: ExperimentConfig, args) -> int:
    geom = build_geometry(ec)
    ue = build_ue(ec)
    cb = build_codebook(ec)
    cfg = build_system(ec)
    H = build_channel(ec, geom, cfg)
    if args.combiner:
        cc_in = _load_combiner_arg(args.combiner)
        if cc_in.theta.size != cfg.num_antennas:
            raise ConfigError("combiner file does not match system.M")
        theta_star = cc_in.theta
    else:
        theta_star = ps_only_oracle(H, cfg, cb).theta
    result = search_pipeline(ec, theta_star, geom, H, cfg, cb)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_search_trace_csv(
        result, out / "search_trace.csv", stamp_lines(ec, command="search-delays")
    )
    save_combiner(
        CombinerConfig(theta=result.theta, tau=result.tau),
        cb,
        out / "combiner_final.txt",
        header_comment=stamp_lines(ec, command="search-delays"),
    )
    print(out / "search_trace.csv")
    print(out / "combiner_final.txt")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamfocus",
        description="Near-field wideband TD-PS beam focusing experiments",
    )
    parser.add_argument("--config", type=str, default=None, help="config file path")
    parser.add_argument("--seed", type=int, default=None, help="override learner.seed")
    parser.add_argument("--out", type=str, default=None, help="override output.dir")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="sweep TD-unit counts, export gain profiles")
    p.add_argument("--oracle", action="store_true", help="bypass learning, use oracles")

    p = sub.add_parser("heatmap", help="map beam gain over user positions")
    p.add_argument(
        "--source",
        choices=["learned", "ps-oracle", "pdf-oracle"],
        default="pdf-oracle",
        help="where the combiner comes from",
    )
    p.add_argument("--combiner", type=str, default=None, help="combiner file to load")
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
            ec = validate(replace(ec, learner_seed=args.seed))
        args.out = args.out or ec.output_dir
        handlers = {
            "profile": _cmd_profile,
            "heatmap": _cmd_heatmap,
            "learn": _cmd_learn,
            "search-delays": _cmd_search_delays,
        }
        return handlers[args.command](ec, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
