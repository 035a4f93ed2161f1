import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamfocus import cli
from beamfocus.cli import (
    GAIN_MAP_BLOCK,
    decimate_channel,
    gain_map,
    main,
    make_center_measure,
    make_profile_measure,
    run_heatmap,
    run_profile,
)
from beamfocus.baselines import pdf_oracle
from beamfocus.channel import ChannelMatrix, near_field_channel, spherical_wave
from beamfocus.combiner import (
    CombinerConfig,
    PhaseCodebook,
    combiner_to_text,
    effective_combiner,
    save_combiner,
)
from beamfocus.config import (
    ConfigError,
    ExperimentConfig,
    build_channel,
    build_codebook,
    build_geometry,
    build_system,
    build_ue,
    emit_config,
    parse_config_text,
)
from beamfocus.files import write_atomic
from beamfocus.sim import center_bin, gain_profile, measure_power


def tiny_config(**kw):
    base = dict(
        num_antennas=16,
        num_td_units=4,
        num_subcarriers=64,
        geometry_kind="random",
        geometry_seed=3,
        total_measurements=60,
        exploit_start=30,
        critic_refit_period=15,
        critic_rank=2,
        train_iters=150,
        ax_points=3,
        ay_points=5,
        b_points=5,
        n_sweep=(0, 4),
        search_subcarriers=32,
        heatmap_x_min_m=1.8,
        heatmap_x_max_m=2.2,
        heatmap_y_min_m=-2.2,
        heatmap_y_max_m=-1.8,
        heatmap_resolution_m=0.2,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def decimated_indices(K, target):
    # the bins decimate_channel keeps, read back from a channel whose bin
    # k sits at k + 1 Hz
    H = ChannelMatrix(coeffs=np.zeros((1, K), complex), freqs_hz=np.arange(1.0, K + 1))
    return decimate_channel(H, target).freqs_hz.astype(int) - 1


def test_decimated_indices():
    idx = decimated_indices(2048, target=128)
    assert idx.size == 128
    assert idx[0] == 0 and idx[-1] == 2032
    assert np.all(np.diff(idx) == 16)
    # small K keeps every bin
    assert decimated_indices(12, target=128).size == 12
    assert decimated_indices(64, target=128).size == 64


def test_decimate_channel_slices_consistently():
    ec = tiny_config()
    geom = build_geometry(ec)
    cfg = build_system(ec)
    H = build_channel(ec, geom, cfg)
    H_dec = decimate_channel(H, target=16)
    assert H_dec.num_subcarriers == 16
    assert np.array_equal(H_dec.coeffs[:, 0], H.coeffs[:, 0])


def test_run_profile_oracle_outputs(tmp_path):
    ec = tiny_config()
    files = run_profile(ec, tmp_path, oracle=True)
    names = {p.name for p in files}
    assert names == {"profile_N0.csv", "profile_N4.csv", "summary.csv"}
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    header_end = max(i for i, ln in enumerate(summary) if ln.startswith("#"))
    assert summary[header_end + 1] == "N,three_db_bandwidth_hz,avg_amplitude_gain,gap_to_pdf_db"
    rows = summary[header_end + 2 :]
    assert len(rows) == 2
    assert rows[0].split(",")[0] == "0"
    # every output embeds the reproducibility stamp
    for path in files:
        assert path.read_text().startswith("# system.M = 16")


def test_run_profile_learned_deterministic(tmp_path):
    ec = tiny_config(total_measurements=40, exploit_start=20, critic_refit_period=20)
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_profile(ec, a, oracle=False)
    run_profile(ec, b, oracle=False)
    for name in ("profile_N0.csv", "profile_N4.csv", "summary.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gain_map_single_point_matches_gain_profile():
    ec = tiny_config()
    geom = build_geometry(ec)
    cfg = build_system(ec)
    cb = build_codebook(ec)
    ue = build_ue(ec)
    H = build_channel(ec, geom, cfg)
    cc = pdf_oracle(geom, ue, H, cfg, cb)
    gp = gain_profile(cc, H, cfg)
    for k in (0, 31, 63):
        f = H.freqs_hz[k]
        w = effective_combiner(cc, cfg, f)
        val = gain_map(geom, w, f, np.array([ue.x]), np.array([ue.y]))
        assert val.shape == (1, 1)
        assert val[0, 0] == pytest.approx(gp.per_subcarrier[k], rel=1e-10)


def test_gain_map_flat_amplitude_rho_matches_gain_profile():
    ec = tiny_config(rho_mode="flat_amplitude")
    geom = build_geometry(ec)
    cfg = build_system(ec)
    cb = build_codebook(ec)
    ue = build_ue(ec)
    H = build_channel(ec, geom, cfg)
    cc = pdf_oracle(geom, ue, H, cfg, cb)
    gp = gain_profile(cc, H, cfg)
    for k in (0, 31, 63):
        f = H.freqs_hz[k]
        w = effective_combiner(cc, cfg, f)
        rho_factor = f / cfg.center_freq_hz
        val = gain_map(geom, w, f, np.array([ue.x]), np.array([ue.y]), rho_factor=rho_factor)
        assert val[0, 0] == pytest.approx(gp.per_subcarrier[k], rel=1e-12)


@pytest.mark.parametrize("M", [16, 256])
def test_blocked_gain_map_equals_one_shot_formula(M):
    ec = tiny_config(num_antennas=M, num_td_units=16)
    geom = build_geometry(ec)
    cfg = build_system(ec)
    H = build_channel(ec, geom, cfg)
    cc = pdf_oracle(geom, build_ue(ec), H, cfg, build_codebook(ec))
    xs, ys = np.linspace(0.5, 4.0, 37), np.linspace(-4.0, 4.0, 41)
    assert (xs.size * ys.size) % GAIN_MAP_BLOCK != 0
    for f, rho_factor in ((H.freqs_hz[0], 1.0), (H.freqs_hz[-1], 1.3)):
        w = effective_combiner(cc, cfg, f)
        gx, gy = np.meshgrid(xs, ys)
        elem_y = 0.5 * geom.aperture * geom.alphas
        d = np.hypot(gx.ravel()[:, None], elem_y[None, :] - gy.ravel()[:, None])
        want = (np.abs(spherical_wave(d, f, rho_factor) @ np.conj(w)) ** 2).reshape(gx.shape)
        assert np.array_equal(gain_map(geom, w, f, xs, ys, rho_factor=rho_factor), want)


def test_gain_map_stacked_frequencies_equal_single_calls():
    ec = tiny_config(rho_mode="flat_amplitude")
    geom = build_geometry(ec)
    cfg = build_system(ec)
    H = build_channel(ec, geom, cfg)
    cc = pdf_oracle(geom, build_ue(ec), H, cfg, build_codebook(ec))
    freqs = H.freqs_hz[[0, 31, 63]]
    rho = freqs / cfg.center_freq_hz
    w = np.array([effective_combiner(cc, cfg, f) for f in freqs])
    xs, ys = np.linspace(0.5, 4.0, 37), np.linspace(-4.0, 4.0, 41)
    maps = gain_map(geom, w, freqs, xs, ys, rho_factor=rho)
    assert maps.shape == (3, ys.size, xs.size)
    for wf, f, r, got in zip(w, freqs, rho, maps):
        assert np.array_equal(got, gain_map(geom, wf, f, xs, ys, rho_factor=r))


def test_run_heatmap_computes_each_block_distances_once(tmp_path, monkeypatch):
    ec = tiny_config()
    geom = build_geometry(ec)
    cfg = build_system(ec)
    H = build_channel(ec, geom, cfg)
    cc = pdf_oracle(geom, build_ue(ec), H, cfg, build_codebook(ec))
    calls = {"gain_map": 0, "point_distances": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cli, "gain_map", counted("gain_map", cli.gain_map))
    monkeypatch.setattr(cli, "point_distances", counted("point_distances", cli.point_distances))
    ec = replace(ec, heatmap_resolution_m=0.01)
    files = run_heatmap(ec, tmp_path, cc, cfg, [H.freqs_hz[0], H.freqs_hz[31], H.freqs_hz[-1]])
    assert len(files) == 3
    xs, ys = cli._heatmap_axes(ec)
    blocks = -(-(xs.size * ys.size) // GAIN_MAP_BLOCK)
    assert blocks > 1
    assert calls == {"gain_map": 1, "point_distances": blocks}


def test_run_heatmap_files(tmp_path):
    ec = tiny_config()
    geom = build_geometry(ec)
    cfg = build_system(ec)
    cb = build_codebook(ec)
    ue = build_ue(ec)
    H = build_channel(ec, geom, cfg)
    cc = pdf_oracle(geom, ue, H, cfg, cb)
    freqs = [H.freqs_hz[0], H.freqs_hz[-1]]
    files = run_heatmap(ec, tmp_path, cc, cfg, freqs, label="hm")
    assert len(files) == 2
    text = files[0].read_text()
    assert "# ue_m = 2.0 -2.0" in text
    data_lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert len(data_lines) == 3  # y axis: -2.2, -2.0, -1.8
    assert len(data_lines[0].split(",")) == 3


# every output file's stamp header repeats these lines, in this order
PRINT_DEFAULTS = """\
system.M = 256
system.N = 16
system.K = 2048
system.center_freq_hz = 100000000000.0
system.bandwidth_hz = 10000000000.0
system.ps_bits = 3
system.tau_max_s = auto
system.tx_power_w = 1.0
system.noise_power_w = 0.0
geometry.kind = random
geometry.seed = 1
geometry.aperture_m = auto
ue.x_m = 2.0
ue.y_m = -2.0
channel.rho = unit
learner.total_measurements = 5000
learner.perturb_count = auto
learner.critic_refit_period = 1000
learner.exploit_start = 2000
learner.critic_rank = 4
learner.train_iters = 1500
learner.seed = 0
grid.ax_points = 9
grid.ay_points = 17
grid.b_points = 17
noise.mode = noiseless
noise.snapshots = 10000
profile.n_sweep = 0,8,16
profile.search_subcarriers = 128
heatmap.x_min_m = 0.5
heatmap.x_max_m = 4.0
heatmap.y_min_m = -4.0
heatmap.y_max_m = 4.0
heatmap.resolution_m = 0.05
output.dir = out
"""


def test_cli_print_defaults(capsys):
    assert main(["print-defaults"]) == 0
    out = capsys.readouterr().out
    assert out == emit_config(ExperimentConfig())
    assert out == PRINT_DEFAULTS


def test_cli_profile_end_to_end(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        "\n".join(
            [
                "system.M = 16",
                "system.N = 4",
                "system.K = 32",
                "geometry.kind = uniform",
                "profile.n_sweep = 0,4",
                "grid.ax_points = 3",
                "grid.ay_points = 3",
                "grid.b_points = 3",
                f"output.dir = {tmp_path / 'out'}",
            ]
        )
        + "\n"
    )
    rc = main(["--config", str(cfg_path), "profile", "--oracle"])
    assert rc == 0
    assert (tmp_path / "out" / "summary.csv").exists()


def test_cli_learn_and_search(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        "\n".join(
            [
                "system.M = 8",
                "system.N = 2",
                "system.K = 16",
                "learner.total_measurements = 30",
                "learner.exploit_start = 15",
                "learner.critic_refit_period = 15",
                "learner.critic_rank = 2",
                "learner.train_iters = 100",
                "profile.n_sweep = 0,2",
                "grid.ax_points = 2",
                "grid.ay_points = 3",
                "grid.b_points = 3",
            ]
        )
        + "\n"
    )
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out), "learn"]) == 0
    # learn prints each file it writes, and nothing else
    printed = capsys.readouterr().out.splitlines()
    assert sorted(printed) == sorted(str(p) for p in out.iterdir())
    assert {Path(p).name for p in printed} == {"history.csv", "combiner_learned.txt", "critic.txt"}
    # stamped outputs still parse
    from beamfocus.combiner import load_combiner

    cc, cb = load_combiner(out / "combiner_learned.txt")
    assert cc.theta.size == 8 and cb.bits == 3
    assert (out / "combiner_learned.txt").read_text().startswith("# system.M = 8")
    assert (
        main(
            [
                "--config",
                str(cfg_path),
                "--out",
                str(out),
                "search-delays",
                "--combiner",
                str(out / "combiner_learned.txt"),
            ]
        )
        == 0
    )
    assert (out / "search_trace.csv").exists()
    assert (out / "combiner_final.txt").exists()


def test_cli_heatmap_oracle(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        "\n".join(
            [
                "system.M = 8",
                "system.N = 2",
                "system.K = 16",
                "profile.n_sweep = 0,2",
                "heatmap.x_min_m = 1.9",
                "heatmap.x_max_m = 2.1",
                "heatmap.y_min_m = -2.1",
                "heatmap.y_max_m = -1.9",
                "heatmap.resolution_m = 0.1",
            ]
        )
        + "\n"
    )
    out = tmp_path / "hm"
    rc = main(
        ["--config", str(cfg_path), "--out", str(out), "heatmap", "--source", "pdf-oracle"]
    )
    assert rc == 0
    assert len(list(out.glob("heatmap_pdf-oracle_f*.csv"))) == 3


@pytest.mark.parametrize("freqs", ["x", "-1e9", "0", "nan", "1e11,inf"])
def test_cli_heatmap_rejects_bad_freqs_before_building(tmp_path, capsys, monkeypatch, freqs):
    cfg_path = write_m16_config(tmp_path / "exp.cfg")
    monkeypatch.setattr(cli, "build_geometry", None)  # building would raise TypeError
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out), "heatmap", f"--freqs={freqs}"]) == 2
    assert capsys.readouterr().err.startswith("config error: --freqs: ")
    assert not out.exists()


# K=1 has one bin for all three edge/center frequencies; at K=2 the center
# bin ties to the lower edge
@pytest.mark.parametrize("K, files", [(1, 1), (2, 2)])
def test_cli_heatmap_writes_each_frequency_once(tmp_path, capsys, K, files):
    cfg_path = write_m16_config(
        tmp_path / "exp.cfg", f"system.K = {K}", "heatmap.resolution_m = 0.5"
    )
    out = tmp_path / "hm"
    assert main(["--config", str(cfg_path), "--out", str(out), "heatmap"]) == 0
    printed = capsys.readouterr().out.split()
    assert len(printed) == files
    assert sorted(printed) == sorted(str(path) for path in out.iterdir())


def test_cli_mnp_violation_is_a_config_error(tmp_path, capsys):
    for line in ("system.N = 3", "profile.n_sweep = 0,3"):
        cfg_path = write_m16_config(tmp_path / "exp.cfg", line)
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), "profile"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "M = N*P violated" in err


def test_cli_config_error_exit_code(tmp_path):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("system.M = 255\nsystem.N = 8\n")
    assert main(["--config", str(cfg_path), "profile", "--oracle"]) == 2


@pytest.mark.parametrize("bits", [5, 6, 8])
def test_cli_learn_history_digits_decode_to_the_learned_phases(tmp_path, bits):
    cfg_path = write_m16_config(tmp_path / "exp.cfg", f"system.ps_bits = {bits}")
    out = tmp_path / "learn"
    assert main(["--config", str(cfg_path), "--out", str(out), "learn"]) == 0
    rows = [ln.split(",") for ln in (out / "history.csv").read_text().splitlines()]
    rows = rows[rows.index(["iter", "measured_power", "best_power", "phase_indices"]) + 1 :]
    best = rows[int(np.argmax([float(row[1]) for row in rows]))][3]
    width = (bits + 3) // 4  # hex digits per antenna
    assert len(best) == 16 * width
    history_idx = [int(best[i : i + width], 16) for i in range(0, len(best), width)]
    theta_line = next(
        ln
        for ln in (out / "combiner_learned.txt").read_text().splitlines()
        if ln.startswith("theta_idx ")
    )
    assert history_idx == [int(tok) for tok in theta_line.split()[1:]]


def test_cli_combiner_file_must_match_system_m(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        "system.M = 16\nsystem.N = 4\nsystem.K = 16\n"
        "grid.ax_points = 2\ngrid.ay_points = 3\ngrid.b_points = 3\n"
    )
    eight = tmp_path / "combiner_m8.txt"
    save_combiner(CombinerConfig(theta=np.zeros(8), tau=np.zeros(4)), PhaseCodebook(3), eight)
    for cmd in (["search-delays"], ["heatmap", "--freqs", "1e11"]):
        out = tmp_path / cmd[0]
        argv = ["--config", str(cfg_path), "--out", str(out), *cmd, "--combiner", str(eight)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: combiner file")
        assert not out.exists()


def test_cli_rejects_geometry_and_user_that_fail_after_parsing(tmp_path, capsys):
    assert_rejected(tmp_path, capsys, "ue.", ("ue.x_m = -1.0",), "search-delays")
    assert_rejected(tmp_path, capsys, "geometry.", ("geometry.aperture_m = 0.0",), "search-delays")
    assert_rejected(tmp_path, capsys, "geometry.", ("geometry.seed = -1",), "heatmap")


@pytest.mark.parametrize("cmd", [["search-delays"], ["heatmap", "--freqs", "1e11"]])
def test_cli_combiner_file_errors_are_config_errors(tmp_path, capsys, cmd):
    cfg_path = write_m16_config(tmp_path / "exp.cfg")
    text = combiner_to_text(
        CombinerConfig(theta=np.zeros(16), tau=np.zeros(4)), PhaseCodebook(3)
    )
    assert "theta_idx 3 " in text
    broken = {
        "no_tau.txt": "".join(ln for ln in text.splitlines(True) if not ln.startswith("tau_ps")),
        "bad_index.txt": text.replace("theta_idx 3 ", "theta_idx 8 "),
        "bad_bits.txt": text.replace("ps_bits 3", "ps_bits x"),
    }
    paths = [tmp_path / "missing.txt"]
    for name, body in broken.items():
        paths.append(tmp_path / name)
        paths[-1].write_text(body)
    out = tmp_path / "out"
    for path in paths:
        argv = ["--config", str(cfg_path), "--out", str(out), *cmd, "--combiner", str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: --combiner: ")
        assert not out.exists()


# M=16, K=16 with a small grid and budget: every command finishes in well
# under a second
M16_KEYS = (
    "system.M = 16",
    "system.N = 4",
    "system.K = 16",
    "learner.total_measurements = 30",
    "learner.exploit_start = 15",
    "learner.critic_refit_period = 15",
    "learner.critic_rank = 2",
    "learner.train_iters = 20",
    "grid.ax_points = 2",
    "grid.ay_points = 3",
    "grid.b_points = 3",
)
NOISY_KEYS = ("noise.mode = snapshots", "noise.snapshots = 100", "system.noise_power_w = 1e-9")


def write_m16_config(path, *extra):
    path.write_text("\n".join([*M16_KEYS, *extra]) + "\n")
    return path


def assert_rejected(tmp_path, capsys, key, lines, cmd, flags=(), cmd_flags=()):
    cfg_path = write_m16_config(tmp_path / "exp.cfg", *lines)
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out), *flags, cmd, *cmd_flags]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}")
    assert not out.exists()


def test_cli_rejects_zero_snapshots(tmp_path, capsys):
    lines = (*NOISY_KEYS, "noise.snapshots = 0")
    assert_rejected(tmp_path, capsys, "noise.snapshots", lines, "learn")


def test_cli_rejects_negative_noise_power(tmp_path, capsys):
    lines = ("noise.mode = snapshots", "system.noise_power_w = -1e-9")
    assert_rejected(tmp_path, capsys, "system.", lines, "search-delays")


def test_cli_rejects_learner_range_errors(tmp_path, capsys):
    for line, key in (
        ("learner.total_measurements = 0", "learner.total_measurements: "),
        ("learner.exploit_start = 31", "learner.exploit_start: "),  # the budget is 30
        ("learner.critic_refit_period = 0", "learner.critic_refit_period: "),
        ("learner.perturb_count = -1", "learner.perturb_count: "),
        ("learner.critic_rank = 0", "learner.critic_rank: "),
        ("learner.train_iters = 0", "learner.train_iters: "),
        ("learner.seed = -1", "learner.seed: "),
    ):
        assert_rejected(tmp_path, capsys, key, (line,), "learn")
    for axis in ("ax", "ay", "b"):
        key = f"grid.{axis}_points"
        assert_rejected(tmp_path, capsys, key + ": ", (f"{key} = 0",), "search-delays")
    # the --seed override is checked as a config value too
    assert_rejected(tmp_path, capsys, "learner.seed: ", (), "learn", flags=("--seed", "-1"))
    # the edges of the ranges are accepted
    for line in ("learner.perturb_count = 0", "learner.exploit_start = 30"):
        cfg_path = write_m16_config(tmp_path / "exp.cfg", line)
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "ok"), "learn"]) == 0


def test_cli_rejects_profile_values_that_run_silently_wrong(tmp_path, capsys):
    # a repeated sweep entry would write its profile file twice and its
    # summary row twice; fewer than one search bin would score 16 bins
    for line, key in (
        ("profile.n_sweep = 0,4,4", "profile.n_sweep: "),
        ("profile.n_sweep =", "profile.n_sweep: "),  # no entry: a header-only summary
        ("profile.search_subcarriers = 0", "profile.search_subcarriers: "),
        ("profile.search_subcarriers = -5", "profile.search_subcarriers: "),
    ):
        for flags in ((), ("--oracle",)):
            assert_rejected(tmp_path, capsys, key, (line,), "profile", cmd_flags=flags)


def test_cli_rejects_the_removed_fit_keys(tmp_path, capsys):
    # the critic fit takes no learning rate or batch size; a file that sets
    # one is refused before anything runs
    lineno = len(M16_KEYS) + 1  # the line after the M16 keys
    for key in ("learner.train_lr", "learner.train_batch"):
        expected = f"line {lineno}: unknown key '{key}'"
        assert_rejected(tmp_path, capsys, expected, (f"{key} = 1",), "learn")


def test_noisy_measure_callbacks_draw_fresh_noise():
    ec = tiny_config(noise_mode="snapshots", noise_power_w=1e-9, snapshots=100)
    cfg = build_system(ec)
    H = build_channel(ec, build_geometry(ec), cfg)
    center = make_center_measure(ec, H, cfg)
    phases = np.zeros(cfg.num_antennas)
    assert center(phases) != center(phases)
    profile = make_profile_measure(ec, decimate_channel(H, target=16), cfg)
    cc = CombinerConfig(theta=phases, tau=np.zeros(cfg.num_td_units))
    assert not np.array_equal(profile(cc), profile(cc))
    # a fresh callback replays its stream from learner.seed
    assert make_center_measure(ec, H, cfg)(phases) == make_center_measure(ec, H, cfg)(phases)


@pytest.mark.parametrize("M", [16, 256])
def test_center_measure_equals_the_gain_profile_kernel(M):
    # the center callback's vdot and gain_profile's sub-array-factored
    # kernel agree on random codebook beams
    ec = tiny_config(num_antennas=M)
    cfg = build_system(ec)
    H = build_channel(ec, build_geometry(ec), cfg)
    k = center_bin(H.freqs_hz, cfg.center_freq_hz)
    measure = make_center_measure(ec, H, cfg)
    cb = build_codebook(ec)
    rng = np.random.default_rng(M)
    for _ in range(20):
        phases = cb.values[rng.integers(0, cb.size, M)]
        cc = CombinerConfig(theta=phases, tau=np.zeros(cfg.num_td_units))
        expected = cfg.tx_power_w / cfg.num_subcarriers * gain_profile(cc, H, cfg).per_subcarrier[k]
        assert measure(phases) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_noisy_center_measure_is_one_measure_power_draw():
    # each call is one measure_power draw on the center-bin signal power from
    # the stream keyed (learner.seed, 0), minus the noise floor, clipped at 0
    sigma2 = 1e-9
    ec = tiny_config(noise_mode="snapshots", noise_power_w=sigma2, snapshots=3, learner_seed=5)
    cfg = build_system(ec)
    H = build_channel(ec, build_geometry(ec), cfg)
    k = center_bin(H.freqs_hz, cfg.center_freq_hz)
    measure = make_center_measure(ec, H, cfg)
    rng = np.random.default_rng(np.random.SeedSequence(ec.learner_seed, spawn_key=(0,)))
    cb = build_codebook(ec)
    beams = np.random.default_rng(1)
    clipped = 0
    for _ in range(50):
        phases = cb.values[beams.integers(0, cb.size, cfg.num_antennas)]
        cc = CombinerConfig(theta=phases, tau=np.zeros(cfg.num_td_units))
        signal = cfg.tx_power_w / cfg.num_subcarriers * gain_profile(cc, H, cfg).per_subcarrier[k]
        expected = max(measure_power(signal, cfg, ec.snapshots, rng) - sigma2, 0.0)
        got = measure(phases)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12 * sigma2)
        clipped += got == 0.0
    assert 0 < clipped < 50  # both sides of the clip are exercised


def test_profile_noise_stream_is_keyed_by_td_count():
    ec = tiny_config(noise_mode="snapshots", noise_power_w=1e-9, snapshots=100)
    H_dec = decimate_channel(build_channel(ec, build_geometry(ec), build_system(ec)), target=16)
    phases = np.zeros(ec.num_antennas)
    powers = {}
    for n in (4, 8):
        cfg_n = build_system(ec, num_td_units=n)
        cc = CombinerConfig(theta=phases, tau=np.zeros(n))
        powers[n] = make_profile_measure(ec, H_dec, cfg_n)(cc)
        # a fresh callback for the same N replays its stream
        assert np.array_equal(make_profile_measure(ec, H_dec, cfg_n)(cc), powers[n])
    # one beam, two searches of one sweep: different noise, not only the
    # last bits that the N-dependent sub-array sums change
    assert not np.allclose(powers[4], powers[8], rtol=1e-6, atol=0.0)


def test_cli_noisy_profile_reproduces(tmp_path):
    cfg_path = write_m16_config(tmp_path / "exp.cfg", *NOISY_KEYS, "profile.n_sweep = 0,2,4")

    def run(name):
        out = tmp_path / name
        assert main(["--config", str(cfg_path), "--out", str(out), "profile"]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    first = run("a")
    assert set(first) == {"profile_N0.csv", "profile_N2.csv", "profile_N4.csv", "summary.csv"}
    assert run("b") == first


def test_failed_writer_leaves_no_partial_file(tmp_path, monkeypatch):
    path = tmp_path / "kept.csv"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with write_atomic(path) as fh:
            fh.write("new, partial")
            raise RuntimeError("writer failed")
    assert path.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [path]

    # a CLI writer that fails after its header and first row
    def bad_gain_map(geom, w, freq_hz, *args, **kwargs):
        one_map = [[1.0, 2.0], [3.0, "not a number"]]
        return np.array([one_map] * len(freq_hz), dtype=object)

    monkeypatch.setattr(cli, "gain_map", bad_gain_map)
    cfg_path = write_m16_config(tmp_path / "exp.cfg")
    out = tmp_path / "maps"
    with pytest.raises(ValueError):
        main(["--config", str(cfg_path), "--out", str(out), "heatmap", "--source", "pdf-oracle"])
    assert list(out.iterdir()) == []


def test_cli_noisy_search_reproduces_per_seed(tmp_path):
    cfg_path = write_m16_config(tmp_path / "exp.cfg", *NOISY_KEYS)

    def run(name, *flags):
        out = tmp_path / name
        assert main(["--config", str(cfg_path), "--out", str(out), *flags, "search-delays"]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    first = run("a")
    assert set(first) == {"search_trace.csv", "combiner_final.txt"}
    assert run("b") == first

    def data_lines(files):
        return [ln for ln in files["search_trace.csv"].splitlines() if not ln.startswith(b"#")]

    # beyond the stamped learner.seed, the measured scores differ
    assert data_lines(run("c", "--seed", "7")) != data_lines(first)


# values on both sides of each key's valid range
FUZZ_KEYS = {
    "noise.mode": st.sampled_from(["noiseless", "snapshots"]),
    "noise.snapshots": st.integers(0, 300).map(str),
    "system.noise_power_w": st.sampled_from(["-1e-9", "0", "1e-12", "1e-9", "1.0", "nan"]),
    "learner.total_measurements": st.integers(0, 60).map(str),
    "learner.perturb_count": st.one_of(st.just("auto"), st.integers(-1, 40).map(str)),
    "learner.critic_refit_period": st.integers(0, 40).map(str),
    "learner.exploit_start": st.integers(0, 60).map(str),
    "learner.critic_rank": st.integers(0, 20).map(str),
    "learner.train_iters": st.integers(0, 30).map(str),
    "learner.seed": st.integers(-1, 2**64).map(str),
}


@settings(deadline=None, max_examples=60)
@given(st.fixed_dictionaries({}, optional=FUZZ_KEYS))
def test_every_accepted_config_runs_learn_and_search(keys):
    text = "\n".join([*M16_KEYS, *(f"{k} = {v}" for k, v in keys.items())]) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "exp.cfg"
        cfg_path.write_text(text)
        try:
            parse_config_text(text)
        except ConfigError:
            assert main(["--config", str(cfg_path), "--out", tmp + "/out", "learn"]) == 2
            return
        for cmd in ("learn", "search-delays"):
            assert main(["--config", str(cfg_path), "--out", f"{tmp}/{cmd}", cmd]) == 0


GRID_HEATMAP_KEYS = {
    "grid.ax_points": st.integers(-1, 6).map(str),
    "grid.ay_points": st.integers(-1, 6).map(str),
    "grid.b_points": st.integers(-1, 6).map(str),
    "heatmap.x_min_m": st.floats(-1.0, 3.0).map(str),
    "heatmap.x_max_m": st.floats(-1.0, 4.0).map(str),
    "heatmap.y_min_m": st.floats(-3.0, 3.0).map(str),
    "heatmap.y_max_m": st.floats(-3.0, 3.0).map(str),
    "heatmap.resolution_m": st.one_of(
        st.sampled_from(["0", "-0.1", "nan", "inf"]), st.floats(0.05, 5.0).map(str)
    ),
}


@settings(deadline=None, max_examples=25)
@given(st.fixed_dictionaries({}, optional=GRID_HEATMAP_KEYS))
def test_every_accepted_config_runs_search_and_heatmap(keys):
    text = "\n".join([*M16_KEYS, *(f"{k} = {v}" for k, v in keys.items())]) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "exp.cfg"
        cfg_path.write_text(text)
        try:
            parse_config_text(text)
        except ConfigError:
            assert main(["--config", str(cfg_path), "--out", tmp + "/out", "search-delays"]) == 2
            return
        for cmd in (["search-delays"], ["heatmap", "--source", "pdf-oracle"]):
            assert main(["--config", str(cfg_path), "--out", f"{tmp}/{cmd[0]}", *cmd]) == 0


# values on both sides of each key's valid range; M and K stay at most 32
SYSTEM_GEOMETRY_UE_KEYS = {
    "system.M": st.sampled_from(["2", "4", "8", "16", "24", "32", "-4", "0", "1"]),
    "system.N": st.sampled_from(["1", "2", "4", "8", "3", "33", "0"]),
    "system.K": st.integers(0, 32).map(str),
    "system.center_freq_hz": st.sampled_from(["1e11", "3e10", "1e9", "0", "-1e9"]),
    "system.bandwidth_hz": st.sampled_from(["1e10", "1e8", "0", "2e11", "-1e9"]),
    "system.ps_bits": st.integers(0, 10).map(str),
    "system.tau_max_s": st.sampled_from(["auto", "1e-9", "1e-12", "0", "-1e-12"]),
    "system.tx_power_w": st.sampled_from(["1", "1e3", "0", "-1"]),
    "geometry.kind": st.sampled_from(["random", "uniform", "grid"]),
    "geometry.seed": st.integers(-1, 2**64).map(str),
    "geometry.aperture_m": st.one_of(
        st.floats(-0.05, 0.5).map(str), st.sampled_from(["auto", "0", "-0.01"])
    ),
    "ue.x_m": st.one_of(st.floats(-1.0, 3.0).map(str), st.sampled_from(["0", "-1"])),
    "ue.y_m": st.floats(-3.0, 3.0).map(str),
    "channel.rho": st.sampled_from(["unit", "flat_amplitude", "bogus"]),
}


@settings(deadline=None, max_examples=60)
@given(st.fixed_dictionaries({}, optional=SYSTEM_GEOMETRY_UE_KEYS))
@example({"ue.x_m": "-1.0"})
@example({"geometry.aperture_m": "0.0"})
@example({"system.ps_bits": "10"})
@example({"system.N": "3"})
@example({"system.K": "1", "system.bandwidth_hz": "0"})
@example({"system.K": "1", "system.bandwidth_hz": "1e9"})
def test_every_accepted_system_config_runs_every_command(keys):
    lines = [*M16_KEYS, "profile.n_sweep = 0", *(f"{k} = {v}" for k, v in keys.items())]
    text = "\n".join(lines) + "\n"
    cmds = [["search-delays"], ["heatmap", "--source", "pdf-oracle"], ["learn"]]
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "exp.cfg"
        cfg_path.write_text(text)
        try:
            parse_config_text(text)
        except ConfigError:
            for cmd in cmds:
                assert main(["--config", str(cfg_path), "--out", f"{tmp}/{cmd[0]}", *cmd]) == 2
            return
        for cmd in cmds:
            assert main(["--config", str(cfg_path), "--out", f"{tmp}/{cmd[0]}", *cmd]) == 0


def test_cli_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "beamfocus", "print-defaults"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "system.M = 256" in proc.stdout
