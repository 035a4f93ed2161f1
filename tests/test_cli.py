import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamfocus import channel, cli, sim
from beamfocus.cli import SEARCH_SUBCARRIERS, decimate_channel, main, run_heatmap, run_profile
from beamfocus.baselines import pdf_oracle
from beamfocus.channel import (
    GAIN_MAP_BLOCK,
    ChannelMatrix,
    gain_map,
)
from beamfocus.combiner import (
    CombinerConfig,
    PhaseCodebook,
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
from beamfocus.sim import (
    center_bin,
    gain_profile,
    make_center_measure,
    measure_power,
)
from tiny_scenario import tiny_config


def decimated_indices(K):
    # the bins decimate_channel keeps, read back from a channel whose bin
    # k sits at k + 1 Hz
    H = ChannelMatrix(coeffs=np.zeros((1, K), complex), freqs_hz=np.arange(1.0, K + 1))
    return decimate_channel(H).freqs_hz.astype(int) - 1


def test_decimated_indices():
    idx = decimated_indices(2048)
    assert idx.size == SEARCH_SUBCARRIERS == 128
    assert idx[0] == 0 and idx[-1] == 2032
    assert np.all(np.diff(idx) == 16)
    # K below 2 * SEARCH_SUBCARRIERS keeps every bin
    assert decimated_indices(12).size == 12
    assert decimated_indices(255).size == 255
    # any K keeps at least min(K, SEARCH_SUBCARRIERS) evenly spaced bins from bin 0
    for K in range(1, 4097):
        idx = decimated_indices(K)
        assert idx.size >= min(K, SEARCH_SUBCARRIERS)
        assert idx[0] == 0 and idx[-1] < K
        assert np.unique(np.diff(idx)).size <= 1


def test_decimate_channel_slices_consistently():
    ec = tiny_config(num_subcarriers=4 * SEARCH_SUBCARRIERS)
    geom = build_geometry(ec)
    cfg = build_system(ec)
    H = build_channel(ec, geom, cfg)
    H_dec = decimate_channel(H)
    assert H_dec.num_subcarriers == SEARCH_SUBCARRIERS
    assert np.array_equal(H_dec.coeffs, H.coeffs[:, ::4])
    assert np.array_equal(H_dec.freqs_hz, H.freqs_hz[::4])


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


def test_failed_run_leaves_no_output_directory(tmp_path, monkeypatch):
    # the last search of the sweep fails after N = 0 and N = 4 are done
    calls = []
    search = cli.search_pipeline

    def failing_search(*args):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("search failed")
        return search(*args)

    monkeypatch.setattr(cli, "search_pipeline", failing_search)
    out = tmp_path / "profile"
    with pytest.raises(RuntimeError, match="search failed"):
        run_profile(tiny_config(n_sweep=(0, 4, 8)), out)
    assert len(calls) == 2 and not out.exists()

    def failing_map(*args, **kwargs):
        raise RuntimeError("map failed")

    monkeypatch.setattr(cli, "gain_map", failing_map)
    ec = tiny_config()
    cc = CombinerConfig(theta=np.zeros(16), tau=np.zeros(4))
    with pytest.raises(RuntimeError, match="map failed"):
        run_heatmap(ec, tmp_path / "maps", cc, build_system(ec), [1e11])
    assert not (tmp_path / "maps").exists()


def test_run_heatmap_computes_each_block_distances_once(tmp_path, monkeypatch):
    # each block's distances are computed once and shared by the phasors of
    # every frequency
    ec = tiny_config()
    geom = build_geometry(ec)
    cfg = build_system(ec)
    H = build_channel(ec, geom, cfg)
    cc = pdf_oracle(geom, build_ue(ec), H, cfg, build_codebook(ec))
    calls = {"gain_map": 0, "_block_distances": 0, "unit_phasors": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cli, "gain_map", counted("gain_map", cli.gain_map))
    for name in ("_block_distances", "unit_phasors"):
        monkeypatch.setattr(channel, name, counted(name, getattr(channel, name)))
    ec = replace(ec, heatmap_resolution_m=0.01)
    files = run_heatmap(ec, tmp_path, cc, cfg, [H.freqs_hz[0], H.freqs_hz[31], H.freqs_hz[-1]])
    assert len(files) == 3
    xs, ys = cli._heatmap_axes(ec)
    blocks = -(-(xs.size * ys.size) // GAIN_MAP_BLOCK)
    assert blocks > 1
    assert calls == {"gain_map": 1, "_block_distances": blocks, "unit_phasors": 3 * blocks}


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
    # one format per row writes what a per-value f-string loop writes
    xs, ys = np.linspace(1.8, 2.2, 3), np.linspace(-2.2, -1.8, 3)
    gains = gain_map(geom, cfg, effective_combiner(cc, cfg, freqs[0]), freqs[0], xs, ys)
    assert data_lines == [",".join(f"{g:.12g}" for g in row) for row in gains]


def test_run_heatmap_rejects_frequencies_sharing_a_file_name(tmp_path, monkeypatch):
    # checked before any map is computed or any directory made
    ec = tiny_config()
    cfg = build_system(ec)
    cc = CombinerConfig(theta=np.zeros(cfg.num_antennas), tau=np.zeros(cfg.num_td_units))
    monkeypatch.setattr(cli, "effective_combiner", None)  # calling either raises TypeError
    monkeypatch.setattr(cli, "gain_map", None)
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=r"^heatmap: .* would both write hm_f100GHz\.csv$"):
        run_heatmap(ec, out, cc, cfg, [1e11, 1.0000001e11], label="hm")
    assert not out.exists()


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
learner.critic_refit_period = 1000
learner.exploit_start = auto
learner.train_iters = 1500
learner.seed = 0
grid.ax_points = 9
grid.ay_points = 17
grid.b_points = 17
noise.mode = noiseless
noise.snapshots = 10000
profile.n_sweep = 0,8,16
heatmap.x_min_m = 0.5
heatmap.x_max_m = 4.0
heatmap.y_min_m = -4.0
heatmap.y_max_m = 4.0
heatmap.resolution_m = 0.05
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
            ]
        )
        + "\n"
    )
    rc = main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), "profile", "--oracle"])
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


@pytest.mark.parametrize("source", ["ps-oracle", "pdf-oracle", "learned"])
def test_cli_heatmap_oracle(tmp_path, source):
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
    assert main(["--config", str(cfg_path), "--out", str(out), "heatmap", "--source", source]) == 0
    got = {p.name: p.read_bytes() for p in out.glob(f"heatmap_{source}_f*.csv")}
    assert len(got) == 3
    if source == "learned":
        # the maps of the learned phases with the delays searched for them
        ec = parse_config_text(cfg_path.read_text())
        geom, cb, cfg, H = cli._scenario(ec)
        theta, _ = cli.learn_pipeline(ec, H, cfg, cb)
        result = cli.search_pipeline(ec, theta, geom, H, cfg, cb)
        cc = CombinerConfig(theta=result.theta, tau=result.tau)
        freqs = H.freqs_hz[[0, center_bin(H.freqs_hz, cfg.center_freq_hz), -1]]
        want = run_heatmap(ec, tmp_path / "want", cc, cfg, freqs, label="heatmap_learned")
        assert got == {p.name: p.read_bytes() for p in want}


def test_cli_heatmap_takes_a_source_or_a_combiner_file_not_both(tmp_path, capsys):
    cb = PhaseCodebook(3)
    save_combiner(CombinerConfig(theta=np.zeros(16), tau=np.zeros(4)), cb, tmp_path / "c.txt")
    cfg_path = write_m16_config(tmp_path / "exp.cfg")
    out = tmp_path / "out"
    argv = ["--config", str(cfg_path), "--out", str(out), "heatmap", "--source", "learned"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--combiner", str(tmp_path / "c.txt")])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("freqs", ["x", "-1e9", "0", "nan", "1e11,inf", "1e24"])
def test_cli_heatmap_rejects_bad_freqs_before_building(tmp_path, capsys, monkeypatch, freqs):
    # the default 256-element array, whose 1e24 Hz map would take phase
    # steps past the table index's integer cast
    cfg_path = write_m16_config(tmp_path / "exp.cfg", "system.M = 256")
    monkeypatch.setattr(cli, "build_geometry", None)  # building would raise TypeError
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out), "heatmap", f"--freqs={freqs}"]) == 2
    assert capsys.readouterr().err.startswith("config error: --freqs: ")
    assert not out.exists()


@pytest.mark.parametrize("resolution", ["1e-5", "1e-320"])
def test_cli_heatmap_rejects_an_oversized_grid_before_building(
    tmp_path, capsys, monkeypatch, resolution
):
    monkeypatch.setattr(cli, "build_geometry", None)  # building would raise TypeError
    lines = ("system.K = 64", f"heatmap.resolution_m = {resolution}")
    flags = ("--source", "pdf-oracle")
    assert_rejected(tmp_path, capsys, "heatmap.resolution_m: ", lines, "heatmap", cmd_flags=flags)


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


# a 1 kHz band puts every bin at "100GHz" in the file name; two --freqs
# entries 10 kHz apart do the same
@pytest.mark.parametrize(
    "keys, flags",
    [
        (("system.K = 8", "system.bandwidth_hz = 1000.0"), []),
        ((), ["--freqs", "1e11,1.0000001e11"]),
    ],
)
def test_cli_heatmap_rejects_frequencies_sharing_a_file_name(
    tmp_path, capsys, monkeypatch, keys, flags
):
    cfg_path = write_m16_config(tmp_path / "exp.cfg", *keys)
    monkeypatch.setattr(cli, "pdf_oracle", None)  # searching would raise TypeError
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out), "heatmap", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: heatmap: ")
    assert err.count(" Hz") == 2 and "heatmap_pdf-oracle_f100GHz.csv" in err
    assert not out.exists()


@pytest.mark.parametrize("cmd", [["profile"], ["profile", "--oracle"], ["search-delays"]])
def test_cli_prints_each_file_it_writes(tmp_path, capsys, cmd):
    cfg_path = write_m16_config(tmp_path / "exp.cfg", "profile.n_sweep = 0,4")
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out), *cmd]) == 0
    printed = capsys.readouterr().out.splitlines()
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
    # delays of 1 us, far above the aperture/c bound of an M=16 array
    slow = tmp_path / "combiner_1us.txt"
    save_combiner(CombinerConfig(theta=np.zeros(16), tau=np.full(4, 1e-6)), PhaseCodebook(3), slow)
    # phases saved at 4 bits under a 3-bit system.ps_bits
    four_bit = tmp_path / "combiner_4bit.txt"
    save_combiner(CombinerConfig(theta=np.zeros(16), tau=np.zeros(4)), PhaseCodebook(4), four_bit)
    # eight TD units under system.N = 4
    n8 = tmp_path / "combiner_n8.txt"
    save_combiner(CombinerConfig(theta=np.zeros(16), tau=np.zeros(8)), PhaseCodebook(3), n8)
    heatmap = ["heatmap", "--freqs", "1e11"]
    cases = [(["search-delays"], eight), (heatmap, eight), (heatmap, slow)]
    cases += [(["search-delays"], four_bit), (heatmap, four_bit)]
    cases += [(["search-delays"], slow), (["search-delays"], n8), (heatmap, n8)]
    for cmd, path in cases:
        out = tmp_path / cmd[0]
        argv = ["--config", str(cfg_path), "--out", str(out), *cmd, "--combiner", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: combiner file")
        if path == four_bit:
            assert "ps_bits 4" in err and "system.ps_bits is 3" in err
        assert not out.exists()


@pytest.mark.parametrize(
    "tau_max, saved",
    [
        (1.0000000006e-9, "1000.000001"),  # 0.4e-18 s above the bound
        (1.0000000005e-9, "1000.000000"),  # the round-half tie
    ],
)
def test_cli_heatmap_loads_a_combiner_rounded_above_tau_max(tmp_path, capsys, tau_max, saved):
    cfg_path = write_m16_config(
        tmp_path / "exp.cfg", f"system.tau_max_s = {tau_max!r}", "heatmap.resolution_m = 0.5"
    )
    path = tmp_path / "combiner.txt"
    save_combiner(CombinerConfig(theta=np.zeros(16), tau=np.full(4, tau_max)), PhaseCodebook(3), path)
    assert f"tau_ps {saved} " in path.read_text()
    out = tmp_path / "out"
    argv = ["--config", str(cfg_path), "--out", str(out), "heatmap", "--freqs", "1e11"]
    assert main([*argv, "--combiner", str(path)]) == 0
    assert capsys.readouterr().out.split() == [str(out / "heatmap_custom_f100GHz.csv")]


def test_cli_rejects_geometry_and_user_that_fail_after_parsing(tmp_path, capsys):
    assert_rejected(tmp_path, capsys, "ue.", ("ue.x_m = -1.0",), "search-delays")
    assert_rejected(tmp_path, capsys, "geometry.", ("geometry.aperture_m = 0.0",), "search-delays")
    assert_rejected(tmp_path, capsys, "geometry.", ("geometry.seed = -1",), "heatmap")


@pytest.mark.parametrize("cmd", [["search-delays"], ["heatmap", "--freqs", "1e11"]])
def test_cli_combiner_file_errors_are_config_errors(tmp_path, capsys, cmd):
    cfg_path = write_m16_config(tmp_path / "exp.cfg")
    good = tmp_path / "good.txt"
    save_combiner(CombinerConfig(theta=np.zeros(16), tau=np.zeros(4)), PhaseCodebook(3), good)
    text = good.read_text()
    assert "theta_idx 3 " in text
    broken = {
        "no_tau.txt": "".join(ln for ln in text.splitlines(True) if not ln.startswith("tau_ps")),
        "bad_index.txt": text.replace("theta_idx 3 ", "theta_idx 8 "),
        "bad_bits.txt": text.replace("ps_bits 3", "ps_bits x"),
        "bare_bits.txt": text.replace("ps_bits 3", "ps_bits"),
        "extra_bits.txt": text.replace("ps_bits 3", "ps_bits 3 4"),
        "repeated_field.txt": text + "theta_idx " + " ".join(["0"] * 16) + "\n",
        "unknown_field.txt": text + "tau_ns 5\n",
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
    "learner.train_iters = 20",
    "grid.ax_points = 2",
    "grid.ay_points = 3",
    "grid.b_points = 3",
)
NOISY_KEYS = ("noise.mode = snapshots", "noise.snapshots = 100", "system.noise_power_w = 1e-9")


def m16_text(*extra):
    # a config sets each key once, so a line replaces any earlier line
    # (an M16 key or an extra) that sets the same key
    keyed = {}
    for ln in "\n".join([*M16_KEYS, *extra]).splitlines():
        key = ln.partition("=")[0].strip()
        keyed.pop(key, None)
        keyed[key] = ln
    return "\n".join(keyed.values()) + "\n"


def write_m16_config(path, *extra):
    path.write_text(m16_text(*extra))
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


def test_cli_rejects_a_noise_power_under_which_the_measured_power_overflows(tmp_path, capsys):
    # at a subnormal noise power the largest center power over sigma^2 / 2S,
    # the noncentral parameter of sim.measure_power's draw, overflows: the
    # learner would fit nan powers, so construction rejects the config
    text = (
        "noise.mode = snapshots\nsystem.noise_power_w = 1e-310\n"
        "system.tx_power_w = 1000\nsystem.M = 16\nsystem.K = 32\n"
    )
    with pytest.raises(ConfigError, match=r"^system\.\*: .* over the snapshot noise overflows"):
        parse_config_text(text)
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out), "learn"]) == 2
    assert capsys.readouterr().err.startswith("config error: system.*: ")
    assert not out.exists()
    # ten orders of magnitude more noise keeps the ratio in range
    parse_config_text(text.replace("1e-310", "1e-300"))


def test_cli_rejects_learner_range_errors(tmp_path, capsys):
    for line, key in (
        ("learner.total_measurements = 0", "learner.total_measurements: "),
        # one beam, no fit and so no critic.txt to write
        (
            "learner.total_measurements = 1\nlearner.exploit_start = 1",
            "learner.total_measurements: must be at least 2, not 1",
        ),
        ("learner.exploit_start = 31", "learner.exploit_start: "),  # the budget is 30
        # a fit needs at least two beams
        ("learner.exploit_start = 1", "learner.exploit_start: must be at least 2, not 1"),
        ("learner.critic_refit_period = 0", "learner.critic_refit_period: "),
        ("learner.train_iters = 0", "learner.train_iters: "),
        ("learner.seed = -1", "learner.seed: "),
    ):
        assert_rejected(tmp_path, capsys, key, (line,), "learn")
    for axis in ("ax", "ay", "b"):
        key = f"grid.{axis}_points"
        assert_rejected(tmp_path, capsys, key + ": ", (f"{key} = 0",), "search-delays")
    # the --seed override is checked as a config value too
    assert_rejected(tmp_path, capsys, "learner.seed: ", (), "learn", flags=("--seed", "-1"))
    # the edge of the range is accepted
    cfg_path = write_m16_config(tmp_path / "exp.cfg", "learner.exploit_start = 30")
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "ok"), "learn"]) == 0


def test_cli_rejects_a_delay_grid_past_the_coarse_pass_bound(tmp_path, capsys):
    # 500,000,001 coarse positions on one axis would not fit in memory;
    # every command refuses them before it starts, profile before learning
    lines = ("grid.ax_points = 1000000001",)
    for cmd in ("search-delays", "profile", "learn"):
        assert_rejected(tmp_path, capsys, "grid.*: ", lines, cmd)
    # the largest accepted cube, 32^3 coarse rows, runs the coarse pass from
    # phases that focus nowhere (focus coherence 0.39)
    cb = PhaseCodebook(3)
    theta = cb.values[np.random.default_rng(5).integers(0, cb.size, 16)]
    save_combiner(CombinerConfig(theta=theta, tau=np.zeros(4)), cb, tmp_path / "random.txt")
    grid = (f"grid.{axis}_points = 63" for axis in ("ax", "ay", "b"))
    cfg_path = write_m16_config(tmp_path / "exp.cfg", *grid)
    out = tmp_path / "search"
    argv = ["--config", str(cfg_path), "--out", str(out), "search-delays"]
    assert main([*argv, "--combiner", str(tmp_path / "random.txt")]) == 0
    trace = (out / "search_trace.csv").read_text().splitlines()
    assert len([row for row in trace if not row.startswith("#")]) > 1 + 20_000


def test_cli_rejects_profile_values_that_run_silently_wrong(tmp_path, capsys):
    # a repeated sweep entry would write its profile file twice and its
    # summary row twice; an empty entry would be dropped from the sweep
    lineno = len(M16_KEYS) + 1  # the line after the M16 keys
    for line, key in (
        ("profile.n_sweep = 0,4,4", "profile.n_sweep: "),
        ("profile.n_sweep =", "profile.n_sweep: "),  # no entry: a header-only summary
        ("profile.n_sweep = 0,,4", f"line {lineno}: profile.n_sweep: bad value '0,,4'"),
        ("profile.n_sweep = 0,4,", f"line {lineno}: profile.n_sweep: bad value '0,4,'"),
    ):
        for flags in ((), ("--oracle",)):
            assert_rejected(tmp_path, capsys, key, (line,), "profile", cmd_flags=flags)


def test_cli_rejects_the_removed_fit_keys(tmp_path, capsys):
    # the critic fit takes no learning rate or batch size, and the critic is
    # one (M,) vector with no rank; the learner draws every phase of each
    # exploration beam, so no count of perturbed phases is set, the search's
    # scoring bins come from cli.SEARCH_SUBCARRIERS and the output directory
    # from --out. A file that sets one of these keys is refused before
    # anything runs, even at the old default rank 1
    lineno = len(M16_KEYS) + 1  # the line after the M16 keys
    removed = ("learner.train_lr", "learner.train_batch", "learner.critic_rank")
    later = ("learner.perturb_count", "profile.search_subcarriers", "output.dir")
    for key in (*removed, *later):
        expected = f"line {lineno}: unknown key '{key}'"
        assert_rejected(tmp_path, capsys, expected, (f"{key} = 1",), "learn")


def test_cli_rejects_a_key_set_twice(tmp_path, capsys):
    # the stamp could show only one of the two values, so neither is taken
    lines = ("system.N = 2", "system.M = 32", "# comments count as lines", "system.M = 16")
    path = tmp_path / "exp.cfg"
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), "learn"]) == 2
    assert capsys.readouterr().err == "config error: line 4: repeated key 'system.M'\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "cmd",
    [("learn",), ("profile", "--oracle"), ("search-delays",), ("heatmap", "--source", "pdf-oracle")],
)
def test_cli_rejects_an_output_path_that_names_a_file(tmp_path, capsys, monkeypatch, cmd):
    # refused before any work, whether the file (or a dangling link) is the
    # output path itself or an ancestor of it, or is the default ./out;
    # nothing is created
    afile, link = tmp_path / "afile", tmp_path / "link"
    afile.write_text("kept\n")
    link.symlink_to(tmp_path / "missing")
    cfg_path = write_m16_config(tmp_path / "exp.cfg")
    for out, blocker in ((afile, afile), (afile / "sub" / "dir", afile), (link, link)):
        assert main(["--config", str(cfg_path), "--out", str(out), *cmd]) == 2
        assert capsys.readouterr().err == f"config error: --out: '{blocker}' is not a directory\n"
    (tmp_path / "out").write_text("kept\n")
    monkeypatch.chdir(tmp_path)
    assert main(["--config", str(cfg_path), *cmd]) == 2
    assert capsys.readouterr().err == "config error: --out: 'out' is not a directory\n"
    assert afile.read_text() == (tmp_path / "out").read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "exp.cfg", "link", "out"]


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


@pytest.mark.parametrize("noise_mode", ["noiseless", "snapshots"])
def test_stacked_center_call_equals_one_call_per_beam(noise_mode):
    # noisy calls draw one measure_power value per beam in row order, so a
    # fresh callback given the stack replays a fresh callback given the rows
    ec = tiny_config(noise_mode=noise_mode, noise_power_w=1e-9, snapshots=3)
    cfg = build_system(ec)
    H = build_channel(ec, build_geometry(ec), cfg)
    cb = build_codebook(ec)
    phases = cb.values[np.random.default_rng(2).integers(0, cb.size, (3, 5, cfg.num_antennas))]
    stacked = make_center_measure(ec, H, cfg)(phases)
    single = make_center_measure(ec, H, cfg)
    rows = np.array([single(row) for row in phases.reshape(-1, cfg.num_antennas)])
    assert stacked.shape == (3, 5)
    assert np.allclose(stacked.ravel(), rows, rtol=1e-12, atol=0.0)
    assert np.count_nonzero(rows) >= 5  # not all clipped to zero


def test_noisy_callbacks_draw_through_sim_measure_power(monkeypatch):
    # the callbacks the pipelines look up on cli draw their noise through
    # sim.measure_power, so a patch there sees every noisy measurement:
    # one draw call per callback call, stacked or not
    ec = tiny_config(noise_mode="snapshots", noise_power_w=1e-9, snapshots=3)
    cfg = build_system(ec)
    H = build_channel(ec, build_geometry(ec), cfg)
    H_dec = decimate_channel(H)
    shapes = []

    def counted(signal, *args):
        shapes.append(np.shape(signal))
        return measure_power(signal, *args)

    monkeypatch.setattr(sim, "measure_power", counted)
    M, N = cfg.num_antennas, cfg.num_td_units
    center = cli.make_center_measure(ec, H, cfg)(np.zeros((3, M)))
    cc = CombinerConfig(theta=np.zeros((2, M)), tau=np.zeros((2, N)))
    profile = cli.make_profile_measure(ec, H_dec, cfg)(cc)
    assert center.shape == (3,) and profile.shape == (2, H_dec.num_subcarriers)
    assert shapes == [(3,), (2, H_dec.num_subcarriers)]


def test_cli_profile_on_an_aperture_too_wide_to_locate(tmp_path):
    # 16 elements over 100 m sit too far apart to focus on one point: the
    # located focus scores a coherence below the seed threshold, and the
    # searches take the fallback
    cfg_path = write_m16_config(tmp_path / "exp.cfg", "geometry.aperture_m = 100.0")
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out), "profile"]) == 0
    names = {"profile_N0.csv", "profile_N8.csv", "profile_N16.csv", "summary.csv"}
    assert {p.name for p in out.iterdir()} == names


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
    def bad_gain_map(geom, cfg, w, freq_hz, *args, **kwargs):
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
    "system.noise_power_w": st.sampled_from(
        ["-1e-9", "0", "1e-12", "1e-9", "1.0", "nan", "1e300"]
    ),
    "learner.total_measurements": st.integers(0, 60).map(str),
    "learner.critic_refit_period": st.integers(0, 40).map(str),
    "learner.exploit_start": st.one_of(st.just("auto"), st.integers(0, 60).map(str)),
    "learner.train_iters": st.integers(0, 30).map(str),
    "learner.seed": st.integers(-1, 2**64).map(str),
    # every gain underflows to 0 at 1e200; the phases overflow at 1e306
    "ue.x_m": st.sampled_from(["2.0", "1e200", "1e306"]),
    "geometry.aperture_m": st.sampled_from(["auto", "0.05", "1e300"]),
    # with system.K = 1 and a zero band, f_c = 1e-300 makes the auto aperture
    # overflow
    "system.center_freq_hz": st.sampled_from(["1e11", "1e-300"]),
    "system.bandwidth_hz": st.sampled_from(["1e10", "0"]),
    "system.K": st.sampled_from(["16", "1"]),
}


@settings(deadline=None, max_examples=60)
@given(st.fixed_dictionaries({}, optional=FUZZ_KEYS))
# configs that once crashed after learning: a non-finite channel is rejected
# at construction, and the focus locator and the critic's loss trace no
# longer overflow
@example({"ue.x_m": "1e306"})
@example({"system.center_freq_hz": "1e-300", "system.bandwidth_hz": "0", "system.K": "1"})
@example({"geometry.aperture_m": "1e300"})
@example({"noise.mode": "snapshots", "system.noise_power_w": "1e300"})
def test_every_accepted_config_runs_learn_and_search(keys):
    text = m16_text(*(f"{k} = {v}" for k, v in keys.items()))
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
    text = m16_text(*(f"{k} = {v}" for k, v in keys.items()))
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
@example({"geometry.aperture_m": "100.0"})
@example({"geometry.aperture_m": "3.6062934306820756e-217"})
# the smallest subnormal aperture: the polar search's span quotients overflow, D/2 underflows
@example({"geometry.aperture_m": "5e-324"})
@example({"ue.x_m": "1e200"})  # every gain underflows to 0
# a finite channel whose largest power overflows
@example(
    {
        "system.center_freq_hz": "1e-150",
        "system.bandwidth_hz": "0",
        "system.K": "1",
        "geometry.aperture_m": "0.5",
    }
)
@example({"geometry.aperture_m": "1e20"})  # heatmap phase steps past the index cast
@example({"heatmap.x_min_m": "1e200", "heatmap.x_max_m": "1e200"})  # distances overflow
def test_every_accepted_system_config_runs_every_command(keys):
    text = m16_text("profile.n_sweep = 0", *(f"{k} = {v}" for k, v in keys.items()))
    cmds = [["search-delays"], ["heatmap", "--source", "pdf-oracle"], ["learn"], ["profile"]]
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
