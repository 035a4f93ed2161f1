import subprocess
import sys

import numpy as np
import pytest

from beamfocus.cli import (
    decimate_channel,
    decimated_indices,
    gain_map,
    main,
    run_heatmap,
    run_profile,
)
from beamfocus.baselines import pdf_oracle
from beamfocus.channel import near_field_channel
from beamfocus.combiner import (
    CombinerConfig,
    PhaseCodebook,
    effective_combiner,
    save_combiner,
)
from beamfocus.config import (
    ExperimentConfig,
    build_channel,
    build_codebook,
    build_geometry,
    build_system,
    build_ue,
    emit_config,
)
from beamfocus.sim import gain_profile


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
        train_batch=64,
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


def test_decimated_indices():
    idx = decimated_indices(2048, target=128)
    assert idx.size == 128
    assert idx[0] == 0 and idx[-1] == 2032
    assert np.all(np.diff(idx) == 16)
    # small K keeps every bin
    assert decimated_indices(12).size == 12
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


def test_cli_print_defaults(capsys):
    assert main(["print-defaults"]) == 0
    out = capsys.readouterr().out
    assert out == emit_config(ExperimentConfig())


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


def test_cli_learn_and_search(tmp_path):
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
                "learner.train_batch = 32",
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
    assert (out / "history.csv").exists()
    assert (out / "combiner_learned.txt").exists()
    assert (out / "critic.txt").exists()
    # stamped outputs still parse
    from beamfocus.combiner import load_combiner
    from beamfocus.critic import load_critic

    cc, cb = load_combiner(out / "combiner_learned.txt")
    assert cc.theta.size == 8 and cb.bits == 3
    assert load_critic(out / "critic.txt").num_antennas == 8
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


def test_cli_config_error_exit_code(tmp_path):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("system.M = 255\nsystem.N = 8\n")
    assert main(["--config", str(cfg_path), "profile", "--oracle"]) == 2


def test_cli_learn_rejects_ps_bits_beyond_history_digits(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        "\n".join(
            [
                "system.M = 16",
                "system.N = 4",
                "system.K = 16",
                "system.ps_bits = 6",
                "learner.total_measurements = 30",
                "learner.exploit_start = 15",
                "learner.critic_refit_period = 15",
                "learner.critic_rank = 2",
                "learner.train_iters = 50",
                "learner.train_batch = 32",
                "profile.n_sweep = 0,4",
                "grid.ax_points = 2",
                "grid.ay_points = 3",
                "grid.b_points = 3",
                "heatmap.x_min_m = 1.9",
                "heatmap.x_max_m = 2.1",
                "heatmap.y_min_m = -2.1",
                "heatmap.y_max_m = -1.9",
                "heatmap.resolution_m = 0.1",
            ]
        )
        + "\n"
    )
    out = tmp_path / "learn"
    assert main(["--config", str(cfg_path), "--out", str(out), "learn"]) == 2
    assert capsys.readouterr().err.startswith("config error: system.ps_bits")
    assert not out.exists()
    # the commands that write no phase digit strings still run at 6 bits
    for cmd in (["profile"], ["search-delays"], ["heatmap", "--source", "pdf-oracle"]):
        out = tmp_path / cmd[0]
        assert main(["--config", str(cfg_path), "--out", str(out), *cmd]) == 0
        assert any(out.iterdir())


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


def test_cli_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "beamfocus", "print-defaults"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "system.M = 256" in proc.stdout
