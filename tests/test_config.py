import time
from dataclasses import replace

import numpy as np
import pytest

from beamfocus.config import (
    MAX_COARSE_ROWS,
    MAX_HEATMAP_POINTS,
    ConfigError,
    ExperimentConfig,
    build_channel,
    build_codebook,
    build_geometry,
    build_system,
    build_ue,
    emit_config,
    heatmap_shape,
    parse_config,
    parse_config_text,
    resolved_aperture,
    resolved_exploit_start,
    stamp_lines,
)
from beamfocus.cli import main
from beamfocus.geometry import MAX_RANDOM_ANTENNAS, SPEED_OF_LIGHT, random_geometry


def test_defaults_match_reference_scenario():
    ec = ExperimentConfig()
    assert ec.num_antennas == 256
    assert ec.center_freq_hz == 100e9
    assert ec.bandwidth_hz == 10e9
    assert ec.ps_bits == 3
    # aperture defaults to (M-1) * lambda_c / 2
    lam_c = SPEED_OF_LIGHT / 100e9
    assert resolved_aperture(ec) == pytest.approx(255 * lam_c / 2)
    assert build_system(ec).tau_max_s == pytest.approx(resolved_aperture(ec) / SPEED_OF_LIGHT)


@pytest.mark.parametrize(
    "text, start",
    [
        ("", 1024),  # 4M at the reference M = 256
        ("system.M = 16", 64),
        ("system.M = 16\nlearner.total_measurements = 40", 40),  # the budget caps auto
        ("learner.exploit_start = 37", 37),
        ("learner.total_measurements = 10\nlearner.exploit_start = 10", 10),
    ],
)
def test_exploit_start_auto_is_4m_within_the_budget(text, start):
    # the critic's 2M - 1 real unknowns take about 4M phaseless
    # measurements; only an explicit value must lie within the budget
    assert resolved_exploit_start(parse_config_text(text)) == start


def test_parse_minimal_file_gets_defaults(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("system.M = 64\nsystem.N = 8\n")
    ec = parse_config(path)
    assert ec.num_antennas == 64
    assert ec.num_td_units == 8
    assert ec.num_subcarriers == 2048  # untouched default


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key 'system.bogus'"):
        parse_config_text("system.bogus = 3\n")


def test_parse_rejects_bad_value():
    with pytest.raises(ConfigError, match="system.M"):
        parse_config_text("system.M = many\n")


def test_parse_rejects_mnp_violation():
    with pytest.raises(ConfigError, match="M = N\\*P violated"):
        parse_config_text("system.M = 255\nsystem.N = 8\n")


def test_parse_rejects_bad_sweep_entry():
    with pytest.raises(ConfigError, match="n_sweep"):
        parse_config_text("system.M = 16\nsystem.N = 4\nprofile.n_sweep = 0,3\n")


def test_parse_ignores_comments_and_blanks():
    ec = parse_config_text("# a comment\n\nsystem.K = 128  # trailing\n")
    assert ec.num_subcarriers == 128


def test_emit_parse_roundtrip_identity():
    ec = ExperimentConfig(
        num_antennas=32,
        num_td_units=4,
        num_subcarriers=64,
        tau_max_s=1.5e-9,
        n_sweep=(0, 4),
        rho_mode="flat_amplitude",
        heatmap_resolution_m=0.3,
    )
    assert parse_config_text(emit_config(ec)) == ec
    # defaults round-trip too, including the `auto` markers
    assert parse_config_text(emit_config(ExperimentConfig())) == ExperimentConfig()


def test_stamp_lines_are_comments():
    text = stamp_lines(ExperimentConfig(), command="profile", n=8)
    for line in text.splitlines():
        assert line.startswith("# ")
    assert "# command = profile" in text
    assert "# system.M = 256" in text


def test_build_system_n_zero_is_single_unit():
    ec = ExperimentConfig(num_antennas=16, num_td_units=4)
    cfg = build_system(ec, num_td_units=0)
    assert cfg.num_td_units == 1
    assert cfg.ps_per_td == 16


@pytest.mark.parametrize("rho_mode", ["unit", "flat_amplitude"])
def test_build_system_carries_the_amplitude_rule_to_every_sweep_entry(rho_mode):
    ec = ExperimentConfig(num_antennas=16, num_td_units=4, n_sweep=(0, 2, 8), rho_mode=rho_mode)
    flat = rho_mode == "flat_amplitude"
    assert build_system(ec).flat_amplitude is flat
    for n in ec.n_sweep:
        assert build_system(ec, num_td_units=n).flat_amplitude is flat


def test_builders_produce_consistent_scene():
    ec = ExperimentConfig(
        num_antennas=16,
        num_td_units=4,
        num_subcarriers=8,
        geometry_kind="uniform",
        total_measurements=50,
        exploit_start=25,
    )
    geom = build_geometry(ec)
    cfg = build_system(ec)
    ue = build_ue(ec)
    cb = build_codebook(ec)
    H = build_channel(ec, geom, cfg)
    assert geom.num_antennas == 16
    assert H.coeffs.shape == (16, 8)
    assert cb.bits == 3
    assert ue.x == 2.0 and ue.y == -2.0


def test_build_geometry_random_deterministic():
    ec = ExperimentConfig(num_antennas=32, num_td_units=4, geometry_seed=5)
    g1 = build_geometry(ec)
    g2 = build_geometry(ec)
    assert np.array_equal(g1.alphas, g2.alphas)


def test_noiseless_mode_zeroes_noise_power():
    ec = ExperimentConfig(
        num_antennas=16, num_td_units=4, noise_power_w=1e-9, noise_mode="noiseless"
    )
    assert build_system(ec).noise_power_w == 0.0
    ec2 = ExperimentConfig(
        num_antennas=16, num_td_units=4, noise_power_w=1e-9, noise_mode="snapshots"
    )
    assert build_system(ec2).noise_power_w == 1e-9


def test_parse_rejects_bad_choice():
    with pytest.raises(ConfigError, match="geometry.kind"):
        parse_config_text("geometry.kind = spiral\n")


M16 = "system.M = 16\nsystem.N = 4\nsystem.K = 16\nprofile.n_sweep = 0,1\nue.y_m = 0.0\n"


def m16(extra):
    # a config sets each key once, so a line replaces any earlier line that
    # sets the same key
    keyed = {}
    for ln in (M16 + extra).splitlines():
        key = ln.partition("=")[0].strip()
        keyed.pop(key, None)
        keyed[key] = ln
    return "\n".join(keyed.values()) + "\n"


def test_parse_rejects_codebook_beyond_max_bits():
    assert build_codebook(parse_config_text(m16("system.ps_bits = 8\n"))).size == 256
    for bits in (9, 40):
        with pytest.raises(ConfigError, match=r"^system\.ps_bits: "):
            parse_config_text(m16(f"system.ps_bits = {bits}\n"))


def test_parse_rejects_geometry_and_user_that_cannot_be_built():
    for line, key in (
        ("ue.x_m = -1.0", "ue."),
        ("ue.x_m = 0.0", "ue."),
        # an element of the 17-element uniform array sits at y = 0
        ("ue.x_m = 1e-300\ngeometry.kind = uniform\nsystem.M = 17\nsystem.N = 1", "ue."),
        ("geometry.aperture_m = 0.0", "geometry."),
        ("geometry.aperture_m = -0.01", "geometry."),
        ("geometry.seed = -1", "geometry."),
        ("system.M = 1\nsystem.N = 1", "system.M: "),
        ("system.center_freq_hz = 0", "system.center_freq_hz: "),
        # the channel's phases overflow
        ("ue.x_m = 1e306", "ue."),
        # the auto aperture (M - 1) lambda_c / 2 overflows
        ("system.center_freq_hz = 1e-300\nsystem.bandwidth_hz = 0\nsystem.K = 1", "geometry."),
        # the channel's amplitudes lambda / (4 pi d) overflow
        (
            "system.center_freq_hz = 1e-300\nsystem.bandwidth_hz = 0\nsystem.K = 1\n"
            "geometry.aperture_m = 0.5",
            "ue.",
        ),
    ):
        with pytest.raises(ConfigError, match="^" + key.replace(".", r"\.")):
            parse_config_text(m16(line + "\n"))


def test_a_random_array_too_large_to_draw_is_rejected_promptly(tmp_path, capsys):
    # a draw past the bound almost never keeps every neighbour gap, so it
    # would be redrawn for ever; an error names the bound at once
    with pytest.raises(ValueError, match=f"at most {MAX_RANDOM_ANTENNAS} elements"):
        random_geometry(MAX_RANDOM_ANTENNAS + 1, 1.0, seed=0)
    cfg_path = tmp_path / "large.cfg"
    cfg_path.write_text("system.M = 200000\nsystem.N = 1\nsystem.K = 1\nprofile.n_sweep = 0,1\n")
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(["--config", str(cfg_path), "--out", str(out), "profile", "--oracle"]) == 2
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().err.startswith("config error: geometry.*: ")
    assert not out.exists()


def test_heatmap_grid_is_bounded_at_parse_time():
    assert heatmap_shape(ExperimentConfig()) == (71.0, 161.0)  # 11,431 points
    # 4096 x 8192 points at 1 m spacing is the bound itself
    grid = "heatmap.resolution_m = 1.0\nheatmap.x_min_m = 1.0\nheatmap.x_max_m = 4096.0\n"
    ec = parse_config_text(m16(grid + "heatmap.y_min_m = 0.0\nheatmap.y_max_m = 8191.0\n"))
    assert heatmap_shape(ec) == (4096.0, 8192.0) and 4096 * 8192 == MAX_HEATMAP_POINTS
    # one row more, a fine resolution, and one whose counts overflow float64
    for lines in (
        grid + "heatmap.y_min_m = 0.0\nheatmap.y_max_m = 8192.0\n",
        "heatmap.resolution_m = 1e-5\n",
        "heatmap.resolution_m = 1e-320\n",
    ):
        with pytest.raises(ConfigError, match=r"^heatmap\.resolution_m: .* exceeds 33554432 points"):
            parse_config_text(m16(lines))


def test_delay_grid_is_bounded_at_parse_time():
    # the coarse pass scores prod((n + 1) // 2) rows: 405 at the default grid
    def grid(ax, ay, b):
        return m16(f"grid.ax_points = {ax}\ngrid.ay_points = {ay}\ngrid.b_points = {b}\n")

    assert MAX_COARSE_ROWS == 32**3
    for points in ((9, 17, 17), (5, 5, 5), (63, 63, 63), (1, 2, 2 * MAX_COARSE_ROWS)):
        assert parse_config_text(grid(*points)).b_points == points[2]
    for points in ((65, 63, 63), (1, 2, 2 * MAX_COARSE_ROWS + 1), (1000000001, 17, 17)):
        with pytest.raises(ConfigError, match=rf"^grid\.\*: .* exceeds {MAX_COARSE_ROWS}$"):
            parse_config_text(grid(*points))


@pytest.mark.parametrize(
    "text, values",
    [
        ("grid.ax_points = 0", {"ax_points": 0}),
        ("noise.snapshots = 0", {"snapshots": 0}),
        (
            "learner.total_measurements = 40\nlearner.exploit_start = 60",
            {"total_measurements": 40, "exploit_start": 60},
        ),
        ("profile.n_sweep =", {"n_sweep": ()}),
        ("heatmap.resolution_m = 0", {"heatmap_resolution_m": 0.0}),
        ("system.N = 3", {"num_td_units": 3}),
    ],
    ids=["ax_points", "snapshots", "exploit_start", "n_sweep", "resolution_m", "N"],
)
def test_a_config_the_parser_rejects_cannot_be_built(text, values):
    # parsed, built directly or replaced, a config runs one set of checks
    with pytest.raises(ConfigError) as parsed:
        parse_config_text(text + "\n")
    with pytest.raises(ConfigError) as built:
        ExperimentConfig(**values)
    with pytest.raises(ConfigError) as replaced:
        replace(ExperimentConfig(), **values)
    assert str(built.value) == str(replaced.value) == str(parsed.value)
    assert str(parsed.value).startswith(text.partition(".")[0] + ".")
