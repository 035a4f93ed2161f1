import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from beamfocus import channel
from beamfocus.baselines import pdf_oracle
from beamfocus.channel import (
    FREQ_BLOCK,
    GAIN_MAP_BLOCK,
    PHASOR_TABLE,
    ChannelMatrix,
    SystemConfig,
    gain_map,
    near_field_channel,
    subcarrier_frequencies,
    unit_phasors,
)
from beamfocus.combiner import CombinerConfig, effective_combiner
from beamfocus.config import (
    ExperimentConfig,
    build_channel,
    build_codebook,
    build_geometry,
    build_system,
    build_ue,
)
from beamfocus.geometry import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    DegeneratePositionError,
    UePosition,
    distances,
    random_geometry,
    uniform_geometry,
)
from beamfocus.sim import center_bin, gain_profile
from beam_model import amplitude_rho, spherical_wave
from tiny_scenario import tiny_config


def make_cfg(M=4, N=2, K=8, fc=100e9, B=10e9, **kw):
    return SystemConfig(
        num_antennas=M,
        num_td_units=N,
        num_subcarriers=K,
        center_freq_hz=fc,
        bandwidth_hz=B,
        tau_max_s=1e-9,
        **kw,
    )


def test_system_config_mnp_constraint():
    with pytest.raises(ValueError, match="M = N\\*P"):
        SystemConfig(
            num_antennas=255,
            num_td_units=8,
            num_subcarriers=4,
            center_freq_hz=1e9,
            bandwidth_hz=1e8,
            tau_max_s=0.0,
        )


def test_system_config_derives_p_from_m_and_n():
    cfg = make_cfg(M=16, N=4)
    assert cfg.ps_per_td == 4
    assert replace(cfg, num_td_units=8).ps_per_td == 2
    for N, P in ((0, 0), (3, 5)):
        with pytest.raises(ValueError, match=rf"^M = N\*P violated \(M=16, N={N}, P={P}\)$"):
            make_cfg(M=16, N=N)


def test_system_config_rejects_bad_band():
    with pytest.raises(ValueError):
        make_cfg(fc=4e9, B=10e9)  # center must exceed half bandwidth
    with pytest.raises(ValueError):
        make_cfg(K=2, B=0.0)  # zero bandwidth needs a single bin


def test_subcarriers_single_bin():
    cfg = make_cfg(K=1, B=0.0)
    assert np.allclose(subcarrier_frequencies(cfg), [100e9])


def test_subcarriers_two_bins():
    cfg = make_cfg(K=2)
    assert np.allclose(subcarrier_frequencies(cfg), [97.5e9, 102.5e9])


def test_subcarriers_ten_bins_tile_band():
    cfg = make_cfg(K=10)
    f = subcarrier_frequencies(cfg)
    assert f[0] == pytest.approx(95.5e9)
    assert f[-1] == pytest.approx(104.5e9)
    width = cfg.bandwidth_hz / cfg.num_subcarriers
    assert f[0] - width / 2 == pytest.approx(95e9)
    assert f[-1] + width / 2 == pytest.approx(105e9)
    assert np.allclose(np.diff(f), width)


def test_channel_single_antenna_hand_value():
    # lambda = 4 pi and d = 1 gives coefficient 1 * exp(-j/2)
    fc = SPEED_OF_LIGHT / (4 * np.pi)
    cfg = SystemConfig(
        num_antennas=1,
        num_td_units=1,
        num_subcarriers=1,
        center_freq_hz=fc,
        bandwidth_hz=0.0,
        tau_max_s=0.0,
    )
    g = ArrayGeometry(alphas=[0.0], aperture=1.0)
    H = near_field_channel(g, UePosition(1.0, 0.0), cfg)
    assert H.coeffs[0, 0] == pytest.approx(np.exp(-0.5j), abs=1e-12)


def test_channel_magnitude_formula():
    # |h| = lambda / (4 pi d) for rho = 1: 0.003 m at 1 m distance
    fc = SPEED_OF_LIGHT / 0.003
    cfg = SystemConfig(
        num_antennas=1,
        num_td_units=1,
        num_subcarriers=1,
        center_freq_hz=fc,
        bandwidth_hz=0.0,
        tau_max_s=0.0,
    )
    g = ArrayGeometry(alphas=[0.0], aperture=1.0)
    H = near_field_channel(g, UePosition(1.0, 0.0), cfg)
    assert abs(H.coeffs[0, 0]) == pytest.approx(2.38732e-4, rel=1e-5)


def test_channel_magnitude_and_phase_structure():
    cfg = make_cfg(M=6, N=2, K=5)
    g = random_geometry(6, 0.5, seed=1)
    ue = UePosition(2.0, -1.0)
    H = near_field_channel(g, ue, cfg)
    d = distances(g, ue)
    lam = SPEED_OF_LIGHT / H.freqs_hz
    # magnitude profile is exactly rho * lambda / (4 pi d)
    expected_mag = lam[None, :] / (4 * np.pi * d[:, None])
    assert np.allclose(np.abs(H.coeffs), expected_mag, rtol=1e-12)
    ratio = np.abs(H.coeffs) * d[:, None] * 4 * np.pi / lam[None, :]
    assert np.allclose(ratio, 1.0, rtol=1e-12)
    # phase is -2 pi f d / c modulo 2 pi
    expected_phase = np.exp(-2j * np.pi * H.freqs_hz[None, :] * d[:, None] / SPEED_OF_LIGHT)
    assert np.allclose(H.coeffs / np.abs(H.coeffs), expected_phase, atol=1e-12)


def reference_channel(rho_mode="unit"):
    """(H, d, rho) of the reference scenario: M = 256, K = 2048."""
    ec = ExperimentConfig(rho_mode=rho_mode)
    geom = build_geometry(ec)
    cfg = build_system(ec)
    H = build_channel(ec, geom, cfg)
    return H, distances(geom, build_ue(ec)), amplitude_rho(cfg, H.freqs_hz)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= 1e-18, reason="long double is no wider than float64 here"
)
def test_reference_channel_matches_a_long_double_evaluation():
    H, d, _ = reference_channel()
    d = d.astype(np.longdouble)[:, None]
    lam = np.longdouble(SPEED_OF_LIGHT) / H.freqs_hz.astype(np.longdouble)
    pi = np.arccos(np.longdouble(-1.0))
    want = lam / (4 * pi * d) * np.exp(np.clongdouble(-2j) * pi * d / lam)
    assert want.dtype == np.clongdouble
    assert np.max(np.abs(H.coeffs - want) / np.abs(want)) <= 5e-12


@pytest.mark.parametrize("rho_mode", ["unit", "flat_amplitude"])
def test_reference_channel_matches_the_spherical_wave_formula(rho_mode):
    H, d, rho = reference_channel(rho_mode)
    want = spherical_wave(d[:, None], H.freqs_hz, rho)
    assert np.max(np.abs(H.coeffs - want) / np.abs(want)) <= 1e-11


@pytest.mark.parametrize("K", [1, 2, FREQ_BLOCK - 1, FREQ_BLOCK + 1, 2047, 2049])
def test_channel_recurrence_fills_every_bin_of_one_contiguous_array(K):
    cfg = make_cfg(M=8, N=2, K=K, B=0.0 if K == 1 else 10e9)
    g = random_geometry(8, 0.5, seed=3)
    ue = UePosition(2.0, -1.0)
    H = near_field_channel(g, ue, cfg)
    freqs = 100e9 - 0.5 * cfg.bandwidth_hz + (np.arange(K) + 0.5) * (cfg.bandwidth_hz / K)
    assert np.array_equal(H.freqs_hz, freqs)
    assert H.coeffs.dtype == complex and H.coeffs.flags.c_contiguous
    assert np.shares_memory(H.coeffs, H.coeffs.reshape(2, 4, K))
    want = spherical_wave(distances(g, ue)[:, None], freqs, 1.0)
    assert np.max(np.abs(H.coeffs - want) / np.abs(want)) <= 1e-11


@pytest.mark.parametrize("K, stride", [(2048, 16), (257, 2), (2049, 3), (64, 64)])
@pytest.mark.parametrize("flat", [False, True])
def test_strided_channel_is_every_stride_th_bin(K, stride, flat):
    cfg = replace(make_cfg(M=8, N=2, K=K), flat_amplitude=flat)
    g = random_geometry(8, 0.5, seed=3)
    ue = UePosition(2.0, -1.0)
    H = near_field_channel(g, ue, cfg, stride)
    full = near_field_channel(g, ue, cfg)
    assert np.array_equal(H.freqs_hz, full.freqs_hz[::stride])
    assert H.coeffs.shape == (8, -(-K // stride))
    rho = amplitude_rho(cfg, H.freqs_hz)
    want = spherical_wave(distances(g, ue)[:, None], H.freqs_hz, rho)
    assert np.max(np.abs(H.coeffs - want) / np.abs(want)) <= 1e-11


def test_channel_takes_a_fine_and_a_coarse_table_of_exponentials(monkeypatch):
    sizes = []
    exp = np.exp

    def counted(x, *args, **kwargs):
        sizes.append(np.size(x))
        return exp(x, *args, **kwargs)

    cfg = make_cfg(M=8, N=2, K=2049)
    g = random_geometry(8, 0.5, seed=3)
    monkeypatch.setattr(np, "exp", counted)
    near_field_channel(g, UePosition(2.0, -1.0), cfg)
    monkeypatch.undo()
    assert sorted(sizes) == sorted([8 * FREQ_BLOCK, 8 * -(-2049 // FREQ_BLOCK)])


def test_flat_amplitude_rho_flattens_magnitude():
    # every entry has the magnitude lambda_c / (4 pi d_m), across the band
    # and past the first frequency block
    cfg = make_cfg(M=8, N=2, K=FREQ_BLOCK + 3, flat_amplitude=True)
    g = random_geometry(8, 0.5, seed=3)
    ue = UePosition(2.0, -1.0)
    H = near_field_channel(g, ue, cfg)
    want = (SPEED_OF_LIGHT / cfg.center_freq_hz) / (4.0 * np.pi * distances(g, ue))
    assert np.max(np.abs(np.abs(H.coeffs) / want[:, None] - 1.0)) <= 1e-15


def test_channel_mirror_symmetry():
    cfg = make_cfg(M=6, N=2, K=3)
    g = random_geometry(6, 0.4, seed=9)
    mirrored = ArrayGeometry(alphas=-g.alphas[::-1], aperture=g.aperture)
    H1 = near_field_channel(g, UePosition(1.5, 0.7), cfg)
    H2 = near_field_channel(mirrored, UePosition(1.5, -0.7), cfg)
    assert np.allclose(H2.coeffs, H1.coeffs[::-1, :], rtol=1e-13)


def test_channel_degenerate_position_propagates():
    cfg = make_cfg(M=2, N=1, K=1, B=0.0)
    g = ArrayGeometry(alphas=[1.0, -1.0], aperture=2.0)
    with pytest.raises(DegeneratePositionError):
        near_field_channel(g, UePosition(1e-300, 1.0), cfg)


@pytest.mark.parametrize("flat", [False, True])
def test_check_finite_accepts_exactly_the_finite_channels(flat):
    # users from 1e304 m to 1e306 m at 100 GHz, across the distance where
    # the phases overflow, and center frequencies down to where the
    # amplitude lambda / (4 pi d) does; the channel itself is built only
    # to compare
    geom = uniform_geometry(4, 0.01)
    cfg = SystemConfig(4, 1, 8, 100e9, 10e9, 1e-9, flat_amplitude=flat)
    cases = [(UePosition(float(x), 0.0), cfg) for x in np.geomspace(1e304, 1e306, 41)]
    cases += [
        (UePosition(1.0, 0.0), replace(cfg, center_freq_hz=f, bandwidth_hz=0.0, num_subcarriers=1))
        for f in np.geomspace(1e-300, 1e-290, 21).tolist()
    ]
    verdicts = set()
    for ue, system in cases:
        try:
            channel.check_finite(geom, ue, system)
            accepted = True
        except ValueError as exc:
            assert "overflow" in str(exc)
            accepted = False
        with np.errstate(all="ignore"):
            coeffs = near_field_channel(geom, ue, system).coeffs
        assert accepted == bool(np.all(np.isfinite(coeffs)))
        verdicts.add(accepted)
    assert verdicts == {True, False}


def test_channel_matrix_requires_increasing_freqs():
    with pytest.raises(ValueError):
        ChannelMatrix(coeffs=np.ones((1, 2), complex), freqs_hz=[2.0, 1.0])


def test_unit_phasors_match_the_complex_exponential():
    rng = np.random.default_rng(0)
    ties = (np.arange(-3 * PHASOR_TABLE, 3 * PHASOR_TABLE) + 0.5) / PHASOR_TABLE
    cycles = np.concatenate(
        [rng.uniform(-1e6, 1e6, 100_000), rng.uniform(-2.0, 2.0, 10_000), ties, [0.0, 1e6, -1e6]]
    )
    re, im = unit_phasors(cycles)
    want = np.exp(-2j * np.pi * (cycles - np.rint(cycles)))
    assert np.max(np.abs(re + 1j * im - want)) <= 2e-15


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
        val = gain_map(geom, cfg, w, f, np.array([ue.x]), np.array([ue.y]))
        assert val.shape == (1, 1)
        assert val[0, 0] == pytest.approx(gp.per_subcarrier[k], rel=1e-12)


def test_gain_map_flat_amplitude_rho_matches_gain_profile():
    ec = tiny_config(rho_mode="flat_amplitude")
    geom = build_geometry(ec)
    cfg = build_system(ec)
    assert cfg.flat_amplitude
    cb = build_codebook(ec)
    ue = build_ue(ec)
    H = build_channel(ec, geom, cfg)
    cc = pdf_oracle(geom, ue, H, cfg, cb)
    gp = gain_profile(cc, H, cfg)
    for k in (0, 31, 63):
        f = H.freqs_hz[k]
        w = effective_combiner(cc, cfg, f)
        val = gain_map(geom, cfg, w, f, np.array([ue.x]), np.array([ue.y]))
        assert val[0, 0] == pytest.approx(gp.per_subcarrier[k], rel=1e-12)


@pytest.mark.parametrize("M", [16, 256])
def test_blocked_gain_map_equals_one_shot_formula(M, monkeypatch):
    ec = tiny_config(num_antennas=M, num_td_units=16)
    geom = build_geometry(ec)
    cfg = build_system(ec)
    H = build_channel(ec, geom, cfg)
    cc = pdf_oracle(geom, build_ue(ec), H, cfg, build_codebook(ec))
    xs, ys = np.linspace(0.5, 4.0, 37), np.linspace(-4.0, 4.0, 41)
    assert (xs.size * ys.size) % GAIN_MAP_BLOCK != 0
    for f, cfg_f in ((H.freqs_hz[0], cfg), (H.freqs_hz[-1], replace(cfg, flat_amplitude=True))):
        w = effective_combiner(cc, cfg, f)
        blocked = gain_map(geom, cfg_f, w, f, xs, ys)
        with monkeypatch.context() as m:
            m.setattr(channel, "GAIN_MAP_BLOCK", xs.size * ys.size + 1)
            assert np.array_equal(blocked, gain_map(geom, cfg_f, w, f, xs, ys))


def assert_maps_match_the_formula(ec, xs, ys):
    """The maps at the band edges and center within 1e-12 of peak of spherical_wave's."""
    geom = build_geometry(ec)
    cfg = build_system(ec)
    H = build_channel(ec, geom, cfg)
    cc = pdf_oracle(geom, build_ue(ec), H, cfg, build_codebook(ec))
    freqs = H.freqs_hz[[0, center_bin(H.freqs_hz, cfg.center_freq_hz), -1]]
    rho = amplitude_rho(cfg, freqs)
    w = np.array([effective_combiner(cc, cfg, f) for f in freqs])
    maps = gain_map(geom, cfg, w, freqs, xs, ys)
    gx, gy = np.meshgrid(xs, ys)
    elem_y = 0.5 * geom.aperture * geom.alphas
    d = np.hypot(gx.ravel()[:, None], elem_y[None, :] - gy.ravel()[:, None])
    for wf, f, r, got in zip(w, freqs, rho, maps):
        want = (np.abs(spherical_wave(d, f, r) @ np.conj(wf)) ** 2).reshape(gx.shape)
        assert np.max(np.abs(got - want)) <= 1e-12 * want.max()


@pytest.mark.parametrize("rho_mode", ["unit", "flat_amplitude"])
def test_reference_gain_maps_match_the_spherical_wave_formula(rho_mode):
    xs, ys = np.linspace(0.5, 4.0, 36), np.linspace(-4.0, 4.0, 81)
    assert_maps_match_the_formula(ExperimentConfig(rho_mode=rho_mode), xs, ys)


def test_large_array_gain_maps_close_and_wide_match_the_formula():
    # M = 1,024 spans 1.53 m: points a few cm from the array and past both
    # ends see element distances, so phase offsets, spread over the aperture
    ec = ExperimentConfig(num_antennas=1024)
    xs, ys = np.linspace(0.02, 3.0, 25), np.linspace(-3.0, 3.0, 61)
    assert_maps_match_the_formula(ec, xs, ys)


def test_gain_map_far_point_is_finite():
    ec = tiny_config()
    geom = build_geometry(ec)
    cfg = build_system(ec)
    w = effective_combiner(CombinerConfig(np.zeros(16), np.zeros(4)), cfg, 1e11)
    # 1e15 m is about 3e17 cycles at 100 GHz, far beyond the int64 range
    # once scaled by the table size
    val = gain_map(geom, cfg, w, 1e11, np.array([1e15]), np.array([0.0]))
    assert np.isfinite(val).all() and val[0, 0] > 0.0


def traced_peak_beyond_result(fn):
    """Peak traced memory while fn() runs, less the bytes of the array it returns."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - result.nbytes


def test_gain_map_memory_beyond_the_result_does_not_grow_with_the_grid():
    # one set of block buffers serves every grid: 100 points take one block,
    # 20,000 points 157 blocks. The result grows by 8 bytes a point; what
    # else the call holds may grow by under one byte a point (the
    # interpreter's free lists keep a few small objects per block)
    ec = ExperimentConfig()
    geom = build_geometry(ec)
    cfg = build_system(ec)
    w = np.exp(1j * np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, cfg.num_antennas))
    xs = np.linspace(0.5, 4.0, 50)

    def beyond_result(ny):
        ys = np.linspace(-4.0, 4.0, ny)
        return traced_peak_beyond_result(lambda: gain_map(geom, cfg, w, 1e11, xs, ys))

    assert beyond_result(400) - beyond_result(2) < xs.size * (400 - 2)


def test_gain_map_stacked_frequencies_equal_single_calls():
    ec = tiny_config(rho_mode="flat_amplitude")
    geom = build_geometry(ec)
    cfg = build_system(ec)
    H = build_channel(ec, geom, cfg)
    cc = pdf_oracle(geom, build_ue(ec), H, cfg, build_codebook(ec))
    freqs = H.freqs_hz[[0, 31, 63]]
    w = np.array([effective_combiner(cc, cfg, f) for f in freqs])
    xs, ys = np.linspace(0.5, 4.0, 37), np.linspace(-4.0, 4.0, 41)
    maps = gain_map(geom, cfg, w, freqs, xs, ys)
    assert maps.shape == (3, ys.size, xs.size)
    for wf, f, got in zip(w, freqs, maps):
        assert np.array_equal(got, gain_map(geom, cfg, wf, f, xs, ys))
