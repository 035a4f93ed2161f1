import numpy as np
import pytest

from beamfocus.channel import ChannelMatrix, SystemConfig, near_field_channel
from beamfocus.combiner import CombinerConfig, PhaseCodebook
from beamfocus.geometry import UePosition, random_geometry
from beamfocus.sim import (
    GainProfile,
    avg_amplitude_gain,
    center_bin,
    gain_profile,
    measure_power,
    measure_profile_powers,
    normalized_gain_db,
    three_db_bandwidth,
    write_gain_csv,
)


def make_cfg(M, N, K=4, fc=100e9, B=10e9, noise=0.0, P_T=1.0):
    return SystemConfig(
        num_antennas=M,
        num_td_units=N,
        ps_per_td=M // N,
        num_subcarriers=K,
        center_freq_hz=fc,
        bandwidth_hz=B,
        ps_bits=3,
        tau_max_s=1e-9,
        tx_power_w=P_T,
        noise_power_w=noise,
    )


def random_scene(M=4, N=2, K=2, seed=0):
    cfg = make_cfg(M, N, K=K)
    geom = random_geometry(M, 0.05, seed=seed)
    H = near_field_channel(geom, UePosition(1.5, -0.8), cfg)
    return cfg, H


def brute_force_gains(cc, H, cfg):
    # independent evaluation: explicit per-element loops
    M, K = H.coeffs.shape
    tau_full = [cc.tau[m // cfg.ps_per_td] for m in range(M)]
    out = []
    for k in range(K):
        acc = 0j
        for m in range(M):
            w_mk = np.exp(1j * (cc.theta[m] - 2 * np.pi * H.freqs_hz[k] * tau_full[m]))
            w_mk /= np.sqrt(M)
            acc += np.conj(w_mk) * H.coeffs[m, k]
        out.append(abs(acc) ** 2)
    return np.array(out)


def test_gain_profile_matches_brute_force():
    rng = np.random.default_rng(21)
    # M=16 with N in {1, 4, 16}: one sub-array, square blocks, one element each
    cases = [(4, 2, 2, 1e-10), (16, 1, 8, 1e-9), (16, 4, 8, 1e-9), (16, 16, 8, 1e-9)]
    for M, N, K, tau_max in cases:
        cfg, H = random_scene(M=M, N=N, K=K, seed=4)
        for _ in range(10):
            cc = CombinerConfig(
                theta=rng.uniform(-np.pi, np.pi, M), tau=rng.uniform(0, tau_max, N)
            )
            gains = gain_profile(cc, H, cfg).per_subcarrier
            expected = brute_force_gains(cc, H, cfg)
            # the gains are ~1e-9, so the tolerance must scale with them
            np.testing.assert_allclose(gains, expected, rtol=1e-12, atol=1e-12 * expected.max())


def test_gain_profile_single_antenna_is_channel_power():
    cfg = make_cfg(1, 1, K=3)
    H = near_field_channel(
        random_geometry(2, 0.01, seed=1), UePosition(1.0, 0.0), make_cfg(2, 1, K=3)
    )
    H1 = ChannelMatrix(coeffs=H.coeffs[:1], freqs_hz=H.freqs_hz)
    cc = CombinerConfig(theta=[0.0], tau=[0.0])
    gp = gain_profile(cc, H1, cfg)
    assert np.allclose(gp.per_subcarrier, np.abs(H1.coeffs[0]) ** 2, rtol=1e-12)


def test_gain_profile_coherent_bound():
    # matched continuous phases at a single center bin reach (sum |h m|)^2 / M
    M = 6
    cfg = make_cfg(M, 1, K=1, B=0.0)
    geom = random_geometry(M, 0.05, seed=3)
    H = near_field_channel(geom, UePosition(1.2, 0.4), cfg)
    cc = CombinerConfig(theta=np.angle(H.coeffs[:, 0]), tau=[0.0])
    gp = gain_profile(cc, H, cfg)
    coherent = np.sum(np.abs(H.coeffs[:, 0])) ** 2 / M
    assert gp.per_subcarrier[0] == pytest.approx(coherent, rel=1e-12)


def test_gain_profile_dimension_mismatch():
    cfg, H = random_scene()
    with pytest.raises(ValueError):
        gain_profile(CombinerConfig(theta=np.zeros(3), tau=np.zeros(2)), H, cfg)


def test_avg_amplitude_gain():
    cfg, H = random_scene(M=4, N=2, K=3, seed=7)
    rng = np.random.default_rng(0)
    cc = CombinerConfig(theta=rng.uniform(-np.pi, np.pi, 4), tau=rng.uniform(0, 1e-10, 2))
    expected = np.mean(np.sqrt(brute_force_gains(cc, H, cfg)))
    assert avg_amplitude_gain(cc, H, cfg) == pytest.approx(expected, rel=1e-12)
    # flat profile: average amplitude equals the common amplitude
    gp = gain_profile(cc, H, cfg)
    flat = GainProfile(per_subcarrier=np.full(3, 0.25), freqs_hz=gp.freqs_hz)
    assert np.mean(np.sqrt(flat.per_subcarrier)) == pytest.approx(0.5)


def test_measure_power_noiseless_exact():
    cfg, H = random_scene(M=4, N=2, K=2, seed=9)
    cc = CombinerConfig(theta=np.zeros(4), tau=np.zeros(2))
    gp = gain_profile(cc, H, cfg)
    for k in range(2):
        for snaps in (1, 7):
            p = measure_power(cc, H, cfg, k, snapshots=snaps, seed=123)
            assert p == (cfg.tx_power_w / cfg.num_subcarriers) * gp.per_subcarrier[k]


def test_measure_power_deterministic_per_seed():
    cfg = make_cfg(4, 2, K=2, noise=1e-3)
    geom = random_geometry(4, 0.05, seed=2)
    H = near_field_channel(geom, UePosition(1.0, 0.2), cfg)
    cc = CombinerConfig(theta=np.zeros(4), tau=np.zeros(2))
    a = measure_power(cc, H, cfg, 1, snapshots=50, seed=5)
    b = measure_power(cc, H, cfg, 1, snapshots=50, seed=5)
    c = measure_power(cc, H, cfg, 1, snapshots=50, seed=6)
    assert a == b
    assert a != c


def test_measure_power_pure_noise_mean():
    # zero channel: the measurement approaches the noise floor
    sigma2 = 2.5e-4
    cfg = make_cfg(2, 1, K=1, B=0.0, noise=sigma2)
    H = ChannelMatrix(coeffs=np.zeros((2, 1), complex), freqs_hz=[cfg.center_freq_hz])
    cc = CombinerConfig(theta=np.zeros(2), tau=[0.0])
    p = measure_power(cc, H, cfg, 0, snapshots=10_000, seed=0)
    assert abs(p - sigma2) / sigma2 < 0.05


def test_measure_power_concentration():
    # sample mean within 5% of the analytic expectation in >= 99% of seeds
    sigma2 = 1e-9
    cfg = make_cfg(4, 2, K=2, noise=sigma2)
    geom = random_geometry(4, 0.05, seed=8)
    H = near_field_channel(geom, UePosition(1.0, 0.0), cfg)
    cc = CombinerConfig(theta=np.zeros(4), tau=np.zeros(2))
    gp = gain_profile(cc, H, cfg)
    expected = (cfg.tx_power_w / cfg.num_subcarriers) * gp.per_subcarrier[0] + sigma2
    ok = sum(
        abs(measure_power(cc, H, cfg, 0, snapshots=10_000, seed=s) - expected)
        / expected
        < 0.05
        for s in range(100)
    )
    assert ok >= 99


def test_measure_power_bad_subcarrier():
    cfg, H = random_scene()
    cc = CombinerConfig(theta=np.zeros(4), tau=np.zeros(2))
    with pytest.raises(ValueError):
        measure_power(cc, H, cfg, 5)
    with pytest.raises(ValueError):
        measure_power(cc, H, cfg, 0, snapshots=0)


def test_measure_profile_matches_scalar_measurements():
    cfg = make_cfg(4, 2, K=3, noise=1e-6)
    geom = random_geometry(4, 0.05, seed=12)
    H = near_field_channel(geom, UePosition(1.0, 0.1), cfg)
    cc = CombinerConfig(theta=np.zeros(4), tau=np.zeros(2))
    vec = measure_profile_powers(cc, H, cfg, snapshots=9, seed=7)
    scalars = [measure_power(cc, H, cfg, k, snapshots=9, seed=7) for k in range(3)]
    assert np.allclose(vec, scalars)


def test_gain_invariance_global_codebook_rotation():
    cb = PhaseCodebook(bits=3)
    cfg, H = random_scene(M=4, N=2, K=4, seed=5)
    rng = np.random.default_rng(2)
    theta = cb.values[rng.integers(0, 8, 4)]
    tau = rng.uniform(0, 1e-10, 2)
    step = 2 * np.pi / 8
    g1 = gain_profile(CombinerConfig(theta=theta, tau=tau), H, cfg).per_subcarrier
    g2 = gain_profile(CombinerConfig(theta=theta + step, tau=tau), H, cfg).per_subcarrier
    assert np.allclose(g1, g2, rtol=1e-12)


def _profile(gains, cfg):
    from beamfocus.channel import subcarrier_frequencies

    return GainProfile(per_subcarrier=gains, freqs_hz=subcarrier_frequencies(cfg))


def test_three_db_bandwidth_flat():
    cfg = make_cfg(2, 1, K=8)
    gp = _profile(np.ones(8), cfg)
    assert three_db_bandwidth(gp, cfg) == pytest.approx(cfg.bandwidth_hz)


def test_three_db_bandwidth_single_bin():
    cfg = make_cfg(2, 1, K=5)
    gains = np.array([0.1, 0.2, 1.0, 0.3, 0.1])
    gp = _profile(gains, cfg)
    assert three_db_bandwidth(gp, cfg) == pytest.approx(cfg.bandwidth_hz / 5)


def test_three_db_bandwidth_asymmetric_run():
    # window grows symmetrically and stops at the first failing side
    cfg = make_cfg(2, 1, K=5)
    gp = _profile(np.array([1.0, 0.6, 1.0, 0.6, 0.1]), cfg)
    assert three_db_bandwidth(gp, cfg) == pytest.approx(3 * cfg.bandwidth_hz / 5)


def test_normalized_gain_db():
    cfg = make_cfg(2, 1, K=5)
    gp = _profile(np.ones(5), cfg)
    assert np.allclose(normalized_gain_db(gp), 0.0)
    gp2 = _profile(np.array([0.1, 0.01, 1.0, 0.5, 1.0]), cfg)
    db = normalized_gain_db(gp2)
    assert db[0] == pytest.approx(-10.0)
    assert db[1] == pytest.approx(-20.0)
    assert db[2] == 0.0
    with pytest.raises(ValueError):
        normalized_gain_db(_profile(np.array([1.0, 0.0, 1.0]), make_cfg(2, 1, K=3)))


def test_gain_csv_export(tmp_path):
    cfg = make_cfg(2, 1, K=4)
    gp = _profile(np.array([0.5, 1.0, 0.9, 0.2]), cfg)
    path = tmp_path / "gain.csv"
    write_gain_csv(gp, path, header_comment="# seed = 1\n")
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed = 1"
    assert lines[1] == "freq_hz,gain_linear,gain_db_rel_center"
    assert len(lines) == 2 + 4


def test_center_bin_even_grid_tie():
    from beamfocus.channel import subcarrier_frequencies

    cfg = make_cfg(2, 1, K=4)
    freqs = subcarrier_frequencies(cfg)
    assert center_bin(freqs, cfg.center_freq_hz) in (1, 2)
