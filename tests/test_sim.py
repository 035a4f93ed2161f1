import math

import numpy as np
import pytest

from beamfocus.channel import ChannelMatrix, SystemConfig, near_field_channel
from beamfocus.combiner import CombinerConfig, PhaseCodebook, effective_combiner
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


def signal_power(cc, H, cfg, k):
    # (P_T/K) |w_k^H h_k|^2, the noiseless power of bin k
    return (cfg.tx_power_w / cfg.num_subcarriers) * gain_profile(cc, H, cfg).per_subcarrier[k]


def test_measure_power_noiseless_exact():
    cfg, H = random_scene(M=4, N=2, K=2, seed=9)
    cc = CombinerConfig(theta=np.zeros(4), tau=np.zeros(2))
    gp = gain_profile(cc, H, cfg)
    for snaps in (1, 7):
        p = measure_profile_powers(cc, H, cfg, snapshots=snaps, rng=np.random.default_rng(123))
        for k in range(2):
            assert p[k] == (cfg.tx_power_w / cfg.num_subcarriers) * gp.per_subcarrier[k]


def test_measure_power_deterministic_per_seed():
    cfg = make_cfg(4, 2, K=2, noise=1e-3)
    geom = random_geometry(4, 0.05, seed=2)
    H = near_field_channel(geom, UePosition(1.0, 0.2), cfg)
    cc = CombinerConfig(theta=np.zeros(4), tau=np.zeros(2))
    signal = signal_power(cc, H, cfg, 1)

    def draw(seed):
        return measure_power(signal, cfg, 50, np.random.default_rng(seed))

    assert draw(5) == draw(5)
    assert draw(5) != draw(6)
    # successive measurements from one generator are fresh draws
    rng = np.random.default_rng(5)
    first = measure_power(signal, cfg, 50, rng)
    assert measure_power(signal, cfg, 50, rng) != first


def test_measure_power_pure_noise_mean():
    # zero channel: the measurement approaches the noise floor
    sigma2 = 2.5e-4
    cfg = make_cfg(2, 1, K=1, B=0.0, noise=sigma2)
    H = ChannelMatrix(coeffs=np.zeros((2, 1), complex), freqs_hz=[cfg.center_freq_hz])
    cc = CombinerConfig(theta=np.zeros(2), tau=[0.0])
    p = measure_power(signal_power(cc, H, cfg, 0), cfg, 10_000, np.random.default_rng(0))
    assert abs(p - sigma2) / sigma2 < 0.05


def test_measure_power_concentration():
    # sample mean within 5% of the analytic expectation in >= 99% of seeds
    sigma2 = 1e-9
    cfg = make_cfg(4, 2, K=2, noise=sigma2)
    geom = random_geometry(4, 0.05, seed=8)
    H = near_field_channel(geom, UePosition(1.0, 0.0), cfg)
    cc = CombinerConfig(theta=np.zeros(4), tau=np.zeros(2))
    signal = signal_power(cc, H, cfg, 0)
    expected = signal + sigma2
    ok = sum(
        abs(measure_power(signal, cfg, 10_000, np.random.default_rng(s)) - expected) / expected
        < 0.05
        for s in range(100)
    )
    assert ok >= 99


def test_measure_profile_matches_scalar_measurements():
    cfg = make_cfg(4, 2, K=3, noise=1e-6)
    geom = random_geometry(4, 0.05, seed=12)
    H = near_field_channel(geom, UePosition(1.0, 0.1), cfg)
    cc = CombinerConfig(theta=np.zeros(4), tau=np.zeros(2))
    vec = measure_profile_powers(cc, H, cfg, snapshots=9, rng=np.random.default_rng(7))
    rng = np.random.default_rng(7)
    scalars = [measure_power(signal_power(cc, H, cfg, k), cfg, 9, rng) for k in range(3)]
    # one draw per bin, in bin order, from the same stream
    np.testing.assert_allclose(vec, scalars, rtol=1e-12)


def stacked_scene(M=16, N=4, K=24, C=7, noise=0.0, seed=3):
    cfg = make_cfg(M, N, K=K, noise=noise)
    geom = random_geometry(M, 0.05, seed=seed)
    H = near_field_channel(geom, UePosition(1.2, -0.4), cfg)
    rng = np.random.default_rng(seed)
    theta = PhaseCodebook(bits=3).values[rng.integers(0, 8, size=(C, M))]
    tau = rng.uniform(0.0, 1e-10, size=(C, N))
    tau[2] = tau[1]  # repeated delay values share their phasors
    tau[3, :2] = 0.0
    return cfg, H, theta, tau


def test_stacked_gain_profile_rows_equal_single_configs():
    cfg, H, theta, tau = stacked_scene()
    stacked = gain_profile(CombinerConfig(theta=theta, tau=tau), H, cfg).per_subcarrier
    assert stacked.shape == (theta.shape[0], H.num_subcarriers)
    for c in range(theta.shape[0]):
        single = gain_profile(CombinerConfig(theta=theta[c], tau=tau[c]), H, cfg)
        assert np.array_equal(stacked[c], single.per_subcarrier)
    # a (2, 3) stack keeps its batch shape
    two_d = CombinerConfig(theta=theta[:6].reshape(2, 3, -1), tau=tau[:6].reshape(2, 3, -1))
    assert np.array_equal(gain_profile(two_d, H, cfg).per_subcarrier.reshape(6, -1), stacked[:6])


@pytest.mark.parametrize("noise", [0.0, 1e-9])
def test_stacked_profile_powers_equal_sequential_measurements(noise):
    cfg, H, theta, tau = stacked_scene(noise=noise)
    stacked = measure_profile_powers(
        CombinerConfig(theta=theta, tau=tau), H, cfg, snapshots=20, rng=np.random.default_rng(4)
    )
    rng = np.random.default_rng(4)
    for c in range(theta.shape[0]):
        cc = CombinerConfig(theta=theta[c], tau=tau[c])
        assert np.array_equal(stacked[c], measure_profile_powers(cc, H, cfg, snapshots=20, rng=rng))


def test_stacked_config_checks_batch_shapes():
    with pytest.raises(ValueError):
        CombinerConfig(theta=np.zeros((3, 4)), tau=np.zeros((2, 2)))
    cfg, H, theta, tau = stacked_scene()
    with pytest.raises(ValueError):
        gain_profile(CombinerConfig(theta=theta[:, :8], tau=tau[:, :2]), H, cfg)


def reference_measure_power(cc, H, cfg, k, snapshots, rng):
    """The explicit S-snapshot simulation that measure_power draws in closed form.

    Each snapshot sends a random-phase symbol of power P_T/K through the
    combined channel and adds CN(0, noise_power_w) noise; returns the mean
    of |y|^2 over the snapshots.
    """
    sym_power = cfg.tx_power_w / cfg.num_subcarriers
    wh = np.vdot(effective_combiner(cc, cfg, H.freqs_hz[k]), H.coeffs[:, k])
    sym = np.sqrt(sym_power) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=snapshots))
    noise = np.sqrt(cfg.noise_power_w / 2.0) * (
        rng.standard_normal(snapshots) + 1j * rng.standard_normal(snapshots)
    )
    return float(np.mean(np.abs(wh * sym + noise) ** 2))


def snapshot_mean_cdf(x, signal, sigma2, snapshots):
    """P(mean of |y|^2 <= x): (sigma2 / 2S) chi'^2(2S, 2S signal / sigma2).

    For even degrees of freedom the noncentral chi-square CDF is a
    Poisson(lambda/2) mixture of Erlang CDFs, summed here term by term.
    """
    half_nonc = snapshots * signal / sigma2
    t = x * snapshots / sigma2  # half the chi-square variate
    total, weight, erlang_tail, term = 0.0, math.exp(-half_nonc), 0.0, math.exp(-t)
    # erlang_tail accumulates e^-t sum_{i < n} t^i / i! for n = S + j
    for i in range(snapshots):
        erlang_tail += term
        term *= t / (i + 1)
    for j in range(int(half_nonc + 40 * math.sqrt(half_nonc + 1) + 40)):
        total += weight * (1.0 - erlang_tail)
        erlang_tail += term
        term *= t / (snapshots + j + 1)
        weight *= half_nonc / (j + 1)
    return total


def snapshot_mean_quantile(p, signal, sigma2, snapshots):
    lo, hi = 0.0, signal + sigma2
    while snapshot_mean_cdf(hi, signal, sigma2, snapshots) < p:
        hi *= 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if snapshot_mean_cdf(mid, signal, sigma2, snapshots) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_measure_power_statistics_match_snapshot_model():
    # closed-form draws, the explicit snapshot loop and the analytic law agree
    # on mean, variance and quantiles at small S and 0 dB per-snapshot SNR
    draws, snapshots = 4000, 4
    cfg0, H = random_scene(M=4, N=2, K=2, seed=3)
    cc = CombinerConfig(theta=np.zeros(4), tau=np.zeros(2))
    signal = signal_power(cc, H, cfg0, 0)
    cfg = make_cfg(4, 2, K=2, noise=signal)
    sigma2 = cfg.noise_power_w

    rng = np.random.default_rng(2024)
    closed = np.array([measure_power(signal, cfg, snapshots, rng) for _ in range(draws)])
    rng = np.random.default_rng(2025)
    loop = np.array(
        [reference_measure_power(cc, H, cfg, 0, snapshots, rng) for _ in range(draws)]
    )

    mean = sigma2 + signal
    var = (sigma2**2 + 2.0 * signal * sigma2) / snapshots
    se = np.sqrt(var / draws)
    for sample in (closed, loop):
        assert abs(sample.mean() - mean) < 4.0 * se
        assert sample.var(ddof=1) == pytest.approx(var, rel=0.1)
    assert abs(closed.mean() - loop.mean()) < 4.0 * np.sqrt(2.0) * se
    assert closed.var(ddof=1) / loop.var(ddof=1) == pytest.approx(1.0, rel=0.15)

    for p in (0.05, 0.5, 0.95):
        tol = 4.0 * np.sqrt(p * (1.0 - p) / draws)
        q = snapshot_mean_quantile(p, signal, sigma2, snapshots)
        for sample in (closed, loop):
            assert abs(np.mean(sample <= q) - p) < tol
        # the loop's share below the closed-form sample quantile
        assert abs(np.mean(loop <= np.quantile(closed, p)) - p) < np.sqrt(2.0) * tol


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
