import math
import warnings

import numpy as np
import pytest

from beamfocus.channel import (
    ChannelMatrix,
    SystemConfig,
    near_field_channel,
    subcarrier_frequencies,
)
from beamfocus.combiner import MAX_BITS, CombinerConfig, PhaseCodebook, effective_combiner
from beamfocus.config import (
    ExperimentConfig,
    build_channel,
    build_codebook,
    build_geometry,
    build_system,
)
from beamfocus import sim
from beamfocus.geometry import UePosition, random_geometry
from beamfocus.sim import (
    GainProfile,
    avg_amplitude_gain,
    center_bin,
    gain_profile,
    make_center_measure,
    make_profile_measure,
    measure_power,
    normalized_gain_db,
    three_db_bandwidth,
    write_gain_csv,
)
from tiny_scenario import tiny_config


def make_cfg(M, N, K=4, fc=100e9, B=10e9, noise=0.0, P_T=1.0):
    return SystemConfig(
        num_antennas=M,
        num_td_units=N,
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
        p = make_profile_measure(ExperimentConfig(snapshots=snaps), H, cfg)(cc)
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


def record_draws(monkeypatch):
    """Patch sim.measure_power to keep each raw draw, before the noise floor
    is subtracted and the powers are clipped at zero."""
    draws = []

    def recording_measure_power(*args):
        draws.append(measure_power(*args))
        return draws[-1]

    monkeypatch.setattr(sim, "measure_power", recording_measure_power)
    return draws


def test_measure_profile_matches_scalar_measurements(monkeypatch):
    cfg = make_cfg(4, 2, K=3, noise=1e-6)
    geom = random_geometry(4, 0.05, seed=12)
    H = near_field_channel(geom, UePosition(1.0, 0.1), cfg)
    cc = CombinerConfig(theta=np.zeros(4), tau=np.zeros(2))
    draws = record_draws(monkeypatch)
    vec = make_profile_measure(ExperimentConfig(learner_seed=7, snapshots=9), H, cfg)(cc)
    # the profile callback's stream is keyed (learner.seed, 1, N)
    rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(1, cfg.num_td_units)))
    scalars = [measure_power(signal_power(cc, H, cfg, k), cfg, 9, rng) for k in range(3)]
    # one draw per bin, in bin order, from the same stream: the raw draws,
    # before the noise floor is subtracted, equal the scalar draws
    assert len(draws) == 1
    np.testing.assert_allclose(draws[0], scalars, rtol=1e-12)
    # the returned powers are those draws minus the floor, clipped at zero
    floored = np.maximum(np.subtract(scalars, cfg.noise_power_w), 0.0)
    np.testing.assert_allclose(vec, floored, rtol=1e-12)


def every_fourth_bin(H):
    # a decimated channel: 16 of the 64 bins of tiny_config
    return ChannelMatrix(coeffs=H.coeffs[:, ::4], freqs_hz=H.freqs_hz[::4])


def test_noisy_measure_callbacks_draw_fresh_noise():
    ec = tiny_config(noise_mode="snapshots", noise_power_w=1e-9, snapshots=100)
    cfg = build_system(ec)
    H = build_channel(ec, build_geometry(ec), cfg)
    center = make_center_measure(ec, H, cfg)
    phases = np.zeros(cfg.num_antennas)
    assert center(phases) != center(phases)
    profile = make_profile_measure(ec, every_fourth_bin(H), cfg)
    cc = CombinerConfig(theta=phases, tau=np.zeros(cfg.num_td_units))
    assert not np.array_equal(profile(cc), profile(cc))
    # a fresh callback replays its stream from learner.seed
    assert make_center_measure(ec, H, cfg)(phases) == make_center_measure(ec, H, cfg)(phases)


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


@pytest.mark.parametrize("noise_mode", ["noiseless", "snapshots"])
@pytest.mark.parametrize("bits", range(1, MAX_BITS + 1))
def test_center_measure_equals_the_exponential_bit_for_bit(bits, noise_mode):
    # the callback's e^{-j phase} table gives the powers of the exponential
    # form, bit for bit, on stacked beams that hold every codebook member
    ec = tiny_config(ps_bits=bits, noise_mode=noise_mode, noise_power_w=1e-9, snapshots=3)
    cfg = build_system(ec)
    H = build_channel(ec, build_geometry(ec), cfg)
    M, values = cfg.num_antennas, build_codebook(ec).values
    rows = -(-values.size // M) + 2
    rng = np.random.default_rng(bits)
    phases = values[rng.permutation(np.arange(rows * M) % values.size)].reshape(rows, 1, M)
    h = H.coeffs[:, center_bin(H.freqs_hz, cfg.center_freq_hz)] / np.sqrt(M)
    observe = sim._observer(ec, cfg, 0)  # a fresh copy of the callback's stream
    got = make_center_measure(ec, H, cfg)(phases)
    assert got.shape == (rows, 1)
    assert np.array_equal(got, observe(np.exp(-1j * phases) @ h))


def test_center_measure_rejects_phases_off_the_codebook():
    # the codebook lies in (-pi, pi], so -pi is not a member; a rejected
    # beam raises ValueError, alone or in a stack, and warns of nothing
    ec = tiny_config()
    cfg = build_system(ec)
    H = build_channel(ec, build_geometry(ec), cfg)
    values = build_codebook(ec).values
    measure = make_center_measure(ec, H, cfg)
    beam = values[np.random.default_rng(4).integers(0, values.size, cfg.num_antennas)]
    for bad in (values[0] + 1e-9, values[-1] - 1e-12, np.nan, np.inf, -np.inf, -np.pi, 1e300, 0.5):
        phases = beam.copy()
        phases[1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="codebook"):
                measure(phases)
            with pytest.raises(ValueError, match="codebook"):
                measure(np.stack([beam, phases]))
    assert measure(beam) == make_center_measure(ec, H, cfg)(beam)


def test_profile_noise_stream_is_keyed_by_td_count():
    ec = tiny_config(noise_mode="snapshots", noise_power_w=1e-9, snapshots=100)
    H_dec = every_fourth_bin(build_channel(ec, build_geometry(ec), build_system(ec)))
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


def stacked_scene(M=16, N=4, K=24, C=7, noise=0.0, seed=3):
    cfg = make_cfg(M, N, K=K, noise=noise)
    geom = random_geometry(M, 0.05, seed=seed)
    H = near_field_channel(geom, UePosition(1.2, -0.4), cfg)
    rng = np.random.default_rng(seed)
    theta = PhaseCodebook(bits=3).values[rng.integers(0, 8, size=(C, M))]
    tau = rng.uniform(0.0, 1e-10, size=(C, N))
    tau[2] = tau[1]  # repeated delay values; each row still equals its single config bitwise
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
def test_stacked_profile_powers_equal_sequential_measurements(noise, monkeypatch):
    cfg, H, theta, tau = stacked_scene(noise=noise)
    draws = record_draws(monkeypatch)
    ec = ExperimentConfig(learner_seed=4, snapshots=20)
    stacked = make_profile_measure(ec, H, cfg)(CombinerConfig(theta=theta, tau=tau))
    sequential = make_profile_measure(ec, H, cfg)
    for c in range(theta.shape[0]):
        cc = CombinerConfig(theta=theta[c], tau=tau[c])
        assert np.array_equal(stacked[c], sequential(cc))
    if noise > 0.0:
        # the raw draws match too, also in the bins that clip at zero
        assert len(draws) == 1 + theta.shape[0]
        for c in range(theta.shape[0]):
            assert np.array_equal(draws[0][c], draws[1 + c])


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


def growing_window_bins(gains, c):
    """The bin count of the 3-dB window, grown one bin per side at a time.

    The reference for `three_db_bandwidth`'s closed-form rule: widen the
    window around bin c while every bin it reaches keeps at least half the
    center gain, and stop once both sides are past the band edges.
    """
    K = gains.size
    threshold = 0.5 * gains[c]
    w = 0
    while True:
        lo, hi = c - (w + 1), c + (w + 1)
        if lo < 0 and hi >= K:
            break
        if lo >= 0 and gains[lo] < threshold:
            break
        if hi < K and gains[hi] < threshold:
            break
        w += 1
    return min(K - 1, c + w) - max(0, c - w) + 1


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 16, 64])
def test_three_db_bandwidth_equals_the_growing_window(K):
    # random, tied (bins at exactly half the center gain), all-zero and flat
    # profiles, with the center at every bin of the band; a zero center
    # gain has no half-gain band, so its bandwidth is nan
    cfg = make_cfg(2, 1, K=K)
    rng = np.random.default_rng(K)
    profiles = [np.zeros(K), np.ones(K)]
    for _ in range(20):
        profiles.append(rng.uniform(0.0, 1.0, K))
        profiles.append(rng.choice([0.0, 0.25, 0.5, 1.0], K))
    for c in range(K):
        freqs = cfg.center_freq_hz + (np.arange(K) - c) * 1e6
        for gains in profiles:
            got = three_db_bandwidth(GainProfile(per_subcarrier=gains, freqs_hz=freqs), cfg)
            if gains[c] == 0.0:
                assert np.isnan(got)
            else:
                assert got == growing_window_bins(gains, c) * (cfg.bandwidth_hz / K)


def test_normalized_gain_db():
    cfg = make_cfg(2, 1, K=5)
    gp = _profile(np.ones(5), cfg)
    assert np.allclose(normalized_gain_db(gp), 0.0)
    gp2 = _profile(np.array([0.1, 0.01, 1.0, 0.5, 1.0]), cfg)
    db = normalized_gain_db(gp2)
    assert db[0] == pytest.approx(-10.0)
    assert db[1] == pytest.approx(-20.0)
    assert db[2] == 0.0
    # a zero center gain leaves nothing to be relative to
    db = normalized_gain_db(_profile(np.array([1.0, 0.0, 1.0]), make_cfg(2, 1, K=3)))
    assert np.isnan(db).all()


def test_gain_csv_export(tmp_path):
    cfg = make_cfg(2, 1, K=4)
    gp = _profile(np.array([0.5, 1.0, 0.9, 0.2]), cfg)
    path = tmp_path / "gain.csv"
    write_gain_csv(gp, path, header_comment="# seed = 1\n")
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed = 1"
    assert lines[1] == "freq_hz,gain_linear,gain_db_rel_center"
    assert len(lines) == 2 + 4


def test_gain_csv_rows_equal_the_per_value_format(tmp_path):
    # the one-format-per-row writer against a per-value f-string loop, with
    # a zero gain (-inf dB) and values needing every printed digit
    cfg = make_cfg(2, 1, K=5)
    gp = _profile(np.array([1 / 3, 0.0, 1.0, 2e-17, np.pi]), cfg)
    path = tmp_path / "gain.csv"
    write_gain_csv(gp, path)
    db = normalized_gain_db(gp)
    want = [f"{f:.10g},{g:.12g},{d:.6f}" for f, g, d in zip(gp.freqs_hz, gp.per_subcarrier, db)]
    assert path.read_text().splitlines()[1:] == want
    assert "-inf" in want[1]


def test_center_bin_even_grid_tie():
    from beamfocus.channel import subcarrier_frequencies

    cfg = make_cfg(2, 1, K=4)
    freqs = subcarrier_frequencies(cfg)
    assert center_bin(freqs, cfg.center_freq_hz) in (1, 2)


def test_center_bin_picks_one_bin_for_f_c_and_the_band_midpoint():
    # on an even grid f_c and the band midpoint tie between the two middle
    # bins; float rounding broke the tie both ways before
    def bins(K, fc, B):
        freqs = subcarrier_frequencies(make_cfg(2, 1, K=K, fc=fc, B=B))
        return center_bin(freqs, fc), center_bin(freqs, 0.5 * (freqs[0] + freqs[-1]))

    assert bins(4328, 14209318626.224792, 8911523795.329802) == (2163, 2163)
    assert bins(2048, 100e9, 10e9) == (1023, 1023)  # the reference grid
    rng = np.random.default_rng(0)
    for _ in range(2000):
        K, fc = int(rng.integers(2, 5000)), 10 ** rng.uniform(8, 12)
        c, mid = bins(K, fc, rng.uniform(0.0, 1.9) * fc)
        assert c == mid == (K - 1) // 2  # the lower of two middle bins
