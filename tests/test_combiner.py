import tracemalloc
import warnings

import numpy as np
import pytest

from beamfocus.channel import SystemConfig
from beamfocus.combiner import (
    CombinerConfig,
    MAX_BITS,
    PhaseCodebook,
    effective_combiner,
    load_combiner,
    quantize_phase,
    recompensate_phases,
    save_combiner,
    wrap_angle,
)
from beamfocus.baselines import ps_only_oracle
from beamfocus.channel import near_field_channel
from beamfocus.geometry import UePosition, random_geometry
from beamfocus.sim import gain_profile


def make_cfg(M, N, fc=1e9, K=1, B=0.0, tau_max=1.0):
    return SystemConfig(
        num_antennas=M,
        num_td_units=N,
        num_subcarriers=K,
        center_freq_hz=fc,
        bandwidth_hz=B,
        tau_max_s=tau_max,
    )


def test_codebook_values_r2():
    cb = PhaseCodebook(bits=2)
    assert np.allclose(cb.values, [-np.pi / 2, 0.0, np.pi / 2, np.pi])


def test_codebook_bits_range():
    assert PhaseCodebook(bits=MAX_BITS).size == 256
    for bits in (0, MAX_BITS + 1, 40):
        with pytest.raises(ValueError, match="bits"):
            PhaseCodebook(bits=bits)


def test_codebook_contains_zero_and_pi():
    for bits in range(1, 6):
        cb = PhaseCodebook(bits=bits)
        assert 0.0 in cb.values
        assert np.pi in cb.values
        assert np.all(cb.values > -np.pi) and np.all(cb.values <= np.pi)
        assert np.allclose(np.diff(cb.values), 2 * np.pi / 2**bits)


def test_quantize_examples():
    cb = PhaseCodebook(bits=2)
    assert quantize_phase(0.1, cb) == 0.0
    # wrap-around: -3.10 is ~0.042 rad from pi
    assert quantize_phase(-3.10, cb) == np.pi
    # midpoint tie goes to the larger codebook value
    assert quantize_phase(np.pi / 4, cb) == np.pi / 2


def test_quantize_r3_example():
    cb = PhaseCodebook(bits=3)
    assert quantize_phase(0.4, cb) == pytest.approx(np.pi / 4)


def test_quantize_rejects_nonfinite():
    cb = PhaseCodebook(bits=2)
    with pytest.raises(ValueError):
        quantize_phase(np.nan, cb)
    with pytest.raises(ValueError):
        quantize_phase(np.inf, cb)


def reference_quantize_phase(phi, cb):
    # the nearest/tie rule applied to every codebook member
    values = cb.values
    dist = np.abs(wrap_angle(np.asarray(phi, dtype=float)[..., None] - values))
    tied = dist == dist.min(axis=-1, keepdims=True)
    return values[values.size - 1 - np.argmax(tied[..., ::-1], axis=-1)]


@pytest.mark.parametrize("bits", range(1, MAX_BITS + 1))
def test_quantize_equals_the_all_members_rule(bits):
    cb = PhaseCodebook(bits=bits)
    rng = np.random.default_rng(bits)
    step = 2 * np.pi / cb.size
    values = cb.values
    midpoints = np.concatenate(
        [0.5 * (values[:-1] + values[1:]), values[-1] + 0.5 * step - 2 * np.pi * np.arange(-3, 4)]
    )
    multiples = 0.5 * step * np.concatenate([np.arange(-64, 65), rng.integers(-10**9, 10**9, 500)])
    phases = np.concatenate(
        [
            rng.uniform(-20.0, 20.0, 2000),
            values,
            midpoints,
            np.nextafter(midpoints, np.inf),
            np.nextafter(midpoints, -np.inf),
            multiples,
            np.nextafter(multiples, np.inf),
            np.nextafter(multiples, -np.inf),
            [1e9, -1e9, 1e9 + 0.3, 3e12, -7e15, 1e300, -1e300],  # huge phases, many turns out
        ]
    )
    got = quantize_phase(phases, cb)
    assert np.array_equal(got, reference_quantize_phase(phases, cb))
    assert np.array_equal(got.reshape(-1, 1), quantize_phase(phases.reshape(-1, 1), cb))
    for phi in phases[::97]:
        assert quantize_phase(float(phi), cb) == reference_quantize_phase(phi, cb)


def test_effective_combiner_identity():
    cfg = make_cfg(4, 2)
    cc = CombinerConfig(theta=np.zeros(4), tau=np.zeros(2))
    for f in (1e8, 1e9, 37e9):
        assert np.allclose(effective_combiner(cc, cfg, f), 0.5 * np.ones(4))


def test_effective_combiner_half_period_delay():
    f = 3.7e9
    cfg = make_cfg(2, 2, fc=f)
    cc = CombinerConfig(theta=np.zeros(2), tau=[0.0, 1 / (2 * f)])
    w = effective_combiner(cc, cfg, f)
    assert np.allclose(w, np.array([1.0, -1.0]) / np.sqrt(2), atol=1e-12)


def test_effective_combiner_subarray_sharing():
    cfg = make_cfg(4, 2)
    cc = CombinerConfig(theta=np.zeros(4), tau=[0.0, 0.33e-9])
    w = effective_combiner(cc, cfg, 2.2e9)
    assert w[0] == w[1] and w[2] == w[3]
    assert w[0] != w[2]


def test_effective_combiner_constant_modulus():
    rng = np.random.default_rng(1)
    cfg = make_cfg(8, 4)
    for _ in range(20):
        cc = CombinerConfig(
            theta=rng.uniform(-np.pi, np.pi, 8), tau=rng.uniform(0, 1e-9, 4)
        )
        w = effective_combiner(cc, cfg, rng.uniform(1e9, 10e9))
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(np.abs(w), 1 / np.sqrt(8), atol=1e-12)


def test_recompensate_zero_delay_is_identity():
    cfg = make_cfg(4, 2, fc=5e9)
    cb = PhaseCodebook(bits=3)
    theta = cb.values[[0, 3, 5, 7]]
    out = recompensate_phases(theta, np.zeros(2), cfg, cb)
    assert np.array_equal(out, theta)


def test_recompensate_full_turn_wraps():
    fc = 2.5e9
    cfg = make_cfg(2, 1, fc=fc)
    cb = PhaseCodebook(bits=3)
    out = recompensate_phases(np.zeros(2), [1.0 / fc], cfg, cb)  # 2 pi fc tau = 2 pi
    assert np.allclose(out, 0.0)


def test_recompensate_r3_example():
    fc = 1e9
    cfg = make_cfg(1, 1, fc=fc)
    cb = PhaseCodebook(bits=3)
    tau = 0.4 / (2 * np.pi * fc)
    out = recompensate_phases([0.0], [tau], cfg, cb)
    assert out[0] == pytest.approx(np.pi / 4)


def test_recompensate_memory_does_not_grow_with_the_codebook():
    # one delay-search block at 8 bits: a (rows, M, 2^bits) distance array
    # would take 192 MiB here
    cfg = make_cfg(256, 16, fc=100e9, tau_max=1e-9)
    cb = PhaseCodebook(bits=8)
    rng = np.random.default_rng(0)
    theta = cb.values[rng.integers(0, cb.size, 256)]
    tau = rng.uniform(0.0, cfg.tau_max_s, (128, 16))
    tracemalloc.start()
    try:
        recompensate_phases(theta, tau, cfg, cb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_center_frequency_preservation_bound():
    # delays plus recompensation may not cost more than the quantization
    # bound at the center frequency, for conjugate-matched phases
    rng = np.random.default_rng(7)
    for bits in (1, 2, 3, 4):
        cb = PhaseCodebook(bits=bits)
        bound = 2.0 * (1.0 - np.cos(np.pi / 2**bits))
        for trial in range(25):
            M, N = 64, 8
            cfg = make_cfg(M, N, fc=100e9, K=1, B=0.0)
            geom = random_geometry(M, 0.38, seed=100 * bits + trial)
            H = near_field_channel(geom, UePosition(2.0, -2.0), cfg)
            theta_star = ps_only_oracle(H, cfg, cb).theta
            tau = rng.uniform(0, 1e-10, N)
            theta_new = recompensate_phases(theta_star, tau, cfg, cb)
            g_old = gain_profile(
                CombinerConfig(theta=theta_star, tau=np.zeros(N)), H, cfg
            ).per_subcarrier[0]
            g_new = gain_profile(
                CombinerConfig(theta=theta_new, tau=tau), H, cfg
            ).per_subcarrier[0]
            rel_loss = (g_old - g_new) / g_old
            assert rel_loss <= bound


def test_combiner_config_wraps_and_validates():
    cc = CombinerConfig(theta=[3 * np.pi], tau=[0.0])
    assert cc.theta[0] == pytest.approx(np.pi)
    with pytest.raises(ValueError):
        CombinerConfig(theta=[0.0], tau=[-1e-12])
    with pytest.raises(ValueError):
        CombinerConfig(theta=[np.nan], tau=[0.0])


def test_serialization_roundtrip_bit_exact(tmp_path):
    cb = PhaseCodebook(bits=3)
    rng = np.random.default_rng(11)
    theta = cb.values[rng.integers(0, cb.size, size=16)]
    tau = rng.uniform(0, 1e-9, 4)
    cc = CombinerConfig(theta=theta, tau=tau)
    path = tmp_path / "combiner.txt"
    save_combiner(cc, cb, path, header_comment="# run = test\n")
    assert path.read_text().startswith("# run = test\nps_bits 3\ntheta_idx ")
    cc2, cb2 = load_combiner(path)
    assert cb2.bits == 3
    assert np.array_equal(cc2.theta, cc.theta)  # indices make phases bit-exact
    assert np.allclose(cc2.tau, cc.tau, atol=1e-18)  # ps with 6 decimals


def test_serialization_rejects_non_codebook_phase(tmp_path):
    cb = PhaseCodebook(bits=2)
    path = tmp_path / "combiner.txt"
    # a phase must be a member exactly, not within a tolerance
    for theta in (0.3, np.pi / 2 + 1e-12):
        with pytest.raises(ValueError, match="codebook"):
            save_combiner(CombinerConfig(theta=[theta], tau=[0.0]), cb, path)
        assert not path.exists()


def test_codebook_index_roundtrip():
    for bits in range(1, MAX_BITS + 1):
        cb = PhaseCodebook(bits=bits)
        idx = np.arange(cb.size)
        assert np.array_equal(cb.index(cb.values[idx]), idx)
        assert np.array_equal(cb.index(cb.values[idx].reshape(2, -1)), idx.reshape(2, -1))
        assert cb.index(cb.values[-1]) == cb.size - 1
        assert np.array_equal(cb.phasors, np.exp(1j * cb.values))
        with pytest.raises(ValueError, match="read-only"):
            cb.values[0] = 0.0
        # one ulp either side of every member, and what lies outside (-pi, pi]
        near = np.concatenate([np.nextafter(cb.values, -np.inf), np.nextafter(cb.values, np.inf)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (*near, -np.pi, np.nan, np.inf, -np.inf, 1e300):
                with pytest.raises(ValueError, match="codebook"):
                    cb.index(np.array([0.0, bad]))
