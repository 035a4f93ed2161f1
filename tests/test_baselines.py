import numpy as np
import pytest

from beamfocus.baselines import pdf_oracle, ps_only_oracle
from beamfocus.channel import (
    ChannelMatrix,
    SystemConfig,
    near_field_channel,
    subcarrier_frequencies,
)
from beamfocus.combiner import CombinerConfig, PhaseCodebook, recompensate_phases
from beamfocus.delay_search import delays_from_ddf, subarray_deltas
from beamfocus.geometry import UePosition, distance_difference, random_geometry
from beamfocus.sim import gain_profile, normalized_gain_db


def make_cfg(M, N, K=64, fc=100e9, B=10e9, tau_max=None):
    from beamfocus.geometry import SPEED_OF_LIGHT

    if tau_max is None:
        lam_c = SPEED_OF_LIGHT / fc
        tau_max = (M - 1) * lam_c / 2 / SPEED_OF_LIGHT  # aperture / c
    return SystemConfig(
        num_antennas=M,
        num_td_units=N,
        num_subcarriers=K,
        center_freq_hz=fc,
        bandwidth_hz=B,
        tau_max_s=tau_max,
    )


def scene(M, N, K=64, seed=0, aperture=None):
    from beamfocus.geometry import SPEED_OF_LIGHT

    cfg = make_cfg(M, N, K=K)
    if aperture is None:
        aperture = (M - 1) * (SPEED_OF_LIGHT / cfg.center_freq_hz) / 2
    geom = random_geometry(M, aperture, seed=seed)
    ue = UePosition(2.0, -2.0)
    H = near_field_channel(geom, ue, cfg)
    return cfg, geom, ue, H


def test_ps_only_constant_phase_channel():
    cfg = make_cfg(4, 2, K=1, B=0.0)
    coeffs = 0.25 * np.exp(0.9j) * np.ones((4, 1))
    H = ChannelMatrix(coeffs=coeffs, freqs_hz=[cfg.center_freq_hz])
    cb = PhaseCodebook(bits=3)
    cc = ps_only_oracle(H, cfg, cb)
    assert np.all(cc.theta == cc.theta[0])
    assert np.all(cc.tau == 0.0)


def test_ps_only_quantization_loss_bound():
    for bits in (1, 2, 3, 4):
        cb = PhaseCodebook(bits=bits)
        for seed in range(5):
            cfg, geom, ue, H = scene(16, 4, K=5, seed=seed)
            cc = ps_only_oracle(H, cfg, cb)
            gp = gain_profile(cc, H, cfg)
            k = 2
            coherent = np.sum(np.abs(H.coeffs[:, k])) ** 2 / cfg.num_antennas
            bound = np.cos(np.pi / 2**bits) ** 2 * (1 - 1e-9)
            assert gp.per_subcarrier[k] / coherent >= bound


@pytest.mark.parametrize("bits", [3])
def test_pdf_oracle_is_the_inline_focusing_formula(bits):
    # the oracle's delays are the exact distance differences at the
    # sub-array centers, shifted and clipped; its phases the conjugate design
    # recompensated for them, bit for bit
    cb = PhaseCodebook(bits=bits)
    for M, N in ((16, 4), (64, 16)):
        cfg, geom, ue, H = scene(M, N, seed=M)
        cc = pdf_oracle(geom, ue, H, cfg, cb)
        deltas = subarray_deltas(geom, cfg.num_td_units)
        tau = delays_from_ddf(distance_difference(geom, deltas, ue), cfg.tau_max_s)
        theta = recompensate_phases(ps_only_oracle(H, cfg, cb).theta, tau, cfg, cb)
        assert np.array_equal(cc.tau, tau)
        assert np.array_equal(cc.theta, theta)


def test_pdf_oracle_delays_respect_bounds():
    cfg, geom, ue, H = scene(32, 8, seed=3)
    cb = PhaseCodebook(bits=3)
    cc = pdf_oracle(geom, ue, H, cfg, cb)
    assert cc.tau.min() == 0.0
    assert cc.tau.max() <= cfg.tau_max_s
    assert cc.tau.shape == (8,)


def test_pdf_oracle_far_field_broadside_small_delays():
    # far away on the array normal the distance differences are tiny
    M = 16
    cfg = make_cfg(M, 4, K=9)
    from beamfocus.geometry import SPEED_OF_LIGHT

    aperture = (M - 1) * (SPEED_OF_LIGHT / cfg.center_freq_hz) / 2
    geom = random_geometry(M, aperture, seed=5)
    ue = UePosition(500.0, 0.0)
    H = near_field_channel(geom, ue, cfg)
    cb = PhaseCodebook(bits=3)
    cc = pdf_oracle(geom, ue, H, cfg, cb)
    # delay spread under a picosecond this deep into the far field
    assert cc.tau.max() < 1e-12
    gp_pdf = gain_profile(cc, H, cfg)
    gp_ps = gain_profile(ps_only_oracle(H, cfg, cb), H, cfg)
    assert np.allclose(
        normalized_gain_db(gp_pdf), normalized_gain_db(gp_ps), atol=0.5
    )


def test_pdf_oracle_beats_ps_only_across_band():
    cfg, geom, ue, H = scene(64, 8, K=256, seed=11)
    cb = PhaseCodebook(bits=3)
    from beamfocus.sim import avg_amplitude_gain

    amp_pdf = avg_amplitude_gain(pdf_oracle(geom, ue, H, cfg, cb), H, cfg)
    amp_ps = avg_amplitude_gain(ps_only_oracle(H, cfg, cb), H, cfg)
    assert amp_pdf > amp_ps
