"""Measurement oracle: received-power evaluation and bandwidth metrics.

The one home of the measurement model, through which alone the learners
observe the channel: the center and profile callbacks, on one shared
observation step, and the snapshot noise they draw. Also the noiseless
gain profiles and bandwidth metrics that runs report. README "Measurement
noise" describes the model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix, SystemConfig
from .combiner import TWO_PI, CombinerConfig
from .config import ExperimentConfig, build_codebook
from .files import write_atomic


@dataclass(frozen=True)
class GainProfile:
    """Per-subcarrier power gain |w_k^H h_k|^2 with the (K,) bin frequencies.

    `per_subcarrier` has shape (..., K): one row per configuration of a
    stack. The bandwidth and dB helpers take a single profile.
    """

    per_subcarrier: np.ndarray
    freqs_hz: np.ndarray


def _check_dims(cc: CombinerConfig, H: ChannelMatrix, cfg: SystemConfig) -> None:
    if H.num_antennas != cfg.num_antennas:
        raise ValueError("channel and config disagree on antenna count")
    if cc.theta.shape[-1] != cfg.num_antennas or cc.tau.shape[-1] != cfg.num_td_units:
        raise ValueError("configuration does not match the system dimensions")


def _inner_products(cc: CombinerConfig, H: ChannelMatrix, cfg: SystemConfig) -> np.ndarray:
    """w_k^H h_k for every subcarrier of H, shape (..., K) complex.

    A stacked configuration (leading batch dims) gives one row per
    configuration.
    """
    N, P = cfg.num_td_units, cfg.ps_per_td
    K = H.num_subcarriers
    batch = cc.theta.shape[:-1]
    ps = np.exp(-1j * cc.theta).reshape(*batch, N, 1, P)
    partial = (ps @ H.coeffs.reshape(N, P, K))[..., 0, :]
    terms = np.exp(1j * TWO_PI * cc.tau[..., None] * H.freqs_hz)
    terms *= partial
    return np.sum(terms, axis=-2) / np.sqrt(cfg.num_antennas)


def gain_profile(cc: CombinerConfig, H: ChannelMatrix, cfg: SystemConfig) -> GainProfile:
    """Noiseless per-subcarrier power gain |w_k^H h_k|^2.

    A stacked configuration gives one row of K gains per configuration.
    """
    _check_dims(cc, H, cfg)
    vals = np.abs(_inner_products(cc, H, cfg)) ** 2
    return GainProfile(per_subcarrier=vals, freqs_hz=H.freqs_hz)


def mean_amplitude(powers):
    """Mean square root over the last axis of powers clipped at 0, one score per row;
    of a profile's `per_subcarrier`, the mean amplitude gain (1/K) sum_k |w_k^H h_k|."""
    return np.mean(np.sqrt(np.maximum(np.asarray(powers, dtype=float), 0.0)), axis=-1)


def avg_amplitude_gain(cc: CombinerConfig, H: ChannelMatrix, cfg: SystemConfig) -> float:
    """Mean amplitude gain (1/K) sum_k |w_k^H h_k| (the design objective)."""
    return float(mean_amplitude(gain_profile(cc, H, cfg).per_subcarrier))


def measure_power(signal, cfg: SystemConfig, snapshots: int, rng: np.random.Generator):
    """Received power |y|^2 averaged over `snapshots` snapshots, per signal power.

    For a signal power a = (P_T/K) |w_k^H h_k|^2 and combined noise
    CN(0, sigma^2), sigma^2 = noise_power_w > 0, the result is distributed
    as (sigma^2 / 2S) chi'^2(2S, 2S a / sigma^2): mean a + sigma^2, variance
    (sigma^4 + 2 a sigma^2) / S. `signal` is a float or an array; each entry
    takes one draw from `rng`, in C order, whatever S, so successive calls
    are independent.
    """
    scale = cfg.noise_power_w / (2.0 * snapshots)
    return scale * rng.noncentral_chisquare(2 * snapshots, signal / scale)


def _observer(ec: ExperimentConfig, cfg: SystemConfig, *key: int):
    """The observation step of one measurement callback, amplitudes -> powers.

    Signal powers (P_T/K)|w^H h|^2, in noisy mode one `measure_power` draw
    per entry in C order, minus the noise floor, clipped at zero. The
    callback owns one Generator spawned from learner.seed with spawn key
    `key`: (0,) for the center callback, (1, N) for the profile callback of
    the N-TD-unit search; critic.START_KEY, (2,), keys the critic's start.
    """
    rng = np.random.default_rng(np.random.SeedSequence(ec.learner_seed, spawn_key=key))

    def observe(amplitudes):
        p = cfg.tx_power_w / cfg.num_subcarriers * np.abs(amplitudes) ** 2
        if cfg.noise_power_w > 0.0:
            p = measure_power(p, cfg, ec.snapshots, rng)
        return np.maximum(p - cfg.noise_power_w, 0.0)

    return observe


def make_center_measure(ec: ExperimentConfig, H: ChannelMatrix, cfg: SystemConfig):
    """Callback phases -> center-frequency powers for the phase learner.

    `phases` holds the M codebook phases of a zero-delay beam, or a (..., M)
    stack of beams; the callback returns one power per beam, shape (...), a
    stacked call equal to one call per beam in C order. `PhaseCodebook.index`
    keys the phases: a non-member of the `system.ps_bits` codebook (NaN, inf
    and -pi included) raises ValueError.
    """
    h = H.coeffs[:, center_bin(H.freqs_hz, cfg.center_freq_hz)] / np.sqrt(cfg.num_antennas)
    observe = _observer(ec, cfg, 0)
    cb = build_codebook(ec)
    conj_phasors = cb.phasors.conj()

    def measure(phases):
        # w^H h at the center bin for w = e^{j phases} / sqrt(M) (zero delays)
        return observe(conj_phasors[cb.index(phases)] @ h)

    return measure


def make_profile_measure(ec: ExperimentConfig, H: ChannelMatrix, cfg: SystemConfig):
    """Callback config -> per-subcarrier powers for the delay search.

    Takes one configuration or a stack and returns the powers of every bin
    of H, shape (..., K), a stacked call equal to one call per configuration
    in C order. Its noise stream is keyed by cfg.num_td_units.
    """
    observe = _observer(ec, cfg, 1, cfg.num_td_units)

    def measure(cc):
        _check_dims(cc, H, cfg)
        return observe(_inner_products(cc, H, cfg))

    return measure


def center_bin(freqs_hz: np.ndarray, center_freq_hz: float) -> int:
    """Index of the subcarrier bin nearest the given frequency.

    Of two bins that tie to within 8 ulps of the frequency, the first is
    taken: rounding in the bin grid cannot then make f_c and the band
    midpoint of an even grid pick different bins.
    """
    dist = np.abs(np.asarray(freqs_hz) - center_freq_hz)
    return int(np.argmax(dist <= dist.min() + 8 * np.spacing(abs(center_freq_hz))))


def three_db_bandwidth(gp: GainProfile, cfg: SystemConfig) -> float:
    """Width of the half-gain band around the center bin, in Hz.

    The window is symmetric around the bin nearest f_c: it stops one bin
    short of the nearest bin below half the center-bin gain, or at the
    farther band edge if no bin is below, and is clipped at the band edges.
    Returns (bins in window) * (B/K); nan if the center-bin gain is 0, as
    a beam with no gain has no half-gain band.
    """
    gains = gp.per_subcarrier
    K = gains.size
    c = center_bin(gp.freqs_hz, cfg.center_freq_hz)
    if gains[c] == 0.0:
        return float("nan")
    below = np.abs(np.flatnonzero(gains < 0.5 * gains[c]) - c)
    w = int(below.min()) - 1 if below.size else max(c, K - 1 - c)
    count = min(K - 1, c + w) - max(0, c - w) + 1
    return count * (cfg.bandwidth_hz / cfg.num_subcarriers)


def normalized_gain_db(gp: GainProfile) -> np.ndarray:
    """Per-subcarrier gain in dB relative to the bin nearest band center; nan if its gain is 0."""
    mid = 0.5 * (gp.freqs_hz[0] + gp.freqs_hz[-1])
    c = center_bin(gp.freqs_hz, mid)
    ref = gp.per_subcarrier[c] or np.nan
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(gp.per_subcarrier / ref)


def write_gain_csv(gp: GainProfile, path, header_comment: str = "") -> None:
    """CSV export: freq_hz,gain_linear,gain_db_rel_center."""
    db = normalized_gain_db(gp)
    with write_atomic(path) as fh:
        fh.write(header_comment)
        fh.write("freq_hz,gain_linear,gain_db_rel_center\n")
        rows = zip(gp.freqs_hz.tolist(), gp.per_subcarrier.tolist(), db.tolist())
        fh.write("".join(["%.10g,%.12g,%.6f\n" % row for row in rows]))
