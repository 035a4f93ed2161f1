"""Measurement oracle: received-power evaluation and bandwidth metrics.

The only module that touches the true channel. Learners observe it purely
through (optionally noisy) power measurements returned by the functions
here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix, SystemConfig
from .combiner import TWO_PI, CombinerConfig
from .files import write_atomic


@dataclass(frozen=True)
class GainProfile:
    """Per-subcarrier power gain |w_k^H h_k|^2 with the bin frequencies.

    `per_subcarrier` has shape (..., K): one row per configuration of a
    stack. The bandwidth and dB helpers take a single profile.
    """

    per_subcarrier: np.ndarray
    freqs_hz: np.ndarray

    def __post_init__(self):
        gains = np.atleast_1d(np.asarray(self.per_subcarrier, dtype=float))
        freqs = np.atleast_1d(np.asarray(self.freqs_hz, dtype=float))
        if gains.shape[-1:] != freqs.shape:
            raise ValueError("gain and frequency lengths differ")
        if np.any(gains < 0.0):
            raise ValueError("gains must be nonnegative")
        gains.setflags(write=False)
        freqs.setflags(write=False)
        object.__setattr__(self, "per_subcarrier", gains)
        object.__setattr__(self, "freqs_hz", freqs)


def _check_dims(cc: CombinerConfig, H: ChannelMatrix, cfg: SystemConfig) -> None:
    if H.num_antennas != cfg.num_antennas:
        raise ValueError("channel and config disagree on antenna count")
    if cc.theta.shape[-1] != cfg.num_antennas or cc.tau.shape[-1] != cfg.num_td_units:
        raise ValueError("configuration does not match the system dimensions")


def _inner_products(cc: CombinerConfig, H: ChannelMatrix, cfg: SystemConfig) -> np.ndarray:
    """w_k^H h_k for every subcarrier of H, shape (..., K) complex.

    Factored by sub-array: conj(w_mk) = e^{-j theta_m} e^{j 2 pi f_k tau_n} /
    sqrt(M) for element m of sub-array n, so the N per-sub-array sums of
    e^{-j theta_m} h_mk come from one batched (..., N, 1, P) @ (N, P, K)
    product and only the delay phasors need complex exponentials (not
    M x K), one row of K per distinct delay value of the stack. A stacked
    configuration (leading batch dims) gives one row per configuration.
    """
    N, P = cfg.num_td_units, cfg.ps_per_td
    K = H.num_subcarriers
    batch = cc.theta.shape[:-1]
    ps = np.exp(-1j * cc.theta).reshape(*batch, N, 1, P)
    partial = (ps @ H.coeffs.reshape(N, P, K))[..., 0, :]
    taus, which = np.unique(cc.tau, return_inverse=True)
    phasors = np.exp(1j * TWO_PI * taus[:, None] * H.freqs_hz[None, :])
    terms = phasors[which.reshape(cc.tau.shape)]
    terms *= partial
    return np.sum(terms, axis=-2) / np.sqrt(cfg.num_antennas)


def gain_profile(cc: CombinerConfig, H: ChannelMatrix, cfg: SystemConfig) -> GainProfile:
    """Noiseless per-subcarrier power gain |w_k^H h_k|^2.

    A stacked configuration gives one row of K gains per configuration.
    """
    _check_dims(cc, H, cfg)
    vals = np.abs(_inner_products(cc, H, cfg)) ** 2
    return GainProfile(per_subcarrier=vals, freqs_hz=H.freqs_hz)


def avg_amplitude_gain(cc: CombinerConfig, H: ChannelMatrix, cfg: SystemConfig) -> float:
    """Mean amplitude gain (1/K) sum_k |w_k^H h_k| (the design objective)."""
    gp = gain_profile(cc, H, cfg)
    return float(np.mean(np.sqrt(gp.per_subcarrier)))


def measure_power(signal, cfg: SystemConfig, snapshots: int, rng: np.random.Generator):
    """Received power |y|^2 averaged over `snapshots` snapshots, per signal power.

    Each snapshot transmits a constant-modulus symbol of power P_T/K through
    the combined channel and adds combined noise n ~ CN(0, sigma^2), with
    sigma^2 = noise_power_w > 0 (the combiner is unit-norm). For a signal power
    a = (P_T/K) |w_k^H h_k|^2, the mean of |y|^2 over S snapshots is
    distributed as (sigma^2 / 2S) chi'^2(2S, 2S a / sigma^2), with mean
    a + sigma^2 and variance (sigma^4 + 2 a sigma^2) / S. It is drawn in
    closed form, one noncentral chi-square draw from `rng` per entry of
    `signal` (a float or an array, drawn in C order), so the cost does not
    grow with S and successive calls are independent.
    """
    scale = cfg.noise_power_w / (2.0 * snapshots)
    return scale * rng.noncentral_chisquare(2 * snapshots, signal / scale)


def measure_profile_powers(
    cc: CombinerConfig,
    H: ChannelMatrix,
    cfg: SystemConfig,
    snapshots: int = 1,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Measured power for every subcarrier of H, shape (..., K).

    A stacked configuration gives one row per configuration, equal to what
    one call per configuration returns. Noiseless powers are the signal
    powers (P_T/K) |w_k^H h_k|^2 and need no `rng`; noisy powers are one
    `measure_power` draw over all bins (and configurations) at once.
    """
    _check_dims(cc, H, cfg)
    signal = cfg.tx_power_w / cfg.num_subcarriers * np.abs(_inner_products(cc, H, cfg)) ** 2
    if cfg.noise_power_w > 0.0:
        return measure_power(signal, cfg, snapshots, rng)
    return signal


def center_bin(freqs_hz: np.ndarray, center_freq_hz: float) -> int:
    """Index of the subcarrier bin nearest the given frequency."""
    return int(np.argmin(np.abs(np.asarray(freqs_hz) - center_freq_hz)))


def three_db_bandwidth(gp: GainProfile, cfg: SystemConfig) -> float:
    """Width of the half-gain band around the center bin, in Hz.

    Grows a window symmetrically around the bin nearest f_c for as long as
    every bin it reaches keeps at least half the center-bin gain; the window
    is clipped at the band edges. Returns (bins in window) * (B/K).
    """
    gains = gp.per_subcarrier
    K = gains.size
    c = center_bin(gp.freqs_hz, cfg.center_freq_hz)
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
    count = min(K - 1, c + w) - max(0, c - w) + 1
    return count * (cfg.bandwidth_hz / cfg.num_subcarriers)


def normalized_gain_db(gp: GainProfile) -> np.ndarray:
    """Per-subcarrier gain in dB relative to the bin nearest band center."""
    mid = 0.5 * (gp.freqs_hz[0] + gp.freqs_hz[-1])
    c = center_bin(gp.freqs_hz, mid)
    ref = gp.per_subcarrier[c]
    if ref == 0.0:
        raise ValueError("zero gain at the center bin")
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(gp.per_subcarrier / ref)


def write_gain_csv(gp: GainProfile, path, header_comment: str = "") -> None:
    """CSV export: freq_hz,gain_linear,gain_db_rel_center."""
    db = normalized_gain_db(gp)
    with write_atomic(path) as fh:
        if header_comment:
            fh.write(header_comment)
        fh.write("freq_hz,gain_linear,gain_db_rel_center\n")
        for f, g, d in zip(gp.freqs_hz, gp.per_subcarrier, db):
            fh.write(f"{f:.10g},{g:.12g},{d:.6f}\n")
