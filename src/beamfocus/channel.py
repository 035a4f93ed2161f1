"""Near-field wideband uplink channel synthesis.

Builds the M x K matrix of spherical-wave channel coefficients over the
subcarrier grid: entry (m, k) has magnitude rho_k * lambda_k / (4 pi d_m)
and phase -2 pi d_m / lambda_k, where d_m is the element-to-user distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import SPEED_OF_LIGHT, ArrayGeometry, UePosition, distances


@dataclass(frozen=True)
class SystemConfig:
    """Static system parameters.

    num_antennas:    M, array elements (must equal num_td_units * ps_per_td)
    num_td_units:    N, time-delay units
    ps_per_td:       P, phase shifters driven by each TD unit
    num_subcarriers: K, frequency bins tiling the band
    center_freq_hz:  f_c
    bandwidth_hz:    B (total two-sided band around f_c)
    tau_max_s:       maximum delay a TD unit supports
    tx_power_w:      total transmit power, split evenly over subcarriers
    noise_power_w:   per-subcarrier receive noise power (0 = noiseless)
    """

    num_antennas: int
    num_td_units: int
    ps_per_td: int
    num_subcarriers: int
    center_freq_hz: float
    bandwidth_hz: float
    tau_max_s: float
    tx_power_w: float = 1.0
    noise_power_w: float = 0.0

    def __post_init__(self):
        if self.num_antennas != self.num_td_units * self.ps_per_td:
            raise ValueError(
                "M = N*P violated "
                f"(M={self.num_antennas}, N={self.num_td_units}, P={self.ps_per_td})"
            )
        if self.num_subcarriers < 1:
            raise ValueError("need at least one subcarrier")
        if self.bandwidth_hz < 0.0:
            raise ValueError("bandwidth must be nonnegative")
        if self.bandwidth_hz == 0.0 and self.num_subcarriers > 1:
            raise ValueError("zero bandwidth requires a single subcarrier")
        if not self.center_freq_hz > 0.5 * self.bandwidth_hz:
            raise ValueError("center frequency must exceed half the bandwidth")
        if self.tau_max_s < 0.0:
            raise ValueError("tau_max must be nonnegative")
        if self.tx_power_w < 0.0:
            raise ValueError("tx_power_w must be nonnegative")
        if self.noise_power_w < 0.0:
            raise ValueError("noise_power_w must be nonnegative")


@dataclass(frozen=True)
class ChannelMatrix:
    """M x K complex channel coefficients with their subcarrier frequencies."""

    coeffs: np.ndarray
    freqs_hz: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex)
        freqs = np.asarray(self.freqs_hz, dtype=float)
        if coeffs.ndim != 2:
            raise ValueError("coeffs must be a 2-D (M, K) array")
        if freqs.ndim != 1 or freqs.size != coeffs.shape[1]:
            raise ValueError("freqs_hz must have one entry per subcarrier")
        if freqs.size > 1 and not np.all(np.diff(freqs) > 0.0):
            raise ValueError("frequencies must be strictly increasing")
        coeffs.setflags(write=False)
        freqs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "freqs_hz", freqs)

    @property
    def num_antennas(self) -> int:
        return self.coeffs.shape[0]

    @property
    def num_subcarriers(self) -> int:
        return self.coeffs.shape[1]


def subcarrier_frequencies(cfg: SystemConfig) -> np.ndarray:
    """Bin-center frequencies f_k = f_c - B/2 + (k - 1/2) B/K, k = 1..K.

    The K bins of width B/K tile [f_c - B/2, f_c + B/2].
    """
    K = cfg.num_subcarriers
    k = np.arange(K)
    return cfg.center_freq_hz - 0.5 * cfg.bandwidth_hz + (k + 0.5) * (
        cfg.bandwidth_hz / K
    )


def near_field_channel(
    geom: ArrayGeometry,
    ue: UePosition,
    cfg: SystemConfig,
    rho=None,
) -> ChannelMatrix:
    """Synthesize the spherical-wave channel for every element and subcarrier.

    `rho` optionally overrides the per-subcarrier gain factor (length K,
    positive); it defaults to all ones. Deterministic.
    """
    if geom.num_antennas != cfg.num_antennas:
        raise ValueError("geometry and config disagree on antenna count")
    freqs = subcarrier_frequencies(cfg)
    if rho is None:
        rho = np.ones(cfg.num_subcarriers)
    else:
        rho = np.asarray(rho, dtype=float)
        if rho.shape != freqs.shape:
            raise ValueError("rho must have one entry per subcarrier")
        if np.any(rho <= 0.0):
            raise ValueError("rho entries must be positive")
    coeffs = spherical_wave(distances(geom, ue)[:, None], freqs, rho)
    return ChannelMatrix(coeffs=coeffs, freqs_hz=freqs)


def spherical_wave(d, freqs_hz, rho):
    """Coefficients (rho lambda / (4 pi d)) exp(-2 pi j d / lambda).

    `d` (distances in meters), `freqs_hz` and `rho` broadcast against each
    other; lambda = c / f.
    """
    lam = SPEED_OF_LIGHT / freqs_hz
    return (rho * lam) / (4.0 * np.pi * d) * np.exp(-2j * np.pi * d / lam)


def flat_amplitude_rho(cfg: SystemConfig) -> np.ndarray:
    """rho_k = f_k / f_c, cancelling the lambda_k amplitude roll across the band.

    Useful when a study should isolate combiner alignment from the physical
    1/f amplitude slope that no combiner can influence.
    """
    return subcarrier_frequencies(cfg) / cfg.center_freq_hz
