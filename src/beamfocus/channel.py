"""Near-field wideband uplink channel synthesis.

Builds the M x K matrix of spherical-wave channel coefficients over the
subcarrier grid: entry (m, k) has magnitude lambda / (4 pi d_m) and phase
-2 pi d_m / lambda_k, where d_m is the element-to-user distance and
lambda_k = c / f_k. The amplitude rule lives here alone: the amplitude's
lambda is lambda_k, or lambda_c = c / f_c on every bin when
`SystemConfig.flat_amplitude` is set (`channel.rho = flat_amplitude`),
which removes the 1/f amplitude roll across the band and leaves only the
combiner's alignment to shape a gain profile.
`near_field_channel(geom, ue, cfg)` takes the phasors from a frequency
recurrence on the uniform grid: per antenna, FREQ_BLOCK fine and
ceil(K / FREQ_BLOCK) coarse exponentials (96 at K = 2048, not 2048) whose
products give every bin, within 2e-12 relative of a long-double evaluation
of the formula. `gain_map(geom, cfg, w, freq_hz, xs, ys)` evaluates the same
spherical wave, with the same amplitude rule, at every point of a position
grid for the heatmaps, with phasors from a root-of-unity table
(`unit_phasors`), within 2e-15 of the complex exponential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import SPEED_OF_LIGHT, ArrayGeometry, UePosition, distances, point_distances


@dataclass(frozen=True)
class SystemConfig:
    """Static system parameters.

    num_antennas:    M, array elements (a multiple of num_td_units)
    num_td_units:    N, time-delay units, each driving ps_per_td = M / N
                     phase shifters
    num_subcarriers: K, frequency bins tiling the band
    center_freq_hz:  f_c
    bandwidth_hz:    B (total two-sided band around f_c)
    tau_max_s:       maximum delay a TD unit supports
    tx_power_w:      total transmit power, split evenly over subcarriers
    noise_power_w:   per-subcarrier receive noise power (0 = noiseless)
    flat_amplitude:  amplitude lambda_c / (4 pi d) on every subcarrier, not
                     lambda_k / (4 pi d) (`channel.rho = flat_amplitude`)
    """

    num_antennas: int
    num_td_units: int
    num_subcarriers: int
    center_freq_hz: float
    bandwidth_hz: float
    tau_max_s: float
    tx_power_w: float = 1.0
    noise_power_w: float = 0.0
    flat_amplitude: bool = False

    def __post_init__(self):
        M, N = self.num_antennas, self.num_td_units
        if N < 1 or M % N:
            raise ValueError(f"M = N*P violated (M={M}, N={N}, P={M // N if N else 0})")
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

    @property
    def ps_per_td(self) -> int:
        """P = M / N, the phase shifters each TD unit drives."""
        return self.num_antennas // self.num_td_units


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


def _amplitude_wavelength(cfg: SystemConfig, freqs_hz):
    """The lambda of the amplitude lambda / (4 pi d) at each of `freqs_hz`.

    c / f, or c / f_c (a scalar) when cfg.flat_amplitude is set.
    """
    return SPEED_OF_LIGHT / (cfg.center_freq_hz if cfg.flat_amplitude else freqs_hz)


# subcarriers per block of the frequency recurrence: each antenna takes
# FREQ_BLOCK fine and ceil(K / FREQ_BLOCK) coarse complex exponentials
FREQ_BLOCK = 64


def near_field_channel(geom: ArrayGeometry, ue: UePosition, cfg: SystemConfig) -> ChannelMatrix:
    """Synthesize the spherical-wave channel for every element and subcarrier.

    Deterministic. The grid is uniform, f_k = f_0 + k s, so bin k = L a + b
    (b < L = FREQ_BLOCK) has the phasor exp(-2 pi j d f_k / c) = fine[b]
    coarse[a], with fine[b] = exp(-2 pi j d f_b / c) and coarse[a] =
    exp(-2 pi j d a L s / c), each table entry its own exponential. One
    broadcast product fills the (M, K) array, which is then scaled in place
    by the amplitude wavelength (`_amplitude_wavelength`).
    """
    if geom.num_antennas != cfg.num_antennas:
        raise ValueError("geometry and config disagree on antenna count")
    freqs = subcarrier_frequencies(cfg)
    K = freqs.size
    d = distances(geom, ue)[:, None]
    L = min(FREQ_BLOCK, K)
    blocks = K // L
    turn = (-2j * np.pi / SPEED_OF_LIGHT) * d
    fine = np.exp(turn * freqs[:L])
    offsets = np.arange(-(-K // L)) * (L * cfg.bandwidth_hz / K)
    coarse = np.exp(turn * offsets) / (4.0 * np.pi * d)
    coeffs = np.empty((d.size, K), dtype=complex)
    body = coeffs[:, : blocks * L].reshape(d.size, blocks, L)
    np.multiply(coarse[:, :blocks, None], fine[:, None, :], out=body)
    np.multiply(coarse[:, blocks:], fine[:, : K - blocks * L], out=coeffs[:, blocks * L :])
    coeffs *= _amplitude_wavelength(cfg, freqs)
    return ChannelMatrix(coeffs=coeffs, freqs_hz=freqs)


# heatmap points evaluated per block, bounding the (points x M) temporaries
GAIN_MAP_BLOCK = 128
# the roots of unity exp(-2 pi j k / PHASOR_TABLE) that gain_map's phasors
# start from, as (real, imaginary) rows
PHASOR_TABLE = 4096
_TURNS = 2.0 * np.pi * np.arange(PHASOR_TABLE) / PHASOR_TABLE
_ROOTS = np.stack([np.cos(_TURNS), -np.sin(_TURNS)])


def unit_phasors(cycles):
    """exp(-2 pi j cycles) as its (real, imaginary) parts, without np.exp.

    cycles * PHASOR_TABLE splits into its nearest integer q and a remainder
    of at most half a step. The table gives exp(-2 pi j q / PHASOR_TABLE);
    the remainder's angle x (|x| <= pi / PHASOR_TABLE) turns it by the Taylor
    series cos x ~ 1 - x^2/2 + x^4/24, sin x ~ x - x^3/6, both exact to
    below 1e-17. The result is within 2e-15 of the exact phasor. q is
    reduced modulo the table in float64 before the integer cast, so no
    cycle count, however large, overflows it.
    """
    steps = cycles * PHASOR_TABLE
    q = np.rint(steps)
    x = (steps - q) * (2.0 * np.pi / PHASOR_TABLE)
    k = (q - PHASOR_TABLE * np.floor(q / PHASOR_TABLE)).astype(np.intp)
    x2 = x * x
    cos = 1.0 - x2 * (0.5 - x2 / 24.0)
    sin = x * (1.0 - x2 / 6.0)
    re, im = _ROOTS.take(k, axis=1)
    return re * cos + im * sin, im * cos - re * sin


def gain_map(
    geom: ArrayGeometry,
    cfg: SystemConfig,
    w: np.ndarray,
    freq_hz,
    xs: np.ndarray,
    ys: np.ndarray,
) -> np.ndarray:
    """|w^H h(q')|^2 over a position grid, h(q') the spherical wave at each point.

    Returns shape (len(ys), len(xs)); rows follow ys, columns follow xs.
    `w` may stack one combining vector per frequency, shape (F, M), with
    `freq_hz` broadcasting to (F,); the result then has shape
    (F, len(ys), len(xs)). The points are evaluated in blocks of
    GAIN_MAP_BLOCK, each block's distances once for every frequency, so
    memory stays bounded at any grid size. h(q') has the channel's
    amplitude lambda / (4 pi d), lambda as `near_field_channel` takes it
    from `cfg`, and the phase -2 pi d / lambda_f, its phasors from
    `unit_phasors` instead of a complex exponential; the map stays within
    1e-12 of its peak of the exact formula's.
    """
    gx, gy = np.meshgrid(np.asarray(xs, float), np.asarray(ys, float))
    px, py = gx.ravel(), gy.ravel()
    w_conj = np.conj(w)
    batch = w_conj.shape[:-1]
    freqs = np.broadcast_to(freq_hz, batch)
    lams = SPEED_OF_LIGHT / freqs
    vals = np.empty(batch + (px.size,))
    for start in range(0, px.size, GAIN_MAP_BLOCK):
        block = slice(start, start + GAIN_MAP_BLOCK)
        d = point_distances(geom, px[block], py[block])  # (points, M)
        inv_d = 1.0 / d
        for i in np.ndindex(batch):
            re, im = unit_phasors(d * (1.0 / lams[i]))
            amp = (_amplitude_wavelength(cfg, freqs[i]) / (4.0 * np.pi)) * inv_d
            re *= amp
            im *= amp
            u, v = w_conj[i].real, w_conj[i].imag
            vals[i + (block,)] = (re @ u - im @ v) ** 2 + (re @ v + im @ u) ** 2
    return vals.reshape(batch + gx.shape)

