"""Near-field wideband uplink channel synthesis.

The system parameters, the subcarrier grid, the M x K spherical-wave
channel and the heatmaps' gain over a grid of user positions. The amplitude
rule lives here alone: entry (m, k) has magnitude lambda / (4 pi d_m), with
lambda = c / f_k, or c / f_c on every bin when `SystemConfig.flat_amplitude`
is set, and phase -2 pi d_m f_k / c, d_m being element m's distance to the
user. README "Library layout" walks through both kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import SPEED_OF_LIGHT, ArrayGeometry, UePosition, distances


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


def near_field_channel(
    geom: ArrayGeometry, ue: UePosition, cfg: SystemConfig, stride: int = 1
) -> ChannelMatrix:
    """Synthesize the spherical-wave channel for every element and subcarrier.

    With a `stride` above 1, only every stride-th subcarrier from bin 0.
    Deterministic; each entry is within 1e-11 relative of the formula.
    ValueError if `geom` and `cfg` disagree on M; DegeneratePositionError
    for a user on an element.
    """
    if geom.num_antennas != cfg.num_antennas:
        raise ValueError("geometry and config disagree on antenna count")
    freqs = subcarrier_frequencies(cfg)[::stride]
    K = freqs.size
    d = distances(geom, ue)[:, None]
    L = min(FREQ_BLOCK, K)
    blocks = K // L
    turn = (-2j * np.pi / SPEED_OF_LIGHT) * d
    fine = np.exp(turn * freqs[:L])
    offsets = np.arange(-(-K // L)) * (L * stride * cfg.bandwidth_hz / cfg.num_subcarriers)
    coarse = np.exp(turn * offsets) / (4.0 * np.pi * d)
    coeffs = np.empty((d.size, K), dtype=complex)
    body = coeffs[:, : blocks * L].reshape(d.size, blocks, L)
    np.multiply(coarse[:, :blocks, None], fine[:, None, :], out=body)
    np.multiply(coarse[:, blocks:], fine[:, : K - blocks * L], out=coeffs[:, blocks * L :])
    coeffs *= _amplitude_wavelength(cfg, freqs)
    return ChannelMatrix(coeffs=coeffs, freqs_hz=freqs)


def check_finite(geom: ArrayGeometry, ue: UePosition, cfg: SystemConfig) -> None:
    """ValueError unless the channel's largest phase 2 pi f_K max(d) / c and
    amplitude lambda_1 / (4 pi min(d)) are finite, without synthesizing it."""
    d, freqs = distances(geom, ue), subcarrier_frequencies(cfg)
    with np.errstate(over="ignore"):
        phase = (2.0 * np.pi / SPEED_OF_LIGHT) * d.max() * freqs[-1]
        amplitude = _amplitude_wavelength(cfg, freqs[0]) / (4.0 * np.pi * d.min())
    if not np.isfinite(phase) or not np.isfinite(amplitude):
        raise ValueError("the channel's phases or amplitudes overflow")


def check_power(geom: ArrayGeometry, ue: UePosition, cfg: SystemConfig, snapshots: int) -> None:
    """ValueError unless the largest gain M max|h|^2 and power (P_T/K) M max|h|^2 are finite and,
    with noise, that power over sigma^2 / 2S, the scale of an S-snapshot noisy measurement, is at
    most a quarter of the float range, where `sim.measure_power`'s draw stays finite."""
    lam, d = _amplitude_wavelength(cfg, subcarrier_frequencies(cfg)[0]), distances(geom, ue)
    with np.errstate(all="ignore"):
        gain = cfg.num_antennas * (lam / (4.0 * np.pi * d.min())) ** 2
        power = cfg.tx_power_w / cfg.num_subcarriers * gain
        if not np.isfinite([gain, power]).all():
            raise ValueError("the largest gain or received power overflows")
        ratio = power / (cfg.noise_power_w / (2.0 * snapshots))
    if cfg.noise_power_w > 0.0 and not ratio <= 0.25 * np.finfo(float).max:
        raise ValueError("the largest received power over the snapshot noise overflows")


# heatmap points evaluated per block, bounding the (points x M) work buffers
GAIN_MAP_BLOCK = 128
# the roots of unity exp(-2 pi j k / PHASOR_TABLE) that gain_map's phasors
# start from, real and imaginary parts; a power of two, so a bit mask
# reduces an index modulo the table
PHASOR_TABLE = 16384
# one step of the table, also the remainder's angle x = r * _STEP for r in [-1/2, 1/2]
_STEP = 2.0 * np.pi / PHASOR_TABLE
_ROOTS_RE = np.cos(_STEP * np.arange(PHASOR_TABLE))
_ROOTS_IM = -np.sin(_STEP * np.arange(PHASOR_TABLE))


def check_gain_map(aperture, cfg: SystemConfig, freqs_hz, x_min, x_max, y_min, y_max) -> None:
    """ValueError unless `gain_map` at `freqs_hz` over x in [x_min, x_max], y in [y_min, y_max]
    has finite squared distances and gains M max|h|^2 (at x_min > 0) and phase steps (d_m - d_1)
    f / c PHASOR_TABLE within 2^62, half the index cast's bound, without evaluating it."""
    x_min, x_max, reach = np.array([x_min, x_max, max(-y_min, y_max) + 0.5 * aperture])
    f_lo, f_hi = np.min(freqs_hz), np.max(freqs_hz)
    with np.errstate(over="ignore"):
        far = np.sqrt(x_max * x_max + reach * reach)
        steps = (aperture + 4.0 * np.finfo(float).eps * far) * f_hi / SPEED_OF_LIGHT * PHASOR_TABLE
        amplitude = _amplitude_wavelength(cfg, f_lo) / (4.0 * np.pi) * (1.0 / x_min)
        gain = cfg.num_antennas * amplitude**2
        if not (np.isfinite([far, SPEED_OF_LIGHT / f_lo, gain]).all() and steps <= 2.0**62):
            raise ValueError("its gain maps leave the float range (distances, phases or gains)")


def _phasor_buffers(shape) -> tuple:
    """Work arrays for `unit_phasors` over `shape`: five float and one intp."""
    return tuple(np.empty(shape) for _ in range(5)) + (np.empty(shape, np.intp),)


def unit_phasors(cycles, scale=1.0, work=None):
    """exp(-2 pi j scale cycles) as its (real, imaginary) parts, without np.exp.

    Within 2e-15 of the complex exponential while |scale cycles
    PHASOR_TABLE| < 2^63. `work` holds the arrays of
    `_phasor_buffers(cycles.shape)` (allocated when None): a caller that
    passes the same work every call allocates nothing, and the two arrays
    returned belong to it, overwritten by the next call.
    """
    cycles = np.asarray(cycles, dtype=float)
    steps, r, sin, re, tmp, k = _phasor_buffers(cycles.shape) if work is None else work
    np.multiply(cycles, scale * PHASOR_TABLE, out=steps)
    q = np.rint(steps, out=r)
    np.copyto(k, q, casting="unsafe")
    np.bitwise_and(k, PHASOR_TABLE - 1, out=k)
    np.subtract(steps, q, out=r)
    r2 = np.multiply(r, r, out=steps)
    # sin x = r (STEP - STEP^3/6 r^2), cos x = 1 - STEP^2/2 r^2
    np.multiply(r2, -(_STEP**3) / 6.0, out=sin)
    sin += _STEP
    sin *= r
    cos = np.multiply(r2, -0.5 * _STEP**2, out=r)
    cos += 1.0
    im = np.take(_ROOTS_IM, k, out=steps, mode="clip")
    np.take(_ROOTS_RE, k, out=re, mode="clip")
    # (re + j im)(cos - j sin)
    np.multiply(re, sin, out=tmp)
    re *= cos
    sin *= im
    re += sin
    im *= cos
    im -= tmp
    return re, im


def _block_distances(elem_y, x, y, out):
    """sqrt(x^2 + (elem_y - y)^2) for every point (x, y) and element, into out (points, M)."""
    np.subtract(elem_y, y[:, None], out=out)
    np.square(out, out=out)
    out += (x * x)[:, None]
    return np.sqrt(out, out=out)


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
    (F, len(ys), len(xs)). h(q') follows `near_field_channel`'s amplitude
    rule for `cfg`, and the map stays within 1e-12 of its peak of the exact
    formula's. Memory beyond the result does not grow with the grid.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    w_conj = np.conj(w)
    batch = w_conj.shape[:-1]
    freqs = np.broadcast_to(freq_hz, batch)
    lams = SPEED_OF_LIGHT / freqs
    amps = np.broadcast_to(_amplitude_wavelength(cfg, freqs) / (4.0 * np.pi), batch)
    u, v = w_conj.real * amps[..., None], w_conj.imag * amps[..., None]
    elem_y = 0.5 * geom.aperture * geom.alphas
    points = ys.size * xs.size
    dist = np.empty((GAIN_MAP_BLOCK, elem_y.size))
    inv_dist = np.empty_like(dist)
    work = _phasor_buffers(dist.shape)
    vals = np.empty(batch + (points,))
    for start in range(0, points, GAIN_MAP_BLOCK):
        rows, cols = np.divmod(np.arange(start, min(start + GAIN_MAP_BLOCK, points)), xs.size)
        n = rows.size
        d = _block_distances(elem_y, xs[cols], ys[rows], dist[:n])
        inv_d = np.divide(1.0, d, out=inv_dist[:n])
        np.subtract(d, d[:, :1].copy(), out=d)
        block_work = [buf[:n] for buf in work]
        for i in np.ndindex(batch):
            re, im = unit_phasors(d, 1.0 / lams[i], block_work)
            re *= inv_d
            im *= inv_d
            vals[i][start : start + n] = (re @ u[i] - im @ v[i]) ** 2 + (re @ v[i] + im @ u[i]) ** 2
    return vals.reshape(batch + (ys.size, xs.size))
