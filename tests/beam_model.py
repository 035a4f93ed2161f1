"""The beam model the tests share, and the spherical-wave reference formula."""

import numpy as np

from beamfocus.geometry import SPEED_OF_LIGHT, point_distances


def beam_from_phases(phases) -> np.ndarray:
    """Constant-modulus beam (1/sqrt(M)) exp(j phases); one per row of a 2-D array."""
    phases = np.atleast_1d(np.asarray(phases, dtype=float))
    return np.exp(1j * phases) / np.sqrt(phases.shape[-1])


def conjugate_phases(geom, freq_hz, point, offset=0.7):
    """Continuous phases conjugating the spherical wave from `point`, plus a common phase."""
    lam = SPEED_OF_LIGHT / freq_hz
    return offset - 2.0 * np.pi * point_distances(geom, *point) / lam


def amplitude_rho(cfg, freqs_hz):
    """The factor rho of `spherical_wave` that gives `cfg`'s amplitude rule at each frequency.

    f / f_c in flat-amplitude mode, so rho lambda = lambda_c on every bin;
    else 1.
    """
    freqs_hz = np.asarray(freqs_hz, dtype=float)
    return freqs_hz / cfg.center_freq_hz if cfg.flat_amplitude else np.ones_like(freqs_hz)


def spherical_wave(d, freqs_hz, rho):
    """Coefficients (rho lambda / (4 pi d)) exp(-2 pi j d / lambda), one np.exp each.

    `d` (distances in meters), `freqs_hz` and `rho` broadcast against each
    other; lambda = c / f.
    """
    lam = SPEED_OF_LIGHT / freqs_hz
    return (rho * lam) / (4.0 * np.pi * d) * np.exp(-2j * np.pi * d / lam)
