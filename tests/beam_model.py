"""The beam model the tests share: one constant-modulus beam per phase row."""

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
