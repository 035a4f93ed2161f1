"""The beam model the tests share: one constant-modulus beam per phase row."""

import numpy as np


def beam_from_phases(phases) -> np.ndarray:
    """Constant-modulus beam (1/sqrt(M)) exp(j phases); one per row of a 2-D array."""
    phases = np.atleast_1d(np.asarray(phases, dtype=float))
    return np.exp(1j * phases) / np.sqrt(phases.shape[-1])
