"""Oracle baselines that consume the true channel or geometry.

These exist only for benchmarking: the conjugate center-frequency
phase-shifter design, and the phase-delay focusing combiner built from the
exact distance-difference curve. Pass cb=None for continuous (unquantized)
phases.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelMatrix, SystemConfig
from .combiner import CombinerConfig, quantize_phase, recompensate_phases, wrap_angle
from .geometry import ArrayGeometry, UePosition, distance_difference
from .delay_search import delays_from_ddf, subarray_deltas
from .sim import center_bin


def ps_only_oracle(H: ChannelMatrix, cfg: SystemConfig, cb) -> CombinerConfig:
    """Conjugate beamforming at the bin nearest f_c, quantized; zero delays."""
    k = center_bin(H.freqs_hz, cfg.center_freq_hz)
    phases = np.angle(H.coeffs[:, k])
    theta = wrap_angle(phases) if cb is None else quantize_phase(phases, cb)
    return CombinerConfig(theta=theta, tau=np.zeros(cfg.num_td_units))


def pdf_oracle(
    geom: ArrayGeometry,
    ue: UePosition,
    H: ChannelMatrix,
    cfg: SystemConfig,
    cb,
) -> CombinerConfig:
    """Phase-delay focusing from the true geometry (comparison target).

    Delays sample the exact distance-difference curve at the sub-array
    centers (shifted to a zero minimum, clipped to tau_max); phases are the
    conjugate center-frequency design recompensated for those delays.
    """
    deltas = subarray_deltas(geom, cfg.num_td_units, cfg.ps_per_td)
    tau = delays_from_ddf(distance_difference(geom, deltas, ue), cfg.tau_max_s)
    theta_star = ps_only_oracle(H, cfg, cb).theta
    theta = recompensate_phases(theta_star, tau, cfg, cb)
    return CombinerConfig(theta=theta, tau=tau)
