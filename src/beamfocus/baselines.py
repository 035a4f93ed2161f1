"""Oracle baselines that consume the true channel or geometry.

These exist only for benchmarking: the conjugate center-frequency
phase-shifter design, and the phase-delay focusing combiner whose delays
focus the sub-array centers on the true user position.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelMatrix, SystemConfig
from .combiner import CombinerConfig, PhaseCodebook, quantize_phase, recompensate_phases
from .delay_search import delays_from_ddf, subarray_deltas
from .geometry import ArrayGeometry, UePosition, distance_difference
from .sim import center_bin


def ps_only_oracle(H: ChannelMatrix, cfg: SystemConfig, cb: PhaseCodebook) -> CombinerConfig:
    """Conjugate beamforming at the bin nearest f_c, quantized; zero delays."""
    k = center_bin(H.freqs_hz, cfg.center_freq_hz)
    theta = quantize_phase(np.angle(H.coeffs[:, k]), cb)
    return CombinerConfig(theta=theta, tau=np.zeros(cfg.num_td_units))


def pdf_oracle(
    geom: ArrayGeometry,
    ue: UePosition,
    H: ChannelMatrix,
    cfg: SystemConfig,
    cb: PhaseCodebook,
) -> CombinerConfig:
    """Phase-delay focusing from the true geometry (comparison target).

    Delays are the exact distance differences at the sub-array centers,
    through `delay_search.delays_from_ddf`; phases are the conjugate
    center-frequency design recompensated for those delays.
    """
    deltas = subarray_deltas(geom, cfg.num_td_units)
    tau = delays_from_ddf(distance_difference(geom, deltas, ue), cfg.tau_max_s)
    theta_star = ps_only_oracle(H, cfg, cb).theta
    theta = recompensate_phases(theta_star, tau, cfg, cb)
    return CombinerConfig(theta=theta, tau=tau)
