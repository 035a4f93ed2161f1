"""The focal point of a phase-shifter beam, read off its phases.

Phases theta focus the center-frequency beam on the point q that scores
the highest coherence |sum_m exp(-j (theta_m + 2 pi d_m(q) / lambda_c))| / M,
where d_m(q) is element m's distance to q: 1 for the conjugate of the
spherical wave from q, near 0 for phases that focus nowhere. The locator
reads the phases, the array geometry and the center frequency only, and
assumes one line-of-sight spherical wave. README "Delay search" walks
through its polar-domain search (Cui & Dai 2022, arXiv:2108.07581).
"""

from __future__ import annotations

import numpy as np

from .geometry import SPEED_OF_LIGHT, ArrayGeometry, point_distances

# nearest range the coarse grid covers, meters
MIN_RANGE_M = 0.3
# cap on the exact compass rounds after the coarse pass
MAX_EXACT_ROUNDS = 40
# cap on the entries of each coarse-pass table, the (nv, M) and (M, nu)
# phasors and the (nv, nu) scores; it admits M = 2,048 at the default
# aperture (10.7M scores)
MAX_GRID_ENTRIES = 2**25


def _ramp(phase0, phase_step, count: int) -> np.ndarray:
    """exp(j (phase0 + i phase_step)) for i < count, on a new last axis.

    Within 1e-12 of the exponentials at a few hundred steps.
    """
    ramp = np.empty(np.shape(phase0) + (count,), dtype=complex)
    ramp[..., 0] = np.exp(1j * np.asarray(phase0))
    ramp[..., 1:] = np.exp(1j * np.asarray(phase_step))[..., None]
    return np.cumprod(ramp, axis=-1)


def _fresnel_peak(theta_conj, k, y, u0, du, nu, v0, dv, nv):
    """(u, v) of the largest Fresnel-model coherence on the grid u0 + i du, v0 + j dv.

    Ties keep the earliest point in (v, u) row order.
    """
    rows = (theta_conj[:, None] * _ramp(-k * y * y * v0, -k * y * y * dv, nv)).T  # (nv, M)
    scores = np.abs(rows @ _ramp(k * y * u0, k * y * du, nu))
    j, i = np.unravel_index(np.argmax(scores), scores.shape)
    return u0 + i * du, v0 + j * dv


def _to_xy(u, v):
    """Cartesian (x, y) of the Fresnel coordinates (u, v)."""
    r = (1.0 - u * u) / (2.0 * v)
    return r * np.sqrt(1.0 - u * u), r * u


def coherence(theta, geom: ArrayGeometry, center_freq_hz: float, x, y) -> np.ndarray:
    """Coherence of the phases with the spherical wave from each point (x, y).

    `x` and `y` broadcast to a shape S; the result has shape S.
    """
    k = 2.0 * np.pi * center_freq_hz / SPEED_OF_LIGHT
    d = point_distances(geom, x, y)
    return np.abs(np.exp(-1j * (theta + k * d)).sum(axis=-1)) / geom.num_antennas


def locate_focus(theta, geom: ArrayGeometry, center_freq_hz: float) -> tuple[float, float, float]:
    """(x, y, coherence) of the point the phases `theta` focus on.

    The search covers u = sin(phi) in (-1, 1) and v = cos(phi)^2 / (2 r) in
    (0, 1 / (2 MIN_RANGE_M)], so ranges r from MIN_RANGE_M out to about
    32 D^2 / lambda for aperture D. A coarse grid with a table of more than
    MAX_GRID_ENTRIES entries is not scored: the result is then (nan, nan,
    0.0). Deterministic.
    """
    theta = np.asarray(theta, dtype=float)
    lam = SPEED_OF_LIGHT / center_freq_hz
    k = 2.0 * np.pi / lam
    y = 0.5 * geom.aperture * geom.alphas
    nu = int(np.ceil(2.0 * geom.aperture / lam))
    du = 2.0 / nu
    v_max = 0.5 / MIN_RANGE_M
    # at least one row, also where aperture**2 underflows to zero
    nv = max(1, int(np.ceil(v_max * geom.aperture**2 / lam)))
    dv = v_max / nv
    M = geom.num_antennas
    if max(nv * nu, nv * M, M * nu) > MAX_GRID_ENTRIES:
        return float("nan"), float("nan"), 0.0
    u_lo, v_lo = -1.0 + 0.5 * du, dv / 64.0
    u, v = _fresnel_peak(np.exp(-1j * theta), k, y, u_lo, du, nu, dv, dv, nv)

    # compass search on the exact distances: move to the best of the 3 x 3
    # stencil while it improves, else halve the steps, from half the coarse
    # steps to 1/64 of them
    offsets = np.array([-1.0, 0.0, 1.0])
    step_u, step_v = 0.5 * du, 0.5 * dv
    best = float(coherence(theta, geom, center_freq_hz, *_to_xy(u, v)))
    for _ in range(MAX_EXACT_ROUNDS):
        us = np.clip(u + step_u * offsets, u_lo, -u_lo)[None, :]
        vs = np.clip(v + step_v * offsets, v_lo, v_max)[:, None]
        scores = coherence(theta, geom, center_freq_hz, *_to_xy(us, vs))
        j, i = np.unravel_index(np.argmax(scores), scores.shape)
        if scores[j, i] > best:
            best, u, v = float(scores[j, i]), float(us[0, i]), float(vs[j, 0])
        elif step_u > du / 64.0:
            step_u, step_v = 0.5 * step_u, 0.5 * step_v
        else:
            break
    x, y_focus = _to_xy(u, v)
    return float(x), float(y_focus), float(best)
