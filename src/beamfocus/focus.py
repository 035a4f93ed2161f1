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

# nearest range the search covers, meters
MIN_RANGE_M = 0.3
# cap on the exact compass rounds of each stage
MAX_EXACT_ROUNDS = 40
# the first stage's sub-array spans this many half-wavelengths, and its
# grid has at most this many points per axis
FIRST_SPAN = 32


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
    32 D^2 / lambda for aperture D. Deterministic.
    """
    theta = np.asarray(theta, dtype=float)
    lam = SPEED_OF_LIGHT / center_freq_hz
    v_max = 0.5 / MIN_RANGE_M
    D = geom.aperture
    radii = np.abs(geom.alphas)
    # every stage keeps at least the two central elements
    least = np.sort(radii)[min(1, radii.size - 1)]
    f = min(1.0, FIRST_SPAN * lam / (2.0 * D), np.sqrt(FIRST_SPAN * lam / v_max) / D)
    offsets = np.array([-1.0, 0.0, 1.0])
    u = v = None
    while True:
        keep = radii <= max(f, least)
        th, sub = theta[keep], ArrayGeometry(geom.alphas[keep], D)
        nu = int(np.ceil(2.0 * f * D / lam))
        # at least one row, also where (f D)**2 underflows to zero
        nv = max(1, int(np.ceil(v_max * (f * D) ** 2 / lam)))
        du, dv = 2.0 / nu, v_max / nv
        u_lo, v_lo = -1.0 + 0.5 * du, dv / 64.0
        if u is None:
            # start from the best point of the first stage's (v, u) grid,
            # the earliest of ties in row order
            us, vs = u_lo + du * np.arange(nu), dv * np.arange(1, nv + 1)
            scores = [coherence(th, sub, center_freq_hz, *_to_xy(us, row)) for row in vs]
            j, i = np.unravel_index(np.argmax(scores), (nv, nu))
            u, v = float(us[i]), float(vs[j])

        # compass search: move to the best of the 3 x 3 stencil while it
        # improves, else halve the steps, from half the stage's grid steps
        # to 1/64 of them
        step_u, step_v = 0.5 * du, 0.5 * dv
        best = float(coherence(th, sub, center_freq_hz, *_to_xy(u, v)))
        for _ in range(MAX_EXACT_ROUNDS):
            us = np.clip(u + step_u * offsets, u_lo, -u_lo)[None, :]
            vs = np.clip(v + step_v * offsets, v_lo, v_max)[:, None]
            scores = coherence(th, sub, center_freq_hz, *_to_xy(us, vs))
            j, i = np.unravel_index(np.argmax(scores), scores.shape)
            if scores[j, i] > best:
                best, u, v = float(scores[j, i]), float(us[0, i]), float(vs[j, 0])
            elif step_u > du / 64.0:
                step_u, step_v = 0.5 * step_u, 0.5 * step_v
            else:
                break
        if f == 1.0:
            break
        f = min(1.0, 2.0 * f)
    x, y = _to_xy(u, v)
    return float(x), float(y), best
