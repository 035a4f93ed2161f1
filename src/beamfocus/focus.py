"""The focal point of a phase-shifter beam, read off its phases.

Phases theta focus the center-frequency beam on the point q that scores
the highest coherence |sum_m exp(-j (theta_m + 2 pi d_m(q) / lambda_c))| / M,
where d_m(q) is element m's distance to q: 1 for the conjugate of the
spherical wave from q, near 0 for phases that focus nowhere. The locator
reads the phases, the array geometry and the center frequency only, and
assumes one line-of-sight spherical wave. README "Delay search" walks
through its polar-domain search (Cui & Dai 2022, arXiv:2108.07581),
`_polar_search`. Its one scorer is `wave_powers`, the powers |a(q)^H w|^2
that a stack of beams w receives from the spherical wave a(q) of each
point: the locator's one beam is exp(j theta), and the learner's one-path
model critic (`critic.model_critic`) scores its measured beams. README
"Library layout" says why `channel.gain_map` keeps its own phasors.
"""

from __future__ import annotations

import numpy as np

from .geometry import SPEED_OF_LIGHT, ArrayGeometry, point_distances

# nearest range the search covers, meters
MIN_RANGE_M = 0.3
# cap on the exact compass rounds of each stage
MAX_EXACT_ROUNDS = 40
# locate_focus's first stage spans this many half-wavelengths, and its
# grid has at most this many points per axis
FIRST_SPAN = 32


def _to_xy(u, v):
    """Cartesian (x, y) of the Fresnel coordinates (u, v)."""
    r = (1.0 - u * u) / (2.0 * v)
    return r * np.sqrt(1.0 - u * u), r * u


def wave_powers(beams, geom: ArrayGeometry, center_freq_hz: float, x, y) -> np.ndarray:
    """|a(q)^H w_i|^2 of each of the (n, M) beams w_i at each point q = (x, y).

    a(q) is the unit-modulus spherical wave exp(-j k d_m(q)) from q at the
    center frequency. `x` and `y` broadcast to a shape S; the result has
    shape (*S, n). The waves take the beams' precision, from phases reduced
    to [-pi, pi] in double, so the phases' size costs no precision.
    """
    phase = (2.0 * np.pi * center_freq_hz / SPEED_OF_LIGHT) * point_distances(geom, x, y)
    phase -= 2.0 * np.pi * np.rint(phase / (2.0 * np.pi))
    phase = phase.astype(np.finfo(beams.dtype).dtype, copy=False)
    waves = np.empty(phase.shape, beams.dtype)
    np.cos(phase, out=waves.real)
    np.sin(phase, out=waves.imag)
    s = np.abs(waves.reshape(-1, geom.num_antennas) @ beams.T) ** 2
    return s.reshape(phase.shape[:-1] + beams.shape[:1])


def locate_focus(theta, geom: ArrayGeometry, center_freq_hz: float) -> tuple[float, float, float]:
    """(x, y, coherence) of the point the phases `theta` focus on.

    The search covers u = sin(phi) in (-1, 1) and v = cos(phi)^2 / (2 r) in
    (0, 1 / (2 MIN_RANGE_M)], so ranges r from MIN_RANGE_M out to about
    32 D^2 / lambda for aperture D. Deterministic.
    """
    beam = np.exp(1j * np.asarray(theta, dtype=float))[None]
    x, y, best = _polar_search(beam, lambda s: s[..., 0], geom, center_freq_hz, FIRST_SPAN)
    return x, y, float(np.sqrt(best)) / geom.num_antennas


def _polar_search(beams, reduce, geom: ArrayGeometry, center_freq_hz: float, first_span: float):
    """(x, y, score) of the point that scores highest, by a staged polar search.

    A stage scores points (x, y), broadcast to a shape S, as
    reduce(wave_powers(...)) of the (n, M) beams on its sub-array: `reduce`
    maps the (*S, n) powers to shape-S scores. The first stage's sub-array
    spans `first_span` half-wavelengths of the center frequency, and each
    later stage doubles it, up to the whole array.
    """
    lam = SPEED_OF_LIGHT / center_freq_hz
    v_max = 0.5 / MIN_RANGE_M
    D = geom.aperture
    radii = np.abs(geom.alphas)
    # every stage keeps at least the two central elements
    least = np.sort(radii)[min(1, radii.size - 1)]
    # at a subnormal D the spans' quotients overflow to inf, and nu's underflows to 0
    with np.errstate(over="ignore"):
        f = min(1.0, first_span * lam / (2.0 * D), np.sqrt(first_span * lam / v_max) / D)
    offsets = np.array([-1.0, 0.0, 1.0])
    u = v = None
    while True:
        keep = radii <= max(f, least)
        sub = ArrayGeometry(geom.alphas[keep], D)
        beams_sub = beams if keep.all() else beams[:, keep]  # sliced once per stage

        def score(x, y):
            return reduce(wave_powers(beams_sub, sub, center_freq_hz, x, y))

        nu = max(1, int(np.ceil(2.0 * f * D / lam)))
        # at least one row where (f D)**2 underflows to 0, a row step of 0 where it overflows
        with np.errstate(over="ignore"):
            nv = max(1.0, np.ceil(v_max * np.float64(f * D) ** 2 / lam))
        du, dv = 2.0 / nu, v_max / nv
        u_lo, v_lo = -1.0 + 0.5 * du, dv / 64.0
        if u is None:
            # start from the best point of the first stage's (v, u) grid,
            # the earliest of ties in row order
            us, vs = u_lo + du * np.arange(nu), dv * np.arange(1, nv + 1)
            scores = [score(*_to_xy(us, row)) for row in vs]
            j, i = np.unravel_index(np.argmax(scores), (vs.size, nu))
            u, v = float(us[i]), float(vs[j])

        # compass search: move to the best of the 3 x 3 stencil while it
        # improves, else halve the steps, from half the stage's grid steps
        # to a quarter of them, where the next stage's steps start, and to
        # 1/64 of them in the last stage
        step_u, step_v = 0.5 * du, 0.5 * dv
        best = float(score(*_to_xy(u, v)))
        for _ in range(MAX_EXACT_ROUNDS):
            us = np.clip(u + step_u * offsets, u_lo, -u_lo)[None, :]
            vs = np.clip(v + step_v * offsets, v_lo, v_max)[:, None]
            scores = score(*_to_xy(us, vs))
            j, i = np.unravel_index(np.argmax(scores), scores.shape)
            if scores[j, i] > best:
                best, u, v = float(scores[j, i]), float(us[0, i]), float(vs[j, 0])
            elif step_u > du / (64.0 if f == 1.0 else 4.0):
                step_u, step_v = 0.5 * step_u, 0.5 * step_v
            else:
                break
        if f == 1.0:
            break
        f = min(1.0, 2.0 * f)
    x, y = _to_xy(u, v)
    return float(x), float(y), best
