"""Geometry-assisted delay design.

Approximates the unknown distance-difference curve with a two-piece linear
function parameterized by its breakpoint (break_delta, break_value) and its
endpoint value at delta = 2, samples it at the sub-array centers to obtain
candidate delay vectors, and scores each candidate by measured wideband
gain after phase recompensation. No user position or channel knowledge is
consumed; only the phases, the array geometry and the measurement callback.

The search starts from the focus of the phases when they have one: it
locates the point theta* focuses on (`focus.locate_focus`, no
measurement), takes the row that interpolates that point's
distance-difference curve at delta = 0, 1 and 2, and refines that row
with compass steps from the grid spacing down to 1/8 of it. Phases that
focus nowhere get a coarse pass over every other point of the configured
grid instead, refined the same way. Each delay vector is measured once.
At the default 9 x 17 x 17 grid a search scores at most 2 + 24 of the
grid's 2,330 candidates from a focus, and at most 333 + 24 without one.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

import numpy as np

from .channel import SystemConfig
from .combiner import CombinerConfig, PhaseCodebook, recompensate_phases
from .files import write_atomic
from .focus import locate_focus
from .geometry import SPEED_OF_LIGHT, ArrayGeometry, UePosition, distance_difference


def linear_ddf(params, delta):
    """Evaluate piecewise-linear approximations at delta in [0, 2].

    Each approximation is a (break_delta, break_value, end_value) row: the
    curve runs from (0, 0) through the breakpoint (break_delta,
    break_value) to (2, end_value), the two segments joining continuously.
    A degenerate breakpoint at 0 leaves the single segment from (0, 0) to
    (2, end_value); a breakpoint at 2 leaves the first segment only.

    `params` has shape (..., 3); the values have shape (..., *delta's
    shape), one set per row, equal to one call per row.
    """
    delta_arr = np.asarray(delta, dtype=float)
    if np.any(delta_arr < 0.0) or np.any(delta_arr > 2.0):
        raise ValueError("delta must lie in [0, 2]")
    params = np.asarray(params, dtype=float)
    shape = params.shape[:-1] + (1,) * delta_arr.ndim
    ax, ay, b = (params[..., i].reshape(shape) for i in range(3))
    # the unused branches divide by zero at the degenerate breakpoints
    with np.errstate(divide="ignore", invalid="ignore"):
        first = (ay / ax) * delta_arr
        second = (b - ay) / (2.0 - ax) * (delta_arr - ax) + ay
    return np.where(ax == 0.0, 0.5 * b * delta_arr, np.where(delta_arr <= ax, first, second))


def subarray_deltas(geom: ArrayGeometry, num_td_units: int) -> np.ndarray:
    """Relative coefficient of each sub-array center, strictly increasing.

    Sub-array n spans elements nP..nP+P-1, P = M / N; its center is the
    midpoint of the first and last element coefficients, mapped through
    delta = 1 - alpha.
    """
    if num_td_units < 1 or geom.num_antennas % num_td_units:
        raise ValueError("N*P must equal the number of antennas")
    ps_per_td = geom.num_antennas // num_td_units
    first = geom.alphas[0::ps_per_td]
    last = geom.alphas[ps_per_td - 1 :: ps_per_td]
    return 1.0 - 0.5 * (first + last)


def delays_from_ddf(ddf: np.ndarray, tau_max: float) -> np.ndarray:
    """Delay vectors for distance differences `ddf` (meters) at the sub-arrays.

    Raw delays ddf/c are shifted so their minimum is 0 (a common delay never
    changes gains) and clipped into [0, tau_max]. The last axis holds the
    sub-arrays; leading axes stack independent vectors.
    """
    raw = np.asarray(ddf) / SPEED_OF_LIGHT
    return np.clip(raw - raw.min(axis=-1, keepdims=True), 0.0, tau_max)


@dataclass
class DelaySearchResult:
    """Best delay configuration found plus the full scored trace."""

    tau: np.ndarray
    theta: np.ndarray
    score: float
    ps_only_score: float
    trace: list  # (break_delta, break_value, end_value, score) per scored row, in order


# candidates recompensated and measured per callback invocation
SEARCH_BLOCK = 128
# compass rounds after the coarse pass or the seed row; the step halves every round
REFINE_ROUNDS = 4
# focus coherence (focus.locate_focus) from which the search starts from
# the seed row; below it the phases focus nowhere and the coarse pass runs
SEED_COHERENCE = 0.5


def _axis(points: int):
    """Coarse positions and first refinement step of one axis on [-1, 1].

    The coarse pass takes (points + 1) // 2 evenly spaced positions, every
    other configured point for odd `points`; the first step is the
    configured spacing. A single-point axis sits at the center, unstepped.
    """
    if points == 1:
        return [0.0], 0.0
    coarse = (points + 1) // 2
    positions = np.linspace(-1.0, 1.0, coarse).tolist() if coarse > 1 else [0.0]
    return positions, 2.0 / (points - 1)


def _seed_position(theta_star, geom: ArrayGeometry, cfg: SystemConfig, points: tuple):
    """Box position of the seed row at theta_star's focus.

    The seed row is the two-piece interpolant of the focus's distance
    differences at delta = 0, 1 and 2: (1, ddf(1), ddf(2)). None when the
    focus coherence is below SEED_COHERENCE. The triangle inequality
    (|ddf(delta)| <= delta D/2) keeps the row in the box; the clip guards
    rounding. Single-point axes stay at their range centers.
    """
    x, y, fit = locate_focus(theta_star, geom, cfg.center_freq_hz)
    if fit < SEED_COHERENCE:
        return None
    mid, end = distance_difference(geom, np.array([1.0, 2.0]), UePosition(x, y))
    position = (0.0, mid / (0.5 * geom.aperture), end / geom.aperture)
    return tuple(min(max(p, -1.0), 1.0) if n > 1 else 0.0 for p, n in zip(position, points))


def search_delays(
    theta_star,
    measure,
    geom: ArrayGeometry,
    cfg: SystemConfig,
    cb: PhaseCodebook,
    points: tuple,
) -> DelaySearchResult:
    """Focus-seeded or coarse-to-fine search of the (break_delta, break_value, end_value) box.

    A position (x, u, v) in [-1, 1]^3 is the row break_delta = 1 + x,
    break_value = u (D/2) break_delta, end_value = v D, for aperture D; so
    break_delta spans [0, 2], |break_value| <= (D/2) break_delta and
    |end_value| <= D. `points` holds the `grid.*` point counts (ax, ay, b):
    each axis spans its range with that many evenly spaced points, and a
    single-point axis sits at its range center and is never searched. The
    zero-delay row (1, 0, 0) is scored first. When the focus of theta_star
    (`focus.locate_focus`) has a coherence of at least SEED_COHERENCE, the
    seed row comes next in the same block: (1, ddf(1), ddf(2)) for the
    distance differences ddf at that focus (`_seed_position`). Otherwise
    the coarse grid of every other grid point per axis follows, (n + 1) // 2
    points of an n-point axis. A walk then starts from the seed row, or else
    from the best row of that block (the earliest of tied maxima). Each of
    REFINE_ROUNDS rounds scores the six compass positions one step along
    each axis from the walk's position, clipped to the box, as one block,
    and the walk moves to the best of them on a strictly higher score; the
    first step is the grid spacing and each round halves it, down to 1/8 of
    the spacing. A row whose delay vector is bitwise equal to one already
    scored is not measured again (at break_delta = 0 every u gives the same
    row, and rows that differ only where the delays clip give the same
    vector); it takes the earlier score. Scored vectors are remembered by
    a 16-byte BLAKE2b digest of their bytes, whatever N. So a search scores
    at most 2 + 6 * REFINE_ROUNDS rows from a seed, and the coarse rows
    plus 6 * REFINE_ROUNDS without one.

    The delay vectors of a pass come from vectorized evaluations of the
    approximations, SEARCH_BLOCK rows at a time, so no pass holds more
    than a block of them. Rows with delay vectors not yet scored go
    through `measure` SEARCH_BLOCK at a time, in row order: each block's
    phases are recompensated, and `measure` takes the
    stacked CombinerConfig (theta (C, M), tau (C, N)) and returns
    per-subcarrier powers, shape (C, K), row c equal to what it would
    return for candidate c alone, measured in candidate order. A candidate
    scores the mean amplitude of its row. The result is the best row scored,
    the earliest of tied maxima, so it never scores below the zero-delay
    row.
    """
    theta_star = np.atleast_1d(np.asarray(theta_star, dtype=float))
    deltas = subarray_deltas(geom, cfg.num_td_units)
    aperture = geom.aperture
    axes = [_axis(n) for n in points]
    trace = []
    scored = {}  # delay vector digest -> score
    best_score, best_tau, best_theta = -np.inf, None, None

    def row(position):
        x, u, v = position
        ax = 1.0 + x
        # + 0.0 turns the -0.0 of a negative u at ax = 0 into 0.0
        return (ax, u * (0.5 * aperture) * ax + 0.0, v * aperture + 0.0)

    def measure_block(block):
        """Recompensate and measure the (row, tau, key) entries of one block."""
        nonlocal best_score, best_tau, best_theta
        tau = np.array([entry[1] for entry in block])
        theta = recompensate_phases(theta_star, tau, cfg, cb)
        powers = np.asarray(measure(CombinerConfig(theta=theta, tau=tau)), dtype=float)
        scores = np.mean(np.sqrt(np.maximum(powers, 0.0)), axis=-1)
        for (params, _, key), v in zip(block, scores.tolist()):
            scored[key] = v
            trace.append((*params, v))
        i = int(np.argmax(scores))  # the earliest of tied maxima
        if scores[i] > best_score:
            best_score, best_tau, best_theta = float(scores[i]), tau[i], theta[i]

    def score(positions):
        """Every position's score, measuring only delay vectors not yet scored."""
        keys, fresh = [], []
        for start in range(0, len(positions), SEARCH_BLOCK):
            params = [row(position) for position in positions[start : start + SEARCH_BLOCK]]
            taus = delays_from_ddf(linear_ddf(np.reshape(params, (-1, 3)), deltas), cfg.tau_max_s)
            for row_params, tau in zip(params, taus):
                key = hashlib.blake2b(tau.tobytes(), digest_size=16).digest()
                keys.append(key)
                if key not in scored:
                    scored[key] = None
                    fresh.append((row_params, tau, key))
                    if len(fresh) == SEARCH_BLOCK:
                        measure_block(fresh)
                        fresh = []
        if fresh:
            measure_block(fresh)
        return [scored[key] for key in keys]

    seed = _seed_position(theta_star, geom, cfg, points)
    if seed is None:
        first = [(0.0, 0.0, 0.0), *itertools.product(*(positions for positions, _ in axes))]
    else:
        first = [(0.0, 0.0, 0.0), seed]
    scores = score(first)
    # the walk starts from the seed, or else from the best row scored
    i = 1 if seed is not None else int(np.argmax(scores))
    center, center_score = first[i], scores[i]
    steps = [step for _, step in axes]
    for _ in range(REFINE_ROUNDS):
        compass = []
        for k, step in enumerate(steps):
            if step:
                for sign in (-1.0, 1.0):
                    moved = list(center)
                    moved[k] = min(max(center[k] + sign * step, -1.0), 1.0)
                    compass.append(tuple(moved))
        scores = score(compass)
        top = max(scores, default=-np.inf)
        if top > center_score:
            center, center_score = compass[scores.index(top)], top
        steps = [0.5 * step for step in steps]
    return DelaySearchResult(
        tau=best_tau,
        theta=best_theta,
        score=best_score,
        ps_only_score=trace[0][3],  # the first row is the zero-delay one
        trace=trace,
    )


def write_search_trace_csv(result: DelaySearchResult, path, header_comment: str = "") -> None:
    """CSV export: ax,ay,b,score_amplitude_mean,score_db_rel_ps_only."""
    ref = result.ps_only_score
    with write_atomic(path) as fh:
        fh.write(header_comment)
        fh.write("ax,ay,b,score_amplitude_mean,score_db_rel_ps_only\n")
        for ax, ay, b, score in result.trace:
            if ref > 0.0 and score > 0.0:
                rel_db = 20.0 * np.log10(score / ref)
            else:
                rel_db = float("nan")
            fh.write(f"{ax:.10g},{ay:.10g},{b:.10g},{score:.12g},{rel_db:.6f}\n")
