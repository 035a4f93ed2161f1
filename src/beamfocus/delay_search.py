"""Geometry-assisted delay design.

Two-piece linear approximations of the distance-difference curve, the
delay vectors they give at the sub-array centers, the row scorer that
measures them by wideband gain, the focus-seeded search that walks the
rows through it, and the measured check of a search scored on a model.
The search reads the phases, the array geometry and its scoring
callback, never the user position or the channel. README "Delay search"
walks through it.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

import numpy as np

from .channel import SystemConfig
from .combiner import CombinerConfig, recompensate_phases
from .files import write_atomic
from .geometry import SPEED_OF_LIGHT, ArrayGeometry, UePosition, distance_difference
from .sim import mean_amplitude


def linear_ddf(params, delta):
    """Evaluate two-piece linear approximations at delta in [0, 2].

    Each (break_delta, break_value, end_value) row of `params`, shape
    (..., 3), is the continuous curve from (0, 0) through (break_delta,
    break_value) to (2, end_value); a breakpoint at 0 or 2 leaves one
    segment. Returns shape (..., *delta's shape), equal to one call per
    row. ValueError for a delta outside [0, 2].
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
    """delta = 1 - alpha of each sub-array center, strictly increasing.

    Sub-array n spans elements nP..nP+P-1, P = M / N, and its center alpha
    is the midpoint of its first and last element's. ValueError unless
    `num_td_units` is positive and divides M.
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
    """Best delay configuration found plus the trace of every row measured."""

    tau: np.ndarray
    theta: np.ndarray
    score: float
    ps_only_score: float
    trace: list  # (break_delta, break_value, end_value, score) per measured row, in order


# candidates recompensated and measured per callback invocation
SEARCH_BLOCK = 128
# compass rounds after the coarse pass or the seed row; the step halves every round
REFINE_ROUNDS = 4
# focus coherence (focus.locate_focus) from which the search starts from
# the seed row; below it the phases focus nowhere and the coarse pass runs
SEED_COHERENCE = 0.5
# a model-scored winner stands when its measured amplitude ratio to the
# zero-delay row is at least (1 - CHECK_TOL) times the model's ratio
CHECK_TOL = 0.05


def _axis(points: int):
    """Coarse positions and first step of a `points`-point axis on [-1, 1].

    The coarse pass takes (points + 1) // 2 evenly spaced positions and the
    first step is the spacing; a single-point axis sits at 0, unstepped.
    """
    if points == 1:
        return [0.0], 0.0
    coarse = (points + 1) // 2
    positions = np.linspace(-1.0, 1.0, coarse).tolist() if coarse > 1 else [0.0]
    return positions, 2.0 / (points - 1)


def seed_position(focus: tuple, geom: ArrayGeometry, points: tuple):
    """Box position of the row (1, ddf(1), ddf(2)) at `focus`, `locate_focus`'s (x, y, coherence).

    None when the coherence is below SEED_COHERENCE. Single-point axes stay at their centers.
    """
    x, y, fit = focus
    if fit < SEED_COHERENCE:
        return None
    mid, end = distance_difference(geom, np.array([1.0, 2.0]), UePosition(x, y))
    # |ddf(delta)| <= delta D/2 keeps the row in the box; the clip guards rounding.
    # 2 mid / D, not mid / (D/2): D/2 underflows to 0 at the smallest subnormal D
    position = (0.0, 2.0 * mid / geom.aperture, end / geom.aperture)
    return tuple(min(max(p, -1.0), 1.0) if n > 1 else 0.0 for p, n in zip(position, points))


class ScoredRows:
    """Scores (break_delta, break_value, end_value) rows of theta_star by wideband gain.

    `measure` takes a stacked CombinerConfig (theta (C, M), tau (C, N)) of
    theta_star recompensated for C rows' delays, in scoring order, and
    returns (C, K) powers, row c equal to candidate c alone: measured ones,
    or a model's gains. A row scores their `sim.mean_amplitude`. A row whose
    delay vector is bitwise equal to one already scored, kept as a 16-byte
    digest, takes that score unmeasured, so every search sharing the scorer
    measures a vector once. `trace` lists each measured row and its score in
    order; the first is taken as the zero-delay row. Draws no random numbers.
    """

    def __init__(self, theta_star, measure, geom: ArrayGeometry, cfg: SystemConfig, cb):
        self.theta_star = np.atleast_1d(np.asarray(theta_star, dtype=float))
        self.measure, self.geom, self.cfg, self.cb = measure, geom, cfg, cb
        self.deltas = subarray_deltas(geom, cfg.num_td_units)
        self.trace = []
        self._scored = {}  # delay vector digest -> score
        self._best = None  # (score, tau, theta) of the earliest best row measured

    def delays(self, rows):
        """The (C, N) delay vectors of C rows."""
        ddf = linear_ddf(np.reshape(rows, (-1, 3)), self.deltas)
        return delays_from_ddf(ddf, self.cfg.tau_max_s)

    def _measure_block(self, block):
        """Recompensate and measure the (row, tau, key) entries of one block."""
        tau = np.array([entry[1] for entry in block])
        theta = recompensate_phases(self.theta_star, tau, self.cfg, self.cb)
        scores = mean_amplitude(self.measure(CombinerConfig(theta=theta, tau=tau)))
        i = int(np.argmax(scores))  # the earliest of equal maxima
        if self._best is None or scores[i] > self._best[0]:
            self._best = (float(scores[i]), tau[i], theta[i].copy())
        for (row, _, key), v in zip(block, scores.tolist()):
            self._scored[key] = v
            self.trace.append((*row, v))

    def score(self, rows) -> list:
        """Every row's score; rows become delays and are measured SEARCH_BLOCK at a time."""
        keys, fresh = [], []
        for start in range(0, len(rows), SEARCH_BLOCK):
            block = rows[start : start + SEARCH_BLOCK]
            for row, tau in zip(block, self.delays(block)):
                key = hashlib.blake2b(tau.tobytes(), digest_size=16).digest()
                keys.append(key)
                if key not in self._scored:
                    self._scored[key] = None
                    fresh.append((row, tau, key))
                    if len(fresh) == SEARCH_BLOCK:
                        self._measure_block(fresh)
                        fresh = []
        if fresh:
            self._measure_block(fresh)
        return [self._scored[key] for key in keys]

    def best(self) -> DelaySearchResult:
        """The earliest best row of the trace so far, with the design its block measured."""
        score, tau, theta = self._best
        return DelaySearchResult(tau, theta, score, self.trace[0][3], list(self.trace))


def search_delays(rows: ScoredRows, points: tuple, seed: tuple | None) -> DelaySearchResult:
    """Search the (break_delta, break_value, end_value) box for the best delays.

    A position (x, u, v) in [-1, 1]^3 is the row (1 + x, u (D/2)(1 + x), v D)
    for aperture D. `points` holds the (ax, ay, b) `grid.*` point counts; a
    single-point axis stays at its center. `seed` is the box position to
    start from (`seed_position`), or None. The zero-delay row (1, 0, 0) is
    scored first, then the seed row, or without one every other grid point
    per axis; then REFINE_ROUNDS compass rounds, with steps from the grid
    spacing down to 1/8 of it. `rows` scores them, so a fresh scorer
    measures at most 2 + 6 * REFINE_ROUNDS rows from a seed, and the coarse
    rows + 6 * REFINE_ROUNDS without one. Returns `rows.best()`, which
    counts rows an earlier caller measured, never below the zero-delay row.
    """
    aperture = rows.geom.aperture
    axes = [_axis(n) for n in points]

    def row(position):
        x, u, v = position
        ax = 1.0 + x
        # + 0.0 turns the -0.0 of a negative u at ax = 0 into 0.0
        return (ax, u * (0.5 * aperture) * ax + 0.0, v * aperture + 0.0)

    def score(positions):
        return rows.score([row(position) for position in positions])

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
    return rows.best()


def check_prediction(predicted: DelaySearchResult, rows: ScoredRows) -> bool:
    """Score a model-scored search's zero-delay row and winner through `rows`.

    `predicted` is `search_delays` run on a model's scorer, and `rows`
    measures. True if the winner measures at least the zero-delay row and
    its measured ratio to that row is at least (1 - CHECK_TOL) times the
    predicted one; the caller then keeps `rows.best()`. The ratios are
    compared cross-multiplied, so zero scores divide nothing.
    """
    winner = max(predicted.trace, key=lambda entry: entry[3])[:3]
    zero, best = rows.score([predicted.trace[0][:3], winner])
    return best >= zero and (
        best * predicted.ps_only_score >= (1.0 - CHECK_TOL) * predicted.score * zero
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
