"""Geometry-assisted delay design.

Approximates the unknown distance-difference curve with a two-piece linear
function parameterized by its breakpoint (break_delta, break_value) and its
endpoint value at delta = 2, samples it at the sub-array centers to obtain
candidate delay vectors, and scores each candidate by measured wideband
gain after phase recompensation. No user position or channel knowledge is
consumed; only the measurement callback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SystemConfig
from .combiner import CombinerConfig, recompensate_phases
from .files import write_atomic
from .geometry import SPEED_OF_LIGHT, ArrayGeometry


@dataclass(frozen=True)
class DelayGrid:
    """Grid resolution of the three-parameter candidate search."""

    ax_points: int = 9
    ay_points: int = 17
    b_points: int = 17

    def __post_init__(self):
        if min(self.ax_points, self.ay_points, self.b_points) < 1:
            raise ValueError("grid axes need at least one point")


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


def subarray_deltas(geom: ArrayGeometry, num_td_units: int, ps_per_td: int) -> np.ndarray:
    """Relative coefficient of each sub-array center, strictly increasing.

    Sub-array n spans elements nP..nP+P-1; its center is the midpoint of the
    first and last element coefficients, mapped through delta = 1 - alpha.
    """
    if num_td_units * ps_per_td != geom.num_antennas:
        raise ValueError("N*P must equal the number of antennas")
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


def delays_from_approx(params, deltas: np.ndarray, tau_max: float) -> np.ndarray:
    """Delay vector(s) sampled from the approximation row(s) at the sub-array centers."""
    return delays_from_ddf(linear_ddf(params, np.asarray(deltas, dtype=float)), tau_max)


def grid_candidates(grid: DelayGrid, aperture: float) -> np.ndarray:
    """The candidate approximations as (C, 3) rows, zero-delay candidate first.

    Each row is (break_delta, break_value, end_value). break_delta sweeps
    [0, 2], break_value sweeps its aperture-bounded range |break_value| <=
    (D/2) break_delta, and end_value sweeps [-D, D]; single-point axes sit
    at the range center. The leading (1, 0, 0) row yields zero delays, so
    the search can never score below the delay-free configuration.
    """
    half = 0.5 * aperture
    ax_vals = np.linspace(0.0, 2.0, grid.ax_points) if grid.ax_points > 1 else [1.0]
    b_vals = (
        np.linspace(-aperture, aperture, grid.b_points) if grid.b_points > 1 else [0.0]
    )
    rows = [(1.0, 0.0, 0.0)]
    for ax in ax_vals:
        ay_range = half * ax
        if grid.ay_points > 1:
            ay_vals = np.unique(np.linspace(-ay_range, ay_range, grid.ay_points))
        else:
            ay_vals = [0.0]
        rows.extend((ax, ay, b) for ay in ay_vals for b in b_vals)
    return np.array(rows, dtype=float)


@dataclass
class DelaySearchResult:
    """Best delay configuration found plus the full scored trace."""

    tau: np.ndarray
    theta: np.ndarray
    score: float
    ps_only_score: float
    trace: list  # (break_delta, break_value, end_value, score) per candidate


# candidates recompensated and measured per callback invocation
SEARCH_BLOCK = 256


def search_delays(
    theta_star,
    measure,
    geom: ArrayGeometry,
    cfg: SystemConfig,
    cb,
    grid: DelayGrid,
) -> DelaySearchResult:
    """Three-step search cycle over the candidate grid.

    Every candidate's delay vector comes from one vectorized evaluation of
    the approximations; then, block by block, the phases are recompensated
    and `measure` scores the block. `measure` takes a stacked
    CombinerConfig of C candidates (theta (C, M), tau (C, N)) and returns
    their per-subcarrier powers, shape (C, K), row c equal to what it
    would return for candidate c alone, measured in candidate order. Each
    candidate scores the mean amplitude of its row. Returns the argmax
    candidate's delays and phases; ties keep the earliest candidate, which
    the injected zero-delay candidate makes at least as good as the
    delay-free configuration.
    """
    theta_star = np.atleast_1d(np.asarray(theta_star, dtype=float))
    deltas = subarray_deltas(geom, cfg.num_td_units, cfg.ps_per_td)
    params = grid_candidates(grid, geom.aperture)
    taus = delays_from_approx(params, deltas, cfg.tau_max_s)
    scores = np.empty(len(params))
    best_score = -np.inf
    best_tau = best_theta = None
    for start in range(0, len(params), SEARCH_BLOCK):
        tau = taus[start : start + SEARCH_BLOCK]
        theta = recompensate_phases(theta_star, tau, cfg, cb)
        powers = np.asarray(measure(CombinerConfig(theta=theta, tau=tau)), dtype=float)
        block = np.mean(np.sqrt(np.maximum(powers, 0.0)), axis=-1)
        scores[start : start + SEARCH_BLOCK] = block
        i = int(np.argmax(block))  # the earliest of tied maxima
        if block[i] > best_score:
            best_score, best_tau, best_theta = float(block[i]), tau[i], theta[i]
    trace = [(*row, float(score)) for row, score in zip(params.tolist(), scores)]
    return DelaySearchResult(
        tau=best_tau,
        theta=best_theta,
        score=best_score,
        ps_only_score=float(scores[0]),  # the first candidate is the zero-delay one
        trace=trace,
    )


def write_search_trace_csv(result: DelaySearchResult, path, header_comment: str = "") -> None:
    """CSV export: ax,ay,b,score_amplitude_mean,score_db_rel_ps_only."""
    ref = result.ps_only_score
    with write_atomic(path) as fh:
        if header_comment:
            fh.write(header_comment)
        fh.write("ax,ay,b,score_amplitude_mean,score_db_rel_ps_only\n")
        for ax, ay, b, score in result.trace:
            if ref > 0.0 and score > 0.0:
                rel_db = 20.0 * np.log10(score / ref)
            else:
                rel_db = float("nan")
            fh.write(f"{ax:.10g},{ay:.10g},{b:.10g},{score:.12g},{rel_db:.6f}\n")
