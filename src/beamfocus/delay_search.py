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
from .geometry import SPEED_OF_LIGHT, ArrayGeometry


@dataclass(frozen=True)
class LinearApprox:
    """Piecewise-linear distance-difference approximation on [0, 2].

    The curve runs from (0, 0) through the breakpoint
    (break_delta, break_value) to (2, end_value). Validity against an
    aperture D requires |break_value| <= (D/2) * break_delta and
    |end_value| <= D; those are checked where D is known.
    """

    break_delta: float
    break_value: float
    end_value: float

    def __post_init__(self):
        if not 0.0 <= self.break_delta <= 2.0:
            raise ValueError("break_delta must lie in [0, 2]")
        if self.break_delta == 0.0 and self.break_value != 0.0:
            raise ValueError("break_value must be 0 when break_delta is 0")


@dataclass(frozen=True)
class DelayGrid:
    """Grid resolution of the three-parameter candidate search."""

    ax_points: int = 9
    ay_points: int = 17
    b_points: int = 17

    def __post_init__(self):
        if min(self.ax_points, self.ay_points, self.b_points) < 1:
            raise ValueError("grid axes need at least one point")


def linear_ddf(ap: LinearApprox, delta):
    """Evaluate the piecewise-linear approximation at delta in [0, 2].

    f(0) = 0 and f(2) = end_value; the two segments join continuously at
    the breakpoint. A degenerate breakpoint at 0 leaves the single segment
    from (0, 0) to (2, end_value); a breakpoint at 2 leaves the first
    segment only.
    """
    delta_arr = np.asarray(delta, dtype=float)
    if np.any(delta_arr < 0.0) or np.any(delta_arr > 2.0):
        raise ValueError("delta must lie in [0, 2]")
    ax, ay, b = ap.break_delta, ap.break_value, ap.end_value
    if ax == 0.0:
        out = 0.5 * b * delta_arr
    elif ax == 2.0:
        out = (ay / ax) * delta_arr
    else:
        out = np.where(
            delta_arr <= ax,
            (ay / ax) * delta_arr,
            (b - ay) / (2.0 - ax) * (delta_arr - ax) + ay,
        )
    return float(out) if np.isscalar(delta) else out


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
    """Delay vector for distance differences `ddf` (meters) at the sub-arrays.

    Raw delays ddf/c are shifted so their minimum is 0 (a common delay never
    changes gains) and clipped into [0, tau_max].
    """
    raw = np.asarray(ddf) / SPEED_OF_LIGHT
    return np.clip(raw - raw.min(), 0.0, tau_max)


def delays_from_approx(ap: LinearApprox, deltas: np.ndarray, tau_max: float) -> np.ndarray:
    """Delay vector sampled from the approximation at the sub-array centers."""
    return delays_from_ddf(linear_ddf(ap, np.asarray(deltas, dtype=float)), tau_max)


def grid_candidates(grid: DelayGrid, aperture: float) -> list[LinearApprox]:
    """Enumerate the candidate approximations, zero-delay candidate first.

    break_delta sweeps [0, 2], break_value sweeps its aperture-bounded range
    given break_delta, and end_value sweeps [-D, D]; single-point axes sit
    at the range center. The leading (1, 0, 0) candidate yields zero delays,
    so the search can never score below the delay-free configuration.
    """
    half = 0.5 * aperture
    ax_vals = np.linspace(0.0, 2.0, grid.ax_points) if grid.ax_points > 1 else [1.0]
    b_vals = (
        np.linspace(-aperture, aperture, grid.b_points) if grid.b_points > 1 else [0.0]
    )
    candidates = [LinearApprox(1.0, 0.0, 0.0)]
    for ax in ax_vals:
        ay_range = half * ax
        if grid.ay_points > 1:
            ay_vals = np.unique(np.linspace(-ay_range, ay_range, grid.ay_points))
        else:
            ay_vals = [0.0]
        for ay in ay_vals:
            for b in b_vals:
                candidates.append(LinearApprox(float(ax), float(ay), float(b)))
    return candidates


@dataclass
class DelaySearchResult:
    """Best delay configuration found plus the full scored trace."""

    tau: np.ndarray
    theta: np.ndarray
    score: float
    ps_only_score: float
    trace: list  # (break_delta, break_value, end_value, score) per candidate


def search_delays(
    theta_star,
    measure,
    geom: ArrayGeometry,
    cfg: SystemConfig,
    cb,
    grid: DelayGrid,
) -> DelaySearchResult:
    """Three-step search cycle over the candidate grid.

    For every candidate: build the delay vector, recompensate the phases,
    measure the per-subcarrier powers through the callback, and score by
    mean amplitude. Returns the argmax candidate's delays and phases; ties
    keep the earliest candidate, which the injected zero-delay candidate
    makes at least as good as the delay-free configuration.
    """
    theta_star = np.atleast_1d(np.asarray(theta_star, dtype=float))
    deltas = subarray_deltas(geom, cfg.num_td_units, cfg.ps_per_td)
    best_score = -np.inf
    best_tau = best_theta = None
    ps_only_score = None
    trace = []
    for ap in grid_candidates(grid, geom.aperture):
        tau = delays_from_approx(ap, deltas, cfg.tau_max_s)
        theta = recompensate_phases(theta_star, tau, cfg, cb)
        powers = np.asarray(measure(CombinerConfig(theta=theta, tau=tau)), dtype=float)
        score = float(np.mean(np.sqrt(np.maximum(powers, 0.0))))
        if ps_only_score is None:
            ps_only_score = score  # first candidate is the zero-delay one
        trace.append((ap.break_delta, ap.break_value, ap.end_value, score))
        if score > best_score:
            best_score, best_tau, best_theta = score, tau, theta
    return DelaySearchResult(
        tau=best_tau,
        theta=best_theta,
        score=best_score,
        ps_only_score=ps_only_score,
        trace=trace,
    )


def write_search_trace_csv(result: DelaySearchResult, path, header_comment: str = "") -> None:
    """CSV export: ax,ay,b,score_amplitude_mean,score_db_rel_ps_only."""
    ref = result.ps_only_score
    with open(path, "w") as fh:
        if header_comment:
            fh.write(header_comment)
        fh.write("ax,ay,b,score_amplitude_mean,score_db_rel_ps_only\n")
        for ax, ay, b, score in result.trace:
            if ref > 0.0 and score > 0.0:
                rel_db = 20.0 * np.log10(score / ref)
            else:
                rel_db = float("nan")
            fh.write(f"{ax:.10g},{ay:.10g},{b:.10g},{score:.12g},{rel_db:.6f}\n")
