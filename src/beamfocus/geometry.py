"""Array and user geometry.

Element positions of a (possibly non-uniform) linear receive array, distances
to a user position, and the distance difference function (DDF) that drives
the delay design. The array lies on the y axis, centered at the origin, with
element m at [0, (D/2) * alpha_m] for coefficients alpha in [-1, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact by definition

# UE closer than this (in meters) to an element counts as coincident.
_DEGENERATE_DISTANCE = 10.0 * np.finfo(float).eps

# random_geometry's largest M: a draw keeps every gap with probability about
# exp(-M^2 * 1e-9), 1.4% (some 73 draws) here and vanishingly small past it
MAX_RANDOM_ANTENNAS = 2**16


class DegeneratePositionError(ValueError):
    """User position numerically coincides with an array element."""


@dataclass(frozen=True)
class ArrayGeometry:
    """Linear array on the y axis with full aperture `aperture` (meters).

    `alphas` are the unitless element coefficients, strictly decreasing and
    inside [-1, 1]; element m sits at [0, (aperture/2) * alphas[m]].
    """

    alphas: np.ndarray
    aperture: float

    def __post_init__(self):
        alphas = np.atleast_1d(np.asarray(self.alphas, dtype=float))
        if alphas.ndim != 1 or alphas.size < 1:
            raise ValueError("alphas must be a non-empty 1-D sequence")
        if np.any(alphas < -1.0) or np.any(alphas > 1.0):
            raise ValueError("alphas must lie in [-1, 1]")
        if alphas.size > 1 and not np.all(np.diff(alphas) < 0.0):
            raise ValueError("alphas must be strictly decreasing")
        if not 0.0 < self.aperture < np.inf:
            raise ValueError("aperture must be finite and positive")
        alphas.setflags(write=False)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "aperture", float(self.aperture))

    @property
    def num_antennas(self) -> int:
        return self.alphas.size


@dataclass(frozen=True)
class UePosition:
    """User position q = [x, y] in meters; the array convention needs x > 0."""

    x: float
    y: float

    def __post_init__(self):
        if not np.isfinite(self.x) or not np.isfinite(self.y):
            raise ValueError("position must be finite")
        if not self.x > 0.0:
            raise ValueError("x must be positive (user in front of the array)")


def point_distances(geom: ArrayGeometry, x, y) -> np.ndarray:
    """Euclidean distances from every element to the points (x, y).

    `x` and `y` broadcast to a shape S; the result has shape (*S, M).
    """
    x = np.asarray(x, dtype=float)[..., None]
    y = np.asarray(y, dtype=float)[..., None]
    return np.hypot(x, 0.5 * geom.aperture * geom.alphas - y)


def distances(geom: ArrayGeometry, ue: UePosition) -> np.ndarray:
    """Euclidean distances from every element to the user, shape (M,).

    Raises DegeneratePositionError if the user coincides with an element.
    """
    d = point_distances(geom, ue.x, ue.y)
    if np.any(d < _DEGENERATE_DISTANCE):
        raise DegeneratePositionError(
            "user position coincides with an array element"
        )
    return d


def distance_difference(geom: ArrayGeometry, delta, ue: UePosition):
    """Distance difference d(delta) - d_ref for relative coefficient delta.

    The array point at relative coefficient delta in [0, 2] is
    [0, (1 - delta) * D/2]; delta = 0 is the reference edge, so the result
    is exactly 0 there. The magnitude never exceeds the aperture (triangle
    inequality). Accepts a scalar or an array of deltas.
    """
    delta_arr = np.asarray(delta, dtype=float)
    if np.any(delta_arr < 0.0) or np.any(delta_arr > 2.0):
        raise ValueError("delta must lie in [0, 2]")
    half = 0.5 * geom.aperture
    d = np.hypot(ue.x, (1.0 - delta_arr) * half - ue.y)
    out = d - np.hypot(ue.x, half - ue.y)  # the edge [0, D/2] is delta = 0
    return float(out) if np.isscalar(delta) else out


def uniform_geometry(M: int, aperture: float) -> ArrayGeometry:
    """Uniform linear array: alpha_m = 1 - 2m/(M-1), m = 0..M-1."""
    if M < 2:
        raise ValueError("need at least two elements")
    alphas = 1.0 - 2.0 * np.arange(M) / (M - 1)
    return ArrayGeometry(alphas=alphas, aperture=aperture)


def random_geometry(M: int, aperture: float, seed: int) -> ArrayGeometry:
    """Random non-uniform array realizing the requested aperture exactly.

    The two end elements are pinned to alpha = +/-1 so the realized aperture
    equals `aperture`; the M-2 interior coefficients are drawn uniformly on
    (-1, 1) and sorted. Draws are repeated until all neighbors are at least
    1e-9 * aperture apart (avoids numerically coincident elements).
    Deterministic per seed. ValueError unless 2 <= M <= MAX_RANDOM_ANTENNAS.
    """
    if M < 2:
        raise ValueError("need at least two elements")
    if M > MAX_RANDOM_ANTENNAS:
        raise ValueError(f"a random array takes at most {MAX_RANDOM_ANTENNAS} elements")
    rng = np.random.default_rng(seed)
    min_gap = 2e-9  # in alpha units: (D/2) * gap >= 1e-9 * D
    while True:
        interior = rng.uniform(-1.0, 1.0, size=M - 2)
        alphas = np.concatenate(([1.0], np.sort(interior)[::-1], [-1.0]))
        if np.all(np.diff(alphas) <= -min_gap):
            return ArrayGeometry(alphas=alphas, aperture=aperture)
