"""Quantities only the tests check: the critic's loss and gradient, and the
monotonicity regime of the distance difference function."""

import enum

import numpy as np

from beamfocus.critic import _gradient, _inner, _residuals


def critic_loss_and_gradient(q, beams, powers):
    """Mean squared power error of the (M,) critic `q` and its gradient in q.

    loss = (1/n) sum_i (|q^H w_i|^2 - p_i)^2 over the (n, M) `beams` and
    their (n,) `powers`. The returned complex (M,) vector packs the
    derivative with respect to the real and imaginary parts of q (so it
    matches finite differences on the 2M real coordinates):
    grad = (4/n) sum_i err_i (w_i w_i^H) q. Both come from the kernels that
    `critic.train_critic` runs.
    """
    g = _inner(beams, q)
    err = _residuals(g, powers)
    return float(np.mean(err**2)), _gradient(beams, g, err)


class DdfRegime(enum.Enum):
    """Monotonicity regime of the distance difference function."""

    MONOTONE_INCREASING = "monotone_increasing"
    MONOTONE_DECREASING = "monotone_decreasing"
    VALLEY = "valley"


def ddf_regime(geom, ue) -> DdfRegime:
    """Classify the monotonicity of the distance difference function.

    Increasing for users above the array (y > D/2), decreasing below
    (y < -D/2), and valley-shaped (decreasing then increasing) when the
    user projects onto the array; the boundary |y| = D/2 counts as valley
    (its minimum sits at an array edge).
    """
    half = 0.5 * geom.aperture
    if ue.y > half:
        return DdfRegime.MONOTONE_INCREASING
    if ue.y < -half:
        return DdfRegime.MONOTONE_DECREASING
    return DdfRegime.VALLEY
