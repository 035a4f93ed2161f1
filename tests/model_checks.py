"""Quantities only the tests check: the critic's loss and gradient, the
monotonicity regime of the distance difference function, and the earlier
numpy forms of the critic's line search and of the coordinate ascent, which
the faster kernels must agree with."""

import enum

import numpy as np

from beamfocus.critic import _gradient, _inner, _residuals
from beamfocus.phase_learning import MAX_ASCENT_CYCLES


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


def line_search_reference(err, b, c) -> float:
    """Step alpha minimizing mean((err + 2 alpha b + alpha^2 c)^2); 0 if none lowers it.

    The numpy form of `critic._line_search`: the cubic's coefficients as
    means of the (n,) rows, its roots from `cubic_step_reference`.
    """
    cubic = [np.mean(c * c), 3.0 * np.mean(b * c), np.mean(err * c + 2.0 * b * b), np.mean(err * b)]
    return cubic_step_reference(cubic)


def cubic_step_reference(cubic) -> float:
    """The root of the line search cubic (highest power first) that lowers the quartic most.

    The roots come from `np.roots`; the real parts of all three are scored
    on the quartic, whose derivative is 4 * cubic, by `np.polyval`. 0 when
    the leading coefficient is not positive or no root lowers the quartic.
    """
    if not cubic[0] > 0.0:
        return 0.0
    alphas = np.roots(cubic).real
    # the quartic's coefficients, highest power first, minus its constant
    quartic = np.array([cubic[0], 4.0 * cubic[1] / 3.0, 2.0 * cubic[2], 4.0 * cubic[3], 0.0])
    change = np.polyval(quartic, alphas)
    i = int(np.argmin(change))
    return float(alphas[i]) if change[i] < 0.0 else 0.0


def coordinate_ascent_reference(q, init, cb):
    """`phase_learning.coordinate_ascent` as numpy operations on each antenna's candidates."""
    idx = np.atleast_1d(np.asarray(init)).astype(np.uint8)
    M = idx.size
    q_conj = q.conj()
    phasors = cb.phasors / np.sqrt(M)
    g = q_conj @ phasors[idx]
    best = float(np.real(np.vdot(g, g)))
    cycles = 0
    for _ in range(MAX_ASCENT_CYCLES):
        changed = False
        for m in range(M):
            g_base = g - phasors[idx[m]] * q_conj[m]
            cand = g_base + phasors * q_conj[m]
            powers = np.abs(cand) ** 2
            i = int(np.argmax(powers))
            if powers[i] > best * (1.0 + 1e-12):
                idx[m] = i
                g = cand[i]
                best = float(powers[i])
                changed = True
        cycles += 1
        if not changed:
            break
        g = q_conj @ phasors[idx]
        best = float(np.real(np.vdot(g, g)))
    return idx, cycles, best


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
