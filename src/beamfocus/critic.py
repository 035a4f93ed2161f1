"""Single-path power critic: |q^H w|^2 predicts beam w's received power.

The critic's spectral start, its least-squares fit to measured powers, the
one-path model critic read off the same powers by `focus.wave_powers`, and
the critic's file.
README "Critic fit" walks through the fit, README "Phase learner" through
the model critic.
"""

from __future__ import annotations

import math

import numpy as np

from .files import write_atomic
from .focus import _polar_search, wave_powers
from .geometry import SPEED_OF_LIGHT, ArrayGeometry, point_distances


def _product_dtype(beams: np.ndarray) -> np.dtype:
    # the precision of the one (n, M) product in _inner and _gradient: a
    # complex64 buffer streams half the bytes of a complex128 one, and the
    # fit's 1% RMS target sits far above single-precision rounding
    return np.result_type(beams.dtype, np.complex64)


def _inner(beams: np.ndarray, q: np.ndarray) -> np.ndarray:
    # the (n,) complex128 inner products w_i^H q as conj(beams @ conj(q)):
    # only the (n,) result is conjugated, never the (n, M) beams
    q_conj = q.conj().astype(_product_dtype(beams), copy=False)
    return (beams @ q_conj).conj().astype(complex, copy=False)


def _residuals(g: np.ndarray, powers) -> np.ndarray:
    # prediction errors |q^H w_i|^2 - p_i from g = _inner(beams, q)
    return np.abs(g) ** 2 - powers


def _gradient(beams: np.ndarray, g: np.ndarray, err: np.ndarray) -> np.ndarray:
    # (4/n) sum_i err_i w_i (w_i^H q) as a complex128 (M,) vector, with g
    # and err from _residuals
    weights = (err * g).astype(_product_dtype(beams), copy=False)
    return (4.0 / err.size) * (beams.T @ weights).astype(complex, copy=False)


# power iterations of the spectral start
SPECTRAL_ITERS = 30
# spawn key of the start vector's generator; sim._observer's measurement
# callbacks use (0,) and (1, N)
START_KEY = (2,)


def initialize_critic(beams: np.ndarray, powers: np.ndarray, seed: int = 0) -> np.ndarray:
    """Spectral (M,) critic whose mean predicted power matches mean(powers).

    `beams` holds the (n, M) unit-norm beams and `powers` their (n,)
    measured powers; ValueError if there are none. SPECTRAL_ITERS power
    iterations of C = sum_i (p_i - mean(p)) w_i w_i^H, started from a
    random vector drawn from `seed` under START_KEY, estimate the channel's
    direction (its leading eigenvector). The random vector is kept if the
    centred powers are all zero or an iteration does not stay finite.
    Keeps the optimizer away from the stationary saddle at q = 0.
    """
    if powers.size == 0:
        raise ValueError("dataset is empty")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=START_KEY))
    M = beams.shape[1]
    q = (rng.standard_normal(M) + 1j * rng.standard_normal(M)) / np.sqrt(2.0)
    centred = powers - np.mean(powers)
    peak = float(np.max(np.abs(centred)))
    if 0.0 < peak < math.inf:
        # C's scale does not move its eigenvectors; unit peak weights keep
        # the single-precision products clear of underflow and overflow
        centred /= peak
        v = q
        for _ in range(SPECTRAL_ITERS):
            v = _gradient(beams, _inner(beams, v), centred)
            norm = float(np.linalg.norm(v))
            if not 0.0 < norm < math.inf:
                break
            v /= norm
        else:
            q = v
    # residuals against zero powers are the predictions themselves
    mean_pred = float(np.mean(_residuals(_inner(beams, q), 0.0)))
    mean_power = float(np.mean(powers))
    if mean_pred > 0.0 and mean_power > 0.0:
        q *= np.sqrt(mean_power / mean_pred)
    return q


# the model critic's first polar stage spans this many half-wavelengths
MODEL_FIRST_SPAN = 64


def model_critic(beams: np.ndarray, powers: np.ndarray, geom: ArrayGeometry, center_freq_hz: float):
    """One-path (M,) critic sqrt(g) a(q) of the (n,) powers of the (n, M) beams, or None.

    a(q) is the unit-modulus spherical wave exp(-j k d_m(q)) from a point q
    at the center frequency, and s_i = |a(q)^H w_i|^2 (`focus.wave_powers`,
    single precision on the learner's complex64 beams). `focus._polar_search`
    finds the q whose least-squares fit p_i ~ g s_i leaves the least
    residual, the q of the largest (sum p s)^2 / sum s^2, on each stage's
    sub-array; the first stage spans MODEL_FIRST_SPAN half-wavelengths.
    g = sum p s / sum s^2 on the whole array. `powers` must be nonnegative.
    None when they have no positive finite peak or g is not positive and
    finite. Deterministic: no randomness is drawn.
    """
    peak = float(np.max(powers, initial=0.0))
    if not 0.0 < peak < math.inf:
        return None
    p = powers / peak
    x, y, _ = _polar_search(
        beams, lambda s: (s @ p) ** 2 / np.sum(s * s, -1), geom, center_freq_hz, MODEL_FIRST_SPAN
    )
    s = wave_powers(beams, geom, center_freq_hz, x, y)
    g = peak * float(s @ p) / float(np.sum(s * s))
    if not 0.0 < g < math.inf:
        return None
    k = 2.0 * np.pi * center_freq_hz / SPEED_OF_LIGHT
    return np.sqrt(g) * np.exp(-1j * k * point_distances(geom, x, y))


# A fit stops once the RMS power error is at most this fraction of the mean
# measured power, or once an iteration lowers the loss by less than
# STALL_TOL of its value (a noisy buffer's plateau).
RMS_TOL = 0.01
STALL_TOL = 1e-3


_THIRD_TURN = 2.0 * math.pi / 3.0


def _real_roots(a3: float, a2: float, a1: float, a0: float) -> tuple:
    """Real roots of a3 x^3 + a2 x^2 + a1 x + a0 for a3 > 0, in closed form.

    One root or three; a double root comes out once or twice, as rounding
    falls.
    """
    shift = a2 / (3.0 * a3)
    p = a1 / a3 - a2 * shift / a3
    q = a0 / a3 - shift * (a1 / a3 - 2.0 * shift * shift)
    half, third = 0.5 * q, p / 3.0
    disc = half * half + third * third * third
    if disc > 0.0:
        s = -half - math.copysign(math.sqrt(disc), half)
        u = math.copysign(abs(s) ** (1.0 / 3.0), s)
        return (u - third / u - shift,)
    if third == 0.0:  # a triple root
        return (-shift,)
    r = math.sqrt(-third)
    angle = math.acos(max(-1.0, min(1.0, -half / (r * r * r)))) / 3.0
    return tuple(2.0 * r * math.cos(angle - k * _THIRD_TURN) - shift for k in range(3))


def _line_search(moments: np.ndarray) -> float:
    """Step alpha minimizing sum((err + 2 alpha b + alpha^2 c)^2); 0 if none lowers it.

    `moments` is the (3, 3) Gram matrix of the rows err, b, c over the
    samples.
    """
    (_, eb, ec), (_, bb, bc), (_, _, cc) = moments.tolist()
    if not cc > 0.0:  # the direction moves no prediction (or is not finite)
        return 0.0
    best, step = 0.0, 0.0
    linear, quadratic, cubic = 4.0 * eb, 2.0 * ec + 4.0 * bb, 4.0 * bc
    for alpha in _real_roots(cc, 3.0 * bc, ec + 2.0 * bb, eb):
        # the quartic's change from alpha = 0
        change = alpha * (linear + alpha * (quadratic + alpha * (cubic + alpha * cc)))
        if change < best:
            best, step = change, alpha
    return step


def train_critic(q: np.ndarray, beams: np.ndarray, powers: np.ndarray, max_iters: int):
    """Fit the critic `q` to the (n,) powers of the (n, M) beams.

    Full-batch Polak-Ribiere+ conjugate gradient on the mean squared power
    error, with an exact line search; a step never raises the loss. Stops
    after max_iters iterations, or earlier once the RMS power error is at
    most RMS_TOL of the mean measured power or an iteration lowers the loss
    by less than STALL_TOL of its value. Returns the trained (M,) vector and
    the loss after each iteration, in the powers' units: non-empty and
    non-increasing. Deterministic: no randomness is drawn. ValueError for
    no powers or max_iters < 1.
    """
    if powers.size == 0:
        raise ValueError("dataset is empty")
    if max_iters < 1:
        raise ValueError("need at least one iteration")
    scale = float(np.mean(powers))
    if scale <= 0.0:
        scale = 1.0
    powers = powers / scale
    # loss at which the RMS error is RMS_TOL of the (rescaled) mean power
    target = (RMS_TOL * float(np.mean(powers))) ** 2

    q = q / np.sqrt(scale)
    g = _inner(beams, q)
    err = _residuals(g, powers)
    current = float(np.mean(err**2))
    trace = []
    grad_prev = direction = None
    for _ in range(max_iters):
        grad = _gradient(beams, g, err)
        if direction is not None:
            norm_prev = np.vdot(grad_prev, grad_prev).real
            beta = np.vdot(grad, grad - grad_prev).real / norm_prev if norm_prev > 0.0 else 0.0
            direction = max(0.0, beta) * direction - grad
        if direction is None or not np.vdot(grad, direction).real < 0.0:
            direction = -grad
        grad_prev = grad
        d = _inner(beams, direction)
        rows = np.array([err, g.real * d.real + g.imag * d.imag, d.real * d.real + d.imag * d.imag])
        alpha = _line_search(rows @ rows.T)
        previous = current
        if alpha != 0.0:
            g_new = g + alpha * d
            err_new = _residuals(g_new, powers)
            loss_new = float(np.mean(err_new**2))
            if loss_new <= current:
                q, g, err, current = q + alpha * direction, g_new, err_new, loss_new
        trace.append(current * (scale * scale))
        if current <= target or previous - current < STALL_TOL * previous:
            break
    return q * np.sqrt(scale), np.array(trace)


def save_critic(q: np.ndarray, path, header_comment: str = "") -> None:
    """Write the header comment, then `M 1` and one `re:im` line per antenna.

    Floats use shortest round-trip decimal form, so the file holds the
    vector bit-exactly.
    """
    with write_atomic(path) as fh:
        fh.write(header_comment)
        fh.write(f"{q.size} 1\n")
        fh.write("".join(f"{float(c.real)!r}:{float(c.imag)!r}\n" for c in q))
