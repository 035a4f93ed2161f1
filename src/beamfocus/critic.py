"""Single-path power critic.

The critic predicts the received power of a constant-modulus beam w as
|q^H w|^2 for a learned complex vector q of shape (M,). The true
single-path power is |h^H w|^2, so q equal to the channel reproduces it
exactly (up to a global phase, which no prediction sees). Training
minimizes squared error on measured powers by conjugate gradient on the
exact analytic gradient.
"""

from __future__ import annotations

import numpy as np

from .files import write_atomic


def _inner(beams: np.ndarray, q: np.ndarray) -> np.ndarray:
    # the (n,) inner products w_i^H q as conj(beams @ conj(q)): only the
    # (n,) result is conjugated, never the (n, M) beams
    return (beams @ q.conj()).conj()


def _residuals(g: np.ndarray, powers) -> np.ndarray:
    # prediction errors |q^H w_i|^2 - p_i from g = _inner(beams, q)
    return np.abs(g) ** 2 - powers


def _gradient(beams: np.ndarray, g: np.ndarray, err: np.ndarray) -> np.ndarray:
    # (4/n) sum_i err_i w_i (w_i^H q), with g and err from _residuals
    return (4.0 / err.size) * (beams.T @ (err * g))


def initialize_critic(beams: np.ndarray, powers: np.ndarray, seed: int = 0) -> np.ndarray:
    """Random (M,) critic whose mean predicted power matches mean(powers).

    `beams` holds the (n, M) unit-norm beams and `powers` their (n,)
    measured powers. Keeps the optimizer away from the stationary saddle at
    q = 0.
    """
    if powers.size == 0:
        raise ValueError("dataset is empty")
    rng = np.random.default_rng(seed)
    M = beams.shape[1]
    q = (rng.standard_normal(M) + 1j * rng.standard_normal(M)) / np.sqrt(2.0)
    # residuals against zero powers are the predictions themselves
    mean_pred = float(np.mean(_residuals(_inner(beams, q), 0.0)))
    mean_power = float(np.mean(powers))
    if mean_pred > 0.0 and mean_power > 0.0:
        q *= np.sqrt(mean_power / mean_pred)
    return q


# A fit stops once the RMS power error is at most this fraction of the mean
# measured power, or once an iteration lowers the loss by less than
# STALL_TOL of its value (a noisy buffer's plateau).
RMS_TOL = 0.01
STALL_TOL = 1e-3


def _line_search(err: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    """Step alpha minimizing mean((err + 2 alpha b + alpha^2 c)^2); 0 if none lowers it.

    The loss along a direction is a quartic in alpha; its minimum lies at a
    real root of the derivative, a cubic whose coefficients are the means
    below. The real parts of all three roots are scored, which also covers
    a real root returned with a rounding-size imaginary part.
    """
    cubic = [np.mean(c * c), 3.0 * np.mean(b * c), np.mean(err * c + 2.0 * b * b), np.mean(err * b)]
    if not cubic[0] > 0.0:  # the direction moves no prediction (or is not finite)
        return 0.0
    alphas = np.roots(cubic).real
    # the quartic's coefficients, highest power first, minus its constant
    quartic = np.array([cubic[0], 4.0 * cubic[1] / 3.0, 2.0 * cubic[2], 4.0 * cubic[3], 0.0])
    change = np.polyval(quartic, alphas)
    i = int(np.argmin(change))
    return float(alphas[i]) if change[i] < 0.0 else 0.0


def train_critic(q: np.ndarray, beams: np.ndarray, powers: np.ndarray, max_iters: int):
    """Full-batch Polak-Ribiere+ conjugate gradient with an exact line search.

    Each iteration takes the full-dataset gradient, forms the direction
    -g + beta P with beta = max(0, Re<g, g - g_prev> / ||g_prev||^2) (-g when
    that is not a descent direction), and steps to the exact minimum of the
    loss along it, which is the root of a cubic (see _line_search). A step
    never raises the loss. Powers are rescaled to unit mean internally,
    which rescales q by the square root and leaves predictions consistent.

    Stops after max_iters iterations, or earlier once the RMS power error
    is at most RMS_TOL of the mean measured power or an iteration lowers
    the loss by less than STALL_TOL of its value. Returns the trained
    (M,) vector and the loss after each iteration (original units;
    non-empty and non-increasing). Deterministic: no randomness is drawn.

    g = conj(B) q is carried across iterations: with d = conj(B) p the
    inner products along the step are g + alpha d, so each iteration makes
    two passes over the (n, M) beams, one for the gradient and one for d.
    No (n, M) conjugate of the beams is ever formed (see _inner).
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
        alpha = _line_search(err, (g.conj() * d).real, _residuals(d, 0.0))
        previous = current
        if alpha != 0.0:
            g_new = g + alpha * d
            err_new = _residuals(g_new, powers)
            loss_new = float(np.mean(err_new**2))
            if loss_new <= current:
                q, g, err, current = q + alpha * direction, g_new, err_new, loss_new
        trace.append(current * scale**2)
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
