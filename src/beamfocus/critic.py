"""Gram-form power critic.

The critic predicts the received power of a constant-modulus beam w as
||Q^H w||^2 for a learned complex matrix Q of shape (M, rank). Because the
true single-path power is |h^H w|^2, a rank-1 Q equal to the channel
reproduces it exactly; extra rank over-parameterizes benignly and speeds up
the regression. Training minimizes squared error on measured powers by
conjugate gradient on the exact analytic gradient.
"""

from __future__ import annotations

import numpy as np

from .files import write_atomic


def _rank_rows(beams: np.ndarray, q: np.ndarray) -> np.ndarray:
    # conj(beams) @ q as conj(beams @ conj(q)): bit-identical, but only the
    # (n, rank) result is conjugated, never the (n, M) beams
    return (beams @ q.conj()).conj()


def _residuals(g: np.ndarray, powers) -> np.ndarray:
    # prediction errors ||Q^H w_i||^2 - p_i from the rank-space rows
    # g = _rank_rows(beams, Q)
    return np.sum(np.abs(g) ** 2, axis=1) - powers


def _gradient(beams: np.ndarray, g: np.ndarray, err: np.ndarray) -> np.ndarray:
    # (4/n) sum_i err_i w_i (w_i^H Q), with g and err from _residuals
    return (4.0 / err.size) * (beams.T @ (err[:, None] * g))


def initialize_critic(
    rank: int, beams: np.ndarray, powers: np.ndarray, seed: int = 0
) -> np.ndarray:
    """Random (M, rank) critic whose mean predicted power matches mean(powers).

    `beams` holds the (n, M) unit-norm beams and `powers` their (n,)
    measured powers. Keeps the optimizer away from the stationary saddle at
    Q = 0.
    """
    if powers.size == 0:
        raise ValueError("dataset is empty")
    rng = np.random.default_rng(seed)
    M = beams.shape[1]
    q = (
        rng.standard_normal((M, rank))
        + 1j * rng.standard_normal((M, rank))
    ) / np.sqrt(2.0 * rank)
    # residuals against zero powers are the predictions themselves
    mean_pred = float(np.mean(_residuals(_rank_rows(beams, q), 0.0)))
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
    which rescales Q by the square root and leaves predictions consistent.

    Stops after max_iters iterations, or earlier once the RMS power error
    is at most RMS_TOL of the mean measured power or an iteration lowers
    the loss by less than STALL_TOL of its value. Returns the trained
    (M, rank) matrix and the loss after each iteration (original units;
    non-empty and non-increasing). Deterministic: no randomness is drawn.

    G = conj(B) Q is carried across iterations: with D = conj(B) P the rows
    along the step are G + alpha D, so each iteration makes two passes over
    the (n, M) beams, one for the gradient and one for D. No (n, M)
    conjugate of the beams is ever formed (see _rank_rows).
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
    g = _rank_rows(beams, q)
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
        d = _rank_rows(beams, direction)
        alpha = _line_search(err, np.sum((g.conj() * d).real, axis=1), _residuals(d, 0.0))
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


def matrix_to_text(a: np.ndarray) -> str:
    """Header `rows cols`, then one line per row of `re:im` entries.

    Floats use shortest round-trip decimal form, so the text holds the
    matrix bit-exactly.
    """
    rows, cols = a.shape
    lines = [f"{rows} {cols}"]
    for row in a:
        lines.append(" ".join(f"{float(c.real)!r}:{float(c.imag)!r}" for c in row))
    return "\n".join(lines) + "\n"


def save_critic(q: np.ndarray, path, header_comment: str = "") -> None:
    """Write the header comment, then the (M, rank) matrix as matrix_to_text does."""
    with write_atomic(path) as fh:
        if header_comment:
            fh.write(header_comment)
        fh.write(matrix_to_text(q))
