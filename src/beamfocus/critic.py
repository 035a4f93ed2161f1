"""Gram-form power critic.

The critic predicts the received power of a constant-modulus beam w as
||Q^H w||^2 for a learned complex matrix Q of shape (M, rank). Because the
true single-path power is |h^H w|^2, a rank-1 Q equal to the channel
reproduces it exactly; extra rank over-parameterizes benignly and speeds up
the regression. Training minimizes squared error on measured powers with an
exact analytic gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .files import write_atomic


@dataclass(frozen=True)
class CriticModel:
    """Model parameters: complex matrix of shape (M, rank)."""

    matrix: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.matrix, dtype=complex)
        if q.ndim != 2 or q.shape[1] < 1:
            raise ValueError("matrix must be (M, rank) with rank >= 1")
        q.setflags(write=False)
        object.__setattr__(self, "matrix", q)

    @property
    def num_antennas(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class PowerDataset:
    """(beam, power) training pairs: beams (n, M) unit-norm, powers (n,) >= 0."""

    beams: np.ndarray
    powers: np.ndarray

    def __post_init__(self):
        beams = np.asarray(self.beams, dtype=complex)
        powers = np.atleast_1d(np.asarray(self.powers, dtype=float))
        if beams.ndim != 2 or beams.shape[0] != powers.size:
            raise ValueError("need one power per beam")
        norms = np.linalg.norm(beams, axis=1)
        if beams.shape[0] and np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("beams must be unit-norm")
        if np.any(powers < 0.0):
            raise ValueError("powers must be nonnegative")
        beams.setflags(write=False)
        powers.setflags(write=False)
        object.__setattr__(self, "beams", beams)
        object.__setattr__(self, "powers", powers)

    def __len__(self) -> int:
        return self.powers.size


def beam_from_phases(phases) -> np.ndarray:
    """Constant-modulus beam (1/sqrt(M)) exp(j phases); one per row of a 2-D array."""
    phases = np.atleast_1d(np.asarray(phases, dtype=float))
    return np.exp(1j * phases) / np.sqrt(phases.shape[-1])


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


def critic_loss_and_gradient(model: CriticModel, data: PowerDataset):
    """Mean squared power error and its gradient in the model matrix.

    loss = (1/n) sum_i (||Q^H w_i||^2 - p_i)^2. The returned complex array
    packs the derivative with respect to the real and imaginary parts of Q
    (so it matches finite differences on the 2*M*rank real coordinates):
    grad = (4/n) sum_i err_i (w_i w_i^H) Q.
    """
    if len(data) == 0:
        raise ValueError("dataset is empty")
    if data.beams.shape[1] != model.num_antennas:
        raise ValueError("beam length does not match the model")
    g = _rank_rows(data.beams, model.matrix)
    err = _residuals(g, data.powers)
    return float(np.mean(err**2)), _gradient(data.beams, g, err)


def initialize_critic(
    num_antennas: int, rank: int, data: PowerDataset, seed: int = 0
) -> CriticModel:
    """Random init scaled so the mean predicted power matches the data mean.

    Keeps the optimizer away from the stationary saddle at Q = 0.
    """
    if len(data) == 0:
        raise ValueError("dataset is empty")
    rng = np.random.default_rng(seed)
    q = (
        rng.standard_normal((num_antennas, rank))
        + 1j * rng.standard_normal((num_antennas, rank))
    ) / np.sqrt(2.0 * rank)
    # residuals against zero powers are the predictions themselves
    mean_pred = float(np.mean(_residuals(_rank_rows(data.beams, q), 0.0)))
    mean_power = float(np.mean(data.powers))
    if mean_pred > 0.0 and mean_power > 0.0:
        q *= np.sqrt(mean_power / mean_pred)
    return CriticModel(matrix=q)


@dataclass(frozen=True)
class TrainOptions:
    """Gradient-descent settings for the power regression."""

    lr: float = 0.2
    iters: int = 300
    batch: int = 1024
    seed: int = 0

    def __post_init__(self):
        if self.lr < 0.0:
            raise ValueError("learning rate must be nonnegative")
        if self.iters < 1:
            raise ValueError("need at least one iteration")
        if self.batch < 1:
            raise ValueError("batch size must be positive")


def train_critic(model: CriticModel, data: PowerDataset, opts: TrainOptions):
    """Mini-batch gradient descent with halving-on-increase backtracking.

    Steps use the analytic batch gradient; a step is only accepted if the
    full-dataset loss does not increase (halving the step until it fits, the
    halved step persisting). Powers are rescaled to unit mean internally,
    which rescales Q by the square root and leaves predictions consistent.
    Returns the trained model and the per-iteration full-dataset loss trace
    (in original units); the final loss never exceeds the initial one.
    Deterministic per opts.seed.

    The line search runs in rank space: G = conj(B) Q is carried across
    iterations and D = conj(B) grad is formed once per iteration, so each
    backtracking trial Q - lr grad is scored through G - lr D at O(n rank)
    instead of an (n, M) x (M, rank) product. The accepted Q is still
    Q - lr grad, so the steps taken are the same as scoring every trial from
    scratch; only the loss values round differently. No (n, M) conjugate of
    the beams is ever formed (see _rank_rows).
    """
    if len(data) == 0:
        raise ValueError("dataset is empty")
    n = len(data)
    scale = float(np.mean(data.powers))
    if scale <= 0.0:
        scale = 1.0
    powers_scaled = data.powers / scale

    def full_loss(g):
        return float(np.mean(_residuals(g, powers_scaled) ** 2))

    q = model.matrix / np.sqrt(scale)
    g = _rank_rows(data.beams, q)
    current = full_loss(g)
    if opts.lr == 0.0:
        return model, np.full(opts.iters, current * scale**2)

    rng = np.random.default_rng(opts.seed)
    trace = np.empty(opts.iters)
    batch_size = min(opts.batch, n)
    for it in range(opts.iters):
        idx = rng.choice(n, size=batch_size, replace=False)
        batch = data.beams[idx]
        g_batch = _rank_rows(batch, q)
        err = _residuals(g_batch, powers_scaled[idx])
        grad = _gradient(batch, g_batch, err)
        d = _rank_rows(data.beams, grad)
        # backtrack from the fixed base step each iteration; a persistent
        # step decay would let one noisy batch freeze all later progress
        lr = opts.lr
        for _ in range(30):
            g_cand = g - lr * d
            cand_loss = full_loss(g_cand)
            if cand_loss <= current:
                q, g, current = q - lr * grad, g_cand, cand_loss
                break
            lr *= 0.5
        trace[it] = current * scale**2
    return CriticModel(matrix=q * np.sqrt(scale)), trace


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


def critic_to_text(model: CriticModel) -> str:
    """Header `M v` followed by M rows of rank `re:im` entries."""
    return matrix_to_text(model.matrix)


def save_critic(model: CriticModel, path, header_comment: str = "") -> None:
    with write_atomic(path) as fh:
        if header_comment:
            fh.write(header_comment)
        fh.write(critic_to_text(model))
