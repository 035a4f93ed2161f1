"""Online phase-shifter learning from center-frequency power measurements.

The loop explores quantized beams by randomly perturbing a few phases per
step, fits the Gram-form critic to the measured (beam, power) pairs, and
periodically exploits the critic via cyclic coordinate ascent over the
codebook. Only the measurement callback touches the channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SystemConfig
from .combiner import PhaseCodebook, indices_to_digits, phase_indices
from .critic import (
    CriticModel,
    PowerDataset,
    TrainOptions,
    beam_from_phases,
    initialize_critic,
    train_critic,
)


@dataclass(frozen=True)
class LearnerOptions:
    """Budget and schedule of the online search.

    perturb_count is the initial number of phases re-drawn per exploration
    step (None picks M//4); the loop decays it linearly down to M//16 over
    the budget. perturb_count = 0 degenerates to a stationary probe. From
    exploit_start onward the critic is refit on the buffer every
    critic_refit_period measurements, each refit followed by a
    coordinate-ascent exploitation whose measurement does not count against
    total_measurements.
    """

    total_measurements: int = 5000
    perturb_count: int | None = None
    critic_refit_period: int = 1000
    exploit_start: int = 2000
    seed: int = 0
    critic_rank: int = 4
    train_iters: int = 1500
    train_lr: float = 0.5
    train_batch: int = 1024

    def __post_init__(self):
        if self.total_measurements < 1:
            raise ValueError("need a positive measurement budget")
        if self.critic_refit_period < 1:
            raise ValueError("refit period must be positive")
        if not 1 <= self.exploit_start <= self.total_measurements:
            raise ValueError("exploit_start must lie within the budget")
        if self.perturb_count is not None and self.perturb_count < 0:
            raise ValueError("perturb_count must be nonnegative")
        if self.critic_rank < 1:
            raise ValueError("critic rank must be positive")


def _perturb(phases: np.ndarray, count: int, cb: PhaseCodebook, rng) -> np.ndarray:
    out = phases.copy()
    if count == 0:
        return out
    pos = rng.choice(phases.size, size=min(count, phases.size), replace=False)
    out[pos] = cb.values[rng.integers(0, cb.size, size=pos.size)]
    return out


def coordinate_ascent(
    model: CriticModel,
    init: np.ndarray,
    cb: PhaseCodebook,
    max_cycles: int = 1000,
):
    """Cyclic coordinate ascent of the predicted power over the codebook.

    Sweeps the phases in order, setting each to the codebook value that
    maximizes the critic's prediction with the rest fixed; stops after a
    full cycle without change (each accepted change strictly increases the
    prediction, so termination is guaranteed). Returns
    (phases, cycles_used, predicted_power).
    """
    theta = np.atleast_1d(np.asarray(init, dtype=float)).copy()
    M = theta.size
    if M != model.num_antennas:
        raise ValueError("init length does not match the model")
    q_conj = model.matrix.conj()  # rows indexed by antenna
    inv_sqrt_m = 1.0 / np.sqrt(M)
    phasors = np.exp(1j * cb.values) * inv_sqrt_m  # (2^r,)
    g = model.matrix.conj().T @ beam_from_phases(theta)  # (rank,)
    best = float(np.real(np.vdot(g, g)))
    cycles = 0
    for _ in range(max_cycles):
        changed = False
        for m in range(M):
            g_base = g - (np.exp(1j * theta[m]) * inv_sqrt_m) * q_conj[m]
            cand = g_base[None, :] + phasors[:, None] * q_conj[m][None, :]
            powers = np.sum(np.abs(cand) ** 2, axis=1)
            i = int(np.argmax(powers))
            if powers[i] > best * (1.0 + 1e-12):
                theta[m] = cb.values[i]
                g = cand[i]
                best = float(powers[i])
                changed = True
        cycles += 1
        if not changed:
            break
        # refresh the running inner product to stop incremental drift
        g = model.matrix.conj().T @ beam_from_phases(theta)
        best = float(np.real(np.vdot(g, g)))
    return theta, cycles, best


@dataclass
class LearnHistory:
    """Per-measurement log plus the final critic and exploitation stats."""

    iters: np.ndarray
    measured_powers: np.ndarray
    best_powers: np.ndarray
    phases: np.ndarray  # (n, M) codebook values
    final_model: CriticModel | None
    exploit_events: list  # (measurement index, ascent cycles, measured power)
    critic_loss_traces: list  # one train_critic loss trace per exploit event


def learn_phases(measure, cfg: SystemConfig, cb: PhaseCodebook, opts: LearnerOptions):
    """Run the online search; returns (best phases, LearnHistory).

    `measure` maps an M-vector of codebook phases to the received power at
    the center frequency. Exploration measurements number exactly
    opts.total_measurements; each exploitation adds one more callback
    invocation. Deterministic per opts.seed, including callback order.
    """
    M = cfg.num_antennas
    rng = np.random.default_rng(opts.seed)

    p0 = opts.perturb_count if opts.perturb_count is not None else max(1, M // 4)
    total = opts.total_measurements
    # decaying all the way to single-phase flips leaves the late buffer too
    # correlated for the critic regression to identify the channel, so the
    # coarse-to-fine decay bottoms out at M/16
    p_end = min(p0, max(1, M // 16))

    def scheduled_count(t: int) -> int:
        if total <= 1 or p0 == 0:
            return p0
        frac = (t - 1) / (total - 1)
        return max(1, int(round(p0 + (p_end - p0) * frac)))

    # the measurement log doubles as the critic's training buffer
    log_powers: list[float] = []
    log_best: list[float] = []
    log_phases: list[np.ndarray] = []
    exploit_events: list[tuple[int, int, float]] = []
    loss_traces: list[np.ndarray] = []
    best_phases, best_power = None, -np.inf
    model: CriticModel | None = None

    def take(phases: np.ndarray) -> float:
        nonlocal best_phases, best_power
        p = float(measure(phases))
        if best_phases is None or p > best_power:
            best_power, best_phases = p, phases
        log_powers.append(p)
        log_best.append(best_power)
        log_phases.append(phases)
        return p

    current = cb.values[rng.integers(0, cb.size, size=M)]
    take(current)

    refit_index = 0
    for t in range(2, total + 1):
        current = _perturb(current, scheduled_count(t), cb, rng)
        take(current)

        due = t % opts.critic_refit_period == 0 or t == opts.exploit_start or t == total
        if due and t >= opts.exploit_start:
            # the critic is consumed only by exploitation, so fitting is
            # deferred until then; each fit restarts from a fresh seeded
            # init (warm starts inherit overfit basins from small buffers)
            data = PowerDataset(
                beams=beam_from_phases(np.array(log_phases)),
                powers=np.maximum(log_powers, 0.0),
            )
            train_opts = TrainOptions(
                lr=opts.train_lr,
                iters=opts.train_iters,
                batch=opts.train_batch,
                seed=opts.seed + 104729 * (refit_index + 1),
            )
            model = initialize_critic(
                M, opts.critic_rank, data, seed=opts.seed + 7919 * refit_index
            )
            model, trace = train_critic(model, data, train_opts)
            loss_traces.append(trace)
            refit_index += 1

            current, cycles, _ = coordinate_ascent(model, best_phases, cb)
            p_x = take(current)
            exploit_events.append((len(log_powers), cycles, p_x))

    history = LearnHistory(
        iters=np.arange(1, len(log_powers) + 1),
        measured_powers=np.array(log_powers),
        best_powers=np.array(log_best),
        phases=np.array(log_phases),
        final_model=model,
        exploit_events=exploit_events,
        critic_loss_traces=loss_traces,
    )
    return best_phases, history


def write_history_csv(
    history: LearnHistory, cb: PhaseCodebook, path, header_comment: str = ""
) -> None:
    """CSV export: iter,measured_power,best_power,phase_indices.

    Phases are written as a base-2^bits digit string, one digit per antenna.
    """
    with open(path, "w") as fh:
        if header_comment:
            fh.write(header_comment)
        fh.write("iter,measured_power,best_power,phase_indices\n")
        for i, p, b, phases in zip(
            history.iters, history.measured_powers, history.best_powers, history.phases
        ):
            digits = indices_to_digits(phase_indices(phases, cb), cb)
            fh.write(f"{i},{p:.12g},{b:.12g},{digits}\n")
