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
from .combiner import PhaseCodebook
from .config import ExperimentConfig
from .critic import initialize_critic, train_critic
from .files import write_atomic


def _phasors(cb: PhaseCodebook, M: int) -> np.ndarray:
    # beam element (1/sqrt(M)) exp(j theta) of each codebook index
    return np.exp(1j * cb.values) / np.sqrt(M)


def _perturb(idx: np.ndarray, count: int, cb: PhaseCodebook, rng) -> np.ndarray:
    out = idx.copy()
    if count == 0:
        return out
    pos = rng.choice(idx.size, size=min(count, idx.size), replace=False)
    out[pos] = rng.integers(0, cb.size, size=pos.size)
    return out


def coordinate_ascent(
    q: np.ndarray,
    init: np.ndarray,
    cb: PhaseCodebook,
    max_cycles: int = 1000,
):
    """Cyclic coordinate ascent of the predicted power over the codebook.

    Sweeps the antennas in order, setting each codebook index to the one
    that maximizes the prediction ||Q^H w||^2 of the (M, rank) critic `q`
    with the rest fixed; stops after a full cycle without change (each
    accepted change strictly increases the prediction, so termination is
    guaranteed). `init` holds one codebook index per antenna. Returns
    (indices, cycles_used, predicted_power).
    """
    idx = np.atleast_1d(np.asarray(init))
    if not np.issubdtype(idx.dtype, np.integer):
        raise TypeError("init must hold codebook indices")
    idx = idx.astype(np.uint8)
    M = idx.size
    if M != q.shape[0]:
        raise ValueError("init length does not match the critic")
    q_conj = q.conj()  # rows indexed by antenna
    phasors = _phasors(cb, M)  # (2^r,)
    g = q_conj.T @ phasors[idx]  # (rank,)
    best = float(np.real(np.vdot(g, g)))
    cycles = 0
    for _ in range(max_cycles):
        changed = False
        for m in range(M):
            g_base = g - phasors[idx[m]] * q_conj[m]
            cand = g_base[None, :] + phasors[:, None] * q_conj[m][None, :]
            powers = np.sum(np.abs(cand) ** 2, axis=1)
            i = int(np.argmax(powers))
            if powers[i] > best * (1.0 + 1e-12):
                idx[m] = i
                g = cand[i]
                best = float(powers[i])
                changed = True
        cycles += 1
        if not changed:
            break
        # refresh the running inner product to stop incremental drift
        g = q_conj.T @ phasors[idx]
        best = float(np.real(np.vdot(g, g)))
    return idx, cycles, best


@dataclass
class LearnHistory:
    """Per-measurement log plus the final critic and exploitation stats."""

    iters: np.ndarray
    measured_powers: np.ndarray
    best_powers: np.ndarray
    indices: np.ndarray  # (n, M) uint8 codebook indices
    final_model: np.ndarray | None  # the last fit's (M, rank) critic
    exploit_events: list  # (measurement index, ascent cycles, measured power)
    critic_loss_traces: list  # one train_critic loss trace per exploit event


def learn_phases(measure, cfg: SystemConfig, cb: PhaseCodebook, ec: ExperimentConfig):
    """Run the online search; returns (best phases, LearnHistory).

    The search and its log hold codebook indices; `measure` maps the
    M-vector of their codebook phases to the received power at the center
    frequency. The `learner.*` settings of `ec` set the budget and the
    schedule. Exploration measurements number exactly total_measurements;
    each re-draws perturb_count phases (auto: M//4; 0 is a stationary
    probe), decaying linearly to M//16 over the budget. From exploit_start
    on, the critic is refit on the buffer every critic_refit_period
    measurements, each fit capped at train_iters iterations (see
    critic.train_critic) and followed by a coordinate-ascent exploitation
    that adds one callback invocation. Deterministic per learner_seed,
    including callback order.
    """
    M = cfg.num_antennas
    rng = np.random.default_rng(ec.learner_seed)

    p0 = ec.perturb_count if ec.perturb_count is not None else max(1, M // 4)
    total = ec.total_measurements
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
    phasors = _phasors(cb, M)
    log_powers: list[float] = []
    log_indices: list[np.ndarray] = []
    exploit_events: list[tuple[int, int, float]] = []
    loss_traces: list[np.ndarray] = []
    best_idx, best_power = None, -np.inf
    model = None

    def take(idx: np.ndarray) -> float:
        nonlocal best_idx, best_power
        p = float(measure(cb.values[idx]))
        if best_idx is None or p > best_power:
            best_power, best_idx = p, idx
        log_powers.append(p)
        log_indices.append(idx)
        return p

    current = rng.integers(0, cb.size, size=M).astype(np.uint8)
    take(current)

    refit_index = 0
    for t in range(2, total + 1):
        current = _perturb(current, scheduled_count(t), cb, rng)
        take(current)

        due = t % ec.critic_refit_period == 0 or t == ec.exploit_start or t == total
        if due and t >= ec.exploit_start:
            # the critic is consumed only by exploitation, so fitting is
            # deferred until then; each fit restarts from a fresh seeded
            # init (warm starts inherit overfit basins from small buffers)
            beams = phasors[np.array(log_indices)]
            powers = np.maximum(log_powers, 0.0)
            model = initialize_critic(
                ec.critic_rank, beams, powers, seed=ec.learner_seed + 7919 * refit_index
            )
            model, trace = train_critic(model, beams, powers, ec.train_iters)
            loss_traces.append(trace)
            refit_index += 1

            current, cycles, _ = coordinate_ascent(model, best_idx, cb)
            p_x = take(current)
            exploit_events.append((len(log_powers), cycles, p_x))

    powers = np.array(log_powers)
    history = LearnHistory(
        iters=np.arange(1, powers.size + 1),
        measured_powers=powers,
        best_powers=np.maximum.accumulate(powers),
        indices=np.array(log_indices),
        final_model=model,
        exploit_events=exploit_events,
        critic_loss_traces=loss_traces,
    )
    return cb.values[best_idx], history


def write_history_csv(
    history: LearnHistory, cb: PhaseCodebook, path, header_comment: str = ""
) -> None:
    """CSV export: iter,measured_power,best_power,phase_indices.

    Phases are written as a hex string holding each antenna's codebook index
    in ceil(bits/4) digits.
    """
    # hex() writes two digits per uint8 index; up to 4 bits the first is 0
    one_digit = cb.bits <= 4
    with write_atomic(path) as fh:
        if header_comment:
            fh.write(header_comment)
        fh.write("iter,measured_power,best_power,phase_indices\n")
        for i, p, b, row in zip(
            history.iters, history.measured_powers, history.best_powers, history.indices
        ):
            digits = row.tobytes().hex()
            fh.write(f"{i},{p:.12g},{b:.12g},{digits[1::2] if one_digit else digits}\n")
