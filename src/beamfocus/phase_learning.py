"""Online phase-shifter learning from center-frequency power measurements.

The exploration by independent random codebook beams, the coordinate-ascent
exploitation of a critic (the one-path model's or a fit's), the learning
loop and its history CSV. Only the measurement callback touches the
channel. README "Phase learner" walks through the loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SystemConfig
from .combiner import PhaseCodebook
from .config import ExperimentConfig, resolved_exploit_start
from .critic import RMS_TOL, initialize_critic, model_critic, train_critic
from .files import write_atomic
from .geometry import ArrayGeometry


# exploration beams drawn and measured per callback invocation; bounds the
# (rows, M) temporaries at any learner.exploit_start. A multiple of four, so
# a segment drawn in blocks of uint8 indices equals the segment drawn at once
WALK_BLOCK = 256
# coordinate_ascent's cap on full cycles over the antennas
MAX_ASCENT_CYCLES = 1000


def coordinate_ascent(q: np.ndarray, init: np.ndarray, cb: PhaseCodebook):
    """Cyclic coordinate ascent of the prediction |q^H w|^2 over the codebook.

    `q` is the (M,) critic and `init` holds one codebook index per antenna
    (TypeError if not integers, ValueError if not M of them). Antenna by
    antenna, the index that maximizes the prediction (the first of equal
    maxima) replaces the current one if it raises the prediction by more
    than 1e-12 relative; the ascent stops after a cycle without change or
    MAX_ASCENT_CYCLES cycles. Returns (uint8 indices, cycles, prediction).
    """
    idx = np.atleast_1d(np.asarray(init))
    if not np.issubdtype(idx.dtype, np.integer):
        raise TypeError("init must hold codebook indices")
    idx = idx.astype(np.uint8)
    M = idx.size
    if M != q.shape[0]:
        raise ValueError("init length does not match the critic")
    q_conj = q.conj()
    phasors = cb.phasors / np.sqrt(M)  # (2^r,)
    # the sweep runs on Python scalars: row m of `terms` holds antenna m's
    # contribution q_m^* e^{j theta} / sqrt(M) for each codebook index
    terms = (q_conj[:, None] * phasors).tolist()
    current = idx.tolist()
    g = q_conj @ phasors[idx]  # the running inner product q^H w
    best = float(np.real(np.vdot(g, g)))
    g = complex(g)
    cycles = 0
    for _ in range(MAX_ASCENT_CYCLES):
        changed = False
        for m, row in enumerate(terms):
            g_base = g - row[current[m]]
            powers = [abs(g_base + t) ** 2 for t in row]
            top = max(powers)
            if top > best * (1.0 + 1e-12):
                i = powers.index(top)  # the first of equal maxima
                current[m] = i
                g, best, changed = g_base + row[i], top, True
        cycles += 1
        if not changed:
            break
        # refresh the running inner product to stop incremental drift
        idx = np.array(current, np.uint8)
        g = q_conj @ phasors[idx]
        best = float(np.real(np.vdot(g, g)))
        g = complex(g)
    return idx, cycles, best


@dataclass
class LearnHistory:
    """Per-measurement log, the final critic and, per exploit, its stats and
    whether the one-path model or a fit of the critic produced it."""

    iters: np.ndarray
    measured_powers: np.ndarray
    best_powers: np.ndarray
    indices: np.ndarray  # (n, M) uint8 codebook indices
    final_model: np.ndarray  # the (M,) critic of the last exploit
    exploit_events: list  # (measurement index, ascent cycles, measured power)
    exploit_routes: list  # per exploit event, "model" or "fit": the critic it ascended
    critic_loss_traces: list  # one train_critic loss trace per fit


def learn_phases(
    measure, geom: ArrayGeometry, cfg: SystemConfig, cb: PhaseCodebook, ec: ExperimentConfig
):
    """Run the online phase search; returns (best phases, LearnHistory).

    `measure` maps a (T, M) stack of codebook-phase beams to their T center
    powers, in row order (ValueError for another shape). Each exploration
    beam holds M independent uniform codebook indices, for at most
    total_measurements beams, measured up to WALK_BLOCK beams a call.
    Powers reach the critics clipped at 0. When 2M beams come before
    learner.exploit_start (auto: min(4M, total_measurements)), the
    one-path model critic of the array `geom` (critic.model_critic) is
    exploited first, at 2M beams. At learner.exploit_start, each later
    multiple of critic_refit_period and the end of the budget, the critic
    is fit (first from initialize_critic at learner.seed, then from the
    last fit) and exploited. An exploit is the ascent from the earliest
    best beam, measured at once; one that measures within RMS_TOL of its
    prediction ends the run. Returns the earliest best measured beam;
    deterministic per learner.seed, call order included.
    """
    M = cfg.num_antennas
    rng = np.random.default_rng(ec.learner_seed)
    values = cb.values

    total = ec.total_measurements
    first = resolved_exploit_start(ec)
    # exploration stops at the model's try, if any, and at each refit
    # point, the end of the budget among them
    model_stop = 2 * M if 2 * M < first else None
    stops = [model_stop] if model_stop else []
    stops += [
        t
        for t in range(first, total + 1)
        if t % ec.critic_refit_period == 0 or t in (first, total)
    ]

    # the measurement log and, beside it, the critic's complex64 training
    # buffer of the logged beams, each allocated once and filled as beams
    # are measured
    phasors = (cb.phasors / np.sqrt(M)).astype(np.complex64)
    log = np.empty((total + len(stops), M), np.uint8)
    beams = np.empty(log.shape, np.complex64)
    powers = np.empty(len(log))
    n = 0
    exploit_events: list[tuple[int, int, float]] = []
    routes: list[str] = []
    loss_traces: list[np.ndarray] = []
    model = None

    def take(rows: np.ndarray) -> None:
        nonlocal n
        got = np.asarray(measure(values[rows]), dtype=float)
        if got.shape != rows.shape[:1]:
            raise ValueError(f"measure returned shape {got.shape} for {len(rows)} beams")
        log[n : n + len(rows)] = rows
        beams[n : n + len(rows)] = phasors[rows]
        powers[n : n + len(rows)] = got
        n += len(rows)

    for explored, stop in zip([0, *stops], stops):
        for start in range(explored, stop, WALK_BLOCK):
            take(rng.integers(0, cb.size, (min(WALK_BLOCK, stop - start), M), dtype=np.uint8))
        # critics are consumed only by exploitation, so fitting is deferred
        # until then; refits start from the previous fit
        clipped = np.maximum(powers[:n], 0.0)
        if stop == model_stop:
            q = model_critic(beams[:n], clipped, geom, cfg.center_freq_hz)
            if q is None:
                continue
            routes.append("model")
        else:
            if model is None:
                model = initialize_critic(beams[:n], clipped, seed=ec.learner_seed)
            model, trace = train_critic(model, beams[:n], clipped, ec.train_iters)
            loss_traces.append(trace)
            q = model
            routes.append("fit")

        best = int(np.argmax(powers[:n]))  # the earliest of equal maxima
        beam, cycles, prediction = coordinate_ascent(q, log[best], cb)
        take(beam[None])
        exploit_events.append((n, cycles, float(powers[n - 1])))
        # an exploit that measures what its critic predicted for it leaves
        # nothing to learn from more exploration
        if abs(powers[n - 1] - prediction) <= RMS_TOL * prediction:
            break

    log, powers = log[:n], powers[:n]
    history = LearnHistory(
        iters=np.arange(1, n + 1),
        measured_powers=powers,
        best_powers=np.maximum.accumulate(powers),
        indices=log,
        final_model=q,
        exploit_events=exploit_events,
        exploit_routes=routes,
        critic_loss_traces=loss_traces,
    )
    return values[log[int(np.argmax(powers))]], history


def write_history_csv(
    history: LearnHistory, cb: PhaseCodebook, path, header_comment: str = ""
) -> None:
    """CSV export: iter,measured_power,best_power,phase_indices.

    Phases are written as a hex string holding each antenna's codebook index
    in ceil(bits/4) digits.
    """
    # hex() writes two digits per uint8 index; up to 4 bits the first is 0
    one_digit = cb.bits <= 4
    rows = zip(
        history.iters.tolist(),
        history.measured_powers.tolist(),
        history.best_powers.tolist(),
        (row.tobytes().hex() for row in history.indices),
    )
    with write_atomic(path) as fh:
        fh.write(header_comment)
        fh.write("iter,measured_power,best_power,phase_indices\n")
        line = "%d,%.12g,%.12g,%s\n"
        fh.write("".join([line % (i, p, b, d[1::2] if one_digit else d) for i, p, b, d in rows]))
