import numpy as np
import pytest

from beamfocus.channel import SystemConfig, near_field_channel
from beamfocus.combiner import CombinerConfig, PhaseCodebook
from beamfocus.config import ConfigError, ExperimentConfig, parse_config_text
from beamfocus.geometry import UePosition, random_geometry
from beamfocus.phase_learning import (
    _perturb,
    coordinate_ascent,
    learn_phases,
    write_history_csv,
)
from beamfocus.sim import gain_profile
from beam_model import beam_from_phases


def make_cfg(M, K=1, B=0.0, fc=100e9):
    return SystemConfig(
        num_antennas=M,
        num_td_units=1,
        ps_per_td=M,
        num_subcarriers=K,
        center_freq_hz=fc,
        bandwidth_hz=B,
        tau_max_s=0.0,
    )


def predicted(model, idx, cb):
    # the critic's prediction ||Q^H w||^2 for the beam of codebook indices
    # idx, formed as coordinate_ascent forms it
    g = model.conj().T @ beam_from_phases(cb.values[np.asarray(idx)])
    return float(np.real(np.vdot(g, g)))


def center_measure(H, cfg):
    def measure(phases):
        cc = CombinerConfig(theta=phases, tau=np.zeros(cfg.num_td_units))
        return gain_profile(cc, H, cfg).per_subcarrier[0]

    return measure


def test_learner_options_validation():
    # the learner.* range checks run once, when the config is parsed
    parse_config_text("learner.total_measurements = 10\nlearner.exploit_start = 10\n")
    for text, key in (
        ("learner.total_measurements = 0", "total_measurements"),
        ("learner.total_measurements = 10\nlearner.exploit_start = 11", "exploit_start"),
        ("learner.critic_refit_period = 0", "critic_refit_period"),
        ("learner.perturb_count = -1", "perturb_count"),
    ):
        with pytest.raises(ConfigError, match=rf"^learner\.{key}: "):
            parse_config_text(text + "\n")
    parse_config_text("learner.perturb_count = 0\n")  # degenerate stationary probe is allowed


def test_propose_action_zero_perturbation():
    cb = PhaseCodebook(bits=2)
    current = np.array([0, 1, 2, 3], dtype=np.uint8)
    out = _perturb(current, 0, cb, np.random.default_rng(0))
    assert np.array_equal(out, current)


def test_propose_action_full_perturbation_is_codebook_vector():
    cb = PhaseCodebook(bits=2)
    out = _perturb(np.zeros(4, dtype=np.uint8), 4, cb, np.random.default_rng(1))
    assert out.dtype == np.uint8
    assert all(0 <= i < cb.size for i in out)


def test_propose_action_bounded_change_count():
    cb = PhaseCodebook(bits=3)
    current = np.zeros(10, dtype=np.uint8)
    for seed in range(50):
        out = _perturb(current, 3, cb, np.random.default_rng(seed))
        assert np.count_nonzero(out != current) <= 3


def test_coordinate_ascent_single_antenna_returns_init():
    # the beam power of a single element is phase-invariant
    cb = PhaseCodebook(bits=2)
    model = np.array([[np.exp(0.3j)]])
    idx, cycles, _ = coordinate_ascent(model, np.array([1]), cb)
    assert idx[0] == 1
    assert cycles == 1


def test_coordinate_ascent_aligns_equal_phase_channel():
    M = 6
    cb = PhaseCodebook(bits=2)
    h = np.full(M, np.exp(0.0j))
    model = h[:, None]
    rng = np.random.default_rng(3)
    init = rng.integers(0, 4, M)
    idx, _, _ = coordinate_ascent(model, init, cb)
    assert np.all(idx == idx[0])  # all equal up to the global step


def test_coordinate_ascent_monotone_and_near_exhaustive():
    rng = np.random.default_rng(4)
    cb = PhaseCodebook(bits=1)
    M = 4
    hits = 0
    for trial in range(25):
        q = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        model = q[:, None]
        init = rng.integers(0, 2, M)
        p0 = predicted(model, init, cb)
        idx, cycles, p = coordinate_ascent(model, init, cb)
        assert p >= p0 - 1e-15
        # exhaustive oracle over all 16 quantized beams
        best = max(predicted(model, bits, cb) for bits in np.ndindex(*(2,) * M))
        assert p >= 0.95 * best
        hits += p >= best * (1 - 1e-12)
    assert hits >= 20  # coordinate ascent finds the global optimum almost always


def test_exploit_with_perfect_critic_near_exhaustive_optimum():
    # the critic set to the true channel: ascent lands within 5% of the
    # best of all 4^6 quantized beams (true gain, not just predicted)
    rng = np.random.default_rng(14)
    M = 6
    cb = PhaseCodebook(bits=2)
    cfg, H = None, None
    for trial in range(5):
        cfg, H = small_scene(M, seed=20 + trial)
        h = H.coeffs[:, 0]
        model = h[:, None]
        best = max(
            abs(np.vdot(beam_from_phases(cb.values[np.array(ix)]), h)) ** 2
            for ix in np.ndindex(*(cb.size,) * M)
        )
        init = rng.integers(0, cb.size, M)
        idx, _, _ = coordinate_ascent(model, init, cb)
        got = abs(np.vdot(beam_from_phases(cb.values[idx]), h)) ** 2
        assert got >= 0.95 * best


def test_exploit_critic_never_decreases_prediction():
    rng = np.random.default_rng(5)
    cb = PhaseCodebook(bits=2)
    M = 5
    model = rng.standard_normal((M, 2)) + 1j * rng.standard_normal((M, 2))
    for seed in range(10):
        init = np.random.default_rng(seed).integers(0, 4, M)
        out, _, _ = coordinate_ascent(model, init, cb)
        assert predicted(model, out, cb) >= predicted(model, init, cb) - 1e-15
        assert all(0 <= i < cb.size for i in out)


def small_scene(M, seed=0):
    cfg = make_cfg(M)
    geom = random_geometry(M, 0.02, seed=seed)
    H = near_field_channel(geom, UePosition(1.0, -0.5), cfg)
    return cfg, H


def exhaustive_best_gain(H, cfg, cb):
    M = cfg.num_antennas
    best = 0.0
    for bits in np.ndindex(*(cb.size,) * M):
        cc = CombinerConfig(theta=cb.values[np.array(bits)], tau=[0.0])
        best = max(best, gain_profile(cc, H, cfg).per_subcarrier[0])
    return best


def test_learn_phases_reaches_exhaustive_optimum_m2():
    cfg, H = small_scene(2, seed=11)
    cb = PhaseCodebook(bits=1)
    ec = ExperimentConfig(
        total_measurements=20,
        exploit_start=10,
        critic_refit_period=5,
        perturb_count=1,
        learner_seed=0,
        critic_rank=1,
        train_iters=200,
    )
    theta, history = learn_phases(center_measure(H, cfg), cfg, cb, ec)
    best = exhaustive_best_gain(H, cfg, cb)
    measured = gain_profile(CombinerConfig(theta=theta, tau=[0.0]), H, cfg).per_subcarrier[0]
    assert measured == pytest.approx(best, rel=1e-9)


def test_learn_phases_history_monotone_best():
    cfg, H = small_scene(4, seed=3)
    cb = PhaseCodebook(bits=2)
    ec = ExperimentConfig(
        total_measurements=30,
        exploit_start=15,
        critic_refit_period=10,
        learner_seed=1,
        critic_rank=2,
        train_iters=100,
    )
    theta, history = learn_phases(center_measure(H, cfg), cfg, cb, ec)
    assert np.all(np.diff(history.best_powers) >= 0)
    assert history.best_powers[-1] == np.max(history.measured_powers)


def test_learn_phases_deterministic_callback_order():
    cfg, H = small_scene(4, seed=6)
    cb = PhaseCodebook(bits=2)
    ec = ExperimentConfig(
        total_measurements=25,
        exploit_start=20,
        critic_refit_period=10,
        learner_seed=9,
        critic_rank=2,
        train_iters=50,
    )

    def run():
        calls = []
        base = center_measure(H, cfg)

        def measure(phases):
            calls.append(np.array(phases))
            return base(phases)

        theta, history = learn_phases(measure, cfg, cb, ec)
        return theta, history, calls

    t1, h1, c1 = run()
    t2, h2, c2 = run()
    assert np.array_equal(t1, t2)
    assert np.array_equal(h1.measured_powers, h2.measured_powers)
    assert len(c1) == len(c2)
    assert all(np.array_equal(a, b) for a, b in zip(c1, c2))


def test_learn_phases_invocation_budget():
    cfg, H = small_scene(4, seed=2)
    cb = PhaseCodebook(bits=2)
    ec = ExperimentConfig(
        total_measurements=40,
        exploit_start=20,
        critic_refit_period=10,
        learner_seed=4,
        critic_rank=2,
        train_iters=50,
    )
    count = 0
    base = center_measure(H, cfg)

    def measure(phases):
        nonlocal count
        count += 1
        return base(phases)

    _, history = learn_phases(measure, cfg, cb, ec)
    n_exploits = len(history.exploit_events)
    assert n_exploits == 3  # refits at 20, 30, 40 once exploiting starts
    assert count == ec.total_measurements + n_exploits
    assert count == history.iters[-1]


def test_learn_phases_keeps_one_loss_trace_per_exploit():
    cfg, H = small_scene(4, seed=2)
    cb = PhaseCodebook(bits=2)
    ec = ExperimentConfig(
        total_measurements=40,
        exploit_start=20,
        critic_refit_period=10,
        learner_seed=4,
        critic_rank=2,
        train_iters=50,
    )
    _, history = learn_phases(center_measure(H, cfg), cfg, cb, ec)
    assert len(history.critic_loss_traces) == len(history.exploit_events) == 3
    for trace in history.critic_loss_traces:
        assert 1 <= len(trace) <= ec.train_iters
        assert np.all(np.diff(trace) <= 0.0)


def test_learn_phases_callback_failure_propagates():
    cfg, H = small_scene(2, seed=1)
    cb = PhaseCodebook(bits=1)
    ec = ExperimentConfig(total_measurements=5, exploit_start=5, critic_refit_period=5)

    def measure(phases):
        raise RuntimeError("hardware fault")

    with pytest.raises(RuntimeError, match="hardware fault"):
        learn_phases(measure, cfg, cb, ec)


def test_history_csv_export(tmp_path):
    cfg, H = small_scene(3, seed=5)
    cb = PhaseCodebook(bits=2)
    ec = ExperimentConfig(
        total_measurements=8,
        exploit_start=8,
        critic_refit_period=4,
        learner_seed=2,
        critic_rank=1,
        train_iters=20,
    )
    _, history = learn_phases(center_measure(H, cfg), cfg, cb, ec)
    path = tmp_path / "history.csv"
    write_history_csv(history, cb, path, header_comment="# seed = 2\n")
    lines = path.read_text().splitlines()
    assert lines[1] == "iter,measured_power,best_power,phase_indices"
    row = lines[2].split(",")
    assert row[0] == "1"
    assert len(row[3]) == 3  # one base-4 digit per antenna
    assert set(row[3]) <= set("0123")
    digits = [ln.split(",")[3] for ln in lines[2:]]
    assert digits == ["".join(str(i) for i in idx) for idx in history.indices]


def test_history_logs_the_measured_indices():
    cfg, H = small_scene(4, seed=6)
    cb = PhaseCodebook(bits=2)
    ec = ExperimentConfig(
        total_measurements=25,
        exploit_start=20,
        critic_refit_period=10,
        learner_seed=3,
        critic_rank=2,
        train_iters=20,
    )
    calls = []
    base = center_measure(H, cfg)

    def measure(phases):
        calls.append(np.array(phases))
        return base(phases)

    theta, history = learn_phases(measure, cfg, cb, ec)
    assert history.indices.dtype == np.uint8
    assert history.indices.shape == (len(calls), cfg.num_antennas)
    assert np.array_equal(cb.values[history.indices], np.array(calls))
    assert np.array_equal(history.best_powers, np.maximum.accumulate(history.measured_powers))
    best = int(np.argmax(history.measured_powers))  # the first of equal maxima
    assert np.array_equal(theta, cb.values[history.indices[best]])
