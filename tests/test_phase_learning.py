import numpy as np
import pytest

from beamfocus.channel import SystemConfig, near_field_channel
from beamfocus.combiner import CombinerConfig, PhaseCodebook
from beamfocus.critic import CriticModel, beam_from_phases, predict_power
from beamfocus.geometry import UePosition, random_geometry
from beamfocus.phase_learning import (
    LearnerOptions,
    _perturb,
    coordinate_ascent,
    learn_phases,
    write_history_csv,
)
from beamfocus.sim import gain_profile


def make_cfg(M, K=1, B=0.0, fc=100e9):
    return SystemConfig(
        num_antennas=M,
        num_td_units=1,
        ps_per_td=M,
        num_subcarriers=K,
        center_freq_hz=fc,
        bandwidth_hz=B,
        ps_bits=1,
        tau_max_s=0.0,
    )


def center_measure(H, cfg):
    def measure(phases):
        cc = CombinerConfig(theta=phases, tau=np.zeros(cfg.num_td_units))
        return gain_profile(cc, H, cfg).per_subcarrier[0]

    return measure


def test_learner_options_validation():
    LearnerOptions(total_measurements=10, exploit_start=10)
    with pytest.raises(ValueError):
        LearnerOptions(total_measurements=0)
    with pytest.raises(ValueError):
        LearnerOptions(total_measurements=10, exploit_start=11)
    with pytest.raises(ValueError):
        LearnerOptions(critic_refit_period=0)
    with pytest.raises(ValueError):
        LearnerOptions(perturb_count=-1)
    LearnerOptions(perturb_count=0)  # degenerate stationary probe is allowed


def test_propose_action_zero_perturbation():
    cb = PhaseCodebook(bits=2)
    current = cb.values[[0, 1, 2, 3]]
    out = _perturb(current, 0, cb, np.random.default_rng(0))
    assert np.array_equal(out, current)


def test_propose_action_full_perturbation_is_codebook_vector():
    cb = PhaseCodebook(bits=2)
    out = _perturb(cb.values[[0, 0, 0, 0]], 4, cb, np.random.default_rng(1))
    assert all(v in cb.values for v in out)


def test_propose_action_bounded_change_count():
    cb = PhaseCodebook(bits=3)
    current = cb.values[np.zeros(10, int)]
    for seed in range(50):
        out = _perturb(current, 3, cb, np.random.default_rng(seed))
        assert np.count_nonzero(out != current) <= 3


def test_coordinate_ascent_single_antenna_returns_init():
    # the beam power of a single element is phase-invariant
    cb = PhaseCodebook(bits=2)
    model = CriticModel(matrix=np.array([[np.exp(0.3j)]]))
    theta, cycles, _ = coordinate_ascent(model, np.array([cb.values[1]]), cb)
    assert theta[0] == cb.values[1]
    assert cycles == 1


def test_coordinate_ascent_aligns_equal_phase_channel():
    M = 6
    cb = PhaseCodebook(bits=2)
    h = np.full(M, np.exp(0.0j))
    model = CriticModel(matrix=h[:, None])
    rng = np.random.default_rng(3)
    init = cb.values[rng.integers(0, 4, M)]
    theta, _, _ = coordinate_ascent(model, init, cb)
    assert np.allclose(theta, theta[0])  # all equal up to the global step


def test_coordinate_ascent_monotone_and_near_exhaustive():
    rng = np.random.default_rng(4)
    cb = PhaseCodebook(bits=1)
    M = 4
    hits = 0
    for trial in range(25):
        q = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        model = CriticModel(matrix=q[:, None])
        init = cb.values[rng.integers(0, 2, M)]
        p0 = predict_power(model, beam_from_phases(init))
        theta, cycles, p = coordinate_ascent(model, init, cb)
        assert p >= p0 - 1e-15
        # exhaustive oracle over all 16 quantized beams
        best = max(
            predict_power(model, beam_from_phases(cb.values[np.array(bits)]))
            for bits in np.ndindex(*(2,) * M)
        )
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
        model = CriticModel(matrix=h[:, None])
        best = max(
            abs(np.vdot(beam_from_phases(cb.values[np.array(ix)]), h)) ** 2
            for ix in np.ndindex(*(cb.size,) * M)
        )
        init = cb.values[rng.integers(0, cb.size, M)]
        theta, _, _ = coordinate_ascent(model, init, cb)
        got = abs(np.vdot(beam_from_phases(theta), h)) ** 2
        assert got >= 0.95 * best


def test_exploit_critic_never_decreases_prediction():
    rng = np.random.default_rng(5)
    cb = PhaseCodebook(bits=2)
    M = 5
    model = CriticModel(
        matrix=rng.standard_normal((M, 2)) + 1j * rng.standard_normal((M, 2))
    )
    for seed in range(10):
        init = cb.values[np.random.default_rng(seed).integers(0, 4, M)]
        out, _, _ = coordinate_ascent(model, init, cb)
        assert predict_power(model, beam_from_phases(out)) >= predict_power(
            model, beam_from_phases(init)
        ) - 1e-15
        assert all(v in cb.values for v in out)


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
    opts = LearnerOptions(
        total_measurements=20,
        exploit_start=10,
        critic_refit_period=5,
        perturb_count=1,
        seed=0,
        critic_rank=1,
        train_iters=200,
        train_batch=64,
    )
    theta, history = learn_phases(center_measure(H, cfg), cfg, cb, opts)
    best = exhaustive_best_gain(H, cfg, cb)
    measured = gain_profile(CombinerConfig(theta=theta, tau=[0.0]), H, cfg).per_subcarrier[0]
    assert measured == pytest.approx(best, rel=1e-9)


def test_learn_phases_history_monotone_best():
    cfg, H = small_scene(4, seed=3)
    cb = PhaseCodebook(bits=2)
    opts = LearnerOptions(
        total_measurements=30,
        exploit_start=15,
        critic_refit_period=10,
        seed=1,
        critic_rank=2,
        train_iters=100,
        train_batch=32,
    )
    theta, history = learn_phases(center_measure(H, cfg), cfg, cb, opts)
    assert np.all(np.diff(history.best_powers) >= 0)
    assert history.best_powers[-1] == np.max(history.measured_powers)


def test_learn_phases_deterministic_callback_order():
    cfg, H = small_scene(4, seed=6)
    cb = PhaseCodebook(bits=2)
    opts = LearnerOptions(
        total_measurements=25,
        exploit_start=20,
        critic_refit_period=10,
        seed=9,
        critic_rank=2,
        train_iters=50,
        train_batch=16,
    )

    def run():
        calls = []
        base = center_measure(H, cfg)

        def measure(phases):
            calls.append(np.array(phases))
            return base(phases)

        theta, history = learn_phases(measure, cfg, cb, opts)
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
    opts = LearnerOptions(
        total_measurements=40,
        exploit_start=20,
        critic_refit_period=10,
        seed=4,
        critic_rank=2,
        train_iters=50,
        train_batch=32,
    )
    count = 0
    base = center_measure(H, cfg)

    def measure(phases):
        nonlocal count
        count += 1
        return base(phases)

    _, history = learn_phases(measure, cfg, cb, opts)
    n_exploits = len(history.exploit_events)
    assert n_exploits == 3  # refits at 20, 30, 40 once exploiting starts
    assert count == opts.total_measurements + n_exploits
    assert count == history.iters[-1]


def test_learn_phases_keeps_one_loss_trace_per_exploit():
    cfg, H = small_scene(4, seed=2)
    cb = PhaseCodebook(bits=2)
    opts = LearnerOptions(
        total_measurements=40,
        exploit_start=20,
        critic_refit_period=10,
        seed=4,
        critic_rank=2,
        train_iters=50,
        train_batch=32,
    )
    _, history = learn_phases(center_measure(H, cfg), cfg, cb, opts)
    assert len(history.critic_loss_traces) == len(history.exploit_events) == 3
    for trace in history.critic_loss_traces:
        assert trace.shape == (opts.train_iters,)
        assert np.all(np.diff(trace) <= 0.0)


def test_learn_phases_callback_failure_propagates():
    cfg, H = small_scene(2, seed=1)
    cb = PhaseCodebook(bits=1)
    opts = LearnerOptions(total_measurements=5, exploit_start=5, critic_refit_period=5)

    def measure(phases):
        raise RuntimeError("hardware fault")

    with pytest.raises(RuntimeError, match="hardware fault"):
        learn_phases(measure, cfg, cb, opts)


def test_history_csv_export(tmp_path):
    cfg, H = small_scene(3, seed=5)
    cb = PhaseCodebook(bits=2)
    opts = LearnerOptions(
        total_measurements=8,
        exploit_start=8,
        critic_refit_period=4,
        seed=2,
        critic_rank=1,
        train_iters=20,
        train_batch=8,
    )
    _, history = learn_phases(center_measure(H, cfg), cfg, cb, opts)
    path = tmp_path / "history.csv"
    write_history_csv(history, cb, path, header_comment="# seed = 2\n")
    lines = path.read_text().splitlines()
    assert lines[1] == "iter,measured_power,best_power,phase_indices"
    row = lines[2].split(",")
    assert row[0] == "1"
    assert len(row[3]) == 3  # one base-4 digit per antenna
    assert set(row[3]) <= set("0123")
