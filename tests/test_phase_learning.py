from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamfocus import phase_learning
from beamfocus.channel import SystemConfig, near_field_channel
from beamfocus.combiner import CombinerConfig, PhaseCodebook
from beamfocus.config import ConfigError, ExperimentConfig, parse_config_text
from beamfocus.critic import RMS_TOL
from beamfocus.geometry import UePosition, random_geometry
from beamfocus.phase_learning import coordinate_ascent, learn_phases, write_history_csv
from beamfocus.sim import gain_profile
from beam_model import beam_from_phases
from model_checks import coordinate_ascent_reference


def make_cfg(M, K=1, B=0.0, fc=100e9):
    return SystemConfig(
        num_antennas=M,
        num_td_units=1,
        num_subcarriers=K,
        center_freq_hz=fc,
        bandwidth_hz=B,
        tau_max_s=0.0,
    )


def predicted(model, idx, cb):
    # the critic's prediction |q^H w|^2 for the beam of codebook indices
    # idx, formed as coordinate_ascent forms it
    g = model.conj() @ beam_from_phases(cb.values[np.asarray(idx)])
    return float(np.real(np.vdot(g, g)))


def center_measure(H, cfg):
    def measure(phases):  # one power per beam of a (T, M) stack
        cc = CombinerConfig(theta=phases, tau=np.zeros((len(phases), cfg.num_td_units)))
        return gain_profile(cc, H, cfg).per_subcarrier[:, 0]

    return measure


def test_learner_options_validation():
    # the learner.* range checks run once, when the config is parsed
    parse_config_text("learner.total_measurements = 10\nlearner.exploit_start = 10\n")
    for text, key in (
        ("learner.total_measurements = 0", "total_measurements"),
        ("learner.total_measurements = 10\nlearner.exploit_start = 11", "exploit_start"),
        ("learner.exploit_start = 1", "exploit_start"),
        ("learner.critic_refit_period = 0", "critic_refit_period"),
    ):
        with pytest.raises(ConfigError, match=rf"^learner\.{key}: "):
            parse_config_text(text + "\n")
    # one measurement leaves nothing to fit the critic to
    with pytest.raises(ConfigError) as err:
        parse_config_text("learner.total_measurements = 1\nlearner.exploit_start = 1\n")
    assert str(err.value) == "learner.total_measurements: must be at least 2, not 1"


@pytest.mark.parametrize("total, start", [(1, 1), (10, 11), (10, 1)])
def test_learn_phases_rejects_a_budget_that_ends_before_a_fit(total, start):
    # a budget that ends before a fit cannot even be built, so the learner
    # never sees one
    with pytest.raises(ConfigError, match=r"^learner\."):
        ExperimentConfig(total_measurements=total, exploit_start=start)


def test_coordinate_ascent_single_antenna_returns_init():
    # the beam power of a single element is phase-invariant
    cb = PhaseCodebook(bits=2)
    model = np.array([np.exp(0.3j)])
    idx, cycles, _ = coordinate_ascent(model, np.array([1]), cb)
    assert idx[0] == 1
    assert cycles == 1


def test_coordinate_ascent_rejects_an_init_that_is_not_m_indices():
    cb = PhaseCodebook(bits=2)
    model = np.ones(4, complex)
    with pytest.raises(TypeError, match="codebook indices"):
        coordinate_ascent(model, np.zeros(4), cb)
    with pytest.raises(ValueError, match="init length"):
        coordinate_ascent(model, np.zeros(3, int), cb)


def test_coordinate_ascent_aligns_equal_phase_channel():
    M = 6
    cb = PhaseCodebook(bits=2)
    model = np.full(M, np.exp(0.0j))
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
        model = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        init = rng.integers(0, 2, M)
        p0 = predicted(model, init, cb)
        idx, cycles, p = coordinate_ascent(model, init, cb)
        assert p >= p0 - 1e-15
        # exhaustive oracle over all 16 quantized beams
        best = max(predicted(model, bits, cb) for bits in np.ndindex(*(2,) * M))
        assert p >= 0.95 * best
        hits += p >= best * (1 - 1e-12)
    assert hits >= 20  # coordinate ascent finds the global optimum almost always


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    M=st.sampled_from([4, 16, 256]),
    bits=st.integers(1, 4),
)
def test_coordinate_ascent_equals_the_numpy_reference(seed, M, bits):
    # the scalar sweep makes the choices of the per-antenna numpy sweep and
    # returns the same indices, cycle count and prediction
    rng = np.random.default_rng(seed)
    cb = PhaseCodebook(bits=bits)
    model = (rng.standard_normal(M) + 1j * rng.standard_normal(M)) * rng.uniform(0.01, 100.0)
    init = rng.integers(0, cb.size, M)
    idx, cycles, prediction = coordinate_ascent(model, init, cb)
    want_idx, want_cycles, want_prediction = coordinate_ascent_reference(model, init, cb)
    assert idx.dtype == want_idx.dtype and np.array_equal(idx, want_idx)
    assert (cycles, prediction) == (want_cycles, want_prediction)


def test_exploit_with_perfect_critic_near_exhaustive_optimum():
    # the critic set to the true channel: ascent lands within 5% of the
    # best of all 4^6 quantized beams (true gain, not just predicted)
    rng = np.random.default_rng(14)
    M = 6
    cb = PhaseCodebook(bits=2)
    cfg, H = None, None
    for trial in range(5):
        cfg, H, _ = small_scene(M, seed=20 + trial)
        h = model = H.coeffs[:, 0]
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
    model = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    for seed in range(10):
        init = np.random.default_rng(seed).integers(0, 4, M)
        out, _, _ = coordinate_ascent(model, init, cb)
        assert predicted(model, out, cb) >= predicted(model, init, cb) - 1e-15
        assert all(0 <= i < cb.size for i in out)


@pytest.fixture
def critic_route(monkeypatch):
    # the critic's own route, which these tests pin: the one-path model
    # declines, as it does on powers with no positive peak, so every exploit
    # comes from a fit
    monkeypatch.setattr(phase_learning, "model_critic", lambda *args: None)


def small_scene(M, seed=0):
    cfg = make_cfg(M)
    geom = random_geometry(M, 0.02, seed=seed)
    H = near_field_channel(geom, UePosition(1.0, -0.5), cfg)
    return cfg, H, geom


def refit_scene():
    # the M=4 scene whose first exploit, at 21, misses its prediction and
    # whose refit at 30 predicts its own exploit
    cfg, H, geom = small_scene(4, seed=9)
    ec = ExperimentConfig(
        total_measurements=40,
        exploit_start=20,
        critic_refit_period=10,
        learner_seed=28,
        train_iters=50,
    )
    return cfg, H, geom, PhaseCodebook(bits=2), ec


def exhaustive_best_gain(H, cfg, cb):
    M = cfg.num_antennas
    best = 0.0
    for bits in np.ndindex(*(cb.size,) * M):
        cc = CombinerConfig(theta=cb.values[np.array(bits)], tau=[0.0])
        best = max(best, gain_profile(cc, H, cfg).per_subcarrier[0])
    return best


def test_learn_phases_reaches_exhaustive_optimum_m2():
    cfg, H, geom = small_scene(2, seed=11)
    cb = PhaseCodebook(bits=1)
    ec = ExperimentConfig(
        total_measurements=20,
        exploit_start=10,
        critic_refit_period=5,
        learner_seed=0,
        train_iters=200,
    )
    theta, history = learn_phases(center_measure(H, cfg), geom, cfg, cb, ec)
    best = exhaustive_best_gain(H, cfg, cb)
    measured = gain_profile(CombinerConfig(theta=theta, tau=[0.0]), H, cfg).per_subcarrier[0]
    assert measured == pytest.approx(best, rel=1e-9)


def test_learn_phases_history_monotone_best():
    cfg, H, geom = small_scene(4, seed=3)
    cb = PhaseCodebook(bits=2)
    ec = ExperimentConfig(
        total_measurements=30,
        exploit_start=15,
        critic_refit_period=10,
        learner_seed=1,
        train_iters=100,
    )
    theta, history = learn_phases(center_measure(H, cfg), geom, cfg, cb, ec)
    assert np.all(np.diff(history.best_powers) >= 0)
    assert history.best_powers[-1] == np.max(history.measured_powers)


def test_learn_phases_deterministic_callback_order():
    cfg, H, geom = small_scene(4, seed=6)
    cb = PhaseCodebook(bits=2)
    ec = ExperimentConfig(
        total_measurements=25,
        exploit_start=20,
        critic_refit_period=10,
        learner_seed=9,
        train_iters=50,
    )

    def run():
        calls = []
        base = center_measure(H, cfg)

        def measure(phases):
            calls.append(np.array(phases))
            return base(phases)

        theta, history = learn_phases(measure, geom, cfg, cb, ec)
        return theta, history, calls

    t1, h1, c1 = run()
    t2, h2, c2 = run()
    assert np.array_equal(t1, t2)
    assert np.array_equal(h1.measured_powers, h2.measured_powers)
    assert len(c1) == len(c2)
    assert all(np.array_equal(a, b) for a, b in zip(c1, c2))


@pytest.mark.parametrize("exploit_start", [2, 3, 37])
def test_learn_phases_first_exploit_follows_exploit_start(exploit_start, critic_route):
    # the first fit sees exploit_start beams and its exploit is the next
    # measurement, whether or not exploit_start is a multiple of the period
    cfg, H, geom = small_scene(4, seed=2)
    ec = ExperimentConfig(
        total_measurements=60,
        exploit_start=exploit_start,
        critic_refit_period=25,
        learner_seed=4,
        train_iters=20,
    )
    _, history = learn_phases(center_measure(H, cfg), geom, cfg, PhaseCodebook(bits=2), ec)
    assert history.exploit_events[0][0] == exploit_start + 1


def test_learn_phases_invocation_budget(critic_route):
    cfg, H, geom, cb, ec = refit_scene()
    calls = []
    base = center_measure(H, cfg)

    def measure(phases):
        calls.append(np.array(phases))
        return base(phases)

    _, history = learn_phases(measure, geom, cfg, cb, ec)
    # fits at 20 and 30; the refit at 30 predicts its exploit, so the run
    # stops before exploring to 40
    assert len(history.exploit_events) == 2
    rows = np.concatenate(calls)
    assert len(rows) == 30 + 2 == history.iters[-1]
    assert np.array_equal(cb.values[history.indices], rows)
    # one stack per exploration segment (1-8 up to the model's try at 2M,
    # which declines, then 9-20 and 21-30) and one per exploitation
    assert [len(c) for c in calls] == [8, 12, 1, 10, 1]


@pytest.mark.parametrize("M, exploit_start", [(4, 2), (3, 20), (5, 37)])
def test_learn_phases_explores_with_independent_beams(monkeypatch, M, exploit_start, critic_route):
    # the beams before the first fit are drawn from the learner.seed stream
    # as M uniform uint8 codebook indices per beam, each segment (up to the
    # model's try at 2M beams, when that comes first, then up to the fit)
    # in one draw, also when measured in blocks of WALK_BLOCK beams at an
    # odd M
    monkeypatch.setattr(phase_learning, "WALK_BLOCK", 8)
    cfg, H, geom = small_scene(M, seed=2)
    cb = PhaseCodebook(bits=2)
    ec = ExperimentConfig(
        total_measurements=60,
        exploit_start=exploit_start,
        critic_refit_period=25,
        learner_seed=4,
        train_iters=20,
    )
    _, history = learn_phases(center_measure(H, cfg), geom, cfg, cb, ec)
    rng = np.random.default_rng(ec.learner_seed)
    stops = [0, 2 * M, exploit_start] if 2 * M < exploit_start else [0, exploit_start]
    want = [rng.integers(0, cb.size, (b - a, M), dtype=np.uint8) for a, b in zip(stops, stops[1:])]
    assert np.array_equal(history.indices[:exploit_start], np.concatenate(want))


def test_learn_phases_measures_the_walk_in_blocks(monkeypatch, critic_route):
    cfg, H, geom, cb, ec = refit_scene()
    sizes = []
    base = center_measure(H, cfg)

    def measure(phases):
        sizes.append(len(phases))
        return base(phases)

    theta, whole = learn_phases(center_measure(H, cfg), geom, cfg, cb, ec)
    monkeypatch.setattr(phase_learning, "WALK_BLOCK", 8)
    blocked_theta, blocked = learn_phases(measure, geom, cfg, cb, ec)
    assert sizes == [8, 8, 4, 1, 8, 2, 1]
    # the block size bounds memory and changes no result
    assert np.array_equal(blocked.indices, whole.indices)
    assert np.array_equal(blocked.measured_powers, whole.measured_powers)
    assert np.array_equal(blocked_theta, theta)


def test_learn_phases_keeps_one_loss_trace_per_exploit(critic_route):
    cfg, H, geom, cb, ec = refit_scene()
    _, history = learn_phases(center_measure(H, cfg), geom, cfg, cb, ec)
    assert len(history.critic_loss_traces) == len(history.exploit_events) == 2
    for trace in history.critic_loss_traces:
        assert 1 <= len(trace) <= ec.train_iters
        assert np.all(np.diff(trace) <= 0.0)


def test_learn_phases_warm_starts_each_refit(monkeypatch, critic_route):
    # only the first fit of a run draws a random critic; each refit starts
    # from the vector the previous fit returned, on a buffer that extends
    # the previous one
    cfg, H, geom, cb, ec = refit_scene()
    real_init, real_train = phase_learning.initialize_critic, phase_learning.train_critic
    # seeds passed to the init; (starting vector, beams, fitted vector) per
    # step, the init recorded as a step with no input
    inits, fits = [], []

    def init(beams, powers, seed=0):
        inits.append(seed)
        fits.append((None, None, real_init(beams, powers, seed=seed)))
        return fits[-1][2]

    def train(q, beams, powers, max_iters):
        out = real_train(q, beams, powers, max_iters)
        fits.append((q, beams, out[0]))
        return out

    monkeypatch.setattr(phase_learning, "initialize_critic", init)
    monkeypatch.setattr(phase_learning, "train_critic", train)
    for run in range(2):
        fits.clear()
        _, history = learn_phases(center_measure(H, cfg), geom, cfg, cb, ec)
        assert inits == [ec.learner_seed] * (run + 1)
        assert len(fits) == 1 + len(history.exploit_events) == 3
        for (_, prev_beams, prev_q), (q, beams, _) in zip(fits, fits[1:]):
            assert q is prev_q
            if prev_beams is not None:
                assert np.array_equal(beams[: len(prev_beams)], prev_beams)
                assert len(beams) > len(prev_beams)
        assert history.final_model is fits[-1][2]
        assert history.final_model.shape == (cfg.num_antennas,)


def test_learn_phases_stops_at_a_confirmed_refit_exploit(critic_route):
    cfg, H, geom, cb, ec = refit_scene()
    _, history = learn_phases(center_measure(H, cfg), geom, cfg, cb, ec)
    (first, _, _), (n, _, power) = history.exploit_events
    assert (first, n) == (21, 32)
    # the refit met its RMS target on the n - 1 beams before its exploit
    clipped = np.maximum(history.measured_powers[: n - 1], 0.0)
    assert history.critic_loss_traces[-1][-1] <= (RMS_TOL * np.mean(clipped)) ** 2
    # and its exploit measured the power it predicted
    prediction = predicted(history.final_model, history.indices[-1], cb)
    assert abs(power - prediction) <= RMS_TOL * prediction


@pytest.mark.parametrize(
    "final_loss, misprediction, exploits",
    [
        (0.0, 1.0, [21]),  # a confirmed first fit ends the run
        (np.inf, 1.0, [21]),  # a fit off its RMS target still stops on a confirmed exploit
        (0.0, 1.0 + 2 * RMS_TOL, [21, 32, 43]),  # no exploit met its prediction
    ],
)
def test_learn_phases_stops_only_on_a_confirmed_refit(
    monkeypatch, final_loss, misprediction, exploits, critic_route
):
    # every fit ends on final_loss and every exploit measures misprediction
    # times the power predicted for it
    cfg, H, geom, cb, ec = refit_scene()
    measure = center_measure(H, cfg)
    real_ascent, real_train = phase_learning.coordinate_ascent, phase_learning.train_critic

    def ascent(q, init, cb):
        idx, cycles, _ = real_ascent(q, init, cb)
        return idx, cycles, float(measure(cb.values[idx][None])[0]) / misprediction

    def train(q, beams, powers, max_iters):
        q, trace = real_train(q, beams, powers, max_iters)
        return q, np.append(trace, final_loss)

    monkeypatch.setattr(phase_learning, "coordinate_ascent", ascent)
    monkeypatch.setattr(phase_learning, "train_critic", train)
    _, history = learn_phases(measure, geom, cfg, cb, ec)
    assert [n for n, _, _ in history.exploit_events] == exploits
    assert history.iters[-1] == exploits[-1]


def channel_critic(H):
    # a model route that returns the channel itself: its exploit measures
    # exactly what it predicts
    def model(beams, powers, geom, center_freq_hz):
        return H.coeffs[:, 0].copy()

    return model


def test_learn_phases_ends_on_a_confirmed_model_exploit(monkeypatch):
    # 2M = 8 beams come before the fit at 20: the model critic of those 8
    # beams is exploited once, and a confirmed exploit ends the run before
    # any fit, with the model as the final critic
    cfg, H, geom, cb, ec = refit_scene()
    tried = []

    def model(beams, powers, g, f_c):
        tried.append((len(beams), beams.dtype, g, f_c))
        return channel_critic(H)(beams, powers, g, f_c)

    monkeypatch.setattr(phase_learning, "model_critic", model)
    calls = []
    base = center_measure(H, cfg)

    def measure(phases):
        calls.append(len(phases))
        return base(phases)

    theta, history = learn_phases(measure, geom, cfg, cb, ec)
    assert tried == [(8, np.complex64, geom, cfg.center_freq_hz)]
    assert calls == [8, 1] and history.iters[-1] == 9
    assert history.exploit_routes == ["model"] and history.critic_loss_traces == []
    assert np.array_equal(history.final_model, H.coeffs[:, 0])
    (n, _, power), = history.exploit_events
    prediction = predicted(history.final_model, history.indices[-1], cb)
    assert n == 9 and abs(power - prediction) <= RMS_TOL * prediction
    best = int(np.argmax(history.measured_powers))  # the first of equal maxima
    assert np.array_equal(theta, cb.values[history.indices[best]])


def test_learn_phases_goes_on_to_the_fit_after_an_unconfirmed_model_exploit(monkeypatch):
    # a model exploit that misses its prediction costs one beam: the run
    # explores the beams of the critic's own route and fits them with the
    # model's beam among them
    cfg, H, geom, cb, ec = refit_scene()
    monkeypatch.setattr(phase_learning, "model_critic", lambda *args: None)
    _, alone = learn_phases(center_measure(H, cfg), geom, cfg, cb, ec)
    monkeypatch.setattr(phase_learning, "model_critic", lambda *args: 3.0 * H.coeffs[:, 0])
    _, history = learn_phases(center_measure(H, cfg), geom, cfg, cb, ec)
    assert history.exploit_routes[:2] == ["model", "fit"]
    assert [n for n, _, _ in history.exploit_events][:2] == [9, 22]
    assert len(history.critic_loss_traces) == len(history.exploit_events) - 1
    explored = np.delete(history.indices[:21], 8, axis=0)
    assert np.array_equal(explored, alone.indices[:20])


@pytest.mark.parametrize("exploit_start", [8, 5])
def test_learn_phases_tries_no_model_unless_2m_beams_come_before_the_fit(
    monkeypatch, exploit_start
):
    cfg, H, geom, cb, ec = refit_scene()
    ec = replace(ec, exploit_start=exploit_start)
    monkeypatch.setattr(phase_learning, "model_critic", None)  # calling it raises TypeError
    _, history = learn_phases(center_measure(H, cfg), geom, cfg, cb, ec)
    assert history.exploit_routes[0] == "fit"
    assert history.exploit_events[0][0] == exploit_start + 1


def test_learn_phases_history_after_a_stop_holds_the_measured_rows(tmp_path):
    cfg, H, geom, cb, ec = refit_scene()
    theta, history = learn_phases(center_measure(H, cfg), geom, cfg, cb, ec)
    n = history.exploit_events[-1][0]
    assert n < ec.total_measurements
    assert np.array_equal(history.iters, np.arange(1, n + 1))
    assert history.measured_powers.shape == history.best_powers.shape == (n,)
    assert history.indices.shape == (n, cfg.num_antennas)
    best = int(np.argmax(history.measured_powers))  # the first of equal maxima
    assert np.array_equal(theta, cb.values[history.indices[best]])
    path = tmp_path / "history.csv"
    write_history_csv(history, cb, path)
    assert len(path.read_text().splitlines()) == 1 + n


def test_learn_phases_callback_failure_propagates():
    cfg, H, geom = small_scene(2, seed=1)
    cb = PhaseCodebook(bits=1)
    ec = ExperimentConfig(total_measurements=5, exploit_start=5, critic_refit_period=5)

    def measure(phases):
        raise RuntimeError("hardware fault")

    with pytest.raises(RuntimeError, match="hardware fault"):
        learn_phases(measure, geom, cfg, cb, ec)


@pytest.mark.parametrize("shape", [(), (1, 1), (2,)])
def test_learn_phases_rejects_a_callback_of_another_shape(shape):
    # the first call measures the five beams before the fit: (5,) is its shape
    cfg, _, geom = small_scene(2, seed=1)
    ec = ExperimentConfig(total_measurements=5, exploit_start=5, critic_refit_period=5)
    with pytest.raises(ValueError, match=r"measure returned shape"):
        learn_phases(lambda phases: np.ones(shape), geom, cfg, PhaseCodebook(bits=1), ec)


def test_learn_phases_fits_negative_readings_as_zero():
    # a reading below zero (a noisy or offset detector) reaches the critic
    # as 0, so the run is the one a clipping callback gives
    cfg, H, geom = small_scene(4, seed=1)
    cb = PhaseCodebook(bits=2)
    ec = ExperimentConfig(
        total_measurements=40,
        exploit_start=20,
        critic_refit_period=10,
        learner_seed=4,
        train_iters=50,
    )
    _, plain = learn_phases(center_measure(H, cfg), geom, cfg, cb, ec)
    offset = float(np.median(plain.measured_powers))

    def shifted(phases):
        return center_measure(H, cfg)(phases) - offset

    theta, history = learn_phases(shifted, geom, cfg, cb, ec)
    clipped_theta, clipped = learn_phases(
        lambda ph: np.maximum(shifted(ph), 0.0), geom, cfg, cb, ec
    )
    assert history.measured_powers.min() < 0.0
    assert np.array_equal(history.indices, clipped.indices)
    assert np.array_equal(theta, clipped_theta)
    assert np.array_equal(history.final_model, clipped.final_model)


def test_learn_phases_is_invariant_to_the_power_scale():
    # the critic fits powers rescaled to unit mean; at 1e-30 W its complex64
    # products would otherwise underflow and the learned beam would move
    cfg, H, geom = small_scene(16)
    cb = PhaseCodebook(bits=3)
    ec = ExperimentConfig(
        total_measurements=400,
        exploit_start=200,
        critic_refit_period=100,
        learner_seed=0,
    )
    measure = center_measure(H, cfg)
    theta, history = learn_phases(measure, geom, cfg, cb, ec)
    tiny_theta, tiny = learn_phases(lambda ph: 1e-30 * measure(ph), geom, cfg, cb, ec)
    assert np.array_equal(tiny_theta, theta)
    assert np.array_equal(tiny.indices, history.indices)


def test_history_csv_export(tmp_path):
    cfg, H, geom = small_scene(3, seed=5)
    cb = PhaseCodebook(bits=2)
    ec = ExperimentConfig(
        total_measurements=8,
        exploit_start=8,
        critic_refit_period=4,
        learner_seed=2,
        train_iters=20,
    )
    _, history = learn_phases(center_measure(H, cfg), geom, cfg, cb, ec)
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


@pytest.mark.parametrize("bits", [2, 5])
def test_history_csv_rows_equal_the_per_row_loop(tmp_path, bits):
    # the one-format-per-row writer against the per-row f-string loop, with
    # one hex digit per index up to 4 bits and two from 5 bits
    cfg, H, geom = small_scene(3, seed=5)
    cb = PhaseCodebook(bits=bits)
    ec = ExperimentConfig(
        total_measurements=8,
        exploit_start=8,
        critic_refit_period=4,
        learner_seed=2,
        train_iters=20,
    )
    _, history = learn_phases(center_measure(H, cfg), geom, cfg, cb, ec)
    path = tmp_path / "history.csv"
    write_history_csv(history, cb, path)
    want = []
    for i, p, b, row in zip(history.iters, history.measured_powers, history.best_powers, history.indices):
        digits = row.tobytes().hex()
        want.append(f"{i},{p:.12g},{b:.12g},{digits[1::2] if bits <= 4 else digits}")
    assert path.read_text().splitlines()[1:] == want


def test_history_logs_the_measured_indices():
    cfg, H, geom = small_scene(4, seed=6)
    cb = PhaseCodebook(bits=2)
    ec = ExperimentConfig(
        total_measurements=25,
        exploit_start=20,
        critic_refit_period=10,
        learner_seed=3,
        train_iters=20,
    )
    calls = []
    base = center_measure(H, cfg)

    def measure(phases):
        calls.append(np.array(phases))
        return base(phases)

    theta, history = learn_phases(measure, geom, cfg, cb, ec)
    assert history.indices.dtype == np.uint8
    rows = np.concatenate(calls)
    assert history.indices.shape == (len(rows), cfg.num_antennas)
    assert np.array_equal(cb.values[history.indices], rows)
    assert np.array_equal(history.best_powers, np.maximum.accumulate(history.measured_powers))
    best = int(np.argmax(history.measured_powers))  # the first of equal maxima
    assert np.array_equal(theta, cb.values[history.indices[best]])
