import numpy as np
import pytest

from beamfocus.critic import (
    RMS_TOL,
    STALL_TOL,
    _rank_rows,
    _residuals,
    initialize_critic,
    matrix_to_text,
    save_critic,
    train_critic,
)
from beam_model import beam_from_phases
from model_checks import critic_loss_and_gradient


def random_beams(rng, n, M):
    return np.array([beam_from_phases(rng.uniform(-np.pi, np.pi, M)) for _ in range(n)])


def predicted(q, beams):
    # ||Q^H w||^2 per beam through the kernel that training runs; the
    # residuals against zero powers are the predictions
    pred = _residuals(_rank_rows(np.atleast_2d(beams), q), 0.0)
    return pred if np.ndim(beams) == 2 else float(pred[0])


def test_predict_rank1_equals_true_gain():
    rng = np.random.default_rng(0)
    M = 5
    h = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    model = h[:, None]
    for _ in range(10):
        w = beam_from_phases(rng.uniform(-np.pi, np.pi, M))
        assert predicted(model, w) == pytest.approx(abs(np.vdot(w, h)) ** 2, rel=1e-12)


def test_predict_zero_model():
    model = np.zeros((3, 2), complex)
    assert predicted(model, beam_from_phases([0.0, 1.0, 2.0])) == 0.0


def test_predict_hand_value():
    model = np.array([[1.0], [1j]])
    w = np.array([1.0, 1.0]) / np.sqrt(2)
    # |(1 - j)/sqrt(2)|^2 = 1
    assert predicted(model, w) == pytest.approx(1.0, rel=1e-12)


def test_predict_nonnegative_and_quadratic_scaling():
    rng = np.random.default_rng(4)
    model = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    p = predicted(model, w)
    assert p >= 0.0
    assert predicted(model, 2 * w) == pytest.approx(4 * p, rel=1e-12)


def test_predict_gauge_invariance():
    rng = np.random.default_rng(8)
    M, v = 6, 3
    q = rng.standard_normal((M, v)) + 1j * rng.standard_normal((M, v))
    for _ in range(10):
        z = rng.standard_normal((v, v)) + 1j * rng.standard_normal((v, v))
        u, _ = np.linalg.qr(z)  # random unitary
        w = beam_from_phases(rng.uniform(-np.pi, np.pi, M))
        p1 = predicted(q, w)
        p2 = predicted(q @ u, w)
        assert p2 == pytest.approx(p1, rel=1e-10)


def test_loss_perfect_fit_is_stationary():
    rng = np.random.default_rng(3)
    M = 4
    h = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    beams = random_beams(rng, 20, M)
    powers = np.abs(beams.conj() @ h) ** 2
    loss, grad = critic_loss_and_gradient(h[:, None], beams, powers)
    assert loss == pytest.approx(0.0, abs=1e-24)
    assert np.max(np.abs(grad)) == pytest.approx(0.0, abs=1e-12)


def test_loss_origin_saddle():
    beams = np.array([beam_from_phases([0.0, 0.0])])
    loss, grad = critic_loss_and_gradient(np.zeros((2, 1), complex), beams, np.array([1.0]))
    assert loss == 1.0
    assert np.all(grad == 0.0)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    for trial in range(5):
        M = int(rng.integers(2, 9))
        v = int(rng.integers(1, 4))
        n = int(rng.integers(3, 12))
        q = rng.standard_normal((M, v)) + 1j * rng.standard_normal((M, v))
        beams, powers = random_beams(rng, n, M), rng.uniform(0, 2, n)

        def loss_at(qq):
            return critic_loss_and_gradient(qq, beams, powers)[0]

        _, grad = critic_loss_and_gradient(q, beams, powers)
        h = 1e-6
        fd = np.zeros_like(q)
        for i in range(M):
            for j in range(v):
                for direction in (1.0, 1j):
                    qp, qm = q.copy(), q.copy()
                    qp[i, j] += h * direction
                    qm[i, j] -= h * direction
                    fd[i, j] += direction * (loss_at(qp) - loss_at(qm)) / (2 * h)
        assert np.max(np.abs(fd - grad)) / np.max(np.abs(grad)) <= 1e-5


def test_loss_rejects_empty_and_mismatched():
    # the fit and its init refuse an empty buffer and beams whose length is
    # not the critic's M
    q = np.ones((2, 1), complex)
    empty = np.empty((0, 2), complex), np.empty(0)
    with pytest.raises(ValueError):
        train_critic(q, *empty, 10)
    with pytest.raises(ValueError):
        initialize_critic(1, *empty)
    with pytest.raises(ValueError):
        train_critic(q, np.array([beam_from_phases([0.0, 0.0, 0.0])]), np.array([1.0]), 10)


def rank1_buffer(rng, n, M, noise=0.0):
    # powers |w^H h|^2 of a hidden channel h, times (1 + noise * N(0, 1))
    # and clipped at zero as the learner clips its buffer
    h = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    beams = random_beams(rng, n, M)
    powers = np.abs(beams.conj() @ h) ** 2 * (1.0 + noise * rng.standard_normal(n))
    return beams, np.maximum(powers, 0.0)


def full_loss(q, beams, powers):
    return critic_loss_and_gradient(q, beams, powers)[0]


def test_train_recovers_hidden_rank1_channel():
    rng = np.random.default_rng(6)
    M = 8
    beams, powers = rank1_buffer(rng, 200, M)
    q = initialize_critic(1, beams, powers, seed=7)
    trained, trace = train_critic(q, beams, powers, 5000)
    pred = predicted(trained, beams)
    rel = np.linalg.norm(pred - powers) / np.linalg.norm(powers)
    assert rel < 1e-2
    assert trace[-1] <= full_loss(q, beams, powers)


def test_train_trace_is_nonincreasing_and_capped():
    rng = np.random.default_rng(13)
    data = rank1_buffer(rng, 80, 6, noise=0.05)
    q = initialize_critic(3, *data, seed=2)
    for cap in (1, 7, 400):
        _, trace = train_critic(q, *data, cap)
        assert 1 <= len(trace) <= cap
        assert np.all(np.diff(trace) <= 0.0)
        assert trace[0] <= full_loss(q, *data)


def test_train_step_is_the_exact_line_minimum():
    # one iteration steps along -grad; no step along that line may score
    # lower, which a dense two-stage scan of the full loss checks
    rng = np.random.default_rng(12)
    M, n = 8, 60
    beams, powers = rank1_buffer(rng, n, M, noise=0.1)
    q0 = initialize_critic(2, beams, powers, seed=1)
    trained, trace = train_critic(q0, beams, powers, 1)
    _, grad = critic_loss_and_gradient(q0, beams, powers)
    step = trained - q0
    alpha = np.vdot(-grad, step).real / np.vdot(grad, grad).real
    np.testing.assert_allclose(step, -alpha * grad, rtol=0.0, atol=1e-12 * np.abs(step).max())
    assert alpha > 0.0

    g0, d = _rank_rows(beams, q0), _rank_rows(beams, -grad)

    def scan(alphas):
        g = g0[None] + alphas[:, None, None] * d[None]
        err = np.sum(np.abs(g) ** 2, axis=2) - powers
        return np.mean(err**2, axis=1)

    coarse = np.linspace(-4.0 * alpha, 4.0 * alpha, 20001)
    i = int(np.argmin(scan(coarse)))
    width = coarse[1] - coarse[0]
    fine = np.linspace(coarse[i] - 2 * width, coarse[i] + 2 * width, 20001)
    best = float(np.min(scan(fine)))
    got = full_loss(trained, beams, powers)
    assert abs(got - best) <= 1e-9 * best
    assert trace[-1] == pytest.approx(got, rel=1e-9)


def test_train_final_trace_value_is_the_true_loss():
    # G = conj(B) Q is carried across iterations; after any number of them
    # it still matches the returned model, so the last trace entry is the
    # model's full loss
    rng = np.random.default_rng(14)
    data = rank1_buffer(rng, 150, 8, noise=0.2)
    q = initialize_critic(4, *data, seed=3)
    for cap in (1, 5, 30, 300):
        trained, trace = train_critic(q, *data, cap)
        assert trace[-1] == pytest.approx(full_loss(trained, *data), rel=1e-9)


def test_train_noiseless_buffer_stops_on_the_rms_rule():
    rng = np.random.default_rng(15)
    beams, powers = rank1_buffer(rng, 200, 8)
    q = initialize_critic(2, beams, powers, seed=4)
    _, trace = train_critic(q, beams, powers, 5000)
    target = (RMS_TOL * np.mean(powers)) ** 2
    assert len(trace) < 5000
    assert trace[-1] <= target < trace[-2]


def test_train_noisy_buffer_stops_on_the_stall_rule():
    rng = np.random.default_rng(16)
    beams, powers = rank1_buffer(rng, 200, 8, noise=0.3)
    q = initialize_critic(2, beams, powers, seed=4)
    _, trace = train_critic(q, beams, powers, 5000)
    assert len(trace) < 5000
    assert trace[-1] > (RMS_TOL * np.mean(powers)) ** 2
    assert trace[-2] - trace[-1] < STALL_TOL * trace[-2]


def test_train_deterministic_per_seed():
    rng = np.random.default_rng(10)
    data = random_beams(rng, 30, 4), rng.uniform(0, 1, 30)
    q = initialize_critic(2, *data, seed=0)
    m1, t1 = train_critic(q, *data, 50)
    m2, t2 = train_critic(q, *data, 50)
    assert np.array_equal(m1, m2)
    assert np.array_equal(t1, t2)


def assert_clean_fit(q, beams, powers, max_iters=100):
    trained, trace = train_critic(q, beams, powers, max_iters)
    assert 1 <= len(trace) <= max_iters
    assert np.all(np.isfinite(trained)) and np.all(np.isfinite(trace))
    assert np.all(np.diff(trace) <= 0.0)
    return trained, trace


def test_train_all_zero_powers_ends_cleanly():
    rng = np.random.default_rng(17)
    data = random_beams(rng, 20, 4), np.zeros(20)
    _, trace = assert_clean_fit(initialize_critic(2, *data, seed=0), *data)
    assert trace[-1] < full_loss(initialize_critic(2, *data, seed=0), *data)


def test_train_single_sample_ends_cleanly():
    rng = np.random.default_rng(18)
    data = random_beams(rng, 1, 4), np.array([0.7])
    assert_clean_fit(initialize_critic(2, *data, seed=0), *data)


def test_train_rank_above_sample_count_ends_cleanly():
    rng = np.random.default_rng(19)
    data = rank1_buffer(rng, 3, 6)
    assert_clean_fit(initialize_critic(5, *data, seed=0), *data)


def test_train_already_fitted_model_ends_at_once():
    # the gradient is zero, so the direction is zero and its line search
    # cubic has no root
    rng = np.random.default_rng(20)
    M = 5
    h = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    beams = random_beams(rng, 30, M)
    q = h[:, None]
    trained, trace = assert_clean_fit(q, beams, predicted(q, beams))
    assert len(trace) == 1
    np.testing.assert_allclose(trained, q, rtol=1e-12)
    trained, trace = assert_clean_fit(np.zeros((M, 2), complex), beams, np.zeros(30))
    assert len(trace) == 1 and trace[0] == 0.0


def test_train_rejects_empty_data_and_no_iterations():
    q = np.ones((2, 1), complex)
    with pytest.raises(ValueError):
        train_critic(q, np.empty((0, 2), complex), np.empty(0), 10)
    with pytest.raises(ValueError):
        train_critic(q, np.array([beam_from_phases([0.0, 0.0])]), np.array([1.0]), 0)


def test_critic_text_holds_the_matrix_bit_exactly(tmp_path):
    rng = np.random.default_rng(11)
    q = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    text = matrix_to_text(q)
    lines = text.splitlines()
    assert lines[0] == "4 3"
    parsed = [[complex(*map(float, e.split(":"))) for e in ln.split()] for ln in lines[1:]]
    assert np.array_equal(np.array(parsed), q)
    path = tmp_path / "critic.txt"
    save_critic(q, path, header_comment="# run = test\n")
    assert path.read_text() == "# run = test\n" + text
