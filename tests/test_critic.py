import numpy as np
import pytest

from beamfocus.critic import (
    RMS_TOL,
    STALL_TOL,
    CriticModel,
    PowerDataset,
    _rank_rows,
    _residuals,
    critic_loss_and_gradient,
    initialize_critic,
    matrix_to_text,
    save_critic,
    train_critic,
)
from beam_model import beam_from_phases


def random_beams(rng, n, M):
    return np.array([beam_from_phases(rng.uniform(-np.pi, np.pi, M)) for _ in range(n)])


def predicted(model, beams):
    # ||Q^H w||^2 per beam through the kernel that training runs; the
    # residuals against zero powers are the predictions
    pred = _residuals(_rank_rows(np.atleast_2d(beams), model.matrix), 0.0)
    return pred if np.ndim(beams) == 2 else float(pred[0])


def test_predict_rank1_equals_true_gain():
    rng = np.random.default_rng(0)
    M = 5
    h = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    model = CriticModel(matrix=h[:, None])
    for _ in range(10):
        w = beam_from_phases(rng.uniform(-np.pi, np.pi, M))
        assert predicted(model, w) == pytest.approx(abs(np.vdot(w, h)) ** 2, rel=1e-12)


def test_predict_zero_model():
    model = CriticModel(matrix=np.zeros((3, 2), complex))
    assert predicted(model, beam_from_phases([0.0, 1.0, 2.0])) == 0.0


def test_predict_hand_value():
    model = CriticModel(matrix=np.array([[1.0], [1j]]))
    w = np.array([1.0, 1.0]) / np.sqrt(2)
    # |(1 - j)/sqrt(2)|^2 = 1
    assert predicted(model, w) == pytest.approx(1.0, rel=1e-12)


def test_predict_nonnegative_and_quadratic_scaling():
    rng = np.random.default_rng(4)
    model = CriticModel(matrix=rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
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
        p1 = predicted(CriticModel(matrix=q), w)
        p2 = predicted(CriticModel(matrix=q @ u), w)
        assert p2 == pytest.approx(p1, rel=1e-10)


def test_loss_perfect_fit_is_stationary():
    rng = np.random.default_rng(3)
    M = 4
    h = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    beams = random_beams(rng, 20, M)
    powers = np.abs(beams.conj() @ h) ** 2
    data = PowerDataset(beams=beams, powers=powers)
    loss, grad = critic_loss_and_gradient(CriticModel(matrix=h[:, None]), data)
    assert loss == pytest.approx(0.0, abs=1e-24)
    assert np.max(np.abs(grad)) == pytest.approx(0.0, abs=1e-12)


def test_loss_origin_saddle():
    data = PowerDataset(beams=np.array([beam_from_phases([0.0, 0.0])]), powers=[1.0])
    loss, grad = critic_loss_and_gradient(CriticModel(matrix=np.zeros((2, 1), complex)), data)
    assert loss == 1.0
    assert np.all(grad == 0.0)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    for trial in range(5):
        M = int(rng.integers(2, 9))
        v = int(rng.integers(1, 4))
        n = int(rng.integers(3, 12))
        q = rng.standard_normal((M, v)) + 1j * rng.standard_normal((M, v))
        data = PowerDataset(
            beams=random_beams(rng, n, M), powers=rng.uniform(0, 2, n)
        )

        def loss_at(qq):
            return critic_loss_and_gradient(CriticModel(matrix=qq), data)[0]

        _, grad = critic_loss_and_gradient(CriticModel(matrix=q), data)
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
    model = CriticModel(matrix=np.ones((2, 1), complex))
    with pytest.raises(ValueError):
        critic_loss_and_gradient(
            model, PowerDataset(beams=np.empty((0, 2), complex), powers=[])
        )
    with pytest.raises(ValueError):
        critic_loss_and_gradient(
            model, PowerDataset(beams=[beam_from_phases([0.0, 0.0, 0.0])], powers=[1.0])
        )


def test_dataset_validation():
    with pytest.raises(ValueError):
        PowerDataset(beams=np.array([[1.0, 1.0]]), powers=[1.0])  # not unit norm
    with pytest.raises(ValueError):
        PowerDataset(beams=np.array([beam_from_phases([0.0, 0.0])]), powers=[-1.0])


def rank1_buffer(rng, n, M, noise=0.0):
    # powers |w^H h|^2 of a hidden channel h, times (1 + noise * N(0, 1))
    # and clipped at zero as the learner clips its buffer
    h = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    beams = random_beams(rng, n, M)
    powers = np.abs(beams.conj() @ h) ** 2 * (1.0 + noise * rng.standard_normal(n))
    return PowerDataset(beams=beams, powers=np.maximum(powers, 0.0))


def full_loss(model, data):
    return critic_loss_and_gradient(model, data)[0]


def test_train_recovers_hidden_rank1_channel():
    rng = np.random.default_rng(6)
    M = 8
    data = rank1_buffer(rng, 200, M)
    model = initialize_critic(M, 1, data, seed=7)
    trained, trace = train_critic(model, data, 5000)
    pred = predicted(trained, data.beams)
    rel = np.linalg.norm(pred - data.powers) / np.linalg.norm(data.powers)
    assert rel < 1e-2
    assert trace[-1] <= full_loss(model, data)


def test_train_trace_is_nonincreasing_and_capped():
    rng = np.random.default_rng(13)
    data = rank1_buffer(rng, 80, 6, noise=0.05)
    model = initialize_critic(6, 3, data, seed=2)
    for cap in (1, 7, 400):
        _, trace = train_critic(model, data, cap)
        assert 1 <= len(trace) <= cap
        assert np.all(np.diff(trace) <= 0.0)
        assert trace[0] <= full_loss(model, data)


def test_train_step_is_the_exact_line_minimum():
    # one iteration steps along -grad; no step along that line may score
    # lower, which a dense two-stage scan of the full loss checks
    rng = np.random.default_rng(12)
    M, n = 8, 60
    data = rank1_buffer(rng, n, M, noise=0.1)
    model = initialize_critic(M, 2, data, seed=1)
    trained, trace = train_critic(model, data, 1)
    q0 = model.matrix
    _, grad = critic_loss_and_gradient(model, data)
    step = trained.matrix - q0
    alpha = np.vdot(-grad, step).real / np.vdot(grad, grad).real
    np.testing.assert_allclose(step, -alpha * grad, rtol=0.0, atol=1e-12 * np.abs(step).max())
    assert alpha > 0.0

    g0, d = _rank_rows(data.beams, q0), _rank_rows(data.beams, -grad)

    def scan(alphas):
        g = g0[None] + alphas[:, None, None] * d[None]
        err = np.sum(np.abs(g) ** 2, axis=2) - data.powers
        return np.mean(err**2, axis=1)

    coarse = np.linspace(-4.0 * alpha, 4.0 * alpha, 20001)
    i = int(np.argmin(scan(coarse)))
    width = coarse[1] - coarse[0]
    fine = np.linspace(coarse[i] - 2 * width, coarse[i] + 2 * width, 20001)
    best = float(np.min(scan(fine)))
    got = full_loss(trained, data)
    assert abs(got - best) <= 1e-9 * best
    assert trace[-1] == pytest.approx(got, rel=1e-9)


def test_train_final_trace_value_is_the_true_loss():
    # G = conj(B) Q is carried across iterations; after any number of them
    # it still matches the returned model, so the last trace entry is the
    # model's full loss
    rng = np.random.default_rng(14)
    data = rank1_buffer(rng, 150, 8, noise=0.2)
    model = initialize_critic(8, 4, data, seed=3)
    for cap in (1, 5, 30, 300):
        trained, trace = train_critic(model, data, cap)
        assert trace[-1] == pytest.approx(full_loss(trained, data), rel=1e-9)


def test_train_noiseless_buffer_stops_on_the_rms_rule():
    rng = np.random.default_rng(15)
    data = rank1_buffer(rng, 200, 8)
    model = initialize_critic(8, 2, data, seed=4)
    _, trace = train_critic(model, data, 5000)
    target = (RMS_TOL * np.mean(data.powers)) ** 2
    assert len(trace) < 5000
    assert trace[-1] <= target < trace[-2]


def test_train_noisy_buffer_stops_on_the_stall_rule():
    rng = np.random.default_rng(16)
    data = rank1_buffer(rng, 200, 8, noise=0.3)
    model = initialize_critic(8, 2, data, seed=4)
    _, trace = train_critic(model, data, 5000)
    assert len(trace) < 5000
    assert trace[-1] > (RMS_TOL * np.mean(data.powers)) ** 2
    assert trace[-2] - trace[-1] < STALL_TOL * trace[-2]


def test_train_deterministic_per_seed():
    rng = np.random.default_rng(10)
    data = PowerDataset(beams=random_beams(rng, 30, 4), powers=rng.uniform(0, 1, 30))
    model = initialize_critic(4, 2, data, seed=0)
    m1, t1 = train_critic(model, data, 50)
    m2, t2 = train_critic(model, data, 50)
    assert np.array_equal(m1.matrix, m2.matrix)
    assert np.array_equal(t1, t2)


def assert_clean_fit(model, data, max_iters=100):
    trained, trace = train_critic(model, data, max_iters)
    assert 1 <= len(trace) <= max_iters
    assert np.all(np.isfinite(trained.matrix)) and np.all(np.isfinite(trace))
    assert np.all(np.diff(trace) <= 0.0)
    return trained, trace


def test_train_all_zero_powers_ends_cleanly():
    rng = np.random.default_rng(17)
    data = PowerDataset(beams=random_beams(rng, 20, 4), powers=np.zeros(20))
    _, trace = assert_clean_fit(initialize_critic(4, 2, data, seed=0), data)
    assert trace[-1] < full_loss(initialize_critic(4, 2, data, seed=0), data)


def test_train_single_sample_ends_cleanly():
    rng = np.random.default_rng(18)
    data = PowerDataset(beams=random_beams(rng, 1, 4), powers=[0.7])
    assert_clean_fit(initialize_critic(4, 2, data, seed=0), data)


def test_train_rank_above_sample_count_ends_cleanly():
    rng = np.random.default_rng(19)
    data = rank1_buffer(rng, 3, 6)
    assert_clean_fit(initialize_critic(6, 5, data, seed=0), data)


def test_train_already_fitted_model_ends_at_once():
    # the gradient is zero, so the direction is zero and its line search
    # cubic has no root
    rng = np.random.default_rng(20)
    M = 5
    h = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    beams = random_beams(rng, 30, M)
    model = CriticModel(matrix=h[:, None])
    data = PowerDataset(beams=beams, powers=predicted(model, beams))
    trained, trace = assert_clean_fit(model, data)
    assert len(trace) == 1
    np.testing.assert_allclose(trained.matrix, model.matrix, rtol=1e-12)
    zero = PowerDataset(beams=beams, powers=np.zeros(30))
    trained, trace = assert_clean_fit(CriticModel(matrix=np.zeros((M, 2), complex)), zero)
    assert len(trace) == 1 and trace[0] == 0.0


def test_train_rejects_empty_data_and_no_iterations():
    model = CriticModel(matrix=np.ones((2, 1), complex))
    with pytest.raises(ValueError):
        train_critic(model, PowerDataset(beams=np.empty((0, 2), complex), powers=[]), 10)
    data = PowerDataset(beams=[beam_from_phases([0.0, 0.0])], powers=[1.0])
    with pytest.raises(ValueError):
        train_critic(model, data, 0)


def test_critic_text_holds_the_matrix_bit_exactly(tmp_path):
    rng = np.random.default_rng(11)
    q = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    model = CriticModel(matrix=q)
    text = matrix_to_text(q)
    lines = text.splitlines()
    assert lines[0] == "4 3"
    parsed = [[complex(*map(float, e.split(":"))) for e in ln.split()] for ln in lines[1:]]
    assert np.array_equal(np.array(parsed), q)
    path = tmp_path / "critic.txt"
    save_critic(model, path, header_comment="# run = test\n")
    assert path.read_text() == "# run = test\n" + text
