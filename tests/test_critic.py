import numpy as np
import pytest

from beamfocus.critic import (
    CriticModel,
    PowerDataset,
    TrainOptions,
    _rank_rows,
    _residuals,
    beam_from_phases,
    critic_loss_and_gradient,
    critic_to_text,
    initialize_critic,
    save_critic,
    train_critic,
)


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


def test_train_recovers_hidden_rank1_channel():
    rng = np.random.default_rng(6)
    M = 8
    h = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    beams = random_beams(rng, 200, M)
    powers = np.abs(beams.conj() @ h) ** 2
    data = PowerDataset(beams=beams, powers=powers)
    model = initialize_critic(M, 1, data, seed=7)
    trained, trace = train_critic(model, data, TrainOptions(lr=0.5, iters=5000, batch=200, seed=8))
    pred = predicted(trained, beams)
    rel = np.linalg.norm(pred - powers) / np.linalg.norm(powers)
    assert rel < 1e-2
    assert trace[-1] <= trace[0]


def test_train_zero_lr_is_identity():
    rng = np.random.default_rng(9)
    data = PowerDataset(beams=random_beams(rng, 5, 3), powers=rng.uniform(0, 1, 5))
    model = CriticModel(matrix=rng.standard_normal((3, 2)) + 0j)
    trained, trace = train_critic(model, data, TrainOptions(lr=0.0, iters=10))
    assert trained is model
    assert np.all(trace == trace[0])


def test_train_deterministic_per_seed():
    rng = np.random.default_rng(10)
    data = PowerDataset(beams=random_beams(rng, 30, 4), powers=rng.uniform(0, 1, 30))
    model = initialize_critic(4, 2, data, seed=0)
    t1 = train_critic(model, data, TrainOptions(lr=0.3, iters=50, batch=8, seed=3))[1]
    t2 = train_critic(model, data, TrainOptions(lr=0.3, iters=50, batch=8, seed=3))[1]
    assert np.array_equal(t1, t2)


def reference_train_critic(model, data, opts):
    # reference line search: every backtracking trial scores the full-data
    # loss of the (M, rank) candidate Q - lr grad from scratch
    def full_loss(q):
        err = np.sum(np.abs(data.beams.conj() @ q) ** 2, axis=1) - powers
        return float(np.mean(err**2))

    n = len(data)
    scale = float(np.mean(data.powers))
    powers = data.powers / scale
    rng = np.random.default_rng(opts.seed)
    q = model.matrix / np.sqrt(scale)
    current = full_loss(q)
    trace, halvings = np.empty(opts.iters), 0
    for it in range(opts.iters):
        idx = rng.choice(n, size=min(opts.batch, n), replace=False)
        beams = data.beams[idx]
        g = beams.conj() @ q
        err = np.sum(np.abs(g) ** 2, axis=1) - powers[idx]
        grad = (4.0 / idx.size) * (beams.T @ (err[:, None] * g))
        lr = opts.lr
        for _ in range(30):
            candidate = q - lr * grad
            cand_loss = full_loss(candidate)
            if cand_loss <= current:
                q, current = candidate, cand_loss
                break
            lr *= 0.5
            halvings += 1
        trace[it] = current * scale**2
    return q * np.sqrt(scale), trace, halvings


def test_train_matches_full_loss_line_search():
    rng = np.random.default_rng(12)
    M, n = 8, 60
    h = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    beams = random_beams(rng, n, M)
    data = PowerDataset(beams=beams, powers=np.abs(beams.conj() @ h) ** 2)
    model = initialize_critic(M, 2, data, seed=1)
    opts = TrainOptions(lr=4.0, iters=200, batch=16, seed=5)
    q_ref, trace_ref, halvings = reference_train_critic(model, data, opts)
    assert halvings > 0  # the step is large enough to backtrack
    trained, trace = train_critic(model, data, opts)
    assert np.array_equal(trained.matrix, q_ref)
    np.testing.assert_allclose(trace, trace_ref, rtol=1e-9, atol=0.0)


def test_train_options_validation():
    with pytest.raises(ValueError):
        TrainOptions(lr=-0.1)
    with pytest.raises(ValueError):
        TrainOptions(iters=0)
    with pytest.raises(ValueError):
        TrainOptions(batch=0)


def test_critic_text_holds_the_matrix_bit_exactly(tmp_path):
    rng = np.random.default_rng(11)
    q = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    model = CriticModel(matrix=q)
    text = critic_to_text(model)
    lines = text.splitlines()
    assert lines[0] == "4 3"
    parsed = [[complex(*map(float, e.split(":"))) for e in ln.split()] for ln in lines[1:]]
    assert np.array_equal(np.array(parsed), q)
    path = tmp_path / "critic.txt"
    save_critic(model, path, header_comment="# run = test\n")
    assert path.read_text() == "# run = test\n" + text
