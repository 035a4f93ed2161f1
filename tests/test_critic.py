import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from beamfocus import critic
from beamfocus.combiner import PhaseCodebook
from beamfocus.critic import (
    RMS_TOL,
    STALL_TOL,
    _gradient,
    _inner,
    _line_search,
    _real_roots,
    _residuals,
    initialize_critic,
    model_critic,
    save_critic,
    train_critic,
)
from beamfocus.focus import locate_focus
from beamfocus.geometry import SPEED_OF_LIGHT, point_distances, random_geometry
from beam_model import beam_from_phases
from model_checks import critic_loss_and_gradient, cubic_step_reference, line_search_reference


def random_beams(rng, n, M):
    return np.array([beam_from_phases(rng.uniform(-np.pi, np.pi, M)) for _ in range(n)])


def predicted(q, beams):
    # |q^H w|^2 per beam through the kernel that training runs; the
    # residuals against zero powers are the predictions
    pred = _residuals(_inner(np.atleast_2d(beams), q), 0.0)
    return pred if np.ndim(beams) == 2 else float(pred[0])


def test_predict_rank1_equals_true_gain():
    rng = np.random.default_rng(0)
    M = 5
    model = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    for _ in range(10):
        w = beam_from_phases(rng.uniform(-np.pi, np.pi, M))
        assert predicted(model, w) == pytest.approx(abs(np.vdot(w, model)) ** 2, rel=1e-12)


def test_predict_zero_model():
    model = np.zeros(3, complex)
    assert predicted(model, beam_from_phases([0.0, 1.0, 2.0])) == 0.0


def test_predict_hand_value():
    model = np.array([1.0, 1j])
    w = np.array([1.0, 1.0]) / np.sqrt(2)
    # |(1 - j)/sqrt(2)|^2 = 1
    assert predicted(model, w) == pytest.approx(1.0, rel=1e-12)


def test_predict_nonnegative_and_quadratic_scaling():
    rng = np.random.default_rng(4)
    model = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    p = predicted(model, w)
    assert p >= 0.0
    assert predicted(model, 2 * w) == pytest.approx(4 * p, rel=1e-12)


def test_predict_gauge_invariance():
    # a global phase of q changes no prediction
    rng = np.random.default_rng(8)
    M = 6
    q = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    for _ in range(10):
        w = beam_from_phases(rng.uniform(-np.pi, np.pi, M))
        turned = np.exp(1j * rng.uniform(-np.pi, np.pi)) * q
        assert predicted(turned, w) == pytest.approx(predicted(q, w), rel=1e-10)


def codebook_buffer(rng, n, M, bits=3):
    # n beams of uniform codebook indices, each phasor over sqrt(M), as the
    # learner fills its training buffer
    return PhaseCodebook(bits).phasors[rng.integers(0, 2**bits, (n, M))] / np.sqrt(M)


def test_products_run_in_the_buffers_precision():
    # a complex64 buffer's two products run in single precision and come
    # back as complex128; a complex128 or real buffer keeps the double
    # products bit for bit
    rng = np.random.default_rng(21)
    n, M = 400, 64
    double = codebook_buffer(rng, n, M)
    q = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    powers = rng.uniform(0.0, 2.0, n)
    g = _inner(double, q)
    err = _residuals(g, powers)

    single = double.astype(np.complex64)
    assert np.array_equal(_inner(single, q), (single @ q.conj().astype(np.complex64)).conj())
    pairs = (_inner(single, q), g), (_gradient(single, g, err), _gradient(double, g, err))
    for got, want in pairs:
        assert got.dtype == np.complex128
        assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)

    for beams in (double, rng.standard_normal((n, M))):
        g = _inner(beams, q)
        err = _residuals(g, powers)
        assert np.array_equal(g, (beams @ q.conj()).conj())
        assert np.array_equal(_gradient(beams, g, err), (4.0 / n) * (beams.T @ (err * g)))


def test_loss_perfect_fit_is_stationary():
    rng = np.random.default_rng(3)
    M = 4
    h = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    beams = random_beams(rng, 20, M)
    powers = np.abs(beams.conj() @ h) ** 2
    loss, grad = critic_loss_and_gradient(h, beams, powers)
    assert loss == pytest.approx(0.0, abs=1e-24)
    assert np.max(np.abs(grad)) == pytest.approx(0.0, abs=1e-12)


def test_loss_origin_saddle():
    beams = np.array([beam_from_phases([0.0, 0.0])])
    loss, grad = critic_loss_and_gradient(np.zeros(2, complex), beams, np.array([1.0]))
    assert loss == 1.0
    assert np.all(grad == 0.0)


def test_loss_rejects_empty_and_mismatched():
    # the fit and its init refuse an empty buffer and beams whose length is
    # not the critic's M
    q = np.ones(2, complex)
    empty = np.empty((0, 2), complex), np.empty(0)
    with pytest.raises(ValueError):
        train_critic(q, *empty, 10)
    with pytest.raises(ValueError):
        initialize_critic(*empty)
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
    q = initialize_critic(beams, powers, seed=7)
    trained, trace = train_critic(q, beams, powers, 5000)
    pred = predicted(trained, beams)
    rel = np.linalg.norm(pred - powers) / np.linalg.norm(powers)
    assert rel < 1e-2
    assert trace[-1] <= full_loss(q, beams, powers)


def test_train_trace_is_nonincreasing_and_capped():
    rng = np.random.default_rng(13)
    data = rank1_buffer(rng, 80, 6, noise=0.05)
    q = initialize_critic(*data, seed=2)
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
    q0 = initialize_critic(beams, powers, seed=1)
    trained, trace = train_critic(q0, beams, powers, 1)
    _, grad = critic_loss_and_gradient(q0, beams, powers)
    step = trained - q0
    alpha = np.vdot(-grad, step).real / np.vdot(grad, grad).real
    np.testing.assert_allclose(step, -alpha * grad, rtol=0.0, atol=1e-12 * np.abs(step).max())
    assert alpha > 0.0

    g0, d = _inner(beams, q0), _inner(beams, -grad)

    def scan(alphas):
        g = g0[None] + alphas[:, None] * d[None]
        err = np.abs(g) ** 2 - powers
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
    # g = conj(B) q is carried across iterations; after any number of them
    # it still matches the returned model, so the last trace entry is the
    # model's full loss
    rng = np.random.default_rng(14)
    data = rank1_buffer(rng, 150, 8, noise=0.2)
    q = initialize_critic(*data, seed=3)
    for cap in (1, 5, 30, 300):
        trained, trace = train_critic(q, *data, cap)
        assert trace[-1] == pytest.approx(full_loss(trained, *data), rel=1e-9)


def test_train_noiseless_buffer_stops_on_the_rms_rule():
    rng = np.random.default_rng(15)
    beams, powers = rank1_buffer(rng, 200, 8)
    q = initialize_critic(beams, powers, seed=4)
    _, trace = train_critic(q, beams, powers, 5000)
    target = (RMS_TOL * np.mean(powers)) ** 2
    assert len(trace) < 5000
    assert trace[-1] <= target < trace[-2]


def test_train_noisy_buffer_stops_on_the_stall_rule():
    rng = np.random.default_rng(16)
    beams, powers = rank1_buffer(rng, 200, 8, noise=0.3)
    q = initialize_critic(beams, powers, seed=4)
    _, trace = train_critic(q, beams, powers, 5000)
    assert len(trace) < 5000
    assert trace[-1] > (RMS_TOL * np.mean(powers)) ** 2
    assert trace[-2] - trace[-1] < STALL_TOL * trace[-2]


def test_train_deterministic_per_seed():
    rng = np.random.default_rng(10)
    data = random_beams(rng, 30, 4), rng.uniform(0, 1, 30)
    q = initialize_critic(*data, seed=0)
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
    _, trace = assert_clean_fit(initialize_critic(*data, seed=0), *data)
    assert trace[-1] < full_loss(initialize_critic(*data, seed=0), *data)


def test_train_single_sample_ends_cleanly():
    rng = np.random.default_rng(18)
    data = random_beams(rng, 1, 4), np.array([0.7])
    assert_clean_fit(initialize_critic(*data, seed=0), *data)


def test_train_more_antennas_than_samples_ends_cleanly():
    rng = np.random.default_rng(19)
    data = rank1_buffer(rng, 3, 6)
    assert_clean_fit(initialize_critic(*data, seed=0), *data)


def test_train_already_fitted_model_ends_at_once():
    # the gradient is zero, so the direction is zero and its line search
    # cubic has no root
    rng = np.random.default_rng(20)
    M = 5
    h = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    beams = random_beams(rng, 30, M)
    trained, trace = assert_clean_fit(h, beams, predicted(h, beams))
    assert len(trace) == 1
    np.testing.assert_allclose(trained, h, rtol=1e-12)
    trained, trace = assert_clean_fit(np.zeros(M, complex), beams, np.zeros(30))
    assert len(trace) == 1 and trace[0] == 0.0


def test_train_on_powers_whose_loss_overflows_ends_cleanly():
    # powers near 1e300 W (`system.noise_power_w = 1e300`): the fit runs on
    # the rescaled powers, and only the loss trace, in W^2, overflows
    rng = np.random.default_rng(21)
    beams, powers = rank1_buffer(rng, 30, 4)
    powers *= 1e300
    trained, trace = train_critic(initialize_critic(beams, powers, seed=0), beams, powers, 50)
    assert np.all(np.isfinite(trained)) and np.all(trace == np.inf)


def test_train_rejects_empty_data_and_no_iterations():
    q = np.ones(2, complex)
    with pytest.raises(ValueError):
        train_critic(q, np.empty((0, 2), complex), np.empty(0), 10)
    with pytest.raises(ValueError):
        train_critic(q, np.array([beam_from_phases([0.0, 0.0])]), np.array([1.0]), 0)


def test_critic_text_holds_the_matrix_bit_exactly(tmp_path):
    rng = np.random.default_rng(11)
    q = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    path = tmp_path / "critic.txt"
    save_critic(q, path, header_comment="# run = test\n")
    lines = path.read_text().splitlines()
    assert lines[:2] == ["# run = test", "4 1"]
    parsed = [complex(*map(float, ln.split(":"))) for ln in lines[2:]]
    assert np.array_equal(np.array(parsed), q)


def moments_of(err, b, c):
    # the Gram matrix of the rows err, b, c that train_critic hands the line search
    rows = np.array([err, b, c])
    return rows @ rows.T


@settings(deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300), zero_c=st.booleans())
def test_line_search_equals_the_np_roots_reference(seed, n, zero_c):
    # err, b and c as one iteration forms them: c = |d|^2 >= 0, and c = 0
    # (a direction that moves no prediction) takes no step
    rng = np.random.default_rng(seed)
    err, b = rng.standard_normal((2, n)) * rng.uniform(0.1, 10.0, 2)[:, None]
    c = np.zeros(n) if zero_c else rng.uniform(0.0, 1.0, n) * rng.uniform(0.1, 10.0)
    got, want = _line_search(moments_of(err, b, c)), line_search_reference(err, b, c)
    if got != pytest.approx(want, rel=1e-9, abs=1e-12):
        # the quartic's two minima tie (one sample always makes them tie, at
        # the roots of err + 2 alpha b + alpha^2 c): either is the minimum
        def loss(alpha):
            return float(np.mean((err + 2.0 * alpha * b + alpha**2 * c) ** 2))

        assert loss(got) == pytest.approx(loss(want), rel=1e-9, abs=1e-12)
    if zero_c:
        assert got == 0.0


def cubic_from_roots(kind, r, s, u, scale):
    """Monic-times-scale cubic, highest power first, and its real roots.

    kind "three": roots r < s < u; "double": r twice and s; "one": r and
    the complex pair s +- j u (u > 0).
    """
    if kind == "three":
        roots = [r, s, u]
    elif kind == "double":
        roots = [r, r, s]
    else:
        roots = [r, s + 1j * u, s - 1j * u]
    return scale * np.poly(roots).real, sorted(set(x for x in roots if not isinstance(x, complex)))


def moments_for(cubic, bb):
    # a (3, 3) moment matrix whose line search cubic is `cubic`; the split of
    # the linear coefficient between err.c and b.b is free, so bb varies it
    a3, a2, a1, a0 = cubic.tolist()
    ec, bc = a1 - 2.0 * bb, a2 / 3.0
    return np.array([[1.0, a0, ec], [a0, bb, bc], [ec, bc, a3]])


root = st.floats(-4.0, 4.0, allow_nan=False)


@settings(deadline=None, max_examples=300)
@given(
    kind=st.sampled_from(["three", "double", "one"]),
    r=root,
    s=root,
    u=root,
    scale=st.floats(1e-3, 1e3),
    bb=st.floats(0.0, 10.0),
)
def test_closed_form_roots_and_step_equal_the_np_roots_reference(kind, r, s, u, scale, bb):
    if kind == "three":
        r, s, u = sorted((r, s, u))
        assume(s - r > 0.25 and u - s > 0.25)
    elif kind == "double":
        assume(abs(r - s) > 0.25)
    else:
        u = abs(u)
        assume(u > 0.25)
    cubic, real = cubic_from_roots(kind, r, s, u, scale)
    size = max(1.0, *(abs(x) for x in real))
    roots = sorted(_real_roots(*cubic.tolist()))
    reference = sorted(x.real for x in np.roots(cubic) if abs(x.imag) <= 1e-6 * size)
    if kind == "double":
        # a double root is ill-conditioned: one rounding of the coefficients
        # moves it by about sqrt(eps), and it may come out once or twice, or
        # (np.roots) as a pair with a tiny imaginary part. The simple root is
        # well-conditioned.
        assert min(abs(x - s) for x in roots) <= 1e-9 * size
        assert all(min(abs(x - r), abs(x - s)) <= 1e-6 * size for x in roots)
    else:
        assert len(roots) == len(reference) == len(real)
        np.testing.assert_allclose(roots, reference, rtol=0.0, atol=1e-9 * size)
    # the quartic's two minima of a three-root cubic must not tie, or the
    # pick between them is a matter of rounding
    quartic = np.polyint(cubic * 4.0)
    if kind == "three":
        low, high = np.polyval(quartic, [r, u]) - np.polyval(quartic, 0.0)
        assume(abs(low - high) > 1e-6 * max(abs(low), abs(high)))
    want = cubic_step_reference(cubic.tolist())
    assert _line_search(moments_for(cubic, bb)) == pytest.approx(want, rel=1e-9, abs=1e-9 * size)


def test_closed_form_roots_of_hand_cubics():
    # (x - 1)^3: a triple root
    assert _real_roots(1.0, -3.0, 3.0, -1.0) == pytest.approx((1.0,))
    # 2 (x^3 - x): -1, 0, 1
    assert sorted(_real_roots(2.0, 0.0, -2.0, 0.0)) == pytest.approx([-1.0, 0.0, 1.0], abs=1e-15)
    # x^3 + x - 2 = (x - 1)(x^2 + x + 2): one real root
    assert _real_roots(1.0, 0.0, 1.0, -2.0) == pytest.approx((1.0,))


def alignment(q, h):
    # |cos| of the angle between q and h, blind to scale and global phase
    return abs(np.vdot(q, h)) / (np.linalg.norm(q) * np.linalg.norm(h))


@pytest.mark.parametrize("M, seed", [(16, 1), (64, 2), (256, 3)])
def test_spectral_start_points_along_the_channel(monkeypatch, M, seed):
    # on noiseless rank-1 powers of 4M random codebook beams, the power
    # iterations turn the random vector they start from toward the hidden
    # channel h; with no iterations the start is that random vector
    rng = np.random.default_rng(40 + seed)
    h = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    beams = codebook_buffer(rng, 4 * M, M)
    powers = np.abs(beams.conj() @ h) ** 2
    buffer = beams.astype(np.complex64)
    spectral = initialize_critic(buffer, powers, seed=seed)
    monkeypatch.setattr(critic, "SPECTRAL_ITERS", 0)
    random = initialize_critic(buffer, powers, seed=seed)
    for q in (spectral, random):
        assert np.mean(predicted(q, beams)) == pytest.approx(np.mean(powers), rel=1e-5)
    assert alignment(spectral, h) > alignment(random, h)


def one_path_scene(M, point, seed):
    # 2M random 3-bit codebook beams of an M-element random array spanning
    # (M - 1) half-wavelengths at 100 GHz, and the noiseless powers
    # |w^H h|^2 of the spherical wave h = exp(-j k d) / d from `point`
    f_c = 100e9
    geom = random_geometry(M, (M - 1) * SPEED_OF_LIGHT / f_c / 2.0, seed=seed)
    d = point_distances(geom, *point)
    h = np.exp(-2j * np.pi * f_c / SPEED_OF_LIGHT * d) / d
    beams = codebook_buffer(np.random.default_rng(seed), 2 * M, M)
    return geom, f_c, h, beams.astype(np.complex64), np.abs(beams.conj() @ h) ** 2


@pytest.mark.parametrize("M, point, seed", [(128, (1.0, -0.5), 0), (256, (2.0, -2.0), 1)])
def test_model_critic_locates_a_one_path_user_from_2m_beams(M, point, seed):
    # the model critic of 2M beams is a unit-modulus wave times sqrt(g)
    # whose phases focus within 1 cm of the user, and it predicts the
    # power of the channel's own conjugate beam within RMS_TOL
    geom, f_c, h, beams, powers = one_path_scene(M, point, seed)
    q = model_critic(beams, powers, geom, f_c)
    assert np.allclose(np.abs(q), np.abs(q[0]), rtol=1e-12)
    x, y, _ = locate_focus(np.angle(q), geom, f_c)
    assert np.hypot(x - point[0], y - point[1]) <= 0.01
    matched = beam_from_phases(np.angle(h))
    truth = abs(np.vdot(matched, h)) ** 2
    assert predicted(q, matched) == pytest.approx(truth, rel=RMS_TOL)


def test_model_critic_scales_with_the_powers():
    # the search runs on powers over their peak, so scaling the powers
    # scales g alone, even where the scores would underflow
    geom, f_c, _, beams, powers = one_path_scene(128, (1.0, -0.5), 0)
    q = model_critic(beams, powers, geom, f_c)
    assert np.allclose(model_critic(beams, 1e-300 * powers, geom, f_c), 1e-150 * q, rtol=1e-12)


@pytest.mark.parametrize("peak", [0.0, np.inf, np.nan])
def test_model_critic_declines_powers_without_a_positive_finite_peak(peak):
    geom, f_c, _, beams, powers = one_path_scene(128, (1.0, -0.5), 0)
    powers = np.zeros_like(powers)
    powers[3] = peak
    assert model_critic(beams, powers, geom, f_c) is None
    assert model_critic(beams[:0], powers[:0], geom, f_c) is None
