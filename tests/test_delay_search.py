import numpy as np
import pytest

from beamfocus.channel import SystemConfig, near_field_channel
from beamfocus.combiner import CombinerConfig, PhaseCodebook, recompensate_phases
from beamfocus.delay_search import (
    SEARCH_BLOCK,
    DelayGrid,
    DelaySearchResult,
    delays_from_approx,
    delays_from_ddf,
    grid_candidates,
    linear_ddf,
    search_delays,
    subarray_deltas,
    write_search_trace_csv,
)
from beamfocus.baselines import ps_only_oracle
from beamfocus.geometry import SPEED_OF_LIGHT, UePosition, random_geometry, uniform_geometry
from beamfocus.sim import measure_profile_powers


def make_cfg(M, N, K=16, fc=100e9, B=10e9, tau_max=2e-9, noise=0.0):
    return SystemConfig(
        num_antennas=M,
        num_td_units=N,
        ps_per_td=M // N,
        num_subcarriers=K,
        center_freq_hz=fc,
        bandwidth_hz=B,
        tau_max_s=tau_max,
        noise_power_w=noise,
    )


def test_linear_ddf_endpoints():
    ap = (0.7, -0.4, 0.9)
    assert linear_ddf(ap, 0.0) == 0.0
    assert linear_ddf(ap, 2.0) == pytest.approx(0.9, abs=1e-15)


def test_linear_ddf_second_branch_value():
    ap = (1.0, -0.5, 0.5)
    # slope of the second branch is 1; half a step past the breakpoint
    assert linear_ddf(ap, 1.5) == pytest.approx(0.0, abs=1e-15)


def test_linear_ddf_continuity_at_breakpoint():
    for ap in ((0.6, 0.2, -0.7), (1.4, -0.9, 1.0)):
        break_delta, break_value, _ = ap
        left = linear_ddf(ap, break_delta - 1e-9)
        right = linear_ddf(ap, break_delta + 1e-9)
        assert left == pytest.approx(right, abs=1e-8)
        assert linear_ddf(ap, break_delta) == pytest.approx(break_value, abs=1e-12)


def test_linear_ddf_degenerate_breakpoints():
    # breakpoint at 0 degenerates to the single chord through (2, end_value)
    ap0 = (0.0, 0.0, 1.0)
    assert linear_ddf(ap0, 1.0) == pytest.approx(0.5)
    assert linear_ddf(ap0, 2.0) == pytest.approx(1.0)
    # breakpoint at 2 leaves only the first segment
    ap2 = (2.0, 0.8, -0.3)
    assert linear_ddf(ap2, 1.0) == pytest.approx(0.4)
    assert linear_ddf(ap2, 2.0) == pytest.approx(0.8)


def test_linear_approx_validation():
    with pytest.raises(ValueError):
        linear_ddf((1.0, 0.0, 0.0), 2.3)
    with pytest.raises(ValueError):
        linear_ddf((1.0, 0.0, 0.0), -0.1)


def test_subarray_deltas_ula():
    geom = uniform_geometry(4, 2.0)
    assert np.allclose(subarray_deltas(geom, 2, 2), [1 / 3, 5 / 3])


def test_subarray_deltas_degenerate_groupings():
    geom = random_geometry(6, 1.0, seed=1)
    # one sub-array spanning the whole array
    d1 = subarray_deltas(geom, 1, 6)
    assert d1.shape == (1,)
    assert d1[0] == pytest.approx(1 - 0.5 * (geom.alphas[0] + geom.alphas[-1]))
    # one TD unit per element: delta_m = 1 - alpha_m
    dm = subarray_deltas(geom, 6, 1)
    assert np.allclose(dm, 1 - geom.alphas)
    assert np.all(np.diff(dm) > 0)
    with pytest.raises(ValueError):
        subarray_deltas(geom, 4, 2)


def test_delays_from_approx_zero_curve():
    tau = delays_from_approx((1.0, 0.0, 0.0), np.array([0.0, 1.0, 2.0]), 1e-9)
    assert np.all(tau == 0.0)


def test_delays_from_approx_shift_by_minimum():
    D = 1.0
    tau = delays_from_approx((1.0, -D / 2, 0.0), np.array([0.0, 1.0, 2.0]), 1.0)
    c = SPEED_OF_LIGHT
    assert np.allclose(tau, [D / (2 * c), 0.0, D / (2 * c)])
    assert tau.min() == 0.0


def test_delays_from_approx_clipping():
    ap = (1.0, -0.5, 0.5)
    tau = delays_from_approx(ap, np.array([0.0, 1.0, 2.0]), 0.0)
    assert np.all(tau == 0.0)
    tau_max = 1e-12
    tau2 = delays_from_approx(ap, np.linspace(0, 2, 7), tau_max)
    assert tau2.min() == 0.0
    assert tau2.max() <= tau_max


def test_grid_candidates_structure():
    grid = DelayGrid(ax_points=3, ay_points=3, b_points=3)
    cands = grid_candidates(grid, aperture=1.0)
    assert cands.shape == (1 + 3 * 3 * 3 - 2 * 3, 3)  # ax = 0 leaves one break_value
    assert cands[0].tolist() == [1.0, 0.0, 0.0]  # injected zero-delay candidate
    for break_delta, break_value, end_value in cands:
        assert 0.0 <= break_delta <= 2.0
        assert abs(break_value) <= 0.5 * break_delta + 1e-12
        assert abs(end_value) <= 1.0 + 1e-12


def test_grid_candidates_single_point_axes():
    cands = grid_candidates(DelayGrid(1, 1, 1), aperture=2.0)
    assert cands.tolist() == [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]


def scene(M=16, N=4, K=32, seed=0):
    cfg = make_cfg(M, N, K=K)
    geom = random_geometry(M, 0.02, seed=seed)
    H = near_field_channel(geom, UePosition(1.0, -0.7), cfg)
    return cfg, geom, H


def profile_measure(H, cfg):
    def measure(cc):
        return measure_profile_powers(cc, H, cfg)

    return measure


def test_search_single_point_grid_scores_ps_only():
    cfg, geom, H = scene()
    cb = PhaseCodebook(bits=3)
    theta_star = ps_only_oracle(H, cfg, cb).theta
    result = search_delays(
        theta_star, profile_measure(H, cfg), geom, cfg, cb, DelayGrid(1, 1, 1)
    )
    assert np.all(result.tau == 0.0)
    assert result.score == result.ps_only_score


def test_search_never_below_ps_only():
    cb = PhaseCodebook(bits=3)
    for seed in range(5):
        cfg, geom, H = scene(seed=seed)
        theta_star = ps_only_oracle(H, cfg, cb).theta
        result = search_delays(
            theta_star, profile_measure(H, cfg), geom, cfg, cb, DelayGrid(3, 5, 5)
        )
        assert result.score >= result.ps_only_score
        assert result.tau.min() >= 0.0
        assert result.tau.max() <= cfg.tau_max_s


def test_search_single_td_unit_matches_ps_only_score():
    # one TD unit is a common delay, which gains nothing
    cfg, geom, H = scene(M=8, N=1)
    cb = PhaseCodebook(bits=3)
    theta_star = ps_only_oracle(H, cfg, cb).theta
    result = search_delays(
        theta_star, profile_measure(H, cfg), geom, cfg, cb, DelayGrid(3, 3, 3)
    )
    assert result.score == pytest.approx(result.ps_only_score, rel=1e-9)


def test_search_deterministic():
    cfg, geom, H = scene(seed=2)
    cb = PhaseCodebook(bits=3)
    theta_star = ps_only_oracle(H, cfg, cb).theta
    r1 = search_delays(theta_star, profile_measure(H, cfg), geom, cfg, cb, DelayGrid(3, 5, 5))
    r2 = search_delays(theta_star, profile_measure(H, cfg), geom, cfg, cb, DelayGrid(3, 5, 5))
    assert np.array_equal(r1.tau, r2.tau)
    assert r1.score == r2.score


def test_search_improves_wideband_gain():
    # with several TD units the searched config clearly beats zero delays
    cfg, geom, H = scene(M=32, N=8, K=64, seed=4)
    cb = PhaseCodebook(bits=3)
    theta_star = ps_only_oracle(H, cfg, cb).theta
    result = search_delays(
        theta_star, profile_measure(H, cfg), geom, cfg, cb, DelayGrid(9, 17, 17)
    )
    assert result.score > result.ps_only_score


def test_search_trace_csv(tmp_path):
    cfg, geom, H = scene(M=8, N=2, K=8)
    cb = PhaseCodebook(bits=3)
    theta_star = ps_only_oracle(H, cfg, cb).theta
    result = search_delays(
        theta_star, profile_measure(H, cfg), geom, cfg, cb, DelayGrid(2, 3, 3)
    )
    path = tmp_path / "trace.csv"
    write_search_trace_csv(result, path, header_comment="# run = test\n")
    lines = path.read_text().splitlines()
    assert lines[0] == "# run = test"
    assert lines[1] == "ax,ay,b,score_amplitude_mean,score_db_rel_ps_only"
    assert len(lines) == 2 + len(result.trace)
    first = lines[2].split(",")
    assert float(first[4]) == pytest.approx(0.0)  # zero candidate relative to itself


def reference_linear_ddf(ap, delta: np.ndarray) -> np.ndarray:
    # the scalar-parameter form of the piecewise-linear curve for one
    # (break_delta, break_value, end_value) row
    ax, ay, b = (float(v) for v in ap)
    if ax == 0.0:
        return 0.5 * b * delta
    if ax == 2.0:
        return (ay / ax) * delta
    return np.where(delta <= ax, (ay / ax) * delta, (b - ay) / (2.0 - ax) * (delta - ax) + ay)


def reference_search_delays(theta_star, measure, geom, cfg, cb, grid):
    """One candidate at a time: delays, recompensation, measurement, score."""
    theta_star = np.atleast_1d(np.asarray(theta_star, dtype=float))
    deltas = subarray_deltas(geom, cfg.num_td_units, cfg.ps_per_td)
    best_score = -np.inf
    best_tau = best_theta = None
    ps_only_score = None
    trace = []
    for ap in grid_candidates(grid, geom.aperture):
        tau = delays_from_ddf(reference_linear_ddf(ap, deltas), cfg.tau_max_s)
        theta = recompensate_phases(theta_star, tau, cfg, cb)
        powers = np.asarray(measure(CombinerConfig(theta=theta, tau=tau)), dtype=float)
        score = float(np.mean(np.sqrt(np.maximum(powers, 0.0))))
        if ps_only_score is None:
            ps_only_score = score
        trace.append((*(float(v) for v in ap), score))
        if score > best_score:
            best_score, best_tau, best_theta = score, tau, theta
    return DelaySearchResult(best_tau, best_theta, best_score, ps_only_score, trace)


def test_vectorized_linear_ddf_equals_scalar_form():
    geom = random_geometry(64, 0.05, seed=5)
    deltas = subarray_deltas(geom, 16, 4)
    cands = grid_candidates(DelayGrid(9, 17, 17), geom.aperture)
    rows = linear_ddf(cands, deltas)
    assert rows.shape == (len(cands), deltas.size)
    for ap, row in zip(cands, rows):
        assert np.array_equal(row, reference_linear_ddf(ap, deltas))
        assert np.array_equal(row, linear_ddf(ap, deltas))


def noisy_profile_measure(H, cfg, seed):
    rng = np.random.default_rng(seed)

    def measure(cc):
        return measure_profile_powers(cc, H, cfg, snapshots=50, rng=rng)

    return measure


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize(
    "M, N, grid",
    [
        (16, 4, DelayGrid(3, 5, 5)),
        (16, 8, DelayGrid(9, 17, 17)),
        (64, 4, DelayGrid(5, 9, 7)),
        (64, 16, DelayGrid(9, 17, 17)),
    ],
)
def test_blocked_search_equals_per_candidate_loop(M, N, grid, noisy):
    cfg = make_cfg(M, N, K=32, noise=1e-9 if noisy else 0.0)
    geom = random_geometry(M, 0.02 * M / 16, seed=M + N)
    H = near_field_channel(geom, UePosition(1.0, -0.7), cfg)
    cb = PhaseCodebook(bits=3)
    theta_star = ps_only_oracle(H, cfg, cb).theta
    assert len(grid_candidates(grid, geom.aperture)) % SEARCH_BLOCK != 0

    def measure(seed):
        return noisy_profile_measure(H, cfg, seed) if noisy else profile_measure(H, cfg)

    got = search_delays(theta_star, measure(11), geom, cfg, cb, grid)
    want = reference_search_delays(theta_star, measure(11), geom, cfg, cb, grid)
    assert got.trace == want.trace
    assert np.array_equal(got.tau, want.tau)
    assert np.array_equal(got.theta, want.theta)
    assert got.score == want.score
    assert got.ps_only_score == want.ps_only_score


def test_search_ties_keep_the_earliest_candidate():
    # every candidate scores the same, so the zero-delay candidate wins
    cfg, geom, H = scene()
    cb = PhaseCodebook(bits=3)

    def flat(cc):
        return np.ones(cc.theta.shape[:-1] + (4,))

    result = search_delays(np.zeros(cfg.num_antennas), flat, geom, cfg, cb, DelayGrid(9, 17, 17))
    assert result.score == result.ps_only_score == 1.0
    assert np.all(result.tau == 0.0)
