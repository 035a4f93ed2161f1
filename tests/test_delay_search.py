import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from beamfocus import cli, delay_search
from beamfocus.channel import ChannelMatrix, SystemConfig, near_field_channel
from beamfocus.cli import decimate_channel, search_pipeline
from beamfocus.combiner import CombinerConfig, PhaseCodebook, recompensate_phases
from beamfocus.config import (
    ExperimentConfig,
    build_channel,
    build_codebook,
    build_geometry,
    build_system,
    build_ue,
)
from beamfocus.delay_search import (
    CHECK_TOL,
    REFINE_ROUNDS,
    SEARCH_BLOCK,
    SEED_COHERENCE,
    DelaySearchResult,
    ScoredRows,
    check_prediction,
    delays_from_ddf,
    linear_ddf,
    search_delays,
    seed_position,
    subarray_deltas,
    write_search_trace_csv,
)
from beamfocus.focus import locate_focus
from beamfocus.baselines import pdf_oracle, ps_only_oracle
from beamfocus.geometry import (
    SPEED_OF_LIGHT,
    UePosition,
    distance_difference,
    random_geometry,
    uniform_geometry,
)
from beamfocus.sim import avg_amplitude_gain, make_profile_measure
from beam_model import conjugate_phases


def make_cfg(M, N, K=16, fc=100e9, B=10e9, tau_max=2e-9, noise=0.0):
    return SystemConfig(
        num_antennas=M,
        num_td_units=N,
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


def test_linear_ddf_rejects_delta_outside_the_box():
    with pytest.raises(ValueError):
        linear_ddf((1.0, 0.0, 0.0), 2.3)
    with pytest.raises(ValueError):
        linear_ddf((1.0, 0.0, 0.0), -0.1)


def test_subarray_deltas_ula():
    geom = uniform_geometry(4, 2.0)
    assert np.allclose(subarray_deltas(geom, 2), [1 / 3, 5 / 3])


def test_subarray_deltas_degenerate_groupings():
    geom = random_geometry(6, 1.0, seed=1)
    # one sub-array spanning the whole array
    d1 = subarray_deltas(geom, 1)
    assert d1.shape == (1,)
    assert d1[0] == pytest.approx(1 - 0.5 * (geom.alphas[0] + geom.alphas[-1]))
    # one TD unit per element: delta_m = 1 - alpha_m
    dm = subarray_deltas(geom, 6)
    assert np.allclose(dm, 1 - geom.alphas)
    assert np.all(np.diff(dm) > 0)
    for N in (4, 0):
        with pytest.raises(ValueError):
            subarray_deltas(geom, N)


def row_delays(params, deltas, tau_max):
    # the delay vectors of approximation rows at `deltas`, as search_delays computes them
    return delays_from_ddf(linear_ddf(params, deltas), tau_max)


def test_delays_from_ddf_zero_curve():
    tau = row_delays((1.0, 0.0, 0.0), np.array([0.0, 1.0, 2.0]), 1e-9)
    assert np.all(tau == 0.0)


def test_delays_from_ddf_shift_by_minimum():
    D = 1.0
    tau = row_delays((1.0, -D / 2, 0.0), np.array([0.0, 1.0, 2.0]), 1.0)
    c = SPEED_OF_LIGHT
    assert np.allclose(tau, [D / (2 * c), 0.0, D / (2 * c)])
    assert tau.min() == 0.0


def test_delays_from_ddf_clipping():
    ap = (1.0, -0.5, 0.5)
    tau = row_delays(ap, np.array([0.0, 1.0, 2.0]), 0.0)
    assert np.all(tau == 0.0)
    tau_max = 1e-12
    tau2 = row_delays(ap, np.linspace(0, 2, 7), tau_max)
    assert tau2.min() == 0.0
    assert tau2.max() <= tau_max


def grid_candidates(points: tuple, aperture: float) -> np.ndarray:
    """The full (ax, ay, b)-point grid as (C, 3) rows, zero-delay row first.

    Each row is (break_delta, break_value, end_value). break_delta sweeps
    [0, 2], break_value sweeps its aperture-bounded range |break_value| <=
    (D/2) break_delta, and end_value sweeps [-D, D]; single-point axes sit
    at the range center. It is the full-grid reference for the
    coarse-to-fine search.
    """
    ax_points, ay_points, b_points = points
    half = 0.5 * aperture
    ax_vals = np.linspace(0.0, 2.0, ax_points) if ax_points > 1 else [1.0]
    b_vals = np.linspace(-aperture, aperture, b_points) if b_points > 1 else [0.0]
    rows = [(1.0, 0.0, 0.0)]
    for ax in ax_vals:
        ay_range = half * ax
        if ay_points > 1:
            ay_vals = np.unique(np.linspace(-ay_range, ay_range, ay_points))
        else:
            ay_vals = [0.0]
        rows.extend((ax, ay, b) for ay in ay_vals for b in b_vals)
    return np.array(rows, dtype=float)


def test_grid_candidates_structure():
    cands = grid_candidates((3, 3, 3), aperture=1.0)
    assert cands.shape == (1 + 3 * 3 * 3 - 2 * 3, 3)  # ax = 0 leaves one break_value
    assert cands[0].tolist() == [1.0, 0.0, 0.0]  # injected zero-delay candidate
    for break_delta, break_value, end_value in cands:
        assert 0.0 <= break_delta <= 2.0
        assert abs(break_value) <= 0.5 * break_delta + 1e-12
        assert abs(end_value) <= 1.0 + 1e-12


def test_grid_candidates_single_point_axes():
    cands = grid_candidates((1, 1, 1), aperture=2.0)
    assert cands.tolist() == [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]


def scene(M=16, N=4, K=32, seed=0):
    cfg = make_cfg(M, N, K=K)
    geom = random_geometry(M, 0.02, seed=seed)
    H = near_field_channel(geom, UePosition(1.0, -0.7), cfg)
    return cfg, geom, H


def profile_measure(H, cfg):
    return make_profile_measure(ExperimentConfig(), H, cfg)


def focus_seed(theta, geom, cfg, points):
    """The start search_pipeline picks for theta: its focus's seed row, or None."""
    return seed_position(locate_focus(theta, geom, cfg.center_freq_hz), geom, points)


def test_search_single_point_grid_scores_ps_only():
    cfg, geom, H = scene()
    cb = PhaseCodebook(bits=3)
    theta_star = ps_only_oracle(H, cfg, cb).theta
    seed = focus_seed(theta_star, geom, cfg, (1, 1, 1))
    scorer = ScoredRows(theta_star, profile_measure(H, cfg), geom, cfg, cb)
    result = search_delays(scorer, (1, 1, 1), seed)
    assert np.all(result.tau == 0.0)
    assert result.score == result.ps_only_score


def test_search_never_below_ps_only():
    cb = PhaseCodebook(bits=3)
    for seed in range(5):
        cfg, geom, H = scene(seed=seed)
        theta_star = ps_only_oracle(H, cfg, cb).theta
        seed = focus_seed(theta_star, geom, cfg, (3, 5, 5))
        scorer = ScoredRows(theta_star, profile_measure(H, cfg), geom, cfg, cb)
        result = search_delays(scorer, (3, 5, 5), seed)
        assert result.score >= result.ps_only_score
        assert result.tau.min() >= 0.0
        assert result.tau.max() <= cfg.tau_max_s


def test_search_single_td_unit_matches_ps_only_score():
    # one TD unit is a common delay, which gains nothing
    cfg, geom, H = scene(M=8, N=1)
    cb = PhaseCodebook(bits=3)
    theta_star = ps_only_oracle(H, cfg, cb).theta
    seed = focus_seed(theta_star, geom, cfg, (3, 3, 3))
    scorer = ScoredRows(theta_star, profile_measure(H, cfg), geom, cfg, cb)
    result = search_delays(scorer, (3, 3, 3), seed)
    assert result.score == pytest.approx(result.ps_only_score, rel=1e-9)


def test_search_deterministic():
    cfg, geom, H = scene(seed=2)
    cb = PhaseCodebook(bits=3)
    theta_star = ps_only_oracle(H, cfg, cb).theta
    seed = focus_seed(theta_star, geom, cfg, (3, 5, 5))
    scorer = ScoredRows(theta_star, profile_measure(H, cfg), geom, cfg, cb)
    r1 = search_delays(scorer, (3, 5, 5), seed)
    scorer = ScoredRows(theta_star, profile_measure(H, cfg), geom, cfg, cb)
    r2 = search_delays(scorer, (3, 5, 5), seed)
    assert np.array_equal(r1.tau, r2.tau)
    assert np.array_equal(r1.theta, r2.theta)
    assert r1.score == r2.score
    assert r1.trace == r2.trace


def test_search_improves_wideband_gain():
    # with several TD units the searched config clearly beats zero delays
    cfg, geom, H = scene(M=32, N=8, K=64, seed=4)
    cb = PhaseCodebook(bits=3)
    theta_star = ps_only_oracle(H, cfg, cb).theta
    seed = focus_seed(theta_star, geom, cfg, (9, 17, 17))
    scorer = ScoredRows(theta_star, profile_measure(H, cfg), geom, cfg, cb)
    result = search_delays(scorer, (9, 17, 17), seed)
    assert result.score > result.ps_only_score


def test_search_trace_csv(tmp_path):
    cfg, geom, H = scene(M=8, N=2, K=8)
    cb = PhaseCodebook(bits=3)
    theta_star = ps_only_oracle(H, cfg, cb).theta
    seed = focus_seed(theta_star, geom, cfg, (2, 3, 3))
    scorer = ScoredRows(theta_star, profile_measure(H, cfg), geom, cfg, cb)
    result = search_delays(scorer, (2, 3, 3), seed)
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
    """The full-grid search: every grid_candidates row, SEARCH_BLOCK at a time."""
    theta_star = np.atleast_1d(np.asarray(theta_star, dtype=float))
    deltas = subarray_deltas(geom, cfg.num_td_units)
    params = grid_candidates(grid, geom.aperture)
    best_score = -np.inf
    best_tau = best_theta = None
    trace = []
    for start in range(0, len(params), SEARCH_BLOCK):
        rows = params[start : start + SEARCH_BLOCK]
        tau = row_delays(rows, deltas, cfg.tau_max_s)
        theta = recompensate_phases(theta_star, tau, cfg, cb)
        powers = np.asarray(measure(CombinerConfig(theta=theta, tau=tau)), dtype=float)
        scores = np.mean(np.sqrt(np.maximum(powers, 0.0)), axis=-1)
        trace.extend((*row, float(score)) for row, score in zip(rows.tolist(), scores))
        i = int(np.argmax(scores))
        if scores[i] > best_score:
            best_score, best_tau, best_theta = float(scores[i]), tau[i], theta[i]
    return DelaySearchResult(best_tau, best_theta, best_score, trace[0][3], trace)


def test_vectorized_linear_ddf_equals_scalar_form():
    geom = random_geometry(64, 0.05, seed=5)
    deltas = subarray_deltas(geom, 16)
    cands = grid_candidates((9, 17, 17), geom.aperture)
    rows = linear_ddf(cands, deltas)
    assert rows.shape == (len(cands), deltas.size)
    for ap, row in zip(cands, rows):
        assert np.array_equal(row, reference_linear_ddf(ap, deltas))
        assert np.array_equal(row, linear_ddf(ap, deltas))


def noisy_profile_measure(H, cfg, seed):
    return make_profile_measure(ExperimentConfig(learner_seed=seed, snapshots=50), H, cfg)


def blocked_and_per_candidate_searches(M, N, grid, noisy, monkeypatch, seeded):
    """The same search blocked and with one candidate per measurement call.

    It starts from the located focus's seed row if `seeded`, else from the
    coarse pass.
    """
    cfg = make_cfg(M, N, K=32, noise=1e-9 if noisy else 0.0)
    geom = random_geometry(M, 0.02 * M / 16, seed=M + N)
    H = near_field_channel(geom, UePosition(1.0, -0.7), cfg)
    cb = PhaseCodebook(bits=3)
    theta_star = ps_only_oracle(H, cfg, cb).theta
    calls = []

    def measure(seed):
        inner = noisy_profile_measure(H, cfg, seed) if noisy else profile_measure(H, cfg)

        def counted(cc):
            calls.append(len(cc.theta))
            return inner(cc)

        return counted

    seed = focus_seed(theta_star, geom, cfg, grid) if seeded else None
    got = search_delays(ScoredRows(theta_star, measure(11), geom, cfg, cb), grid, seed)
    blocked_calls = len(calls)
    calls.clear()
    monkeypatch.setattr(delay_search, "SEARCH_BLOCK", 1)
    want = search_delays(ScoredRows(theta_star, measure(11), geom, cfg, cb), grid, seed)
    assert calls == [1] * len(want.trace)
    assert blocked_calls < len(calls)
    assert got.trace == want.trace
    assert np.array_equal(got.tau, want.tau)
    assert np.array_equal(got.theta, want.theta)
    assert got.score == want.score
    assert got.ps_only_score == want.ps_only_score
    return got


BLOCKED_SCENES = pytest.mark.parametrize(
    "M, N, grid",
    [
        (16, 4, (3, 5, 5)),
        (16, 8, (9, 17, 17)),
        (64, 4, (5, 9, 7)),
        (64, 16, (9, 17, 17)),
    ],
)


@pytest.mark.parametrize("noisy", [False, True])
@BLOCKED_SCENES
def test_blocked_search_equals_per_candidate_loop(M, N, grid, noisy, monkeypatch):
    # the coarse pass of the (9, 17, 17) grids spans several SEARCH_BLOCK
    # blocks; under noise the random stream carries on across them
    got = blocked_and_per_candidate_searches(M, N, grid, noisy, monkeypatch, seeded=False)
    if grid == (9, 17, 17):
        assert len(got.trace) > SEARCH_BLOCK


@pytest.mark.parametrize("noisy", [False, True])
@BLOCKED_SCENES
def test_seeded_blocked_search_equals_per_candidate_loop(M, N, grid, noisy, monkeypatch):
    got = blocked_and_per_candidate_searches(M, N, grid, noisy, monkeypatch, seeded=True)
    assert len(got.trace) <= 2 + 6 * REFINE_ROUNDS


def test_fallback_evaluates_a_block_of_rows_at_a_time(monkeypatch):
    # the coarse pass of the (9, 17, 17) grid has 406 rows: linear_ddf sees
    # at most SEARCH_BLOCK of them at once, and the measurement blocks, the
    # trace and the result are those of one evaluation of every row
    cfg, geom, H = scene(M=64, N=16, K=32, seed=2)
    cb = PhaseCodebook(bits=3)
    theta_star = ps_only_oracle(H, cfg, cb).theta
    profile = profile_measure(H, cfg)
    rows, sizes = [], []

    def spy_ddf(params, delta):
        rows.append(len(params))
        return linear_ddf(params, delta)

    def measure(cc):
        sizes.append(len(cc.tau))
        return profile(cc)

    monkeypatch.setattr(delay_search, "linear_ddf", spy_ddf)
    got = search_delays(ScoredRows(theta_star, measure, geom, cfg, cb), (9, 17, 17), None)
    assert max(rows) == SEARCH_BLOCK and sum(rows) > 3 * SEARCH_BLOCK
    blocked_sizes = sizes[:]
    rows.clear()
    sizes.clear()
    monkeypatch.setattr(delay_search, "SEARCH_BLOCK", 10**6)
    want = search_delays(ScoredRows(theta_star, measure, geom, cfg, cb), (9, 17, 17), None)
    assert rows[0] > 3 * SEARCH_BLOCK  # every coarse row in one evaluation
    fresh = sizes[0]
    full, rest = divmod(fresh, SEARCH_BLOCK)
    coarse = [SEARCH_BLOCK] * full + ([rest] if rest else [])
    assert blocked_sizes == coarse + sizes[1:]
    assert got.trace == want.trace
    assert np.array_equal(got.tau, want.tau)
    assert np.array_equal(got.theta, want.theta)
    assert got.score == want.score


def test_a_scored_row_keeps_far_less_memory_than_its_delay_vector():
    # at N = 256 a delay vector is 2,048 bytes; the search remembers each
    # scored vector by a fixed-size key, so a scored row costs far less
    # memory than its vector. The blocks' buffers cancel in the difference
    # of two grids' traced peaks.
    M = N = 256
    cfg = make_cfg(M, N, K=4)
    geom = random_geometry(M, 0.05, seed=0)
    cb = PhaseCodebook(bits=3)

    def stub(cc):
        return np.ones((len(cc.tau), 1))

    def peak_and_rows(points):
        tracemalloc.start()
        try:
            scorer = ScoredRows(np.zeros(M), stub, geom, cfg, cb)
            result = search_delays(scorer, (points,) * 3, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, len(result.trace)

    small, large = peak_and_rows(17), peak_and_rows(33)
    assert large[1] - small[1] > 3000
    assert (large[0] - small[0]) / (large[1] - small[1]) < 1024


def tie_search(seeded):
    # every candidate scores the same, so the zero-delay candidate wins
    cfg, geom, H = scene()
    cb = PhaseCodebook(bits=3)
    theta, grid = np.zeros(cfg.num_antennas), (9, 17, 17)

    def flat(cc):
        return np.ones(cc.theta.shape[:-1] + (4,))

    seed = focus_seed(theta, geom, cfg, grid) if seeded else None
    result = search_delays(ScoredRows(theta, flat, geom, cfg, cb), grid, seed)
    assert result.trace[0][:3] == (1.0, 0.0, 0.0)
    assert result.score == result.ps_only_score == 1.0
    assert np.all(result.tau == 0.0)
    return result


def test_search_ties_keep_the_earliest_candidate():
    # the ties span more than one block of the coarse pass
    assert len(tie_search(seeded=False).trace) > SEARCH_BLOCK


def test_seeded_search_ties_keep_the_earliest_candidate():
    # zero phases focus far out on broadside, so the search starts from a seed
    assert len(tie_search(seeded=True).trace) <= 2 + 6 * REFINE_ROUNDS


def coarse_count(grid: tuple) -> int:
    """Rows of the zero-delay row plus the coarse pass, each row once.

    The coarse pass has m = (n + 1) // 2 points per axis; at break_delta =
    0 every break_value gives the same row, and the zero-delay row is a
    coarse point when every m is odd.
    """
    m = [(n + 1) // 2 for n in grid]
    rows = (m[0] - 1) * m[1] * m[2] + m[2] if m[0] > 1 else m[1] * m[2]
    return rows + (0 if all(k % 2 for k in m) else 1)


SEARCH_GRIDS = [
    (9, 17, 17),
    (5, 5, 5),
    (3, 5, 5),
    (2, 3, 3),
    (4, 6, 8),
    (1, 17, 1),
    (7, 1, 9),
    (1, 1, 1),
]


def trace_delays(result, geom, cfg):
    # the delay vector of each scored row, computed as the search computes it
    rows = np.array([row[:3] for row in result.trace])
    return row_delays(rows, subarray_deltas(geom, cfg.num_td_units), cfg.tau_max_s)


@pytest.mark.parametrize("grid", SEARCH_GRIDS)
def test_search_budget_and_unique_rows(grid):
    cfg, geom, H = scene(M=32, N=8, K=32, seed=3)
    cb = PhaseCodebook(bits=3)
    theta_star = ps_only_oracle(H, cfg, cb).theta
    scorer = ScoredRows(theta_star, profile_measure(H, cfg), geom, cfg, cb)
    result = search_delays(scorer, grid, None)
    rows = [row[:3] for row in result.trace]
    assert len(rows) <= coarse_count(grid) + 6 * REFINE_ROUNDS
    assert len(set(rows)) == len(rows)
    # each delay vector is measured once
    assert len({tau.tobytes() for tau in trace_delays(result, geom, cfg)}) == len(rows)
    assert result.score == max(row[3] for row in result.trace)


@pytest.mark.parametrize("grid", SEARCH_GRIDS)
def test_search_coarse_pass_is_every_other_grid_point(grid, monkeypatch):
    # the coarse pass with (n + 1) // 2 points per axis is the full grid of
    # that size: every other configured point for odd n, ends included. It
    # is one measurement when blocks hold every row; the rows it skips
    # repeat the delay vector of a row it scored
    cfg, geom, H = scene(M=32, N=8, K=32, seed=3)
    cb = PhaseCodebook(bits=3)
    theta_star = ps_only_oracle(H, cfg, cb).theta
    sizes = []
    profile = profile_measure(H, cfg)

    def measure(cc):
        sizes.append(len(cc.tau))
        return profile(cc)

    monkeypatch.setattr(delay_search, "SEARCH_BLOCK", 10**6)
    result = search_delays(ScoredRows(theta_star, measure, geom, cfg, cb), grid, None)
    coarse = np.array([row[:3] for row in result.trace[: sizes[0]]])
    assert coarse[0].tolist() == [1.0, 0.0, 0.0]
    halved = tuple((n + 1) // 2 for n in grid)
    want = grid_candidates(halved, geom.aperture)
    scale = np.array([1.0, geom.aperture, geom.aperture])
    dist = np.abs(coarse[:, None, :] - want[None, :, :]) / scale
    assert np.all(dist.max(axis=-1).min(axis=1) < 1e-12)  # each coarse row is a grid row
    deltas = subarray_deltas(geom, cfg.num_td_units)
    scored = trace_delays(result, geom, cfg)[: sizes[0]]
    wanted = row_delays(want, deltas, cfg.tau_max_s)
    gap = np.abs(wanted[:, None, :] - scored[None, :, :]).max(axis=-1).min(axis=1)
    assert np.all(gap <= 1e-12 * cfg.tau_max_s)  # and each grid row's delays are scored


@pytest.mark.parametrize("grid", SEARCH_GRIDS)
def test_search_final_score_at_least_best_coarse_score(grid):
    cb = PhaseCodebook(bits=3)
    for seed in range(3):
        cfg, geom, H = scene(M=32, N=8, K=32, seed=seed)
        theta_star = ps_only_oracle(H, cfg, cb).theta
        scorer = ScoredRows(theta_star, profile_measure(H, cfg), geom, cfg, cb)
        result = search_delays(scorer, grid, None)
        coarse = [row[3] for row in result.trace[: coarse_count(grid)]]
        assert result.score >= max(coarse)


def test_search_refines_down_to_an_eighth_of_the_spacing(monkeypatch):
    # Delay vectors are replaced by the (ax, ay, b) rows themselves, shifted
    # to be nonnegative, so the measurement can score each row by its
    # distance to a target row. The target sits on the coarse grid in ax and
    # ay and 5/8 of the spacing past a coarse point in b; steps of 1, 1/2 and
    # 1/8 spacing reach it.
    cfg = make_cfg(12, 3)
    geom = uniform_geometry(12, 0.02)
    D = geom.aperture
    shift = np.array([0.0, D, D])
    monkeypatch.setattr(delay_search, "linear_ddf", lambda params, delta: params)
    monkeypatch.setattr(delay_search, "delays_from_ddf", lambda ddf, tau_max: ddf + shift)
    grid = (9, 17, 17)
    spacing = 2.0 * D / (grid[2] - 1)
    target = np.array([1.5, 0.25 * 0.5 * D * 1.5, -0.5 * D + 5 / 8 * spacing])
    scale = np.array([1.0, D, D])

    def measure(cc):
        dist = np.abs(cc.tau - shift - target) / scale
        return (1.0 / (1.0 + dist.sum(axis=-1)))[:, None] ** 2

    scorer = ScoredRows(np.zeros(12), measure, geom, cfg, PhaseCodebook(bits=3))
    result = search_delays(scorer, grid, None)
    best = max(result.trace, key=lambda row: row[3])
    assert result.score == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(best[:3], target, rtol=0.0, atol=1e-12 * D)
    assert len(result.trace) <= coarse_count(grid) + 6 * REFINE_ROUNDS


@pytest.fixture(scope="module")
def reference():
    """The acceptance scenario with oracle phases (M = 256, K = 2048)."""
    ec = ExperimentConfig()
    geom = build_geometry(ec)
    cb = build_codebook(ec)
    H = build_channel(ec, geom, build_system(ec, num_td_units=1))
    theta = ps_only_oracle(H, build_system(ec, num_td_units=1), cb).theta
    return {"ec": ec, "geom": geom, "ue": build_ue(ec), "cb": cb, "H": H, "theta": theta}


@pytest.mark.parametrize("n", [8, 16])
def test_search_matches_the_full_grid_at_reference_scale(reference, n):
    # on the 128-bin decimated channel the search from the focus of the
    # oracle phases and the coarse-to-fine fallback each score within 0.1 dB
    # of the best of all 2,330 grid candidates
    ec, geom, cb = reference["ec"], reference["geom"], reference["cb"]
    cfg = build_system(ec, num_td_units=n)
    measure = make_profile_measure(ec, decimate_channel(reference["H"]), cfg)
    grid = (9, 17, 17)  # the grid.* defaults
    seed = focus_seed(reference["theta"], geom, cfg, grid)
    seeded = search_delays(ScoredRows(reference["theta"], measure, geom, cfg, cb), grid, seed)
    full = reference_search_delays(reference["theta"], measure, geom, cfg, cb, grid)
    fallback = search_delays(ScoredRows(reference["theta"], measure, geom, cfg, cb), grid, None)
    assert len(full.trace) == 2330
    assert len(seeded.trace) <= 2 + 6 * REFINE_ROUNDS
    assert len(fallback.trace) <= coarse_count(grid) + 6 * REFINE_ROUNDS
    for got in (seeded, fallback):
        assert got.score >= 10 ** (-0.1 / 20) * full.score


@pytest.mark.parametrize("grid", SEARCH_GRIDS)
def test_seeded_search_budget_and_unique_rows(grid):
    # oracle phases focus on the user, so the search starts from the seed
    # row: the zero-delay row, the seed row and REFINE_ROUNDS compass rounds
    cfg, geom, H = scene(M=32, N=8, K=32, seed=3)
    cb = PhaseCodebook(bits=3)
    theta_star = ps_only_oracle(H, cfg, cb).theta
    seed = focus_seed(theta_star, geom, cfg, grid)
    assert seed is not None
    scorer = ScoredRows(theta_star, profile_measure(H, cfg), geom, cfg, cb)
    result = search_delays(scorer, grid, seed)
    rows = [row[:3] for row in result.trace]
    assert rows[0] == (1.0, 0.0, 0.0)
    assert result.ps_only_score == result.trace[0][3]
    assert len(rows) <= 2 + 6 * REFINE_ROUNDS
    assert len({tau.tobytes() for tau in trace_delays(result, geom, cfg)}) == len(rows)
    assert result.score == max(row[3] for row in result.trace)
    assert result.score >= result.ps_only_score


def test_random_phases_fall_back_to_the_coarse_pass(reference):
    # random codebook phases focus nowhere: their coherence stays below the
    # seed threshold, so they give no seed and the search takes its coarse pass
    ec, geom, cb = reference["ec"], reference["geom"], reference["cb"]
    draws = [
        cb.values[np.random.default_rng(seed).integers(0, cb.size, geom.num_antennas)]
        for seed in range(8)
    ]
    cfg = build_system(ec, num_td_units=8)
    for theta in draws:
        assert locate_focus(theta, geom, ec.center_freq_hz)[2] < SEED_COHERENCE
        assert focus_seed(theta, geom, cfg, (5, 5, 5)) is None
    measure = make_profile_measure(ec, decimate_channel(reference["H"]), cfg)
    got = search_delays(ScoredRows(draws[0], measure, geom, cfg, cb), (5, 5, 5), None)
    assert len(got.trace) > 2 + 6 * REFINE_ROUNDS


# close, steep and reference points the seed tests focus conjugate phases on
SEED_POINTS = [(0.5, 0.2), (1.5, 1.5), (3.0, -1.0), (2.0, -2.0)]


@pytest.mark.parametrize("point", SEED_POINTS)
def test_seed_row_interpolates_the_focus_distance_differences(reference, point):
    # the seed row is the second row scored; it runs through (0, 0),
    # (1, ddf(1)) and (2, ddf(2)) of the located focus, and its unclipped
    # box position lies inside the box
    ec, geom = reference["ec"], reference["geom"]
    theta = conjugate_phases(geom, ec.center_freq_hz, point)
    x, y, fit = locate_focus(theta, geom, ec.center_freq_hz)
    assert fit >= SEED_COHERENCE
    ddf = distance_difference(geom, np.array([0.0, 1.0, 2.0]), UePosition(x, y))
    D = geom.aperture
    assert abs(ddf[1]) / (0.5 * D) <= 1.0 + 1e-12
    assert abs(ddf[2]) / D <= 1.0 + 1e-12
    cfg = build_system(ec, num_td_units=16)

    def measure(cc):
        return np.ones((len(cc.tau), 4))

    grid = (9, 17, 17)
    start = focus_seed(theta, geom, cfg, grid)
    result = search_delays(ScoredRows(theta, measure, geom, cfg, reference["cb"]), grid, start)
    seed = result.trace[1][:3]
    assert seed[0] == 1.0
    assert np.allclose(linear_ddf(seed, [0.0, 1.0, 2.0]), ddf, rtol=0.0, atol=1e-12)


def test_seed_single_point_axes_stay_at_their_centers(reference):
    ec, geom = reference["ec"], reference["geom"]
    cfg = build_system(ec, num_td_units=16)
    theta = conjugate_phases(geom, ec.center_freq_hz, (3.0, -1.0))
    focus = locate_focus(theta, geom, ec.center_freq_hz)
    full = seed_position(focus, geom, (9, 17, 17))
    assert full[0] == 0.0 and full[1] != 0.0 and full[2] != 0.0
    assert seed_position(focus, geom, (1, 1, 1)) == (0.0, 0.0, 0.0)
    assert seed_position(focus, geom, (9, 1, 17)) == (0.0, 0.0, full[2])
    assert seed_position(focus, geom, (9, 17, 1)) == (0.0, full[1], 0.0)


def test_focal_delays_vanish_where_the_array_is_equidistant():
    # a point on the array axis is equally far from mirrored sub-arrays
    geom = uniform_geometry(16, 0.1)
    cfg = make_cfg(16, 4)
    ue = UePosition(1.0, 0.0)
    tau = pdf_oracle(geom, ue, near_field_channel(geom, ue, cfg), cfg, PhaseCodebook(3)).tau
    assert tau.min() == 0.0
    assert tau[0] == pytest.approx(tau[-1], abs=1e-24)
    assert tau[1] == pytest.approx(tau[2], abs=1e-24)


def test_noisy_search_stays_near_the_oracle(reference):
    # noisy-oracle's settings: greedy refinement must not chase a noisy
    # maximum far from the noiseless optimum
    ec = ExperimentConfig(
        noise_mode="snapshots",
        snapshots=10000,
        noise_power_w=1e-9,
        ax_points=5,
        ay_points=5,
        b_points=5,
    )
    H, geom, cb = reference["H"], reference["geom"], reference["cb"]
    cfg = build_system(ec, num_td_units=16)
    result = search_pipeline(ec, reference["theta"], geom, H, cfg, cb)
    design = avg_amplitude_gain(CombinerConfig(theta=result.theta, tau=result.tau), H, cfg)
    oracle = avg_amplitude_gain(pdf_oracle(geom, reference["ue"], H, cfg, cb), H, cfg)
    assert 20.0 * np.log10(oracle / design) <= 0.5


def test_large_array_search_starts_from_the_located_focus(monkeypatch):
    # M = 1,024 at the default aperture: the oracle phases' focus seeds the
    # search on the model, which scores the zero-delay row, the seed row and
    # 24 compass rows without measuring them; the check measures the
    # zero-delay row and the model's winner, which reads 0.986 of the
    # model's ratio, inside CHECK_TOL, and ends above the zero-delay row
    ec = ExperimentConfig(num_antennas=1024, num_subcarriers=256)
    geom, cb = build_geometry(ec), build_codebook(ec)
    H = build_channel(ec, geom, build_system(ec, num_td_units=1))
    theta = ps_only_oracle(H, build_system(ec, num_td_units=1), cb).theta
    searches = recorded_searches(monkeypatch)
    result = search_pipeline(ec, theta, geom, H, build_system(ec), cb)
    (model,) = searches
    assert len(model.trace) == 2 + 6 * REFINE_ROUNDS
    assert [row[:3] for row in result.trace] == [
        model.trace[0][:3],
        max(model.trace, key=lambda row: row[3])[:3],
    ]
    assert result.score > result.trace[0][3] == result.ps_only_score


def recorded_searches(monkeypatch):
    """The results of every search_delays call search_pipeline makes, in order."""
    results = []
    search = cli.search_delays

    def recorded(*args):
        results.append(search(*args))
        return results[-1]

    monkeypatch.setattr(cli, "search_delays", recorded)
    return results


def counted_rows(monkeypatch):
    """The rows each real measurement callback call measures, in order."""
    rows = []
    make = cli.make_profile_measure

    def counted(*args):
        measure = make(*args)

        def count(cc):
            rows.append(int(np.prod(cc.tau.shape[:-1])))
            return measure(cc)

        return count

    monkeypatch.setattr(cli, "make_profile_measure", counted)
    return rows


def two_path(reference, point=(2.0, 0.5), gain=0.7):
    """The reference channel plus a second spherical wave from `point`."""
    cfg1 = build_system(reference["ec"], num_td_units=1)
    echo = near_field_channel(reference["geom"], UePosition(*point), cfg1).coeffs
    H = reference["H"]
    return ChannelMatrix(coeffs=H.coeffs + gain * echo, freqs_hz=H.freqs_hz)


def test_search_pipeline_measures_only_the_rows_it_traces(reference, monkeypatch):
    # every route's trace lists exactly the rows the real callback measured
    ec, geom, cb = reference["ec"], reference["geom"], reference["cb"]
    cfg = build_system(ec, num_td_units=16)
    rows = counted_rows(monkeypatch)
    searches = recorded_searches(monkeypatch)

    # accepted: the one-path model of the located focus predicts the
    # reference channel, so only its check is measured
    accepted = search_pipeline(ec, reference["theta"], geom, reference["H"], cfg, cb)
    assert rows == [2] and len(accepted.trace) == 2
    assert accepted.score >= accepted.ps_only_score == accepted.trace[0][3]

    # check failed: a second path makes the one-path model mispredict, so
    # the measured search runs on the check's scorer: its trace starts with
    # the 2 check rows, and it measures 24 more, not the zero-delay row again
    rows.clear()
    searches.clear()
    H = two_path(reference)
    theta = ps_only_oracle(H, build_system(ec, num_td_units=1), cb).theta
    failed = search_pipeline(ec, theta, geom, H, cfg, cb)
    model, measured = searches
    assert rows[0] == 2 and sum(rows) == len(failed.trace) == 2 + 24
    assert failed.trace == measured.trace
    assert [row[:3] for row in failed.trace[:2]] == [
        model.trace[0][:3],
        max(model.trace, key=lambda row: row[3])[:3],
    ]
    assert failed.score >= failed.ps_only_score == failed.trace[0][3]

    # coarse pass: random phases focus nowhere, so only the measured search runs
    rows.clear()
    searches.clear()
    theta = cb.values[np.random.default_rng(0).integers(0, cb.size, geom.num_antennas)]
    coarse = search_pipeline(ec, theta, geom, reference["H"], cfg, cb)
    assert len(searches) == 1
    assert sum(rows) == len(coarse.trace) > 2 + 6 * REFINE_ROUNDS
    assert coarse.score >= coarse.ps_only_score


@pytest.mark.parametrize("n", [8, 16])
def test_a_failed_check_traces_the_zero_delay_row_once(reference, monkeypatch, n):
    # the two-path scene fails the check at N = 8 and 16; the measured
    # search takes the check's zero-delay score instead of measuring it again
    ec, geom, cb = reference["ec"], reference["geom"], reference["cb"]
    cfg = build_system(ec, num_td_units=n)
    H = two_path(reference)
    theta = ps_only_oracle(H, build_system(ec, num_td_units=1), cb).theta
    searches = recorded_searches(monkeypatch)
    result = search_pipeline(ec, theta, geom, H, cfg, cb)
    assert len(searches) == 2  # the model's search, then the measured one
    zero = [i for i, row in enumerate(result.trace) if row[:3] == (1.0, 0.0, 0.0)]
    assert zero == [0] and result.ps_only_score == result.trace[0][3]
    assert np.flatnonzero(~trace_delays(result, geom, cfg).any(axis=1)).tolist() == [0]


# the second wave's amplitudes of the delay side's off-model gate, against the user's 1
SECOND_PATH_GAINS = (0.3, 0.5, 0.7, 1.0)


@pytest.mark.parametrize("n", [8, 16])
def test_off_model_scenes_keep_the_measured_search_amplitude(reference, n):
    """search_pipeline on two-path scenes, which the one-path model cannot explain.

    Each scene is the reference channel plus a second spherical wave from
    (2.0, 0.5) m, of 0.3 to 1.0 times the user's amplitude, searched from
    its own PS-only oracle phases. Whether the model's check accepts or
    fails, the pick's mean amplitude must come within 0.1 dB of the
    measured search's from the same seed on a fresh scorer. Test-only: no
    config key builds a second path.
    """
    ec, geom, cb = reference["ec"], reference["geom"], reference["cb"]
    cfg, cfg1 = build_system(ec, num_td_units=n), build_system(ec, num_td_units=1)
    points = (ec.ax_points, ec.ay_points, ec.b_points)
    diffs, details = [], []
    for gain in SECOND_PATH_GAINS:
        H = two_path(reference, gain=gain)
        theta = ps_only_oracle(H, cfg1, cb).theta
        picked = search_pipeline(ec, theta, geom, H, cfg, cb)
        seed = seed_position(locate_focus(theta, geom, ec.center_freq_hz), geom, points)
        rows = ScoredRows(theta, make_profile_measure(ec, decimate_channel(H), cfg), geom, cfg, cb)
        measured = search_delays(rows, points, seed)
        diffs.append(20.0 * np.log10(picked.score / measured.score))
        details.append(f"gain {gain}: {len(picked.trace)} rows measured, {diffs[-1]:+.4f} dB")
    assert max(np.abs(diffs)) <= 0.1, "; ".join(details)


def test_a_failed_check_keeps_a_winner_that_outscores_the_walk(reference):
    # the measurement scores the model's winner 1.5 and every other row 1:
    # the check fails (1.5 against a predicted 2), and the measured walk
    # from the seed ties at 1 and never meets the winner, which differs
    # from the seed on every axis; the search still returns that winner
    ec, geom, cb, theta = reference["ec"], reference["geom"], reference["cb"], reference["theta"]
    cfg = build_system(ec, num_td_units=16)
    D = geom.aperture
    winner = (1.5, -0.5 * (0.5 * D) * 1.5, -0.5 * D)  # box position (0.5, -0.5, -0.5)
    seed = (0.0, 0.5, 0.5)
    predicted = DelaySearchResult(
        tau=np.zeros(16),
        theta=theta,
        score=2.0,
        ps_only_score=1.0,
        trace=[(1.0, 0.0, 0.0, 1.0), (*winner, 2.0)],
    )
    probe = ScoredRows(theta, None, geom, cfg, cb)
    winner_tau = probe.delays(winner)[0]

    def measure(cc):
        hit = np.all(cc.tau == winner_tau, axis=-1)
        return np.where(hit, 1.5**2, 1.0)[:, None] * np.ones(4)

    rows = ScoredRows(theta, measure, geom, cfg, cb)
    assert not check_prediction(predicted, rows)
    assert rows.trace == [(1.0, 0.0, 0.0, 1.0), (*winner, 1.5)]
    result = search_delays(rows, (9, 17, 17), seed)
    assert len(result.trace) > 3 and winner not in [row[:3] for row in result.trace[2:]]
    assert result.trace[1][:3] == winner and result.score == 1.5
    assert np.array_equal(result.tau, winner_tau)
    assert np.array_equal(result.theta, recompensate_phases(theta, winner_tau[None], cfg, cb)[0])


def test_model_reads_only_the_located_focus(reference, monkeypatch):
    # the model is the spherical wave from the point the phases focus on,
    # on the search's bins, whatever the channel and the user position;
    # both channels keep near_field_channel's 1e-11 of the formula
    ec, geom, cb = reference["ec"], reference["geom"], reference["cb"]
    cfg = build_system(ec, num_td_units=8)
    built = []
    synth = cli.near_field_channel

    def recorded(*args):
        built.append(synth(*args))
        return built[-1]

    monkeypatch.setattr(cli, "near_field_channel", recorded)
    H = two_path(reference)
    theta = ps_only_oracle(H, build_system(ec, num_td_units=1), cb).theta
    search_pipeline(ec, theta, geom, H, cfg, cb)
    x, y, _ = locate_focus(theta, geom, ec.center_freq_hz)
    want = near_field_channel(geom, UePosition(x, y), cfg)
    (model,) = built
    assert np.array_equal(model.freqs_hz, decimate_channel(H).freqs_hz)
    assert np.allclose(model.coeffs, decimate_channel(want).coeffs, rtol=1e-10, atol=0.0)


def test_check_fails_when_the_winner_measures_below_its_prediction(reference):
    # the check compares the measured ratio with (1 - CHECK_TOL) times the
    # predicted one: a winner that measures just inside passes, just
    # outside fails, and one below the zero-delay row fails whatever its ratio
    ec, geom, cb, theta = reference["ec"], reference["geom"], reference["cb"], reference["theta"]
    cfg = build_system(ec, num_td_units=16)
    tau = np.zeros(16)
    tau[0] = 1e-12
    predicted = DelaySearchResult(
        tau=tau,
        theta=theta,
        score=2.0,
        ps_only_score=1.0,
        trace=[(1.0, 0.0, 0.0, 1.0), (1.0, 0.1, 0.2, 2.0)],
    )

    def measure_as(zero, best):
        return lambda cc: np.array([[zero**2] * 4, [best**2] * 4])

    inside = 2.0 * (1.0 - CHECK_TOL) * 1.001
    outside = 2.0 * (1.0 - CHECK_TOL) * 0.999

    def check(zero, best):
        rows = ScoredRows(theta, measure_as(zero, best), geom, cfg, cb)
        return check_prediction(predicted, rows), rows

    assert check(1.0, inside)[0]
    assert not check(1.0, outside)[0]
    assert not check(1.0, 0.5)[0]
    passed, rows = check(1.0, 2.0)
    result = rows.best()
    assert passed and result.trace == [(1.0, 0.0, 0.0, 1.0), (1.0, 0.1, 0.2, 2.0)]
    assert result.score == 2.0 and result.ps_only_score == 1.0


def test_check_of_zero_scores_divides_nothing(reference):
    # a user so far away that every power underflows to 0 (`ue.x_m = 1e200`):
    # the model still predicts gain at the focus, every measured score is 0,
    # and the check accepts without a warning (warnings are errors here)
    ec = replace(reference["ec"], ue_x_m=1e200)
    geom, cb = reference["geom"], reference["cb"]
    cfg1 = build_system(ec, num_td_units=1)
    H = build_channel(ec, geom, cfg1)
    theta = conjugate_phases(geom, ec.center_freq_hz, (2.0, -2.0))
    result = search_pipeline(ec, theta, geom, H, build_system(ec, num_td_units=16), cb)
    assert len(result.trace) == 2
    assert result.score == result.ps_only_score == 0.0


@pytest.mark.parametrize("n, points", [(1, (9, 17, 17)), (16, (1, 1, 1))])
def test_all_zero_candidates_measure_one_row(reference, monkeypatch, n, points):
    # one TD unit, or single-point grid axes: every candidate delay vector
    # is the zero one, so the model's winner is the zero-delay row and the
    # check measures that row alone
    ec = replace(reference["ec"], ax_points=points[0], ay_points=points[1], b_points=points[2])
    rows = counted_rows(monkeypatch)
    result = search_pipeline(
        ec, reference["theta"], reference["geom"], reference["H"],
        build_system(ec, num_td_units=n), reference["cb"],
    )
    assert rows == [1] and len(result.trace) == 1
    assert np.all(result.tau == 0.0)
    assert result.score == result.ps_only_score
