import tracemalloc

import numpy as np
import pytest

from beamfocus import delay_search
from beamfocus.channel import SystemConfig, near_field_channel
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
    REFINE_ROUNDS,
    SEARCH_BLOCK,
    SEED_COHERENCE,
    DelaySearchResult,
    delays_from_ddf,
    linear_ddf,
    search_delays,
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


def focus_nowhere(theta, geom, freq):
    """A locator stand-in that finds no focus: coherence 0."""
    return 1.0, 0.0, 0.0


@pytest.fixture
def no_focus(monkeypatch):
    """The locator finds no focus, so every search runs the coarse pass."""
    monkeypatch.setattr(delay_search, "locate_focus", focus_nowhere)


def test_search_single_point_grid_scores_ps_only():
    cfg, geom, H = scene()
    cb = PhaseCodebook(bits=3)
    theta_star = ps_only_oracle(H, cfg, cb).theta
    result = search_delays(
        theta_star, profile_measure(H, cfg), geom, cfg, cb, (1, 1, 1)
    )
    assert np.all(result.tau == 0.0)
    assert result.score == result.ps_only_score


def test_search_never_below_ps_only():
    cb = PhaseCodebook(bits=3)
    for seed in range(5):
        cfg, geom, H = scene(seed=seed)
        theta_star = ps_only_oracle(H, cfg, cb).theta
        result = search_delays(
            theta_star, profile_measure(H, cfg), geom, cfg, cb, (3, 5, 5)
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
        theta_star, profile_measure(H, cfg), geom, cfg, cb, (3, 3, 3)
    )
    assert result.score == pytest.approx(result.ps_only_score, rel=1e-9)


def test_search_deterministic():
    cfg, geom, H = scene(seed=2)
    cb = PhaseCodebook(bits=3)
    theta_star = ps_only_oracle(H, cfg, cb).theta
    r1 = search_delays(theta_star, profile_measure(H, cfg), geom, cfg, cb, (3, 5, 5))
    r2 = search_delays(theta_star, profile_measure(H, cfg), geom, cfg, cb, (3, 5, 5))
    assert np.array_equal(r1.tau, r2.tau)
    assert np.array_equal(r1.theta, r2.theta)
    assert r1.score == r2.score
    assert r1.trace == r2.trace


def test_search_improves_wideband_gain():
    # with several TD units the searched config clearly beats zero delays
    cfg, geom, H = scene(M=32, N=8, K=64, seed=4)
    cb = PhaseCodebook(bits=3)
    theta_star = ps_only_oracle(H, cfg, cb).theta
    result = search_delays(
        theta_star, profile_measure(H, cfg), geom, cfg, cb, (9, 17, 17)
    )
    assert result.score > result.ps_only_score


def test_search_trace_csv(tmp_path):
    cfg, geom, H = scene(M=8, N=2, K=8)
    cb = PhaseCodebook(bits=3)
    theta_star = ps_only_oracle(H, cfg, cb).theta
    result = search_delays(
        theta_star, profile_measure(H, cfg), geom, cfg, cb, (2, 3, 3)
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


def blocked_and_per_candidate_searches(M, N, grid, noisy, monkeypatch):
    """The same search blocked and with one candidate per measurement call."""
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

    got = search_delays(theta_star, measure(11), geom, cfg, cb, grid)
    blocked_calls = len(calls)
    calls.clear()
    monkeypatch.setattr(delay_search, "SEARCH_BLOCK", 1)
    want = search_delays(theta_star, measure(11), geom, cfg, cb, grid)
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
def test_blocked_search_equals_per_candidate_loop(M, N, grid, noisy, monkeypatch, no_focus):
    # the coarse pass of the (9, 17, 17) grids spans several SEARCH_BLOCK
    # blocks; under noise the random stream carries on across them
    got = blocked_and_per_candidate_searches(M, N, grid, noisy, monkeypatch)
    if grid == (9, 17, 17):
        assert len(got.trace) > SEARCH_BLOCK


@pytest.mark.parametrize("noisy", [False, True])
@BLOCKED_SCENES
def test_seeded_blocked_search_equals_per_candidate_loop(M, N, grid, noisy, monkeypatch):
    got = blocked_and_per_candidate_searches(M, N, grid, noisy, monkeypatch)
    assert len(got.trace) <= 2 + 6 * REFINE_ROUNDS


def test_fallback_evaluates_a_block_of_rows_at_a_time(monkeypatch, no_focus):
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
    got = search_delays(theta_star, measure, geom, cfg, cb, (9, 17, 17))
    assert max(rows) == SEARCH_BLOCK and sum(rows) > 3 * SEARCH_BLOCK
    blocked_sizes = sizes[:]
    rows.clear()
    sizes.clear()
    monkeypatch.setattr(delay_search, "SEARCH_BLOCK", 10**6)
    want = search_delays(theta_star, measure, geom, cfg, cb, (9, 17, 17))
    assert rows[0] > 3 * SEARCH_BLOCK  # every coarse row in one evaluation
    fresh = sizes[0]
    full, rest = divmod(fresh, SEARCH_BLOCK)
    coarse = [SEARCH_BLOCK] * full + ([rest] if rest else [])
    assert blocked_sizes == coarse + sizes[1:]
    assert got.trace == want.trace
    assert np.array_equal(got.tau, want.tau)
    assert np.array_equal(got.theta, want.theta)
    assert got.score == want.score


def test_a_scored_row_keeps_far_less_memory_than_its_delay_vector(no_focus):
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
            result = search_delays(np.zeros(M), stub, geom, cfg, cb, (points,) * 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, len(result.trace)

    small, large = peak_and_rows(17), peak_and_rows(33)
    assert large[1] - small[1] > 3000
    assert (large[0] - small[0]) / (large[1] - small[1]) < 1024


def tie_search():
    # every candidate scores the same, so the zero-delay candidate wins
    cfg, geom, H = scene()
    cb = PhaseCodebook(bits=3)

    def flat(cc):
        return np.ones(cc.theta.shape[:-1] + (4,))

    result = search_delays(np.zeros(cfg.num_antennas), flat, geom, cfg, cb, (9, 17, 17))
    assert result.trace[0][:3] == (1.0, 0.0, 0.0)
    assert result.score == result.ps_only_score == 1.0
    assert np.all(result.tau == 0.0)
    return result


def test_search_ties_keep_the_earliest_candidate(no_focus):
    # the ties span more than one block of the coarse pass
    assert len(tie_search().trace) > SEARCH_BLOCK


def test_seeded_search_ties_keep_the_earliest_candidate():
    # zero phases focus far out on broadside, so the search starts from a seed
    assert len(tie_search().trace) <= 2 + 6 * REFINE_ROUNDS


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
def test_search_budget_and_unique_rows(grid, no_focus):
    cfg, geom, H = scene(M=32, N=8, K=32, seed=3)
    cb = PhaseCodebook(bits=3)
    theta_star = ps_only_oracle(H, cfg, cb).theta
    result = search_delays(theta_star, profile_measure(H, cfg), geom, cfg, cb, grid)
    rows = [row[:3] for row in result.trace]
    assert len(rows) <= coarse_count(grid) + 6 * REFINE_ROUNDS
    assert len(set(rows)) == len(rows)
    # each delay vector is measured once
    assert len({tau.tobytes() for tau in trace_delays(result, geom, cfg)}) == len(rows)
    assert result.score == max(row[3] for row in result.trace)


@pytest.mark.parametrize("grid", SEARCH_GRIDS)
def test_search_coarse_pass_is_every_other_grid_point(grid, monkeypatch, no_focus):
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
    result = search_delays(theta_star, measure, geom, cfg, cb, grid)
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
def test_search_final_score_at_least_best_coarse_score(grid, no_focus):
    cb = PhaseCodebook(bits=3)
    for seed in range(3):
        cfg, geom, H = scene(M=32, N=8, K=32, seed=seed)
        theta_star = ps_only_oracle(H, cfg, cb).theta
        result = search_delays(theta_star, profile_measure(H, cfg), geom, cfg, cb, grid)
        coarse = [row[3] for row in result.trace[: coarse_count(grid)]]
        assert result.score >= max(coarse)


def test_search_refines_down_to_an_eighth_of_the_spacing(monkeypatch, no_focus):
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

    result = search_delays(np.zeros(12), measure, geom, cfg, PhaseCodebook(bits=3), grid)
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
def test_search_matches_the_full_grid_at_reference_scale(reference, n, monkeypatch):
    # on the 128-bin decimated channel the search from the focus of the
    # oracle phases and the coarse-to-fine fallback each score within 0.1 dB
    # of the best of all 2,330 grid candidates
    ec, geom, cb = reference["ec"], reference["geom"], reference["cb"]
    cfg = build_system(ec, num_td_units=n)
    measure = make_profile_measure(ec, decimate_channel(reference["H"]), cfg)
    grid = (9, 17, 17)  # the grid.* defaults
    seeded = search_delays(reference["theta"], measure, geom, cfg, cb, grid)
    full = reference_search_delays(reference["theta"], measure, geom, cfg, cb, grid)
    monkeypatch.setattr(delay_search, "locate_focus", focus_nowhere)
    fallback = search_delays(reference["theta"], measure, geom, cfg, cb, grid)
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
    assert locate_focus(theta_star, geom, cfg.center_freq_hz)[2] >= SEED_COHERENCE
    result = search_delays(theta_star, profile_measure(H, cfg), geom, cfg, cb, grid)
    rows = [row[:3] for row in result.trace]
    assert rows[0] == (1.0, 0.0, 0.0)
    assert result.ps_only_score == result.trace[0][3]
    assert len(rows) <= 2 + 6 * REFINE_ROUNDS
    assert len({tau.tobytes() for tau in trace_delays(result, geom, cfg)}) == len(rows)
    assert result.score == max(row[3] for row in result.trace)
    assert result.score >= result.ps_only_score


def test_random_phases_fall_back_to_the_coarse_pass(reference, monkeypatch):
    # random codebook phases focus nowhere: their coherence stays below the
    # seed threshold, and the search is the one without a focus
    ec, geom, cb = reference["ec"], reference["geom"], reference["cb"]
    draws = [
        cb.values[np.random.default_rng(seed).integers(0, cb.size, geom.num_antennas)]
        for seed in range(8)
    ]
    for theta in draws:
        assert locate_focus(theta, geom, ec.center_freq_hz)[2] < SEED_COHERENCE
    cfg = build_system(ec, num_td_units=8)
    measure = make_profile_measure(ec, decimate_channel(reference["H"]), cfg)
    got = search_delays(draws[0], measure, geom, cfg, cb, (5, 5, 5))
    monkeypatch.setattr(delay_search, "locate_focus", focus_nowhere)
    want = search_delays(draws[0], measure, geom, cfg, cb, (5, 5, 5))
    assert got.trace == want.trace
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

    result = search_delays(theta, measure, geom, cfg, reference["cb"], (9, 17, 17))
    seed = result.trace[1][:3]
    assert seed[0] == 1.0
    assert np.allclose(linear_ddf(seed, [0.0, 1.0, 2.0]), ddf, rtol=0.0, atol=1e-12)


def test_seed_single_point_axes_stay_at_their_centers(reference):
    ec, geom = reference["ec"], reference["geom"]
    cfg = build_system(ec, num_td_units=16)
    theta = conjugate_phases(geom, ec.center_freq_hz, (3.0, -1.0))
    full = delay_search._seed_position(theta, geom, cfg, (9, 17, 17))
    assert full[0] == 0.0 and full[1] != 0.0 and full[2] != 0.0
    assert delay_search._seed_position(theta, geom, cfg, (1, 1, 1)) == (0.0, 0.0, 0.0)
    assert delay_search._seed_position(theta, geom, cfg, (9, 1, 17)) == (0.0, 0.0, full[2])
    assert delay_search._seed_position(theta, geom, cfg, (9, 17, 1)) == (0.0, full[1], 0.0)


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


def test_large_array_search_starts_from_the_located_focus():
    # M = 1,024 at the default aperture: the oracle phases' focus seeds the
    # search, which scores the zero-delay row, the seed row and 24 compass
    # rows, and ends above the zero-delay row
    ec = ExperimentConfig(num_antennas=1024, num_subcarriers=256)
    geom, cb = build_geometry(ec), build_codebook(ec)
    H = build_channel(ec, geom, build_system(ec, num_td_units=1))
    theta = ps_only_oracle(H, build_system(ec, num_td_units=1), cb).theta
    result = search_pipeline(ec, theta, geom, H, build_system(ec), cb)
    assert len(result.trace) == 2 + 6 * REFINE_ROUNDS
    assert result.score > result.trace[0][3] == result.ps_only_score
