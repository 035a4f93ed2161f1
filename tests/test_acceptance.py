"""Acceptance suite: full-scale reference scenario, one test per criterion.

Scenario: 256-element random linear array with aperture 255 * lambda_c / 2,
100 GHz center frequency, 10 GHz bandwidth over 2048 subcarriers, 3-bit
phase shifters, user at [2, -2] m, noiseless measurements; more tests
hold the learned pipeline to the same bars under snapshot noise, and the
learner to the oracle's center gain on a 1,024-element array.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from beamfocus.baselines import pdf_oracle, ps_only_oracle
from beamfocus.channel import ChannelMatrix, SystemConfig, gain_map, near_field_channel
from beamfocus import cli, phase_learning
from beamfocus.cli import learn_pipeline, search_pipeline
from beamfocus.combiner import CombinerConfig, PhaseCodebook, effective_combiner, quantize_phase
from beamfocus.config import (
    ExperimentConfig,
    build_channel,
    build_codebook,
    build_geometry,
    build_system,
    build_ue,
)
from beamfocus.critic import RMS_TOL, train_critic
from beamfocus.delay_search import SEED_COHERENCE
from beamfocus.focus import locate_focus
from beamfocus.geometry import SPEED_OF_LIGHT, UePosition, distance_difference, random_geometry
from beamfocus.phase_learning import WALK_BLOCK, coordinate_ascent, learn_phases
from beamfocus.sim import center_bin, gain_profile, normalized_gain_db, three_db_bandwidth
from beamfocus.sim import avg_amplitude_gain
from beam_model import beam_from_phases
from model_checks import DdfRegime, critic_loss_and_gradient, ddf_regime


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def scenario():
    # measurement budget set so exploration plus at most four exploitation
    # measurements stays within 5000 callback invocations (criterion 5)
    ec = ExperimentConfig(total_measurements=4980, learner_seed=0)
    geom = build_geometry(ec)
    ue = build_ue(ec)
    cb = build_codebook(ec)
    cfg1 = build_system(ec, num_td_units=1)
    H = build_channel(ec, geom, cfg1)
    return {"ec": ec, "geom": geom, "ue": ue, "cb": cb, "cfg1": cfg1, "H": H}


@pytest.fixture(scope="module")
def learned(scenario):
    calls = []
    make = cli.make_center_measure

    def counted(*args):
        measure = make(*args)

        def count(phases):
            calls.append(len(phases))
            return measure(phases)

        return count

    t0 = time.time()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "make_center_measure", counted)
        theta, history = learn_pipeline(
            scenario["ec"], scenario["H"], scenario["cfg1"], scenario["cb"]
        )
    seconds = time.time() - t0
    return {"theta": theta, "history": history, "seconds": seconds, "calls": calls}


def _decline(*args):
    # the one-path model route declining, as it does on powers with no
    # positive peak: the run is the critic's own route
    return None


@pytest.fixture(scope="module")
def fitted(scenario):
    # the reference run on the critic's own route, whose first fit the
    # paper's model-free learner makes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(phase_learning, "model_critic", _decline)
        theta, history = learn_pipeline(
            scenario["ec"], scenario["H"], scenario["cfg1"], scenario["cb"]
        )
    return {"theta": theta, "history": history}


def _searched(scenario, learned, n):
    ec = scenario["ec"]
    cfg_n = build_system(ec, num_td_units=n)
    t0 = time.time()
    result = search_pipeline(
        ec, learned["theta"], scenario["geom"], scenario["H"], cfg_n, scenario["cb"]
    )
    cc = CombinerConfig(theta=result.theta, tau=result.tau)
    return {"cfg": cfg_n, "cc": cc, "seconds": time.time() - t0}


@pytest.fixture(scope="module")
def searched_n8(scenario, learned):
    return _searched(scenario, learned, 8)


@pytest.fixture(scope="module")
def searched_n16(scenario, learned):
    return _searched(scenario, learned, 16)


def test_criterion_1_ps_only_bandwidth(scenario):
    t0 = time.time()
    cfg = scenario["cfg1"]
    cc = ps_only_oracle(scenario["H"], cfg, scenario["cb"])
    bw = three_db_bandwidth(gain_profile(cc, scenario["H"], cfg), cfg)
    elapsed = time.time() - t0
    ok = 0.5e9 <= bw <= 2.0e9 and elapsed < 30.0
    _report(
        "criterion 1 (PS-only 3 dB bandwidth)",
        ok,
        f"bw = {bw / 1e9:.3f} GHz in [0.5, 2.0], runtime {elapsed:.1f}s < 30s",
    )


def test_criterion_2_n8_bandwidth(scenario, learned, searched_n8):
    ec, H = scenario["ec"], scenario["H"]
    cfg8 = build_system(ec, num_td_units=8)
    pdf_cc = pdf_oracle(scenario["geom"], scenario["ue"], H, cfg8, scenario["cb"])
    bw_pdf = three_db_bandwidth(gain_profile(pdf_cc, H, cfg8), cfg8)
    bw_learned = three_db_bandwidth(
        gain_profile(searched_n8["cc"], H, searched_n8["cfg"]), searched_n8["cfg"]
    )
    pipeline_seconds = learned["seconds"] + searched_n8["seconds"]
    ok = bw_pdf >= 5e9 and bw_learned >= 5e9 and pipeline_seconds < 300.0
    _report(
        "criterion 2 (N=8 bandwidth >= 5 GHz)",
        ok,
        f"pdf = {bw_pdf / 1e9:.2f} GHz, learned = {bw_learned / 1e9:.2f} GHz, "
        f"learned pipeline {pipeline_seconds:.0f}s < 300s",
    )


def test_criterion_3_n16_pdf_near_flat(scenario):
    ec, H = scenario["ec"], scenario["H"]
    cfg16 = build_system(ec, num_td_units=16)
    cc = pdf_oracle(scenario["geom"], scenario["ue"], H, cfg16, scenario["cb"])
    db = normalized_gain_db(gain_profile(cc, H, cfg16))
    frac = float(np.mean(db >= -3.0))
    _report(
        "criterion 3 (N=16 oracle near-flat)",
        frac >= 0.95,
        f"{100 * frac:.2f}% of subcarriers >= -3 dB (need >= 95%)",
    )


def test_criterion_4_learned_vs_oracle_gap(scenario, searched_n16):
    H = scenario["H"]
    cfg16 = searched_n16["cfg"]
    pdf_cc = pdf_oracle(scenario["geom"], scenario["ue"], H, cfg16, scenario["cb"])
    amp_learned = avg_amplitude_gain(searched_n16["cc"], H, cfg16)
    amp_pdf = avg_amplitude_gain(pdf_cc, H, cfg16)
    gap_db = 20.0 * np.log10(amp_pdf / amp_learned)
    _report(
        "criterion 4 (learned-vs-oracle gap, N=16)",
        gap_db <= 1.5,
        f"gap = {gap_db:.3f} dB (need <= 1.5 dB)",
    )


def test_criterion_5_learning_convergence(scenario, learned, fitted):
    cfg, H, cb = scenario["cfg1"], scenario["H"], scenario["cb"]
    k = center_bin(H.freqs_hz, cfg.center_freq_hz)
    g_oracle = gain_profile(ps_only_oracle(H, cfg, cb), H, cfg).per_subcarrier[k]
    g_learned = gain_profile(
        CombinerConfig(theta=learned["theta"], tau=[0.0]), H, cfg
    ).per_subcarrier[k]
    history = learned["history"]
    measurements = int(history.iters[-1])
    ratio = g_learned / g_oracle

    # the ascent bar holds the critic of the paper's route, a fit
    model = fitted["history"].final_model
    rng = np.random.default_rng(2024)
    init = rng.integers(0, cb.size, cfg.num_antennas)
    _, cycles, _ = coordinate_ascent(model, init, cb)

    ok = ratio >= 0.9 and measurements <= 5000 and cycles <= 50
    _report(
        "criterion 5 (learning convergence)",
        ok,
        f"gain ratio = {ratio:.3f} >= 0.9 within {measurements} <= 5000 measurements; "
        f"coordinate ascent converged in {cycles} <= 50 cycles",
    )


# critic iterations over all fits of the reference run on the critic's own
# route, a cost guard that needs no timer: the run stops after one fit of 31
# iterations; over learner seeds 0-31 every run stops after one fit of
# 25-40. The warm start of a refit is checked directly by
# test_learn_phases_warm_starts_each_refit
CRITIC_ITERATION_BUDGET = 80


def test_learned_critic_fit_cost(fitted):
    iters = [len(trace) for trace in fitted["history"].critic_loss_traces]
    _report(
        "critic fit cost",
        sum(iters) <= CRITIC_ITERATION_BUDGET,
        f"{sum(iters)} iterations over fits {iters} (need <= {CRITIC_ITERATION_BUDGET})",
    )


class _FirstFitTaken(Exception):
    pass


def test_reference_first_fit_in_single_precision(scenario):
    # the learner fits on a complex64 buffer; the same first fit in
    # complex128 takes as many iterations to a critic that differs only by
    # rounding, and its exploit starts the ascent toward the same beam
    taken = {}

    def fit(*args):
        taken["fit"] = args
        return train_critic(*args)

    def ascent(q, init, cb):
        taken["init"] = init
        raise _FirstFitTaken

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(phase_learning, "model_critic", _decline)
        mp.setattr(phase_learning, "train_critic", fit)
        mp.setattr(phase_learning, "coordinate_ascent", ascent)
        with pytest.raises(_FirstFitTaken):
            learn_pipeline(scenario["ec"], scenario["H"], scenario["cfg1"], scenario["cb"])
    q0, beams, powers, max_iters = taken["fit"]
    assert beams.shape == (1024, 256) and beams.dtype == np.complex64
    single, single_trace = train_critic(q0, beams, powers, max_iters)
    double, double_trace = train_critic(q0, beams.astype(complex), powers, max_iters)
    assert len(single_trace) == len(double_trace) == 31
    # after removing the global phase no prediction sees; over learner seeds
    # 0-5 the two precisions' fits differ by 1.5e-7 to 3e-6 relative, as
    # rounding happens to fall in the fit's ill-conditioned directions
    turn = np.vdot(single, double)
    aligned = single * turn / abs(turn)
    assert np.linalg.norm(aligned - double) <= 3e-5 * np.linalg.norm(double)
    exploits = [coordinate_ascent(q, taken["init"], scenario["cb"])[0] for q in (single, double)]
    assert np.array_equal(*exploits)


def test_learned_measurement_call_cost(learned):
    # callback invocations of the reference run, a cost guard that needs no
    # timer: one call per WALK_BLOCK exploration beams between exploits, one
    # per exploit: 2 blocks and the model's exploit, 3 in all. Measuring
    # every beam in its own call (513 calls) fails it.
    events = learned["history"].exploit_events
    # exploration beams up to each refit: measurements so far minus exploits
    stops = [0] + [inv - i for i, (inv, _, _) in enumerate(events, start=1)]
    blocks = sum(-(-(b - a) // WALK_BLOCK) for a, b in zip(stops, stops[1:]))
    budget = blocks + len(events)
    calls = learned["calls"]
    rows = sum(calls)
    _report(
        "measurement call cost",
        len(calls) == budget == 3 and rows == int(learned["history"].iters[-1]) == 513,
        f"{len(calls)} calls for {rows} beams (need {budget} == 3 for 513)",
    )


def test_reference_learner_confirms_the_one_path_model(scenario, learned):
    # the model critic of the first 2M = 512 beams, sqrt(g) times the
    # spherical wave from the point it locates, focuses within 1 cm of the
    # user; its exploit measures within RMS_TOL of its prediction, so the run
    # ends at 513 beams without a fit
    geom, cb, ue = scenario["geom"], scenario["cb"], scenario["ue"]
    history = learned["history"]
    q = history.final_model
    x, y, _ = locate_focus(np.angle(q), geom, scenario["ec"].center_freq_hz)
    miss_mm = 1e3 * np.hypot(x - ue.x, y - ue.y)
    g = q.conj() @ (cb.phasors[history.indices[-1]] / np.sqrt(geom.num_antennas))
    prediction = float(np.real(np.vdot(g, g)))
    ratio = history.measured_powers[-1] / prediction
    _report(
        "one-path model route",
        history.exploit_routes == ["model"]
        and not history.critic_loss_traces
        and len(history.iters) == 513
        and np.allclose(np.abs(q), np.abs(q[0]))
        and miss_mm <= 10.0
        and abs(ratio - 1.0) <= RMS_TOL,
        f"routes {history.exploit_routes} over {len(history.iters)} beams (need ['model'], 513); "
        f"focus ({x:.4f}, {y:.4f}) m, {miss_mm:.1f} mm from the user (need <= 10); "
        f"exploit measures {ratio:.4f} of its prediction (need within {RMS_TOL})",
    )


# the second wave's amplitudes of the off-model gate, against the user's 1
SECOND_PATH_GAINS = (0.3, 0.5, 0.7, 1.0)


def test_off_model_scenes_fall_back_to_the_critic(scenario):
    """The learner on two-path scenes, which the one-path model cannot explain.

    Each scene is the reference channel plus a second spherical wave from
    (2.0, 0.5) m, of amplitude 0.3, 0.5, 0.7 or 1.0 times the user's. On
    learner seeds 0-3 the model's exploit must not measure its prediction,
    so the run goes on to the critic's fit, and the learned beam's
    center-bin gain must come within 0.1 dB of the same run with the model
    route declined. Test-only: no config key builds a second path.
    """
    ec, geom, cb, cfg1, H = (scenario[key] for key in ("ec", "geom", "cb", "cfg1", "H"))
    k = center_bin(H.freqs_hz, cfg1.center_freq_hz)
    echo = near_field_channel(geom, UePosition(2.0, 0.5), cfg1).coeffs
    ok, details = True, []
    for gain in SECOND_PATH_GAINS:
        H2 = ChannelMatrix(coeffs=H.coeffs + gain * echo, freqs_hz=H.freqs_hz)

        def center(theta):
            cc = CombinerConfig(theta=theta, tau=[0.0])
            return gain_profile(cc, H2, cfg1).per_subcarrier[k]

        for seed in range(4):
            ec_seed = replace(ec, learner_seed=seed)
            theta, history = learn_pipeline(ec_seed, H2, cfg1, cb)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(phase_learning, "model_critic", _decline)
                alone, _ = learn_pipeline(ec_seed, H2, cfg1, cb)
            diff_db = 10.0 * np.log10(center(theta) / center(alone))
            routes = history.exploit_routes
            ok &= routes[0] == "model" and len(routes) > 1 and abs(diff_db) <= 0.1
            details.append(f"gain {gain} seed {seed}: routes {routes}, {diff_db:+.4f} dB")
    _report(
        "off-model gate (model exploit unconfirmed, center within 0.1 dB of the critic's)",
        ok,
        "; ".join(details),
    )


def test_criterion_6_beam_split_heatmap(scenario, searched_n16):
    geom, ue, cb, H = scenario["geom"], scenario["ue"], scenario["cb"], scenario["H"]
    cfg1 = scenario["cfg1"]
    k = center_bin(H.freqs_hz, cfg1.center_freq_hz)
    freqs = [H.freqs_hz[0], H.freqs_hz[k], H.freqs_hz[-1]]
    xs, ys = np.array([ue.x]), np.array([ue.y])

    def ue_gain_db_rel_center(cc, cfg):
        gains = [
            gain_map(geom, cfg, effective_combiner(cc, cfg, f), f, xs, ys)[0, 0]
            for f in freqs
        ]
        return 10 * np.log10(gains[0] / gains[1]), 10 * np.log10(gains[2] / gains[1])

    ps_lo, ps_hi = ue_gain_db_rel_center(ps_only_oracle(H, cfg1, cb), cfg1)
    td_lo, td_hi = ue_gain_db_rel_center(searched_n16["cc"], searched_n16["cfg"])
    ok = ps_lo <= -10.0 and ps_hi <= -10.0 and abs(td_lo) <= 3.0 and abs(td_hi) <= 3.0
    _report(
        "criterion 6 (beam split at the user)",
        ok,
        f"PS-only edges {ps_lo:.1f}/{ps_hi:.1f} dB <= -10; "
        f"TD-PS edges {td_lo:.2f}/{td_hi:.2f} dB within 3",
    )


# Boltzmann constant (J/K) and the standard noise temperature (K)
BOLTZMANN = 1.380649e-23
T0_K = 290.0
# receiver noise figure: an assumption, since the abstract states none
NOISE_FIGURE_DB = 10.0


def thermal_noise_w(ec):
    # k_B T0 (B/K) NF: the per-subcarrier noise floor at the receiver
    return BOLTZMANN * T0_K * (ec.bandwidth_hz / ec.num_subcarriers) * 10.0 ** (NOISE_FIGURE_DB / 10.0)


def _route(result, fit):
    """The route a `search_pipeline` call took, from its focus coherence and trace."""
    if fit < SEED_COHERENCE:
        return "coarse pass"
    # an accepted check measures its 2 rows (1 if they coincide) and nothing more
    return "accepted" if len(result.trace) <= 2 else "check failed"


def _searched_bars(scenario, ec, theta, geom, routes=None):
    """N=8 3-dB bandwidth and N=16 gap (dB) to the true-geometry PDF oracle.

    Both come from `search_pipeline` run on theta with the geometry `geom`,
    under ec's noise settings, and are scored on the true channel. The
    route each search takes is appended to `routes` when given.
    """
    H, cb = scenario["H"], scenario["cb"]
    fit = locate_focus(theta, geom, ec.center_freq_hz)[2]
    designs = {}
    for n in (8, 16):
        cfg_n = build_system(ec, num_td_units=n)
        result = search_pipeline(ec, theta, geom, H, cfg_n, cb)
        designs[n] = (CombinerConfig(theta=result.theta, tau=result.tau), cfg_n)
        if routes is not None:
            routes.append(f"N={n} {_route(result, fit)}")
    cc8, cfg8 = designs[8]
    bw8 = three_db_bandwidth(gain_profile(cc8, H, cfg8), cfg8)
    cc16, cfg16 = designs[16]
    pdf16 = pdf_oracle(scenario["geom"], scenario["ue"], H, cfg16, cb)
    amp_pdf, amp16 = avg_amplitude_gain(pdf16, H, cfg16), avg_amplitude_gain(cc16, H, cfg16)
    gap16 = 20.0 * np.log10(amp_pdf / amp16)
    return bw8, gap16


def _noisy_learned(scenario, ec, above_db, seed):
    # the learned phases and beam count at S snapshots, noise above_db over the floor
    sigma2 = thermal_noise_w(ec) * 10.0 ** (above_db / 10.0)
    noisy = replace(ec, noise_mode="snapshots", noise_power_w=sigma2, learner_seed=seed)
    cfg1 = build_system(noisy, num_td_units=1)
    theta, history = learn_pipeline(noisy, scenario["H"], cfg1, scenario["cb"])
    return noisy, theta, int(history.iters[-1])


@pytest.mark.parametrize("snapshots", [10000, 1])
def test_noisy_learned_pipeline_meets_the_noiseless_bars(scenario, snapshots):
    """The learned pipeline under snapshot noise at the thermal floor.

    Every measurement the learner and the delay search take sees noise of
    power sigma^2 = k_B T0 (B/K) NF per subcarrier, with T0 = 290 K, B/K =
    10 GHz / 2048 and an assumed noise figure NF = 10 dB: sigma^2 is about
    1.955e-13 W. The bars are the noiseless ones: N=8 3-dB bandwidth at
    least 5 GHz, N=16 gap to the oracle at most 1.5 dB, at most 5000
    learner callback invocations. S = 1 must meet them on learner seeds
    0-7, each of which keys its own noise stream; S = 10000 on seed 0.
    """
    ec = replace(scenario["ec"], snapshots=snapshots)
    ok, details = True, []
    for seed in range(8) if snapshots == 1 else (0,):
        noisy, theta, measurements = _noisy_learned(scenario, ec, 0.0, seed)
        bw8, gap16 = _searched_bars(scenario, noisy, theta, scenario["geom"])
        ok &= bw8 >= 5e9 and gap16 <= 1.5 and measurements <= 5000
        details.append(
            f"seed {seed}: N=8 bandwidth {bw8 / 1e9:.2f} GHz >= 5, "
            f"N=16 gap {gap16:.3f} dB <= 1.5, {measurements} <= 5000 measurements"
        )
    _report(
        f"noisy gate (S = {snapshots}, sigma^2 = {thermal_noise_w(ec):.4g} W)",
        ok,
        "; ".join(details),
    )


def test_noisy_learner_stops_on_a_confirmed_exploit(scenario):
    # at the thermal floor with one snapshot no fit meets its RMS target,
    # yet on the critic's own route seed 1's second refit predicts its
    # exploit, and that alone ends the run
    ec = scenario["ec"]
    ec = replace(
        ec,
        noise_mode="snapshots",
        snapshots=1,
        noise_power_w=thermal_noise_w(ec),
        learner_seed=1,
    )
    cb = scenario["cb"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(phase_learning, "model_critic", _decline)
        _, history = learn_pipeline(ec, scenario["H"], build_system(ec, num_td_units=1), cb)
    n = len(history.measured_powers)
    assert n == 3003 and len(history.exploit_events) == 3
    clipped = np.maximum(history.measured_powers[: n - 1], 0.0)
    assert history.critic_loss_traces[-1][-1] > (RMS_TOL * np.mean(clipped)) ** 2
    g = history.final_model.conj() @ (cb.phasors[history.indices[-1]] / np.sqrt(ec.num_antennas))
    prediction = float(np.real(np.vdot(g, g)))
    assert abs(history.measured_powers[-1] - prediction) <= RMS_TOL * prediction


def test_noisy_learner_walks_the_whole_budget(scenario):
    # 10 dB above the thermal floor with one snapshot no fit's exploit
    # measures its prediction, so the learner on the critic's own route
    # measures every exploration beam and every exploit
    ec = replace(scenario["ec"], snapshots=1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(phase_learning, "model_critic", _decline)
        beams = _noisy_learned(scenario, ec, 10, 0)[2]
    assert beams == 4985


def test_low_snr_cliff_at_one_snapshot(scenario):
    """The learned pipeline at S = 1 with the noise 10 dB above the thermal floor.

    On learner seeds 0-7 the noiseless bars hold at +10 dB: N=8 3-dB
    bandwidth at least 5 GHz, N=16 gap to the oracle at most 1.5 dB (they
    read 6.44-7.05 GHz and -0.07 to +0.69 dB). Seed 0's learned center-bin
    gain against the PS-only oracle's must be at least -3 dB at +10 dB; at
    +15 dB, where the learned beam falls about 7 dB short of the oracle's,
    it is reported with no bar, so that a change that moves it shows.
    """
    ec = replace(scenario["ec"], snapshots=1)
    H, cb, cfg1 = scenario["H"], scenario["cb"], scenario["cfg1"]
    k = center_bin(H.freqs_hz, cfg1.center_freq_hz)
    oracle = gain_profile(ps_only_oracle(H, cfg1, cb), H, cfg1).per_subcarrier[k]

    def center_db(theta):
        got = gain_profile(CombinerConfig(theta=theta, tau=[0.0]), H, cfg1).per_subcarrier[k]
        return 10.0 * np.log10(got / oracle)

    rel_db, bars = {}, []
    for seed in range(8):
        noisy, theta, _ = _noisy_learned(scenario, ec, 10, seed)
        bars.append(_searched_bars(scenario, noisy, theta, scenario["geom"]))
        if seed == 0:
            rel_db[10] = center_db(theta)
    rel_db[15] = center_db(_noisy_learned(scenario, ec, 15, 0)[1])
    _report(
        "low-SNR cliff (S = 1)",
        rel_db[10] >= -3.0 and all(bw8 >= 5e9 and gap16 <= 1.5 for bw8, gap16 in bars),
        f"seed 0's center gain vs PS-only oracle {rel_db[10]:.2f} dB at +10 dB (need >= -3), "
        f"{rel_db[15]:.2f} dB at +15 dB (reported); at +10 dB for seeds 0-7, N=8 bandwidth "
        + ", ".join(f"{bw8 / 1e9:.2f}" for bw8, _ in bars)
        + " GHz (need >= 5), N=16 gap "
        + ", ".join(f"{gap16:.3f}" for _, gap16 in bars)
        + " dB (need <= 1.5)",
    )


def test_oracle_phases_search_20_db_above_the_floor(scenario):
    """The delay search from PS-only oracle phases at S = 1, 20 dB over the floor.

    The learner is skipped, so the noise falls on the search's
    measurements alone: on the model's measured check, and on the measured
    search where the check fails. The noiseless bars hold on learner seeds
    0-7, each keying its own noise stream: N=8 3-dB bandwidth at least
    5 GHz, N=16 gap to the oracle at most 1.5 dB. The report names the
    route each search takes.
    """
    ec = scenario["ec"]
    theta = ps_only_oracle(scenario["H"], scenario["cfg1"], scenario["cb"]).theta
    sigma2 = thermal_noise_w(ec) * 10.0 ** (20.0 / 10.0)
    ok, details = True, []
    for seed in range(8):
        noisy = replace(
            ec, noise_mode="snapshots", snapshots=1, noise_power_w=sigma2, learner_seed=seed
        )
        routes = []
        bw8, gap16 = _searched_bars(scenario, noisy, theta, scenario["geom"], routes)
        ok &= bw8 >= 5e9 and gap16 <= 1.5
        details.append(
            f"seed {seed} ({', '.join(routes)}): N=8 bandwidth {bw8 / 1e9:.2f} GHz >= 5, "
            f"N=16 gap {gap16:.3f} dB <= 1.5"
        )
    _report("oracle phases at +20 dB (S = 1)", ok, "; ".join(details))


def test_m1024_learner_comes_within_1_db_of_the_oracle():
    """The learner on a 1,024-element array (K = 256, budget 4,980), learner seeds 0-3.

    The critic's 2M - 1 real unknowns take about 4M phaseless measurements,
    and the default first fit comes at 4M = 4,096 beams, after the one-path
    model's try at 2M = 2,048. Each learned beam's center-bin gain must
    come within 1 dB of the PS-only oracle's.
    """
    ec = ExperimentConfig(num_antennas=1024, num_subcarriers=256, total_measurements=4980)
    geom, cb = build_geometry(ec), build_codebook(ec)
    cfg1 = build_system(ec, num_td_units=1)
    H = build_channel(ec, geom, cfg1)
    k = center_bin(H.freqs_hz, cfg1.center_freq_hz)
    oracle = gain_profile(ps_only_oracle(H, cfg1, cb), H, cfg1).per_subcarrier[k]
    rel_db, details = [], []
    for seed in range(4):
        theta, history = learn_pipeline(replace(ec, learner_seed=seed), H, cfg1, cb)
        got = gain_profile(CombinerConfig(theta=theta, tau=[0.0]), H, cfg1).per_subcarrier[k]
        rel_db.append(10.0 * np.log10(got / oracle))
        details.append(
            f"seed {seed}: {rel_db[-1]:+.3f} dB after {len(history.iters)} beams, "
            f"exploits {'/'.join(history.exploit_routes)}"
        )
    _report(
        "M = 1,024 learner (center gain vs PS-only oracle >= -1 dB)",
        all(db >= -1.0 for db in rel_db),
        "; ".join(details),
    )


def perturbed_geometry(geom, sigma_m, seed):
    """A copy of geom whose interior elements carry Gaussian position errors.

    The errors have standard deviation sigma_m (meters); the end elements
    stay pinned, and the interior is clipped inside them and re-sorted.
    Errors are redrawn from the same generator until the coefficients are
    strictly decreasing, since clipping can put two elements on one bound.
    """
    alphas = geom.alphas
    sigma = sigma_m / (0.5 * geom.aperture)  # in alpha units
    rng = np.random.default_rng(seed)
    while True:
        interior = alphas[1:-1] + rng.normal(0.0, sigma, alphas.size - 2)
        interior = np.clip(interior, np.nextafter(alphas[-1], 0.0), np.nextafter(alphas[0], 0.0))
        perturbed = np.concatenate(([alphas[0]], np.sort(interior)[::-1], [alphas[-1]]))
        if np.all(np.diff(perturbed) < 0.0):
            return replace(geom, alphas=perturbed)


def test_search_tolerates_element_position_errors(scenario):
    """The geometry-assisted search given element positions off by 0.1-0.2 wavelength.

    The channel comes from the true array; `search_pipeline` starts from
    PS-only oracle phases but is told the element positions with seeded
    Gaussian errors: sigma = 0.1 lambda_c with error seed 9, and sigma =
    0.2 lambda_c with error seeds 0-7. The noiseless bars hold on each: N=8
    3-dB bandwidth at least 5 GHz, N=16 gap to the true-geometry oracle at
    most 1.5 dB. The report names each draw's focus coherence on the
    erroneous geometry and the route each search takes: the model's pick
    accepted by its measured check, the check failed and the measured
    search run, or the coarse pass. Errors of 0.5 lambda_c still build an
    array.
    """
    ec = scenario["ec"]
    theta = ps_only_oracle(scenario["H"], scenario["cfg1"], scenario["cb"]).theta
    lam_c = SPEED_OF_LIGHT / ec.center_freq_hz
    for seed in range(16):
        perturbed_geometry(scenario["geom"], 0.5 * lam_c, seed)
    ok, details = True, []
    for sigma, seed in [(0.1, 9), *((0.2, seed) for seed in range(8))]:
        geom = perturbed_geometry(scenario["geom"], sigma * lam_c, seed)
        fit = locate_focus(theta, geom, ec.center_freq_hz)[2]
        routes = []
        bw8, gap16 = _searched_bars(scenario, ec, theta, geom, routes)
        ok &= bw8 >= 5e9 and gap16 <= 1.5
        details.append(
            f"sigma {sigma} seed {seed}: coherence {fit:.3f}, {', '.join(routes)}, "
            f"N=8 bandwidth {bw8 / 1e9:.2f} GHz >= 5, N=16 gap {gap16:.3f} dB <= 1.5"
        )
    _report("geometry error (sigma = 0.1-0.2 lambda)", ok, "; ".join(details))


# --- criterion 7: property suite -------------------------------------------


def test_criterion_7a_gradient_vs_finite_differences():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(20):
        M = int(rng.integers(2, 9))
        n = int(rng.integers(3, 16))
        q = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        beams = np.array(
            [beam_from_phases(rng.uniform(-np.pi, np.pi, M)) for _ in range(n)]
        )
        powers = rng.uniform(0, 2, n)
        _, grad = critic_loss_and_gradient(q, beams, powers)
        step = 1e-6
        fd = np.zeros_like(q)
        for i in range(M):
            for direction in (1.0, 1j):
                qp, qm = q.copy(), q.copy()
                qp[i] += step * direction
                qm[i] -= step * direction
                lp = critic_loss_and_gradient(qp, beams, powers)[0]
                lm = critic_loss_and_gradient(qm, beams, powers)[0]
                fd[i] += direction * (lp - lm) / (2 * step)
        worst = max(worst, np.max(np.abs(fd - grad)) / np.max(np.abs(grad)))
    _report(
        "criterion 7a (analytic gradient)",
        worst <= 1e-5,
        f"max relative error {worst:.2e} <= 1e-5 over 20 instances",
    )


def test_criterion_7b_common_delay_invariance():
    rng = np.random.default_rng(78)
    worst = 0.0
    for seed in range(10):
        M, N, K = 16, 4, 32
        cfg = SystemConfig(
            num_antennas=M,
            num_td_units=N,
            num_subcarriers=K,
            center_freq_hz=100e9,
            bandwidth_hz=10e9,
            tau_max_s=1e-8,
        )
        geom = random_geometry(M, 0.023, seed=seed)
        H = near_field_channel(geom, UePosition(1.5, -1.0), cfg)
        theta = rng.uniform(-np.pi, np.pi, M)
        # keep 2 pi f tau within a range where double precision can even
        # express a 1e-12-exact identity (the angle error grows as eps*|arg|)
        tau = rng.uniform(0, 1e-10, N)
        g1 = gain_profile(CombinerConfig(theta=theta, tau=tau), H, cfg).per_subcarrier
        g2 = gain_profile(
            CombinerConfig(theta=theta, tau=tau + 5e-11), H, cfg
        ).per_subcarrier
        worst = max(worst, float(np.max(np.abs(g1 - g2) / np.maximum(g1, 1e-300))))
    _report(
        "criterion 7b (common-delay invariance)",
        worst <= 1e-12,
        f"max relative deviation {worst:.2e} <= 1e-12",
    )


def test_criterion_7c_ddf_regime_monotonicity():
    rng = np.random.default_rng(79)
    deltas = np.linspace(0.0, 2.0, 1000)
    failures = 0
    for regime in DdfRegime:
        for _ in range(100):
            M = int(rng.integers(2, 12))
            aperture = float(rng.uniform(0.3, 5.0))
            geom = random_geometry(M, aperture, seed=int(rng.integers(0, 2**31)))
            x = float(rng.uniform(0.2, 10.0))
            if regime is DdfRegime.MONOTONE_INCREASING:
                y = aperture * float(rng.uniform(0.51, 3.0))
            elif regime is DdfRegime.MONOTONE_DECREASING:
                y = -aperture * float(rng.uniform(0.51, 3.0))
            else:
                y = aperture * float(rng.uniform(-0.49, 0.49))
            ue = UePosition(x, y)
            assert ddf_regime(geom, ue) is regime
            diffs = np.diff(distance_difference(geom, deltas, ue))
            if regime is DdfRegime.MONOTONE_INCREASING:
                ok = np.all(diffs >= -1e-12)
            elif regime is DdfRegime.MONOTONE_DECREASING:
                ok = np.all(diffs <= 1e-12)
            else:
                signs = np.sign(diffs[np.abs(diffs) > 1e-15])
                changes = np.count_nonzero(np.diff(signs) != 0)
                ok = changes <= 1 and (changes == 0 or (signs[0] < 0 and signs[-1] > 0))
            failures += not ok
    _report(
        "criterion 7c (DDF regime monotonicity)",
        failures == 0,
        f"{failures} failures over 300 random (geometry, user) pairs",
    )


@pytest.fixture(scope="module")
def exhaustive_runs():
    # 100 learner runs on 4-antenna, 1-bit scenes small enough to score all
    # 16 codebook beams; per run: those 16 powers, the learned beam's power
    # and the last fit's critic
    cb = PhaseCodebook(bits=1)
    cfg = SystemConfig(
        num_antennas=4,
        num_td_units=1,
        num_subcarriers=1,
        center_freq_hz=100e9,
        bandwidth_hz=0.0,
        tau_max_s=0.0,
    )
    every = cb.values[np.array(list(np.ndindex(2, 2, 2, 2)))]
    runs = []
    for seed in range(100):
        geom = random_geometry(4, 0.006, seed=1000 + seed)
        H = near_field_channel(geom, UePosition(1.0, -0.4), cfg)

        def measure(phases):  # one power per beam of a (T, M) stack
            cc = CombinerConfig(theta=phases, tau=np.zeros((len(phases), 1)))
            return gain_profile(cc, H, cfg).per_subcarrier[:, 0]

        ec = ExperimentConfig(
            total_measurements=40,
            exploit_start=20,
            critic_refit_period=10,
            learner_seed=seed,
            train_iters=150,
        )
        theta, history = learn_phases(measure, geom, cfg, cb, ec)
        got = gain_profile(CombinerConfig(theta=theta, tau=[0.0]), H, cfg).per_subcarrier[0]
        runs.append((measure(every), got, history.final_model))
    return {"every": every, "runs": runs}


def test_criterion_7d_exhaustive_oracle_equivalence(exhaustive_runs):
    hits = sum(
        got >= powers.max() * (1 - 1e-9) for powers, got, _ in exhaustive_runs["runs"]
    )
    _report(
        "criterion 7d (exhaustive-oracle equivalence)",
        hits >= 95,
        f"global optimum attained in {hits}/100 seeds (need >= 95)",
    )


def test_criterion_7d_critic_best_beam_is_the_oracle(exhaustive_runs):
    # the critic is one (M,) vector, the rank of the single-path power
    # |h^H w|^2; on 7d's runs its own best codebook beam is the oracle's
    beams = np.array([beam_from_phases(phases) for phases in exhaustive_runs["every"]])
    hits = 0
    for powers, _, q in exhaustive_runs["runs"]:
        assert q.shape == (4,)
        predicted = np.abs(beams @ q.conj()) ** 2
        hits += powers[np.argmax(predicted)] >= powers.max() * (1 - 1e-9)
    _report(
        "criterion 7d (rank-1 critic's own argmax)",
        hits >= 95,
        f"critic's best beam is the global optimum in {hits}/100 seeds (need >= 95)",
    )


def test_criterion_7e_pdf_full_td_flatness():
    M = 64
    cfg = SystemConfig(
        num_antennas=M,
        num_td_units=M,
        num_subcarriers=256,
        center_freq_hz=100e9,
        bandwidth_hz=10e9,
        tau_max_s=1e-9,
        flat_amplitude=True,
    )
    aperture = (M - 1) * (SPEED_OF_LIGHT / cfg.center_freq_hz) / 2
    geom = random_geometry(M, aperture, seed=12)
    ue = UePosition(2.0, -2.0)
    H = near_field_channel(geom, ue, cfg)
    # with one delay per element, each element's quantization error is the
    # same at every frequency, so it lowers the profile without tilting it
    cc = pdf_oracle(geom, ue, H, cfg, PhaseCodebook(3))
    db = normalized_gain_db(gain_profile(cc, H, cfg))
    spread = float(db.max() - db.min())
    _report(
        "criterion 7e (full-TD oracle flatness)",
        db.min() >= -0.1 and db.max() <= 0.1,
        f"band flatness {spread:.4f} dB within 0.1 dB",
    )


def test_criterion_7f_quantize_properties():
    rng = np.random.default_rng(80)
    ok = True
    for bits in (1, 2, 3, 4, 5):
        cb = PhaseCodebook(bits=bits)
        phi = rng.uniform(-50.0, 50.0, size=10_000)
        q = quantize_phase(phi, cb)
        ok &= bool(np.all(quantize_phase(q, cb) == q))
        ok &= bool(np.all(quantize_phase(phi + 2 * np.pi, cb) == q))
    _report(
        "criterion 7f (quantizer idempotence + periodicity)",
        ok,
        "10^4 random inputs per resolution, 1-5 bits",
    )
