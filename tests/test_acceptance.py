"""Acceptance suite: full-scale reference scenario, one test per criterion.

Scenario: 256-element random linear array with aperture 255 * lambda_c / 2,
100 GHz center frequency, 10 GHz bandwidth over 2048 subcarriers, 3-bit
phase shifters, user at [2, -2] m, noiseless measurements; one more test
holds the learned pipeline to the same bars under thermal snapshot noise.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from beamfocus.baselines import pdf_oracle, ps_only_oracle
from beamfocus.channel import SystemConfig, flat_amplitude_rho, near_field_channel
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
from beamfocus.geometry import UePosition, distance_difference, random_geometry
from beamfocus.phase_learning import coordinate_ascent, learn_phases
from beamfocus.sim import center_bin, gain_profile, normalized_gain_db, three_db_bandwidth
from beamfocus.sim import avg_amplitude_gain
from beam_model import beam_from_phases
from model_checks import DdfRegime, critic_loss_and_gradient, ddf_regime


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def scenario():
    # measurement budget set so exploration plus the four exploitation
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
    t0 = time.time()
    theta, history = learn_pipeline(
        scenario["ec"], scenario["H"], scenario["cfg1"], scenario["cb"]
    )
    return {"theta": theta, "history": history, "seconds": time.time() - t0}


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


def test_criterion_5_learning_convergence(scenario, learned):
    cfg, H, cb = scenario["cfg1"], scenario["H"], scenario["cb"]
    k = center_bin(H.freqs_hz, cfg.center_freq_hz)
    g_oracle = gain_profile(ps_only_oracle(H, cfg, cb), H, cfg).per_subcarrier[k]
    g_learned = gain_profile(
        CombinerConfig(theta=learned["theta"], tau=[0.0]), H, cfg
    ).per_subcarrier[k]
    history = learned["history"]
    measurements = int(history.iters[-1])
    ratio = g_learned / g_oracle

    model = history.final_model
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


def test_criterion_6_beam_split_heatmap(scenario, searched_n16):
    from beamfocus.cli import gain_map

    geom, ue, cb, H = scenario["geom"], scenario["ue"], scenario["cb"], scenario["H"]
    cfg1 = scenario["cfg1"]
    k = center_bin(H.freqs_hz, cfg1.center_freq_hz)
    freqs = [H.freqs_hz[0], H.freqs_hz[k], H.freqs_hz[-1]]
    xs, ys = np.array([ue.x]), np.array([ue.y])

    def ue_gain_db_rel_center(cc, cfg):
        gains = [
            gain_map(geom, effective_combiner(cc, cfg, f), f, xs, ys)[0, 0]
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


@pytest.mark.parametrize("snapshots", [10000, 1])
def test_noisy_learned_pipeline_meets_the_noiseless_bars(scenario, snapshots):
    """The learned pipeline under snapshot noise at the thermal floor.

    Every measurement the learner and the delay search take sees noise of
    power sigma^2 = k_B T0 (B/K) NF per subcarrier, with T0 = 290 K, B/K =
    10 GHz / 2048 and an assumed noise figure NF = 10 dB: sigma^2 is about
    1.955e-13 W. The bars are the noiseless ones: N=8 3-dB bandwidth at
    least 5 GHz, N=16 gap to the oracle at most 1.5 dB, at most 5000
    learner callback invocations.
    """
    ec = scenario["ec"]
    sigma2 = BOLTZMANN * T0_K * (ec.bandwidth_hz / ec.num_subcarriers)
    sigma2 *= 10.0 ** (NOISE_FIGURE_DB / 10.0)
    ec = replace(ec, noise_mode="snapshots", snapshots=snapshots, noise_power_w=sigma2)
    geom, ue, cb, H = scenario["geom"], scenario["ue"], scenario["cb"], scenario["H"]
    theta, history = learn_pipeline(ec, H, build_system(ec, num_td_units=1), cb)
    measurements = int(history.iters[-1])
    designs = {}
    for n in (8, 16):
        cfg_n = build_system(ec, num_td_units=n)
        result = search_pipeline(ec, theta, geom, H, cfg_n, cb)
        designs[n] = (CombinerConfig(theta=result.theta, tau=result.tau), cfg_n)
    cc8, cfg8 = designs[8]
    bw8 = three_db_bandwidth(gain_profile(cc8, H, cfg8), cfg8)
    cc16, cfg16 = designs[16]
    pdf16 = pdf_oracle(geom, ue, H, cfg16, cb)
    amp16 = avg_amplitude_gain(cc16, H, cfg16)
    gap16 = 20.0 * np.log10(avg_amplitude_gain(pdf16, H, cfg16) / amp16)
    _report(
        f"noisy gate (S = {snapshots}, sigma^2 = {sigma2:.4g} W)",
        bw8 >= 5e9 and gap16 <= 1.5 and measurements <= 5000,
        f"N=8 bandwidth {bw8 / 1e9:.2f} GHz >= 5, N=16 gap {gap16:.3f} dB <= 1.5, "
        f"{measurements} <= 5000 measurements",
    )


# --- criterion 7: property suite -------------------------------------------


def test_criterion_7a_gradient_vs_finite_differences():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(20):
        M = int(rng.integers(2, 9))
        v = int(rng.integers(1, 4))
        n = int(rng.integers(4, 16))
        q = rng.standard_normal((M, v)) + 1j * rng.standard_normal((M, v))
        beams = np.array(
            [beam_from_phases(rng.uniform(-np.pi, np.pi, M)) for _ in range(n)]
        )
        powers = rng.uniform(0, 2, n)
        _, grad = critic_loss_and_gradient(q, beams, powers)
        step = 1e-6
        fd = np.zeros_like(q)
        for i in range(M):
            for j in range(v):
                for direction in (1.0, 1j):
                    qp, qm = q.copy(), q.copy()
                    qp[i, j] += step * direction
                    qm[i, j] -= step * direction
                    lp = critic_loss_and_gradient(qp, beams, powers)[0]
                    lm = critic_loss_and_gradient(qm, beams, powers)[0]
                    fd[i, j] += direction * (lp - lm) / (2 * step)
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
            ps_per_td=M // N,
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
            M = int(rng.integers(2, 10))
            aperture = float(rng.uniform(0.3, 4.0))
            geom = random_geometry(M, aperture, seed=int(rng.integers(0, 2**31)))
            x = float(rng.uniform(0.2, 8.0))
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


def test_criterion_7d_exhaustive_oracle_equivalence():
    cb = PhaseCodebook(bits=1)
    cfg = SystemConfig(
        num_antennas=4,
        num_td_units=1,
        ps_per_td=4,
        num_subcarriers=1,
        center_freq_hz=100e9,
        bandwidth_hz=0.0,
        tau_max_s=0.0,
    )
    hits = 0
    for seed in range(100):
        geom = random_geometry(4, 0.006, seed=1000 + seed)
        H = near_field_channel(geom, UePosition(1.0, -0.4), cfg)
        best = max(
            gain_profile(
                CombinerConfig(theta=cb.values[np.array(bits)], tau=[0.0]), H, cfg
            ).per_subcarrier[0]
            for bits in np.ndindex(2, 2, 2, 2)
        )

        def measure(phases):
            cc = CombinerConfig(theta=phases, tau=[0.0])
            return gain_profile(cc, H, cfg).per_subcarrier[0]

        ec = ExperimentConfig(
            total_measurements=40,
            exploit_start=20,
            critic_refit_period=10,
            learner_seed=seed,
            critic_rank=2,
            train_iters=150,
        )
        theta, _ = learn_phases(measure, cfg, cb, ec)
        got = gain_profile(CombinerConfig(theta=theta, tau=[0.0]), H, cfg).per_subcarrier[0]
        hits += got >= best * (1 - 1e-9)
    _report(
        "criterion 7d (exhaustive-oracle equivalence)",
        hits >= 95,
        f"global optimum attained in {hits}/100 seeds (need >= 95)",
    )


def test_criterion_7e_pdf_full_td_flatness():
    M = 64
    cfg = SystemConfig(
        num_antennas=M,
        num_td_units=M,
        ps_per_td=1,
        num_subcarriers=256,
        center_freq_hz=100e9,
        bandwidth_hz=10e9,
        tau_max_s=1e-9,
    )
    from beamfocus.geometry import SPEED_OF_LIGHT

    aperture = (M - 1) * (SPEED_OF_LIGHT / cfg.center_freq_hz) / 2
    geom = random_geometry(M, aperture, seed=12)
    ue = UePosition(2.0, -2.0)
    H = near_field_channel(geom, ue, cfg, rho=flat_amplitude_rho(cfg))
    cc = pdf_oracle(geom, ue, H, cfg, None)  # continuous phases
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
        phi = rng.uniform(-40.0, 40.0, size=10_000)
        q = quantize_phase(phi, cb)
        ok &= bool(np.all(quantize_phase(q, cb) == q))
        ok &= bool(np.all(quantize_phase(phi + 2 * np.pi, cb) == q))
    _report(
        "criterion 7f (quantizer idempotence + periodicity)",
        ok,
        "10^4 random inputs per resolution, 1-5 bits",
    )
