import tracemalloc

import numpy as np
import pytest

from beamfocus.baselines import ps_only_oracle
from beamfocus.config import (
    ExperimentConfig,
    build_channel,
    build_codebook,
    build_geometry,
    build_system,
)
from beamfocus.delay_search import SEED_COHERENCE
from beamfocus.focus import coherence, locate_focus
from beam_model import conjugate_phases


@pytest.fixture(scope="module")
def reference():
    """The acceptance scenario's array (M = 256) and channel."""
    ec = ExperimentConfig()
    geom = build_geometry(ec)
    cfg = build_system(ec, num_td_units=1)
    return ec, geom, build_codebook(ec), cfg, build_channel(ec, geom, cfg)


def test_oracle_phases_locate_the_user(reference):
    # the 3-bit conjugate phases of the reference channel focus on the user
    ec, geom, cb, cfg, H = reference
    x, y, fit = locate_focus(ps_only_oracle(H, cfg, cb).theta, geom, ec.center_freq_hz)
    assert np.hypot(x - 2.0, y + 2.0) <= 0.02
    assert fit >= 0.95


@pytest.mark.parametrize(
    "point", [(2.0, -2.0), (1.0, 0.5), (3.0, -1.0), (0.5, 0.2), (1.5, 1.5), (0.4, -0.3)]
)
def test_conjugate_phases_locate_their_source(reference, point):
    ec, geom = reference[0], reference[1]
    theta = conjugate_phases(geom, ec.center_freq_hz, point)
    x, y, fit = locate_focus(theta, geom, ec.center_freq_hz)
    assert np.hypot(x - point[0], y - point[1]) <= 5e-3
    assert fit >= 0.9999


def test_conjugate_phases_locate_their_source_on_a_512_element_array():
    # a uniform M = 512 array: five stages, the last on all 512 elements
    ec = ExperimentConfig(num_antennas=512, geometry_kind="uniform")
    geom = build_geometry(ec)
    theta = conjugate_phases(geom, ec.center_freq_hz, (2.0, -2.0))
    x, y, fit = locate_focus(theta, geom, ec.center_freq_hz)
    assert np.hypot(x - 2.0, y + 2.0) <= 5e-3
    assert fit >= 0.9999


def test_coherence_is_one_at_the_source_only(reference):
    ec, geom = reference[0], reference[1]
    theta = conjugate_phases(geom, ec.center_freq_hz, (2.0, -2.0))
    xs = np.array([[2.0, 2.0], [2.5, 2.0]])
    ys = np.array([[-2.0, -1.0], [-2.0, -2.0]])
    got = coherence(theta, geom, ec.center_freq_hz, xs, ys)
    assert got.shape == (2, 2)
    assert got[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert got[0, 1] < 0.5 and got[1, 0] < 0.5
    assert got[1, 1] == got[0, 0]


# the three fixed points the large-array cases focus on
FIXED_POINTS = [(2.0, -2.0), (1.0, 0.5), (4.0, 3.0)]


@pytest.mark.parametrize("M", [1024, 2048, 4096])
def test_conjugate_phases_locate_their_source_on_large_arrays(M):
    # random arrays at the default aperture, up to 16 times the reference's
    ec = ExperimentConfig(num_antennas=M)
    geom = build_geometry(ec)
    for point in FIXED_POINTS:
        theta = conjugate_phases(geom, ec.center_freq_hz, point)
        x, y, fit = locate_focus(theta, geom, ec.center_freq_hz)
        assert np.hypot(x - point[0], y - point[1]) <= 5e-3, point
        assert fit >= 0.9999, point


def test_conjugate_phases_locate_close_foci(reference):
    # foci a few apertures from the reference array, at 9 angles in +-1.2 rad
    ec, geom = reference[0], reference[1]
    misses = []
    for r in (0.32, 0.36, 0.40, 0.45):
        for phi in np.linspace(-1.2, 1.2, 9):
            point = (r * np.cos(phi), r * np.sin(phi))
            theta = conjugate_phases(geom, ec.center_freq_hz, point)
            x, y, fit = locate_focus(theta, geom, ec.center_freq_hz)
            if np.hypot(x - point[0], y - point[1]) > 5e-3 or fit < 0.9999:
                misses.append((r, phi, x, y, fit))
    assert misses == []


@pytest.mark.parametrize(
    "keys, focused",
    [
        # a 100 m aperture of 16 elements, 33,333 wavelengths wide: the
        # elements sit too far apart to focus on one point
        ({"num_antennas": 16, "aperture_m": 100.0}, False),
        # 16 elements at 1 kHz: a 2,250 km auto aperture, in phase at every
        # point within meters of its center
        ({"num_antennas": 16, "center_freq_hz": 1e3, "bandwidth_hz": 1e2}, True),
    ],
    ids=["aperture-100m", "center-1kHz"],
)
def test_sparse_wide_arrays_locate_in_little_memory(keys, focused):
    ec = ExperimentConfig(**keys)
    geom = build_geometry(ec)
    theta = conjugate_phases(geom, ec.center_freq_hz, (2.0, -2.0))
    tracemalloc.start()
    try:
        x, y, fit = locate_focus(theta, geom, ec.center_freq_hz)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert np.isfinite([x, y]).all() and x > 0.0
    assert fit >= 0.9999 if focused else fit < SEED_COHERENCE
