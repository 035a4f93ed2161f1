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
from beamfocus import focus
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
    # a uniform M = 512 array: the coarse grid scores 511 u columns in one product
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


class Scored(Exception):
    """Raised in place of scoring the coarse grid."""


def test_a_grid_past_the_bound_is_not_built(monkeypatch):
    def spy(*args):
        raise Scored

    monkeypatch.setattr(focus, "_fresnel_peak", spy)
    # a 100 m aperture of 16 elements: a 66,713 x 5,559,402 grid of 5.4 TiB
    ec = ExperimentConfig(num_antennas=16, aperture_m=100.0)
    geom = build_geometry(ec)
    theta = conjugate_phases(geom, ec.center_freq_hz, (2.0, -2.0))
    x, y, fit = locate_focus(theta, geom, ec.center_freq_hz)
    assert np.isnan(x) and np.isnan(y) and fit == 0.0
    # the bound still admits M = 2,048 at the default aperture
    ec = ExperimentConfig(num_antennas=2048)
    with pytest.raises(Scored):
        locate_focus(np.zeros(2048), build_geometry(ec), ec.center_freq_hz)
