import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beamfocus.geometry import (
    ArrayGeometry,
    DegeneratePositionError,
    UePosition,
    distance_difference,
    distances,
    random_geometry,
    uniform_geometry,
)
from model_checks import DdfRegime, ddf_regime


def test_geometry_invariants_enforced():
    with pytest.raises(ValueError):
        ArrayGeometry(alphas=[0.5, 0.5], aperture=1.0)  # not strictly decreasing
    with pytest.raises(ValueError):
        ArrayGeometry(alphas=[1.5, 0.0], aperture=1.0)  # outside [-1, 1]
    with pytest.raises(ValueError):
        ArrayGeometry(alphas=[1.0, -1.0], aperture=0.0)
    with pytest.raises(ValueError, match="finite"):
        ArrayGeometry(alphas=[1.0, -1.0], aperture=np.inf)


def test_ue_position_requires_positive_x():
    with pytest.raises(ValueError):
        UePosition(0.0, 1.0)
    with pytest.raises(ValueError):
        UePosition(-2.0, 1.0)


def test_distance_examples():
    g = ArrayGeometry(alphas=[1.0, -1.0], aperture=2.0)
    # element 0 at [0, 1], user at [2, -2]
    assert distances(g, UePosition(2.0, -2.0))[0] == pytest.approx(np.sqrt(13), abs=1e-15)
    g0 = ArrayGeometry(alphas=[0.0], aperture=2.0)
    assert distances(g0, UePosition(1.0, 0.0))[0] == 1.0


def test_distance_degenerate_raises():
    g = ArrayGeometry(alphas=[1.0, -1.0], aperture=2.0)
    with pytest.raises(DegeneratePositionError):
        distances(g, UePosition(1e-300, 1.0))


def test_ddf_zero_at_reference():
    g = ArrayGeometry(alphas=[1.0, -1.0], aperture=2.0)
    assert distance_difference(g, 0.0, UePosition(2.0, -2.0)) == 0.0


def test_ddf_frozen_values():
    g = ArrayGeometry(alphas=[1.0, -1.0], aperture=2.0)
    # direct Euclidean evaluation: d(2) - d_ref
    v = distance_difference(g, 2.0, UePosition(2.0, -2.0))
    assert v == pytest.approx(np.sqrt(5) - np.sqrt(13), abs=1e-14)
    v = distance_difference(g, 1.0, UePosition(3.0, 0.0))
    assert v == pytest.approx(3.0 - np.sqrt(10), abs=1e-14)


def test_ddf_rejects_out_of_range_delta():
    g = ArrayGeometry(alphas=[1.0, -1.0], aperture=2.0)
    with pytest.raises(ValueError):
        distance_difference(g, -0.1, UePosition(1.0, 0.0))
    with pytest.raises(ValueError):
        distance_difference(g, 2.1, UePosition(1.0, 0.0))


def test_regimes():
    g = ArrayGeometry(alphas=[1.0, -1.0], aperture=2.0)
    assert ddf_regime(g, UePosition(1.0, 5.0)) is DdfRegime.MONOTONE_INCREASING
    assert ddf_regime(g, UePosition(1.0, -5.0)) is DdfRegime.MONOTONE_DECREASING
    assert ddf_regime(g, UePosition(1.0, 0.0)) is DdfRegime.VALLEY
    # boundary |y| = D/2 classifies as valley
    assert ddf_regime(g, UePosition(1.0, 1.0)) is DdfRegime.VALLEY
    assert ddf_regime(g, UePosition(1.0, -1.0)) is DdfRegime.VALLEY


@settings(max_examples=200, deadline=None)
@given(
    delta=st.floats(min_value=0.0, max_value=2.0),
    aperture=st.floats(min_value=1e-3, max_value=100.0),
    x=st.floats(min_value=1e-3, max_value=1e3),
    y=st.floats(min_value=-1e3, max_value=1e3),
)
def test_ddf_bounded_by_aperture(delta, aperture, x, y):
    g = ArrayGeometry(alphas=[1.0, -1.0], aperture=aperture)
    v = distance_difference(g, delta, UePosition(x, y))
    assert abs(v) <= aperture * (1 + 1e-12)


def test_distance_reflection_symmetry():
    rng = np.random.default_rng(5)
    for seed in range(20):
        g = random_geometry(8, 1.5, seed=seed)
        mirrored = ArrayGeometry(alphas=-g.alphas[::-1], aperture=g.aperture)
        x, y = float(rng.uniform(0.5, 5)), float(rng.uniform(-3, 3))
        d1 = np.sort(distances(g, UePosition(x, y)))
        d2 = np.sort(distances(mirrored, UePosition(x, -y)))
        assert np.allclose(d1, d2, rtol=1e-14)


def test_uniform_geometry():
    assert np.allclose(uniform_geometry(2, 1.0).alphas, [1, -1])
    assert np.allclose(uniform_geometry(3, 1.0).alphas, [1, 0, -1])
    assert np.allclose(uniform_geometry(4, 1.0).alphas, [1, 1 / 3, -1 / 3, -1])
    with pytest.raises(ValueError):
        uniform_geometry(1, 1.0)


def test_random_geometry_basics():
    g = random_geometry(2, 3.0, seed=0)
    assert np.allclose(g.alphas, [1, -1])
    g5 = random_geometry(5, 3.0, seed=4)
    assert g5.alphas[0] == 1.0 and g5.alphas[-1] == -1.0
    assert np.all(np.diff(g5.alphas) < 0)
    assert np.all(np.abs(g5.alphas[1:-1]) < 1.0)
    with pytest.raises(ValueError):
        random_geometry(1, 1.0, seed=0)


def test_random_geometry_deterministic():
    a = random_geometry(256, 0.3825, seed=42)
    b = random_geometry(256, 0.3825, seed=42)
    assert np.array_equal(a.alphas, b.alphas)
    c = random_geometry(256, 0.3825, seed=43)
    assert not np.array_equal(a.alphas, c.alphas)


def test_random_geometry_min_spacing():
    for seed in range(10):
        g = random_geometry(64, 1.0, seed=seed)
        gaps = -np.diff(g.alphas) * g.aperture / 2.0
        assert np.all(gaps >= 1e-9 * g.aperture)
