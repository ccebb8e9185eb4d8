import math

import numpy as np
import pytest

from odfprobe import quantities as q

# Intensity fixed by the molecular-core anchor (7.23 au <-> -390 Hz),
# derived by closed-form inversion of the shift formula.
ANCHOR_INTENSITY = 390.0 * 2.0 * q.VACUUM_PERMITTIVITY * q.SPEED_OF_LIGHT \
    * q.PLANCK / (7.23 * q.AU_POLARIZABILITY)


def test_au_polarizability_factor_to_published_precision():
    assert q.AU_POLARIZABILITY == pytest.approx(1.648777e-41, rel=5e-7)


def test_zero_polarizability_gives_zero_shift():
    assert q.polarizability_to_shift(0.0, 1e7) == 0.0
    assert q.polarizability_to_shift(0.0, 0.0) == 0.0


def test_core_anchor_shift():
    assert ANCHOR_INTENSITY == pytest.approx(1.15e7, rel=1e-2)
    shift = q.polarizability_to_shift(7.23, ANCHOR_INTENSITY)
    assert shift == pytest.approx(-390.0, rel=1e-12)


def test_shift_scales_linearly_with_polarizability():
    shift = q.polarizability_to_shift(97.5, ANCHOR_INTENSITY)
    assert shift == pytest.approx(-390.0 * 97.5 / 7.23, rel=1e-12)
    assert 97.5 / 7.23 == pytest.approx(13.4855, abs=1e-4)


def test_sign_convention_red_detuning_negative_shift():
    assert q.polarizability_to_shift(5.0, 1e6) < 0.0
    assert q.polarizability_to_shift(-5.0, 1e6) > 0.0


def test_superposition_on_random_inputs():
    rng = np.random.default_rng(42)
    for _ in range(200):
        a1, a2 = rng.uniform(-100, 100, size=2)
        intensity = rng.uniform(0, 1e8)
        lhs = q.polarizability_to_shift(a1 + a2, intensity)
        rhs = q.polarizability_to_shift(a1, intensity) + q.polarizability_to_shift(a2, intensity)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)
        assert q.polarizability_to_shift(a1, 2.0 * intensity) == pytest.approx(
            2.0 * q.polarizability_to_shift(a1, intensity), rel=1e-12, abs=1e-15)


def test_invalid_arguments_rejected():
    with pytest.raises(ValueError):
        q.polarizability_to_shift(math.nan, 1.0)
    with pytest.raises(ValueError):
        q.polarizability_to_shift(1.0, math.inf)
    with pytest.raises(ValueError):
        q.polarizability_to_shift(1.0, -1.0)


def test_shift_to_intensity_anchor():
    intensity = q.shift_to_intensity(7.23, -390.0)
    assert intensity == pytest.approx(ANCHOR_INTENSITY, rel=1e-12)
    assert intensity == pytest.approx(1.15e7, rel=1e-2)


def test_shift_to_intensity_zero_shift():
    assert q.shift_to_intensity(1.0, 0.0) == 0.0


def test_shift_to_intensity_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(100):
        alpha = rng.uniform(0.1, 200.0) * rng.choice([-1.0, 1.0])
        shift = -math.copysign(rng.uniform(1.0, 1e4), alpha)
        intensity = q.shift_to_intensity(alpha, shift)
        assert q.polarizability_to_shift(alpha, intensity) == pytest.approx(
            shift, rel=1e-12)


def test_shift_to_intensity_errors():
    with pytest.raises(ValueError, match="zero"):
        q.shift_to_intensity(0.0, -100.0)
    with pytest.raises(ValueError, match="opposite"):
        q.shift_to_intensity(7.23, 390.0)


def test_intensity_from_core_anchor_default():
    assert q.intensity_from_core_anchor() == pytest.approx(ANCHOR_INTENSITY, rel=1e-12)


def test_wavelength_wavenumber_conversions():
    omega = q.wavelength_to_angular_frequency(789.0)
    assert omega == pytest.approx(2.0 * math.pi * q.SPEED_OF_LIGHT / 789.0e-9)
    with pytest.raises(ValueError):
        q.wavelength_to_angular_frequency(-1.0)
