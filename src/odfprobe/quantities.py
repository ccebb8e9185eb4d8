"""Physical constants and unit conversions shared by every module.

Conventions used throughout the package:

* polarizability      atomic units (au)
* intensity           W/m^2
* energy shift        Hz (energy divided by the Planck constant, signed)
* wavelength          nm, vacuum
* angular frequency   rad/s
* mass                u
* distance            m
* angle               rad

All shifts are *single-beam* shifts; the factor of 2 for the standing-wave
component of the lattice lives in the lattice model, not here.
"""

import math

import numpy as np

# CODATA-2018 values, full published precision.
SPEED_OF_LIGHT = 299_792_458.0          # m/s (exact)
PLANCK = 6.626_070_15e-34               # J s (exact)
HBAR = PLANCK / (2.0 * math.pi)         # J s
ELEMENTARY_CHARGE = 1.602_176_634e-19   # C (exact)
VACUUM_PERMITTIVITY = 8.854_187_8128e-12  # F/m
ATOMIC_MASS = 1.660_539_066_60e-27      # kg
BOHR_RADIUS = 5.291_772_109_03e-11      # m
HARTREE = 4.359_744_722_2071e-18        # J

# 1 au of polarizability = e^2 a0^2 / E_h = 1.648777e-41 C^2 m^2 / J.
AU_POLARIZABILITY = ELEMENTARY_CHARGE**2 * BOHR_RADIUS**2 / HARTREE
# 1 au of squared dipole moment = (e a0)^2.
AU_DIPOLE_SQUARED = (ELEMENTARY_CHARGE * BOHR_RADIUS) ** 2
# Coulomb force/energy prefactor e^2 / (4 pi eps0), in J m.
COULOMB_PREFACTOR = ELEMENTARY_CHARGE**2 / (4.0 * math.pi * VACUUM_PERMITTIVITY)

# Detuning (Hz) from a catalog line inside which the linewidth-free
# sum-over-transitions polarizability is refused: the default of every
# prediction and of [thresholds] resonance_guard_hz.
DEFAULT_RESONANCE_GUARD_HZ = 1e9


def wavelength_to_angular_frequency(wavelength_nm: float) -> float:
    """Vacuum wavelength in nm -> angular frequency in rad/s."""
    if not math.isfinite(wavelength_nm) or wavelength_nm <= 0.0:
        raise ValueError(f"wavelength must be positive and finite, got {wavelength_nm}")
    return 2.0 * math.pi * SPEED_OF_LIGHT / (wavelength_nm * 1e-9)


def polarizability_to_shift(alpha_au, intensity: float):
    """ac-Stark shift of a level with polarizability ``alpha_au`` in a beam
    of the given intensity.

    Implements DeltaE = -alpha I / (2 eps0 c), reported per single beam and
    divided by h, so the result is a signed shift in Hz.  Positive
    polarizability (lattice red detuned) gives a negative shift.  An array
    of polarizabilities gives the array of shifts, element by element with
    the same arithmetic as a float.
    """
    if not (np.isfinite(alpha_au).all() and math.isfinite(intensity)):
        raise ValueError("alpha and intensity must be finite")
    if intensity < 0.0:
        raise ValueError(f"intensity must be >= 0, got {intensity}")
    alpha_si = alpha_au * AU_POLARIZABILITY
    return -alpha_si * intensity / (2.0 * VACUUM_PERMITTIVITY * SPEED_OF_LIGHT * PLANCK)


def shift_to_intensity(alpha_au: float, shift_hz: float) -> float:
    """Invert :func:`polarizability_to_shift` for the intensity.

    ``alpha_au`` must be nonzero, and the shift must have the sign opposite
    to the polarizability (or be zero).
    """
    if not (math.isfinite(alpha_au) and math.isfinite(shift_hz)):
        raise ValueError("alpha and shift must be finite")
    if alpha_au == 0.0:
        raise ValueError("polarizability is zero; intensity is undetermined")
    if shift_hz * alpha_au > 0.0:
        raise ValueError(
            f"shift ({shift_hz} Hz) and polarizability ({alpha_au} au) must have "
            "opposite signs"
        )
    alpha_si = alpha_au * AU_POLARIZABILITY
    return -shift_hz * 2.0 * VACUUM_PERMITTIVITY * SPEED_OF_LIGHT * PLANCK / alpha_si


CORE_ANCHOR_ALPHA_AU = 7.23
CORE_ANCHOR_SHIFT_HZ = -390.0


def intensity_from_core_anchor() -> float:
    """Lattice intensity pinned by the molecular-core anchor.

    The experimental intensity is not published directly; it is fixed by the
    pair (core polarizability, core shift) = (7.23 au, -390 Hz), which
    evaluates to about 1.15e7 W/m^2.
    """
    return shift_to_intensity(CORE_ANCHOR_ALPHA_AU, CORE_ANCHOR_SHIFT_HZ)
