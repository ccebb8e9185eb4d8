"""Closed-form mechanics of the two-ion crystal and the SP/OP phase algebra.

Covers the equilibrium distance, the normal-mode frequencies and rotation
angle of the mixed-mass crystal, the combined single-beam shift of the
in-phase mode for arbitrary lattice phase difference, the inversion of SP/OP
magnitude pairs into the molecular shift, and the detuning-sign inference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .quantities import ATOMIC_MASS, COULOMB_PREFACTOR

# SP/OP classification tolerance on the lattice phase difference, set by the
# relative uncertainty ~1e-3 with which the ion-ion distance is known.
PHASE_TOLERANCE_RAD = 2.0 * math.pi * 1e-3


def equilibrium_distance(u0: float) -> float:
    """Ion-ion distance d = cbrt(2 e^2 / (4 pi eps0 u0)) for spring constant u0."""
    if not u0 > 0.0:
        raise ValueError(f"spring constant must be > 0, got {u0}")
    return (2.0 * COULOMB_PREFACTOR / u0) ** (1.0 / 3.0)


def spring_from_distance(d: float) -> float:
    """Spring constant that places the two ions a distance d apart."""
    if not d > 0.0:
        raise ValueError(f"distance must be > 0, got {d}")
    return 2.0 * COULOMB_PREFACTOR / d**3


def mode_angle(mu: float) -> float:
    """Rotation angle of the normal-mode transform for mass ratio mu = m2/m1."""
    if not mu > 0.0:
        raise ValueError(f"mass ratio must be > 0, got {mu}")
    tan_theta = 1.0 / math.sqrt(mu) - math.sqrt(mu) + math.sqrt(1.0 / mu + mu - 1.0)
    return math.atan(tan_theta)


def normal_modes(m1_u: float, m2_u: float, u0: float) -> tuple[float, float, float]:
    """(Omega_minus, Omega_plus, theta) of the two-ion crystal.

    Omega_pm = omega2 sqrt(1 + mu +- sqrt(1 + mu^2 - mu)) with mu = m2/m1 and
    omega2 the single-particle frequency of the atomic ion; the in-phase mode
    is the lower one.  Frequencies in rad/s, masses in u.
    """
    if not (m1_u > 0.0 and m2_u > 0.0 and u0 > 0.0):
        raise ValueError("masses and spring constant must be > 0")
    mu = m2_u / m1_u
    omega2 = math.sqrt(u0 / (m2_u * ATOMIC_MASS))
    root = math.sqrt(1.0 + mu * mu - mu)
    omega_minus = omega2 * math.sqrt(1.0 + mu - root)
    omega_plus = omega2 * math.sqrt(1.0 + mu + root)
    return omega_minus, omega_plus, mode_angle(mu)


@dataclass(frozen=True)
class TwoIonCrystal:
    """A molecular ion (mass m1) and an atomic ion (mass m2) in one harmonic well."""

    m1_u: float
    m2_u: float
    u0: float

    def __post_init__(self):
        if not (self.m1_u > 0.0 and self.m2_u > 0.0 and self.u0 > 0.0):
            raise ValueError("masses and spring constant must be > 0")

    @classmethod
    def from_distance(cls, m1_u: float, m2_u: float, d: float) -> "TwoIonCrystal":
        return cls(m1_u, m2_u, spring_from_distance(d))

    @classmethod
    def from_lattice_periods(cls, m1_u: float, m2_u: float, n: int,
                             wavelength_nm: float) -> "TwoIonCrystal":
        """Crystal whose spacing is n lattice periods, d = n lambda / 2 (SP)."""
        if n < 1:
            raise ValueError(f"period count must be >= 1, got {n}")
        return cls.from_distance(m1_u, m2_u, n * wavelength_nm * 1e-9 / 2.0)

    @classmethod
    def from_atomic_frequency(cls, m1_u: float, m2_u: float,
                              f2_hz: float) -> "TwoIonCrystal":
        """Crystal defined by the single-ion trap frequency of the atomic ion."""
        if not f2_hz > 0.0:
            raise ValueError(f"trap frequency must be > 0, got {f2_hz}")
        omega2 = 2.0 * math.pi * f2_hz
        return cls(m1_u, m2_u, omega2 * omega2 * m2_u * ATOMIC_MASS)

    @property
    def mu(self) -> float:
        return self.m2_u / self.m1_u

    @property
    def d(self) -> float:
        return equilibrium_distance(self.u0)

    @property
    def theta(self) -> float:
        return mode_angle(self.mu)

    @property
    def omega_minus(self) -> float:
        return normal_modes(self.m1_u, self.m2_u, self.u0)[0]

    @property
    def omega_plus(self) -> float:
        return normal_modes(self.m1_u, self.m2_u, self.u0)[1]

    @property
    def f_ip(self) -> float:
        """In-phase mode frequency in Hz."""
        return self.omega_minus / (2.0 * math.pi)

    def to_modes(self, q1, q2):
        """Displacements -> normal-mode coordinates (beta_plus, beta_minus)."""
        s, c, rmu = math.sin(self.theta), math.cos(self.theta), math.sqrt(self.mu)
        return c / rmu * q1 - s * q2, s / rmu * q1 + c * q2

    def mode_weights(self) -> tuple[float, float]:
        """(sqrt(mu) sin(theta), cos(theta)): per-ion force weights of the
        in-phase mode."""
        return math.sqrt(self.mu) * math.sin(self.theta), math.cos(self.theta)


@dataclass(frozen=True)
class LatticeDrive:
    """Running-wave lattice parameters acting on the two ions.

    ``shift1_hz``/``shift2_hz`` are the signed single-beam shifts of the
    molecular and atomic ion; ``phi1``/``phi2`` the lattice spatial phases
    2 k x_i0 at their equilibrium positions.  The drive oscillates at the
    beat note between the two lattice beams.
    """

    wavelength_nm: float
    beat_frequency_hz: float
    shift1_hz: float
    shift2_hz: float
    phi1: float = 0.0
    phi2: float = 0.0
    duration_s: float = 3e-3

    def __post_init__(self):
        if self.wavelength_nm <= 0.0:
            raise ValueError("wavelength must be > 0")
        if self.duration_s <= 0.0:
            raise ValueError("pulse duration must be > 0")
        if not 0.0 <= self.beat_frequency_hz < math.inf:
            raise ValueError(f"beat_frequency_hz must be finite and >= 0, "
                             f"got {self.beat_frequency_hz}")
        for name in ("shift1_hz", "shift2_hz", "phi1", "phi2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    @property
    def k(self) -> float:
        """Lattice k-vector 2 pi / lambda in 1/m."""
        return 2.0 * math.pi / (self.wavelength_nm * 1e-9)

    @property
    def phi21(self) -> float:
        return (self.phi2 - self.phi1) % (2.0 * math.pi)

    @property
    def configuration(self) -> str:
        return classify_phase(self.phi21)

    @classmethod
    def for_crystal(cls, crystal: TwoIonCrystal, wavelength_nm: float,
                    shift1_hz: float, shift2_hz: float,
                    extra_distance_m: float = 0.0,
                    beat_frequency_hz: float | None = None,
                    duration_s: float = 3e-3) -> "LatticeDrive":
        """Drive with phases set by the crystal geometry (plus an optional
        distance offset, e.g. +lambda/4 to go from SP to OP), resonant with
        the in-phase mode unless a beat frequency is given."""
        k = 2.0 * math.pi / (wavelength_nm * 1e-9)
        if beat_frequency_hz is None:
            beat_frequency_hz = crystal.f_ip
        return cls(
            wavelength_nm=wavelength_nm,
            beat_frequency_hz=beat_frequency_hz,
            shift1_hz=shift1_hz,
            shift2_hz=shift2_hz,
            phi1=0.0,
            phi2=2.0 * k * (crystal.d + extra_distance_m),
            duration_s=duration_s,
        )


def classify_phase(phi21: float) -> str:
    """'SP' if phi21 = 0 (mod 2 pi), 'OP' if pi, else 'INTERMEDIATE'."""
    phase = phi21 % (2.0 * math.pi)
    if min(phase, 2.0 * math.pi - phase) <= PHASE_TOLERANCE_RAD:
        return "SP"
    if abs(phase - math.pi) <= PHASE_TOLERANCE_RAD:
        return "OP"
    return "INTERMEDIATE"


def combined_mode_shift(shift1_hz: float, shift2_hz: float, phi21: float,
                        mu: float, theta: float) -> complex:
    """Complex single-beam shift of the in-phase mode (Hz).

    sqrt(mu) sin(theta) dE1 + cos(theta) dE2 e^(i phi21); the magnitude is
    the effective shift driving the mode, and phi21 = 0 / pi reduce to the
    SP (+) and OP (-) special cases.
    """
    return (
        math.sqrt(mu) * math.sin(theta) * shift1_hz
        + math.cos(theta) * shift2_hz * complex(math.cos(phi21), math.sin(phi21))
    )


@dataclass(frozen=True)
class MolecularShiftEstimate:
    """Result of inverting an SP/OP magnitude pair."""

    shift_hz: float     # |dE_m0|, magnitude of the molecular shift


def extract_molecular_shift(mag_sp_hz: float, mag_op_hz: float, mu: float,
                            theta: float) -> MolecularShiftEstimate:
    """|dE_m0| = (|SP| + |OP|) / (2 sqrt(mu) sin(theta)).

    Valid under the dominance assumption |sqrt(mu) sin(theta) dE1| >
    |cos(theta) dE2|.
    """
    if mag_sp_hz < 0.0 or mag_op_hz < 0.0:
        raise ValueError("SP/OP magnitudes must be >= 0")
    weight = 2.0 * math.sqrt(mu) * math.sin(theta)
    return MolecularShiftEstimate(shift_hz=(mag_sp_hz + mag_op_hz) / weight)


def infer_detuning_sign(mag_sp_hz: float, mag_op_hz: float, sigma_hz: float,
                        k: float = 2.0) -> str:
    """'red' | 'blue' | 'indeterminate' from an SP/OP magnitude pair.

    With the atomic reference red detuned, a stronger SP signal means the
    molecular shift shares the atomic sign (red); a stronger OP signal means
    it is blue detuned.  The call is conclusive only beyond k sigma.
    """
    if sigma_hz < 0.0:
        raise ValueError("sigma must be >= 0")
    difference = mag_sp_hz - mag_op_hz
    if difference > k * sigma_hz:
        return "red"
    if -difference > k * sigma_hz:
        return "blue"
    return "indeterminate"
