"""Classical integration of the two-ion motion under trap, Coulomb and the
full sinusoidal lattice potential.

The linearized model treats the lattice as a homogeneous oscillating force
per ion; this module keeps the full cosine dependence, so saturation,
squeezing-like distortion and in-phase/out-of-phase mixing emerge at large
excursions (2 k q approaching 1), which is the regime that makes a
simulation-based calibration necessary.

One kernel integrates the motion: the 6th-order symplectic composition of
Yoshida (1990) at a fixed step, in plain Python floats.  Its lattice-off
energy error stays bounded instead of drifting, and the stored trajectory
keeps a fixed number of samples per out-of-phase period whatever the beat.
A drive deep enough for chaotic motion is checked again at half the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .catalog import write_table
from .crystal import LatticeDrive, TwoIonCrystal
from .quantities import ATOMIC_MASS, COULOMB_PREFACTOR, HBAR, PLANCK

# Integration steps per period of the faster of the in-phase mode and the
# beat note.  Criterion 07b's lattice-off energy drift over 3 ms reads 7.6e-11
# here; at 140 steps it reads 1.1e-9, above the criterion's 1e-9.
_STEPS_PER_PERIOD = 220
# The most steps one run may take: about ten times a 3 ms pulse at f_IP
# (466 170 steps, 2 s in plain Python); a half-step check then takes twice as
# many.  A beat far above f_IP sets the step, so the count grows as beat x pulse.
_MAX_STEPS = 5_000_000
# Stored samples per out-of-phase period; mode_amplitude needs 20.
_SAMPLES_PER_PERIOD = 25
# A lattice whose curvature 8 k^2 h |dE| reaches this fraction of the trap's
# u0 can drag an ion across its sites, and the motion may turn chaotic: a
# 3 ms resonant pulse at a 3 MHz molecular shift (0.92 of u0) ends at
# n = 139, 242 and 152 at 220, 440 and 880 steps per period.  Such drives are
# run again at half the step; the end state may move by this fraction of the
# largest excursion (it moves by 1e-9 to 1e-6 where the motion is regular).
_DEEP_LATTICE = 0.1
_STEP_TOLERANCE = 1e-4


@dataclass(frozen=True)
class SimulationConfig:
    crystal: TwoIonCrystal
    drive: LatticeDrive
    initial_state: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    duration_s: float | None = None       # defaults to the drive pulse length

    def __post_init__(self):
        if not all(map(math.isfinite, self.initial_state)):
            raise ValueError(f"initial state must be finite, got {self.initial_state}")
        if self.duration_s is not None and not 0.0 < self.duration_s < math.inf:
            raise ValueError(f"duration must be finite and > 0, got {self.duration_s}")

    @property
    def duration(self) -> float:
        return self.drive.duration_s if self.duration_s is None else self.duration_s


class IntegrationError(RuntimeError):
    """The ions crossed (r <= 0), the integrated state stopped being finite, or
    a deep lattice's end state changed when the step was halved."""


@dataclass(frozen=True)
class Trajectory:
    """Sampled displacements and velocities of the two ions."""

    t: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    config: SimulationConfig

    def export_csv(self, path) -> None:
        write_table(path, ["t_s", "q1_m", "q2_m", "v1_m_s", "v2_m_s"],
                    ([f"{x:.12e}" for x in row]
                     for row in zip(self.t, self.q1, self.q2, self.v1, self.v2)))


@dataclass(frozen=True)
class ModeExcitation:
    """End-of-pulse excitation of the two normal modes."""

    amplitude_minus: complex     # analytic-signal amplitude beta + i betadot/Omega, m
    amplitude_plus: complex
    omega_minus: float
    omega_plus: float
    mode_mass_kg: float

    @property
    def n_minus(self) -> float:
        """Equivalent mean phonon number of the in-phase mode."""
        return (self.mode_mass_kg * self.omega_minus
                * abs(self.amplitude_minus) ** 2 / (2.0 * HBAR))

    @property
    def n_plus(self) -> float:
        return (self.mode_mass_kg * self.omega_plus
                * abs(self.amplitude_plus) ** 2 / (2.0 * HBAR))

    @property
    def energy_minus_j(self) -> float:
        return 0.5 * self.mode_mass_kg * self.omega_minus ** 2 * abs(self.amplitude_minus) ** 2

    @property
    def energy_plus_j(self) -> float:
        return 0.5 * self.mode_mass_kg * self.omega_plus ** 2 * abs(self.amplitude_plus) ** 2


def total_energy(trajectory: Trajectory) -> np.ndarray:
    """Trap + Coulomb + kinetic energy along the trajectory (J); the lattice
    term is excluded, so this is conserved only with the lattice off."""
    cfg = trajectory.config
    m1 = cfg.crystal.m1_u * ATOMIC_MASS
    m2 = cfg.crystal.m2_u * ATOMIC_MASS
    d, u0 = cfg.crystal.d, cfg.crystal.u0
    x1 = trajectory.q1 - d / 2.0
    x2 = trajectory.q2 + d / 2.0
    r = d + trajectory.q2 - trajectory.q1
    return (
        0.5 * m1 * trajectory.v1**2
        + 0.5 * m2 * trajectory.v2**2
        + 0.5 * u0 * (x1**2 + x2**2)
        + COULOMB_PREFACTOR / r
    )


# Composition coefficients of the 6th-order symplectic scheme (Yoshida 1990,
# Phys. Lett. A 150, 262, solution A): a symmetric product of seven position
# Verlet steps of sizes w_k dt.
_W3, _W2, _W1 = 0.784513610477560, 0.235573213359357, -1.17767998417887
_YOSHIDA6 = (_W3, _W2, _W1, 1.0 - 2.0 * (_W1 + _W2 + _W3), _W1, _W2, _W3)


def simulate_odf(config: SimulationConfig) -> Trajectory:
    """Integrate the driven two-ion motion with the 6th-order symplectic
    composition at a fixed step.

    The step is at most 1/_STEPS_PER_PERIOD of the period of the faster of
    the in-phase mode and the beat note.  The stored samples, one per
    1/_SAMPLES_PER_PERIOD of the out-of-phase period (the count rounded
    down), lie a whole number of steps apart, so their count follows the
    pulse length alone.  A drive deeper than _DEEP_LATTICE is run again at
    half the step, and an end state that moves raises IntegrationError.  A
    run that would take more than _MAX_STEPS steps raises ValueError.
    """
    crystal, drive = config.crystal, config.drive
    duration = config.duration
    samples = max(2, int(_SAMPLES_PER_PERIOD * crystal.omega_plus / (2.0 * math.pi)
                         * duration))
    fastest = max(crystal.f_ip, drive.beat_frequency_hz)
    stride = math.ceil(_STEPS_PER_PERIOD * fastest * duration / samples)
    if stride * samples > _MAX_STEPS:
        raise ValueError(f"a {drive.beat_frequency_hz:g} Hz beat over a {duration * 1e3:g} ms "
                         f"pulse needs {stride * samples} integration steps, more than "
                         f"the {_MAX_STEPS} allowed")
    states = _integrate(config, samples, stride)
    t = np.linspace(0.0, duration, samples + 1)
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        raise IntegrationError(f"state not finite at t = {t[np.argmin(finite)]:.3e} s "
                               f"of {duration:.3e} s")
    depth = (8.0 * drive.k ** 2 * PLANCK
             * max(abs(drive.shift1_hz), abs(drive.shift2_hz)) / crystal.u0)
    if depth >= _DEEP_LATTICE:
        scale = np.array([1.0, 1.0, crystal.omega_minus, crystal.omega_minus])
        excursion = np.max(np.abs(states / scale))
        change = np.max(np.abs((_integrate(config, samples, 2 * stride)[-1]
                                - states[-1]) / scale))
        if not change <= _STEP_TOLERANCE * excursion:
            raise IntegrationError(
                f"end state depends on the step: halving it moves the end state by "
                f"{change / excursion:.1e} of the largest excursion; the lattice "
                f"curvature is {depth:.3g} of the trap's, deep enough for chaotic motion")
    q1, q2, v1, v2 = states.T
    return Trajectory(t, q1, q2, v1, v2, config)


def _integrate(config: SimulationConfig, samples: int, stride: int) -> np.ndarray:
    """States at samples + 1 equally spaced times, stride steps apart."""
    crystal, drive = config.crystal, config.drive
    dt = config.duration / (stride * samples)
    m1, m2 = crystal.m1_u * ATOMIC_MASS, crystal.m2_u * ATOMIC_MASS
    d, half_d, two_k = crystal.d, crystal.d / 2.0, 2.0 * drive.k
    u0, k_e = crystal.u0, COULOMB_PREFACTOR
    omega_d = 2.0 * math.pi * drive.beat_frequency_hz
    # Lattice force amplitudes 4 k h dE_i^0 (dE in Hz -> J via h).
    amp1 = 4.0 * drive.k * PLANCK * drive.shift1_hz
    amp2 = 4.0 * drive.k * PLANCK * drive.shift2_hz
    # Per stage: the kick over each ion's mass, the drive phases at the kick's
    # time within the step, and the drift after it.  Adjacent half drifts are
    # merged, across steps too, so each sample block starts and ends on a half
    # drift.  Each time is the step index times dt plus the offset within the
    # step: a running sum of steps would round into a drive-frequency error.
    half_drift = 0.5 * _YOSHIDA6[0] * dt
    stages, elapsed = [], 0.0
    for w, w_next in zip(_YOSHIDA6, _YOSHIDA6[1:] + _YOSHIDA6[:1]):
        advance = omega_d * (elapsed + 0.5 * w) * dt
        stages.append((w * dt / m1, w * dt / m2, drive.phi1 - advance,
                       drive.phi2 - advance, 0.5 * (w + w_next) * dt))
        elapsed += w

    sin = math.sin
    q1, q2, v1, v2 = map(float, config.initial_state)
    states = [(q1, q2, v1, v2)]
    for sample in range(samples):
        q1 += half_drift * v1
        q2 += half_drift * v2
        for step in range(sample * stride, (sample + 1) * stride):
            phase = omega_d * (step * dt)
            for kick1, kick2, p1, p2, drift in stages:
                r = d + q2 - q1
                if r <= 0.0:
                    raise IntegrationError(f"ions crossed (r = {r:.3e} m) at "
                                           f"t = {step * dt:.3e} s")
                coulomb = k_e / (r * r)
                f1 = u0 * (half_d - q1) - coulomb
                f2 = coulomb - u0 * (q2 + half_d)
                if amp1:
                    f1 += amp1 * sin(two_k * q1 + (p1 - phase))
                if amp2:
                    f2 += amp2 * sin(two_k * q2 + (p2 - phase))
                v1 += kick1 * f1
                v2 += kick2 * f2
                q1 += drift * v1
                q2 += drift * v2
        q1 -= half_drift * v1
        q2 -= half_drift * v2
        states.append((q1, q2, v1, v2))
    return np.array(states)


def mode_amplitude(trajectory: Trajectory) -> ModeExcitation:
    """End-of-pulse complex mode amplitudes from position/velocity quadratures."""
    crystal = trajectory.config.crystal
    t = trajectory.t
    if len(t) < 3:
        raise ValueError("trajectory too short to extract mode amplitudes")
    dt = np.diff(t)
    min_period = 2.0 * math.pi / crystal.omega_plus
    if np.max(dt) > min_period / 20.0:
        raise ValueError(
            f"trajectory undersampled: step {np.max(dt):.3e} s exceeds 1/20 of the "
            f"out-of-phase period {min_period:.3e} s"
        )
    beta_plus, beta_minus = crystal.to_modes(trajectory.q1[-1], trajectory.q2[-1])
    betadot_plus, betadot_minus = crystal.to_modes(trajectory.v1[-1], trajectory.v2[-1])
    om, op = crystal.omega_minus, crystal.omega_plus
    return ModeExcitation(
        amplitude_minus=complex(beta_minus, betadot_minus / om),
        amplitude_plus=complex(beta_plus, betadot_plus / op),
        omega_minus=om,
        omega_plus=op,
        mode_mass_kg=crystal.m2_u * ATOMIC_MASS,
    )


def linearized_prediction(config: SimulationConfig) -> ModeExcitation:
    """Analytic mode amplitudes for the linearized (homogeneous-force) lattice.

    Each ion feels F_i = 4 k dE_i^0 sin(omega t - phi_i0); the projections on
    the two modes drive independent oscillators, integrated in closed form
    from rest (exact, including the counter-rotating term).
    """
    crystal, drive = config.crystal, config.drive
    m2 = crystal.m2_u * ATOMIC_MASS
    rmu_s, c = crystal.mode_weights()
    s = math.sin(crystal.theta)
    rmu_c = math.sqrt(crystal.mu) * math.cos(crystal.theta)
    f1 = 4.0 * drive.k * PLANCK * drive.shift1_hz
    f2 = 4.0 * drive.k * PLANCK * drive.shift2_hz
    # Complex force phasors: f(t) = Im[C e^(i omega t)] with C = sum w_i F_i e^(-i phi_i)
    e1 = complex(math.cos(drive.phi1), -math.sin(drive.phi1))
    e2 = complex(math.cos(drive.phi2), -math.sin(drive.phi2))
    c_minus = rmu_s * f1 * e1 + c * f2 * e2
    c_plus = rmu_c * f1 * e1 - s * f2 * e2
    omega_d = 2.0 * math.pi * drive.beat_frequency_hz
    duration = config.duration

    def amplitude(c_force: complex, omega_mode: float) -> complex:
        def integral(delta: float) -> complex:
            # int_0^T e^(i delta t) dt, removable singularity at delta = 0
            phase = complex(math.cos(delta * duration / 2.0),
                            math.sin(delta * duration / 2.0))
            return duration * phase * np.sinc(delta * duration / (2.0 * math.pi))
        drive_integral = (c_force * integral(omega_mode + omega_d)
                          - c_force.conjugate() * integral(omega_mode - omega_d)) / 2j
        end_phase = complex(math.cos(omega_mode * duration),
                            -math.sin(omega_mode * duration))
        return 1j / (m2 * omega_mode) * end_phase * drive_integral

    return ModeExcitation(
        amplitude_minus=amplitude(c_minus, crystal.omega_minus),
        amplitude_plus=amplitude(c_plus, crystal.omega_plus),
        omega_minus=crystal.omega_minus,
        omega_plus=crystal.omega_plus,
        mode_mass_kg=m2,
    )


def sweep_beat_frequency(config: SimulationConfig, frequencies_hz,
                         use_simulator: bool = True) -> list[tuple[float, float]]:
    """(beat frequency, |in-phase amplitude|) pairs over a frequency sweep."""
    rows = []
    for frequency in map(float, frequencies_hz):
        cfg = replace(config, drive=replace(config.drive, beat_frequency_hz=frequency))
        excitation = (mode_amplitude(simulate_odf(cfg)) if use_simulator
                      else linearized_prediction(cfg))
        rows.append((frequency, abs(excitation.amplitude_minus)))
    return rows
