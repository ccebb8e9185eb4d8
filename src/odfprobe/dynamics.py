"""Classical integration of the two-ion motion under trap, Coulomb and the
full sinusoidal lattice potential.

The linearized model treats the lattice as a homogeneous oscillating force
per ion; this module keeps the full cosine dependence, so saturation,
squeezing-like distortion and in-phase/out-of-phase mixing emerge at large
excursions (2 k q approaching 1), which is the regime that makes a
simulation-based calibration necessary.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

from .crystal import LatticeDrive, TwoIonCrystal
from .quantities import ATOMIC_MASS, COULOMB_PREFACTOR, HBAR, PLANCK

# Absolute step tolerances of (q1, q2, v1, v2): m and m/s.
_ATOL = (1e-16, 1e-16, 1e-10, 1e-10)


@dataclass(frozen=True)
class SimulationConfig:
    crystal: TwoIonCrystal
    drive: LatticeDrive
    initial_state: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    rtol: float = 1e-10
    duration_s: float | None = None       # defaults to the drive pulse length
    samples_per_period: int = 25          # of the out-of-phase mode

    def __post_init__(self):
        if not 0.0 < self.rtol <= 1e-6:
            raise ValueError(f"rtol must be in (0, 1e-6], got {self.rtol}")
        if self.duration_s is not None and self.duration_s <= 0.0:
            raise ValueError("duration must be > 0")
        if self.samples_per_period < 4:
            raise ValueError("need at least 4 samples per mode period")

    @property
    def duration(self) -> float:
        return self.drive.duration_s if self.duration_s is None else self.duration_s

    @property
    def max_step(self) -> float:
        # Resolve the drive: no more than 1/50 of a beat period per step.
        if self.drive.beat_frequency_hz > 0.0:
            return 1.0 / (50.0 * self.drive.beat_frequency_hz)
        return 1.0 / (50.0 * self.crystal.f_ip)


class IntegrationError(RuntimeError):
    pass


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
        with Path(path).open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t_s", "q1_m", "q2_m", "v1_m_s", "v2_m_s"])
            for row in zip(self.t, self.q1, self.q2, self.v1, self.v2):
                writer.writerow([f"{x:.12e}" for x in row])


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


def _force_constants(config: SimulationConfig):
    crystal, drive = config.crystal, config.drive
    m1 = crystal.m1_u * ATOMIC_MASS
    m2 = crystal.m2_u * ATOMIC_MASS
    d = crystal.d
    u0 = crystal.u0
    k = drive.k
    omega_d = 2.0 * math.pi * drive.beat_frequency_hz
    # Lattice force amplitudes 4 k h dE_i^0 (dE in Hz -> J via h).
    amp1 = 4.0 * k * PLANCK * drive.shift1_hz
    amp2 = 4.0 * k * PLANCK * drive.shift2_hz
    return m1, m2, d, u0, k, omega_d, amp1, amp2, drive.phi1, drive.phi2


def _make_rhs(config: SimulationConfig):
    m1, m2, d, u0, k, omega_d, amp1, amp2, phi1, phi2 = _force_constants(config)
    half_d = d / 2.0
    two_k = 2.0 * k

    def rhs(t, y):
        q1, q2, v1, v2 = y
        r = d + q2 - q1
        fc = COULOMB_PREFACTOR / (r * r)
        f1 = -u0 * (q1 - half_d) - fc
        f2 = -u0 * (q2 + half_d) + fc
        if amp1 != 0.0:
            f1 += amp1 * math.sin(two_k * q1 - omega_d * t + phi1)
        if amp2 != 0.0:
            f2 += amp2 * math.sin(two_k * q2 - omega_d * t + phi2)
        return (v1, v2, f1 / m1, f2 / m2)

    return rhs


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


def simulate_odf(config: SimulationConfig) -> Trajectory:
    """Integrate the driven two-ion motion with an adaptive 8th-order scheme."""
    duration = config.duration
    n_samples = max(2, int(config.samples_per_period
                           * config.crystal.omega_plus / (2.0 * math.pi) * duration))
    t_eval = np.linspace(0.0, duration, n_samples + 1)
    result = solve_ivp(
        _make_rhs(config),
        (0.0, duration),
        np.asarray(config.initial_state, dtype=float),
        method="DOP853",
        t_eval=t_eval,
        rtol=config.rtol,
        atol=_ATOL,
        max_step=config.max_step,
    )
    if not result.success:
        raise IntegrationError(
            f"step control failed: {result.message} "
            f"(reached t = {result.t[-1] if len(result.t) else 0.0:.3e} s "
            f"of {duration:.3e} s)"
        )
    return Trajectory(result.t, result.y[0], result.y[1], result.y[2], result.y[3],
                      config)


# Composition coefficients of the 6th-order symplectic scheme (solution A).
_W3, _W2, _W1 = 0.784513610477560, 0.235573213359357, -1.17767998417887
_YOSHIDA6_STAGES = (_W3, _W2, _W1, 1.0 - 2.0 * (_W1 + _W2 + _W3), _W1, _W2, _W3)
# Fixed steps per in-phase mode period of the symplectic integrator.
_SYMPLECTIC_STEPS_PER_PERIOD = 220


def simulate_symplectic(config: SimulationConfig) -> Trajectory:
    """Fixed-step 6th-order symplectic integration, the cross-check mode used
    for energy audits: the energy error is bounded instead of drifting."""
    m1, m2, d, u0, k, omega_d, amp1, amp2, phi1, phi2 = _force_constants(config)
    half_d, two_k = d / 2.0, 2.0 * k
    duration = config.duration
    period = 2.0 * math.pi / config.crystal.omega_minus
    dt = period / _SYMPLECTIC_STEPS_PER_PERIOD
    n_steps = int(math.ceil(duration / dt))
    dt = duration / n_steps
    # Keep the sample spacing fine enough for the faster mode.
    plus_period = 2.0 * math.pi / config.crystal.omega_plus
    sample_stride = max(1, int(plus_period / (config.samples_per_period * dt)))

    q1, q2, v1, v2 = config.initial_state
    t = 0.0
    ts, q1s, q2s, v1s, v2s = [0.0], [q1], [q2], [v1], [v2]
    sin = math.sin
    for step in range(n_steps):
        for w in _YOSHIDA6_STAGES:
            h = w * dt
            # drift half, kick, drift half (position Verlet per stage)
            q1 += 0.5 * h * v1
            q2 += 0.5 * h * v2
            tk = t + 0.5 * h
            r = d + q2 - q1
            fc = COULOMB_PREFACTOR / (r * r)
            f1 = -u0 * (q1 - half_d) - fc
            f2 = -u0 * (q2 + half_d) + fc
            if amp1 != 0.0:
                f1 += amp1 * sin(two_k * q1 - omega_d * tk + phi1)
            if amp2 != 0.0:
                f2 += amp2 * sin(two_k * q2 - omega_d * tk + phi2)
            v1 += h * f1 / m1
            v2 += h * f2 / m2
            q1 += 0.5 * h * v1
            q2 += 0.5 * h * v2
            t += h
        if (step + 1) % sample_stride == 0 or step == n_steps - 1:
            ts.append(t)
            q1s.append(q1)
            q2s.append(q2)
            v1s.append(v1)
            v2s.append(v2)
    return Trajectory(np.asarray(ts), np.asarray(q1s), np.asarray(q2s),
                      np.asarray(v1s), np.asarray(v2s), config)


def mode_amplitude(trajectory: Trajectory, crystal: TwoIonCrystal | None = None,
                   ) -> ModeExcitation:
    """End-of-pulse complex mode amplitudes from position/velocity quadratures."""
    if crystal is None:
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


def _sweep_point(args) -> tuple[float, float]:
    config, frequency, use_simulator = args
    cfg = replace(config, drive=replace(config.drive, beat_frequency_hz=frequency))
    if use_simulator:
        excitation = mode_amplitude(simulate_odf(cfg))
    else:
        excitation = linearized_prediction(cfg)
    return frequency, abs(excitation.amplitude_minus)


def sweep_beat_frequency(config: SimulationConfig, frequencies_hz,
                         use_simulator: bool = True,
                         jobs: int = 1) -> list[tuple[float, float]]:
    """(beat frequency, |in-phase amplitude|) pairs over a frequency sweep.

    Points are independent simulations; ``jobs`` > 1 runs them in worker
    processes (the default of 1 keeps the output bit-reproducible).
    """
    work = [(config, float(f), use_simulator) for f in frequencies_hz]
    if jobs <= 1 or len(work) <= 1:
        return [_sweep_point(item) for item in work]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_sweep_point, work))
