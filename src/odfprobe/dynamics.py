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

from .crystal import LatticeDrive, TwoIonCrystal
from .quantities import ATOMIC_MASS, COULOMB_PREFACTOR, HBAR, PLANCK

# Output samples, and integration steps, per period of the out-of-phase mode
# (or of the beat note, when that is faster).
_SAMPLES_PER_PERIOD = 25


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
    """The ions crossed (r <= 0) or the integrated state stopped being finite."""


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
        if r <= 0.0:
            raise IntegrationError(f"ions crossed (r = {r:.3e} m) at t = {t:.3e} s")
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


# The explicit 12-stage, 8th-order Runge-Kutta tableau of DOP853 (Hairer,
# Norsett & Wanner, Solving ODEs I, sec. II.10), used here as a fixed-step
# scheme without its error estimator or dense output.  Row i of _A holds
# a_ij for j < i.
_C = (0.0,
      0.526001519587677318785587544488e-01,
      0.789002279381515978178381316732e-01,
      0.118350341907227396726757197510,
      0.281649658092772603273242802490,
      0.333333333333333333333333333333,
      0.25,
      0.307692307692307692307692307692,
      0.651282051282051282051282051282,
      0.6,
      0.857142857142857142857142857142,
      1.0)
_A = ((),
      (5.26001519587677318785587544488e-2,),
      (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
      (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
      (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
       9.24834003261792003115737966543e-1),
      (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
       1.25467687566822425016691814123e-1),
      (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
       6.02165389804559606850219397283e-2, -1.7578125e-2),
      (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
       1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
       8.27378916381402288758473766002e-3),
      (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
       -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
       2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
      (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
       -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
       1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
       -2.03312017085086261358222928593e-2),
      (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
       1.09143734899672957818500254654, -8.14978701074692612513997267357,
       -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
       2.49360555267965238987089396762, -3.0467644718982195003823669022),
      (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
       -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
       2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
       -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
       6.43392746015763530355970484046e-1))
_B = (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
      4.45031289275240888144113950566, 1.89151789931450038304281599044,
      -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
      -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
      4.47106157277725905176885569043e-2)


def _rk8(rhs, y0, h, n):
    """The n + 1 states of n fixed steps of size h from y0 at t = 0.

    The stage sums are written out term by term, skipping the zero entries
    of the tableau: in plain Python floats this is about three times faster
    than looping over the rows.
    """
    _, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12 = _C
    ((), (a21,), (a31, a32), (a41, _, a43), (a51, _, a53, a54),
     (a61, _, _, a64, a65), (a71, _, _, a74, a75, a76),
     (a81, _, _, a84, a85, a86, a87), (a91, _, _, a94, a95, a96, a97, a98),
     (a101, _, _, a104, a105, a106, a107, a108, a109),
     (a111, _, _, a114, a115, a116, a117, a118, a119, a1110),
     (a121, _, _, a124, a125, a126, a127, a128, a129, a1210, a1211)) = _A
    b1, _, _, _, _, b6, b7, b8, b9, b10, b11, b12 = _B
    y = tuple(float(v) for v in y0)
    states = [y]
    for i in range(n):
        t = i * h
        k1 = rhs(t, y)
        k2 = rhs(t + c2 * h, [p + h * (a21 * q1) for p, q1 in zip(y, k1)])
        k3 = rhs(t + c3 * h, [p + h * (a31 * q1 + a32 * q2)
                              for p, q1, q2 in zip(y, k1, k2)])
        k4 = rhs(t + c4 * h, [p + h * (a41 * q1 + a43 * q3)
                              for p, q1, q3 in zip(y, k1, k3)])
        k5 = rhs(t + c5 * h, [p + h * (a51 * q1 + a53 * q3 + a54 * q4)
                              for p, q1, q3, q4 in zip(y, k1, k3, k4)])
        k6 = rhs(t + c6 * h, [p + h * (a61 * q1 + a64 * q4 + a65 * q5)
                              for p, q1, q4, q5 in zip(y, k1, k4, k5)])
        k7 = rhs(t + c7 * h, [p + h * (a71 * q1 + a74 * q4 + a75 * q5 + a76 * q6)
                              for p, q1, q4, q5, q6 in zip(y, k1, k4, k5, k6)])
        k8 = rhs(t + c8 * h, [p + h * (a81 * q1 + a84 * q4 + a85 * q5 + a86 * q6
                                       + a87 * q7)
                              for p, q1, q4, q5, q6, q7 in zip(y, k1, k4, k5, k6, k7)])
        k9 = rhs(t + c9 * h, [p + h * (a91 * q1 + a94 * q4 + a95 * q5 + a96 * q6
                                       + a97 * q7 + a98 * q8)
                              for p, q1, q4, q5, q6, q7, q8
                              in zip(y, k1, k4, k5, k6, k7, k8)])
        k10 = rhs(t + c10 * h, [p + h * (a101 * q1 + a104 * q4 + a105 * q5 + a106 * q6
                                         + a107 * q7 + a108 * q8 + a109 * q9)
                                for p, q1, q4, q5, q6, q7, q8, q9
                                in zip(y, k1, k4, k5, k6, k7, k8, k9)])
        k11 = rhs(t + c11 * h, [p + h * (a111 * q1 + a114 * q4 + a115 * q5 + a116 * q6
                                         + a117 * q7 + a118 * q8 + a119 * q9
                                         + a1110 * q10)
                                for p, q1, q4, q5, q6, q7, q8, q9, q10
                                in zip(y, k1, k4, k5, k6, k7, k8, k9, k10)])
        k12 = rhs(t + c12 * h, [p + h * (a121 * q1 + a124 * q4 + a125 * q5 + a126 * q6
                                         + a127 * q7 + a128 * q8 + a129 * q9
                                         + a1210 * q10 + a1211 * q11)
                                for p, q1, q4, q5, q6, q7, q8, q9, q10, q11
                                in zip(y, k1, k4, k5, k6, k7, k8, k9, k10, k11)])
        y = tuple([p + h * (b1 * q1 + b6 * q6 + b7 * q7 + b8 * q8 + b9 * q9
                            + b10 * q10 + b11 * q11 + b12 * q12)
                   for p, q1, q6, q7, q8, q9, q10, q11, q12
                   in zip(y, k1, k6, k7, k8, k9, k10, k11, k12)])
        states.append(y)
    return states


def simulate_odf(config: SimulationConfig) -> Trajectory:
    """Integrate the driven two-ion motion with the fixed-step 8th-order
    Runge-Kutta scheme, one step per output sample."""
    duration = config.duration
    omega = max(config.crystal.omega_plus, 2.0 * math.pi * config.drive.beat_frequency_hz)
    n = max(2, int(_SAMPLES_PER_PERIOD * omega / (2.0 * math.pi) * duration))
    t = np.linspace(0.0, duration, n + 1)
    states = np.array(_rk8(_make_rhs(config), config.initial_state, duration / n, n))
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        raise IntegrationError(f"state not finite at t = {t[np.argmin(finite)]:.3e} s "
                               f"of {duration:.3e} s")
    q1, q2, v1, v2 = states.T
    return Trajectory(t, q1, q2, v1, v2, config)


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
    sample_stride = max(1, int(plus_period / (_SAMPLES_PER_PERIOD * dt)))

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
