"""Classical integration of the two-ion motion under trap, Coulomb and the
full sinusoidal lattice potential.

The linearized model treats the lattice as a homogeneous oscillating force
per ion; this module keeps the full cosine dependence, so saturation,
squeezing-like distortion and in-phase/out-of-phase mixing emerge at large
excursions (2 k q approaching 1), which is the regime that makes a
simulation-based calibration necessary.

One kernel integrates the motion: the 6th-order symplectic composition of
Yoshida (1990) at a fixed step, in plain Python floats, split around the
crystal's normal modes (the mixed-variable map of Wisdom & Holman 1991,
Astron. J. 102, 1528).  Its drift is the exact flow of the linearized
crystal, each normal mode turning by omega tau, and its kick applies only the
lattice and the Coulomb force beyond its linearization.  So the step need
not resolve the in-phase oscillation, and the kernel takes one step per
stored sample near resonance.  Its lattice-off energy error stays bounded
instead of drifting, and the stored trajectory keeps a fixed number of
samples per out-of-phase period whatever the beat.  A drive deep enough for
chaotic motion is checked again at half the step.

A beat-frequency sweep reads only each point's end state, so each point runs
to the end of the pulse and stores that one state, at a step that follows
the beat and the drive (end_state_plan).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .catalog import write_table
from .crystal import LatticeDrive, TwoIonCrystal, normal_modes
from .quantities import ATOMIC_MASS, COULOMB_PREFACTOR, HBAR, PLANCK

# Integration steps per period of the faster of the in-phase mode and the
# beat note, at the least.  A run also takes at least one step per stored
# sample (44.7 per in-phase period), so the beat sets the step only above
# about the out-of-phase frequency.  At one step per sample criterion 07b's
# lattice-off energy drift over 3 ms reads 9.2e-11, against the criterion's
# 1e-9.
_STEPS_PER_PERIOD = 25
# The most steps one run may take: about ten times a 3 ms pulse at f_IP
# (93 233 steps, 0.8 s in plain Python); a half-step check then takes twice as
# many.  A beat far above f_IP sets the step, so the count grows as beat x pulse.
_MAX_STEPS = 1_000_000
# Stored samples per out-of-phase period: the density of trajectory.csv and
# of the samples criterion 07b reads its drift at, and simulate_odf's step
# wherever the run takes one step per sample.
_SAMPLES_PER_PERIOD = 25
# A lattice whose curvature 8 k^2 h |dE| reaches this fraction of the trap's
# u0 can drag an ion across its sites, and the motion may turn chaotic: a
# 3 ms resonant pulse at a 3 MHz molecular shift (0.92 of u0) ends at
# n = 352, 544 and 8.7 at 220, 440 and 880 steps per period.  Such drives are
# run again at half the step; the end state may move by this fraction of the
# largest excursion (it moves by 3e-10 to 2e-8 where the motion is regular).
_DEEP_LATTICE = 0.1
_STEP_TOLERANCE = 1e-4
# Steps per period of the faster of the in-phase mode and the beat note for
# a drive that deep.  The kick is then no small part of the force: at one
# step per sample a +1 MHz molecular shift's |A-| is off by 5.9e-7, at this
# step by 5e-11.
_DEEP_STEPS_PER_PERIOD = 220
# Steps per period of the faster of the in-phase mode and the beat for a run
# that keeps only its end state, where the drive's depth times the in-phase
# half periods of the pulse, pi depth f_IP T, stays below _END_WEAK_DRIVE:
# criterion 07c's 3 ms points (0.06) then read |A-| within 4e-11 of a
# 256-step reference, as they do at one step per sample.
_END_STEPS_PER_PERIOD = 16
_END_WEAK_DRIVE = 0.1
# Rows formatted at a time when a trajectory is written.
_EXPORT_ROWS = 4096


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
        # one %-format per row, split back into write_table's fields, with
        # _EXPORT_ROWS rows at a time held as floats
        columns = (self.t, self.q1, self.q2, self.v1, self.v2)
        write_table(path, ["t_s", "q1_m", "q2_m", "v1_m_s", "v2_m_s"],
                    (("%.12e,%.12e,%.12e,%.12e,%.12e" % row).split(",")
                     for start in range(0, len(self.t), _EXPORT_ROWS)
                     for row in zip(*(column[start:start + _EXPORT_ROWS].tolist()
                                      for column in columns))))


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
    composition at a fixed step, split around the normal modes.

    The step is at most one stored sample, and at most 1/_STEPS_PER_PERIOD
    of the period of the faster of the in-phase mode and the beat note
    (step_plan).  The stored samples, one per
    1/_SAMPLES_PER_PERIOD of the out-of-phase period (the count rounded
    down), lie a whole number of steps apart, so their count follows the
    pulse length alone.  A drive deeper than _DEEP_LATTICE is run again at
    half the step, and an end state that moves raises IntegrationError.  A
    run that would take more than _MAX_STEPS steps raises ValueError.
    """
    samples, stride = step_plan(config)
    q1, q2, v1, v2 = _run(config, samples, stride).T
    return Trajectory(np.linspace(0.0, config.duration, samples + 1), q1, q2, v1, v2, config)


def end_state_excitation(config: SimulationConfig) -> ModeExcitation:
    """The mode excitation at the end of the pulse, from a run of
    end_state_plan that stores no trajectory on the way, with simulate_odf's
    checks."""
    samples, stride = end_state_plan(config)
    return _excitation(config.crystal, *_run(config, samples, stride)[-1])


def _run(config: SimulationConfig, samples: int, stride: int) -> np.ndarray:
    """_integrate's states, checked: a run of more than _MAX_STEPS steps
    raises ValueError, and a state that is not finite, or a deep drive's end
    state that moves when the step is halved, raises IntegrationError."""
    crystal, drive = config.crystal, config.drive
    duration = config.duration
    if stride * samples > _MAX_STEPS:
        raise ValueError(f"a {drive.beat_frequency_hz:g} Hz beat over a {duration * 1e3:g} ms "
                         f"pulse needs {stride * samples} integration steps, more than "
                         f"the {_MAX_STEPS} allowed")
    states = _integrate(config, samples, stride)
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        t = np.linspace(0.0, duration, samples + 1)[np.argmin(finite)]
        raise IntegrationError(f"state not finite at t = {t:.3e} s of {duration:.3e} s")
    depth = _lattice_depth(config)
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
    return states


def step_plan(config: SimulationConfig) -> tuple[int, int]:
    """(samples, stride): the stored samples of a run and the integration
    steps between two of them."""
    duration = config.duration
    samples = max(2, int(_SAMPLES_PER_PERIOD * config.crystal.omega_plus / (2.0 * math.pi)
                         * duration))
    fastest = max(config.crystal.f_ip, config.drive.beat_frequency_hz)
    per_period = (_DEEP_STEPS_PER_PERIOD if _lattice_depth(config) >= _DEEP_LATTICE
                  else _STEPS_PER_PERIOD)
    return samples, math.ceil(per_period * fastest * duration / samples)


def end_state_plan(config: SimulationConfig) -> tuple[int, int]:
    """(samples, stride) of end_state_excitation's run: step_plan's for a
    drive deeper than _DEEP_LATTICE, so that its half-step check compares
    the same samples, or one that leaves the in-phase mode undriven; else one
    sample, taking _END_STEPS_PER_PERIOD steps per period of the faster of
    f_IP and the beat, more as the drive deepens or the response falls below
    its resonant value, and never more than step_plan's.
    """
    samples, stride = step_plan(config)
    depth = _lattice_depth(config)
    linear = abs(linearized_prediction(config).amplitude_minus)
    if depth >= _DEEP_LATTICE or not linear > 0.0:
        return samples, stride
    f_ip, beat, duration = config.crystal.f_ip, config.drive.beat_frequency_hz, config.duration
    resonant = abs(linearized_prediction(replace(
        config, drive=replace(config.drive, beat_frequency_hz=f_ip))).amplitude_minus)
    # The step's error falls as its sixth power.  A beat 0.7 / T off f_IP
    # puts |A-| off by about 3e-8 (pi depth f_IP T)^2 at 16 steps per period
    # (depths 3e-4 to 2e-2, pulses 0.1 to 3 ms).  The error follows the
    # resonant response, so relative to |A-| it grows as the linear model's
    # |A-| falls off resonance.
    weight = math.pi * depth * f_ip * duration / _END_WEAK_DRIVE
    per_period = (_END_STEPS_PER_PERIOD * max(1.0, weight) ** (1.0 / 3.0)
                  * max(1.0, resonant / linear) ** (1.0 / 6.0))
    return 1, min(samples * stride, math.ceil(per_period * max(f_ip, beat) * duration))


def integration_steps(config: SimulationConfig, samples: int, stride: int) -> int:
    """Steps that a run of (samples, stride) takes for config, a deep
    drive's run at half the step included."""
    return samples * stride * (3 if _lattice_depth(config) >= _DEEP_LATTICE else 1)


def _lattice_depth(config: SimulationConfig) -> float:
    """The lattice's largest curvature 8 k^2 h |dE| as a fraction of u0."""
    drive = config.drive
    return (8.0 * drive.k ** 2 * PLANCK
            * max(abs(drive.shift1_hz), abs(drive.shift2_hz)) / config.crystal.u0)


def _integrate(config: SimulationConfig, samples: int, stride: int) -> np.ndarray:
    """States at samples + 1 equally spaced times, stride steps apart."""
    crystal, drive = config.crystal, config.drive
    dt = config.duration / (stride * samples)
    m1, m2 = crystal.m1_u * ATOMIC_MASS, crystal.m2_u * ATOMIC_MASS
    d = crystal.d
    two_kd, coulomb = 2.0 * drive.k * d, COULOMB_PREFACTOR / (d * d)
    omega_m, omega_p, theta = normal_modes(crystal.m1_u, crystal.m2_u, crystal.u0)
    s, c, rmu = math.sin(theta), math.cos(theta), math.sqrt(crystal.mu)
    omega_d = 2.0 * math.pi * drive.beat_frequency_hz
    # Lattice force amplitudes 4 k h dE_i^0 (dE in Hz -> J via h).
    amp1 = 4.0 * drive.k * PLANCK * drive.shift1_hz
    amp2 = 4.0 * drive.k * PLANCK * drive.shift2_hz
    # The state is held in normal-mode coordinates b (crystal.to_modes) and
    # scaled velocities u = db/dt / omega, both in units of d, so the drift,
    # the exact flow of the crystal linearized at d (its Coulomb stiffness
    # 2 k_e / d^3 equals u0 there), turns each (b, u) pair by omega tau.  Per
    # stage: the kick's force-to-u weights, the drive phases at the kick's
    # time within the step, and the turns of the drift after it.  Adjacent
    # half drifts are merged, across steps too, so the running state leads
    # each stored one by a half drift, which is undone once on the stored
    # array.  Each time is the step index times dt plus the offset within the
    # step: a running sum of steps would round into a drive-frequency error.
    half_drift = 0.5 * _YOSHIDA6[0] * dt
    stages, elapsed = [], 0.0
    for w, w_next in zip(_YOSHIDA6, _YOSHIDA6[1:] + _YOSHIDA6[:1]):
        advance = omega_d * (elapsed + 0.5 * w) * dt
        h, tau = w * dt, 0.5 * (w + w_next) * dt
        stages.append((h * c / (rmu * m1 * omega_p * d), -h * s / (m2 * omega_p * d),
                       h * s / (rmu * m1 * omega_m * d), h * c / (m2 * omega_m * d),
                       drive.phi1 - advance, drive.phi2 - advance,
                       math.cos(omega_p * tau), math.sin(omega_p * tau),
                       math.cos(omega_m * tau), math.sin(omega_m * tau)))
        elapsed += w

    sin = math.sin
    rc, rs = rmu * c, rmu * s
    q1, q2, v1, v2 = (float(value) / d for value in config.initial_state)
    bp, bm = crystal.to_modes(q1, q2)
    up, um = crystal.to_modes(v1, v2)
    bp, up = _turn(bp, up / omega_p, omega_p * half_drift)
    bm, um = _turn(bm, um / omega_m, omega_m * half_drift)
    result = np.empty((samples + 1, 4))
    result[0] = config.initial_state
    store = memoryview(result[1:].reshape(-1))
    for sample in range(samples):
        for step in range(sample * stride, (sample + 1) * stride):
            phase = omega_d * (step * dt)
            for kp1, kp2, km1, km2, p1, p2, cp, sp, cm, sm in stages:
                q1 = rc * bp + rs * bm
                q2 = c * bm - s * bp
                x = q2 - q1
                y = 1.0 + x
                if y <= 0.0:
                    raise IntegrationError(f"ions crossed (r = {y * d:.3e} m) at "
                                           f"t = {step * dt:.3e} s")
                # The Coulomb force beyond its linearization at r = d (1 + x):
                # (k_e / d^2) x^2 (3 + 2x) / (1 + x)^2.
                f2 = coulomb * x * x * (3.0 + 2.0 * x) / (y * y)
                f1 = -f2
                if amp1:
                    f1 += amp1 * sin(two_kd * q1 + (p1 - phase))
                if amp2:
                    f2 += amp2 * sin(two_kd * q2 + (p2 - phase))
                up += kp1 * f1 + kp2 * f2
                um += km1 * f1 + km2 * f2
                bp, up = cp * bp + sp * up, cp * up - sp * bp
                bm, um = cm * bm + sm * um, cm * um - sm * bm
        k = 4 * sample
        store[k], store[k + 1], store[k + 2], store[k + 3] = bp, bm, up, um
    # The half drift and the mode transform (q1 = sqrt(mu) (c b+ + s b-),
    # q2 = c b- - s b+) are undone in place, a column at a time, in _turn's
    # arithmetic order, so that no second copy of the samples is held.
    bp, bm, up, um = result[1:].T
    for b, u, omega in ((bp, up, omega_p), (bm, um, omega_m)):
        angle = -omega * half_drift
        cos_a, sin_a = math.cos(angle), math.sin(angle)
        turned = cos_a * b
        turned += sin_a * u
        u *= cos_a
        u -= sin_a * b
        b[...] = turned
        b *= d
        u *= d * omega
    for plus, minus in ((bp, bm), (up, um)):
        q1 = c * plus
        q1 += s * minus
        q1 *= rmu
        minus *= c
        minus += -s * plus
        plus[...] = q1
    return result


def _turn(b, u, angle):
    """(b, u) of a harmonic mode after its phase advances by angle."""
    c, s = math.cos(angle), math.sin(angle)
    return c * b + s * u, c * u - s * b


def mode_amplitude(trajectory: Trajectory) -> ModeExcitation:
    """End-of-pulse complex mode amplitudes, read off the trajectory's last
    stored state, so exact at any sampling."""
    return _excitation(trajectory.config.crystal, trajectory.q1[-1], trajectory.q2[-1],
                       trajectory.v1[-1], trajectory.v2[-1])


def _excitation(crystal: TwoIonCrystal, q1, q2, v1, v2) -> ModeExcitation:
    """Complex mode amplitudes of the state (q1, q2, v1, v2)."""
    beta_plus, beta_minus = crystal.to_modes(q1, q2)
    betadot_plus, betadot_minus = crystal.to_modes(v1, v2)
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
    """(beat frequency, |in-phase amplitude|) pairs over a frequency sweep:
    each point's end state from end_state_excitation, or the linearized
    model's."""
    rows = []
    for frequency in map(float, frequencies_hz):
        cfg = replace(config, drive=replace(config.drive, beat_frequency_hz=frequency))
        excitation = (end_state_excitation(cfg) if use_simulator
                      else linearized_prediction(cfg))
        rows.append((frequency, abs(excitation.amplitude_minus)))
    return rows
