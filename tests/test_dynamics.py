import ast
import importlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import odfprobe
from odfprobe import dynamics
from odfprobe.catalog import write_table
from odfprobe.config import load_config
from odfprobe.crystal import LatticeDrive
from odfprobe.dynamics import (IntegrationError, SimulationConfig, Trajectory,
                               end_state_excitation, linearized_prediction, mode_amplitude,
                               simulate_odf, sweep_beat_frequency, total_energy)
from odfprobe.quantities import ATOMIC_MASS, COULOMB_PREFACTOR, HBAR, PLANCK
from odfprobe.stark import atomic_stark_shift

from oracles import composition_kernel, resonant_oscillator_amplitude


def make_config(crystal, shift1=-50.0, shift2=0.0, duration=None, beat=None,
                extra_distance=0.0, initial=(0.0, 0.0, 0.0, 0.0)):
    drive = LatticeDrive.for_crystal(
        crystal, 789.0, shift1, shift2,
        extra_distance_m=extra_distance, beat_frequency_hz=beat,
        duration_s=3e-3 if duration is None else duration)
    return SimulationConfig(crystal, drive, initial_state=initial, duration_s=duration)


class TestSimulateOdf:
    def test_lattice_off_stays_at_rest(self, crystal):
        config = make_config(crystal, shift1=0.0, shift2=0.0, duration=0.2e-3)
        trajectory = simulate_odf(config)
        assert np.max(np.abs(trajectory.q1)) < 1e-15
        assert np.max(np.abs(trajectory.q2)) < 1e-15

    def test_resonant_amplitude_grows_linearly(self, crystal):
        amplitudes = []
        for duration in (0.2e-3, 0.4e-3):
            config = make_config(crystal, shift1=-20.0, duration=duration)
            amplitudes.append(abs(mode_amplitude(simulate_odf(config)).amplitude_minus))
        assert amplitudes[1] / amplitudes[0] == pytest.approx(2.0, rel=1e-2)

    def test_detuned_drive_stays_bounded(self, crystal):
        # 40 kHz off resonance with a 0.5 ms pulse: far outside the Fourier width
        resonant = make_config(crystal, shift1=-50.0, duration=0.5e-3)
        detuned = make_config(crystal, shift1=-50.0, duration=0.5e-3,
                              beat=crystal.f_ip + 40e3)
        amp_res = abs(mode_amplitude(simulate_odf(resonant)).amplitude_minus)
        amp_det = abs(mode_amplitude(simulate_odf(detuned)).amplitude_minus)
        assert amp_det < 0.05 * amp_res

    def test_determinism(self, crystal):
        config = make_config(crystal, shift1=-100.0, duration=0.2e-3)
        t1 = simulate_odf(config)
        t2 = simulate_odf(config)
        assert np.array_equal(t1.q1, t2.q1)
        assert np.array_equal(t1.v2, t2.v2)

    def test_time_grid_is_the_sample_grid(self, crystal):
        duration = 0.2e-3
        trajectory = simulate_odf(make_config(crystal, shift1=-100.0, duration=duration))
        n = max(2, int(25 * crystal.omega_plus / (2.0 * math.pi) * duration))
        assert np.array_equal(trajectory.t, np.linspace(0.0, duration, n + 1))
        assert trajectory.t[-1] == duration

    def test_fast_beat_keeps_the_sample_count(self, crystal):
        # The step follows a beat note above the modes; the stored samples
        # follow the out-of-phase period alone.
        duration = 0.05e-3
        resonant = simulate_odf(make_config(crystal, duration=duration))
        fast = simulate_odf(make_config(crystal, duration=duration, beat=5e6))
        assert len(fast.t) == len(resonant.t)
        assert mode_amplitude(fast).amplitude_minus != 0.0

    def test_crossed_ions_raise(self, crystal):
        config = make_config(crystal, duration=0.05e-3,
                             initial=(1.5 * crystal.d, 0.0, 0.0, 0.0))
        with pytest.raises(IntegrationError, match="ions crossed"):
            simulate_odf(config)

    def test_chaotic_drive_raises(self, crystal):
        # The lattice curvature is 3 times the trap's: the end state moves by
        # order one when the step halves.
        config = make_config(crystal, shift1=-1e7, duration=0.2e-3)
        with pytest.raises(IntegrationError, match="end state depends on the step"):
            simulate_odf(config)

    def test_deep_drive_that_converges_passes_the_step_check(self, crystal):
        # 0.3 of the trap's curvature, checked at half the step.
        config = make_config(crystal, shift1=-1e6, duration=0.2e-3)
        assert 8.0 * config.drive.k ** 2 * PLANCK * 1e6 > 0.3 * crystal.u0
        assert mode_amplitude(simulate_odf(config)).n_minus > 1.0

    def test_non_finite_initial_state_rejected(self, crystal):
        with pytest.raises(ValueError, match="finite"):
            make_config(crystal, initial=(math.nan, 0.0, 0.0, 0.0))

    def test_export_csv(self, crystal, tmp_path):
        config = make_config(crystal, shift1=-50.0, duration=0.05e-3)
        trajectory = simulate_odf(config)
        path = tmp_path / "trajectory.csv"
        trajectory.export_csv(path)
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert set(data.dtype.names) == {"t_s", "q1_m", "q2_m", "v1_m_s", "v2_m_s"}
        assert len(data) == len(trajectory.t)


    def test_export_csv_matches_per_field_formatting(self, crystal, tmp_path):
        # one format per row writes the same bytes as a format per field
        trajectory = simulate_odf(make_config(crystal, shift1=-50.0, duration=0.05e-3))
        edge = np.array([0.0, -0.0, 5e-324, -1.7976931348623157e308, math.nan, math.inf])
        columns = [np.concatenate([column, np.roll(edge, shift)]) for shift, column
                   in enumerate((trajectory.t, trajectory.q1, trajectory.q2,
                                 trajectory.v1, trajectory.v2))]
        trajectory = Trajectory(*columns, trajectory.config)
        trajectory.export_csv(tmp_path / "rows.csv")
        write_table(tmp_path / "fields.csv", ["t_s", "q1_m", "q2_m", "v1_m_s", "v2_m_s"],
                    ([f"{x:.12e}" for x in row] for row in zip(*columns)))
        assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "fields.csv").read_bytes()

    def test_trajectory_held_about_once(self, crystal):
        # Turned out of the mode frame in place, the samples peak at 1.8 times
        # the trajectory's bytes; new arrays per step of that turn made it 4.5.
        config = make_config(crystal, shift1=-1000.0, shift2=-402.9, duration=0.1e-3)
        tracemalloc.start()
        try:
            trajectory = simulate_odf(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 4 * trajectory.q1.nbytes


class TestModeAmplitude:
    def test_pure_minus_mode_stays_pure(self, crystal):
        # keep the displacement small: the real Coulomb anharmonicity mixes
        # the modes at order beta/d
        beta_minus = 0.1e-9
        weight1, weight2 = crystal.mode_weights()
        q1, q2 = weight1 * beta_minus, weight2 * beta_minus
        config = make_config(crystal, shift1=0.0, duration=0.3e-3,
                             initial=(q1, q2, 0.0, 0.0))
        excitation = mode_amplitude(simulate_odf(config))
        assert abs(excitation.amplitude_minus) == pytest.approx(beta_minus, rel=1e-6)
        assert abs(excitation.amplitude_plus) < 1e-6 * beta_minus

    def test_read_off_the_end_state_at_any_sampling(self, crystal):
        # 4 samples per out-of-phase period, ending in simulate_odf's end state
        config = make_config(crystal, shift1=-50.0, duration=0.2e-3)
        full = simulate_odf(config)
        n = int(4 * crystal.omega_plus / (2.0 * math.pi) * 0.2e-3)
        sparse = Trajectory(np.linspace(0.0, 0.2e-3, n + 1),
                            *(np.append(np.zeros(n), column[-1])
                              for column in (full.q1, full.q2, full.v1, full.v2)),
                            config)
        assert mode_amplitude(sparse) == mode_amplitude(full)

    def test_force_projection_matches_mode_weights(self, crystal):
        # a homogeneous-force lattice drives the in-phase mode with the
        # per-ion projection weights; compare the two-ion drive against a
        # molecule-only drive rescaled by them
        w1, w2 = crystal.mode_weights()
        both = linearized_prediction(make_config(crystal, shift1=-40.0, shift2=-40.0,
                                                 duration=0.5e-3))
        solo = linearized_prediction(make_config(crystal, shift1=-40.0, shift2=0.0,
                                                 duration=0.5e-3))
        ratio = abs(both.amplitude_minus) / abs(solo.amplitude_minus)
        assert ratio == pytest.approx((w1 + w2) / w1, rel=0.01)

    def test_phonon_number_and_energy_consistent(self, crystal):
        config = make_config(crystal, shift1=-500.0, duration=0.5e-3)
        excitation = mode_amplitude(simulate_odf(config))
        m2 = crystal.m2_u * ATOMIC_MASS
        energy = 0.5 * m2 * crystal.omega_minus**2 * abs(excitation.amplitude_minus)**2
        assert excitation.n_minus == pytest.approx(
            energy / (HBAR * crystal.omega_minus), rel=1e-9)
        assert excitation.n_minus >= 0.0


class TestLinearizedPrediction:
    def test_doubling_shift_doubles_amplitude(self, crystal):
        one = linearized_prediction(make_config(crystal, shift1=-100.0))
        two = linearized_prediction(make_config(crystal, shift1=-200.0))
        assert abs(two.amplitude_minus) == pytest.approx(
            2.0 * abs(one.amplitude_minus), rel=1e-12)

    def test_resonant_closed_form(self, crystal):
        shift = -100.0
        duration = 1e-3
        config = make_config(crystal, shift1=shift, duration=duration)
        prediction = linearized_prediction(config)
        w1, _ = crystal.mode_weights()
        force = 4.0 * config.drive.k * PLANCK * abs(shift) * w1
        oracle = resonant_oscillator_amplitude(
            force, crystal.m2_u * ATOMIC_MASS, crystal.omega_minus, duration)
        assert abs(prediction.amplitude_minus) == pytest.approx(oracle, rel=1e-3)

    def test_sp_op_amplitude_ratio(self, crystal):
        mu, theta = crystal.mu, crystal.theta
        a = math.sqrt(mu) * math.sin(theta) * 1000.0
        b = math.cos(theta) * 300.0
        sp = linearized_prediction(make_config(crystal, shift1=-1000.0, shift2=-300.0))
        op = linearized_prediction(make_config(crystal, shift1=-1000.0, shift2=-300.0,
                                               extra_distance=789.0e-9 / 4.0))
        ratio = abs(sp.amplitude_minus) / abs(op.amplitude_minus)
        assert ratio == pytest.approx((a + b) / (a - b), rel=1e-3)

    def test_agreement_with_simulator_small_amplitude(self, crystal):
        # 2 k max|q| ~ 0.07 here: well inside the linear regime
        config = make_config(crystal, shift1=-50.0, duration=1.5e-3)
        linear = linearized_prediction(config)
        simulated = mode_amplitude(simulate_odf(config))
        assert abs(simulated.amplitude_minus) == pytest.approx(
            abs(linear.amplitude_minus), rel=0.01)

    def test_nonlinearity_at_large_drive(self, crystal):
        # beyond 2 k max|q| ~ 1 the full lattice saturates below the linear model
        config = make_config(crystal, shift1=-2000.0, duration=3e-3)
        linear = linearized_prediction(config)
        simulated = mode_amplitude(simulate_odf(config))
        ratio = abs(simulated.amplitude_minus) / abs(linear.amplitude_minus)
        assert ratio < 0.97
        excursion = 2.0 * config.drive.k * math.sqrt(crystal.mu) \
            * abs(linear.amplitude_minus)
        assert excursion > 1.0

    def test_interference_contract_all_quadrants(self, crystal):
        for sign1 in (-1.0, 1.0):
            for sign2 in (-1.0, 1.0):
                for extra, phi_cos in ((0.0, 1.0), (789.0e-9 / 4.0, -1.0)):
                    config = make_config(crystal, shift1=sign1 * 500.0,
                                         shift2=sign2 * 200.0, duration=0.5e-3,
                                         extra_distance=extra)
                    both = abs(linearized_prediction(config).amplitude_minus)
                    solo = abs(linearized_prediction(
                        make_config(crystal, shift1=sign1 * 500.0, shift2=0.0,
                                    duration=0.5e-3, extra_distance=extra)
                    ).amplitude_minus)
                    constructive = sign1 * sign2 * phi_cos > 0.0
                    assert (both > solo) == constructive


class TestEnergyAudit:
    def test_symplectic_energy_conservation_3ms(self, crystal):
        config = make_config(crystal, shift1=0.0, duration=3e-3,
                             initial=(20e-9, -10e-9, 0.0, 0.0))
        trajectory = simulate_odf(config)
        energy = total_energy(trajectory)
        rest = make_config(crystal, shift1=0.0, duration=1e-5)
        static = total_energy(simulate_odf(rest))[0]
        oscillation = energy[0] - static
        drift = np.max(np.abs(energy - energy[0]))
        assert drift / abs(oscillation) < 1e-9

    def test_symplectic_matches_adaptive(self, crystal):
        integrate = pytest.importorskip("scipy.integrate")
        config = make_config(crystal, shift1=-50.0, shift2=-20.0, duration=0.5e-3)
        drive = config.drive
        m1, m2 = crystal.m1_u * ATOMIC_MASS, crystal.m2_u * ATOMIC_MASS
        d, u0, k = crystal.d, crystal.u0, drive.k
        omega = 2.0 * math.pi * drive.beat_frequency_hz
        force1 = 4.0 * k * PLANCK * drive.shift1_hz
        force2 = 4.0 * k * PLANCK * drive.shift2_hz

        def rhs(t, y):
            q1, q2, v1, v2 = y
            coulomb = COULOMB_PREFACTOR / (d + q2 - q1) ** 2
            return (v1, v2,
                    (-u0 * (q1 - d / 2.0) - coulomb
                     + force1 * math.sin(2.0 * k * q1 - omega * t + drive.phi1)) / m1,
                    (-u0 * (q2 + d / 2.0) + coulomb
                     + force2 * math.sin(2.0 * k * q2 - omega * t + drive.phi2)) / m2)

        # absolute tolerance at 1e-12 of a 1 nm excursion
        scale = 1e-9 * np.array([1.0, 1.0, crystal.omega_minus, crystal.omega_minus])
        reference = integrate.solve_ivp(rhs, (0.0, config.duration), [0.0] * 4,
                                        method="DOP853", rtol=1e-12, atol=1e-12 * scale)
        q1, q2, v1, v2 = reference.y[:, -1]
        _, beta = crystal.to_modes(q1, q2)
        _, betadot = crystal.to_modes(v1, v2)
        expected = abs(complex(beta, betadot / crystal.omega_minus))
        simulated = abs(mode_amplitude(simulate_odf(config)).amplitude_minus)
        assert simulated == pytest.approx(expected, rel=1e-8)


class TestSweep:
    def test_linearized_sweep_peaks_on_resonance(self, crystal):
        freqs = np.linspace(crystal.f_ip - 1500.0, crystal.f_ip + 1500.0, 13)
        rows = sweep_beat_frequency(make_config(crystal, shift1=-50.0, duration=1e-3),
                                    freqs, use_simulator=False)
        best = max(rows, key=lambda r: r[1])[0]
        assert abs(best - crystal.f_ip) <= 250.0  # one grid step

    def test_simulated_sweep_equals_single_points(self, crystal):
        config = make_config(crystal, shift1=-30.0, duration=0.05e-3)
        freqs = crystal.f_ip + np.array([-2000.0, 250.0, 3000.0])
        expected = [
            (f, abs(end_state_excitation(replace(
                config, drive=replace(config.drive, beat_frequency_hz=f))).amplitude_minus))
            for f in freqs]
        assert sweep_beat_frequency(config, freqs) == expected


# A beat above the out-of-phase mode (1243 kHz for this crystal).
ABOVE_F_OP = 1.5e6

# Shapes that sweeps run: (molecular shift Hz, atomic shift Hz or "atomic"
# for default.cfg's, pulse s, beat offset from f_IP Hz or None for
# ABOVE_F_OP), with |A-| from two runs of the same kernel.  The first is a
# converged reference, 256 steps per period of the faster of f_IP and the
# beat with one stored sample, dynamics._integrate(config, 1,
# ceil(256 f T)); it takes seconds per 3 ms point, so it is recorded.  The
# second is mode_amplitude(simulate_odf(config)), one step per stored
# sample near f_IP.
END_STATE_RECORDED = {
    # criterion 07c's scan
    "07c-300": ((-30.0, 0.0, 3e-3, -163.0), 1.4634322264411222e-09, 1.4634322264167623e-09),
    "07c-200": ((-30.0, 0.0, 3e-3, -63.0), 2.1198717362924474e-09, 2.119871736254597e-09),
    "07c-100": ((-30.0, 0.0, 3e-3, 37.0), 2.2043660290501963e-09, 2.2043660291329776e-09),
    "07c+0": ((-30.0, 0.0, 3e-3, 137.0), 1.674866726441752e-09, 1.6748667264583546e-09),
    "07c+100": ((-30.0, 0.0, 3e-3, 237.0), 7.938651262525255e-10, 7.93865126253264e-10),
    "07c+200": ((-30.0, 0.0, 3e-3, 337.0), 2.4419918505957758e-11, 2.441991850634218e-11),
    "07c+300": ((-30.0, 0.0, 3e-3, 437.0), 4.5288443764555557e-10, 4.528844376300003e-10),
    # the benchmark's odf_amplitude_m fingerprint
    "fingerprint": ((-30.0, 0.0, 5e-5, 250.0), 3.754291838023477e-11, 3.754291838021567e-11),
    # the benchmark's odf-sweep shape, linear and saturated
    "linear-7k": ((-30.0, 0.0, 1e-4, -7e3), 2.745957195659446e-11, 2.7459571956583273e-11),
    "linear+7k": ((-30.0, 0.0, 1e-4, 7e3), 2.757381858035556e-11, 2.757381858035437e-11),
    "linear-above-f_OP": ((-30.0, 0.0, 1e-4, None), 3.9092243148256226e-13,
                          3.9092243148809756e-13),
    "saturated-7k": ((-6e4, 0.0, 1e-4, -7e3), 4.574100550457265e-08, 4.574100545392273e-08),
    "saturated+7k": ((-6e4, 0.0, 1e-4, 7e3), 4.6511907378265155e-08, 4.651190742986365e-08),
    "saturated-above-f_OP": ((-6e4, 0.0, 1e-4, None), 7.847998665335292e-10,
                             7.847998664882525e-10),
    # simulate --molecular-shift +-3000 on default.cfg
    "molecular+3000": ((3000.0, "atomic", 3e-3, 0.0), 1.6467935590321615e-07,
                       1.646793559006798e-07),
    "molecular-3000": ((-3000.0, "atomic", 3e-3, 0.0), 2.0202822549987746e-07,
                       2.0202822549705842e-07),
}


def default_atomic_shift():
    config = load_config("default")
    return atomic_stark_shift(config.atomic_model(), config.wavelength_nm,
                              config.intensity_w_m2)


class TestEndState:
    @pytest.mark.parametrize("name", END_STATE_RECORDED)
    def test_no_further_from_converged_than_simulate_odf(self, crystal, name):
        (shift1, shift2, duration, offset), reference, stored = END_STATE_RECORDED[name]
        if shift2 == "atomic":
            shift2 = default_atomic_shift()
        beat = ABOVE_F_OP if offset is None else crystal.f_ip + offset
        config = make_config(crystal, shift1=shift1, shift2=shift2, duration=duration,
                             beat=beat)
        amplitude = abs(end_state_excitation(config).amplitude_minus)
        assert abs(amplitude - reference) <= max(abs(stored - reference), 1e-9 * reference)

    def test_steps_follow_the_beat_and_the_drive(self, crystal):
        def steps(plan, **kwargs):
            samples, stride = plan(make_config(crystal, **kwargs))
            return samples * stride

        near = steps(dynamics.end_state_plan, shift1=-30.0, beat=crystal.f_ip + 137.0)
        assert dynamics.end_state_plan(make_config(crystal, shift1=-30.0))[0] == 1
        assert near < 0.45 * steps(dynamics.step_plan, shift1=-30.0)
        assert near < steps(dynamics.end_state_plan, shift1=-30.0, beat=crystal.f_ip + 2.5e3)
        assert near < steps(dynamics.end_state_plan, shift1=-300.0, beat=crystal.f_ip + 137.0)
        # never more than a stored trajectory takes, as much where the
        # in-phase mode is not driven
        for shift1, beat in ((-6e4, crystal.f_ip), (-30.0, 2e7), (0.0, crystal.f_ip)):
            assert (steps(dynamics.end_state_plan, shift1=shift1, beat=beat)
                    == steps(dynamics.step_plan, shift1=shift1, beat=beat))

    @pytest.mark.parametrize("shift1, duration", [(-6e4, 0.1e-3), (-1e6, 0.05e-3)],
                             ids=["saturated", "deep"])
    def test_at_simulate_odf_steps_the_end_state_is_simulate_odf(self, crystal, shift1,
                                                                 duration):
        # the odf-sweep workload's saturated drive reaches simulate_odf's
        # steps; a deep one keeps its plan, samples and half-step check
        config = make_config(crystal, shift1=shift1, duration=duration)
        samples, stride = dynamics.end_state_plan(config)
        assert samples * stride == math.prod(dynamics.step_plan(config))
        assert (samples > 1) == (shift1 == -1e6)
        assert end_state_excitation(config) == mode_amplitude(simulate_odf(config))

    def test_deep_drive_sweep_keeps_the_half_step_check(self, crystal):
        config = make_config(crystal, shift1=-1e7, duration=0.2e-3)
        with pytest.raises(IntegrationError, match="end state depends on the step"):
            sweep_beat_frequency(config, [crystal.f_ip])

    def test_sweep_point_stores_no_trajectory(self, crystal):
        # A point once held every sample as a tuple: a 2.7 MB peak at 0.3 ms
        # and 26 MB at 3 ms.  tracemalloc slows the kernel about a hundred
        # times (28 s for a 3 ms point), so the pulse is short.
        config = make_config(crystal, shift1=-30.0, duration=0.3e-3)
        tracemalloc.start()
        try:
            sweep_beat_frequency(config, [crystal.f_ip])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestKernel:
    def test_sixth_order_under_the_lattice_drive(self, crystal, monkeypatch):
        # Self-convergence of the end state as the step halves, with both
        # ions driven through the full lattice potential.  Two samples per
        # run, so that the step alone sets the stride.  The harmonic part is
        # exact, so the changes reach rounding (about 1e-20 m) beyond 32
        # steps per in-phase period.
        monkeypatch.setattr(dynamics, "_SAMPLES_PER_PERIOD", 0)
        config = make_config(crystal, shift1=-1000.0, shift2=-300.0, duration=0.1e-3)
        ends = []
        for steps in (4, 8, 16, 32):
            monkeypatch.setattr(dynamics, "_STEPS_PER_PERIOD", steps)
            trajectory = simulate_odf(config)
            ends.append(np.array([trajectory.q1[-1], trajectory.q2[-1],
                                  trajectory.v1[-1] / crystal.omega_minus,
                                  trajectory.v2[-1] / crystal.omega_minus]))
        changes = [np.max(np.abs(a - b)) for a, b in zip(ends, ends[1:])]
        orders = [math.log2(coarse / fine) for coarse, fine in zip(changes, changes[1:])]
        assert min(orders) >= 5.5, (changes, orders)

    def test_drive_phase_follows_the_step_index(self, crystal):
        # Restarting at mid-pulse, with the drive phases advanced by the
        # elapsed beat phase, reproduces the one-run end state.  Drive times
        # summed step by step instead drift a little each step: over these
        # 69 596 steps the two end states would part by 9.5e-9, 32 times the
        # gate (they part by 2.1e-13).
        duration, beat = 4e-3, crystal.f_ip + 100.0
        config = make_config(crystal, shift1=-30.0, shift2=-20.0, duration=duration,
                             beat=beat)
        stride = math.ceil(dynamics._STEPS_PER_PERIOD * beat * duration / 2.0)
        whole = dynamics._integrate(config, 2, stride)
        advance = 2.0 * math.pi * beat * (duration / 2.0)
        later = replace(config.drive, phi1=config.drive.phi1 - advance,
                        phi2=config.drive.phi2 - advance)
        second = dynamics._integrate(
            SimulationConfig(crystal, later, initial_state=tuple(whole[1]),
                             duration_s=duration / 2.0), 1, stride)
        scale = np.array([1.0, 1.0, crystal.omega_minus, crystal.omega_minus])
        change = np.max(np.abs((second[-1] - whole[-1]) / scale))
        assert change < 3e-10 * np.max(np.abs(whole[-1] / scale))

    @pytest.mark.parametrize("shift1, shift2, offset, duration", [
        (-1000.0, "atomic", 0.0, 0.2e-3),   # the shape of a default simulate pulse
        (-30.0, 0.0, 250.0, 0.05e-3),       # the benchmark fingerprint point
    ], ids=["simulate-pulse", "fingerprint"])
    def test_matches_the_laboratory_frame_composition(self, crystal, shift1, shift2,
                                                      offset, duration):
        # The same composition on the full force, stepped through the
        # in-phase oscillation at 220 steps per period instead of solving it.
        if shift2 == "atomic":
            config = load_config("default")
            shift2 = atomic_stark_shift(config.atomic_model(), config.wavelength_nm,
                                        config.intensity_w_m2)
        config = make_config(crystal, shift1=shift1, shift2=shift2, duration=duration,
                             beat=crystal.f_ip + offset)
        samples, stride = dynamics.step_plan(config)
        assert stride == 1
        reference = composition_kernel(
            config, samples, math.ceil(220 * (crystal.f_ip + offset) * duration / samples))

        def amplitude(state):
            _, beta = crystal.to_modes(state[0], state[1])
            _, betadot = crystal.to_modes(state[2], state[3])
            return abs(complex(beta, betadot / crystal.omega_minus))

        split = dynamics._integrate(config, samples, stride)
        assert amplitude(split[-1]) == pytest.approx(amplitude(reference[-1]), rel=1e-9)

    @pytest.mark.parametrize("duration", [0.05e-3, 0.1e-3, 0.2e-3, 3e-3])
    def test_one_step_per_sample_near_resonance(self, crystal, duration):
        # every beat within 10 kHz of f_IP, as criterion 07c's scan, the
        # odf-sweep workload and the fingerprint point use
        for offset in (-10e3, 0.0, 10e3):
            config = make_config(crystal, duration=duration, beat=crystal.f_ip + offset)
            assert dynamics.step_plan(config)[1] == 1
        # a beat far above the modes sets the step
        fast = make_config(crystal, duration=duration, beat=5e6)
        samples, stride = dynamics.step_plan(fast)
        assert stride > 1 and samples * stride >= 25 * 5e6 * duration

    def test_benchmark_fingerprint(self, crystal):
        # |A-| that the benchmark records for this point, at its tolerance
        drive = LatticeDrive.for_crystal(crystal, 789.0, -30.0, 0.0,
                                         beat_frequency_hz=crystal.f_ip + 250.0,
                                         duration_s=5e-5)
        excitation = mode_amplitude(simulate_odf(SimulationConfig(crystal, drive)))
        assert abs(excitation.amplitude_minus) == pytest.approx(3.754291837877159e-11,
                                                                rel=1e-6)


# Runs each command in one fresh interpreter and prints, as its last line,
# whether scipy was loaded after each step.
COLD_START = """
import json, sys
from pathlib import Path
out = Path(sys.argv[1])
steps = []
def record(step, code=0):
    steps.append([step, code] + [name in sys.modules for name in
                  ("scipy", "scipy.special", "scipy.optimize", "scipy.interpolate")])
import odfprobe
record("import odfprobe")
import odfprobe.cli
record("import odfprobe.cli")
meas = out / "meas.csv"
meas.write_text("wavelength_nm,intensity_W_m2,shift_Hz,sigma_Hz,sign,f_ip_Hz\\n"
                "789.0,1.1508e7,1229.9,130.0,red,694920.0\\n")
for argv in (["enumerate"], ["identify", "--measurements", str(meas)],
             ["simulate", "--linearized", "--sweep", "694000", "698000", "3"],
             ["calibrate", "--noiseless", "--count", "3"]):
    record(argv[0], odfprobe.cli.main(argv + ["--out", str(out / argv[0])]))
from odfprobe.config import load_config
from odfprobe.readout import ReadoutPipeline, build_calibration, extract_shift, fit_rabi
pipeline = ReadoutPipeline(load_config("default").crystal())
cal = build_calibration([800.0, 2700.0, 4600.0], pipeline)
record("build_calibration")
record("fit_rabi", int(not fit_rabi(cal.templates[0]) > 0.0))
estimate = extract_shift(pipeline.signal(2700.0), cal)
record("extract_shift", int(not abs(estimate.shift_hz - 2700.0) < 1e-3))
print(json.dumps(steps))
"""


READOUT_NAMES = """
import odfprobe
namespace = {}
exec("from odfprobe import *", namespace)
print([n for n in odfprobe.__all__ if n not in namespace],
      odfprobe.extract_shift is odfprobe.readout.extract_shift)
"""


# Runs one command in a fresh interpreter and prints, as its last line, the
# odfprobe modules loaded after each step, the exit code and whether
# fractions was loaded.
MODULES_LOADED = """
import json, sys
def loaded():
    return sorted(name for name in sys.modules if name.startswith("odfprobe."))
steps = []
import odfprobe
steps.append(loaded())
import odfprobe.cli
steps.append(loaded())
code = odfprobe.cli.main(sys.argv[1:])
steps.append(loaded())
print(json.dumps([steps, code, "fractions" in sys.modules]))
"""

# One measurement row, read by identify, windows and classify.
ROW = "789.0,1.1508e7,1229.9,130.0,red,694920.0"
# What a command that runs nothing but the CLI and its config loads.
CLI_MODULES = {"odfprobe.angular", "odfprobe.catalog", "odfprobe.cli", "odfprobe.config",
               "odfprobe.quantities"}


def _fresh_python(code, *args):
    src = str(Path(odfprobe.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                            capture_output=True, text=True, timeout=120)
    return result.stdout.strip().splitlines()[-1]


class TestColdStart:
    def test_no_command_loads_scipy(self, tmp_path):
        # Each step: its exit code (for a library call, 0 when the result is
        # right), then whether scipy, scipy.special, scipy.optimize and
        # scipy.interpolate are loaded.  No command, calibrating included,
        # and neither the Rabi fit nor the shift extraction loads any of scipy.
        steps = json.loads(_fresh_python(COLD_START, str(tmp_path)))
        assert steps == [
            ["import odfprobe", 0, False, False, False, False],
            ["import odfprobe.cli", 0, False, False, False, False],
            ["enumerate", 0, False, False, False, False],
            ["identify", 0, False, False, False, False],
            ["simulate", 0, False, False, False, False],
            ["calibrate", 0, False, False, False, False],
            ["build_calibration", 0, False, False, False, False],
            ["fit_rabi", 0, False, False, False, False],
            ["extract_shift", 0, False, False, False, False],
        ]

    def test_no_module_imports_scipy(self):
        # the fit and the interpolant are transcribed in fitting; scipy is a
        # test dependency only
        package = Path(odfprobe.__file__).parent

        def imports_scipy(path):
            return any(
                isinstance(node, ast.Import)
                and any(alias.name.partition(".")[0] == "scipy" for alias in node.names)
                or isinstance(node, ast.ImportFrom)
                and (node.module or "").partition(".")[0] == "scipy"
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))

        assert [p.name for p in sorted(package.glob("*.py")) if imports_scipy(p)] == []

    def test_fitting_holds_only_what_readout_imports(self):
        # fitting transcribes scipy as far as the readout reaches it: each of
        # its public functions is one that readout imports, and no other
        package = Path(odfprobe.__file__).parent
        fitting = ast.parse((package / "fitting.py").read_text(encoding="utf-8"))
        readout = ast.parse((package / "readout.py").read_text(encoding="utf-8"))
        public = {node.name for node in fitting.body
                  if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
        imported = {alias.name for node in ast.walk(readout)
                    if isinstance(node, ast.ImportFrom) and node.module == "fitting"
                    for alias in node.names}
        assert public == imported == {"curve_fit", "pchip_coefficients"}

    def test_no_module_rebinds_a_global(self):
        # process-wide state lives in lru_cache tables, never in a name a
        # function rebinds with ``global``
        package = Path(odfprobe.__file__).parent

        def rebinds(path):
            return any(isinstance(node, ast.Global)
                       for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))

        assert [p.name for p in sorted(package.glob("*.py")) if rebinds(p)] == []

    def test_readout_names_load_on_first_use(self):
        assert _fresh_python(READOUT_NAMES) == "[] True"

    @pytest.mark.parametrize("command, rows, extra, code", [
        (["enumerate"], None, {"states"}, 0),
        (["identify", "--measurements"], [ROW], {"states", "stark", "identify"}, 0),
        (["identify", "--measurements"], [ROW.replace("1229.9", "nan")], {"identify"}, 2),
        (["windows", "--exclude-up-to", "4", "--measurements"], [ROW], {"identify"}, 0),
        (["classify", "--measurements"], [ROW, ROW], {"identify"}, 0),
        (["simulate", "--linearized", "--sweep", "694000", "698000", "3"], None,
         {"stark", "crystal", "dynamics"}, 0),
        (["calibrate", "--noiseless", "--count", "3"], None, {"crystal", "readout"}, 0),
        (["enumerate", "--config"], None, set(), 2),
    ], ids=["enumerate", "identify", "identify-nan", "windows", "classify", "simulate",
            "calibrate", "config-error"])
    def test_each_command_loads_only_its_modules(self, tmp_path, command, rows, extra,
                                                 code):
        # ``import odfprobe`` loads no submodule, ``import odfprobe.cli`` only
        # the config and catalog it reads first, and each command the modules
        # it calls: reading, windowing and classifying rows, and refusing one,
        # need no Stark layer.  The Wigner kernels need no fractions.
        if rows is not None:
            meas = tmp_path / "meas.csv"
            meas.write_text("wavelength_nm,intensity_W_m2,shift_Hz,sigma_Hz,sign,f_ip_Hz\n"
                            + "".join(row + "\n" for row in rows))
            command = command + [str(meas)]
        elif command[-1] == "--config":
            bad = tmp_path / "bad.cfg"
            bad.write_text(Path(odfprobe.__file__).with_name("data").joinpath(
                "default.cfg").read_text().replace("wavelength_nm = 789.0",
                                                   "wavelength_nm = inf"))
            command = command + [str(bad)]
        steps, exit_code, fractions = json.loads(_fresh_python(
            MODULES_LOADED, *command, "--out", str(tmp_path / "out")))
        assert steps[:2] == [[], sorted(CLI_MODULES)]
        assert set(steps[2]) == CLI_MODULES | {f"odfprobe.{name}" for name in extra}
        assert exit_code == code
        assert not fractions

    def test_name_table_matches_all(self):
        names = [name for names in odfprobe._EXPORTS.values() for name in names]
        assert len(names) == len(set(names))
        assert sorted(names) == sorted(set(odfprobe.__all__) - {"__version__"})
        for module, names in odfprobe._EXPORTS.items():
            home = importlib.import_module(f"odfprobe.{module}")
            for name in names:
                value = getattr(odfprobe, name)
                assert value is getattr(home, name)
                assert value.__module__ == home.__name__

    def test_readme_library_example(self):
        # README's example runs, and its commented values are what it computes
        readme = Path(odfprobe.__file__).resolve().parents[2] / "README.md"
        text = readme.read_text(encoding="utf-8")
        block = text.split("## Library example\n\n```python\n", 1)[1].split("```", 1)[0]
        namespace = {}
        exec(block, namespace)
        said = {code.strip(): comment.strip() for code, comment in
                (line.split("#", 1) for line in block.splitlines() if "#" in line)}
        shift = namespace["shift"]
        assert said[next(c for c in said if c.startswith("shift ="))] \
            == f"{shift / 1e3:+.2f} kHz ({'blue' if shift > 0.0 else 'red'})"
        assert said["crystal.f_ip"] == f"{eval('crystal.f_ip', namespace) / 1e3:.2f} kHz"
        sign = next(c for c in said if c.startswith("op.infer_detuning_sign("))
        assert said[sign] == repr(eval(sign, namespace)) == "'red'"
