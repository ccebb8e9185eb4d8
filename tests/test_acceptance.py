"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines on a green run (pytest shows captured output for failures anyway).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from odfprobe.angular import HalfInt, PiCoupling, honl_london, wigner_3j, wigner_6j
from odfprobe.catalog import load_shipped_catalog
from odfprobe.crystal import (LatticeDrive, TwoIonCrystal, combined_mode_shift,
                              extract_molecular_shift, infer_detuning_sign)
from odfprobe.dynamics import (SimulationConfig, linearized_prediction,
                               mode_amplitude, simulate_odf, total_energy)
from odfprobe.identify import (Measurement, background_shift_hz, classify_event,
                               combined_sigma, exclusion_window, match_candidates,
                               predict_catalog_shifts)
from odfprobe.quantities import (AU_POLARIZABILITY, PLANCK, SPEED_OF_LIGHT,
                                 VACUUM_PERMITTIVITY, intensity_from_core_anchor,
                                 polarizability_to_shift, shift_to_intensity)
from odfprobe.readout import (ReadoutPipeline, build_calibration, extract_shift,
                              iterate_partner_correction)
from odfprobe.states import MolecularState, enumerate_states
from odfprobe.stark import load_shipped_atomic_model, atomic_polarizability

from oracles import allowed_branches, racah_3j, racah_6j


def report(criterion: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    line = f"[criterion {criterion:2d}] {status}: {description}"
    if detail:
        line += f" | {detail}"
    print(line)
    assert passed, line


def test_criterion_01_mode_frequency_anchors():
    crystal = TwoIonCrystal.from_lattice_periods(28, 40, 19, 789.0)
    crystal_op = TwoIonCrystal.from_distance(28, 40, crystal.d + 789.0e-9 / 4.0)
    partner = TwoIonCrystal(29, 40, crystal.u0)
    f_sp = crystal.f_ip / 1e3
    f_op = crystal_op.f_ip / 1e3
    f_29 = partner.f_ip / 1e3
    rel = (crystal.f_ip - partner.f_ip) / crystal.f_ip
    checks = [
        ("f_IP(28u, SP) = 695 +- 1.5 kHz", abs(f_sp - 695.0) <= 1.5, f"{f_sp:.2f}"),
        ("f_IP(28u, OP) = 668 +- 1.5 kHz", abs(f_op - 668.0) <= 1.5, f"{f_op:.2f}"),
        ("f_IP(29u, SP) = 690 +- 1.5 kHz", abs(f_29 - 690.0) <= 1.5, f"{f_29:.2f}"),
        ("28->29 rel change = 6e-3 +- 10%", abs(rel - 6e-3) <= 0.6e-3, f"{rel:.3e}"),
    ]
    detail = "; ".join(f"{name}: {value} {'ok' if ok else 'VIOLATED'}"
                       for name, ok, value in checks)
    # The 29-u sub-anchor cannot hold at the stated lambda = 789.0 nm: the
    # closed-form mechanics give 691.73 kHz there.  At the 789.71 nm the
    # published experiments actually used, the same model gives 690.80 kHz,
    # inside the window; the discrepancy is a wavelength transcription in the
    # criterion, not a model error.  The checks run as stated regardless.
    crystal_exp = TwoIonCrystal.from_lattice_periods(28, 40, 19, 789.71)
    f_29_exp = TwoIonCrystal(29, 40, crystal_exp.u0).f_ip / 1e3
    detail += (f" | cross-check at the experimental wavelength 789.71 nm: "
               f"f_IP(29u) = {f_29_exp:.2f} kHz (inside 690 +- 1.5)")
    report(1, "mode-frequency anchors at lambda = 789.0 nm",
           all(ok for _, ok, _ in checks), detail)


def test_criterion_02_state_count():
    count = len(enumerate_states(8))
    report(2, "enumerate_states(8) yields exactly 540 states",
           count == 540, f"counted {count}")


def test_criterion_03_stark_anchor_chain():
    intensity = shift_to_intensity(7.23, -390.0)
    independent = 390.0 * 2.0 * VACUUM_PERMITTIVITY * SPEED_OF_LIGHT * PLANCK \
        / (7.23 * AU_POLARIZABILITY)
    anchored = polarizability_to_shift(7.23, intensity)
    scaled = polarizability_to_shift(97.5, intensity)
    ratio_exact = abs(scaled / anchored - 97.5 / 7.23) <= 1e-9 * (97.5 / 7.23)
    ok = (abs(intensity / independent - 1.0) < 1e-12
          and abs(anchored + 390.0) < 1e-9
          and ratio_exact)
    report(3, "core anchor fixes I0; 97.5 au scales by the exact ratio", ok,
           f"I0 = {intensity:.4e} W/m^2, shift(97.5 au) = {scaled:.3f} Hz")


def test_criterion_04_tensor_algebra():
    stretched = load_shipped_atomic_model("D5/2", m=-2.5, theta=0.0)
    prefactor = stretched.tensor_prefactor()
    magic = load_shipped_atomic_model("D5/2", m=-2.5,
                                      theta=math.acos(math.sqrt(1.0 / 3.0)))
    residual = abs(magic.tensor_prefactor())
    ok = prefactor == 1.0 and residual <= 1e-12
    report(4, "tensor prefactor exactly 1 at m = +-5/2; magic angle kills it",
           ok, f"prefactor = {prefactor}, magic-angle residual = {residual:.2e}")


def test_criterion_05_angular_momentum_oracle():
    worst_3j = 0.0
    count_3j = 0
    for two_j1 in range(0, 13):
        for two_j2 in range(0, 13):
            for two_j3 in range(abs(two_j1 - two_j2), min(two_j1 + two_j2, 12) + 1, 2):
                for two_m1 in range(-two_j1, two_j1 + 1, 2):
                    for two_m2 in range(-two_j2, two_j2 + 1, 2):
                        two_m3 = -two_m1 - two_m2
                        if abs(two_m3) > two_j3:
                            continue
                        mine = wigner_3j(two_j1 / 2, two_j2 / 2, two_j3 / 2,
                                         two_m1 / 2, two_m2 / 2, two_m3 / 2)
                        oracle = racah_3j(two_j1 / 2, two_j2 / 2, two_j3 / 2,
                                          two_m1 / 2, two_m2 / 2, two_m3 / 2)
                        worst_3j = max(worst_3j, abs(mine - oracle))
                        count_3j += 1
    worst_6j = 0.0
    count_6j = 0
    for two_j1 in range(0, 13):
        for two_j2 in range(0, 13):
            for two_j3 in range(abs(two_j1 - two_j2), min(two_j1 + two_j2, 12) + 1, 2):
                for two_j4 in range(0, 13):
                    for two_j5 in range(abs(two_j4 - two_j3),
                                        min(two_j4 + two_j3, 12) + 1, 2):
                        lo = max(abs(two_j1 - two_j5), abs(two_j4 - two_j2))
                        hi = min(two_j1 + two_j5, two_j4 + two_j2, 12)
                        start = lo if (lo + two_j1 + two_j5) % 2 == 0 else lo + 1
                        for two_j6 in range(start, hi + 1, 2):
                            mine = wigner_6j(two_j1 / 2, two_j2 / 2, two_j3 / 2,
                                             two_j4 / 2, two_j5 / 2, two_j6 / 2)
                            oracle = racah_6j(two_j1 / 2, two_j2 / 2, two_j3 / 2,
                                              two_j4 / 2, two_j5 / 2, two_j6 / 2)
                            worst_6j = max(worst_6j, abs(mine - oracle))
                            count_6j += 1
    coupling = PiCoupling(spin_orbit_a=-74.62, rotational_b=1.697425)
    worst_sum = 0.0
    for n in range(0, 9, 2):
        for comp in (1, 2):
            two_j = 2 * n + 1 if comp == 1 else 2 * n - 1
            if two_j < 1 or two_j > 17:
                continue
            total = sum(honl_london(b, HalfInt(two_j), coupling)
                        for b in allowed_branches(n, comp))
            worst_sum = max(worst_sum, abs(total / (two_j + 1.0) - 1.0))
    ok = worst_3j <= 1e-12 and worst_6j <= 1e-12 and worst_sum <= 1e-10
    report(5, "3j/6j match the Racah oracle (j <= 6); line-strength sum rule",
           ok, f"{count_3j} 3j (max {worst_3j:.2e}), {count_6j} 6j "
               f"(max {worst_6j:.2e}), sum rule max {worst_sum:.2e}")


def test_criterion_06_sp_op_closure():
    crystal = TwoIonCrystal.from_lattice_periods(28, 40, 19, 789.0)
    mu, theta = crystal.mu, crystal.theta
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(500):
        mol = rng.uniform(100.0, 5000.0) * rng.choice([-1.0, 1.0])
        bound = math.sqrt(mu) * math.sin(theta) * abs(mol) / math.cos(theta)
        atom = rng.uniform(0.0, 0.99) * bound * rng.choice([-1.0, 1.0])
        sp = abs(combined_mode_shift(mol, atom, 0.0, mu, theta))
        op = abs(combined_mode_shift(mol, atom, math.pi, mu, theta))
        recovered = extract_molecular_shift(sp, op, mu, theta).shift_hz
        worst = max(worst, abs(recovered - abs(mol)) / abs(mol))
    truth_table_ok = True
    for sign_mol in (-1.0, 1.0):
        for phi, label in ((0.0, "SP"), (math.pi, "OP")):
            mol, atom = sign_mol * 1000.0, -300.0  # atomic always red
            with_atom = abs(combined_mode_shift(mol, atom, phi, mu, theta))
            without = abs(combined_mode_shift(mol, 0.0, phi, mu, theta))
            constructive = sign_mol * (-1.0) * math.cos(phi) > 0.0
            truth_table_ok &= (with_atom > without) == constructive
    # sign inference mirrors the truth table: red -> SP stronger
    sp_r = abs(combined_mode_shift(-1000.0, -300.0, 0.0, mu, theta))
    op_r = abs(combined_mode_shift(-1000.0, -300.0, math.pi, mu, theta))
    signs_ok = (infer_detuning_sign(sp_r, op_r, 1.0) == "red"
                and infer_detuning_sign(op_r, sp_r, 1.0) == "blue")
    ok = worst <= 1e-12 and truth_table_ok and signs_ok
    report(6, "SP/OP closure recovers |dE1| to 1e-12; interference truth table",
           ok, f"max relative error {worst:.2e}")


@pytest.fixture(scope="module")
def small_amplitude_run():
    crystal = TwoIonCrystal.from_lattice_periods(28, 40, 19, 789.0)
    drive = LatticeDrive.for_crystal(crystal, 789.0, -30.0, 0.0)
    config = SimulationConfig(crystal, drive)
    return config, simulate_odf(config)


def test_criterion_07a_simulator_matches_linearized(small_amplitude_run):
    config, trajectory = small_amplitude_run
    simulated = abs(mode_amplitude(trajectory).amplitude_minus)
    linear = abs(linearized_prediction(config).amplitude_minus)
    rel = abs(simulated - linear) / linear
    report(7, "resonant small-amplitude excitation matches the analytic model "
              "within 1%", rel <= 0.01, f"relative difference {rel:.2e}")


def test_criterion_07b_energy_conservation():
    crystal = TwoIonCrystal.from_lattice_periods(28, 40, 19, 789.0)
    drive = LatticeDrive.for_crystal(crystal, 789.0, 0.0, 0.0)
    config = SimulationConfig(crystal, drive,
                              initial_state=(20e-9, -10e-9, 0.0, 0.0))
    trajectory = simulate_odf(config)
    energy = total_energy(trajectory)
    at_rest = replace(config, initial_state=(0.0, 0.0, 0.0, 0.0),
                      duration_s=1e-5)
    static = total_energy(simulate_odf(at_rest))[0]
    oscillation = energy[0] - static
    drift = float(np.max(np.abs(energy - energy[0])))
    rel = drift / abs(oscillation)
    report(7, "lattice-off energy conserved to 1e-9 over 3 ms", rel <= 1e-9,
           f"max drift {rel:.2e} of the oscillation energy")


def test_criterion_07c_resonance_peak():
    crystal = TwoIonCrystal.from_lattice_periods(28, 40, 19, 789.0)
    # centre the scan off resonance so the parabola fit has to find the peak
    center = crystal.f_ip + 137.0
    offsets = np.array([-300.0, -200.0, -100.0, 0.0, 100.0, 200.0, 300.0])
    amplitudes = []
    for offset in offsets:
        drive = LatticeDrive.for_crystal(crystal, 789.0, -30.0, 0.0,
                                         beat_frequency_hz=center + offset)
        config = SimulationConfig(crystal, drive)
        amplitudes.append(abs(mode_amplitude(simulate_odf(config)).amplitude_minus))
    freqs = center + offsets
    coeffs = np.polyfit(freqs - center, np.square(amplitudes), 2)
    vertex = center - coeffs[1] / (2.0 * coeffs[0])
    error = abs(vertex - crystal.f_ip)
    report(7, "resonance curve peaks at f_IP within 100 Hz", error <= 100.0,
           f"peak at f_IP {vertex - crystal.f_ip:+.1f} Hz")


@pytest.fixture(scope="module")
def readout_stack():
    crystal = TwoIonCrystal.from_lattice_periods(28, 40, 19, 789.0)
    pipeline = ReadoutPipeline(crystal)
    # calibration nodes covering the SP/OP projections of molecular shifts
    # in the programmed 0.8-4.6 kHz range (the shipped default set spans the
    # published six shifts; the round trip needs the wider support)
    calibration = build_calibration(np.geomspace(150.0, 5200.0, 12), pipeline)
    intensity = intensity_from_core_anchor()
    atomic = polarizability_to_shift(
        atomic_polarizability(load_shipped_atomic_model("D5/2"), 789.0),
        intensity)
    return crystal, pipeline, calibration, atomic


def test_criterion_08_readout_round_trip(readout_stack):
    crystal, pipeline, calibration, atomic = readout_stack
    mu, theta = crystal.mu, crystal.theta
    worst = 0.0
    signs_ok = True
    for mol in (800.0, 1700.0, 2600.0, 3500.0, 4600.0):
        for sign in (-1.0, 1.0):
            sp = abs(combined_mode_shift(sign * mol, atomic, 0.0, mu, theta))
            op = abs(combined_mode_shift(sign * mol, atomic, math.pi, mu, theta))
            est_sp = extract_shift(pipeline.signal(sp), calibration)
            est_op = extract_shift(pipeline.signal(op), calibration)
            recovered = extract_molecular_shift(
                est_sp.shift_hz, est_op.shift_hz, mu, theta).shift_hz
            worst = max(worst, abs(recovered - mol) / mol)
            inferred = infer_detuning_sign(est_sp.shift_hz, est_op.shift_hz,
                                           max(est_sp.sigma_hz, est_op.sigma_hz))
            signs_ok &= inferred == ("red" if sign < 0.0 else "blue")
    noiseless_ok = worst <= 0.05 and signs_ok

    trials, hits = 40, 0
    weight = 2.0 * math.sqrt(mu) * math.sin(theta)
    for seed in range(trials):
        mol = 2000.0
        sp = abs(combined_mode_shift(-mol, atomic, 0.0, mu, theta))
        op = abs(combined_mode_shift(-mol, atomic, math.pi, mu, theta))
        est_sp = extract_shift(pipeline.signal(sp, shots=20, seed=2 * seed),
                               calibration)
        est_op = extract_shift(pipeline.signal(op, shots=20, seed=2 * seed + 1),
                               calibration)
        recovered = (est_sp.shift_hz + est_op.shift_hz) / weight
        sigma = math.hypot(est_sp.sigma_hz, est_op.sigma_hz) / weight
        if abs(recovered - mol) <= 3.0 * sigma:
            hits += 1
    noisy_ok = hits >= math.ceil(0.95 * trials)
    report(8, "SP/OP round trip: 5% noiseless recovery with correct signs; "
              "20-shot recovery within 3 sigma for 95% of seeds",
           noiseless_ok and noisy_ok,
           f"max noiseless error {worst:.3%}, noisy hits {hits}/{trials}")


def test_criterion_09_iterative_partner_correction():
    crystal = TwoIonCrystal.from_lattice_periods(28, 40, 19, 789.0)
    pipeline = ReadoutPipeline(crystal)
    r_true, atomic = 0.185, -5410.0
    calibration = build_calibration(np.linspace(800.0, 4600.0, 6), pipeline,
                                    true_partner_fraction=r_true)
    measured = pipeline.signal(r_true * abs(atomic))
    result = iterate_partner_correction(calibration, measured, atomic)
    fractions = [abs(t) / abs(atomic) for t in result.trace_hz]
    monotone = all(b > a for a, b in zip(fractions, fractions[1:]))
    within = abs(fractions[min(2, len(fractions) - 1)] - r_true) / r_true <= 0.03
    ok = monotone and within and result.converged
    report(9, "partner correction: monotone trace converging to 18.5% in <= 3 "
              "iterations", ok,
           "trace " + " -> ".join(f"{f:.3%}" for f in fractions[:4]))


def test_criterion_10_exclusion_windows():
    catalog = load_shipped_catalog()
    expected = {0: (787.5, 782.6), 2: (788.2, 782.1), 4: (789.4, 781.6)}
    details, ok = [], True
    for n, (red, blue) in expected.items():
        red_min, blue_max = exclusion_window(n, catalog)
        ok &= abs(red_min - red) <= 0.3 and abs(blue_max - blue) <= 0.3
        details.append(f"N<={n}: {red_min:.2f}/{blue_max:.2f} nm")
    report(10, "partial-readout thresholds match the published values "
               "within 0.3 nm", ok, "; ".join(details))


def test_criterion_11_end_to_end_identification():
    catalog = load_shipped_catalog()
    intensity = intensity_from_core_anchor()
    states = enumerate_states(8)
    containment_failures = 0
    confinement_failures = 0
    strong_states = 0
    for wavelength in (789.0, 789.71):
        predictions = predict_catalog_shifts(wavelength, intensity, states, catalog)
        background = background_shift_hz(wavelength, intensity, catalog)
        for pred in predictions:
            if pred.shift_hz is None or pred.state.i_nuc != 0:
                continue
            sigma = combined_sigma(pred.shift_hz, 10.0)
            measurement = Measurement(wavelength, intensity, abs(pred.shift_hz),
                                      sigma, pred.sign, 695858.0)
            candidates = match_candidates(measurement, predictions, k=1.0)
            if not any(c.state == pred.state for c in candidates.candidates):
                containment_failures += 1
            if abs(pred.shift_hz) > 3.0 * background:
                strong_states += 1
                manifolds = {(c.state.n, c.state.j.twice)
                             for c in candidates.candidates}
                if manifolds != {(pred.state.n, pred.state.j.twice)}:
                    confinement_failures += 1

    # Experiment-1/2 replay at 789.0 nm: stretched states of the two strongly
    # shifted manifolds
    predictions = predict_catalog_shifts(789.0, intensity, states, catalog)
    lookup = {p.state: p for p in predictions}
    replay_ok = True
    replay_detail = []
    for n, two_j in ((4, 7), (6, 11)):
        true_state = MolecularState(n, HalfInt(two_j), 0, None, HalfInt(two_j))
        pred = lookup[true_state]
        measurement = Measurement(789.0, intensity, abs(pred.shift_hz),
                                  combined_sigma(pred.shift_hz, 10.0), pred.sign,
                                  695858.0)
        candidates = match_candidates(measurement, predictions, k=1.0)
        fraction = candidates.exclusion_fraction
        manifolds = {(c.state.n, c.state.j.twice) for c in candidates.candidates}
        replay_ok &= fraction >= 0.95 and manifolds == {(n, two_j)}
        replay_detail.append(f"N={n}: excl {candidates.excluded_states}/540")
    ok = (containment_failures == 0 and confinement_failures == 0 and replay_ok)
    report(11, "every I=0 state self-consistent at both wavelengths; replay "
               "exclusion >= 95%", ok,
           f"containment fails {containment_failures}, strong states "
           f"{strong_states} (confinement fails {confinement_failures}); "
           + "; ".join(replay_detail))


def test_criterion_12_event_classifier():
    intensity = intensity_from_core_anchor()
    before = Measurement(789.71, intensity, 900.0, 95.0, "red", 695e3)
    reacted = Measurement(789.71, intensity, 400.0, 60.0, "red", 690e3)
    jump_before = Measurement(789.71, intensity, 900.0, 95.0, "blue", 695e3)
    jump_after = Measurement(789.71, intensity, 700.0, 80.0, "red", 695e3)
    reaction = classify_event(before, reacted)
    jump = classify_event(jump_before, jump_after)
    unchanged = classify_event(before, before)
    ok = reaction == "reaction" and jump == "quantum_jump" and unchanged == "no_change"
    report(12, "695->690 kHz is a reaction; blue->red at fixed f_IP is a "
               "quantum jump", ok,
           f"got {reaction}, {jump}, {unchanged}")
