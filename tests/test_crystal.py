import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odfprobe.crystal import (LatticeDrive, TwoIonCrystal,
                              classify_phase, combined_mode_shift,
                              equilibrium_distance, extract_molecular_shift,
                              infer_detuning_sign, mode_angle,
                              normal_modes, spring_from_distance)
from odfprobe.quantities import ATOMIC_MASS


class TestEquilibrium:
    def test_round_trip_identity(self):
        for u0 in (1e-13, 1.0957e-12, 5e-12):
            d = equilibrium_distance(u0)
            assert spring_from_distance(d) == pytest.approx(u0, rel=1e-12)

    def test_cube_root_scaling(self):
        d = equilibrium_distance(1e-12)
        assert equilibrium_distance(8e-12) == pytest.approx(d / 2.0, rel=1e-12)

    def test_published_geometry_gives_646_khz_single_ion(self):
        # d = 19 lambda/2 at 789.0 nm; a single 40 u ion then oscillates
        # near 646 kHz
        d = 19 * 789.0e-9 / 2.0
        assert d == pytest.approx(7.4955e-6, rel=1e-9)
        u0 = spring_from_distance(d)
        f2 = math.sqrt(u0 / (40.0 * ATOMIC_MASS)) / (2.0 * math.pi)
        assert f2 == pytest.approx(646.4e3, abs=0.5e3)

    def test_validation(self):
        with pytest.raises(ValueError):
            equilibrium_distance(0.0)
        with pytest.raises(ValueError):
            spring_from_distance(-1.0)


class TestNormalModes:
    def test_equal_mass_limit(self):
        m, u0 = 40.0, 1e-12
        omega2 = math.sqrt(u0 / (m * ATOMIC_MASS))
        minus, plus, theta = normal_modes(m, m, u0)
        assert minus == pytest.approx(omega2, rel=1e-12)
        assert plus == pytest.approx(math.sqrt(3.0) * omega2, rel=1e-12)
        assert theta == pytest.approx(math.pi / 4.0, rel=1e-12)

    def test_published_mode_frequency_anchor(self, crystal):
        assert crystal.f_ip == pytest.approx(695.86e3, abs=0.1e3)
        assert crystal.f_ip == pytest.approx(695e3, abs=1e3)  # published value

    def test_mode_angle_example(self, crystal):
        assert math.tan(crystal.theta) == pytest.approx(0.7038, abs=1e-4)

    def test_mass_change_signature(self, crystal):
        partner = TwoIonCrystal(29, 40, crystal.u0)
        rel = (crystal.f_ip - partner.f_ip) / crystal.f_ip
        assert rel == pytest.approx(6e-3, rel=0.1)

    def test_transform_diagonalizes_dynamics(self):
        # numerical oracle: eigenvalues/vectors of the mass-weighted Hessian
        rng = np.random.default_rng(3)
        for _ in range(25):
            m1 = rng.uniform(15.0, 80.0)
            m2 = rng.uniform(15.0, 80.0)
            u0 = rng.uniform(0.2e-12, 4e-12)
            crystal = TwoIonCrystal(m1, m2, u0)
            k1, k2 = m1 * ATOMIC_MASS, m2 * ATOMIC_MASS
            # V = u0 (q1^2 + q2^2 - q1 q2): Coulomb spring equals u0
            hessian = np.array([[2.0 * u0, -u0], [-u0, 2.0 * u0]])
            weight = np.diag([1.0 / math.sqrt(k1), 1.0 / math.sqrt(k2)])
            omegas2, vectors = np.linalg.eigh(weight @ hessian @ weight)
            assert math.sqrt(omegas2[0]) == pytest.approx(crystal.omega_minus, rel=1e-10)
            assert math.sqrt(omegas2[1]) == pytest.approx(crystal.omega_plus, rel=1e-10)
            # the mode-transform rows match the mass-weighted eigenvectors
            s, c = math.sin(crystal.theta), math.cos(crystal.theta)
            minus_row = np.array([s, c])
            oracle_row = vectors[:, 0] / np.linalg.norm(vectors[:, 0])
            overlap = abs(float(minus_row @ oracle_row))
            assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_monotone_in_mass_ratio(self):
        mus = np.linspace(0.5, 2.0, 41)
        ratios = [math.sqrt(1.0 + mu - math.sqrt(1.0 + mu * mu - mu)) for mu in mus]
        angles = [mode_angle(mu) for mu in mus]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))  # increasing in mu
        assert all(b < a for a, b in zip(angles, angles[1:]))  # decreasing in mu
        assert mode_angle(1.0) == pytest.approx(math.pi / 4.0, rel=1e-12)

    def test_constructors_consistent(self, crystal):
        omega2 = math.sqrt(crystal.u0 / (crystal.m2_u * ATOMIC_MASS))
        again = TwoIonCrystal.from_atomic_frequency(28, 40, omega2 / (2.0 * math.pi))
        assert again.u0 == pytest.approx(crystal.u0, rel=1e-12)
        from_d = TwoIonCrystal.from_distance(28, 40, crystal.d)
        assert from_d.u0 == pytest.approx(crystal.u0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            TwoIonCrystal(0.0, 40.0, 1e-12)
        with pytest.raises(ValueError):
            TwoIonCrystal.from_lattice_periods(28, 40, 0, 789.0)


class TestLatticePhase:
    def test_tolerance_boundary(self):
        assert classify_phase(2.0 * math.pi * 0.0005) == "SP"
        assert classify_phase(2.0 * math.pi * 0.01) == "INTERMEDIATE"
        assert classify_phase(math.pi + 2.0 * math.pi * 0.0005) == "OP"

    def test_drive_for_crystal(self, crystal):
        drive = LatticeDrive.for_crystal(crystal, 789.0, -1000.0, -400.0)
        assert drive.configuration == "SP"
        assert drive.beat_frequency_hz == pytest.approx(crystal.f_ip)
        op = LatticeDrive.for_crystal(crystal, 789.0, -1000.0, -400.0,
                                      extra_distance_m=789.0e-9 / 4.0)
        assert op.configuration == "OP"

    @pytest.mark.parametrize("field, value", [
        ("beat_frequency_hz", math.nan), ("beat_frequency_hz", math.inf),
        ("beat_frequency_hz", -1.0), ("shift1_hz", math.nan), ("shift2_hz", math.inf),
        ("phi1", math.nan), ("phi2", -math.inf)])
    def test_drive_rejects_bad_values(self, crystal, field, value):
        drive = LatticeDrive.for_crystal(crystal, 789.0, -1000.0, -400.0)
        with pytest.raises(ValueError, match=field):
            LatticeDrive(**{**vars(drive), field: value})


class TestCombinedShift:
    def test_molecule_only_independent_of_phase(self, crystal):
        mu, theta = crystal.mu, crystal.theta
        mags = [abs(combined_mode_shift(-1000.0, 0.0, phi, mu, theta))
                for phi in (0.0, 1.0, math.pi, 4.0)]
        expected = math.sqrt(mu) * math.sin(theta) * 1000.0
        for mag in mags:
            assert mag == pytest.approx(expected, rel=1e-12)

    def test_sp_op_add_subtract(self, crystal):
        mu, theta = crystal.mu, crystal.theta
        sp = abs(combined_mode_shift(-1000.0, -300.0, 0.0, mu, theta))
        op = abs(combined_mode_shift(-1000.0, -300.0, math.pi, mu, theta))
        a = math.sqrt(mu) * math.sin(theta) * 1000.0
        b = math.cos(theta) * 300.0
        assert sp == pytest.approx(a + b, rel=1e-12)
        assert op == pytest.approx(a - b, rel=1e-12)
        assert sp > op

    def test_quadrature_oracle(self, crystal):
        mu, theta = crystal.mu, crystal.theta
        value = combined_mode_shift(-1000.0, -300.0, math.pi / 2.0, mu, theta)
        oracle = (math.sqrt(mu) * math.sin(theta) * (-1000.0)
                  + math.cos(theta) * (-300.0) * cmath.exp(1j * math.pi / 2.0))
        assert value == pytest.approx(oracle, rel=1e-12)
        assert abs(value) == pytest.approx(
            math.hypot(math.sqrt(mu) * math.sin(theta) * 1000.0,
                       math.cos(theta) * 300.0), rel=1e-12)

    def test_global_sign_flip_invariance(self, crystal):
        mu, theta = crystal.mu, crystal.theta
        for phi in (0.0, 0.7, math.pi):
            a = abs(combined_mode_shift(-800.0, -250.0, phi, mu, theta))
            b = abs(combined_mode_shift(800.0, 250.0, phi, mu, theta))
            assert a == pytest.approx(b, rel=1e-12)

    def test_interference_truth_table(self, crystal):
        mu, theta = crystal.mu, crystal.theta
        for sign1 in (-1.0, 1.0):
            for sign2 in (-1.0, 1.0):
                for phi in (0.0, math.pi):
                    mag = abs(combined_mode_shift(sign1 * 1000.0, sign2 * 300.0,
                                                  phi, mu, theta))
                    solo = abs(combined_mode_shift(sign1 * 1000.0, 0.0, phi, mu, theta))
                    constructive = sign1 * sign2 * math.cos(phi) > 0.0
                    assert (mag > solo) == constructive


class TestExtraction:
    def test_worked_example(self):
        theta = mode_angle(10.0 / 7.0)
        estimate = extract_molecular_shift(1000.0, 500.0, 10.0 / 7.0, theta)
        assert estimate.shift_hz == pytest.approx(1090.3, abs=0.5)

    def test_equal_magnitudes_imply_zero_atomic(self, crystal):
        mu, theta = crystal.mu, crystal.theta
        estimate = extract_molecular_shift(700.0, 700.0, mu, theta)
        assert estimate.shift_hz == pytest.approx(
            700.0 / (math.sqrt(mu) * math.sin(theta)), rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(50.0, 5000.0), st.floats(0.0, 1.0), st.booleans(), st.booleans())
    def test_algebraic_inverse(self, crystal, mol, atom_rel, sign1, sign2):
        mu, theta = crystal.mu, crystal.theta
        a = math.sqrt(mu) * math.sin(theta) * mol
        atom = atom_rel * 0.99 * a / math.cos(theta)  # keep dominance satisfied
        shift1 = mol if sign1 else -mol
        shift2 = atom if sign2 else -atom
        sp = abs(combined_mode_shift(shift1, shift2, 0.0, mu, theta))
        op = abs(combined_mode_shift(shift1, shift2, math.pi, mu, theta))
        estimate = extract_molecular_shift(sp, op, mu, theta)
        assert estimate.shift_hz == pytest.approx(mol, rel=1e-12)

    def test_negative_magnitudes_rejected(self, crystal):
        with pytest.raises(ValueError):
            extract_molecular_shift(-1.0, 1.0, crystal.mu, crystal.theta)


class TestDetuningSign:
    def test_cases(self):
        assert infer_detuning_sign(900.0, 300.0, 50.0) == "red"
        assert infer_detuning_sign(300.0, 900.0, 50.0) == "blue"
        assert infer_detuning_sign(500.0, 510.0, 50.0) == "indeterminate"

    def test_k_scaling(self):
        assert infer_detuning_sign(600.0, 500.0, 55.0, k=2.0) == "indeterminate"
        assert infer_detuning_sign(600.0, 500.0, 55.0, k=1.0) == "red"

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            infer_detuning_sign(1.0, 1.0, -1.0)
