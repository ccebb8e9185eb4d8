import math

import numpy as np
import pytest

from odfprobe.angular import HalfInt, wigner_3j, wigner_6j
from odfprobe.catalog import LineCatalog, TransitionLine
from odfprobe.quantities import wavelength_to_angular_frequency
from odfprobe.stark import (AtomicLevelModel, NearResonanceError,
                            atomic_polarizability, atomic_stark_shift,
                            dynamic_polarizability, load_shipped_atomic_model,
                            molecular_stark_shift, polarizability_breakdown,
                            transition_strength)
from odfprobe.states import MolecularState, enumerate_states

from oracles import two_level_polarizability_au


def single_line_catalog(strength_au=1e-3, wavelength_nm=789.1872, core=0.0):
    line = TransitionLine("A-X", "Q12", 6, HalfInt(11), HalfInt(11),
                          wavelength_nm, strength_au)
    return LineCatalog(lines=(line,), far_bands=(), core_polarizability_au=core)


def stretched_state():
    return MolecularState(6, HalfInt(11), 0, None, HalfInt(11))


class TestTransitionStrength:
    def test_wrong_lower_level_rejected(self, catalog):
        line = catalog.lines_from(6, HalfInt(11))[0]
        other = MolecularState(4, HalfInt(7), 0, None, HalfInt(7))
        with pytest.raises(ValueError, match="does not start"):
            transition_strength(other, line)

    def test_q_branch_m_zero_selection_zero(self):
        # J' = J'' with m = 0 and q = 0: the 3j factor vanishes identically
        cat = single_line_catalog()
        line = cat.lines[0]
        state = MolecularState(6, HalfInt(11), 0, None, HalfInt(1))
        # m = 1/2 does not vanish but the integer-J analogue would; instead
        # verify the exact 3j proportionality m^2 / (J(J+1)(2J+1))
        value = transition_strength(state, line)
        j = 5.5
        expected = line.strength_au * (0.5**2 / (j * (j + 1.0) * (2.0 * j + 1.0)))
        assert value == pytest.approx(expected, rel=1e-12)

    def test_m_sum_matches_total_over_three(self, catalog):
        # q = 0 carries one third of the line strength when summed over m
        for line in catalog.lines_from(6, HalfInt(11)):
            total = sum(
                transition_strength(
                    MolecularState(6, HalfInt(11), 0, None, HalfInt(two_m)), line)
                for two_m in range(-11, 12, 2))
            assert total == pytest.approx(line.strength_au / 3.0, rel=1e-10)

    def test_hyperfine_closure(self, catalog):
        # I = 2 strengths summed over F, m equal (2I+1) times the I = 0 sum
        line = catalog.lines_from(6, HalfInt(11))[0]
        total_i0 = sum(
            transition_strength(MolecularState(6, HalfInt(11), 0, None, HalfInt(m)), line)
            for m in range(-11, 12, 2))
        total_i2 = sum(
            transition_strength(s, line)
            for s in enumerate_states(6)
            if s.n == 6 and s.j == HalfInt(11) and s.i_nuc == 2)
        assert total_i2 == pytest.approx(5.0 * total_i0, rel=1e-10)

    def test_m_parity(self, catalog):
        line = catalog.lines_from(4, HalfInt(7))[0]
        for two_m in (1, 3, 7):
            plus = transition_strength(
                MolecularState(4, HalfInt(7), 0, None, HalfInt(two_m)), line)
            minus = transition_strength(
                MolecularState(4, HalfInt(7), 0, None, HalfInt(-two_m)), line)
            assert plus == pytest.approx(minus, rel=1e-14)

    def test_stretched_hyperfine_state_sees_bare_strength(self, catalog):
        # for F = J + I, m = +-F the nuclear spin is a spectator: the
        # recoupled strength must equal the I = 0 stretched-state strength
        # (this is why both appear in the same candidate tier)
        for n, two_j in ((4, 7), (6, 11), (8, 17)):
            for line in catalog.lines_from(n, HalfInt(two_j)):
                bare = transition_strength(
                    MolecularState(n, HalfInt(two_j), 0, None, HalfInt(two_j)), line)
                dressed = transition_strength(
                    MolecularState(n, HalfInt(two_j), 2, HalfInt(two_j + 4),
                                   HalfInt(two_j + 4)), line)
                assert dressed == pytest.approx(bare, rel=1e-12, abs=1e-18)


    def test_equals_the_halfint_expression(self, catalog):
        # The same recoupling written on the public, validating HalfInt API:
        # every state and catalog line gives the same float, bit for bit.
        def reference(state, line):
            j_low, j_up, m = state.j, line.j_upper, state.m
            if state.i_nuc == 0:
                if abs(m.twice) > j_up.twice:
                    return 0.0
                zeeman = wigner_3j(j_up, 1, j_low, HalfInt(-m.twice), 0, m)
                return line.strength_au * zeeman * zeeman
            f_low, total = state.f, 0.0
            for two_fp in range(abs(j_up.twice - 2 * state.i_nuc),
                                j_up.twice + 2 * state.i_nuc + 1, 2):
                f_up = HalfInt(two_fp)
                if not abs(f_low.twice - 2) <= two_fp <= f_low.twice + 2:
                    continue
                if abs(m.twice) > two_fp:
                    continue
                six = wigner_6j(j_up, f_up, state.i_nuc, f_low, j_low, 1)
                zeeman = wigner_3j(f_up, 1, f_low, HalfInt(-m.twice), 0, m)
                total += ((two_fp + 1.0) * (f_low.twice + 1.0)
                          * six * six * zeeman * zeeman)
            return line.strength_au * total

        pairs = [(state, line) for state in enumerate_states(8)
                 for line in catalog.lines_from(state.n, state.j)]
        assert len(pairs) > 540
        for state, line in pairs:
            assert transition_strength(state, line) == reference(state, line), \
                (state.label(), line.branch)


class TestDynamicPolarizability:
    def test_two_level_limit_matches_closed_form(self):
        cat = single_line_catalog()
        state = stretched_state()
        line = cat.lines[0]
        for lam in (700.0, 788.0, 791.0, 850.0):
            alpha = dynamic_polarizability(state, lam, cat)
            strength = transition_strength(state, line)
            expected = two_level_polarizability_au(
                wavelength_to_angular_frequency(lam),
                line.angular_frequency, strength)
            assert alpha == pytest.approx(expected, rel=1e-12)

    def test_sign_structure(self):
        cat = single_line_catalog()
        state = stretched_state()
        assert dynamic_polarizability(state, 800.0, cat) > 0.0   # red of the line
        assert dynamic_polarizability(state, 780.0, cat) < 0.0   # blue of the line

    def test_sign_flips_across_anchor_line(self, catalog):
        state = stretched_state()
        below = dynamic_polarizability(state, 789.15, catalog)
        above = dynamic_polarizability(state, 789.23, catalog)
        assert below < 0.0 < above

    def test_near_resonance_guard(self, catalog):
        state = stretched_state()
        with pytest.raises(NearResonanceError, match="Q12"):
            dynamic_polarizability(state, 789.1872, catalog)
        # a tighter guard passes where the default refuses
        close = 789.1872 + 0.00125  # about 0.6 GHz detuning
        with pytest.raises(NearResonanceError):
            dynamic_polarizability(state, close, catalog)
        assert math.isfinite(dynamic_polarizability(state, close, catalog,
                                                    guard_hz=1e8))

    def test_static_limit_positive_for_all_states(self, catalog):
        # far red of every transition the polarizability is positive
        for state in enumerate_states(4, isomers=(0,)):
            assert dynamic_polarizability(state, 5000.0, catalog) > 0.0

    def test_breakdown_parts_sum(self, catalog):
        state = stretched_state()
        breakdown = polarizability_breakdown(state, 789.0, catalog)
        assert breakdown.total_au == pytest.approx(
            breakdown.resonant_au + breakdown.far_band_au + breakdown.core_au)
        assert breakdown.core_au == catalog.core_polarizability_au
        assert breakdown.resonant_au < 0.0  # blue detuned at 789.0

    def test_scalar_m_sum_convention_independent(self, catalog):
        # the m-summed polarizability is a frame-independent scalar
        for lam in (788.5, 789.5):
            totals = []
            for j, n in ((HalfInt(11), 6), (HalfInt(13), 6)):
                total = sum(
                    dynamic_polarizability(
                        MolecularState(n, j, 0, None, HalfInt(two_m)), lam, catalog)
                    for two_m in range(-j.twice, j.twice + 1, 2))
                totals.append(total)
            assert all(math.isfinite(t) for t in totals)


class TestMolecularStarkShift:
    def test_zero_intensity(self, catalog):
        assert molecular_stark_shift(stretched_state(), 789.0, 0.0, catalog) == 0.0

    def test_core_only_state_reproduces_anchor(self, anchor_intensity):
        # a catalog whose lines do not touch the state leaves core only
        cat = LineCatalog(lines=(), far_bands=(), core_polarizability_au=7.23)
        state = MolecularState(0, HalfInt(1), 0, None, HalfInt(1))
        shift = molecular_stark_shift(state, 789.0, anchor_intensity, cat)
        assert shift == pytest.approx(-390.0, rel=1e-9)

    def test_fig4_style_orderings(self, catalog, anchor_intensity):
        def max_abs_shift(n, lam):
            return max(
                abs(molecular_stark_shift(s, lam, anchor_intensity, catalog))
                for s in enumerate_states(8) if s.n == n)
        # near its satellite line the N'' = 6 manifold tops N'' = 8
        for lam in (789.10, 789.25):
            assert max_abs_shift(6, lam) > max_abs_shift(8, lam)
        # the low manifolds stay below N'' = 8 throughout the window
        for lam in (788.9, 789.0, 789.1):
            n8 = max_abs_shift(8, lam)
            assert max_abs_shift(0, lam) < n8
            assert max_abs_shift(2, lam) < n8


class TestAtomicPolarizability:
    def test_d_state_anchor(self):
        model = load_shipped_atomic_model("D5/2")
        assert model.tensor_prefactor() == 1.0
        assert atomic_polarizability(model, 789.0) - model.core_au \
            == pytest.approx(4.44, rel=1e-12)
        assert atomic_polarizability(model, 789.0) \
            == pytest.approx(4.44 + 3.03, rel=1e-12)

    @pytest.mark.parametrize("level", ["S1/2", "D3/2"])
    def test_only_the_shelved_level_is_shipped(self, level):
        # the reference ion is shelved in D5/2 during lattice pulses
        with pytest.raises(ValueError, match=f"unknown level '{level}'; shipped: \\['D5/2'\\]"):
            load_shipped_atomic_model(level)

    def test_magic_angle_kills_tensor_term(self):
        theta = math.acos(math.sqrt(1.0 / 3.0))
        model = load_shipped_atomic_model("D5/2", theta=theta)
        scalar_only = atomic_polarizability(model, 789.0) - model.core_au
        assert scalar_only == pytest.approx(10.0, abs=1e-12)

    def test_prefactor_exact_for_stretched_m(self):
        for m in (-2.5, 2.5):
            model = load_shipped_atomic_model("D5/2", m=m)
            assert model.tensor_prefactor() == 1.0

    def test_j_half_tensor_flagged(self):
        model = AtomicLevelModel(
            level="S1/2", j=HalfInt(1), m=HalfInt(-1),
            wavelengths_nm=(785.0, 790.0),
            alpha_scalar_au=(97.9, 97.4),
            alpha_tensor_au=(0.0, 0.0),
            core_au=3.134,
        )
        # every valence value carries the tensor term, which J = 1/2 lacks
        with pytest.raises(ValueError, match="tensor contribution undefined for J = 1/2"):
            atomic_polarizability(model, 789.0)

    @pytest.mark.parametrize("m, named", [(-3.5, "7/2"), (3.5, "7/2"), (-4, "4")])
    def test_projection_beyond_j_is_named(self, m, named):
        with pytest.raises(ValueError, match=f"\\|m\\| = {named} exceeds J = 5/2"):
            load_shipped_atomic_model("D5/2", m=m)

    def test_table_range_enforced(self):
        model = load_shipped_atomic_model("D5/2")
        with pytest.raises(ValueError, match="outside"):
            atomic_polarizability(model, 800.0)

    def test_lattice_shift_sign(self, anchor_intensity):
        model = load_shipped_atomic_model("D5/2")
        assert atomic_stark_shift(model, 789.0, anchor_intensity) < 0.0
