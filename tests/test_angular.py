import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odfprobe.angular import (HalfInt, PiCoupling, _wigner_3j_doubled,
                              _wigner_6j_doubled, honl_london, parse_branch,
                              pi_mixing_weights, wigner_3j, wigner_6j)

from oracles import (allowed_branches, exact_3j_doubled, exact_6j_doubled,
                     honl_london_direct, racah_3j, racah_6j)

N2_COUPLING = PiCoupling(spin_orbit_a=-74.62, rotational_b=1.697425)

# Intermediate-coupling line-strength factors of the shipped band, frozen
# from the direct eigenvector/case-(a) oracle (tests/oracles.py).
HONL_LONDON_TABLE = [
    ("R1", 1, 1.0424495750723242),
    ("R21", 1, 0.290883758261009),
    ("Q21", 1, 0.6666666666666669),
    ("Q1", 5, 1.5497645825131603),
    ("P1", 5, 0.22660108291873896),
    ("R1", 5, 1.608499419324776),
    ("Q21", 5, 1.364521131772552),
    ("P21", 5, 0.5733989170812608),
    ("R21", 5, 0.6772148663895102),
    ("Q12", 7, 1.5787093026789263),
    ("P12", 7, 0.35613710409671556),
    ("R12", 7, 1.3768346448362505),
    ("Q2", 7, 2.35779863382901),
    ("P2", 7, 0.9295771816175696),
    ("R2", 7, 1.400943132941527),
    ("Q12", 11, 2.195756876827455),
    ("P12", 11, 0.6819450806760796),
    ("R12", 11, 1.6039697966662383),
    ("Q1", 13, 4.452725768777061),
    ("R21", 13, 1.1902746430475128),
    ("Q2", 15, 5.314679191971654),
    ("Q12", 15, 2.653948259008743),
    ("Q1", 17, 6.087209078304181),
    ("P1", 17, 2.2696597173721065),
    ("R1", 17, 3.9134344229843663),
    ("Q21", 17, 2.8849271446060376),
]


class TestHalfInt:
    def test_construction(self):
        assert HalfInt.of(3).twice == 6
        assert HalfInt.of(3.5).twice == 7
        assert HalfInt.of("4").twice == 8
        with pytest.raises(ValueError):
            HalfInt.of("7/2")
        assert HalfInt.of(HalfInt(5)) == HalfInt(5)

    def test_rejects_non_half_integers(self):
        with pytest.raises(ValueError):
            HalfInt.of(0.3)
        with pytest.raises(ValueError):
            HalfInt.of("7/3")
        with pytest.raises(ValueError):
            HalfInt(1.5)

    def test_arithmetic_and_formatting(self):
        j = HalfInt(7)
        assert j.value == 3.5
        assert str(j) == "7/2"
        assert str(HalfInt(6)) == "3"


@st.composite
def three_j_args(draw, top=12):
    two_j1 = draw(st.integers(0, top))
    two_j2 = draw(st.integers(0, top))
    two_j3 = draw(st.sampled_from(range(abs(two_j1 - two_j2), two_j1 + two_j2 + 1, 2)))
    two_m1 = draw(st.sampled_from(range(-two_j1, two_j1 + 1, 2)))
    two_m2 = draw(st.sampled_from(range(-two_j2, two_j2 + 1, 2)))
    return two_j1, two_j2, two_j3, two_m1, two_m2, -two_m1 - two_m2


@st.composite
def six_j_args(draw, top=10):
    two_j1 = draw(st.integers(0, top))
    two_j2 = draw(st.integers(0, top))
    two_j3 = draw(st.sampled_from(range(abs(two_j1 - two_j2), two_j1 + two_j2 + 1, 2)))
    two_j4 = draw(st.integers(0, top))
    two_j5 = draw(st.sampled_from(range(abs(two_j4 - two_j3), two_j4 + two_j3 + 1, 2)))
    lo = max(abs(two_j1 - two_j5), abs(two_j4 - two_j2))
    hi = min(two_j1 + two_j5, two_j4 + two_j2)
    if lo > hi or (lo + two_j1 + two_j5) % 2:
        return two_j1, two_j2, two_j3, two_j4, two_j5, None
    two_j6 = draw(st.sampled_from(range(lo, hi + 1, 2)))
    return two_j1, two_j2, two_j3, two_j4, two_j5, two_j6


class TestWigner3j:
    def test_known_values(self):
        assert wigner_3j(1, 1, 0, 0, 0, 0) == pytest.approx(-1.0 / math.sqrt(3.0), rel=1e-14)
        # closed form (j, j, 0; m, -m, 0) = (-1)^(j-m)/sqrt(2j+1)
        for two_j in range(0, 9):
            for two_m in range(-two_j, two_j + 1, 2):
                expected = (-1.0) ** ((two_j - two_m) // 2) / math.sqrt(two_j + 1.0)
                assert wigner_3j(two_j / 2, two_j / 2, 0, two_m / 2, -two_m / 2, 0) \
                    == pytest.approx(expected, rel=1e-13)

    def test_triangle_violation_is_exact_zero(self):
        assert wigner_3j(1, 2, 4, 0, 0, 0) == 0.0
        assert wigner_3j(0.5, 0.5, 2, 0.5, -0.5, 0) == 0.0

    def test_m_sum_violation_is_exact_zero(self):
        assert wigner_3j(1, 1, 1, 1, 0, 1) == 0.0

    def test_selection_rule_zero_is_exact(self):
        # (j j' 1; 0 0 0) with j = j' vanishes identically by symmetry
        assert wigner_3j(2, 2, 1, 0, 0, 0) == 0.0

    def test_malformed_input_raises(self):
        with pytest.raises(ValueError):
            wigner_3j(1, 1, 1, 2, -1, -1)       # |m| > j
        with pytest.raises(ValueError):
            wigner_3j(1.5, 1, 1.5, 1, 0, -1)    # m integer for half-odd j
        with pytest.raises(ValueError):
            wigner_3j(-1, 1, 1, 0, 0, 0)

    @settings(max_examples=300, deadline=None)
    @given(three_j_args())
    def test_matches_racah_oracle(self, args):
        two = args
        if abs(two[5]) > two[2]:
            return
        mine = wigner_3j(*(x / 2 for x in two))
        oracle = racah_3j(*(x / 2 for x in two))
        assert mine == pytest.approx(oracle, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(three_j_args())
    def test_column_permutation_symmetry(self, args):
        two_j1, two_j2, two_j3, two_m1, two_m2, two_m3 = args
        if abs(two_m3) > two_j3:
            return
        base = wigner_3j(two_j1 / 2, two_j2 / 2, two_j3 / 2,
                         two_m1 / 2, two_m2 / 2, two_m3 / 2)
        cyclic = wigner_3j(two_j2 / 2, two_j3 / 2, two_j1 / 2,
                           two_m2 / 2, two_m3 / 2, two_m1 / 2)
        assert cyclic == pytest.approx(base, abs=1e-12)
        swap = wigner_3j(two_j2 / 2, two_j1 / 2, two_j3 / 2,
                         two_m2 / 2, two_m1 / 2, two_m3 / 2)
        phase = (-1.0) ** ((two_j1 + two_j2 + two_j3) // 2)
        assert swap == pytest.approx(phase * base, abs=1e-12)
        reflect = wigner_3j(two_j1 / 2, two_j2 / 2, two_j3 / 2,
                            -two_m1 / 2, -two_m2 / 2, -two_m3 / 2)
        assert reflect == pytest.approx(phase * base, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(three_j_args())
    def test_regge_transposition_symmetry(self, args):
        two_j1, two_j2, two_j3, two_m1, two_m2, two_m3 = args
        if abs(two_m3) > two_j3:
            return
        base = wigner_3j(two_j1 / 2, two_j2 / 2, two_j3 / 2,
                         two_m1 / 2, two_m2 / 2, two_m3 / 2)
        # transposing the Regge array leaves the symbol invariant
        j1p, m1p = two_j1 / 2, (two_j2 - two_j3) / 2
        j2p = ((two_j2 - two_m2) + (two_j3 - two_m3)) / 4
        m2p = ((two_j3 - two_m3) - (two_j2 - two_m2)) / 4
        j3p = ((two_j2 + two_m2) + (two_j3 + two_m3)) / 4
        m3p = ((two_j3 + two_m3) - (two_j2 + two_m2)) / 4
        assert wigner_3j(j1p, j2p, j3p, m1p, m2p, m3p) == pytest.approx(base, abs=1e-12)

    def test_orthogonality_small_sweep(self):
        # sum over m1 (m2 fixed by m3) of (2 j3 + 1) 3j^2 = 1, j <= 3 here;
        # the full j <= 6 sweep runs in the acceptance suite
        for two_j1 in range(0, 7):
            for two_j2 in range(0, 7):
                for two_j3 in range(abs(two_j1 - two_j2), two_j1 + two_j2 + 1, 2):
                    for two_m3 in range(-two_j3, two_j3 + 1, 2):
                        total = 0.0
                        for two_m1 in range(-two_j1, two_j1 + 1, 2):
                            two_m2 = -two_m3 - two_m1
                            if abs(two_m2) > two_j2:
                                continue
                            v = wigner_3j(two_j1 / 2, two_j2 / 2, two_j3 / 2,
                                          two_m1 / 2, two_m2 / 2, two_m3 / 2)
                            total += (two_j3 + 1) * v * v
                        assert total == pytest.approx(1.0, abs=1e-12)


class TestWigner6j:
    def test_known_value(self):
        assert wigner_6j(1, 1, 1, 1, 1, 1) == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_zero_argument_closed_form(self):
        # {j1 j2 j3; 0 j3 j2} = (-1)^(j1+j2+j3) / sqrt((2j2+1)(2j3+1))
        for j1, j2, j3 in [(1, 2, 3), (2, 2, 2), (0.5, 1, 1.5), (3, 1.5, 2.5)]:
            expected = (-1.0) ** round(j1 + j2 + j3) / math.sqrt(
                (2 * j2 + 1) * (2 * j3 + 1))
            assert wigner_6j(j1, j2, j3, 0, j3, j2) == pytest.approx(expected, rel=1e-13)

    def test_triad_violation_is_exact_zero(self):
        assert wigner_6j(1, 1, 3, 1, 1, 1) == 0.0
        assert wigner_6j(1, 1, 1, 1, 1, 2.5) == 0.0

    def test_negative_argument_raises(self):
        with pytest.raises(ValueError):
            wigner_6j(-1, 1, 1, 1, 1, 1)

    @settings(max_examples=300, deadline=None)
    @given(six_j_args())
    def test_matches_racah_oracle(self, args):
        if args[5] is None:
            return
        mine = wigner_6j(*(x / 2 for x in args))
        oracle = racah_6j(*(x / 2 for x in args))
        assert mine == pytest.approx(oracle, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(six_j_args())
    def test_column_symmetries(self, args):
        if args[5] is None:
            return
        j1, j2, j3, j4, j5, j6 = (x / 2 for x in args)
        base = wigner_6j(j1, j2, j3, j4, j5, j6)
        assert wigner_6j(j2, j1, j3, j5, j4, j6) == pytest.approx(base, abs=1e-12)
        assert wigner_6j(j3, j2, j1, j6, j5, j4) == pytest.approx(base, abs=1e-12)
        assert wigner_6j(j4, j5, j3, j1, j2, j6) == pytest.approx(base, abs=1e-12)


# The kernels themselves, not their caches: every symbol is computed afresh.
KERNEL_3J = _wigner_3j_doubled.__wrapped__
KERNEL_6J = _wigner_6j_doubled.__wrapped__


def _same(mine, exact):
    # == also holds for 0.0 against -0.0, so compare the sign bits too
    return mine == exact and math.copysign(1.0, mine) == math.copysign(1.0, exact)


class TestExactKernels:
    """The integer Racah sums return the float of the exact rational, so each
    symbol equals the ``Fraction`` reference in tests/oracles.py exactly."""

    def test_every_3j_to_two_j_ten(self):
        for two_j1, two_j2, two_j3 in itertools.product(range(11), repeat=3):
            for two_m1 in range(-two_j1, two_j1 + 1, 2):
                for two_m2 in range(-two_j2, two_j2 + 1, 2):
                    args = (two_j1, two_j2, two_j3, two_m1, two_m2, -two_m1 - two_m2)
                    assert _same(KERNEL_3J(*args), exact_3j_doubled(*args)), args

    def test_every_6j_to_two_j_six(self):
        for args in itertools.product(range(7), repeat=6):
            assert _same(KERNEL_6J(*args), exact_6j_doubled(*args)), args

    @settings(max_examples=100, deadline=None)
    @given(three_j_args(top=60))
    def test_large_3j(self, args):
        assert _same(KERNEL_3J(*args), exact_3j_doubled(*args))

    @settings(max_examples=100, deadline=None)
    @given(six_j_args(top=60))
    def test_large_6j(self, args):
        if args[5] is not None:
            assert _same(KERNEL_6J(*args), exact_6j_doubled(*args))


class TestHonlLondon:
    def test_branch_parsing(self):
        assert parse_branch("Q12") == (0, 1, 2)
        assert parse_branch("P1") == (-1, 1, 1)
        assert parse_branch("R21") == (1, 2, 1)
        with pytest.raises(ValueError):
            parse_branch("X1")
        with pytest.raises(ValueError):
            parse_branch("Q13")

    def test_sum_rule_per_lower_level(self):
        for n in range(0, 11, 2):
            for comp in (1, 2):
                two_j = 2 * n + 1 if comp == 1 else 2 * n - 1
                if two_j < 1:
                    continue
                total = sum(honl_london(b, HalfInt(two_j), N2_COUPLING)
                            for b in allowed_branches(n, comp))
                assert total / (two_j + 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_frozen_oracle_table(self):
        for branch, two_j, expected in HONL_LONDON_TABLE:
            value = honl_london(branch, HalfInt(two_j), N2_COUPLING)
            assert value == pytest.approx(expected, abs=1e-12), (branch, two_j)

    @pytest.mark.parametrize("coupling", [
        N2_COUPLING,
        PiCoupling(spin_orbit_a=0.0, rotational_b=1.0),
        PiCoupling(spin_orbit_a=40.0, rotational_b=1.0),
        PiCoupling(spin_orbit_a=-6.0, rotational_b=2.0),
    ])
    def test_matches_direct_oracle_across_coupling_regimes(self, coupling):
        for n in range(0, 9, 2):
            for comp in (1, 2):
                two_j = 2 * n + 1 if comp == 1 else 2 * n - 1
                if two_j < 1:
                    continue
                for branch in allowed_branches(n, comp):
                    mine = honl_london(branch, HalfInt(two_j), coupling)
                    oracle = honl_london_direct(branch, two_j / 2.0,
                                                coupling.spin_orbit_a,
                                                coupling.rotational_b)
                    assert mine == pytest.approx(oracle, abs=1e-11), (branch, two_j)

    def test_case_b_limit_forbids_delta_n_two(self):
        case_b = PiCoupling(spin_orbit_a=0.0, rotational_b=1.0)
        # P12 from any F2 level reaches N' = N'' - 2: strictly forbidden at A = 0
        assert honl_london("P12", HalfInt(11), case_b) == pytest.approx(0.0, abs=1e-12)
        assert honl_london("R21", HalfInt(9), case_b) == pytest.approx(0.0, abs=1e-12)

    def test_anchor_line_strength_positive(self):
        # the satellite branch carrying the identification of the J'' = 7/2 level
        assert honl_london("Q12", HalfInt(7), N2_COUPLING) > 0.0

    def test_unreachable_branches_raise(self):
        with pytest.raises(ValueError):
            honl_london("P1", HalfInt(1), N2_COUPLING)   # J' would be -1/2
        with pytest.raises(ValueError):
            honl_london("Q1", HalfInt(1), N2_COUPLING)   # no F1 level at J' = 1/2
        with pytest.raises(ValueError):
            honl_london("Q12", HalfInt(1), N2_COUPLING)  # no F1 level at J' = 1/2
        with pytest.raises(ValueError):
            honl_london("Q1", HalfInt(2), N2_COUPLING)   # integer J''

    def test_mixing_weights_are_orthonormal(self):
        for two_j in (3, 7, 11, 17):
            weights = pi_mixing_weights(HalfInt(two_j), N2_COUPLING)
            w1, w2 = weights[1], weights[2]
            assert math.hypot(*w1) == pytest.approx(1.0, rel=1e-12)
            assert math.hypot(*w2) == pytest.approx(1.0, rel=1e-12)
            assert w1[0] * w2[0] + w1[1] * w2[1] == pytest.approx(0.0, abs=1e-12)

    def test_j_half_has_single_component(self):
        assert pi_mixing_weights(HalfInt(1), N2_COUPLING) == {2: (1.0, 0.0)}
