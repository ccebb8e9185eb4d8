"""Angular-momentum algebra: Wigner 3j/6j symbols and rotational
line-strength (Honl-London) factors for the doublet Pi <- doublet Sigma band.

Quantum numbers are carried as :class:`HalfInt` (doubled integers) so that
half-integer selection rules are exact; the Wigner symbols themselves are
evaluated in exact integer arithmetic and converted to float at the end,
which makes selection-rule zeros exact zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class HalfInt:
    """An integer or half-odd-integer quantum number, stored as twice its value."""

    twice: int

    def __post_init__(self):
        if not isinstance(self.twice, int):
            raise ValueError(f"HalfInt stores twice the value as int, got {self.twice!r}")

    @classmethod
    def of(cls, value) -> "HalfInt":
        """Coerce an int, float multiple of 1/2, or HalfInt."""
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, int):
            return cls(2 * value)
        doubled = 2.0 * float(value)
        rounded = round(doubled)
        if abs(doubled - rounded) > 1e-9:
            raise ValueError(f"{value} is not an integer multiple of 1/2")
        return cls(int(rounded))

    @property
    def value(self) -> float:
        return self.twice / 2.0

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


def _twice(x) -> int:
    return HalfInt.of(x).twice


def _validate_jm(two_j: int, two_m: int, label: str) -> None:
    if two_j < 0:
        raise ValueError(f"{label}: angular momentum must be >= 0, got {two_j / 2}")
    if abs(two_m) > two_j:
        raise ValueError(f"{label}: |m| = {abs(two_m) / 2} exceeds j = {two_j / 2}")
    if (two_j - two_m) % 2 != 0:
        raise ValueError(
            f"{label}: m = {two_m / 2} and j = {two_j / 2} differ by a non-integer"
        )


def _triangle_ok(two_a: int, two_b: int, two_c: int) -> bool:
    return (
        abs(two_a - two_b) <= two_c <= two_a + two_b
        and (two_a + two_b + two_c) % 2 == 0
    )


_fact = math.factorial


def _delta_squared(two_a: int, two_b: int, two_c: int) -> tuple[int, int]:
    # Triangle coefficient Delta^2 = (a+b-c)!(a-b+c)!(-a+b+c)!/(a+b+c+1)!,
    # as (numerator, denominator)
    return (_fact((two_a + two_b - two_c) // 2)
            * _fact((two_a - two_b + two_c) // 2)
            * _fact((-two_a + two_b + two_c) // 2),
            _fact((two_a + two_b + two_c) // 2 + 1))


def _racah_sum(t_min: int, t_max: int, lows, highs, weight=None) -> tuple[int, int]:
    """Racah's alternating series sum_t (-1)^t w(t) / (prod (a+t)! prod (b-t)!)
    over t_min..t_max, for a in ``lows`` and b in ``highs``, as an exact
    (numerator, denominator) pair of ints.

    The common denominator is each factorial factor at its largest argument
    over the range, so every term's share of it is an exact integer quotient.
    """
    den = 1
    for a in lows:
        den *= _fact(a + t_max)
    for b in highs:
        den *= _fact(b - t_min)
    num = 0
    for t in range(t_min, t_max + 1):
        denom = 1
        for a in lows:
            denom *= _fact(a + t)
        for b in highs:
            denom *= _fact(b - t)
        term = den // denom if weight is None else weight(t) * den // denom
        num += -term if t % 2 else term
    return num, den


def _signed_sqrt(num: int, den: int, negative: bool) -> float:
    # int / int is correctly rounded, exactly as float(Fraction(num, den))
    root = math.sqrt(num / den)
    return -root if negative else root


@lru_cache(maxsize=None)
def _wigner_3j_doubled(two_j1, two_j2, two_j3, two_m1, two_m2, two_m3) -> float:
    if two_m1 + two_m2 + two_m3 != 0:
        return 0.0
    if not _triangle_ok(two_j1, two_j2, two_j3):
        return 0.0
    for tj, tm in ((two_j1, two_m1), (two_j2, two_m2), (two_j3, two_m3)):
        if abs(tm) > tj or (tj - tm) % 2 != 0:
            return 0.0

    # Racah's formula, evaluated in exact integer arithmetic: the squared
    # prefactor and the alternating sum are both exact ratios of ints; only one
    # division and one sqrt at the end.
    pre_num, pre_den = _delta_squared(two_j1, two_j2, two_j3)
    pre_num *= (_fact((two_j1 + two_m1) // 2)
                * _fact((two_j1 - two_m1) // 2)
                * _fact((two_j2 + two_m2) // 2)
                * _fact((two_j2 - two_m2) // 2)
                * _fact((two_j3 + two_m3) // 2)
                * _fact((two_j3 - two_m3) // 2))

    t_min = max(
        0,
        (two_j2 - two_j3 - two_m1) // 2,
        (two_j1 - two_j3 + two_m2) // 2,
    )
    t_max = min(
        (two_j1 + two_j2 - two_j3) // 2,
        (two_j1 - two_m1) // 2,
        (two_j2 + two_m2) // 2,
    )
    total, total_den = _racah_sum(
        t_min, t_max,
        (0, (two_j3 - two_j2 + two_m1) // 2, (two_j3 - two_j1 - two_m2) // 2),
        ((two_j1 + two_j2 - two_j3) // 2, (two_j1 - two_m1) // 2,
         (two_j2 + two_m2) // 2))
    if total == 0:
        return 0.0

    phase_odd = ((two_j1 - two_j2 - two_m3) // 2) % 2 == 1
    negative = (total < 0) != phase_odd
    return _signed_sqrt(pre_num * total * total, pre_den * total_den * total_den,
                        negative)


@lru_cache(maxsize=None)
def _wigner_6j_doubled(two_j1, two_j2, two_j3, two_j4, two_j5, two_j6) -> float:
    triads = (
        (two_j1, two_j2, two_j3),
        (two_j1, two_j5, two_j6),
        (two_j4, two_j2, two_j6),
        (two_j4, two_j5, two_j3),
    )
    for triad in triads:
        if not _triangle_ok(*triad):
            return 0.0

    pre_num = pre_den = 1
    for triad in triads:
        num, den = _delta_squared(*triad)
        pre_num *= num
        pre_den *= den

    s1 = (two_j1 + two_j2 + two_j3) // 2
    s2 = (two_j1 + two_j5 + two_j6) // 2
    s3 = (two_j4 + two_j2 + two_j6) // 2
    s4 = (two_j4 + two_j5 + two_j3) // 2
    q1 = (two_j1 + two_j2 + two_j4 + two_j5) // 2
    q2 = (two_j2 + two_j3 + two_j5 + two_j6) // 2
    q3 = (two_j3 + two_j1 + two_j6 + two_j4) // 2

    total, total_den = _racah_sum(max(s1, s2, s3, s4), min(q1, q2, q3),
                                  (-s1, -s2, -s3, -s4), (q1, q2, q3),
                                  weight=lambda t: _fact(t + 1))
    if total == 0:
        return 0.0
    return _signed_sqrt(pre_num * total * total, pre_den * total_den * total_den,
                        total < 0)


def wigner_3j(j1, j2, j3, m1, m2, m3) -> float:
    """Wigner 3j symbol.

    Arguments may be ints, floats that are multiples of 1/2, or HalfInt.
    Violated triangle rules or m1+m2+m3 != 0 give an exact 0.0; malformed
    half-integers (|m| > j, inconsistent parities) raise ValueError.
    """
    two_j = [_twice(j) for j in (j1, j2, j3)]
    two_m = [_twice(m) for m in (m1, m2, m3)]
    for tj, tm, label in zip(two_j, two_m, ("(j1,m1)", "(j2,m2)", "(j3,m3)")):
        _validate_jm(tj, tm, label)
    return _wigner_3j_doubled(*two_j, *two_m)


def wigner_6j(j1, j2, j3, j4, j5, j6) -> float:
    """Wigner 6j symbol {j1 j2 j3; j4 j5 j6}.

    Any violated triad gives an exact 0.0; negative arguments raise ValueError.
    """
    two_j = [_twice(j) for j in (j1, j2, j3, j4, j5, j6)]
    for tj in two_j:
        if tj < 0:
            raise ValueError(f"angular momenta must be >= 0, got {tj / 2}")
    return _wigner_6j_doubled(*two_j)


# ---------------------------------------------------------------------------
# Honl-London factors for a 2Pi (intermediate case a/b) <- 2Sigma (case b) band
# ---------------------------------------------------------------------------

_DELTA_J = {"P": -1, "Q": 0, "R": 1}


@dataclass(frozen=True)
class PiCoupling:
    """Spin-orbit / rotation constants of the upper doublet-Pi state.

    ``spin_orbit_a`` and ``rotational_b`` are in cm^-1 (only their ratio
    A/B enters the line-strength factors).  A < 0 describes an inverted
    state whose F1 component correlates with Omega = 3/2.
    """

    spin_orbit_a: float
    rotational_b: float


def parse_branch(branch: str) -> tuple[int, int, int]:
    """Split a branch label into (delta_j, upper component i, lower component j).

    Main branches 'P1'..'R2' have i == j; satellites carry both indices,
    e.g. 'Q12' is the Q line from the F2 lower level to the F1 upper level.
    """
    branch = branch.strip()
    if not branch or branch[0].upper() not in _DELTA_J:
        raise ValueError(f"unknown branch label {branch!r}")
    delta_j = _DELTA_J[branch[0].upper()]
    sub = branch[1:]
    if sub in ("1", "2"):
        i = j = int(sub)
    elif sub in ("12", "21"):
        i, j = int(sub[0]), int(sub[1])
    else:
        raise ValueError(f"unknown branch label {branch!r}")
    return delta_j, i, j


def pi_mixing_weights(j_upper, coupling: PiCoupling) -> dict[int, tuple[float, float]]:
    """Case-(a) basis weights (w_half, w_threehalf) of the F1/F2 levels at J'.

    The two spin components are the eigenvectors of the 2x2 spin-orbit +
    rotation matrix in the |Omega| = 1/2, 3/2 basis; F1 is the lower
    eigenvalue (it correlates with J' = N' + 1/2 in the case-(b) limit).
    J' = 1/2 supports only the F2 (pure Omega = 1/2) level.
    """
    two_j = _twice(j_upper)
    if two_j < 1 or two_j % 2 == 0:
        raise ValueError(f"J' must be a positive half-odd integer, got {two_j / 2}")
    if two_j == 1:
        return {2: (1.0, 0.0)}
    x = (two_j + 1) / 2.0  # J' + 1/2
    b = coupling.rotational_b
    # 2x2 matrix in the (Omega=1/2, 3/2) basis: diagonal (-A/2 + Bx^2,
    # +A/2 + B(x^2-2)), off-diagonal +B*sqrt(x^2-1).  The off-diagonal sign
    # is fixed by the 3j phase convention of the case-(b) transformation so
    # that the A = 0 eigenvectors land exactly on the |N' J'> states.
    off = b * math.sqrt(x * x - 1.0)
    delta = b - coupling.spin_orbit_a / 2.0      # (H11 - H22)/2
    r = math.hypot(delta, off)
    w1 = (off, -(delta + r))                     # eigenvector of the lower level
    n1 = math.hypot(*w1)
    w1 = (w1[0] / n1, w1[1] / n1)
    w2 = (-w1[1], w1[0])                         # orthogonal partner, upper level
    return {1: w1, 2: w2}


def _sigma_case_b_weights(n_lower: int, j_comp: int) -> tuple[float, float]:
    """Case-(a) spin weights (G(-1/2), G(+1/2)) of a 2Sigma case-(b) level.

    Normalized case-(b) -> case-(a) transformation coefficients
    sqrt(2N+1) * 3j(1/2 N J; Sigma 0 -Sigma), up to a Sigma-independent phase.
    """
    two_j = 2 * n_lower + 1 if j_comp == 1 else 2 * n_lower - 1
    scale = math.sqrt(2.0 * n_lower + 1.0)
    return (
        scale * _wigner_3j_doubled(1, 2 * n_lower, two_j, -1, 0, 1),
        scale * _wigner_3j_doubled(1, 2 * n_lower, two_j, 1, 0, -1),
    )


def honl_london(branch: str, j_lower, coupling: PiCoupling) -> float:
    """Rotational line-strength factor of one branch of the 2Pi <- 2Sigma band.

    Normalization: the sum over all allowed branches from a fixed lower level
    (N'', J'') equals 2J'' + 1.

    Parameters
    ----------
    branch : str
        One of P/Q/R with spin sub-branch, e.g. 'Q12'.
    j_lower : HalfInt-like
        J'' of the lower level; the lower component (and hence N'') follows
        from the branch label.
    coupling : PiCoupling
        Intermediate-coupling constants of the upper state.

    Raises
    ------
    ValueError
        If the branch is not reachable from ``j_lower`` (J' < 1/2, N'' < j
        requirement, or the nonexistent F1 level at J' = 1/2).
    """
    delta_j, i_up, j_low = parse_branch(branch)
    two_j2 = _twice(j_lower)
    if two_j2 < 1 or two_j2 % 2 == 0:
        raise ValueError(f"J'' must be a positive half-odd integer, got {two_j2 / 2}")
    n_lower = (two_j2 - 1) // 2 if j_low == 1 else (two_j2 + 1) // 2
    if j_low == 2 and n_lower < 1:
        raise ValueError(f"branch {branch} needs N'' >= 1, got J'' = {two_j2 / 2}")
    two_j1 = two_j2 + 2 * delta_j
    if two_j1 < 1:
        raise ValueError(f"branch {branch} from J'' = {two_j2 / 2} has no upper level")
    weights = pi_mixing_weights(HalfInt(two_j1), coupling)
    if i_up not in weights:
        raise ValueError(
            f"branch {branch} from J'' = {two_j2 / 2} targets the nonexistent "
            f"F{i_up} level at J' = {two_j1 / 2}"
        )
    w_half, w_threehalf = weights[i_up]
    g_minus, g_plus = _sigma_case_b_weights(n_lower, j_low)

    # Body-frame amplitude for q = +1 (Lambda' = +1), coherent over the two
    # spin projections Sigma = -1/2 (Omega' = 1/2) and +1/2 (Omega' = 3/2);
    # (-1)^(J' - Omega') carries the relative sign between the two terms.
    amp = 0.0
    for two_sigma, w, g in ((-1, w_half, g_minus), (1, w_threehalf, g_plus)):
        two_omega_up = two_sigma + 2
        phase = -1.0 if ((two_j1 - two_omega_up) // 2) % 2 else 1.0
        amp += w * g * phase * _wigner_3j_doubled(
            two_j1, 2, two_j2, -two_omega_up, 2, two_sigma
        )
    return (two_j1 + 1.0) * (two_j2 + 1.0) * amp * amp
