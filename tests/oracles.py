"""Independent oracle implementations used to freeze expected test values.

Everything here is deliberately written by a different route than the
production code: plain-float Racah alternating sums for the Wigner symbols,
the same sums in ``Fraction`` arithmetic as an exact reference, a numeric
eigenvector construction for the intermediate-coupling line strengths, and
textbook closed forms for two-level polarizabilities and driven oscillators.
"""

import math
from fractions import Fraction

import numpy as np

_FACT = [math.factorial(n) for n in range(200)]


def _triangle(two_a, two_b, two_c):
    return abs(two_a - two_b) <= two_c <= two_a + two_b \
        and (two_a + two_b + two_c) % 2 == 0


def _delta(two_a, two_b, two_c):
    return math.sqrt(
        _FACT[(two_a + two_b - two_c) // 2]
        * _FACT[(two_a - two_b + two_c) // 2]
        * _FACT[(-two_a + two_b + two_c) // 2]
        / _FACT[(two_a + two_b + two_c) // 2 + 1]
    )


def racah_3j(j1, j2, j3, m1, m2, m3):
    """Brute-force Racah alternating sum, float arithmetic throughout."""
    two = [int(round(2 * x)) for x in (j1, j2, j3, m1, m2, m3)]
    two_j1, two_j2, two_j3, two_m1, two_m2, two_m3 = two
    if two_m1 + two_m2 + two_m3 != 0 or not _triangle(two_j1, two_j2, two_j3):
        return 0.0
    for tj, tm in ((two_j1, two_m1), (two_j2, two_m2), (two_j3, two_m3)):
        if abs(tm) > tj or (tj - tm) % 2:
            return 0.0
    t_min = max(0, (two_j2 - two_j3 - two_m1) // 2, (two_j1 - two_j3 + two_m2) // 2)
    t_max = min((two_j1 + two_j2 - two_j3) // 2, (two_j1 - two_m1) // 2,
                (two_j2 + two_m2) // 2)
    total = 0.0
    for t in range(t_min, t_max + 1):
        total += (-1.0) ** t / (
            _FACT[t]
            * _FACT[(two_j3 - two_j2 + two_m1) // 2 + t]
            * _FACT[(two_j3 - two_j1 - two_m2) // 2 + t]
            * _FACT[(two_j1 + two_j2 - two_j3) // 2 - t]
            * _FACT[(two_j1 - two_m1) // 2 - t]
            * _FACT[(two_j2 + two_m2) // 2 - t]
        )
    prefactor = _delta(two_j1, two_j2, two_j3) * math.sqrt(
        _FACT[(two_j1 + two_m1) // 2] * _FACT[(two_j1 - two_m1) // 2]
        * _FACT[(two_j2 + two_m2) // 2] * _FACT[(two_j2 - two_m2) // 2]
        * _FACT[(two_j3 + two_m3) // 2] * _FACT[(two_j3 - two_m3) // 2]
    )
    phase = -1.0 if ((two_j1 - two_j2 - two_m3) // 2) % 2 else 1.0
    return phase * prefactor * total


def racah_6j(j1, j2, j3, j4, j5, j6):
    """Brute-force Racah alternating sum for the 6j symbol."""
    two = [int(round(2 * x)) for x in (j1, j2, j3, j4, j5, j6)]
    two_j1, two_j2, two_j3, two_j4, two_j5, two_j6 = two
    triads = ((two_j1, two_j2, two_j3), (two_j1, two_j5, two_j6),
              (two_j4, two_j2, two_j6), (two_j4, two_j5, two_j3))
    for triad in triads:
        if not _triangle(*triad):
            return 0.0
    prefactor = 1.0
    for triad in triads:
        prefactor *= _delta(*triad)
    s1 = (two_j1 + two_j2 + two_j3) // 2
    s2 = (two_j1 + two_j5 + two_j6) // 2
    s3 = (two_j4 + two_j2 + two_j6) // 2
    s4 = (two_j4 + two_j5 + two_j3) // 2
    q1 = (two_j1 + two_j2 + two_j4 + two_j5) // 2
    q2 = (two_j2 + two_j3 + two_j5 + two_j6) // 2
    q3 = (two_j3 + two_j1 + two_j6 + two_j4) // 2
    total = 0.0
    for t in range(max(s1, s2, s3, s4), min(q1, q2, q3) + 1):
        total += (-1.0) ** t * _FACT[t + 1] / (
            _FACT[t - s1] * _FACT[t - s2] * _FACT[t - s3] * _FACT[t - s4]
            * _FACT[q1 - t] * _FACT[q2 - t] * _FACT[q3 - t]
        )
    return prefactor * total


def _exact_delta_squared(two_a, two_b, two_c):
    return Fraction(
        _FACT[(two_a + two_b - two_c) // 2]
        * _FACT[(two_a - two_b + two_c) // 2]
        * _FACT[(-two_a + two_b + two_c) // 2],
        _FACT[(two_a + two_b + two_c) // 2 + 1],
    )


def _exact_signed_sqrt(value_squared: Fraction, negative: bool) -> float:
    root = math.sqrt(value_squared)
    return -root if negative else root


def exact_3j_doubled(two_j1, two_j2, two_j3, two_m1, two_m2, two_m3):
    """Racah's 3j sum in ``Fraction`` arithmetic, from doubled arguments; the
    square of the symbol is exact and only its sqrt is rounded."""
    if two_m1 + two_m2 + two_m3 != 0 or not _triangle(two_j1, two_j2, two_j3):
        return 0.0
    for tj, tm in ((two_j1, two_m1), (two_j2, two_m2), (two_j3, two_m3)):
        if abs(tm) > tj or (tj - tm) % 2:
            return 0.0
    pre2 = _exact_delta_squared(two_j1, two_j2, two_j3) * Fraction(
        _FACT[(two_j1 + two_m1) // 2] * _FACT[(two_j1 - two_m1) // 2]
        * _FACT[(two_j2 + two_m2) // 2] * _FACT[(two_j2 - two_m2) // 2]
        * _FACT[(two_j3 + two_m3) // 2] * _FACT[(two_j3 - two_m3) // 2])
    t_min = max(0, (two_j2 - two_j3 - two_m1) // 2, (two_j1 - two_j3 + two_m2) // 2)
    t_max = min((two_j1 + two_j2 - two_j3) // 2, (two_j1 - two_m1) // 2,
                (two_j2 + two_m2) // 2)
    total = Fraction(0)
    for t in range(t_min, t_max + 1):
        total += Fraction((-1) ** t, (
            _FACT[t]
            * _FACT[(two_j3 - two_j2 + two_m1) // 2 + t]
            * _FACT[(two_j3 - two_j1 - two_m2) // 2 + t]
            * _FACT[(two_j1 + two_j2 - two_j3) // 2 - t]
            * _FACT[(two_j1 - two_m1) // 2 - t]
            * _FACT[(two_j2 + two_m2) // 2 - t]))
    if total == 0:
        return 0.0
    phase_odd = ((two_j1 - two_j2 - two_m3) // 2) % 2 == 1
    return _exact_signed_sqrt(pre2 * total * total, (total < 0) != phase_odd)


def exact_6j_doubled(two_j1, two_j2, two_j3, two_j4, two_j5, two_j6):
    """Racah's 6j sum in ``Fraction`` arithmetic, from doubled arguments."""
    triads = ((two_j1, two_j2, two_j3), (two_j1, two_j5, two_j6),
              (two_j4, two_j2, two_j6), (two_j4, two_j5, two_j3))
    if not all(_triangle(*triad) for triad in triads):
        return 0.0
    pre2 = Fraction(1)
    for triad in triads:
        pre2 *= _exact_delta_squared(*triad)
    s = [sum(triad) // 2 for triad in triads]
    q1 = (two_j1 + two_j2 + two_j4 + two_j5) // 2
    q2 = (two_j2 + two_j3 + two_j5 + two_j6) // 2
    q3 = (two_j3 + two_j1 + two_j6 + two_j4) // 2
    total = Fraction(0)
    for t in range(max(s), min(q1, q2, q3) + 1):
        total += Fraction((-1) ** t * _FACT[t + 1], (
            math.prod(_FACT[t - si] for si in s)
            * _FACT[q1 - t] * _FACT[q2 - t] * _FACT[q3 - t]))
    if total == 0:
        return 0.0
    return _exact_signed_sqrt(pre2 * total * total, total < 0)


def _safe_3j(*args):
    try:
        return racah_3j(*args)
    except (IndexError, ValueError):
        return 0.0


def honl_london_direct(branch: str, j_lower: float, spin_orbit_a: float,
                       rotational_b: float) -> float:
    """Direct term-by-term evaluation of the intermediate-coupling line
    strengths: numeric eigenvectors of the 2x2 spin-orbit/rotation matrix
    combined with case-(a) transition amplitudes.
    """
    letter = branch[0].upper()
    delta_j = {"P": -1.0, "Q": 0.0, "R": 1.0}[letter]
    sub = branch[1:]
    i_up = int(sub[0])
    j_low_comp = int(sub[-1])
    n_lower = int(round(j_lower - 0.5)) if j_low_comp == 1 else int(round(j_lower + 0.5))
    j_upper = j_lower + delta_j
    if j_upper < 0.5:
        raise ValueError("no upper level")

    x = j_upper + 0.5
    if abs(j_upper - 0.5) < 1e-9:
        if i_up == 1:
            raise ValueError("no F1 level at J' = 1/2")
        weights = {2: np.array([1.0, 0.0])}
    else:
        h = np.array([
            [-spin_orbit_a / 2.0 + rotational_b * x * x,
             rotational_b * math.sqrt(x * x - 1.0)],
            [rotational_b * math.sqrt(x * x - 1.0),
             spin_orbit_a / 2.0 + rotational_b * (x * x - 2.0)],
        ])
        eigvals, eigvecs = np.linalg.eigh(h)
        weights = {1: eigvecs[:, 0], 2: eigvecs[:, 1]}
        if i_up not in weights:
            raise ValueError("unreachable component")

    g = math.sqrt(2.0 * n_lower + 1.0)
    g_minus = g * _safe_3j(0.5, n_lower, j_lower, -0.5, 0.0, 0.5)
    g_plus = g * _safe_3j(0.5, n_lower, j_lower, 0.5, 0.0, -0.5)
    w = weights[i_up]
    amp = 0.0
    for sigma, w_comp, g_comp in ((-0.5, w[0], g_minus), (0.5, w[1], g_plus)):
        omega_up = sigma + 1.0
        phase = -1.0 if int(round(j_upper - omega_up)) % 2 else 1.0
        amp += w_comp * g_comp * phase * _safe_3j(
            j_upper, 1.0, j_lower, -omega_up, 1.0, sigma)
    return (2.0 * j_upper + 1.0) * (2.0 * j_lower + 1.0) * amp * amp


def two_level_polarizability_au(omega_rad_s: float, line_omega_rad_s: float,
                                strength_au: float) -> float:
    """Textbook two-level dynamic polarizability, alpha in au for |mu|^2 in au."""
    from odfprobe.quantities import AU_DIPOLE_SQUARED, AU_POLARIZABILITY, HBAR
    mu2_si = strength_au * AU_DIPOLE_SQUARED
    alpha_si = (2.0 / HBAR) * line_omega_rad_s * mu2_si \
        / (line_omega_rad_s**2 - omega_rad_s**2)
    return alpha_si / AU_POLARIZABILITY


def resonant_oscillator_amplitude(force_n: float, mass_kg: float,
                                  omega_rad_s: float, duration_s: float) -> float:
    """Linear growth F t / (2 m Omega) of a resonantly driven oscillator."""
    return force_n * duration_s / (2.0 * mass_kg * omega_rad_s)
