"""Independent oracle implementations used to freeze expected test values.

Everything here is deliberately written by a different route than the
production code: plain-float Racah alternating sums for the Wigner symbols,
the same sums in ``Fraction`` arithmetic as an exact reference, a numeric
eigenvector construction for the intermediate-coupling line strengths,
textbook closed forms for two-level polarizabilities and driven oscillators,
the laboratory-frame composition kernel for the ion motion, the
per-prediction candidate loop that the identification masks replaced, the
many-shift template-curve path that built the extraction's chi-square grid,
the per-call sine matrix of the sideband Rabi signal that one shared table
replaced, and the scipy routines the package transcribes: the bounded minimizer of the
extraction's search, and ``curve_fit`` and ``PchipInterpolator`` for the Rabi
fit and the frequency interpolant.  It also
holds the line model that generated the shipped line list (term energies,
branches and the N2+ band constants), which no command runs: the package
reads the list from its CSV.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from odfprobe.angular import HalfInt, PiCoupling, honl_london, parse_branch
from odfprobe.catalog import (LINE_COLUMNS, TransitionLine, band_dipole_squared_au,
                              write_table)
from odfprobe.identify import CandidateSet
from odfprobe.quantities import ATOMIC_MASS, COULOMB_PREFACTOR, PLANCK

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


# Composition coefficients of the 6th-order symplectic scheme (Yoshida 1990,
# Phys. Lett. A 150, 262, solution A): a symmetric product of seven position
# Verlet steps of sizes w_k dt.
_W3, _W2, _W1 = 0.784513610477560, 0.235573213359357, -1.17767998417887
_YOSHIDA6 = (_W3, _W2, _W1, 1.0 - 2.0 * (_W1 + _W2 + _W3), _W1, _W2, _W3)


def composition_kernel(config, samples: int, stride: int) -> np.ndarray:
    """The two-ion motion by the Yoshida-6 composition of position Verlet
    steps on the full force, in the laboratory frame: the fast harmonic
    oscillation is stepped through, not solved.  States at samples + 1
    equally spaced times, stride steps apart, with the drive time of each
    kick taken from the step index."""
    crystal, drive = config.crystal, config.drive
    dt = config.duration / (stride * samples)
    m1, m2 = crystal.m1_u * ATOMIC_MASS, crystal.m2_u * ATOMIC_MASS
    d, half_d, two_k = crystal.d, crystal.d / 2.0, 2.0 * drive.k
    u0, k_e = crystal.u0, COULOMB_PREFACTOR
    omega_d = 2.0 * math.pi * drive.beat_frequency_hz
    amp1 = 4.0 * drive.k * PLANCK * drive.shift1_hz
    amp2 = 4.0 * drive.k * PLANCK * drive.shift2_hz
    half_drift = 0.5 * _YOSHIDA6[0] * dt
    stages, elapsed = [], 0.0
    for w, w_next in zip(_YOSHIDA6, _YOSHIDA6[1:] + _YOSHIDA6[:1]):
        advance = omega_d * (elapsed + 0.5 * w) * dt
        stages.append((w * dt / m1, w * dt / m2, drive.phi1 - advance,
                       drive.phi2 - advance, 0.5 * (w + w_next) * dt))
        elapsed += w

    q1, q2, v1, v2 = map(float, config.initial_state)
    states = [(q1, q2, v1, v2)]
    for sample in range(samples):
        q1 += half_drift * v1
        q2 += half_drift * v2
        for step in range(sample * stride, (sample + 1) * stride):
            phase = omega_d * (step * dt)
            for kick1, kick2, p1, p2, drift in stages:
                coulomb = k_e / (d + q2 - q1) ** 2
                f1 = u0 * (half_d - q1) - coulomb
                f2 = coulomb - u0 * (q2 + half_d)
                if amp1:
                    f1 += amp1 * math.sin(two_k * q1 + (p1 - phase))
                if amp2:
                    f2 += amp2 * math.sin(two_k * q2 + (p2 - phase))
                v1 += kick1 * f1
                v2 += kick2 * f2
                q1 += drift * v1
                q2 += drift * v2
        q1 -= half_drift * v1
        q2 -= half_drift * v2
        states.append((q1, q2, v1, v2))
    return np.array(states)


# ---------------------------------------------------------------------------
# The line model behind the shipped line list
# ---------------------------------------------------------------------------
#
# The ground doublet-Sigma state follows Hund's case (b); the excited
# doublet-Pi state is treated in intermediate (a)/(b) coupling via the
# two-level (Hill-Van Vleck) construction, the same 2x2 matrix whose
# eigenvectors feed the line-strength factors in :mod:`odfprobe.angular`.
# All energies are in cm^-1 relative to the ground state's rotationless origin.


@dataclass(frozen=True)
class SigmaConstants:
    """Case-(b) constants of the lower doublet-Sigma vibronic level (cm^-1)."""

    b: float                 # rotational constant
    d: float = 0.0           # centrifugal distortion
    gamma: float = 0.0       # spin-rotation coupling


@dataclass(frozen=True)
class PiConstants:
    """Intermediate-coupling constants of the upper doublet-Pi vibronic level.

    ``origin`` is the spin-free band origin relative to the lower state's
    rotationless level (cm^-1); Lambda doubling is neglected.
    """

    origin: float
    b: float
    a: float                 # spin-orbit coupling; a < 0 for an inverted state
    d: float = 0.0

    @property
    def coupling(self) -> PiCoupling:
        return PiCoupling(spin_orbit_a=self.a, rotational_b=self.b)


def sigma_term_energy(n: int, j, constants: SigmaConstants) -> float:
    """Term value of the (N, J = N +- 1/2) level of the Sigma state.

    B N(N+1) - D N^2(N+1)^2 + gamma N/2 for J = N + 1/2,
    and -gamma (N+1)/2 for J = N - 1/2.
    """
    if n < 0:
        raise ValueError(f"N must be >= 0, got {n}")
    two_j = HalfInt.of(j).twice
    if two_j not in (2 * n - 1, 2 * n + 1) or two_j < 1:
        raise ValueError(f"J = {two_j / 2} is not N +- 1/2 for N = {n}")
    x = n * (n + 1)
    energy = constants.b * x - constants.d * x * x
    if two_j == 2 * n + 1:
        energy += constants.gamma * n / 2.0
    else:
        energy -= constants.gamma * (n + 1) / 2.0
    return energy


def pi_term_energy(j_upper, component: int, constants: PiConstants) -> float:
    """Term value of the (J', F1|F2) level of the Pi state.

    The two eigenvalues of the spin-orbit/rotation 2x2 matrix; F1 is the
    lower one (it correlates with J' = N' + 1/2 as the coupling vanishes).
    Centrifugal distortion is applied on the case-(b)-limit N'(N'+1) value of
    each component, which keeps both eigenvalues continuous in J'.
    """
    two_j = HalfInt.of(j_upper).twice
    if two_j < 1 or two_j % 2 == 0:
        raise ValueError(f"J' must be a positive half-odd integer, got {two_j / 2}")
    if component not in (1, 2):
        raise ValueError(f"component must be 1 or 2, got {component}")
    if two_j == 1 and component == 1:
        raise ValueError("the F1 component does not exist at J' = 1/2")
    x = (two_j + 1) / 2.0  # J' + 1/2
    y = constants.a / constants.b
    root = 0.5 * math.sqrt(4.0 * x * x + y * (y - 4.0))
    if component == 1:
        energy = constants.origin + constants.b * (x * x - 1.0 - root)
        z = (x - 1.0) * x          # N'(N'+1) with N' = J' - 1/2
    else:
        energy = constants.origin + constants.b * (x * x - 1.0 + root)
        z = x * (x + 1.0)          # N' = J' + 1/2
    return energy - constants.d * z * z


def allowed_branches(n_lower: int, j_comp: int) -> list[str]:
    """Branch labels reachable from the lower level (N'', F_jcomp)."""
    two_j2 = 2 * n_lower + 1 if j_comp == 1 else 2 * n_lower - 1
    if two_j2 < 1:
        return []
    labels = []
    for letter, dj in (("P", -1), ("Q", 0), ("R", 1)):
        two_j1 = two_j2 + 2 * dj
        if two_j1 < 1:
            continue
        for i_up in (1, 2):
            if two_j1 == 1 and i_up == 1:
                continue  # no F1 level at J' = 1/2
            sub = str(i_up) if i_up == j_comp else f"{i_up}{j_comp}"
            labels.append(f"{letter}{sub}")
    return labels


@dataclass(frozen=True)
class BandConstants:
    """Spectroscopic constants defining the resolved band of the catalog."""

    band: str
    sigma: SigmaConstants
    pi: PiConstants
    einstein_a: float


def generate_lines(constants: BandConstants, n_max: int) -> list[TransitionLine]:
    """All P/Q/R (+ spin sub-branch) lines from even N'' <= n_max."""
    if n_max < 0 or n_max % 2 != 0:
        raise ValueError(f"N_max must be even and >= 0, got {n_max}")
    mu2_cache: dict[float, float] = {}
    lines = []
    for n2 in range(0, n_max + 1, 2):
        for j_comp in (1, 2):
            two_j2 = 2 * n2 + 1 if j_comp == 1 else 2 * n2 - 1
            if two_j2 < 1:
                continue
            j_lower = HalfInt(two_j2)
            lower = sigma_term_energy(n2, j_lower, constants.sigma)
            for branch in allowed_branches(n2, j_comp):
                delta_j, i_up, _ = parse_branch(branch)
                j_upper = HalfInt(two_j2 + 2 * delta_j)
                nu = pi_term_energy(j_upper, i_up, constants.pi) - lower
                wavelength = 1e7 / nu
                if wavelength not in mu2_cache:
                    mu2_cache[wavelength] = band_dipole_squared_au(
                        constants.einstein_a, wavelength)
                hl = honl_london(branch, j_lower, constants.pi.coupling)
                lines.append(TransitionLine(
                    band=constants.band,
                    branch=branch,
                    n_lower=n2,
                    j_lower=j_lower,
                    j_upper=j_upper,
                    wavelength_nm=wavelength,
                    strength_au=mu2_cache[wavelength] * hl,
                    einstein_a=constants.einstein_a,
                ))
    return lines


def write_line_catalog(lines, path, metadata: dict | None = None) -> None:
    """Write lines to CSV, after one ``# key = value`` metadata comment per item."""
    write_table(path, LINE_COLUMNS, (
        [line.band, line.branch, line.n_lower,
         line.j_lower.twice, line.j_upper.twice,
         f"{line.wavelength_nm:.6f}",
         "" if line.einstein_a is None else f"{line.einstein_a:.6g}",
         "" if line.einstein_a is not None else f"{line.strength_au:.8e}"]
        for line in sorted(lines, key=lambda l: l.wavelength_nm)
    ))
    comments = "".join(f"# {key} = {value}\n" for key, value in (metadata or {}).items())
    path = Path(path)
    path.write_bytes(comments.encode("utf-8") + path.read_bytes())


# Constants behind the shipped line list (cm^-1); the band origin is an
# effective value adjusted to reproduce the measured anchor-line positions.
N2PLUS_SIGMA = SigmaConstants(b=1.922355, d=6.1e-6, gamma=9.18e-3)
N2PLUS_PI = PiConstants(origin=12732.8342, b=1.697425, a=-74.62, d=5.9e-6)
N2PLUS_BAND = BandConstants(
    band="A(v'=2)-X(v''=0)",
    sigma=N2PLUS_SIGMA,
    pi=N2PLUS_PI,
    einstein_a=1.14e4,
)


# ---------------------------------------------------------------------------
# Candidate matching, one prediction object at a time
# ---------------------------------------------------------------------------

def match_candidates_loop(measurement, predictions, k=1.0) -> CandidateSet:
    """Reference for ``identify.match_candidates``: each ``ShiftPrediction`` is
    tested in turn (flagged, then sign, then |predicted| within k sigma)."""
    predictions = list(predictions)
    if not predictions:
        raise ValueError("empty prediction table")
    candidates, flagged = [], []
    for pred in predictions:
        if pred.shift_hz is None:
            flagged.append(pred)
            continue
        if not measurement.sign_matches(pred.shift_hz):
            continue
        if abs(abs(pred.shift_hz) - measurement.shift_hz) <= k * measurement.sigma_hz:
            candidates.append(pred)
    return CandidateSet(
        k=k,
        candidates=tuple(candidates),
        flagged=tuple(flagged),
        total_states=len(predictions),
    )


def _prediction_entry(pred) -> dict:
    state = pred.state
    return {
        "N": state.n,
        "J": str(state.j),
        "I": state.i_nuc,
        "F": None if state.f is None else str(state.f),
        "m": str(state.m),
        "predicted_shift_hz": pred.shift_hz,
    }


def identification_report_loop(measurement, predictions, ks=(1.0, 2.0)) -> dict:
    """Reference for ``identify.identification_report``: one
    :func:`match_candidates_loop` per k, each candidate's fields formatted
    from its state."""
    tiers = {}
    sets = {}
    for k in ks:
        candidate_set = match_candidates_loop(measurement, predictions, k=k)
        sets[k] = candidate_set
        tiers[f"k={k:g}"] = {
            "candidates": [_prediction_entry(p) for p in candidate_set.candidates],
            "candidate_count": len(candidate_set.candidates),
            "excluded_count": candidate_set.excluded_states,
            "exclusion_fraction": candidate_set.exclusion_fraction,
        }
    return {
        "measurement": {
            "wavelength_nm": measurement.wavelength_nm,
            "intensity_w_m2": measurement.intensity_w_m2,
            "shift_hz": measurement.shift_hz,
            "sigma_hz": measurement.sigma_hz,
            "sign": measurement.sign,
            "f_ip_hz": measurement.f_ip_hz,
        },
        "total_states": sets[ks[0]].total_states,
        "flagged_states": len(sets[ks[0]].flagged),
        "tiers": tiers,
    }


# ---------------------------------------------------------------------------
# scipy routines the package transcribes
# ---------------------------------------------------------------------------

def scipy_bounded_minimum(func, a, b, xatol):
    """Reference for ``readout._bounded_minimum``: scipy's bounded Brent search,
    ``minimize_scalar(method="bounded")``, as the extraction called it before;
    its result carries ``x``, ``fun`` and ``nfev``."""
    from scipy.optimize import minimize_scalar
    return minimize_scalar(func, bounds=(a, b), method="bounded", options={"xatol": xatol})


def scipy_curve_fit(*args, **kwargs):
    """Reference for ``fitting.curve_fit``: scipy's, which ``fit_rabi`` called
    before; it returns (popt, pcov), and ``fitting.curve_fit`` popt alone
    (``max_nfev`` passes through to ``least_squares``)."""
    from scipy.optimize import curve_fit
    return curve_fit(*args, **kwargs)


def scipy_pchip(x, y):
    """Reference for ``fitting.pchip_coefficients`` (its ``c``) and for the
    values and edge slopes ``readout`` sums from them: scipy's interpolant,
    as the calibration built it before."""
    from scipy.interpolate import PchipInterpolator
    return PchipInterpolator(x, y, extrapolate=False)


# ---------------------------------------------------------------------------
# Template curves, many shifts at once
# ---------------------------------------------------------------------------

def template_curves(cal, shifts_hz) -> np.ndarray:
    """Reference for ``CalibrationSet.interpolate``: template curves at many
    shifts, one row per shift, on arrays throughout, as the calibration built
    its chi-square grid before each row went through ``interpolate``.  The
    frequency PCHIP is built afresh on every call."""
    from scipy.interpolate import PchipInterpolator
    pipeline = cal.pipeline
    zero_frequency = pipeline.carrier_rabi_hz * pipeline.eta
    s = np.concatenate(([0.0], cal.shifts_hz))
    f = np.concatenate(([zero_frequency], cal.template_frequencies_hz))
    curves = np.vstack([pipeline.signal(0.0).p] + [tpl.p for tpl in cal.templates])
    pchip = PchipInterpolator(s, f, extrapolate=False)
    edges = s[[0, -1]]
    t = pipeline.probe_times_s
    flat = np.zeros((len(curves), 1))
    slope = np.hstack([flat, np.diff(curves, axis=1) / np.diff(t), flat])
    base = np.hstack([curves[:, :1], curves])
    knot = np.concatenate([t[:1], t])
    f_edge, df_edge = pchip(edges), pchip.derivative()(edges)
    f_floor = 0.02 * f[f > 0.0].min()
    x = np.asarray(shifts_hz, dtype=float)
    f_target = pchip(np.clip(x, s[0], s[-1]))
    outside = (x < s[0]) | (x > s[-1])
    if outside.any():
        side = (x > s[-1]).astype(int)
        linear = f_edge[side] + df_edge[side] * (x - edges[side])
        f_target = np.where(outside, np.maximum(linear, f_floor), f_target)
    hi = np.clip(np.searchsorted(s, x), 1, len(s) - 1)
    aligned = []
    for k in (hi - 1, hi):
        # curve k[i] sampled at times t * f_target[i] / f[k[i]]
        times = t * f_target[:, None] / f[k][:, None]
        m = np.searchsorted(t, times, side="right")
        piece = m + (k * slope.shape[1])[:, None]
        aligned.append(slope.take(piece) * (times - knot[m]) + base.take(piece))
    w = ((x - s[hi - 1]) / (s[hi] - s[hi - 1]))[:, None]
    return np.clip((1.0 - w) * aligned[0] + w * aligned[1], 0.0, 1.0)


# ---------------------------------------------------------------------------
# Sideband Rabi signal, one call at a time
# ---------------------------------------------------------------------------

def bsb_signal(dist, eta, omega0, times_s, decoherence_tau_s=math.inf):
    """Reference for ``readout.synthesize_bsb_signal``'s noiseless curve: the
    sine matrix built afresh for this call's times and Fock levels, as the
    synthesis built it before each (times, eta, omega0) shared one table."""
    from odfprobe.readout import sideband_rabi_frequencies
    t = np.asarray(times_s, dtype=float)
    rates = sideband_rabi_frequencies(len(dist.p_n), eta, omega0)
    p = np.sin(0.5 * np.outer(t, rates)) ** 2 @ dist.p_n
    if not math.isinf(decoherence_tau_s):
        damping = np.exp(-t / decoherence_tau_s)
        p = p * damping + 0.5 * (1.0 - damping)
    return np.clip(p, 0.0, 1.0)
