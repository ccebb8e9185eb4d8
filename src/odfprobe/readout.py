"""Blue-sideband Rabi thermometry: signal synthesis, fitting, the calibrated
shift-extraction templates, and the iterative partner-molecule correction.

The readout chain maps an effective in-phase-mode shift to a motional
coherent state (resonant drive on a ground-state-cooled mode), synthesizes
the sideband Rabi signal probed on the atomic ion, and extracts unknown
shifts by a one-parameter least-squares fit against a family of calibrated
template signals interpolated continuously in the shift.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache

import numpy as np

from .crystal import TwoIonCrystal
from .quantities import ATOMIC_MASS, HBAR, PLANCK


class FitError(RuntimeError):
    pass


class ConvergenceError(RuntimeError):
    pass


class FockCutoffError(ValueError):
    """A mode shift whose coherent state reaches past ``MAX_FOCK``."""


# Building calibration templates fits nothing: the fits and the interpolant
# import ``fitting`` on use, so a process that only synthesizes never compiles it.
def PchipInterpolator(x, y):
    """``fitting.pchip_coefficients``, imported on the first call: scipy's
    ``PchipInterpolator(x, y).c``, the cubic's coefficients per interval,
    highest power first, which ``_pchip`` sums."""
    from .fitting import pchip_coefficients
    return pchip_coefficients(x, y)


def _pchip(s, coefficients, x):
    """The PCHIP on nodes ``s`` (a list) with per-interval ``coefficients``
    (lists, highest power first) at x in [s[0], s[-1]], summed on floats as
    scipy's ``evaluate_poly1`` sums it.  The intervals are PPoly's: half-open
    [s[i], s[i + 1]), the last one closed."""
    i = len(s) - 2 if x == s[-1] else bisect_right(s, x) - 1
    c0, c1, c2, c3 = coefficients[i]
    d = x - s[i]
    return c3 + c2 * d + c1 * (d * d) + c0 * (d * d * d)


def _pchip_edges(s, coefficients):
    """([value, value], [slope, slope]) of the PCHIP at s[0] and s[-1]; the
    slopes are its derivative's PPoly, (3 c0, 2 c1, c2), summed as scipy sums it."""
    c0, c1, c2, _ = coefficients[-1]
    d = s[-1] - s[-2]
    return ([_pchip(s, coefficients, s[0]), _pchip(s, coefficients, s[-1])],
            [coefficients[0][2], c2 + (2.0 * c1) * d + (3.0 * c0) * (d * d)])


# ---------------------------------------------------------------------------
# Motional distributions
# ---------------------------------------------------------------------------

# The integer branch of cephes ``lgam`` (Moshier 1989, *Methods and Programs
# for Mathematical Functions*), the routine behind ``scipy.special.gammaln``:
# its Stirling-series coefficients and log(sqrt(2 pi)).
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
           7.93650340457716943945e-4, -2.77777777730099687205e-3,
           8.33333333333331927722e-2)
_LS2PI = 0.91893853320467274178


def _lgam_integer(x: float) -> float:
    """log Gamma(x) at a positive integer x, operation for operation as
    cephes computes it, so bit-equal to ``gammaln(x)``.  ``math.log``, not
    ``np.log``: numpy's SIMD log differs from the C library's in the last
    bit for a few arguments."""
    if x < 13.0:
        return math.log(math.factorial(int(x) - 1))
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    a0, a1, a2, a3, a4 = _LGAM_A
    return q + ((((a0 * p + a1) * p + a2) * p + a3) * p + a4) / x


# The pipeline's Fock cutoff; a coherent state reaching past it is refused
# with FockCutoffError ("populations must sum to 1 ...").
MAX_FOCK = 1600


@lru_cache(maxsize=1)
def _log_factorials() -> np.ndarray:
    """log n! for n = 0..MAX_FOCK, one read-only table per process."""
    table = np.array([_lgam_integer(n + 1.0) for n in range(MAX_FOCK + 1)])
    table.flags.writeable = False
    return table


def _coherent_cut(n_mean: float) -> int:
    # the mean, ten standard deviations and 25 levels more
    return int(n_mean + 10.0 * math.sqrt(n_mean + 1.0) + 25.0)


@dataclass(frozen=True)
class MotionalDistribution:
    """Population over Fock levels n = 0..n_cut."""

    p_n: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p_n, dtype=float)
        if np.any(p < 0.0):
            raise ValueError("Fock populations must be >= 0")
        total = float(p.sum())
        if not 1.0 - 1e-6 <= total <= 1.0 + 1e-9:
            raise ValueError(f"populations must sum to 1 within 1e-6, got {total}")
        object.__setattr__(self, "p_n", p)

    @classmethod
    def coherent(cls, n_mean: float) -> "MotionalDistribution":
        """Poissonian distribution of a coherent state with mean phonon number,
        truncated at ``MAX_FOCK``; one reaching past it fails the sum check."""
        if n_mean < 0.0:
            raise ValueError("mean phonon number must be >= 0")
        n_cut = min(MAX_FOCK, _coherent_cut(n_mean))
        if n_mean == 0.0:
            p = np.zeros(n_cut + 1)
            p[0] = 1.0
        else:
            n = np.arange(n_cut + 1)
            log_p = -n_mean + n * math.log(n_mean) - _log_factorials()[:n_cut + 1]
            p = np.exp(log_p)
        return cls(p)


@dataclass(frozen=True)
class RabiSignal:
    """Excitation probabilities sampled over the sideband-pulse duration."""

    times_s: np.ndarray
    p: np.ndarray
    shots: int | None = None     # None marks a noiseless analytic curve

    def __post_init__(self):
        t = np.asarray(self.times_s, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if t.shape != p.shape:
            raise ValueError("times and probabilities must have equal shapes")
        if not (np.isfinite(t).all() and np.isfinite(p).all()):
            raise ValueError("times and probabilities must be finite")
        if np.any((p < 0.0) | (p > 1.0)):
            raise ValueError("probabilities must lie in [0, 1]")
        object.__setattr__(self, "times_s", t)
        object.__setattr__(self, "p", p)

    def export_rows(self):
        shots = "" if self.shots is None else self.shots
        return [(f"{t:.9e}", f"{p:.9f}", shots) for t, p in zip(self.times_s, self.p)]


def sideband_rabi_frequencies(n_levels: int, eta: float, omega0: float) -> np.ndarray:
    """Blue-sideband flopping rates Omega_{n,n+1} = Omega0 eta sqrt(n+1) for
    n = 0..n_levels-1, in the first-order Lamb-Dicke form."""
    if not 0.0 < eta <= 0.5:
        raise ValueError(f"Lamb-Dicke parameter must be in (0, 0.5], got {eta}")
    if omega0 <= 0.0:
        raise ValueError("carrier Rabi frequency must be > 0")
    n = np.arange(n_levels)
    return omega0 * eta * np.sqrt(n + 1.0)


_RABI_SINES: dict = {}


def _rabi_sines(times: np.ndarray, eta: float, omega0: float, n_levels: int) -> np.ndarray:
    """sin^2(Omega_{n,n+1} t / 2) over the flattened times (rows) and at least
    n = 0..n_levels-1 (columns): one read-only table per (times, eta, omega0),
    at most eight tables per process, each rebuilt at exactly the width a
    call needs when it is too narrow.  Each element is computed as
    ``np.sin(0.5 * np.outer(times, rates)) ** 2`` computes it."""
    key = (times.tobytes(), eta, omega0)
    table = _RABI_SINES.get(key)    # read once, so a concurrent regrow is harmless
    if table is None or table.shape[1] < n_levels:
        # a key is only stored once these rates passed their validation
        rates = sideband_rabi_frequencies(n_levels, eta, omega0)
        table = np.multiply.outer(times.ravel(), rates)
        table *= 0.5
        np.sin(table, out=table)
        np.square(table, out=table)
        table.flags.writeable = False
        if key not in _RABI_SINES and len(_RABI_SINES) >= 8:
            _RABI_SINES.pop(next(iter(_RABI_SINES)), None)
        _RABI_SINES[key] = table
    return table


def synthesize_bsb_signal(dist: MotionalDistribution, eta: float, omega0: float,
                          times_s, decoherence_tau_s: float = math.inf,
                          shots: int | None = None, seed: int | None = None) -> RabiSignal:
    """Blue-sideband Rabi signal of a motional distribution.

    P(t) = sum_n p_n sin^2(Omega_{n,n+1} t / 2) e^(-t/tau) + (1 - e^(-t/tau))/2.
    With ``shots`` set, each point is resampled binomially (fixed ``seed``
    for reproducibility); otherwise the analytic curve is returned.
    """
    times = np.asarray(times_s, dtype=float)
    n_levels = len(dist.p_n)
    coherent_part = _rabi_sines(times, eta, omega0, n_levels)[:, :n_levels] @ dist.p_n
    if math.isinf(decoherence_tau_s):
        p = coherent_part
    else:
        damping = np.exp(-times / decoherence_tau_s)
        p = coherent_part * damping + 0.5 * (1.0 - damping)
    p = np.clip(p, 0.0, 1.0)
    if shots is None:
        return RabiSignal(times, p, shots=None)
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    counts = rng.binomial(shots, p)
    return RabiSignal(times, counts / shots, shots=shots)


# ---------------------------------------------------------------------------
# Phenomenological fit
# ---------------------------------------------------------------------------

def _rabi_model(t, y0, f, c, tau):
    return y0 + 0.5 * c * (1.0 - np.cos(2.0 * math.pi * f * t)) * np.exp(-t / tau)


def fit_rabi(signal: RabiSignal) -> float:
    """The flopping frequency f (Hz) of the least-squares fit of the
    damped-cosine form P(t) = y0 + (C/2)(1 - cos(2 pi f t)) e^(-t/tau), each
    point weighted by its shot noise when the signal has shots."""
    t, p = signal.times_s, signal.p
    if len(t) < 10:
        raise ValueError(f"need >= 10 points, got {len(t)}")
    span = t[-1] - t[0]
    if span <= 0.0:
        raise ValueError("times must span a positive interval")
    # FFT-based frequency seed over the sampled band
    detrended = p - p.mean()
    spectrum = np.abs(np.fft.rfft(detrended))
    freqs = np.fft.rfftfreq(len(t), d=span / (len(t) - 1))
    f0 = freqs[np.argmax(spectrum[1:]) + 1]
    f0 = max(f0, 0.25 / span)
    p0 = (float(p.min()), float(f0), float(np.clip(p.max() - p.min(), 0.05, 1.0)),
          span * 2.0)
    sigma = None
    if signal.shots is not None:
        sigma = np.sqrt(np.maximum(p * (1.0 - p), 0.25 / signal.shots) / signal.shots)
    from .fitting import curve_fit
    try:
        popt = curve_fit(
            _rabi_model, t, p, p0=p0, sigma=sigma,
            bounds=([-0.25, 0.0, 0.0, span / 100.0],
                    [1.0, 0.75 * (len(t) - 1) / span, 1.5, np.inf]),
            max_nfev=20000,
        )
    except RuntimeError as exc:
        residual = float(np.sqrt(np.mean((p - _rabi_model(t, *p0)) ** 2)))
        raise FitError(
            f"damped-cosine fit did not converge (seed rms residual {residual:.3g})"
        ) from exc
    return popt[1]


# ---------------------------------------------------------------------------
# Calibration templates and shift extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReadoutPipeline:
    """Everything mapping an in-phase-mode shift magnitude to a Rabi signal.

    Pipelines compare and hash by value, the probe times (a read-only copy)
    by content, so equal pipelines share one noiseless calibration.
    """

    crystal: TwoIonCrystal
    wavelength_nm: float = 789.0
    pulse_s: float = 3e-3
    eta: float = 0.1
    carrier_rabi_hz: float = 50e3
    probe_times_s: np.ndarray = field(
        default_factory=lambda: np.linspace(0.0, 120e-6, 61))
    decoherence_tau_s: float = 1.5e-3

    def __post_init__(self):
        # the template alignment locates samples with searchsorted
        t = np.array(self.probe_times_s, dtype=float)
        if t.ndim != 1 or not np.isfinite(t).all() or np.any(np.diff(t) <= 0.0):
            raise ValueError("probe times must be a finite, strictly increasing 1-D grid")
        t.flags.writeable = False
        object.__setattr__(self, "probe_times_s", t)
        # the instance is frozen and its times read-only: its key never changes
        key = tuple(tuple(value.tolist()) if isinstance(value, np.ndarray) else value
                    for value in (getattr(self, f.name) for f in fields(self)))
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    def mode_n_mean(self, mode_shift_hz: float) -> float:
        """Mean phonon number after a resonant pulse with the given effective
        single-beam shift of the in-phase mode (linearized drive)."""
        k = 2.0 * math.pi / (self.wavelength_nm * 1e-9)
        force = 4.0 * k * PLANCK * abs(mode_shift_hz)
        m2 = self.crystal.m2_u * ATOMIC_MASS
        omega = self.crystal.omega_minus
        beta = force * self.pulse_s / (2.0 * m2 * omega)
        return m2 * omega * beta * beta / (2.0 * HBAR)

    def distribution(self, mode_shift_hz: float) -> MotionalDistribution:
        n_mean = self.mode_n_mean(mode_shift_hz)
        if not math.isfinite(n_mean):
            raise ValueError(f"a {mode_shift_hz:g} Hz shift gives a non-finite mean "
                             f"phonon number ({n_mean:g})")
        try:
            return MotionalDistribution.coherent(n_mean)
        except ValueError as exc:
            if _coherent_cut(n_mean) <= MAX_FOCK:
                raise
            raise FockCutoffError(
                f"{exc}: a {mode_shift_hz:g} Hz mode shift gives a mean phonon number "
                f"of {n_mean:.0f}, beyond the {MAX_FOCK}-level Fock cutoff") from exc

    def signal(self, mode_shift_hz: float, shots: int | None = None,
               seed: int | None = None) -> RabiSignal:
        return synthesize_bsb_signal(
            self.distribution(mode_shift_hz), self.eta, self.carrier_rabi_hz * 2.0 * math.pi,
            self.probe_times_s, self.decoherence_tau_s, shots=shots, seed=seed,
        )


@dataclass(frozen=True)
class CalibrationSet:
    """Reference signals at known shifts.

    ``shifts_hz`` are the nominal (applied, known) shift magnitudes, strictly
    increasing.  The family is anchored below the lowest calibrated shift by
    the model-known zero excitation, the pipeline's ground-state sideband
    flop; it is not calibration data.
    """

    shifts_hz: tuple[float, ...]
    templates: tuple[RabiSignal, ...]
    pipeline: ReadoutPipeline

    def __post_init__(self):
        if len(self.shifts_hz) < 3:
            raise ValueError("a calibration needs at least 3 distinct shifts")
        if len(self.shifts_hz) != len(self.templates):
            raise ValueError("one template per shift required")
        for k, (s, tpl) in enumerate(zip(self.shifts_hz, self.templates)):
            if not math.isfinite(s):
                raise ValueError(f"calibration shift {k} ({s:g} Hz) is not finite")
            if not np.array_equal(tpl.times_s, self.pipeline.probe_times_s):
                raise ValueError(f"template {k} ({s:g} Hz) is not sampled on the "
                                 "pipeline's probe times")
        if self.shifts_hz[0] <= 0.0:
            raise ValueError("calibration shifts must be positive magnitudes")
        if any(b <= a for a, b in zip(self.shifts_hz, self.shifts_hz[1:])):
            raise ValueError("calibration shifts must be strictly increasing")

    @cached_property
    def template_frequencies_hz(self) -> np.ndarray:
        """Fitted flopping frequency of each template (phase reference for
        the frequency-aligned interpolation), read-only."""
        frequencies = np.array([fit_rabi(tpl) for tpl in self.templates])
        frequencies.flags.writeable = False
        return frequencies

    @cached_property
    def _layout(self):
        """The template family as ``interpolate`` reads it, built once per
        instance: the nodes (the zero anchor first), the frequency PCHIP's
        coefficients per interval (highest power first), its value and slope
        at the two edge nodes and the floor of extrapolated frequencies, as
        floats; per upper bracket node hi, the frequencies of nodes hi - 1 and
        hi and their rows' offsets into the pieces, as (2, 1) columns; and the
        probe times t and the curves as linear pieces: a curve at time x is
        slope[m] * (x - knot[m]) + base[m] with m = searchsorted(t, x, "right"),
        flat beyond both ends of t, as ``np.interp`` clamps."""
        pipeline = self.pipeline
        zero_frequency = pipeline.carrier_rabi_hz * pipeline.eta
        s = np.concatenate(([0.0], self.shifts_hz))
        f = np.concatenate(([zero_frequency], self.template_frequencies_hz))
        curves = np.vstack([pipeline.signal(0.0).p] + [tpl.p for tpl in self.templates])
        nodes, coefficients = s.tolist(), PchipInterpolator(s, f).T.tolist()
        t = pipeline.probe_times_s
        flat = np.zeros((len(curves), 1))
        slope = np.hstack([flat, np.diff(curves, axis=1) / np.diff(t), flat])
        base = np.hstack([curves[:, :1], curves])
        knot = np.concatenate([t[:1], t])
        brackets = [None] + [(f[[hi - 1, hi], None], np.array([[hi - 1], [hi]]) * len(knot))
                             for hi in range(1, len(s))]
        return (nodes, coefficients, [nodes[0], nodes[-1]], *_pchip_edges(nodes, coefficients),
                float(0.02 * f[f > 0.0].min()), brackets, t, slope, base, knot)

    @cached_property
    def _chi2_grid(self):
        """(lo, hi, grid, curves): the 600 shifts ``extract_shift`` scores a
        signal against first and their template curves, built once per instance."""
        lo, hi = 0.0, 1.5 * self.shifts_hz[-1]
        grid = np.linspace(lo, hi, 600)
        return lo, hi, grid, np.array([self.interpolate(x) for x in grid])

    def interpolate(self, shift_hz: float) -> np.ndarray:
        """Template curve at one shift.

        The family oscillates with a flopping frequency that grows with the
        shift, so the two bracketing curves are blended after rescaling time
        to align their fitted frequencies: pointwise blending of dephased
        curves would wash the oscillation out.  Beyond the anchored range the
        alignment extrapolates linearly (the extraction flags that case).  The
        PCHIP is summed on floats as scipy's ``evaluate_poly1`` sums it.
        """
        s, coefficients, edges, f_edge, df_edge, f_floor, brackets, t, slope, base, knot \
            = self._layout
        x = float(shift_hz)
        if s[0] <= x <= s[-1]:
            f_target = _pchip(s, coefficients, x)
        else:
            side = int(x > s[-1])
            f_target = max(f_edge[side] + df_edge[side] * (x - edges[side]), f_floor)
        hi = min(max(bisect_left(s, x), 1), len(s) - 1)
        frequencies, rows = brackets[hi]
        times = t * f_target / frequencies
        m = np.searchsorted(t, times, side="right")
        piece = m + rows
        aligned = slope.take(piece) * (times - knot.take(m)) + base.take(piece)
        w = (x - s[hi - 1]) / (s[hi] - s[hi - 1])
        return ((1.0 - w) * aligned[0] + w * aligned[1]).clip(0.0, 1.0)


def build_calibration(shifts_hz, pipeline: ReadoutPipeline,
                      true_partner_fraction: float = 0.0,
                      shots: int | None = None, seed: int | None = None,
                      ) -> CalibrationSet:
    """Synthesize the calibration templates for the given known shifts.

    ``true_partner_fraction`` bakes a partner-molecule contribution into the
    synthetic template data (the reference signals then correspond to
    shift_k * (1 + r_true) while remaining labeled shift_k), which is the
    situation the iterative correction is designed to undo.

    A noiseless calibration (``shots=None``) is a pure function of the
    shifts, the fraction and the pipeline, so it is built once per process:
    later calls with equal inputs return the same read-only instance, with
    its template fits, frequency interpolant and chi-square grid already
    made.
    """
    shifts = tuple(float(s) for s in shifts_hz)
    if len(shifts) < 3:
        raise ValueError("a calibration needs at least 3 distinct shifts")
    if shots is None:
        return _noiseless_calibration(shifts, pipeline, float(true_partner_fraction))
    rng = np.random.default_rng(seed)
    templates = tuple(pipeline.signal(s * (1.0 + true_partner_fraction), shots=shots,
                                      seed=int(rng.integers(2**31)))
                      for s in shifts)
    return CalibrationSet(shifts_hz=shifts, templates=templates, pipeline=pipeline)


@lru_cache(maxsize=8)
def _noiseless_calibration(shifts: tuple[float, ...], pipeline: ReadoutPipeline,
                           true_partner_fraction: float) -> CalibrationSet:
    templates = tuple(pipeline.signal(s * (1.0 + true_partner_fraction)) for s in shifts)
    for template in templates:
        # every caller with equal inputs receives these arrays
        template.p.flags.writeable = False
    return CalibrationSet(shifts_hz=shifts, templates=templates, pipeline=pipeline)


# R. P. Brent's bounded minimizer (*Algorithms for Minimization without
# Derivatives*, 1973, ch. 5), transcribed from scipy 1.17.1's
# ``_minimize_scalar_bounded`` statement for statement on Python floats, so
# it visits the same points; only the result object and messages are left out.
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
# scipy's default limit on the search's evaluations
_MAXFUN = 500


def _bounded_minimum(func, a: float, b: float, xatol: float):
    """(x, func(x)) at the minimum Brent's search finds on [a, b], finite bounds
    with a <= b, to within ``xatol`` or after _MAXFUN evaluations."""
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:           # try a parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    d = xm - xf     # the sign as np.sign gives it, with 1 for 0
                    rat = tol1 * ((d > 0) - (d < 0) + (d == 0))
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN_MEAN * e
        x = xf + ((rat > 0) - (rat < 0) + (rat == 0)) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAXFUN:
            break
    return xf, fx


@dataclass(frozen=True)
class ShiftEstimate:
    shift_hz: float
    sigma_hz: float
    extrapolated: bool = False
    uninformative: bool = False
    reduced_chi2: float = 1.0       # 1 for noiseless input (no shot-noise scale)


def extract_shift(signal: RabiSignal, cal: CalibrationSet) -> ShiftEstimate:
    """One-parameter least-squares fit of a signal against the template family.

    The only fit parameter is the shift indexing the interpolated template
    family; the uncertainty follows from the chi-square curvature at the
    minimum.  Estimates outside the calibrated range are flagged as
    extrapolated; a flat chi-square landscape is flagged uninformative.
    """
    if not np.array_equal(signal.times_s, cal.pipeline.probe_times_s):
        raise ValueError("signal must be sampled on the calibration time grid")
    first, last = cal.shifts_hz[0], cal.shifts_hz[-1]
    if signal.shots is not None:
        var = float(np.mean(np.maximum(signal.p * (1.0 - signal.p), 0.25 / signal.shots))
                    / signal.shots)
    else:
        var = None  # rescaled from the residuals at the minimum below

    def sse(shift):
        residual = signal.p - cal.interpolate(shift)
        return float(residual @ residual)

    lo, hi, grid, curves = cal._chi2_grid
    residuals = signal.p - curves
    values = np.einsum("ij,ij->i", residuals, residuals)
    spread = values.max() - values.min()
    if not math.isfinite(spread) or spread <= 0.0:
        raise FitError("degenerate template fit: flat chi-square landscape")
    i_best = int(np.argmin(values))
    bracket_lo = grid[max(i_best - 1, 0)]
    bracket_hi = grid[min(i_best + 1, len(grid) - 1)]
    best, sse_best = _bounded_minimum(sse, float(bracket_lo), float(bracket_hi),
                                      (hi - lo) * 1e-7)
    dof = max(len(signal.p) - 1, 1)
    reduced_chi2 = 1.0
    if var is None:
        # noiseless input: scale the uncertainty to the residual scatter
        var = max(sse_best, 1e-30) / dof
    else:
        reduced_chi2 = sse_best / (var * dof)
    # curvature from a symmetric second difference
    h = max((hi - lo) * 1e-4, 1e-9)
    curvature = (sse(best + h) - 2.0 * sse_best + sse(best - h)) / (h * h * var)
    span = last - first
    if curvature > 0.0:
        sigma = math.sqrt(2.0 / curvature)
        # inflate conservatively when the best template fits the data poorly
        sigma *= math.sqrt(max(reduced_chi2, 1.0))
    else:
        sigma = span
    # a fit the model cannot describe carries no shift information
    uninformative = sigma >= span or reduced_chi2 > 5.0
    extrapolated = not first <= best <= last
    return ShiftEstimate(shift_hz=best, sigma_hz=sigma, extrapolated=extrapolated,
                         uninformative=uninformative, reduced_chi2=reduced_chi2)


# Partner-fraction iteration: converged once a step is below this fraction
# of the estimate; given up (converged=False) after this many extractions.
PARTNER_REL_TOLERANCE = 1e-3
PARTNER_MAX_ITERATIONS = 10


@dataclass(frozen=True)
class PartnerIteration:
    partner_shift_hz: float          # signed, shares the atomic-shift sign
    fraction: float                  # partner / atomic shift ratio
    trace_hz: tuple[float, ...]      # successive signed estimates
    converged: bool


def iterate_partner_correction(cal: CalibrationSet, measured: RabiSignal,
                               atomic_shift_hz: float) -> PartnerIteration:
    """Fixed-point iteration for the partner-molecule shift.

    Extracts the partner shift from ``measured`` with the current template
    attribution, folds the estimate back into the calibration model (template
    k -> shift_k * (1 + r)), and repeats until the estimate changes by less
    than ``PARTNER_REL_TOLERANCE`` or ``PARTNER_MAX_ITERATIONS`` is hit.  The
    measured signal is the partner-only excitation recorded at the power
    where the atomic reference shift is ``atomic_shift_hz``.

    The attribution scales the family's shift axis by (1 + r), and the
    extraction is invariant under that scaling, so the signal is fitted once
    and each step rescales that one estimate.
    """
    if atomic_shift_hz == 0.0:
        raise ValueError("atomic reference shift must be nonzero")
    sign = math.copysign(1.0, atomic_shift_hz)
    unscaled = extract_shift(measured, cal).shift_hz
    r_hat = 0.0
    trace = []
    converged = False
    for _ in range(PARTNER_MAX_ITERATIONS):
        estimate = (1.0 + r_hat) * unscaled
        r_new = estimate / abs(atomic_shift_hz)
        if not -1.0 < r_new < 1.0:
            raise ConvergenceError(
                f"partner fraction estimate {r_new:.3f} left the model range (-1, 1)"
            )
        trace.append(sign * estimate)
        converged = abs(r_new - r_hat) <= PARTNER_REL_TOLERANCE * max(abs(r_new), 1e-12)
        r_hat = r_new
        if converged:
            break
    return PartnerIteration(
        partner_shift_hz=sign * abs(r_hat) * abs(atomic_shift_hz),
        fraction=r_hat,
        trace_hz=tuple(trace),
        converged=converged,
    )
