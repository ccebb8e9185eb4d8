"""State-resolved transition strengths, dynamic polarizabilities and
ac-Stark shifts for the molecular ion and its atomic reference ion.

The molecular polarizability is the sum-over-transitions form

    alpha(omega) = sum_k (2/hbar) omega_k / (omega_k^2 - omega^2) |<k|mu|j>|^2

over the rotationally resolved lines of the catalog, plus the rotationless
far-band terms and the constant core polarizability.  The formula has no
linewidth, so evaluation inside a configurable detuning guard refuses with
:class:`NearResonanceError` instead of returning divergent values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .angular import HalfInt, _wigner_3j_doubled, _wigner_6j_doubled
from .catalog import FarBand, LineCatalog, TransitionLine, read_table, shipped_data_path
from .quantities import (
    HBAR,
    AU_DIPOLE_SQUARED,
    AU_POLARIZABILITY,
    DEFAULT_RESONANCE_GUARD_HZ,
    polarizability_to_shift,
    wavelength_to_angular_frequency,
)

# states loads only when stark_table sorts a new state set; elsewhere here
# MolecularState is an annotation.


class NearResonanceError(ValueError):
    """The lattice is too close to a catalog line for the non-resonant formula."""

    def __init__(self, line: TransitionLine | FarBand, detuning_hz: float,
                 guard_hz: float):
        name = (f"far band {line.band}" if isinstance(line, FarBand)
                else f"{line.branch}({line.j_lower})")
        super().__init__(
            f"lattice within {abs(detuning_hz):.3g} Hz of {name} "
            f"at {line.wavelength_nm:.4f} nm (guard {guard_hz:.3g} Hz)"
        )


def transition_strength(state: MolecularState, line: TransitionLine) -> float:
    """Squared pi-polarization dipole moment (au) of one line for a specific
    initial state.

    Multiplies the line's reduced strength by the hyperfine recoupling factor
    (summed over the degenerate upper F' levels when I = 2) and the q = 0
    Zeeman 3j factor; the lattice beams are polarized parallel to the
    magnetic field, so q = 0 is the only component.
    """
    if line.n_lower != state.n or line.j_lower != state.j:
        raise ValueError(
            f"line {line.branch}({line.j_lower}) does not start from state {state.label()}"
        )
    # The selection rules below keep every symbol well formed, so the cached
    # doubled-integer kernels are called directly on the .twice values.
    two_j_low = state.j.twice
    two_j_up = line.j_upper.twice
    two_m = state.m.twice
    if state.i_nuc == 0:
        if abs(two_m) > two_j_up:
            return 0.0  # q = 0 light cannot reach the upper level from this m
        zeeman = _wigner_3j_doubled(two_j_up, 2, two_j_low, -two_m, 0, two_m)
        return line.strength_au * zeeman * zeeman

    two_i = 2 * state.i_nuc
    two_f_low = state.f.twice
    total = 0.0
    for two_fp in range(abs(two_j_up - two_i), two_j_up + two_i + 1, 2):
        if not abs(two_f_low - 2) <= two_fp <= two_f_low + 2:
            continue
        if abs(two_m) > two_fp:
            continue
        six = _wigner_6j_doubled(two_j_up, two_fp, two_i, two_f_low, two_j_low, 2)
        zeeman = _wigner_3j_doubled(two_fp, 2, two_f_low, -two_m, 0, two_m)
        total += (two_fp + 1.0) * (two_f_low + 1.0) * six * six * zeeman * zeeman
    return line.strength_au * total


@dataclass(frozen=True)
class PolarizabilityBreakdown:
    """Signed contributions (au) of one state's polarizability."""

    resonant_au: float
    far_band_au: float
    core_au: float

    @property
    def total_au(self) -> float:
        return self.resonant_au + self.far_band_au + self.core_au


def _sum_coefficient(omega_k: float, omega: float) -> float:
    # (2/hbar) omega_k / (omega_k^2 - omega^2): multiplies |mu|^2 in SI units
    # to give one term of the sum-over-transitions in SI units.
    return 2.0 / HBAR * omega_k / (omega_k**2 - omega**2)


def _detuning_hz(omega_k: float, omega: float) -> float:
    return (omega_k - omega) / (2.0 * math.pi)


def _sum_term_au(omega_k: float, omega: float, strength_au: float) -> float:
    # One term of the sum-over-transitions, with |mu|^2 in au and the result
    # in au of polarizability.
    return _sum_coefficient(omega_k, omega) * (strength_au * AU_DIPOLE_SQUARED) \
        / AU_POLARIZABILITY


def _check_guard(line, omega: float, guard_hz: float) -> None:
    detuning_hz = _detuning_hz(line.angular_frequency, omega)
    if abs(detuning_hz) < guard_hz:
        raise NearResonanceError(line, detuning_hz, guard_hz)


@lru_cache(maxsize=16)
def _far_band_au(omega: float, catalog: LineCatalog, guard_hz: float) -> float:
    # Rotationless isotropic terms: one third of each band strength per
    # polarization component.  Kept per (frequency, catalog, guard) while among
    # the last 16; a band inside the guard raises, which is not kept.
    far = 0.0
    for band in catalog.far_bands:
        _check_guard(band, omega, guard_hz)
        far += _sum_term_au(band.angular_frequency, omega, band.strength_au / 3.0)
    return far


def total_polarizability_au(resonant_au, wavelength_nm: float, catalog: LineCatalog,
                            guard_hz: float = DEFAULT_RESONANCE_GUARD_HZ):
    """``resonant_au`` (a float or an array) plus the far-band and core
    polarizability (au), added in the order of :attr:`PolarizabilityBreakdown.total_au`.
    Raises :class:`NearResonanceError` when a far band is inside the guard."""
    far = _far_band_au(wavelength_to_angular_frequency(wavelength_nm), catalog, guard_hz)
    return resonant_au + far + catalog.core_polarizability_au


def polarizability_breakdown(state: MolecularState, wavelength_nm: float,
                             catalog: LineCatalog,
                             guard_hz: float = DEFAULT_RESONANCE_GUARD_HZ,
                             ) -> PolarizabilityBreakdown:
    """Resonant-band, far-band and core parts of the state's polarizability."""
    omega = wavelength_to_angular_frequency(wavelength_nm)
    resonant = 0.0
    for line in catalog.lines_from(state.n, state.j):
        _check_guard(line, omega, guard_hz)
        strength = transition_strength(state, line)
        resonant += _sum_term_au(line.angular_frequency, omega, strength)
    return PolarizabilityBreakdown(
        resonant_au=resonant,
        far_band_au=_far_band_au(omega, catalog, guard_hz),
        core_au=catalog.core_polarizability_au,
    )


def dynamic_polarizability(state: MolecularState, wavelength_nm: float,
                           catalog: LineCatalog,
                           guard_hz: float = DEFAULT_RESONANCE_GUARD_HZ) -> float:
    """Signed dynamic polarizability (au) of a molecular state."""
    return polarizability_breakdown(state, wavelength_nm, catalog, guard_hz).total_au


def molecular_stark_shift(state: MolecularState, wavelength_nm: float,
                          intensity: float, catalog: LineCatalog,
                          guard_hz: float = DEFAULT_RESONANCE_GUARD_HZ) -> float:
    """Single-beam ac-Stark shift (Hz, signed) of a molecular state."""
    alpha = dynamic_polarizability(state, wavelength_nm, catalog, guard_hz)
    return polarizability_to_shift(alpha, intensity)


@dataclass(frozen=True, eq=False)
class StarkTable:
    """The wavelength-independent part of the shift predictions for a state set.

    Row i belongs to ``states[i]``.  ``line_index`` holds the catalog indices
    of ``catalog.lines_from(n, j)`` in that order, padded with
    ``len(catalog.lines)`` (a slot never inside the guard, with coefficient
    0); ``mu2_si`` holds ``transition_strength * AU_DIPOLE_SQUARED``, 0 on the
    padding.  Get one from :func:`stark_table`.
    """

    states: tuple[MolecularState, ...]
    catalog: LineCatalog
    line_index: np.ndarray
    mu2_si: np.ndarray

    def shifts(self, wavelength_nm: float, intensity_w_m2: float,
               guard_hz: float = DEFAULT_RESONANCE_GUARD_HZ,
               ) -> tuple[np.ndarray, np.ndarray]:
        """Each state's single-beam shift (Hz, signed), bit for bit that of the
        per-state ``polarizability_breakdown`` path, and whether each state is
        flagged (a line inside the guard; its shift is 0.0).  Everything but
        the intensity is evaluated once per (table, wavelength, guard) while
        among the last 16; each call returns arrays of its own."""
        alpha, flagged = _evaluation(self, wavelength_nm, guard_hz)
        if alpha is None:       # a far band inside the guard: every state is flagged
            return np.zeros(len(flagged)), flagged.copy()
        shifts = np.where(flagged, 0.0, polarizability_to_shift(alpha, intensity_w_m2))
        return shifts, flagged.copy()


@lru_cache(maxsize=16)
def _evaluation(table: StarkTable, wavelength_nm: float, guard_hz: float):
    """(polarizability (au), flagged) of the table's states at one wavelength,
    read-only; the polarizability is None when a far band is inside the
    guard, and every state is then flagged."""
    omega = wavelength_to_angular_frequency(wavelength_nm)
    omegas = _line_angular_frequencies(table.catalog)
    inside = [abs(_detuning_hz(omega_k, omega)) < guard_hz for omega_k in omegas] + [False]
    coefficients = [0.0 if hit else _sum_coefficient(omega_k, omega)
                    for omega_k, hit in zip(omegas, inside)] + [0.0]
    terms = np.array(coefficients)[table.line_index] * table.mu2_si / AU_POLARIZABILITY
    resonant = np.zeros(len(table.states))
    for column in terms.T:      # left to right, as the per-state loop adds
        resonant += column
    try:
        alpha = total_polarizability_au(resonant, wavelength_nm, table.catalog, guard_hz)
    except NearResonanceError:
        alpha, flagged = None, np.ones(len(table.states), dtype=bool)
    else:
        alpha.flags.writeable = False
        flagged = np.array(inside)[table.line_index].any(axis=1)
    # every later call at this wavelength and guard reads these
    flagged.flags.writeable = False
    return alpha, flagged


@lru_cache(maxsize=8)
def _line_angular_frequencies(catalog: LineCatalog) -> tuple[float, ...]:
    return tuple(line.angular_frequency for line in catalog.lines)


@lru_cache(maxsize=8)
def _last_lookup(catalog: LineCatalog) -> list:
    """One slot per catalog: ``[(the states last given, their table)]``."""
    return [(None, None)]


def stark_table(states, catalog: LineCatalog) -> StarkTable:
    """The table of ``states``, sorted by :meth:`MolecularState.sort_key`;
    built once per (catalog object, state set) while among the last eight.
    An input equal to the catalog's last one (compared element by element,
    identity first) gets its table without being sorted again."""
    given = tuple(states)
    slot = _last_lookup(catalog)
    last_given, last_table = slot[0]
    if given == last_given:
        return last_table
    from .states import MolecularState

    ordered = tuple(sorted(given, key=MolecularState.sort_key))
    if not ordered:
        raise ValueError("no states supplied")
    table = _build_table(ordered, catalog)
    slot[0] = (given, table)
    return table


@lru_cache(maxsize=8)
def _build_table(states: tuple[MolecularState, ...], catalog: LineCatalog) -> StarkTable:
    position = {line: k for k, line in enumerate(catalog.lines)}
    rows = {level: [position[line] for line in catalog.lines_from(*level)]
            for level in dict.fromkeys((s.n, s.j) for s in states)}
    for (n, j), row in rows.items():
        if not row:
            raise ValueError(f"the catalog has no line from N'' = {n}, J'' = {j} "
                             f"(it covers N'' <= {catalog.max_n_lower}); "
                             "its shifts cannot be predicted")
    width = max(map(len, rows.values()))
    line_index = np.full((len(states), width), len(catalog.lines), dtype=np.intp)
    mu2_si = np.zeros((len(states), width))
    for i, state in enumerate(states):
        row = rows[(state.n, state.j)]
        line_index[i, :len(row)] = row
        mu2_si[i, :len(row)] = [
            transition_strength(state, catalog.lines[k]) * AU_DIPOLE_SQUARED
            for k in row]
    # every caller with the same catalog and states receives these arrays
    line_index.flags.writeable = False
    mu2_si.flags.writeable = False
    return StarkTable(states, catalog, line_index, mu2_si)


# ---------------------------------------------------------------------------
# Atomic reference ion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AtomicLevelModel:
    """Scalar/tensor polarizability tables of one level of the atomic ion.

    The tables cover the lattice wavelength window and are interpolated
    linearly; ``theta`` is the angle between the linear polarization and the
    quantization axis (0 for pi-polarized light).
    """

    level: str
    j: HalfInt
    m: HalfInt
    wavelengths_nm: tuple[float, ...]
    alpha_scalar_au: tuple[float, ...]
    alpha_tensor_au: tuple[float, ...]
    core_au: float
    theta: float = 0.0

    def __post_init__(self):
        if abs(self.m.twice) > self.j.twice:
            raise ValueError(f"|m| = {HalfInt(abs(self.m.twice))} exceeds J = {self.j}")
        if len(self.wavelengths_nm) < 2:
            raise ValueError("need at least two wavelength samples to interpolate")
        if not (len(self.wavelengths_nm) == len(self.alpha_scalar_au)
                == len(self.alpha_tensor_au)):
            raise ValueError("polarizability tables must have equal lengths")

    def _interp(self, table, wavelength_nm: float) -> float:
        lo, hi = self.wavelengths_nm[0], self.wavelengths_nm[-1]
        if not lo <= wavelength_nm <= hi:
            raise ValueError(
                f"wavelength {wavelength_nm} nm outside the shipped table "
                f"[{lo}, {hi}] nm for level {self.level}"
            )
        return float(np.interp(wavelength_nm, self.wavelengths_nm, table))

    def tensor_prefactor(self) -> float:
        """((3cos^2 Theta - 1)/2) (3m^2 - J(J+1)) / (J(2J-1)); 0 by convention
        at the magic angle, undefined (ValueError) for J = 1/2."""
        j = self.j.value
        if self.j.twice == 1:
            raise ValueError("tensor contribution undefined for J = 1/2")
        m = self.m.value
        angle = (3.0 * math.cos(self.theta) ** 2 - 1.0) / 2.0
        return angle * (3.0 * m * m - j * (j + 1.0)) / (j * (2.0 * j - 1.0))


def atomic_polarizability(model: AtomicLevelModel, wavelength_nm: float) -> float:
    """Lattice polarizability (au) of the atomic level at the given wavelength:
    the valence value (scalar plus tensor) plus the core term, since the
    lattice couples to core and valence electrons alike.
    """
    alpha = model._interp(model.alpha_scalar_au, wavelength_nm)
    alpha += model.tensor_prefactor() * model._interp(model.alpha_tensor_au, wavelength_nm)
    return alpha + model.core_au


def atomic_stark_shift(model: AtomicLevelModel, wavelength_nm: float,
                       intensity: float) -> float:
    """Single-beam lattice shift (Hz, signed) of the atomic level."""
    return polarizability_to_shift(atomic_polarizability(model, wavelength_nm), intensity)


SHIPPED_ATOMIC_FILE = "ca_polarizabilities.csv"
ATOMIC_COLUMNS = ("level", "wavelength_nm", "alpha_scalar_au", "alpha_tensor_au")
_ATOMIC_CORES_AU = {"D5/2": 3.03}
_ATOMIC_J = {"D5/2": HalfInt(5)}


def load_shipped_atomic_model(level: str = "D5/2", m=HalfInt(-5),
                              theta: float = 0.0) -> AtomicLevelModel:
    """Atomic-level model from the shipped polarizability table.

    Defaults to the metastable D5/2(m = -5/2) level the reference ion is
    shelved in during lattice pulses, the only level shipped.
    """
    if level not in _ATOMIC_J:
        raise ValueError(f"unknown level {level!r}; shipped: {sorted(_ATOMIC_J)}")
    rows = sorted(tuple(float(row[col]) for col in ATOMIC_COLUMNS[1:])
                  for _, row in read_table(shipped_data_path(SHIPPED_ATOMIC_FILE),
                                           ATOMIC_COLUMNS)[0]
                  if row["level"].strip() == level)
    return AtomicLevelModel(
        level=level,
        j=_ATOMIC_J[level],
        m=HalfInt.of(m),
        wavelengths_nm=tuple(r[0] for r in rows),
        alpha_scalar_au=tuple(r[1] for r in rows),
        alpha_tensor_au=tuple(r[2] for r in rows),
        core_au=_ATOMIC_CORES_AU[level],
        theta=theta,
    )
