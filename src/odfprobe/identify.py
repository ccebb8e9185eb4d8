"""Turning shift measurements into candidate state sets, partial-readout
exclusion windows, and reaction / quantum-jump event classification.

A measurement carries the extracted molecular shift magnitude, its combined
uncertainty, the inferred detuning sign and the in-phase mode frequency.
Candidates are all enumerated states whose predicted shift agrees in sign
and magnitude within k sigma; identification reports the k = 1 and k = 2
tiers rather than a single best state.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .catalog import LineCatalog, read_table
from .config import check_bound
from .quantities import DEFAULT_RESONANCE_GUARD_HZ, polarizability_to_shift

# stark loads with the first prediction, so reading, windowing and classifying
# rows load neither it nor states; StarkTable and MolecularState below are
# annotations only.

# Fractional intensity (lattice power) uncertainty folded into measurement
# sigmas in quadrature.
POWER_FRACTIONAL_UNCERTAINTY = 0.10

# Relative in-phase frequency change marking a chemical-composition change:
# half the one-mass-unit signature, well above the 1e-3 frequency uncertainty.
REACTION_RELATIVE_THRESHOLD = 3e-3

SIGNS = ("red", "blue", "indeterminate")


def combined_sigma(shift_hz: float, fit_sigma_hz: float) -> float:
    """Fit uncertainty and fractional power uncertainty in quadrature."""
    return math.hypot(fit_sigma_hz, POWER_FRACTIONAL_UNCERTAINTY * abs(shift_hz))


@dataclass(frozen=True)
class Measurement:
    """One SP/OP-derived molecular shift measurement."""

    wavelength_nm: float
    intensity_w_m2: float
    shift_hz: float            # |dE_m|, magnitude
    sigma_hz: float            # combined 1-sigma uncertainty
    sign: str                  # red | blue | indeterminate
    f_ip_hz: float

    def __post_init__(self):
        for name in ("shift_hz", "sigma_hz", "f_ip_hz"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("wavelength_nm", "intensity_w_m2"):     # a config's finite bounds
            check_bound(name, getattr(self, name))
        if self.f_ip_hz <= 0.0:
            raise ValueError("in-phase mode frequency must be > 0")
        if self.shift_hz < 0.0:
            raise ValueError("measured shift magnitude must be >= 0")
        if self.sigma_hz <= 0.0:
            raise ValueError("sigma must be > 0")
        if self.sign not in SIGNS:
            raise ValueError(f"sign must be one of {SIGNS}, got {self.sign!r}")

    def sign_matches(self, predicted_shift_hz):
        """Whether a predicted shift (or each of an array) has the measured sign."""
        if self.sign == "indeterminate":
            return True
        return (predicted_shift_hz < 0.0) == (self.sign == "red")


@dataclass(frozen=True)
class ShiftPrediction:
    state: MolecularState
    shift_hz: float | None        # None when the state sits inside the guard

    @property
    def sign(self) -> str:
        if self.shift_hz is None:
            return "indeterminate"
        return "red" if self.shift_hz < 0.0 else "blue"


@dataclass(frozen=True, eq=False, repr=False)
class ShiftPredictions(Sequence):
    """Read-only sequence of :class:`ShiftPrediction`, each built when read, over one
    ``StarkTable.shifts`` evaluation; its arrays (shifts 0.0 where flagged) are read-only."""

    table: StarkTable
    shifts: np.ndarray
    flagged: np.ndarray

    def __len__(self) -> int:
        return len(self.shifts)

    def __getitem__(self, index: int) -> ShiftPrediction:
        i = range(len(self))[index]         # an int (negative too); a slice is refused
        return ShiftPrediction(self.table.states[i],
                               None if self.flagged[i] else float(self.shifts[i]))

    def matching(self, measurement: Measurement, k: float) -> list[int]:
        """Indices of the states not flagged, of the measured sign and within k sigma."""
        near = np.abs(np.abs(self.shifts) - measurement.shift_hz) <= k * measurement.sigma_hz
        return np.flatnonzero(~self.flagged & measurement.sign_matches(self.shifts)
                              & near).tolist()


def predict_catalog_shifts(wavelength_nm: float, intensity_w_m2: float,
                           states, catalog: LineCatalog,
                           guard_hz: float = DEFAULT_RESONANCE_GUARD_HZ,
                           ) -> ShiftPredictions:
    """Signed shift of every state in ``sort_key`` order, one evaluation of its table;
    states with a catalog line inside the guard are flagged, not dropped."""
    from .stark import stark_table

    table = stark_table(states, catalog)
    shifts, flagged = table.shifts(wavelength_nm, intensity_w_m2, guard_hz)
    shifts.flags.writeable = flagged.flags.writeable = False
    return ShiftPredictions(table, shifts, flagged)


def background_shift_hz(wavelength_nm: float, intensity_w_m2: float,
                        catalog: LineCatalog,
                        guard_hz: float = DEFAULT_RESONANCE_GUARD_HZ) -> float:
    """Shift magnitude a state far from every resolved line would show
    (far-band plus core polarizability only)."""
    from .stark import total_polarizability_au

    alpha = total_polarizability_au(0.0, wavelength_nm, catalog, guard_hz)
    return abs(polarizability_to_shift(alpha, intensity_w_m2))


@dataclass(frozen=True)
class CandidateSet:
    """States consistent with a measurement at one sigma multiplier."""

    k: float
    candidates: tuple[ShiftPrediction, ...]
    flagged: tuple[ShiftPrediction, ...]
    total_states: int

    @property
    def excluded_states(self) -> int:
        # Flagged states were never evaluated, so they are not excluded.
        return self.total_states - len(self.candidates) - len(self.flagged)

    @property
    def exclusion_fraction(self) -> float:
        return self.excluded_states / self.total_states


def match_candidates(measurement: Measurement, predictions: ShiftPredictions,
                     k: float = 1.0) -> CandidateSet:
    """States whose predicted shift agrees with the measurement within
    k sigma and whose sign matches (indeterminate measurements match both)."""
    if not len(predictions):
        raise ValueError("empty prediction table")
    pick = predictions.__getitem__
    return CandidateSet(k, tuple(map(pick, predictions.matching(measurement, k))),
                        tuple(map(pick, np.flatnonzero(predictions.flagged).tolist())),
                        len(predictions))


def exclusion_window(n_max_excl: int, catalog: LineCatalog) -> tuple[float, float]:
    """(lambda_red_min, lambda_blue_max) bounding all lines with N'' <= n_max_excl.

    A lattice wavelength above lambda_red_min is red detuned from every line
    of the manifold; one below lambda_blue_max is blue detuned from all.
    """
    if n_max_excl < 0 or n_max_excl % 2 != 0:
        raise ValueError(f"N_max must be even and >= 0, got {n_max_excl}")
    if catalog.max_n_lower < n_max_excl:
        raise ValueError(f"catalog only covers N'' <= {catalog.max_n_lower}, "
                         f"cannot bound the N'' <= {n_max_excl} manifold")
    manifold = catalog.lines_up_to(n_max_excl)
    if not manifold:
        raise ValueError(f"no catalog lines with N'' <= {n_max_excl}")
    wavelengths = [line.wavelength_nm for line in manifold]
    return max(wavelengths), min(wavelengths)


def apply_partial_readout(measurement: Measurement, n_max_excl: int,
                          catalog: LineCatalog) -> str:
    """'excluded' | 'not-excluded' | 'inapplicable' for the N'' <= n_max_excl
    manifold.

    Outside the manifold's band, every state of the manifold has a definite
    detuning sign; measuring the opposite sign excludes the whole manifold
    regardless of its substructure.  Inside the band the test is inapplicable.
    """
    if measurement.sign == "indeterminate":
        raise ValueError("partial readout needs a determined detuning sign")
    red_min, blue_max = exclusion_window(n_max_excl, catalog)
    wavelength = measurement.wavelength_nm
    if wavelength > red_min:
        return "excluded" if measurement.sign == "blue" else "not-excluded"
    if wavelength < blue_max:
        return "excluded" if measurement.sign == "red" else "not-excluded"
    return "inapplicable"


def classify_event(before: Measurement, after: Measurement,
                   reaction_threshold: float = REACTION_RELATIVE_THRESHOLD,
                   k: float = 2.0) -> str:
    """'reaction' | 'quantum_jump' | 'no_change' between two measurements.

    A relative in-phase-frequency change above the threshold marks a
    chemical-composition change; with the frequency unchanged, a sign flip
    or a k-sigma shift-magnitude change marks an internal-state jump.
    """
    rel_df = abs(after.f_ip_hz - before.f_ip_hz) / before.f_ip_hz
    if rel_df > reaction_threshold:
        return "reaction"
    if before.sign != "indeterminate" and after.sign != "indeterminate" \
            and before.sign != after.sign:
        return "quantum_jump"
    sigma = math.hypot(before.sigma_hz, after.sigma_hz)
    if abs(after.shift_hz - before.shift_hz) > k * sigma:
        return "quantum_jump"
    return "no_change"


# ---------------------------------------------------------------------------
# Reports and measurement files
# ---------------------------------------------------------------------------

MEASUREMENT_COLUMNS = ("wavelength_nm", "intensity_W_m2", "shift_Hz", "sigma_Hz",
                       "sign", "f_ip_Hz")


def read_measurements(path) -> list[Measurement]:
    """Measurement CSV: wavelength_nm, intensity_W_m2, shift_Hz, sigma_Hz,
    sign, f_ip_Hz."""
    measurements = []
    for where, row in read_table(path, MEASUREMENT_COLUMNS)[0]:
        try:
            measurements.append(Measurement(
                float(row["wavelength_nm"]), float(row["intensity_W_m2"]),
                float(row["shift_Hz"]), float(row["sigma_Hz"]), row["sign"].strip(),
                float(row["f_ip_Hz"])))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
    return measurements


@lru_cache(maxsize=8)
def _entry_fields(table: StarkTable) -> tuple[dict, ...]:
    """Each state's fixed report fields, formatted once per table."""
    return tuple({"N": s.n, "J": str(s.j), "I": s.i_nuc,
                  "F": None if s.f is None else str(s.f), "m": str(s.m)}
                 for s in table.states)


def identification_report(measurement: Measurement, predictions: ShiftPredictions,
                          ks=(1.0, 2.0)) -> dict:
    """Table-style identification document with one candidate tier per k,
    labelled ``k={k:g}``; equal ks share a tier."""
    labels = {f"k={k:g}": k for k in ks}
    if not labels or len(labels) != len(set(ks)):
        raise ValueError(f"sigma multipliers {tuple(ks)}: none, or two share a tier label")
    fields, shifts = _entry_fields(predictions.table), predictions.shifts.tolist()
    total, flagged = len(predictions), int(predictions.flagged.sum())
    tiers = {}
    for label, k in labels.items():
        index = predictions.matching(measurement, k)
        excluded = total - len(index) - flagged
        tiers[label] = {
            "candidates": [{**fields[i], "predicted_shift_hz": shifts[i]} for i in index],
            "candidate_count": len(index),
            "excluded_count": excluded,
            "exclusion_fraction": excluded / total,
        }
    return {
        "measurement": {"wavelength_nm": measurement.wavelength_nm,
                        "intensity_w_m2": measurement.intensity_w_m2,
                        "shift_hz": measurement.shift_hz, "sigma_hz": measurement.sigma_hz,
                        "sign": measurement.sign, "f_ip_hz": measurement.f_ip_hz},
        "total_states": total,
        "flagged_states": flagged,
        "tiers": tiers,
    }


def format_report_text(report: dict) -> str:
    meas = report["measurement"]
    lines = [
        f"measurement: |shift| = {meas['shift_hz']:.1f} Hz "
        f"(sigma {meas['sigma_hz']:.1f} Hz), sign {meas['sign']}, "
        f"lattice {meas['wavelength_nm']:.4g} nm",
        f"states considered: {report['total_states']} "
        f"({report['flagged_states']} flagged near-resonant)",
    ]
    for tier, data in report["tiers"].items():
        lines.append(f"[{tier}] {data['candidate_count']} candidate(s), "
                     f"{data['excluded_count']} excluded "
                     f"({100.0 * data['exclusion_fraction']:.1f}%)")
        for entry in data["candidates"]:
            hf = "" if entry["F"] is None else f" F={entry['F']}"
            lines.append(f"    N={entry['N']} J={entry['J']} I={entry['I']}{hf} "
                         f"m={entry['m']}  predicted {entry['predicted_shift_hz']:+.1f} Hz")
    return "\n".join(lines)


def write_report_json(report: dict, path) -> None:
    Path(path).write_text(json.dumps(report, indent=2), encoding="utf-8")
