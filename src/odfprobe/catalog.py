"""Spectroscopic line catalog: CSV ingestion and validation.

A catalog holds the rotationally resolved lines of the near-resonant vibronic
band, a set of far-detuned rotationless band heads, and the constant core
polarizability.  Catalogs are loaded from CSV files (the package ships one
for the molecular ion of interest); the line model that generated the
shipped list is kept with the tests, which check the list against it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .angular import HalfInt, PiCoupling, honl_london, parse_branch
from .quantities import (
    HBAR,
    SPEED_OF_LIGHT,
    VACUUM_PERMITTIVITY,
    AU_DIPOLE_SQUARED,
    wavelength_to_angular_frequency,
)

LINE_COLUMNS = (
    "band", "branch", "N_lower", "J_lower_x2", "J_upper_x2",
    "wavelength_nm", "einstein_A", "mu_squared_au",
)
FAR_BAND_COLUMNS = ("band", "wavelength_nm", "einstein_A")


class CatalogError(ValueError):
    """Raised for unreadable, malformed or inconsistent catalog data."""


def band_dipole_squared_au(einstein_a: float, wavelength_nm: float) -> float:
    """Vibronic squared transition dipole (au) from the band Einstein A.

    Uses the two-level relation A = omega^3 mu^2 / (3 pi eps0 hbar c^3)
    applied band-wise; rotational structure is distributed over the branches
    by the line-strength factors.
    """
    omega_cubed = wavelength_to_angular_frequency(wavelength_nm) ** 3
    if omega_cubed == 0.0:     # underflow, beyond about 1e127 nm
        return math.inf
    mu2_si = 3.0 * math.pi * VACUUM_PERMITTIVITY * HBAR * SPEED_OF_LIGHT**3 \
        * einstein_a / omega_cubed
    return mu2_si / AU_DIPOLE_SQUARED


@dataclass(frozen=True)
class TransitionLine:
    """One rotationally resolved line of the resolved band.

    ``strength_au`` is the reduced line strength |<k|mu|j>|^2 in au: the
    vibronic band strength multiplied by the Honl-London factor of the
    branch.  State-resolved strengths (hyperfine recoupling, Zeeman 3j
    factor) are applied downstream.
    """

    band: str
    branch: str
    n_lower: int
    j_lower: HalfInt
    j_upper: HalfInt
    wavelength_nm: float
    strength_au: float
    einstein_a: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.wavelength_nm) and self.wavelength_nm > 0.0):
            raise CatalogError(f"line {self.branch}({self.j_lower}): wavelength must be "
                               f"finite and > 0, got {self.wavelength_nm}")
        if not math.isfinite(self.strength_au):
            raise CatalogError(f"line {self.branch}({self.j_lower}): strength must be "
                               f"finite, got {self.strength_au}")
        if self.strength_au < 0.0:
            raise CatalogError(f"line {self.branch}({self.j_lower}): negative strength")
        delta_j, _, j_low = parse_branch(self.branch)
        if self.j_upper.twice != self.j_lower.twice + 2 * delta_j:
            raise CatalogError(
                f"line {self.branch}({self.j_lower}): J' = {self.j_upper} inconsistent"
            )
        expected_two_j = 2 * self.n_lower + 1 if j_low == 1 else 2 * self.n_lower - 1
        if self.j_lower.twice != expected_two_j:
            raise CatalogError(
                f"line {self.branch}({self.j_lower}): lower level is not N'' = {self.n_lower}"
            )

    @property
    def angular_frequency(self) -> float:
        return wavelength_to_angular_frequency(self.wavelength_nm)


@dataclass(frozen=True)
class FarBand:
    """A far-detuned vibronic band kept only as a rotationless transition."""

    band: str
    wavelength_nm: float
    einstein_a: float

    def __post_init__(self):
        if not (math.isfinite(self.wavelength_nm) and self.wavelength_nm > 0.0):
            raise CatalogError(f"far band {self.band}: wavelength must be finite and > 0, "
                               f"got {self.wavelength_nm}")
        if not (math.isfinite(self.einstein_a) and self.einstein_a >= 0.0):
            raise CatalogError(f"far band {self.band}: einstein_A must be finite and >= 0, "
                               f"got {self.einstein_a}")
        if not math.isfinite(self.strength_au):
            raise CatalogError(f"far band {self.band}: strength must be finite, "
                               f"got {self.strength_au}")

    @property
    def strength_au(self) -> float:
        return band_dipole_squared_au(self.einstein_a, self.wavelength_nm)

    @property
    def angular_frequency(self) -> float:
        return wavelength_to_angular_frequency(self.wavelength_nm)


@dataclass(frozen=True, eq=False)
class LineCatalog:
    """Compared and hashed by identity, so caches key on the catalog object."""

    lines: tuple[TransitionLine, ...]
    far_bands: tuple[FarBand, ...]
    core_polarizability_au: float

    def lines_from(self, n_lower: int, j_lower: HalfInt) -> list[TransitionLine]:
        return [
            line for line in self.lines
            if line.n_lower == n_lower and line.j_lower == j_lower
        ]

    def lines_up_to(self, n_max: int) -> list[TransitionLine]:
        return [line for line in self.lines if line.n_lower <= n_max]

    @property
    def max_n_lower(self) -> int:
        return max((line.n_lower for line in self.lines), default=-1)


def read_table(path, columns) -> tuple[list[tuple[str, dict]], dict]:
    """Rows of a CSV table as ``(path:line, row)`` pairs, and its metadata.

    Lines starting with ``#`` are comments and blank lines are skipped; both
    still count in the line numbers.  ``# key = value`` comments become the
    metadata.  The first remaining row is the header, which must hold every
    name in ``columns``; every later row must have as many fields as it.
    """
    path, meta, header, rows = Path(path), {}, None, []

    def data_lines(fh):
        # Comment and blank lines reach the reader empty, so that
        # reader.line_num stays the line number in the file.
        for ln in fh:
            if ln.startswith("#"):
                key, eq, value = ln.lstrip("#").partition("=")
                if eq:
                    meta[key.strip()] = value.strip()
            yield "" if ln.startswith("#") or not ln.strip() else ln

    try:
        with path.open(encoding="utf-8") as fh:
            reader = csv.reader(data_lines(fh))
            for fields in filter(None, reader):
                where = f"{path}:{reader.line_num}"
                if header is None:
                    header = fields
                    missing = [col for col in columns if col not in header]
                    if missing:
                        raise CatalogError(f"{path}: missing column(s) {', '.join(missing)}")
                elif len(fields) != len(header):
                    raise CatalogError(f"{where}: row has "
                                       f"{'fewer' if len(fields) < len(header) else 'more'}"
                                       " fields than the header")
                else:
                    rows.append((where, dict(zip(header, fields))))
    except csv.Error as exc:
        raise CatalogError(f"{path}:{reader.line_num}: {exc}") from exc
    except (OSError, UnicodeError) as exc:
        raise CatalogError(f"cannot read {path}: {exc}") from exc
    if header is None:
        raise CatalogError(f"{path}: no header row found")
    return rows, meta


def write_table(path, header, rows) -> None:
    """Write ``rows`` (any iterable, consumed as it is written) under
    ``header`` as CSV."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def load_line_catalog(lines_path, far_bands_path=None) -> LineCatalog:
    """Load a catalog from its line CSV and optional far-band CSV.

    Metadata is carried as ``# key = value`` comment lines in the line file,
    which must state a finite ``core_polarizability_au``; the upper-state
    coupling constants (``pi_spin_orbit_A_cm1``, ``pi_rotational_B_cm1``) are
    needed only by ``einstein_A`` rows.
    """
    rows, meta = read_table(lines_path, LINE_COLUMNS)
    core = meta.get("core_polarizability_au")
    try:
        core_au = float(core)
    except (TypeError, ValueError):
        core_au = math.nan
    if not math.isfinite(core_au):
        raise CatalogError(f"{lines_path}: the metadata must state a finite "
                           f"core_polarizability_au, got {core!r}")
    coupling = None
    if "pi_spin_orbit_A_cm1" in meta and "pi_rotational_B_cm1" in meta:
        try:
            coupling = PiCoupling(spin_orbit_a=float(meta["pi_spin_orbit_A_cm1"]),
                                  rotational_b=float(meta["pi_rotational_B_cm1"]))
        except ValueError as exc:
            raise CatalogError(f"{lines_path}: pi_spin_orbit_A_cm1 and pi_rotational_B_cm1 "
                               f"must be numbers: {exc}") from exc
    lines = []
    seen = {}
    for where, row in rows:
        try:
            branch = row["branch"].strip()
            n_lower = int(row["N_lower"])
            j_lower = HalfInt(int(row["J_lower_x2"]))
            j_upper = HalfInt(int(row["J_upper_x2"]))
            wavelength = float(row["wavelength_nm"])
            einstein_a, mu2 = (float(row[col]) if row[col].strip() else None
                               for col in ("einstein_A", "mu_squared_au"))
        except ValueError as exc:
            raise CatalogError(f"{where}: {exc}") from exc
        if (einstein_a is None) == (mu2 is None):
            raise CatalogError(
                f"{where}: exactly one of einstein_A or mu_squared_au must be given"
            )
        key = (branch, n_lower, j_lower.twice)
        if key in seen:
            raise CatalogError(
                f"{where}: duplicate line {branch}({j_lower}) for N'' = {n_lower} "
                f"(first at {seen[key]})"
            )
        seen[key] = where
        try:
            if mu2 is None:
                if coupling is None:
                    raise CatalogError("einstein_A rows need pi_spin_orbit_A_cm1 and "
                                       "pi_rotational_B_cm1 metadata to evaluate line "
                                       "strengths")
                hl = honl_london(branch, j_lower, coupling)
                mu2 = band_dipole_squared_au(einstein_a, wavelength) * hl
            lines.append(TransitionLine(
                band=row["band"].strip(),
                branch=branch,
                n_lower=n_lower,
                j_lower=j_lower,
                j_upper=j_upper,
                wavelength_nm=wavelength,
                strength_au=mu2,
                einstein_a=einstein_a,
            ))
        except ValueError as exc:
            raise CatalogError(f"{where}: {exc}") from exc

    far_bands = []
    if far_bands_path is not None:
        for where, row in read_table(far_bands_path, FAR_BAND_COLUMNS)[0]:
            try:
                far_bands.append(FarBand(
                    band=row["band"].strip(),
                    wavelength_nm=float(row["wavelength_nm"]),
                    einstein_a=float(row["einstein_A"]),
                ))
            except ValueError as exc:
                raise CatalogError(f"{where}: {exc}") from exc

    return LineCatalog(
        lines=tuple(sorted(lines, key=lambda l: (l.n_lower, l.j_lower.twice, l.branch))),
        far_bands=tuple(far_bands),
        core_polarizability_au=core_au,
    )


# ---------------------------------------------------------------------------
# Shipped catalog
# ---------------------------------------------------------------------------

SHIPPED_LINES_FILE = "n2plus_meinel_2_0_lines.csv"
SHIPPED_FAR_BANDS_FILE = "n2plus_far_bands.csv"


def shipped_data_path(name: str) -> Path:
    return Path(resources.files("odfprobe").joinpath("data", name))


def load_shipped_catalog() -> LineCatalog:
    """The catalog distributed with the package for the N2+ molecular ion."""
    return load_line_catalog(
        shipped_data_path(SHIPPED_LINES_FILE),
        shipped_data_path(SHIPPED_FAR_BANDS_FILE),
    )
