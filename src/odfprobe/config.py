"""Run configuration: flat key-value text with sections (INI), shipped with a
complete default file so no setting is hidden in code."""

from __future__ import annotations

import configparser
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

from .catalog import (SHIPPED_FAR_BANDS_FILE, SHIPPED_LINES_FILE, LineCatalog,
                      load_line_catalog, shipped_data_path)
from .quantities import intensity_from_core_anchor

if TYPE_CHECKING:
    from .crystal import TwoIonCrystal
    from .stark import AtomicLevelModel

DEFAULT_CONFIG_FILE = "default.cfg"

# Every section and key load_config reads; anything else is a ConfigError.
KNOWN_KEYS = {
    "trap": ("lattice_periods_n", "atomic_frequency_hz"),
    "lattice": ("wavelength_nm", "beat_frequency_hz", "intensity_mode",
                "intensity_w_m2", "polarization_angle_rad", "pulse_ms"),
    "masses": ("molecule_u", "atom_u"),
    "catalog": ("lines", "far_bands"),
    "readout": ("lamb_dicke", "carrier_rabi_hz", "shots", "seed",
                "decoherence_tau_ms"),
    "thresholds": ("sigma_multiplier", "resonance_guard_hz", "reaction_rel_change"),
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Validated settings for the command-line front end."""

    # trap: exactly one of the two was configured
    lattice_periods_n: int | None
    atomic_frequency_hz: float | None
    # lattice
    wavelength_nm: float
    beat_frequency_hz: float | None     # None -> resonant with the IP mode
    intensity_w_m2: float               # resolved value
    intensity_mode: str                 # "core_anchor" | "explicit"
    polarization_angle_rad: float
    pulse_ms: float
    # masses
    molecule_mass_u: float
    atom_mass_u: float
    # catalog
    lines_path: str
    far_bands_path: str
    # readout
    lamb_dicke: float
    carrier_rabi_hz: float
    shots: int
    seed: int
    decoherence_tau_ms: float
    # thresholds
    sigma_multiplier: float
    resonance_guard_hz: float
    reaction_rel_change: float

    raw_items: dict = field(default_factory=dict, repr=False)

    # crystal, stark and hashlib load when a command first asks for them
    def crystal(self) -> TwoIonCrystal:
        from .crystal import TwoIonCrystal

        if self.lattice_periods_n is not None:
            return TwoIonCrystal.from_lattice_periods(
                self.molecule_mass_u, self.atom_mass_u, self.lattice_periods_n,
                self.wavelength_nm)
        return TwoIonCrystal.from_atomic_frequency(
            self.molecule_mass_u, self.atom_mass_u, self.atomic_frequency_hz)

    def catalog(self) -> LineCatalog:
        """The configured catalog, read once per config so that the strength
        tables it caches are shared by every prediction."""
        return self._catalog

    @cached_property
    def _catalog(self) -> LineCatalog:
        lines, far = self.lines_path, self.far_bands_path
        if lines == "builtin":
            lines = shipped_data_path(SHIPPED_LINES_FILE)
        if far == "builtin":
            far = shipped_data_path(SHIPPED_FAR_BANDS_FILE)
        return load_line_catalog(lines, None if far in ("", "none") else far)

    def atomic_model(self) -> AtomicLevelModel:
        from .stark import load_shipped_atomic_model

        return load_shipped_atomic_model("D5/2", theta=self.polarization_angle_rad)

    def hash(self) -> str:
        import hashlib

        payload = json.dumps(self.raw_items, sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


def default_config_path() -> Path:
    return Path(shipped_data_path(DEFAULT_CONFIG_FILE))


def load_config(path=None) -> RunConfig:
    """Parse and validate a config file (the shipped default when ``path`` is
    None or the literal string 'default')."""
    if path is None or str(path) == "default":
        path = default_config_path()
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    for section in parser.sections():
        if section not in KNOWN_KEYS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser.options(section):
            if key not in KNOWN_KEYS[section]:
                raise ConfigError(f"{path}: unknown key [{section}] {key}")

    def get(section, key, cast=str, fallback=None):
        try:
            if not parser.has_option(section, key):
                if fallback is not None:
                    return fallback
                raise ConfigError(f"{path}: missing [{section}] {key}")
            return cast(parser.get(section, key))
        except ValueError as exc:
            raise ConfigError(f"{path}: bad value for [{section}] {key}: {exc}") from exc

    n = get("trap", "lattice_periods_n", int) if parser.has_option("trap", "lattice_periods_n") else None
    f2 = get("trap", "atomic_frequency_hz", float) if parser.has_option("trap", "atomic_frequency_hz") else None
    if (n is None) == (f2 is None):
        raise ConfigError(
            f"{path}: [trap] must set exactly one of lattice_periods_n or "
            "atomic_frequency_hz"
        )

    intensity_mode = get("lattice", "intensity_mode", str, "core_anchor").strip()
    has_explicit = parser.has_option("lattice", "intensity_w_m2")
    if intensity_mode == "explicit":
        if not has_explicit:
            raise ConfigError(f"{path}: intensity_mode=explicit needs intensity_w_m2")
        intensity = get("lattice", "intensity_w_m2", float)
    elif intensity_mode == "core_anchor":
        if has_explicit:
            raise ConfigError(
                f"{path}: intensity_w_m2 conflicts with intensity_mode=core_anchor; "
                "exactly one intensity specification is allowed"
            )
        intensity = intensity_from_core_anchor()
    else:
        raise ConfigError(f"{path}: unknown intensity_mode {intensity_mode!r}")

    beat_text = get("lattice", "beat_frequency_hz", str, "auto").strip()
    beat = None if beat_text in ("", "auto") else get("lattice", "beat_frequency_hz", float)

    config = RunConfig(
        lattice_periods_n=n,
        atomic_frequency_hz=f2,
        wavelength_nm=get("lattice", "wavelength_nm", float),
        beat_frequency_hz=beat,
        intensity_w_m2=intensity,
        intensity_mode=intensity_mode,
        polarization_angle_rad=get("lattice", "polarization_angle_rad", float, 0.0),
        pulse_ms=get("lattice", "pulse_ms", float, 3.0),
        molecule_mass_u=get("masses", "molecule_u", float),
        atom_mass_u=get("masses", "atom_u", float),
        lines_path=get("catalog", "lines", str, "builtin").strip(),
        far_bands_path=get("catalog", "far_bands", str, "builtin").strip(),
        lamb_dicke=get("readout", "lamb_dicke", float, 0.1),
        carrier_rabi_hz=get("readout", "carrier_rabi_hz", float, 50e3),
        shots=get("readout", "shots", int, 20),
        seed=get("readout", "seed", int, 1234),
        decoherence_tau_ms=get("readout", "decoherence_tau_ms", float, 1.5),
        sigma_multiplier=get("thresholds", "sigma_multiplier", float, 2.0),
        resonance_guard_hz=get("thresholds", "resonance_guard_hz", float, 1e9),
        reaction_rel_change=get("thresholds", "reaction_rel_change", float, 3e-3),
        raw_items={s: dict(parser.items(s)) for s in parser.sections()},
    )
    _validate(config, path)
    return config


def _validate(config: RunConfig, path) -> None:
    """Every number must be finite (but for an infinite decoherence time, which
    readout reads as none) and inside the range its arithmetic survives: at
    [lattice] wavelength_nm = 1e300 the ion spacing cubed overflows, at
    [masses] molecule_u = 1e-30 a mode frequency divides by zero, and at
    [readout] carrier_rabi_hz = 1e300 the Rabi phase has no significant digit.
    The bounds lie far outside any trapped-ion experiment.  (A chained
    comparison is False for NaN.)"""
    c = config
    n, f2, beat = c.lattice_periods_n, c.atomic_frequency_hz, c.beat_frequency_hz
    checks = [
        ("trap", "lattice_periods_n", n, n is None or 1 <= n <= 10**6,
         "an integer in [1, 1e6]"),
        ("trap", "atomic_frequency_hz", f2, f2 is None or 1.0 <= f2 <= 1e9,
         "in [1, 1e9] Hz"),
        ("lattice", "wavelength_nm", c.wavelength_nm, 1.0 <= c.wavelength_nm <= 1e6,
         "in [1, 1e6] nm"),
        ("lattice", "beat_frequency_hz", beat, beat is None or 0.0 <= beat <= 1e9,
         "in [0, 1e9] Hz (or auto)"),
        ("lattice", "intensity_w_m2", c.intensity_w_m2, 0.0 <= c.intensity_w_m2 <= 1e20,
         "in [0, 1e20] W/m^2"),
        ("lattice", "polarization_angle_rad", c.polarization_angle_rad,
         math.isfinite(c.polarization_angle_rad), "finite"),
        ("lattice", "pulse_ms", c.pulse_ms, 0.0 < c.pulse_ms <= 1e3, "in (0, 1000] ms"),
        ("masses", "molecule_u", c.molecule_mass_u, 1.0 <= c.molecule_mass_u <= 1e4,
         "in [1, 1e4] u"),
        ("masses", "atom_u", c.atom_mass_u, 1.0 <= c.atom_mass_u <= 1e4, "in [1, 1e4] u"),
        ("readout", "lamb_dicke", c.lamb_dicke, 0.0 < c.lamb_dicke <= 0.5, "in (0, 0.5]"),
        ("readout", "carrier_rabi_hz", c.carrier_rabi_hz, 0.0 < c.carrier_rabi_hz <= 1e9,
         "in (0, 1e9] Hz"),
        ("readout", "shots", c.shots, c.shots >= 1, ">= 1"),
        ("readout", "seed", c.seed, c.seed >= 0, ">= 0"),
        ("readout", "decoherence_tau_ms", c.decoherence_tau_ms,
         0.0 < c.decoherence_tau_ms <= math.inf, "> 0 ms (inf: none)"),
        ("thresholds", "sigma_multiplier", c.sigma_multiplier,
         0.0 < c.sigma_multiplier <= 100.0, "in (0, 100]"),
        ("thresholds", "resonance_guard_hz", c.resonance_guard_hz,
         0.0 < c.resonance_guard_hz < math.inf, "finite and > 0 Hz"),
        ("thresholds", "reaction_rel_change", c.reaction_rel_change,
         0.0 < c.reaction_rel_change < 1.0, "in (0, 1)"),
    ]
    for section, key, value, ok, rule in checks:
        if not ok:
            raise ConfigError(f"{path}: [{section}] {key} must be {rule}, got {value!r}")
