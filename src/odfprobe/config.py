"""Run configuration: flat key-value text with sections (INI), shipped with a
complete default file so no setting is hidden in code."""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .catalog import (SHIPPED_FAR_BANDS_FILE, SHIPPED_LINES_FILE, LineCatalog,
                      load_line_catalog, shipped_data_path)
from .crystal import TwoIonCrystal
from .quantities import intensity_from_core_anchor
from .stark import AtomicLevelModel, load_shipped_atomic_model

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

    def crystal(self) -> TwoIonCrystal:
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
        return load_shipped_atomic_model("D5/2", theta=self.polarization_angle_rad)

    def hash(self) -> str:
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
    n, f2, beat = (config.lattice_periods_n, config.atomic_frequency_hz,
                   config.beat_frequency_hz)
    checks = [
        (n is None or n >= 1, "lattice_periods_n must be >= 1"),
        (f2 is None or (math.isfinite(f2) and f2 > 0.0),
         "atomic_frequency_hz must be finite and > 0"),
        (beat is None or (math.isfinite(beat) and beat >= 0.0),
         "beat_frequency_hz must be finite and >= 0 (or auto)"),
        (math.isfinite(config.polarization_angle_rad),
         "polarization_angle_rad must be finite"),
        (config.wavelength_nm > 0.0, "wavelength_nm must be > 0"),
        (config.intensity_w_m2 >= 0.0, "intensity must be >= 0"),
        (config.pulse_ms > 0.0, "pulse_ms must be > 0"),
        (config.molecule_mass_u > 0.0, "molecule mass must be > 0"),
        (config.atom_mass_u > 0.0, "atom mass must be > 0"),
        (0.0 < config.lamb_dicke <= 0.5, "lamb_dicke must be in (0, 0.5]"),
        (config.carrier_rabi_hz > 0.0, "carrier_rabi_hz must be > 0"),
        (config.shots >= 1, "shots must be >= 1"),
        (config.seed >= 0, "seed must be >= 0"),
        # inf is allowed: readout reads it as no decoherence
        (config.decoherence_tau_ms > 0.0, "decoherence_tau_ms must be > 0"),
        (config.sigma_multiplier > 0.0, "sigma_multiplier must be > 0"),
        (config.resonance_guard_hz > 0.0, "resonance_guard_hz must be > 0"),
        (0.0 < config.reaction_rel_change < 1.0, "reaction_rel_change must be in (0, 1)"),
        (math.isfinite(config.intensity_w_m2), "intensity must be finite"),
    ]
    for ok, message in checks:
        if not ok:
            raise ConfigError(f"{path}: {message}")
