"""Run configuration: flat key-value text with sections (INI).

Each key is declared once, on its ``RunConfig`` field: its section, its name,
the parser of its text, its value when absent (or that it is required) and
its bound.  The shipped ``default.cfg`` sets every key but the two optional
ones to that same value, and a test keeps the two equal."""

from __future__ import annotations

import configparser
import json
import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

from .catalog import (SHIPPED_FAR_BANDS_FILE, SHIPPED_LINES_FILE, LineCatalog,
                      load_line_catalog, shipped_data_path)
from .quantities import DEFAULT_RESONANCE_GUARD_HZ, intensity_from_core_anchor

if TYPE_CHECKING:
    from .crystal import TwoIonCrystal
    from .stark import AtomicLevelModel

DEFAULT_CONFIG_FILE = "default.cfg"
_REQUIRED = object()     # the absent-key value of a key a config must set


class ConfigError(ValueError):
    pass


def _key(section, parse=float, absent=_REQUIRED, ok=None, rule="", key=None):
    """The declaration of one config key: ``[section] key`` (the field's name
    unless given) is read by ``parse``, is ``absent`` when not set, and must
    satisfy ``ok``, which ``rule`` states."""
    return field(metadata={"section": section, "key": key, "parse": parse,
                           "absent": absent, "ok": ok, "rule": rule})


def _beat(text: str) -> float | None:
    text = text.strip()
    return None if text in ("", "auto") else float(text)


@dataclass(frozen=True)
class RunConfig:
    """Validated settings for the command-line front end.

    Every number must be finite (but for an infinite decoherence time, which
    readout reads as none) and inside the range its arithmetic survives: at
    [lattice] wavelength_nm = 1e300 the ion spacing cubed overflows, at
    [masses] molecule_u = 1e-30 a mode frequency divides by zero, at
    [lattice] intensity_w_m2 = 1e-300 every predicted shift underflows to 0.0
    Hz, and at [readout] carrier_rabi_hz = 1e300 the Rabi phase has no
    significant digit.
    The bounds lie far outside any trapped-ion experiment.  (A chained
    comparison is False for NaN.)"""

    # trap: exactly one of the two is set
    lattice_periods_n: int | None = _key(
        "trap", int, None, lambda n: 1 <= n <= 10**6, "an integer in [1, 1e6]")
    atomic_frequency_hz: float | None = _key(
        "trap", float, None, lambda f: 1.0 <= f <= 1e9, "in [1, 1e9] Hz")
    # lattice
    wavelength_nm: float = _key(
        "lattice", ok=lambda v: 1.0 <= v <= 1e6, rule="in [1, 1e6] nm")
    beat_frequency_hz: float | None = _key(     # None -> resonant with the IP mode
        "lattice", _beat, None, lambda v: 0.0 <= v <= 1e9, "in [0, 1e9] Hz (or auto)")
    intensity_w_m2: float = _key(               # resolved value
        "lattice", float, None, lambda v: 1.0 <= v <= 1e20, "in [1, 1e20] W/m^2")
    intensity_mode: str = _key(                 # "core_anchor" | "explicit"
        "lattice", str.strip, "core_anchor")
    polarization_angle_rad: float = _key("lattice", float, 0.0, math.isfinite, "finite")
    pulse_ms: float = _key("lattice", float, 3.0, lambda v: 0.0 < v <= 1e3,
                           "in (0, 1000] ms")
    # masses
    molecule_mass_u: float = _key("masses", key="molecule_u",
                                  ok=lambda v: 1.0 <= v <= 1e4, rule="in [1, 1e4] u")
    atom_mass_u: float = _key("masses", key="atom_u",
                              ok=lambda v: 1.0 <= v <= 1e4, rule="in [1, 1e4] u")
    # catalog
    lines_path: str = _key("catalog", str.strip, "builtin", key="lines")
    far_bands_path: str = _key("catalog", str.strip, "builtin", key="far_bands")
    # readout
    lamb_dicke: float = _key("readout", float, 0.1, lambda v: 0.0 < v <= 0.5,
                             "in (0, 0.5]")
    carrier_rabi_hz: float = _key("readout", float, 50e3, lambda v: 0.0 < v <= 1e9,
                                  "in (0, 1e9] Hz")
    shots: int = _key("readout", int, 20, lambda v: v >= 1, ">= 1")
    seed: int = _key("readout", int, 1234, lambda v: v >= 0, ">= 0")
    decoherence_tau_ms: float = _key("readout", float, 1.5,
                                     lambda v: 0.0 < v <= math.inf, "> 0 ms (inf: none)")
    # thresholds
    sigma_multiplier: float = _key("thresholds", float, 2.0,
                                   lambda v: 0.0 < v <= 100.0, "in (0, 100]")
    resonance_guard_hz: float = _key("thresholds", float, DEFAULT_RESONANCE_GUARD_HZ,
                                     lambda v: 0.0 < v < math.inf, "finite and > 0 Hz")
    reaction_rel_change: float = _key("thresholds", float, 3e-3,
                                      lambda v: 0.0 < v < 1.0, "in (0, 1)")

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
        """The configured catalog, read once per config so that every
        prediction shares the Stark tables cached for it."""
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


# field name -> (section, key, declaration) of every key, in field order
_DECLARED = {f.name: (f.metadata["section"], f.metadata["key"] or f.name, f.metadata)
             for f in fields(RunConfig) if f.metadata}

# Every section and key load_config reads; anything else is a ConfigError.
KNOWN_KEYS = {section: tuple(k for s, k, _ in _DECLARED.values() if s == section)
              for section, _, _ in _DECLARED.values()}


def check_bound(name: str, value: float, flag: str | None = None) -> None:
    """Hold ``value``, a quantity of the RunConfig field ``name``, to the bound
    declared there, which must admit only finite values; the error names
    ``flag``, the command-line flag that carried the value, if given."""
    _, key, declared = _DECLARED[name]
    if not declared["ok"](value):
        where = f"{flag}: " if flag else ""
        raise ValueError(f"{where}{key} must be finite and {declared['rule']}, "
                         f"got {value:g}")


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

    values = {}
    for name, (section, key, declared) in _DECLARED.items():
        if not parser.has_option(section, key):
            if declared["absent"] is _REQUIRED:
                raise ConfigError(f"{path}: missing [{section}] {key}")
            values[name] = declared["absent"]
            continue
        try:
            values[name] = declared["parse"](parser.get(section, key))
        except ValueError as exc:
            raise ConfigError(f"{path}: bad value for [{section}] {key}: {exc}") from exc

    if (values["lattice_periods_n"] is None) == (values["atomic_frequency_hz"] is None):
        raise ConfigError(
            f"{path}: [trap] must set exactly one of lattice_periods_n or "
            "atomic_frequency_hz"
        )
    intensity_mode = values["intensity_mode"]
    if intensity_mode == "explicit":
        if values["intensity_w_m2"] is None:
            raise ConfigError(f"{path}: intensity_mode=explicit needs intensity_w_m2")
    elif intensity_mode == "core_anchor":
        if values["intensity_w_m2"] is not None:
            raise ConfigError(
                f"{path}: intensity_w_m2 conflicts with intensity_mode=core_anchor; "
                "exactly one intensity specification is allowed"
            )
        values["intensity_w_m2"] = intensity_from_core_anchor()
    else:
        raise ConfigError(f"{path}: unknown intensity_mode {intensity_mode!r}")

    for name, (section, key, declared) in _DECLARED.items():
        value = values[name]
        if declared["ok"] is not None and value is not None and not declared["ok"](value):
            raise ConfigError(f"{path}: [{section}] {key} must be {declared['rule']}, "
                              f"got {value!r}")
    return RunConfig(**values,
                     raw_items={s: dict(parser.items(s)) for s in parser.sections()})
