import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from odfprobe.catalog import SHIPPED_LINES_FILE, shipped_data_path
from odfprobe.cli import MAX_SPECTRUM_STEPS, main
from odfprobe import dynamics, stark
from odfprobe.config import KNOWN_KEYS, ConfigError, RunConfig, load_config
from odfprobe.quantities import ATOMIC_MASS, polarizability_to_shift
from odfprobe.stark import NearResonanceError, polarizability_breakdown
from odfprobe.states import enumerate_states

BASE_CONFIG = """\
[trap]
lattice_periods_n = 19
[lattice]
wavelength_nm = 789.0
intensity_mode = core_anchor
[masses]
molecule_u = 28.0
atom_u = 40.0
[catalog]
lines = builtin
far_bands = builtin
[readout]
[thresholds]
"""


class TestConfig:
    def test_default_config_loads(self):
        config = load_config("default")
        assert config.lattice_periods_n == 19
        assert config.wavelength_nm == 789.0
        assert config.intensity_mode == "core_anchor"
        assert config.intensity_w_m2 == pytest.approx(1.15e7, rel=1e-2)
        assert config.crystal().f_ip == pytest.approx(695.86e3, abs=0.1e3)
        assert len(config.catalog().lines) == 62
        assert config.hash()

    def test_trap_must_have_exactly_one_spec(self, tmp_path):
        both = BASE_CONFIG.replace(
            "lattice_periods_n = 19",
            "lattice_periods_n = 19\natomic_frequency_hz = 646400.0")
        path = tmp_path / "both.cfg"
        path.write_text(both)
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(path)
        neither = BASE_CONFIG.replace("lattice_periods_n = 19\n", "")
        path.write_text(neither)
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(path)

    def test_intensity_must_have_exactly_one_spec(self, tmp_path):
        conflicting = BASE_CONFIG.replace(
            "intensity_mode = core_anchor",
            "intensity_mode = core_anchor\nintensity_w_m2 = 1e7")
        path = tmp_path / "conflict.cfg"
        path.write_text(conflicting)
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(path)

    def test_explicit_intensity(self, tmp_path):
        explicit = BASE_CONFIG.replace(
            "intensity_mode = core_anchor",
            "intensity_mode = explicit\nintensity_w_m2 = 2.0e7")
        path = tmp_path / "explicit.cfg"
        path.write_text(explicit)
        assert load_config(path).intensity_w_m2 == 2.0e7

    def test_atomic_frequency_trap_spec(self, tmp_path):
        alt = BASE_CONFIG.replace("lattice_periods_n = 19",
                                  "atomic_frequency_hz = 646400.0")
        path = tmp_path / "freq.cfg"
        path.write_text(alt)
        crystal = load_config(path).crystal()
        assert math.sqrt(crystal.u0 / (crystal.m2_u * ATOMIC_MASS)) == pytest.approx(
            2.0 * 3.141592653589793 * 646400.0, rel=1e-12)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="does not exist"):
            load_config("/nonexistent.cfg")

    def test_catalog_read_once(self):
        config = load_config("default")
        assert config.catalog() is config.catalog()

    @pytest.mark.parametrize("far_bands, count", [("none", 0), ("far.csv", 1),
                                                  ("builtin", 8)])
    def test_far_bands_honoured_with_builtin_lines(self, tmp_path, far_bands, count):
        far = tmp_path / "far.csv"
        far.write_text("band,wavelength_nm,einstein_A\nB-X,391.15,1.05e7\n")
        if far_bands == "far.csv":
            far_bands = far
        path = tmp_path / "far.cfg"
        path.write_text(BASE_CONFIG.replace("far_bands = builtin",
                                            f"far_bands = {far_bands}"))
        catalog = load_config(path).catalog()
        assert len(catalog.lines) == 62
        assert len(catalog.far_bands) == count

    @pytest.mark.parametrize("extra, named", [
        ("[thresholds]\nsigma_multipler = 3.0", "[thresholds] sigma_multipler"),
        ("[thresholds]\npower_fraction = 0.1", "[thresholds] power_fraction"),
        ("[lattice]\nwavelength = 789.0", "[lattice] wavelength"),
        ("[detector]\nshots = 5", "[detector]"),
    ])
    def test_unknown_key_rejected(self, tmp_path, extra, named):
        section = extra.partition("\n")[0]
        text = BASE_CONFIG.replace(section + "\n", extra + "\n") \
            if section in BASE_CONFIG else BASE_CONFIG + extra + "\n"
        path = tmp_path / "typo.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match="unknown") as info:
            load_config(path)
        assert named in str(info.value)

    def test_config_written_from_items_loads(self, tmp_path):
        # A config written back from a loaded config's items, as tools that
        # derive variants of the default do, loads to the same settings.
        config = load_config("default")
        path = tmp_path / "copy.cfg"
        path.write_text("".join(
            f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items())
            for section, values in config.raw_items.items()))
        assert load_config(path) == config

    def test_required_keys_alone_load_the_default(self, tmp_path):
        # every value a key takes when absent equals the one default.cfg sets
        path = tmp_path / "required.cfg"
        path.write_text("[trap]\nlattice_periods_n = 19\n"
                        "[lattice]\nwavelength_nm = 789.0\n"
                        "[masses]\nmolecule_u = 28.0\natom_u = 40.0\n")
        required, default = load_config(path), load_config("default")
        for f in dataclasses.fields(RunConfig):
            if f.name != "raw_items":
                assert getattr(required, f.name) == getattr(default, f.name), f.name

    def test_default_cfg_sets_every_key_but_the_optional_ones(self):
        shipped = {(section, key) for section, values in
                   load_config("default").raw_items.items() for key in values}
        declared = {(section, key) for section, keys in KNOWN_KEYS.items()
                    for key in keys}
        assert shipped == declared - {("trap", "atomic_frequency_hz"),
                                      ("lattice", "intensity_w_m2")}

    @pytest.mark.parametrize("key, value", [
        ("beat_frequency_hz", "fast"),
        ("beat_frequency_hz", "-5.0"),
        ("beat_frequency_hz", "nan"),
        ("decoherence_tau_ms", "-1"),
        ("decoherence_tau_ms", "0"),
        ("decoherence_tau_ms", "nan"),
        ("seed", "-1"),
        ("polarization_angle_rad", "inf"),
        ("lattice_periods_n", "0"),
        ("atomic_frequency_hz", "-646400.0"),
        ("atomic_frequency_hz", "inf"),
    ])
    def test_bad_value_is_validation_error(self, tmp_path, capsys, key, value):
        section = next(s for s, keys in KNOWN_KEYS.items() if key in keys)
        text = BASE_CONFIG.replace("lattice_periods_n = 19\n", "")
        text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
        if section != "trap":
            text = text.replace("[trap]\n", "[trap]\nlattice_periods_n = 19\n")
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match=key):
            load_config(path)
        code = main(["enumerate", "--config", str(path), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert key in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("key, value", [
        ("beat_frequency_hz", ""),
        ("beat_frequency_hz", "0"),
        ("decoherence_tau_ms", "inf"),
        ("seed", "0"),
    ])
    def test_edge_value_loads(self, tmp_path, key, value):
        section = next(s for s, keys in KNOWN_KEYS.items() if key in keys)
        path = tmp_path / "edge.cfg"
        path.write_text(BASE_CONFIG.replace(f"[{section}]\n",
                                            f"[{section}]\n{key} = {value}\n"))
        load_config(path)

    @pytest.mark.parametrize("section, key, value, command", [
        ("lattice", "wavelength_nm", "1e300",
         ["simulate", "--linearized", "--sweep", "694000", "698000", "3"]),
        ("lattice", "wavelength_nm", "inf", ["enumerate"]),
        ("lattice", "pulse_ms", "inf", ["simulate"]),
        ("masses", "molecule_u", "1e-300", ["simulate"]),
        ("readout", "carrier_rabi_hz", "1e300", ["calibrate", "--noiseless", "--count", "3"]),
        ("thresholds", "sigma_multiplier", "inf", ["enumerate"]),
        ("lattice", "intensity_w_m2", "0", ["spectrum", "--steps", "2"]),
        ("lattice", "intensity_w_m2", "1e-300", ["spectrum", "--steps", "2"]),
    ])
    def test_out_of_range_value_is_named(self, tmp_path, capsys, section, key, value,
                                         command):
        # each of these once ended in a traceback, an unnamed "math domain
        # error" or exit 0 (a zero or underflowing intensity: every shift 0.0 Hz)
        path = config_with(tmp_path, section, key, value)
        code = main(command + ["--config", str(path), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2
        assert f"[{section}] {key} must be" in captured.err
        assert f"got {float(value)!r}" in captured.err
        assert "Traceback" not in captured.err
        assert not (tmp_path / "out").exists()

    def test_bad_value_reported(self, tmp_path):
        bad = BASE_CONFIG.replace("wavelength_nm = 789.0", "wavelength_nm = nm")
        path = tmp_path / "bad.cfg"
        path.write_text(bad)
        with pytest.raises(ConfigError, match="wavelength_nm"):
            load_config(path)

    @pytest.mark.parametrize("section, key", [("lattice", "wavelength_nm"),
                                              ("masses", "molecule_u")])
    def test_missing_key_is_named(self, tmp_path, capsys, section, key):
        path = tmp_path / "missing.cfg"
        path.write_text("".join(line for line in BASE_CONFIG.splitlines(keepends=True)
                                if not line.startswith(f"{key} =")))
        message = f"{path}: missing [{section}] {key}"
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        assert str(excinfo.value) == message
        code = main(["enumerate", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {message}\n"


MEASUREMENTS = """\
wavelength_nm,intensity_W_m2,shift_Hz,sigma_Hz,sign,f_ip_Hz
789.71,1.1508e7,1229.9,130.0,red,694920.0
789.71,1.1508e7,400.0,60.0,red,690800.0
"""


def reference_spectrum(config, states, wavelengths):
    """CSV rows and skipped count of a Stark sweep, from a per-state loop
    over ``polarizability_breakdown`` that skips guarded states."""
    catalog = config.catalog()
    rows, skipped = [], 0
    for lam in wavelengths:
        for s in states:
            try:
                alpha = polarizability_breakdown(
                    s, lam, catalog, guard_hz=config.resonance_guard_hz).total_au
            except NearResonanceError:
                skipped += 1
                continue
            shift = polarizability_to_shift(alpha, config.intensity_w_m2)
            rows.append([f"{lam:.5f}", str(s.n), str(s.j.twice), str(s.i_nuc),
                         "" if s.f is None else str(s.f.twice), str(s.m.twice),
                         f"{shift:.4f}"])
    return rows, skipped


class TestCli:
    def test_enumerate(self, tmp_path, capsys):
        assert main(["enumerate", "--nmax", "8", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "540 states" in out
        assert (tmp_path / "states_n8.csv").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["states"] == 540
        assert manifest["config_hash"]

    def test_windows(self, capsys, tmp_path):
        assert main(["windows", "--exclude-up-to", "4", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "789.3" in out  # red threshold near 789.4 nm

    def test_windows_with_measurements(self, tmp_path, capsys):
        meas = tmp_path / "meas.csv"
        meas.write_text(MEASUREMENTS.replace("red,694920.0", "blue,694920.0", 1))
        code = main(["windows", "--exclude-up-to", "4",
                     "--measurements", str(meas), "--out", str(tmp_path)])
        assert code == 0
        assert "excluded" in capsys.readouterr().out

    def test_identify(self, tmp_path, capsys):
        meas = tmp_path / "meas.csv"
        meas.write_text(MEASUREMENTS)
        code = main(["identify", "--measurements", str(meas),
                     "--nmax", "4", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "identification.json").read_text())
        assert len(report["reports"]) == 2
        assert "candidate" in capsys.readouterr().out

    def test_identify_near_resonance_flags_without_refusing(self, tmp_path, capsys):
        # 18 MHz from R1(1/2): only the 12 N=0 J=1/2 states are refused.
        meas = tmp_path / "meas.csv"
        meas.write_text(MEASUREMENTS.splitlines()[0] + "\n"
                        + "787.4755,1.1508e7,1200.0,150.0,blue,694920.0\n")
        code = main(["identify", "--measurements", str(meas), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "12 flagged" in captured.out
        assert "Traceback" not in captured.err

    def test_identify_tier_labels_must_differ(self, tmp_path, capsys):
        # sigma_multiplier = 1.0000001 would print as a second "k=1" tier
        meas = tmp_path / "meas.csv"
        meas.write_text(MEASUREMENTS)
        path = config_with(tmp_path, "thresholds", "sigma_multiplier", "1.0000001")
        code = main(["identify", "--config", str(path), "--measurements", str(meas),
                     "--nmax", "4", "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2
        assert "(1.0, 1.0000001)" in captured.err and "tier label" in captured.err
        assert "Traceback" not in captured.err
        assert not (tmp_path / "out").exists()
        # an equal multiplier is one tier
        path = config_with(tmp_path, "thresholds", "sigma_multiplier", "1")
        assert main(["identify", "--config", str(path), "--measurements", str(meas),
                     "--nmax", "4", "--out", str(tmp_path / "out")]) == 0
        reports = json.loads((tmp_path / "out" / "identification.json").read_text())
        assert [list(r["tiers"]) for r in reports["reports"]] == [["k=1"], ["k=1"]]

    def test_classify(self, tmp_path, capsys):
        meas = tmp_path / "meas.csv"
        meas.write_text(MEASUREMENTS)
        assert main(["classify", "--measurements", str(meas),
                     "--out", str(tmp_path)]) == 0
        assert "reaction" in capsys.readouterr().out

    def test_classify_needs_two_rows(self, tmp_path, capsys):
        meas = tmp_path / "one.csv"
        meas.write_text(MEASUREMENTS.splitlines()[0] + "\n"
                        + MEASUREMENTS.splitlines()[1] + "\n")
        assert main(["classify", "--measurements", str(meas),
                     "--out", str(tmp_path)]) == 2
        assert "error: need at least two measurements (before/after pairs)" \
            in capsys.readouterr().err

    def test_calibrate(self, tmp_path, capsys):
        code = main(["calibrate", "--count", "4", "--noiseless",
                     "--out", str(tmp_path)])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["templates"] == 4
        assert len(list(tmp_path.glob("template_*.csv"))) == 4

    @pytest.mark.parametrize("flags, names", [
        ([], ["800", "1560", "2320", "3080", "3840", "4600"]),
        # shifts 0.25 Hz apart, which whole-hertz names merged into 2 files
        (["--shift-min", "100", "--shift-max", "101", "--count", "5"],
         ["100", "100.25", "100.5", "100.75", "101"]),
    ], ids=["default", "close shifts"])
    def test_calibrate_writes_one_file_per_template(self, tmp_path, capsys, flags, names):
        code = main(["calibrate", "--noiseless", "--out", str(tmp_path)] + flags)
        assert code == 0
        assert f"wrote {len(names)} calibration templates" in capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.glob("template_*Hz.csv")) \
            == sorted(f"template_{name}Hz.csv" for name in names)

    @pytest.mark.parametrize("section, key, value", [
        ("trap", "lattice_periods_n", "1000"), ("trap", "atomic_frequency_hz", "1000"),
        ("lattice", "pulse_ms", "100"), ("masses", "molecule_u", "1e4"),
        ("masses", "atom_u", "1"),
    ])
    def test_calibrate_beyond_the_fock_cutoff_is_named(self, tmp_path, capsys, section, key,
                                                       value):
        path = config_with(tmp_path, section, key, value)
        code = main(["calibrate", "--noiseless", "--count", "3", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: populations must sum to 1 within 1e-6, got ")
        assert "Hz mode shift gives a mean phonon number of" in captured.err
        assert captured.err.endswith(", beyond the 1600-level Fock cutoff\n")
        assert not (tmp_path / "out").exists()

    def test_calibrate_non_finite_shift_is_validation_error(self, tmp_path, capsys):
        code = main(["calibrate", "--noiseless", "--shift-min", "nan",
                     "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "--shift-min must be finite" in captured.err
        assert "Traceback" not in captured.err
        assert not list(tmp_path.glob("template_*.csv"))

    @pytest.mark.parametrize("shift_max", ["1e200", "1e300"])
    def test_calibrate_overflowing_shift_is_validation_error(self, tmp_path, capsys,
                                                             shift_max):
        # the mean phonon number of such a shift overflows to inf
        code = main(["calibrate", "--noiseless", "--shift-max", shift_max,
                     "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "non-finite mean phonon number" in captured.err
        assert "Traceback" not in captured.err

    def test_simulate_crossed_ions_is_numeric_failure(self, tmp_path, capsys):
        # Real ions never cross (the 1-D Coulomb barrier is infinite), so a
        # crossing reports a step too coarse for the motion, as under a
        # 10 GHz lattice.
        code = main(["simulate", "--molecular-shift", "1e10", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 3
        assert "ions crossed" in captured.err
        assert "Traceback" not in captured.err

    def test_simulate_chaotic_drive_is_numeric_failure(self, tmp_path, capsys):
        # At a 1 GHz molecular shift the lattice drags the molecule across
        # its sites, and the end state changes when the step halves.
        path = tmp_path / "short.cfg"
        path.write_text(BASE_CONFIG.replace("intensity_mode = core_anchor",
                                            "intensity_mode = core_anchor\npulse_ms = 0.2"))
        code = main(["simulate", "--config", str(path), "--molecular-shift", "1e9",
                     "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 3
        assert "end state depends on the step" in captured.err
        assert "in-phase mode: n =" not in captured.out
        assert not (tmp_path / "trajectory.csv").exists()
        assert "Traceback" not in captured.err

    def test_simulate_linearized_sweep(self, tmp_path, capsys):
        code = main(["simulate", "--molecular-shift", "-1000",
                     "--sweep", "694000", "698000", "5", "--linearized",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "f_IP(SP) = 695.86 kHz" in out
        assert "f_IP(OP distance) = 669.27 kHz" in out
        assert (tmp_path / "beat_sweep.csv").exists()

    def test_simulate_nan_sweep_is_validation_error(self, tmp_path, capsys):
        code = main(["simulate", "--linearized", "--sweep", "nan", "700000", "3",
                     "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "beat_frequency_hz must be finite" in captured.err
        assert "peak at" not in captured.out
        assert not (tmp_path / "beat_sweep.csv").exists()

    @pytest.mark.parametrize("count", ["0", "-2", "2.5", "nan"])
    def test_simulate_sweep_count_is_validated(self, tmp_path, capsys, count):
        code = main(["simulate", "--linearized", "--sweep", "690000", "700000", count,
                     "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "--sweep COUNT must be an integer >= 1" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("linearized", [True, False], ids=["linearized", "simulator"])
    @pytest.mark.parametrize("sweep, flag", [
        (["1e300", "1e301", "2"], "--sweep LO"),
        (["694000", "2e9", "3"], "--sweep HI"),
    ], ids=["LO", "HI"])
    def test_simulate_sweep_outside_beat_bound_is_named(self, tmp_path, capsys, linearized,
                                                        sweep, flag):
        # held to [lattice] beat_frequency_hz's bound; 1e300 once printed a
        # 298-digit peak, and the simulator did not finish it in 20 s
        code = main(["simulate", "--sweep", *sweep, "--out", str(tmp_path)]
                    + ["--linearized"] * linearized)
        captured = capsys.readouterr()
        assert code == 2
        assert f"{flag}: beat_frequency_hz must be finite and in [0, 1e9] Hz" \
            in captured.err
        assert "peak at" not in captured.out
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("flags, beat", [
        (["--sweep", "2e7", "2e7", "1"], "2e+07"),
        (["--sweep", "1e9", "1e9", "1"], "1e+09"),
        ([], "1e+09"),
    ], ids=["sweep-2e7", "sweep-1e9", "config-1e9"])
    def test_simulate_over_the_step_budget_is_validation_error(self, tmp_path, capsys,
                                                               flags, beat):
        # the step follows the beat, so a 3 ms pulse at these beats once ran
        # for minutes to hours
        config = [] if flags else [
            "--config", str(config_with(tmp_path, "lattice", "beat_frequency_hz", "1e9"))]
        start = time.monotonic()
        code = main(["simulate", *flags, *config, "--out", str(tmp_path / "out")])
        elapsed = time.monotonic() - start
        captured = capsys.readouterr()
        assert code == 2
        assert f"error: a {beat} Hz beat over a 3 ms pulse needs " in captured.err
        assert "integration steps, more than the 1000000 allowed" in captured.err
        assert "Traceback" not in captured.err
        assert not list(tmp_path.rglob("*.csv"))
        assert not (tmp_path / "out").exists()
        assert elapsed < 10.0

    @pytest.mark.parametrize("argv, message", [
        # about 6e10 states
        (["enumerate", "--nmax", "100000"], "--nmax must be at most 40, got 100000"),
        (["spectrum", "--nmax", "42"], "--nmax must be at most 40, got 42"),
        (["identify", "--nmax", "100000", "--measurements", "missing.csv"],
         "--nmax must be at most 40, got 100000"),
        # one template per count
        (["calibrate", "--count", "1000000000"],
         "--count must be at most 1000, got 1000000000"),
        # np.linspace of 1e9 points alone is 8 GB
        (["simulate", "--linearized", "--sweep", "690000", "700000", "1e9"],
         "--sweep COUNT must be at most 10000, got 1e+09"),
    ], ids=["nmax-enumerate", "nmax-spectrum", "nmax-identify", "count", "sweep"])
    def test_counts_beyond_their_bound_are_validation_errors(self, tmp_path, capsys, argv,
                                                             message):
        start = time.monotonic()
        code = main(argv + ["--out", str(tmp_path / "out")])
        elapsed = time.monotonic() - start
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()
        assert elapsed < 5.0

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--molecular-shift", "1e10"], "ions crossed"),
    ], ids=["simulate-ions-crossed"])
    def test_numeric_failure_makes_no_output_directory(self, tmp_path, capsys, argv, message):
        # --out was once made before the work ran, so a failed run left it empty
        code = main(argv + ["--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 3
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, per_sample", [
        # one step per stored sample near f_IP
        ([], 1),
        # each sweep point stores only its end state: one sample, after 16
        # to 18 steps per in-phase period near f_IP
        (["--sweep", "690000", "700000", "2"], None),
        # a lattice this deep takes five steps per sample, and is run again
        # at ten
        (["--molecular-shift=-1e6"], 15),
    ], ids=["pulse", "sweep", "deep-drive"])
    def test_simulate_manifest_reports_the_kernel_work(self, tmp_path, monkeypatch, argv,
                                                       per_sample):
        taken = []
        integrate = dynamics._integrate

        def counting(config, samples, stride):
            taken.append((config.drive.beat_frequency_hz, samples * stride))
            return integrate(config, samples, stride)

        monkeypatch.setattr(dynamics, "_integrate", counting)
        path = config_with(tmp_path, "lattice", "pulse_ms", "0.05")
        assert main(["simulate", "--config", str(path), *argv,
                     "--out", str(tmp_path / "out")]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["integration_steps"] == sum(steps for _, steps in taken)
        crystal = load_config(path).crystal()
        samples = int(25 * crystal.omega_plus / (2.0 * np.pi) * 0.05e-3)
        if per_sample is None:
            assert manifest["samples"] == 1
            assert [beat for beat, _ in taken] == [690000.0, 700000.0]
            for beat, steps in taken:
                periods = max(beat, crystal.f_ip) * 0.05e-3
                assert 16 * periods <= steps <= 18 * periods
        else:
            assert manifest["samples"] == samples
            assert manifest["integration_steps"] == per_sample * samples

    def test_identify_far_band_row_flags_all_states(self, tmp_path, capsys):
        # 1109.14 nm is the A(v'=0) far band itself.
        meas = tmp_path / "meas.csv"
        meas.write_text(MEASUREMENTS.splitlines()[0] + "\n"
                        + "1109.14,1.1508e7,900.0,95.0,red,694920.0\n")
        code = main(["identify", "--measurements", str(meas), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "540 flagged" in captured.out
        assert "far band A(v'=0)" in captured.out
        assert "Traceback" not in captured.err
        (report,) = json.loads((tmp_path / "identification.json").read_text())["reports"]
        assert report["background_shift_hz"] is None

    @pytest.mark.parametrize("guard, background", [("1e6", 9372129.0), ("1e9", None)])
    def test_identify_background_uses_the_configured_guard(self, tmp_path, capsys, guard,
                                                           background):
        # 0.37 GHz from the A(v'=0) far band: inside the default guard only
        meas = tmp_path / "meas.csv"
        meas.write_text(MEASUREMENTS.splitlines()[0] + "\n"
                        + "1109.1415,1.1508e7,900.0,95.0,red,694920.0\n")
        path = config_with(tmp_path, "thresholds", "resonance_guard_hz", guard)
        code = main(["identify", "--measurements", str(meas), "--config", str(path),
                     "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert ("background shift unavailable" in captured.out) == (background is None)
        (report,) = json.loads((tmp_path / "identification.json").read_text())["reports"]
        if background is None:
            assert report["background_shift_hz"] is None
        else:
            assert report["background_shift_hz"] == pytest.approx(background, abs=1.0)

    def test_missing_measurement_file_is_validation_error(self, tmp_path, capsys):
        code = main(["identify", "--measurements", "/nonexistent.csv",
                     "--out", str(tmp_path)])
        assert code == 2

    def test_nan_measurement_is_validation_error(self, tmp_path, capsys):
        meas = tmp_path / "meas.csv"
        meas.write_text(MEASUREMENTS + "789.0,1.1508e7,nan,nan,red,694920.0\n")
        code = main(["identify", "--measurements", str(meas),
                     "--nmax", "4", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "must be finite" in captured.err
        assert "Traceback" not in captured.err
        assert "excluded" not in captured.out

    @pytest.mark.parametrize("command", ["identify", "windows", "classify"])
    @pytest.mark.parametrize("row, message", [
        ("1e-300,11500000.0,500.0,30.0,red,694920.0",
         "wavelength_nm must be finite and in [1, 1e6] nm, got 1e-300"),
        ("789.0,1e30,500.0,30.0,red,694920.0",
         "intensity_w_m2 must be finite and in [1, 1e20] W/m^2, got 1e+30"),
        ("789.0,0.0,10.0,30.0,red,694920.0",
         "intensity_w_m2 must be finite and in [1, 1e20] W/m^2, got 0"),
        ("789.0,1e-300,10.0,30.0,red,694920.0",
         "intensity_w_m2 must be finite and in [1, 1e20] W/m^2, got 1e-300"),
        ("nan,11500000.0,500.0,30.0,red,694920.0",
         "wavelength_nm must be finite and in [1, 1e6] nm, got nan"),
    ], ids=["wavelength", "intensity", "zero-intensity", "underflow-intensity",
            "nan-wavelength"])
    def test_measurement_outside_config_bound_is_named(self, tmp_path, capsys, command,
                                                       row, message):
        # a row at 1e-300 nm once predicted all 540 states at the core term
        # alone and excluded every one of them; one at 0 W/m^2 predicted
        # every shift as 0.0 Hz and excluded all 540 states of a red row, and
        # so did one at 1e-300 W/m^2, where every shift underflows to 0.0 Hz
        meas = tmp_path / "meas.csv"
        meas.write_text(MEASUREMENTS + row + "\n")
        code = main(CONTRACT_COMMANDS[command] + ["--measurements", str(meas),
                                                  "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {meas}:4: {message}\n"
        assert "excluded" not in captured.out
        assert not (tmp_path / "out").exists()

    def test_zero_f_ip_is_validation_error(self, tmp_path, capsys):
        meas = tmp_path / "meas.csv"
        meas.write_text(MEASUREMENTS.replace("red,694920.0", "red,0.0", 1))
        code = main(["classify", "--measurements", str(meas), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "in-phase mode frequency must be > 0" in captured.err
        assert "Traceback" not in captured.err

    def test_bad_config_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[trap]\n")
        code = main(["enumerate", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2

    def test_spectrum_small(self, tmp_path, capsys):
        code = main(["spectrum", "--nmax", "0", "--isomer", "0",
                     "--lambda-min", "788.5", "--lambda-max", "789.5",
                     "--steps", "5", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "stark_spectrum.csv").exists()

    def test_spectrum_matches_reference_loop(self, tmp_path, capsys):
        # The window holds R1(1/2) at 787.4755 nm, so guarded points occur.
        code = main(["spectrum", "--lambda-min", "787.47", "--lambda-max", "787.48",
                     "--steps", "5", "--out", str(tmp_path)])
        assert code == 0
        with (tmp_path / "stark_spectrum.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        skipped = json.loads((tmp_path / "manifest.json").read_text())[
            "near_resonant_skipped"]
        expected_rows, expected_skipped = reference_spectrum(
            load_config("default"), enumerate_states(8),
            np.linspace(787.47, 787.48, 5))
        assert expected_skipped == 24
        assert skipped == expected_skipped
        assert rows == expected_rows

    def test_outputs_equal_without_the_stark_memo(self, tmp_path, capsys, monkeypatch):
        # each identify run evaluates 789.71 nm once for its three rows
        meas = tmp_path / "meas.csv"
        meas.write_text(MEASUREMENTS + "787.4755,1.1508e7,1200.0,150.0,blue,694920.0\n"
                        + "1109.14,1.1508e7,900.0,95.0,red,694920.0\n"
                        + "789.71,2.3e7,2459.8,260.0,red,694920.0\n")
        commands = [(["spectrum", "--lambda-min", "787.47", "--lambda-max", "787.48",
                      "--steps", "5"], "stark_spectrum.csv"),
                    (["identify", "--measurements", str(meas)], "identification.json")]
        runs = {}
        for memo in (False, True):
            with monkeypatch.context() as patch:
                if memo:
                    hits = stark._evaluation.cache_info().hits
                else:
                    for name in ("_evaluation", "_far_band_au"):
                        patch.setattr(stark, name, getattr(stark, name).__wrapped__)
                for argv, name in commands:
                    out = tmp_path / f"{argv[0]}-{memo}"
                    assert main(argv + ["--out", str(out)]) == 0
                    runs.setdefault(argv[0], []).append(
                        (capsys.readouterr().out.replace(str(out), "OUT"),
                         (out / name).read_bytes()))
        assert stark._evaluation.cache_info().hits - hits == 2
        assert all(cold == warm for cold, warm in runs.values())

    def test_spectrum_zero_steps_is_validation_error(self, tmp_path, capsys):
        code = main(["spectrum", "--steps", "0", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "--steps" in captured.err
        assert "Traceback" not in captured.err
        assert not (tmp_path / "stark_spectrum.csv").exists()

    @pytest.mark.parametrize("steps", [MAX_SPECTRUM_STEPS + 1, 10**12])
    def test_spectrum_too_many_steps_is_validation_error(self, tmp_path, capsys, steps):
        # refused before the wavelength grid (7 TiB at 10**12 steps) is
        # allocated or the output directory is made
        code = main(["spectrum", "--steps", str(steps), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2
        assert f"--steps must be in [1, {MAX_SPECTRUM_STEPS}], got {steps}" in captured.err
        assert "Traceback" not in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--lambda-min", "--lambda-max"])
    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-5"])
    def test_spectrum_bad_wavelength_flag_is_named(self, tmp_path, capsys, flag, value):
        # refused by the wavelength bound before the sweep, which once turned
        # an inf into a nan
        self.test_spectrum_wavelength_flag_outside_bound_is_named(tmp_path, capsys, flag,
                                                                  value)

    @pytest.mark.parametrize("flag", ["--lambda-min", "--lambda-max"])
    @pytest.mark.parametrize("value", ["1e-300", "0.5", "2e6"])
    def test_spectrum_wavelength_flag_outside_bound_is_named(self, tmp_path, capsys,
                                                             flag, value):
        # held to [lattice] wavelength_nm's bound; 1e-300 nm once wrote
        # 0.00000 nm and -390 Hz for every state
        code = main(["spectrum", "--steps", "2", f"{flag}={value}", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"{flag}: wavelength_nm must be finite and in [1, 1e6] nm, " \
               f"got {float(value):g}" in captured.err
        assert not list(tmp_path.rglob("*.csv"))

    def test_spectrum_empty_selection_is_validation_error(self, tmp_path, capsys):
        code = main(["spectrum", "--nmin", "10", "--nmax", "8", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "no states" in captured.err
        assert "Traceback" not in captured.err


def catalog_config(directory, lines_text, far_text):
    """A config whose catalog is a line CSV and a far-band CSV of the given
    texts."""
    lines = Path(directory) / "lines.csv"
    lines.write_text(lines_text)
    far = Path(directory) / "far.csv"
    far.write_text(far_text)
    path = Path(directory) / "catalog.cfg"
    path.write_text(BASE_CONFIG.replace("lines = builtin", f"lines = {lines}")
                    .replace("far_bands = builtin", f"far_bands = {far}"))
    return path


def far_band_config(tmp_path, far_rows, line_row=None):
    """A config reading a copy of the shipped lines, with ``line_row`` appended,
    and a far-band CSV made of ``far_rows``."""
    text = shipped_data_path(SHIPPED_LINES_FILE).read_text(encoding="utf-8")
    return catalog_config(tmp_path, text + (line_row or ""),
                          "# far bands\n" + FAR_HEADER + far_rows)


# The shipped line file's metadata and the two catalog headers.
LINE_HEADER = ("# core_polarizability_au = 7.23\n"
               "# pi_spin_orbit_A_cm1 = -74.62\n"
               "# pi_rotational_B_cm1 = 1.697425\n"
               "band,branch,N_lower,J_lower_x2,J_upper_x2,wavelength_nm,einstein_A,"
               "mu_squared_au\n")
FAR_HEADER = "band,wavelength_nm,einstein_A\n"


COMMANDS = {
    "identify": ["identify", "--nmax", "4"],
    "classify": ["classify"],
    "windows": ["windows", "--exclude-up-to", "4"],
    "spectrum": ["spectrum", "--nmax", "0", "--steps", "3"],
}


class TestBadInputFiles:
    @pytest.mark.parametrize("command", ["identify", "classify", "windows"])
    def test_short_measurement_row_is_validation_error(self, tmp_path, capsys, command):
        meas = tmp_path / "m.csv"
        meas.write_text(MEASUREMENTS + "789.71,1.1508e7,400.0,60.0,red\n")
        code = main(COMMANDS[command] + ["--measurements", str(meas),
                                         "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"{meas}:4: row has fewer fields than the header" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["identify", "classify", "windows"])
    def test_long_measurement_row_is_validation_error(self, tmp_path, capsys, command):
        meas = tmp_path / "m.csv"
        meas.write_text(MEASUREMENTS + "789.71,1.1508e7,1229.9,130.0,red,694920.0,400.0\n")
        code = main(COMMANDS[command] + ["--measurements", str(meas),
                                         "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"{meas}:4: row has more fields than the header" in captured.err
        assert "Traceback" not in captured.err

    def test_oversized_field_is_validation_error(self, tmp_path, capsys):
        # longer than the csv module's field size limit (131072 characters)
        meas = tmp_path / "m.csv"
        meas.write_text(MEASUREMENTS + "789.71,1.1508e7,400.0,60.0,red," + "9" * 200_000 + "\n")
        code = main(["classify", "--measurements", str(meas), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"{meas}:4: field larger than field limit" in captured.err
        assert "Traceback" not in captured.err

    def test_measurement_line_numbers_count_comments(self, tmp_path, capsys):
        meas = tmp_path / "m.csv"
        lines = MEASUREMENTS.splitlines()
        meas.write_text("# run 7\n# lattice at 789.71 nm\n" + lines[0] + "\n"
                        + lines[1].replace("130.0", "-130.0") + "\n")
        code = main(["identify", "--measurements", str(meas), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"{meas}:4: sigma must be > 0" in captured.err

    @pytest.mark.parametrize("command", ["identify", "spectrum", "windows"])
    @pytest.mark.parametrize("far_row, line_row, message", [
        ("B-X,391.15\n", None, "far.csv:3: row has fewer fields"),
        ("B-X,391.15,1.05e7\n", "A-X,Q12,12,23,23,789.5,1.1e4\n",
         "lines.csv:75: row has fewer fields"),
        ("B-X,391.15,-1e6\n", None, "far.csv:3: far band B-X: einstein_A must be finite"),
        ("B-X,nan,1.05e7\n", None, "far.csv:3: far band B-X: wavelength must be finite"),
        ("B-X,391.15,1.05e7\n", "A-X,Q12,12,23,23,789.5,nan,\n",
         "lines.csv:75: line Q12(23/2): strength must be finite"),
        ("B-X,391.15,1.05e7,99\n", None, "far.csv:3: row has more fields"),
        # omega^3 underflows to 0 at 1e300 nm, so the band strength is infinite
        ("B-X,1e300,1.05e7\n", None, "far.csv:3: far band B-X: strength must be finite"),
        ("B-X,391.15,1.05e7\n", "A-X,Q12,12,23,23,1e300,1.1e4,\n",
         "lines.csv:75: line Q12(23/2): strength must be finite"),
    ], ids=["short far row", "short line row", "negative far A", "nan far wavelength",
            "nan line A", "long far row", "1e300 nm far band", "1e300 nm line"])
    def test_bad_catalog_row_is_validation_error(self, tmp_path, capsys, command,
                                                 far_row, line_row, message):
        path = far_band_config(tmp_path, far_row, line_row)
        args = COMMANDS[command] + ["--config", str(path), "--out", str(tmp_path)]
        if command == "identify":
            meas = tmp_path / "m.csv"
            meas.write_text(MEASUREMENTS.replace("789.71", "789.0"))
            args += ["--measurements", str(meas)]
        code = main(args)
        captured = capsys.readouterr()
        assert code == 2
        assert f"{tmp_path}/{message}" in captured.err
        assert "Traceback" not in captured.err
        assert "excluded" not in captured.out

    def test_unparsable_pi_constant_names_its_file(self, tmp_path, capsys):
        # once printed "error: could not convert string to float: 'abc'" alone
        text = shipped_data_path(SHIPPED_LINES_FILE).read_text(encoding="utf-8")
        path = catalog_config(tmp_path, text.replace("# pi_spin_orbit_A_cm1 = -74.62",
                                                     "# pi_spin_orbit_A_cm1 = abc"),
                              FAR_HEADER)
        code = main(["windows", "--exclude-up-to", "4", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (f"error: {tmp_path}/lines.csv: pi_spin_orbit_A_cm1 and "
                                "pi_rotational_B_cm1 must be numbers: could not convert "
                                "string to float: 'abc'\n")
        assert not (tmp_path / "out").exists()


class TestCatalogCoverage:
    """The shipped catalog ends at N'' = 10: a state above it has no line to
    predict its shift from, and is refused instead of given the far-band and
    core background alone."""

    @pytest.mark.parametrize("argv", [
        ["identify", "--nmax", "12"],
        ["spectrum", "--nmin", "12", "--nmax", "12", "--steps", "2"],
    ], ids=["identify", "spectrum"])
    def test_levels_beyond_the_catalog_are_refused(self, tmp_path, capsys, argv):
        meas = tmp_path / "meas.csv"
        meas.write_text(MEASUREMENTS)
        if argv[0] == "identify":
            argv = argv + ["--measurements", str(meas)]
        code = main(argv + ["--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: the catalog has no line from N'' = 12, J'' = ")
        assert "(it covers N'' <= 10)" in captured.err
        assert "Traceback" not in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["identify", "--nmax", "10"],
        ["spectrum", "--nmin", "10", "--nmax", "10", "--steps", "2"],
    ], ids=["identify", "spectrum"])
    def test_levels_the_catalog_covers_are_predicted(self, tmp_path, capsys, argv):
        meas = tmp_path / "meas.csv"
        meas.write_text(MEASUREMENTS)
        if argv[0] == "identify":
            argv = argv + ["--measurements", str(meas)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 0
        assert any((tmp_path / "out").iterdir())


# One row each: plain, 12 states guarded (18 MHz from R1(1/2)), a far band
# inside the guard (0.37 GHz from A(v'=0)), and the experiments' wavelength.
PINNED_MEASUREMENTS = """\
wavelength_nm,intensity_W_m2,shift_Hz,sigma_Hz,sign,f_ip_Hz
789.0,11500000.0,500.0,30.0,red,694920.0
787.4755,11500000.0,800.0,40.0,blue,694920.0
1109.1415,11500000.0,800.0,40.0,blue,694920.0
789.71,11500000.0,1032.0,20.0,blue,694920.0
"""

# SHA-256 of each command's exit code, stdout (output path as "<out>") and
# output files (name and bytes, in name order).  These commands' arithmetic
# is IEEE +, -, *, / and sqrt, so their bytes do not depend on the CPU's
# vector paths; calibrate and simulate are left out for that reason.
PINNED_OUTPUTS = {
    "enumerate":
        "a22222929701928a3ee5cff3a5af9ea90926b3280fde3f90c4fdb04adad1275d",
    "spectrum-defaults":
        "fc86c3a98f3c68d8eff92c30f0df2082982f01d9311d95c5a7b5e31d7b78a54c",
    "spectrum-near-line":
        "764d693d1fb1c69a98d28318764234b88e82d649d9c706292d7a71ea4a28bdd6",
    "spectrum-far-band":
        "d5bb6b87240da42867a5b4fec5e752ac77baa9f6782f5d684f019c8d435f8ea8",
    "identify":
        "26aa48b64e779cf8aef29cb9c742492412c8c90fddb679bdfc79d8420ee73102",
    "windows":
        "f84a474a377f329db04938b8d330f87285b3964fca1723373b7092bdd122bae3",
    "classify":
        "a9aa8db281f07539cc2ab931b17214195d08b1561d6631956d655da7845f8f35",
}


MEAS = object()     # stands for the path of the PINNED_MEASUREMENTS file


class TestPinnedOutputs:
    """The deterministic commands write the same bytes as when recorded."""

    ARGV = {
        "enumerate": ["enumerate"],
        "spectrum-defaults": ["spectrum"],
        # the 12 N = 0, J = 1/2 states guarded at two points: 24 skipped
        "spectrum-near-line": ["spectrum", "--lambda-min", "787.47",
                               "--lambda-max", "787.48", "--steps", "5"],
        # 1109.14 nm, the third point, is the A(v'=0) far band: 540 skipped
        "spectrum-far-band": ["spectrum", "--lambda-min", "1109.1",
                              "--lambda-max", "1109.2", "--steps", "6"],
        "identify": ["identify", "--measurements", MEAS],
        "windows": ["windows", "--exclude-up-to", "4", "--measurements", MEAS],
        "classify": ["classify", "--measurements", MEAS],
    }

    @pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
    def test_bytes_as_recorded(self, tmp_path, capsys, name):
        meas = tmp_path / "meas.csv"
        meas.write_text(PINNED_MEASUREMENTS)
        out = tmp_path / "out"
        argv = [str(meas) if arg is MEAS else arg for arg in self.ARGV[name]]
        code = main(argv + ["--out", str(out)])
        digest = hashlib.sha256(f"{code}\n".encode())
        digest.update(capsys.readouterr().out.replace(str(out), "<out>").encode())
        for path in sorted(out.iterdir()) if out.exists() else ():
            digest.update(f"\n{path.name}\n".encode() + path.read_bytes())
        assert digest.hexdigest() == PINNED_OUTPUTS[name]


def _refuse_constant(name):
    raise ValueError(f"identification.json holds {name}, which is not JSON")


def _mostly(good, bad, one_in=8):
    # One draw in one_in (eight by default) is a bad one, so many rows pass
    # validation.
    return st.integers(0, one_in - 1).flatmap(lambda i: bad if i == 0 else good)


def _field(finite, *specials):
    return _mostly(finite, st.sampled_from(specials)).map(repr)


def _row(fields):
    # The last draw drops the last field (-1), keeps the row (0) or adds one (1).
    *values, extra = fields
    return ",".join(values[:len(values) + extra] + ["400.0"] * extra)


# One measurement row as text: mostly plausible values, with every kind of
# bad one mixed in, and now and then a field dropped or added.
MEASUREMENT_ROWS = st.tuples(
    _field(st.floats(380.0, 1200.0), float("nan"), float("inf"), -789.71, 0.0),
    _field(st.floats(1e6, 1e8), 0.0, -1.1508e7, 1e300, 1.7e308, float("nan"),
           float("-inf")),
    _field(st.floats(0.0, 5000.0), 0.0, -400.0, 1e300, float("nan")),
    _field(st.floats(1.0, 500.0), 0.0, -60.0, 1e300, float("inf")),
    _mostly(st.sampled_from(["red", "blue", "indeterminate"]),
            st.sampled_from(["", "Red", " blue ", "green"])),
    _field(st.floats(6.8e5, 7.1e5), 0.0, -694920.0, float("nan")),
    _mostly(st.just(0), st.sampled_from([-1, 1])),
).map(_row)

CONTRACT_COMMANDS = {
    "identify": ["identify"],
    "classify": ["classify"],
    "windows": ["windows", "--exclude-up-to", "4"],
}


# A calibrate shift flag: mostly plausible shifts, with zero, negatives,
# overflowing and non-finite values mixed in.
CALIBRATE_SHIFTS = _mostly(st.floats(1.0, 1e4),
                           st.sampled_from([0.0, -800.0, -1e4, 1e200, -1e200,
                                            float("nan"), float("inf"), float("-inf")]))


def _rarely(good, bad):
    # One catalog draw in 16 is a bad one: a catalog has more fields than a
    # measurement file, and most generated catalogs should still load.
    return _mostly(good, bad, one_in=16)


def _text(finite, *specials):
    # like _field, but the specials are field texts, so "" is an empty field
    return _rarely(finite.map(repr), st.sampled_from(specials))


BRANCHES = ("P1", "P2", "Q1", "Q2", "R1", "R2", "P12", "P21", "Q12", "Q21", "R12", "R21")
DELTA_J = {"P": -1, "Q": 0, "R": 1}


@st.composite
def catalog_line_rows(draw):
    """One line row as text: a branch, N'' <= 20 and J'', J' mostly consistent
    with them; every kind of bad wavelength and strength field mixed in; now
    and then a field dropped or added."""
    branch = draw(_rarely(st.sampled_from(BRANCHES), st.sampled_from(["", "X1", "Q3"])))
    n_lower = draw(st.integers(0, 20))
    two_j = 2 * n_lower + (1 if branch.endswith("1") else -1)
    two_j += draw(_rarely(st.just(0), st.sampled_from([-2, 2])))
    two_j_up = two_j + 2 * DELTA_J.get(branch[:1], 0)
    wavelength = draw(_text(st.floats(700.0, 900.0), "0.0", "-789.0", "nan", "inf",
                            "1e300"))
    if draw(st.booleans()):     # strength from the band Einstein A, or given
        einstein, mu2 = draw(_text(st.floats(1e3, 1e5), "", "nan", "-1e4", "inf")), ""
    else:
        einstein, mu2 = "", draw(_text(st.floats(1e-4, 1e-2), "", "nan", "-1.0", "inf"))
    return _row(["A", branch, str(n_lower), str(two_j), str(two_j_up), wavelength,
                 einstein, mu2, draw(_rarely(st.just(0), st.sampled_from([-1, 1])))])


FAR_BAND_ROWS = st.tuples(
    st.just("B-X"),
    _text(st.floats(300.0, 1200.0), "0.0", "-391.15", "nan", "inf", "1e300"),
    _text(st.floats(0.0, 1e7), "-1e6", "nan", "inf"),
    _rarely(st.just(0), st.sampled_from([-1, 1])),
).map(_row)


# Every numeric config key with its shipped (or a typical) value.  Finite
# draws scale a float by 1e-3 to 1e3, pulses only down from the shipped
# 3 ms, and take an integer from -3 to ten times its value.
CONFIG_NUMBERS = {
    ("trap", "lattice_periods_n"): 19, ("trap", "atomic_frequency_hz"): 646400.0,
    ("lattice", "wavelength_nm"): 789.0, ("lattice", "beat_frequency_hz"): 695860.0,
    ("lattice", "intensity_w_m2"): 1.15e7, ("lattice", "polarization_angle_rad"): 0.3,
    ("lattice", "pulse_ms"): 3.0,
    ("masses", "molecule_u"): 28.0, ("masses", "atom_u"): 40.0,
    ("readout", "lamb_dicke"): 0.1, ("readout", "carrier_rabi_hz"): 50e3,
    ("readout", "shots"): 20, ("readout", "seed"): 1234,
    ("readout", "decoherence_tau_ms"): 1.5,
    ("thresholds", "sigma_multiplier"): 2.0, ("thresholds", "resonance_guard_hz"): 1e9,
    ("thresholds", "reaction_rel_change"): 3e-3,
}
SPECIAL_NUMBERS = ("0", "-1.5", "inf", "-inf", "nan", "1e300", "-1e300", "1e-300")


@st.composite
def config_values(draw):
    """One numeric config key and a value text for it."""
    (section, key), typical = draw(st.sampled_from(sorted(CONFIG_NUMBERS.items())))
    if isinstance(typical, int):
        finite = st.integers(-3, 10 * typical).map(str)
    else:
        top = 0.0 if key == "pulse_ms" else 3.0
        finite = st.floats(-3.0, top).map(lambda e: repr(typical * 10.0 ** e))
    return section, key, draw(_mostly(finite, st.sampled_from(SPECIAL_NUMBERS), one_in=2))


def config_with(directory, section, key, value):
    """The shipped config with one key set to ``value``; an intensity comes
    with intensity_mode = explicit, an atomic frequency in place of the
    lattice periods."""
    items = load_config("default").raw_items
    items[section][key] = value
    if key == "intensity_w_m2":
        items["lattice"]["intensity_mode"] = "explicit"
    if key == "atomic_frequency_hz":
        del items["trap"]["lattice_periods_n"]
    path = Path(directory) / "one_key.cfg"
    path.write_text("".join(f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items())
                            for s, values in items.items()))
    return path


class TestExitCodeContract:
    """Whatever the measurement file, the catalog or the flags hold, a command
    ends with exit 0, 2 or 3 and never a traceback, and a written report is
    strict JSON."""

    def test_config_numbers_cover_every_numeric_key(self):
        # a new numeric key cannot escape test_config_values_exit_...
        declared = {(section, key) for section, keys in KNOWN_KEYS.items()
                    for key in keys}
        text_keys = {("lattice", "intensity_mode"), ("catalog", "lines"),
                     ("catalog", "far_bands")}
        assert set(CONFIG_NUMBERS) == declared - text_keys

    @pytest.mark.parametrize("command", sorted(CONTRACT_COMMANDS))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rows=st.lists(MEASUREMENT_ROWS, min_size=1, max_size=3))
    def test_measurement_rows_exit_with_a_documented_code(self, command, rows):
        with tempfile.TemporaryDirectory() as tmp:
            meas = Path(tmp) / "m.csv"
            meas.write_text(MEASUREMENTS.splitlines()[0] + "\n" + "\n".join(rows) + "\n")
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(CONTRACT_COMMANDS[command]
                            + ["--measurements", str(meas), "--out", tmp])
            assert code in (0, 2, 3)
            if command == "identify" and code == 0:
                report = (Path(tmp) / "identification.json").read_text()
                json.loads(report, parse_constant=_refuse_constant)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(line_rows=st.lists(catalog_line_rows(), min_size=1, max_size=3),
           far_rows=st.lists(FAR_BAND_ROWS, max_size=2))
    @example(line_rows=["A,Q12,4,7,7,788.624,1.14e4,"], far_rows=["B-X,1e300,1.05e7"])
    @example(line_rows=["A,Q12,4,7,7,1e300,1.14e4,"], far_rows=[])
    def test_catalog_rows_exit_with_a_documented_code(self, line_rows, far_rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = catalog_config(tmp, LINE_HEADER + "".join(r + "\n" for r in line_rows),
                                  FAR_HEADER + "".join(r + "\n" for r in far_rows))
            meas = Path(tmp) / "m.csv"
            meas.write_text(MEASUREMENTS)
            for command in (["identify", "--measurements", str(meas)],
                            ["spectrum", "--steps", "2"],
                            ["windows", "--exclude-up-to", "4"]):
                stderr = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(stderr):
                    code = main(command + ["--config", str(path), "--out", tmp])
                assert code in (0, 2, 3)
                assert "Traceback" not in stderr.getvalue()
                if command[0] == "identify" and code == 0:
                    report = (Path(tmp) / "identification.json").read_text()
                    json.loads(report, parse_constant=_refuse_constant)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(shift_min=CALIBRATE_SHIFTS, shift_max=CALIBRATE_SHIFTS,
           count=st.integers(-2, 40), noiseless=st.booleans())
    def test_calibrate_flags_exit_with_a_documented_code(self, shift_min, shift_max,
                                                         count, noiseless):
        # the draws include reversed and equal pairs; "=" keeps a negative
        # value from reading as a flag
        with tempfile.TemporaryDirectory() as tmp:
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(stderr):
                code = main(["calibrate", f"--shift-min={shift_min!r}",
                             f"--shift-max={shift_max!r}", f"--count={count}",
                             "--out", tmp] + ["--noiseless"] * noiseless)
            assert code in (0, 2, 3)
            assert "Traceback" not in stderr.getvalue()

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(setting=config_values())
    @example(setting=("lattice", "wavelength_nm", "1e300"))
    @example(setting=("lattice", "pulse_ms", "inf"))
    @example(setting=("thresholds", "sigma_multiplier", "inf"))
    @example(setting=("lattice", "intensity_w_m2", "0"))
    def test_config_values_exit_with_a_documented_code(self, setting):
        # a non-finite value is refused by name (but an infinite decoherence
        # time, which means none); any other ends in a documented code, and
        # whatever JSON a command writes is strict
        section, key, value = setting
        refused = value in ("inf", "-inf", "nan") \
            and (key, value) != ("decoherence_tau_ms", "inf")
        with tempfile.TemporaryDirectory() as tmp:
            path = config_with(tmp, section, key, value)
            meas = Path(tmp) / "m.csv"
            meas.write_text(MEASUREMENTS)
            for command in (["enumerate"], ["identify", "--measurements", str(meas)],
                            ["spectrum", "--steps", "2"],
                            ["simulate", "--linearized", "--sweep", "694000", "698000", "3"],
                            ["calibrate", "--noiseless", "--count", "3"]):
                out = Path(tmp) / command[0]
                stderr = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(stderr):
                    code = main(command + ["--config", str(path), "--out", str(out)])
                assert code in (0, 2, 3)
                assert "Traceback" not in stderr.getvalue()
                if refused:
                    assert code == 2
                    assert f"[{section}] {key}" in stderr.getvalue()
                for report in out.glob("*.json"):
                    json.loads(report.read_text(), parse_constant=_refuse_constant)
