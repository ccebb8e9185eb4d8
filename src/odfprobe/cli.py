"""Command-line front end.

Subcommands: enumerate | spectrum | simulate | calibrate | identify |
windows | classify.  Outputs are plot-ready CSVs plus a manifest carrying
the config hash and seed; exit codes are 0 (ok), 2 (validation error),
3 (numeric failure).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .catalog import write_table
from .config import ConfigError, RunConfig, check_bound, load_config

# Each cmd_* imports the modules it calls, so a cold command loads only what
# it runs: a config error stops at config, and only calibrate loads readout.

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

# spectrum writes one row per state and wavelength: 1e5 wavelengths over the
# 540 states is already 54 million rows.
MAX_SPECTRUM_STEPS = 100_000
# nmax = 2k lists 12 (k + 1)(2k + 1) states, 10 332 at 40.  N = 40 lies about
# 3150 cm^-1 (B N(N + 1), B = 1.92 cm^-1) above N = 0, fifteen times kT at
# room temperature, and the shipped line list ends at N'' = 10.
MAX_NMAX = 40
# calibrate writes one template file per count: 1000 take about 1 s and 4 MB.
MAX_CALIBRATION_COUNT = 1000
# simulate --sweep runs one point per count: about 0.5 s simulated (3 ms
# pulse), 50 us linearized, where no step budget applies; np.linspace of 1e9
# points alone is 8 GB.
MAX_SWEEP_POINTS = 10_000


def _write_manifest(outdir: Path, command: str, config: RunConfig, extra=None):
    manifest = {
        "tool": f"odfprobe {__version__}",
        "command": command,
        "config_hash": config.hash(),
        "seed": config.seed,
    }
    manifest.update(extra or {})
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2),
                                          encoding="utf-8")


def _outdir(args) -> Path:
    """The output directory, made once the command's work has succeeded, so
    that a failed run leaves none behind."""
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _check_nmax(nmax: int) -> None:
    if nmax > MAX_NMAX:
        raise ValueError(f"--nmax must be at most {MAX_NMAX}, got {nmax}")


def cmd_enumerate(args, config: RunConfig) -> int:
    _check_nmax(args.nmax)
    from .states import enumerate_states

    states = enumerate_states(args.nmax)
    print(f"{len(states)} states with even N <= {args.nmax} (v = 0)")
    outdir = _outdir(args)
    path = outdir / f"states_n{args.nmax}.csv"
    write_table(path, ["N", "J_x2", "I", "F_x2", "m_x2"],
                ([s.n, s.j.twice, s.i_nuc, "" if s.f is None else s.f.twice, s.m.twice]
                 for s in states))
    _write_manifest(outdir, "enumerate", config, {"states": len(states)})
    print(f"wrote {path}")
    return EXIT_OK


def cmd_spectrum(args, config: RunConfig) -> int:
    _check_nmax(args.nmax)
    if not 1 <= args.steps <= MAX_SPECTRUM_STEPS:
        raise ValueError(f"--steps must be in [1, {MAX_SPECTRUM_STEPS}], got {args.steps}")
    for flag, value in (("--lambda-min", args.lambda_min),
                        ("--lambda-max", args.lambda_max)):
        check_bound("wavelength_nm", value, flag)
    import numpy as np

    from .stark import stark_table
    from .states import NUCLEAR_SPIN_ISOMERS, enumerate_states

    catalog = config.catalog()
    isomers = NUCLEAR_SPIN_ISOMERS if args.isomer is None else (args.isomer,)
    states = [s for s in enumerate_states(args.nmax, isomers) if s.n >= args.nmin]
    if not states:
        raise ValueError(f"no states selected (nmin {args.nmin}, nmax {args.nmax}, "
                         f"isomer {args.isomer})")
    wavelengths = np.linspace(args.lambda_min, args.lambda_max, args.steps)
    table = stark_table(states, catalog)
    fixed = [[str(v) for v in (s.n, s.j.twice, s.i_nuc,
                               "" if s.f is None else s.f.twice, s.m.twice)]
             for s in table.states]
    outdir = _outdir(args)
    path = outdir / "stark_spectrum.csv"
    skipped = 0

    def rows():
        # one wavelength at a time: the sweep is never held whole
        nonlocal skipped
        for lam in wavelengths:
            shifts, flagged = table.shifts(lam, config.intensity_w_m2,
                                           guard_hz=config.resonance_guard_hz)
            lam_text = f"{lam:.5f}"
            for columns, shift, hit in zip(fixed, shifts.tolist(), flagged.tolist()):
                if hit:
                    skipped += 1
                else:
                    yield [lam_text, *columns, f"{shift:.4f}"]

    write_table(path, ["wavelength_nm", "N", "J_x2", "I", "F_x2", "m_x2", "shift_hz"],
                rows())
    _write_manifest(outdir, "spectrum", config,
                    {"states": len(states), "wavelengths": len(wavelengths),
                     "near_resonant_skipped": skipped})
    print(f"wrote {path} ({len(states)} states x {len(wavelengths)} wavelengths, "
          f"{skipped} near-resonant points skipped)")
    return EXIT_OK


def cmd_simulate(args, config: RunConfig) -> int:
    if args.sweep:
        lo, hi, count = args.sweep
        if not (count >= 1 and count.is_integer()):
            raise ValueError(f"--sweep COUNT must be an integer >= 1, got {count:g}")
        if count > MAX_SWEEP_POINTS:
            raise ValueError(f"--sweep COUNT must be at most {MAX_SWEEP_POINTS}, "
                             f"got {count:g}")
        check_bound("beat_frequency_hz", lo, "--sweep LO")
        check_bound("beat_frequency_hz", hi, "--sweep HI")
    import numpy as np

    from .crystal import LatticeDrive, TwoIonCrystal
    from .dynamics import (IntegrationError, SimulationConfig, end_state_plan,
                           integration_steps, linearized_prediction, mode_amplitude,
                           simulate_odf, step_plan, sweep_beat_frequency)
    from .stark import atomic_stark_shift

    crystal = config.crystal()
    crystal_op = TwoIonCrystal.from_distance(
        crystal.m1_u, crystal.m2_u, crystal.d + config.wavelength_nm * 1e-9 / 4.0)
    print(f"crystal: d = {crystal.d * 1e6:.4f} um, u0 = {crystal.u0:.4e} N/m")
    print(f"f_IP(SP) = {crystal.f_ip / 1e3:.2f} kHz, "
          f"f_IP(OP distance) = {crystal_op.f_ip / 1e3:.2f} kHz, "
          f"f_OP_mode = {crystal.omega_plus / (2e3 * math.pi):.2f} kHz")
    atomic_shift = atomic_stark_shift(config.atomic_model(), config.wavelength_nm,
                                      config.intensity_w_m2)
    drive = LatticeDrive.for_crystal(
        crystal, config.wavelength_nm, args.molecular_shift, atomic_shift,
        beat_frequency_hz=config.beat_frequency_hz,
        duration_s=config.pulse_ms * 1e-3,
    )
    print(f"drive: {drive.configuration}, beat {drive.beat_frequency_hz / 1e3:.2f} kHz, "
          f"shifts ({drive.shift1_hz:.1f}, {drive.shift2_hz:.1f}) Hz")
    sim_config = SimulationConfig(crystal, drive)
    facts = {"f_ip_sp_hz": crystal.f_ip, "f_ip_op_hz": crystal_op.f_ip}
    try:
        if args.sweep:
            beats = np.linspace(lo, hi, int(count))
            rows = sweep_beat_frequency(sim_config, beats, use_simulator=not args.linearized)
        else:
            trajectory = simulate_odf(sim_config)
    except IntegrationError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    if not (args.sweep and args.linearized):
        # a sweep point stores the samples of its end-state run
        points = ([replace(sim_config, drive=replace(drive, beat_frequency_hz=float(beat)))
                   for beat in beats] if args.sweep else [sim_config])
        plan = end_state_plan if args.sweep else step_plan
        facts["samples"] = plan(sim_config)[0]
        facts["integration_steps"] = sum(integration_steps(point, *plan(point))
                                         for point in points)
    outdir = _outdir(args)
    if args.sweep:
        path = outdir / "beat_sweep.csv"
        write_table(path, ["beat_hz", "ip_amplitude_m"],
                    ([f"{f:.3f}", f"{amp:.8e}"] for f, amp in rows))
        peak = max(rows, key=lambda r: r[1])
        print(f"wrote {path}; peak at {peak[0] / 1e3:.3f} kHz")
    else:
        excitation = mode_amplitude(trajectory)
        linear = linearized_prediction(sim_config)
        path = outdir / "trajectory.csv"
        trajectory.export_csv(path)
        print(f"wrote {path}")
        print(f"in-phase mode: n = {excitation.n_minus:.2f} "
              f"(linearized {linear.n_minus:.2f}), "
              f"out-of-phase n = {excitation.n_plus:.3f}")
    _write_manifest(outdir, "simulate", config, facts)
    return EXIT_OK


def cmd_calibrate(args, config: RunConfig) -> int:
    for flag, value in (("--shift-min", args.shift_min), ("--shift-max", args.shift_max)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value:g}")
    if args.count > MAX_CALIBRATION_COUNT:
        raise ValueError(f"--count must be at most {MAX_CALIBRATION_COUNT}, "
                         f"got {args.count}")
    import numpy as np

    from .readout import ReadoutPipeline, build_calibration

    crystal = config.crystal()
    pipeline = ReadoutPipeline(
        crystal,
        wavelength_nm=config.wavelength_nm,
        pulse_s=config.pulse_ms * 1e-3,
        eta=config.lamb_dicke,
        carrier_rabi_hz=config.carrier_rabi_hz,
        decoherence_tau_s=config.decoherence_tau_ms * 1e-3,
    )
    shifts = np.linspace(args.shift_min, args.shift_max, args.count)
    cal = build_calibration(shifts, pipeline,
                            shots=None if args.noiseless else config.shots,
                            seed=config.seed)
    outdir = _outdir(args)
    for shift, template in zip(cal.shifts_hz, cal.templates):
        # the shortest repr, so distinct shifts never share a file name
        name = repr(shift).removesuffix(".0")
        write_table(outdir / f"template_{name}Hz.csv", ["t_s", "P", "shots"],
                    template.export_rows())
    _write_manifest(outdir, "calibrate", config, {
        "shifts_hz": list(cal.shifts_hz),
        "templates": len(cal.templates),
    })
    print(f"wrote {len(cal.templates)} calibration templates to {outdir}")
    return EXIT_OK


def cmd_identify(args, config: RunConfig) -> int:
    _check_nmax(args.nmax)
    from .identify import (background_shift_hz, format_report_text,
                           identification_report, predict_catalog_shifts,
                           read_measurements, write_report_json)

    # a refused row stops here, before the catalog, the states or stark load
    measurements = read_measurements(args.measurements)
    from .stark import NearResonanceError
    from .states import enumerate_states

    catalog = config.catalog()
    states = enumerate_states(args.nmax)
    reports = []
    for index, meas in enumerate(measurements, start=1):
        predictions = predict_catalog_shifts(
            meas.wavelength_nm, meas.intensity_w_m2, states, catalog,
            guard_hz=config.resonance_guard_hz)
        report = identification_report(meas, predictions,
                                       ks=(1.0, config.sigma_multiplier))
        print(f"--- measurement {index} ---")
        try:
            background = background_shift_hz(meas.wavelength_nm, meas.intensity_w_m2,
                                             catalog, config.resonance_guard_hz)
        except NearResonanceError as exc:
            background = None
            print(f"background shift unavailable: {exc}")
        report["background_shift_hz"] = background
        reports.append(report)
        print(format_report_text(report))
    outdir = _outdir(args)
    write_report_json({"reports": reports}, outdir / "identification.json")
    _write_manifest(outdir, "identify", config, {"measurements": len(measurements)})
    print(f"wrote {outdir / 'identification.json'}")
    return EXIT_OK


def cmd_windows(args, config: RunConfig) -> int:
    from .identify import apply_partial_readout, exclusion_window, read_measurements

    catalog = config.catalog()
    red_min, blue_max = exclusion_window(args.exclude_up_to, catalog)
    print(f"manifold N'' <= {args.exclude_up_to}:")
    print(f"  red side: lattice > {red_min:.3f} nm is red of every line "
          "(a blue measurement excludes the manifold)")
    print(f"  blue side: lattice < {blue_max:.3f} nm is blue of every line "
          "(a red measurement excludes the manifold)")
    if args.measurements:
        for meas in read_measurements(args.measurements):
            verdict = apply_partial_readout(meas, args.exclude_up_to, catalog)
            print(f"  {meas.wavelength_nm:.4f} nm, sign {meas.sign}: {verdict}")
    return EXIT_OK


def cmd_classify(args, config: RunConfig) -> int:
    from .identify import classify_event, read_measurements

    measurements = read_measurements(args.measurements)
    if len(measurements) < 2:
        raise ValueError("need at least two measurements (before/after pairs)")
    for before, after in zip(measurements, measurements[1:]):
        event = classify_event(before, after,
                               reaction_threshold=config.reaction_rel_change,
                               k=config.sigma_multiplier)
        print(f"f_ip {before.f_ip_hz / 1e3:.1f} -> {after.f_ip_hz / 1e3:.1f} kHz, "
              f"sign {before.sign} -> {after.sign}: {event}")
    return EXIT_OK


def _add_common(parser):
    parser.add_argument("--config", default="default",
                        help="config file path or 'default' (shipped)")
    parser.add_argument("--out", default="odfprobe-out",
                        help="output directory (created if missing)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odfprobe",
        description="Phase-sensitive optical-dipole-force state detection "
                    "for a two-ion crystal",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="enumerate hyperfine-Zeeman states")
    p.add_argument("--nmax", type=int, default=8)
    _add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("spectrum", help="per-state Stark-shift sweep over wavelength")
    p.add_argument("--nmin", type=int, default=0)
    p.add_argument("--nmax", type=int, default=8)
    p.add_argument("--isomer", type=int, choices=(0, 2), default=None)
    p.add_argument("--lambda-min", type=float, default=785.0)
    p.add_argument("--lambda-max", type=float, default=790.0)
    p.add_argument("--steps", type=int, default=201)
    _add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("simulate", help="simulate the lattice-driven crystal motion")
    p.add_argument("--molecular-shift", type=float, default=-1000.0,
                   help="signed single-beam molecular shift in Hz")
    p.add_argument("--sweep", nargs=3, type=float, metavar=("LO", "HI", "COUNT"),
                   default=None, help="sweep the beat frequency (Hz)")
    p.add_argument("--linearized", action="store_true",
                   help="use the analytic linearized model for sweeps")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("calibrate", help="build the shift-calibration templates")
    p.add_argument("--shift-min", type=float, default=800.0)
    p.add_argument("--shift-max", type=float, default=4600.0)
    p.add_argument("--count", type=int, default=6)
    p.add_argument("--noiseless", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("identify", help="match measurements against predictions")
    p.add_argument("--measurements", required=True)
    p.add_argument("--nmax", type=int, default=8)
    _add_common(p)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("windows", help="partial-readout exclusion thresholds")
    p.add_argument("--exclude-up-to", type=int, required=True, metavar="NMAX")
    p.add_argument("--measurements", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_windows)

    p = sub.add_parser("classify", help="classify reaction/quantum-jump events")
    p.add_argument("--measurements", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return args.func(args, config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
