"""The benchmark's workloads: seeded inputs, one op, and the op's checks.

Every op index ``i`` draws its inputs from ``numpy.random.default_rng([seed,
i])``, so an op's inputs depend only on the seed and its index, never on how
many ops a run managed.  ``inputs(i)`` is untimed, ``run(inputs)`` is the
timed op, and ``check(inputs, output)`` is untimed and returns the problems
found (an empty list when the output is correct).  ``kind(inputs)`` names the
op's kind, one of the class's ``KINDS``: the gated latency takes the median
op of each kind.  ``KNOWN_DEFECTS`` names the failures expected on today's
code, and ``known_defect(inputs, output, error)`` says whether a failed op
shows one of them by its observed signature; such ops count as failed but do
not make the run incorrect.  Any other failure, of the same ops too, does.

Why these four (see also ``BENCHMARK.json``):

* ``spectrum-grid``: Stark-shift prediction for all 540 states at a fresh
  wavelength per op; ``stark`` and ``angular`` do nearly all the work and no
  wavelength repeats, so a wavelength-independent strength table shows its
  full effect and a per-wavelength memo shows none.
* ``readout-identify``: the experiment loop (synthesize, extract, invert,
  predict, identify, classify) with wavelengths repeating from a set of four
  and a calibration refresh every ``REFRESH_EVERY``-th op; ``readout`` does
  most of the work.
* ``odf-sweep``: resonance curves from the classical simulator in the linear
  and the saturated regime; ``dynamics`` does all the work.
* ``cli-cold``: one command per op in a fresh interpreter, rotating over the
  subcommands and malformed inputs; import and loading dominate.
"""

from __future__ import annotations

import csv
import json
import math
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from odfprobe.angular import HalfInt
from odfprobe.crystal import (LatticeDrive, combined_mode_shift,
                              extract_molecular_shift, infer_detuning_sign)
from odfprobe.dynamics import (SimulationConfig, linearized_prediction,
                               sweep_beat_frequency)
from odfprobe.identify import (Measurement, apply_partial_readout,
                               background_shift_hz, classify_event,
                               combined_sigma, exclusion_window,
                               identification_report, predict_catalog_shifts)
from odfprobe.quantities import polarizability_to_shift
from odfprobe.readout import (ReadoutPipeline, build_calibration, extract_shift,
                              iterate_partner_correction)
from odfprobe.stark import atomic_polarizability
from odfprobe.states import MolecularState

SPEED_OF_LIGHT = 299_792_458.0
WARMUP_INDEX = 1_000_000      # input stream of the untimed warm-up op


def op_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def expected_flagged(catalog, states, wavelength_nm: float, guard_hz: float) -> set:
    """States the near-resonance guard must flag: those whose (N'', J'') has a
    catalog line inside the guard, whatever that line's strength for the
    state, or every state when a far band is inside it."""
    nu = SPEED_OF_LIGHT / (wavelength_nm * 1e-9)

    def inside(line_nm):
        return abs(SPEED_OF_LIGHT / (line_nm * 1e-9) - nu) < guard_hz

    if any(inside(band.wavelength_nm) for band in catalog.far_bands):
        return set(states)
    near = {(line.n_lower, line.j_lower.twice) for line in catalog.lines
            if inside(line.wavelength_nm)}
    return {s for s in states if (s.n, s.j.twice) in near}


def check_predictions(predictions, states, catalog, wavelength_nm, guard_hz) -> list[str]:
    problems = []
    if len(predictions) != len(states):
        problems.append(f"{len(predictions)} predictions for {len(states)} states")
    flagged = {p.state for p in predictions if p.shift_hz is None}
    expected = expected_flagged(catalog, states, wavelength_nm, guard_hz)
    if flagged != expected:
        problems.append(f"{wavelength_nm:.6f} nm: {len(flagged)} states flagged, "
                        f"guard says {len(expected)} "
                        f"({len(flagged ^ expected)} differ)")
    if not all(math.isfinite(p.shift_hz) for p in predictions if p.shift_hz is not None):
        problems.append(f"{wavelength_nm:.6f} nm: non-finite predicted shift")
    return problems


def _state_entry(state: MolecularState) -> tuple:
    return (state.n, str(state.j), state.i_nuc,
            None if state.f is None else str(state.f), str(state.m))


def _in_tier(report: dict, tier: str, state: MolecularState) -> bool:
    key = _state_entry(state)
    return any((c["N"], c["J"], c["I"], c["F"], c["m"]) == key
               for c in report["tiers"][tier]["candidates"])


class Context:
    """What set-up loads once per process: default config, catalog, states."""

    def __init__(self, config, catalog, states, seed: int, workdir: Path):
        self.config = config
        self.catalog = catalog
        self.states = states
        self.seed = seed
        self.workdir = workdir
        self.intensity = config.intensity_w_m2
        self.guard_hz = config.resonance_guard_hz


# ---------------------------------------------------------------------------
# spectrum-grid
# ---------------------------------------------------------------------------

class SpectrumGrid:
    """One ``predict_catalog_shifts`` over all 540 states at one wavelength.

    Wavelengths are uniform over the 785-790 nm ``spectrum`` window; every
    ``GUARD_EVERY``-th op sits inside the guard of a catalog line in that
    window, and the others are drawn at least two guards away from every line.
    """

    LO_NM, HI_NM = 785.0, 790.0
    GUARD_EVERY = 8
    KINDS = ("far", "guard")

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.window_lines = [line for line in ctx.catalog.lines
                             if self.LO_NM <= line.wavelength_nm <= self.HI_NM]

    def inputs(self, index: int) -> float:
        rng = op_rng(self.ctx.seed, index)
        guard = self.ctx.guard_hz
        if index % self.GUARD_EVERY == self.GUARD_EVERY - 1:
            line = self.window_lines[int(rng.integers(len(self.window_lines)))]
            nu = SPEED_OF_LIGHT / (line.wavelength_nm * 1e-9)
            return SPEED_OF_LIGHT / (nu + rng.uniform(-0.5, 0.5) * guard) * 1e9
        while True:
            lam = float(rng.uniform(self.LO_NM, self.HI_NM))
            nu = SPEED_OF_LIGHT / (lam * 1e-9)
            if all(abs(SPEED_OF_LIGHT / (line.wavelength_nm * 1e-9) - nu) >= 2.0 * guard
                   for line in self.ctx.catalog.lines):
                return lam

    def kind(self, lam: float) -> str:
        nu = SPEED_OF_LIGHT / (lam * 1e-9)
        near = any(abs(SPEED_OF_LIGHT / (line.wavelength_nm * 1e-9) - nu) < self.ctx.guard_hz
                   for line in self.window_lines)
        return "guard" if near else "far"

    def run(self, lam: float):
        ctx = self.ctx
        return predict_catalog_shifts(lam, ctx.intensity, ctx.states, ctx.catalog,
                                      guard_hz=ctx.guard_hz)

    def check(self, lam: float, predictions) -> list[str]:
        return check_predictions(predictions, self.ctx.states, self.ctx.catalog,
                                 lam, self.ctx.guard_hz)


# ---------------------------------------------------------------------------
# readout-identify
# ---------------------------------------------------------------------------

class ReadoutIdentify:
    """One measurement: synthesize 20-shot SP/OP signals for a true state,
    extract both shifts, invert the pair, predict and identify, classify
    against the previous measurement.  Every ``REFRESH_EVERY``-th op first
    refreshes the partner-corrected calibration (the criterion-09 shape).

    The lattice wavelength comes from 789.0 nm, 789.71 nm and two values
    drawn uniformly over 788.5-790 nm; a value inside the near-resonance guard
    of a catalog line is redrawn, so that every state has a predicted shift.
    True states are drawn from all 540 states, with no filter on their shift:
    mode shifts above the calibration's top node are extracted by
    extrapolation, and above about 9.3 kHz ``ReadoutPipeline.signal`` fails
    (the known defect ``readout-fock-cutoff``).
    """

    SHOTS = 20
    # Refresh ops, about 2.5x a plain op, are the slowest 20%: the reported
    # tail (p50 below 40 ops, p75 up to 100, p90 beyond) never sits at p80,
    # the boundary between the two kinds.
    REFRESH_EVERY = 5
    KINDS = ("plain", "refresh")
    PARTNER_FRACTION, PARTNER_ATOMIC_HZ = 0.185, -5410.0

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.crystal = ctx.config.crystal()
        self.pipeline = ReadoutPipeline(self.crystal)
        self.calibration = build_calibration(np.geomspace(150.0, 5200.0, 12),
                                             self.pipeline)
        self.weight = 2.0 * math.sqrt(self.crystal.mu) * math.sin(self.crystal.theta)
        self.truth = {}         # wavelength -> {state: predicted shift}
        self.atomic = {}        # wavelength -> atomic single-beam shift
        rng = op_rng(ctx.seed, WARMUP_INDEX + 1)
        self.wavelengths = [789.0, 789.71]
        for lam in self.wavelengths:
            self._tabulate(lam)
        while len(self.wavelengths) < 4:
            lam = float(rng.uniform(788.5, 790.0))
            if not expected_flagged(ctx.catalog, ctx.states, lam, ctx.guard_hz):
                self._tabulate(lam)
                self.wavelengths.append(lam)
        self.previous = None

    def _tabulate(self, lam: float):
        ctx = self.ctx
        predictions = predict_catalog_shifts(lam, ctx.intensity, ctx.states, ctx.catalog,
                                             guard_hz=ctx.guard_hz)
        self.truth[lam] = {p.state: p.shift_hz for p in predictions}
        self.atomic[lam] = polarizability_to_shift(
            atomic_polarizability(ctx.config.atomic_model(), lam), ctx.intensity)

    def _mode_shifts(self, lam: float, shift_hz: float) -> tuple[float, float]:
        mu, theta, atomic = self.crystal.mu, self.crystal.theta, self.atomic[lam]
        return (abs(combined_mode_shift(shift_hz, atomic, 0.0, mu, theta)),
                abs(combined_mode_shift(shift_hz, atomic, math.pi, mu, theta)))

    def inputs(self, index: int):
        rng = op_rng(self.ctx.seed, index)
        lam = self.wavelengths[int(rng.integers(len(self.wavelengths)))]
        state = self.ctx.states[int(rng.integers(len(self.ctx.states)))]
        seeds = [int(s) for s in rng.integers(2**31, size=2)]
        refresh = index % self.REFRESH_EVERY == self.REFRESH_EVERY - 1
        return refresh, lam, state, seeds

    def warmup_inputs(self):
        # Fixed, so set-up does the same work on every seed and its signal is
        # always inside the calibration: a warm-up that raised would end the run.
        return False, 789.0, self.ctx.states[0], (0, 1)

    def kind(self, inputs) -> str:
        return "refresh" if inputs[0] else "plain"

    def known_defect(self, inputs, out, error) -> str | None:
        """``readout-fock-cutoff``: ``signal()`` of a mode shift beyond the
        calibration raises the Fock-population ValueError."""
        _, lam, state, _ = inputs
        beyond = max(self._mode_shifts(lam, self.truth[lam][state])) \
            > self.calibration.shifts_hz[-1]
        if beyond and isinstance(error, ValueError) \
                and str(error).startswith("populations must sum to 1"):
            return "readout-fock-cutoff"
        return None

    def run(self, inputs):
        ctx = self.ctx
        do_refresh, lam, state, (seed_sp, seed_op) = inputs
        refresh = None
        if do_refresh:
            partner_cal = build_calibration(np.linspace(800.0, 4600.0, 6), self.pipeline,
                                            true_partner_fraction=self.PARTNER_FRACTION)
            measured = self.pipeline.signal(self.PARTNER_FRACTION
                                            * abs(self.PARTNER_ATOMIC_HZ))
            refresh = iterate_partner_correction(partner_cal, measured,
                                                 self.PARTNER_ATOMIC_HZ)
        sp, op = self._mode_shifts(lam, self.truth[lam][state])
        est_sp = extract_shift(self.pipeline.signal(sp, shots=self.SHOTS, seed=seed_sp),
                               self.calibration)
        est_op = extract_shift(self.pipeline.signal(op, shots=self.SHOTS, seed=seed_op),
                               self.calibration)
        molecular = extract_molecular_shift(est_sp.shift_hz, est_op.shift_hz,
                                            self.crystal.mu, self.crystal.theta)
        sign = infer_detuning_sign(est_sp.shift_hz, est_op.shift_hz,
                                   max(est_sp.sigma_hz, est_op.sigma_hz))
        measurement = Measurement(lam, ctx.intensity, molecular.shift_hz,
                                  math.hypot(est_sp.sigma_hz, est_op.sigma_hz) / self.weight,
                                  sign, self.crystal.f_ip)
        predictions = predict_catalog_shifts(lam, ctx.intensity, ctx.states, ctx.catalog,
                                             guard_hz=ctx.guard_hz)
        report = identification_report(measurement, predictions, ks=(1.0, 2.0))
        background = background_shift_hz(lam, ctx.intensity, ctx.catalog)
        event = None if self.previous is None else classify_event(self.previous, measurement)
        self.previous = measurement
        return dict(state=state, estimates=(est_sp, est_op), measurement=measurement,
                    predictions=predictions, report=report, background=background,
                    event=event, refresh=refresh)

    def check(self, inputs, out) -> list[str]:
        ctx = self.ctx
        m = out["measurement"]
        problems = check_predictions(out["predictions"], ctx.states, ctx.catalog,
                                     m.wavelength_nm, ctx.guard_hz)
        for est in out["estimates"]:
            if not (math.isfinite(est.shift_hz) and math.isfinite(est.sigma_hz)
                    and est.sigma_hz > 0.0):
                problems.append(f"extraction gave shift {est.shift_hz}, sigma {est.sigma_hz}")
        if not (math.isfinite(m.shift_hz) and math.isfinite(m.sigma_hz) and m.sigma_hz > 0.0):
            problems.append(f"measurement shift {m.shift_hz}, sigma {m.sigma_hz}")
        report = out["report"]
        if report["total_states"] != len(ctx.states) or set(report["tiers"]) != {"k=1", "k=2"}:
            problems.append("identification report lacks the k=1/k=2 tiers over all states")
        elif report["tiers"]["k=1"]["candidate_count"] > report["tiers"]["k=2"]["candidate_count"]:
            problems.append("k=1 tier larger than k=2 tier")
        if not (math.isfinite(out["background"]) and out["background"] > 0.0):
            problems.append(f"background shift {out['background']}")
        if out["event"] not in (None, "no_change", "quantum_jump"):
            problems.append(f"event {out['event']!r} at an unchanged f_IP")
        refresh = out["refresh"]
        if refresh is not None:
            error = abs(refresh.fraction - self.PARTNER_FRACTION) / self.PARTNER_FRACTION
            if not refresh.converged or error > 0.03:
                problems.append(f"partner correction converged={refresh.converged}, "
                                f"fraction {refresh.fraction:.4f}")
        return problems

    def identified(self, out) -> bool:
        return _in_tier(out["report"], "k=2", out["state"])


# ---------------------------------------------------------------------------
# odf-sweep
# ---------------------------------------------------------------------------

class OdfSweep:
    """One resonance curve: ``sweep_beat_frequency`` over ``POINTS`` seeded
    beat frequencies within ``0.75 / PULSE_S`` (7.5 kHz) of f_IP.  Even ops
    drive the linear regime (-30 Hz), odd ops the saturated one (-60 kHz,
    where 2 k sqrt(mu) |A-| is about 2.9 on resonance).

    The 0.1 ms pulse keeps an op near 1 s, so a run holds more than a dozen
    curves per kind; under the solver's
    ``max_step`` cap the step count, and so the cost, is proportional to the
    pulse length.
    """

    POINTS = 2
    PULSE_S = 1e-4
    DRIVES_HZ = (-30.0, -60000.0)
    KINDS = ("linear", "saturated")
    WARMUP_PULSE_S = 2e-5     # nothing caches here; the warm-up only runs the path

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.crystal = ctx.config.crystal()

    def config(self, drive_hz: float, pulse_s: float) -> SimulationConfig:
        drive = LatticeDrive.for_crystal(self.crystal, self.ctx.config.wavelength_nm,
                                         drive_hz, 0.0, duration_s=pulse_s)
        return SimulationConfig(self.crystal, drive)

    def inputs(self, index: int):
        rng = op_rng(self.ctx.seed, index)
        span = 0.75 / self.PULSE_S
        offsets = np.sort(rng.uniform(-span, span, size=self.POINTS))
        return index % 2 == 1, self.config(self.DRIVES_HZ[index % 2], self.PULSE_S), \
            self.crystal.f_ip + offsets

    def kind(self, inputs) -> str:
        return "saturated" if inputs[0] else "linear"

    def run(self, inputs):
        _, sim, freqs = inputs
        return sweep_beat_frequency(sim, freqs)

    def check(self, inputs, rows) -> list[str]:
        saturated, sim, _ = inputs
        problems = []
        for freq, amplitude in rows:
            cfg = replace(sim, drive=replace(sim.drive, beat_frequency_hz=freq))
            linear = abs(linearized_prediction(cfg).amplitude_minus)
            if not (math.isfinite(amplitude) and amplitude > 0.0):
                problems.append(f"|A-| = {amplitude} at {freq:.1f} Hz")
            elif not saturated and abs(amplitude / linear - 1.0) > 0.01:
                problems.append(f"linear regime: |A-| {amplitude:.6e} vs linearized "
                                f"{linear:.6e} at {freq:.1f} Hz (> 1%)")
            elif saturated and not amplitude < linear:
                problems.append(f"saturated regime: |A-| {amplitude:.6e} not below "
                                f"linearized {linear:.6e} at {freq:.1f} Hz")
        return problems

    def warmup_inputs(self):
        return False, self.config(self.DRIVES_HZ[0], self.WARMUP_PULSE_S), [self.crystal.f_ip]


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

KNOWN_DEFECTS = {
    "identify-nan": "a NaN shift_Hz/sigma_Hz row is accepted: exit 0 with every "
                    "state falsely excluded, and a bare NaN in identification.json",
    "classify-fip0": "f_ip_Hz = 0 dies in classify_event with a ZeroDivisionError "
                     "traceback and exit 1",
    "readout-fock-cutoff": "ReadoutPipeline.signal caps the Fock cutoff at max_fock, so "
                           "a mode shift above about 9.3 kHz raises 'populations must "
                           "sum to 1'",
}

MEASUREMENT_HEADER = "wavelength_nm,intensity_W_m2,shift_Hz,sigma_Hz,sign,f_ip_Hz\n"


def strict_json(text: str):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


class CliCold:
    """One ``python -m odfprobe.cli`` command in a fresh interpreter per op,
    rotating over ``ROTATION`` (``worker.py`` passes ``command`` to run it
    through ``cli_speed.py`` or, traced, ``cli_shim.py``).  The last three kinds are malformed inputs
    whose documented outcome is exit code 2 (validation error)."""

    ROTATION = ("enumerate", "windows", "classify", "identify", "spectrum",
                "calibrate", "simulate-sweep", "simulate-pulse",
                "identify-nan", "classify-fip0", "bad-config")
    KINDS = ROTATION
    EXPECTED_EXIT = {"identify-nan": 2, "classify-fip0": 2, "bad-config": 2}
    SHORT_PULSE_MS = 0.2
    TIMEOUT_S = 120

    def __init__(self, ctx: Context, command=None):
        self.ctx = ctx
        self.command = command or [sys.executable, "-m", "odfprobe.cli"]
        self.crystal = ctx.config.crystal()
        self.predictions = {
            lam: [p for p in predict_catalog_shifts(lam, ctx.intensity, ctx.states,
                                                    ctx.catalog, guard_hz=ctx.guard_hz)
                  if p.shift_hz is not None]
            for lam in (789.0, 789.71)}
        ctx.workdir.mkdir(parents=True, exist_ok=True)
        default = ctx.config.raw_items
        self.short_cfg = ctx.workdir / "short_pulse.cfg"
        self.bad_cfg = ctx.workdir / "bad.cfg"
        self._write_config(self.short_cfg, default, {("lattice", "pulse_ms"):
                                                     str(self.SHORT_PULSE_MS)})
        self._write_config(self.bad_cfg, default, {("lattice", "intensity_w_m2"): "1e7"})

    @staticmethod
    def _write_config(path: Path, items: dict, overrides: dict):
        lines = []
        for section, values in items.items():
            lines.append(f"[{section}]")
            merged = dict(values)
            merged.update({k: v for (s, k), v in overrides.items() if s == section})
            lines.extend(f"{k} = {v}" for k, v in merged.items())
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def _row(self, lam, shift, sigma, sign, f_ip) -> str:
        return f"{lam!r},{self.ctx.intensity!r},{shift!r},{sigma!r},{sign},{f_ip!r}\n"

    def _measurement_rows(self, rng, count: int):
        rows = []
        for _ in range(count):
            lam = (789.0, 789.71)[int(rng.integers(2))]
            table = self.predictions[lam]
            pred = table[int(rng.integers(len(table)))]
            rows.append((lam, pred))
        return rows

    def inputs(self, index: int):
        """Write the op's input files; returns (kind, argv, out dir, expectation)."""
        kind = self.ROTATION[index % len(self.ROTATION)]
        rng = op_rng(self.ctx.seed, index)
        opdir = self.ctx.workdir / f"op{index % len(self.ROTATION)}"
        opdir.mkdir(parents=True, exist_ok=True)
        out = opdir / "out"
        meas = opdir / "measurements.csv"
        f_ip = self.crystal.f_ip
        common = ["--out", str(out)]
        expect = {}
        if kind == "enumerate":
            argv = ["enumerate"]
        elif kind == "windows":
            rows = [(float(rng.uniform(781.0, 790.0)), s) for s in ("red", "blue")]
            meas.write_text(MEASUREMENT_HEADER + "".join(
                self._row(lam, 500.0, 50.0, sign, f_ip) for lam, sign in rows))
            argv = ["windows", "--exclude-up-to", "4", "--measurements", str(meas)]
            expect["rows"] = rows
        elif kind == "classify":
            rows = []
            for _ in range(3):
                shift = float(rng.uniform(200.0, 2000.0))
                rows.append((shift, 0.1 * shift, ("red", "blue")[int(rng.integers(2))],
                             f_ip * (1.0 - 0.01 * int(rng.integers(2)))))
            meas.write_text(MEASUREMENT_HEADER + "".join(
                self._row(789.71, *r) for r in rows))
            argv = ["classify", "--measurements", str(meas)]
            expect["rows"] = rows
        elif kind in ("identify", "identify-nan"):
            rows = self._measurement_rows(rng, 3)
            text = MEASUREMENT_HEADER + "".join(
                self._row(lam, abs(p.shift_hz), combined_sigma(p.shift_hz, 10.0), p.sign,
                          f_ip) for lam, p in rows)
            if kind == "identify-nan":
                text += self._row(789.0, math.nan, math.nan, "red", f_ip)
            meas.write_text(text)
            argv = ["identify", "--measurements", str(meas)]
            expect["rows"] = rows
        elif kind == "spectrum":
            lo = float(rng.uniform(785.0, 789.5))
            argv = ["spectrum", "--lambda-min", repr(lo), "--lambda-max", repr(lo + 0.5),
                    "--steps", "3"]
        elif kind == "calibrate":
            argv = ["calibrate", "--noiseless"]
        elif kind == "simulate-sweep":
            lo = f_ip + float(rng.uniform(-3000.0, -1000.0))
            argv = ["simulate", "--linearized", "--sweep", repr(lo), repr(lo + 4000.0), "5"]
        elif kind == "simulate-pulse":
            shift = float(rng.uniform(-1500.0, -500.0))
            argv = ["simulate", "--config", str(self.short_cfg),
                    "--molecular-shift", repr(shift)]
        elif kind == "classify-fip0":
            meas.write_text(MEASUREMENT_HEADER + self._row(789.71, 900.0, 95.0, "red", 0.0)
                            + self._row(789.71, 700.0, 80.0, "red", f_ip))
            argv = ["classify", "--measurements", str(meas)]
        else:  # bad-config: intensity_w_m2 alongside intensity_mode = core_anchor
            argv = ["enumerate", "--config", str(self.bad_cfg)]
        return kind, argv + common, out, expect

    def kind(self, inputs) -> str:
        return inputs[0]

    def known_defect(self, inputs, proc, error) -> str | None:
        """``identify-nan``: exit 0 with all 540 states excluded for the NaN
        row; ``classify-fip0``: exit 1 on a ZeroDivisionError traceback."""
        kind = inputs[0]
        if error is not None:
            return None
        if kind == "identify-nan" and proc.returncode == 0:
            nan_block = proc.stdout.partition("|shift| = nan Hz")[2]
            if "[k=2] 0 candidate(s), 540 excluded" in nan_block:
                return kind
        if kind == "classify-fip0" and proc.returncode == 1:
            last = (proc.stderr.strip().splitlines() or [""])[-1]
            if last.startswith("ZeroDivisionError"):
                return kind
        return None

    def run(self, inputs):
        _, argv, _, _ = inputs
        return subprocess.run(self.command + argv, cwd=self.ctx.workdir,
                              capture_output=True, text=True, timeout=self.TIMEOUT_S)

    def check(self, inputs, proc) -> list[str]:
        kind, _, out, expect = inputs
        wanted = self.EXPECTED_EXIT.get(kind, 0)
        if proc.returncode != wanted or "Traceback" in proc.stderr:
            tail = (proc.stderr.strip().splitlines() or [""])[-1]
            return [f"{kind}: exit {proc.returncode}, expected {wanted} ({tail[:160]})"]
        if wanted != 0:
            return []
        try:
            return getattr(self, "_check_" + kind.replace("-", "_"))(proc.stdout, out, expect)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"{kind}: unreadable output ({exc})"]

    def _check_enumerate(self, stdout, out, expect):
        rows = (out / "states_n8.csv").read_text().splitlines()
        if "540 states" not in stdout or len(rows) != 541:
            return [f"enumerate: {len(rows) - 1} rows, stdout {stdout[:80]!r}"]
        strict_json((out / "manifest.json").read_text())
        return []

    def _check_windows(self, stdout, out, expect):
        red, blue = exclusion_window(4, self.ctx.catalog)
        problems = []
        if f"lattice > {red:.3f} nm" not in stdout or f"lattice < {blue:.3f} nm" not in stdout:
            problems.append(f"windows: thresholds {red:.3f}/{blue:.3f} nm not reported")
        for lam, sign in expect["rows"]:
            verdict = apply_partial_readout(
                Measurement(lam, self.ctx.intensity, 500.0, 50.0, sign, self.crystal.f_ip),
                4, self.ctx.catalog)
            if f"sign {sign}: {verdict}" not in stdout:
                problems.append(f"windows: {lam:.4f} nm {sign} should be {verdict}")
        return problems

    def _check_classify(self, stdout, out, expect):
        ms = [Measurement(789.71, self.ctx.intensity, s, sg, sign, f)
              for s, sg, sign, f in expect["rows"]]
        events = [classify_event(a, b, reaction_threshold=self.ctx.config.reaction_rel_change,
                                 k=self.ctx.config.sigma_multiplier)
                  for a, b in zip(ms, ms[1:])]
        got = [line.rsplit(": ", 1)[-1] for line in stdout.strip().splitlines()]
        return [] if got == events else [f"classify: {got} != {events}"]

    def _check_identify(self, stdout, out, expect):
        document = strict_json((out / "identification.json").read_text())
        reports = document["reports"]
        if len(reports) != len(expect["rows"]):
            return [f"identify: {len(reports)} reports for {len(expect['rows'])} rows"]
        return [f"identify: true state {p.state.label()} not in the k=2 tier"
                for report, (_, p) in zip(reports, expect["rows"])
                if not _in_tier(report, "k=2", p.state)]

    def _check_spectrum(self, stdout, out, expect):
        rows = list(csv.reader((out / "stark_spectrum.csv").open()))[1:]
        manifest = strict_json((out / "manifest.json").read_text())
        total = len(rows) + manifest["near_resonant_skipped"]
        values = [float(r[-1]) for r in rows]
        if total != 3 * len(self.ctx.states) or not all(map(math.isfinite, values)):
            return [f"spectrum: {len(rows)} rows + {manifest['near_resonant_skipped']} "
                    f"skipped != 3 x {len(self.ctx.states)}"]
        return []

    def _check_calibrate(self, stdout, out, expect):
        manifest = strict_json((out / "manifest.json").read_text())
        templates = sorted(out.glob("template_*Hz.csv"))
        if manifest["templates"] != 6 or len(templates) < 6:
            return [f"calibrate: {len(templates)} template files"]
        return []

    def _check_simulate_sweep(self, stdout, out, expect):
        rows = list(csv.reader((out / "beat_sweep.csv").open()))[1:]
        amplitudes = [float(r[1]) for r in rows]
        if len(rows) != 5 or not all(math.isfinite(a) and a > 0.0 for a in amplitudes):
            return [f"simulate --sweep: rows {rows}"]
        return []

    def _check_simulate_pulse(self, stdout, out, expect):
        match = re.search(r"in-phase mode: n = ([-+0-9.eE]+) \(linearized ([-+0-9.eE]+)\)",
                          stdout)
        if match is None:
            return [f"simulate: no mode report in {stdout[-120:]!r}"]
        n, n_linear = float(match.group(1)), float(match.group(2))
        rows = list(csv.reader((out / "trajectory.csv").open()))[1:]
        values = [float(x) for row in rows for x in row]
        # Linear regime: n_linear is about 0.03-0.13, printed to 0.01, and the
        # simulated n must match it to that precision.
        if not (0.01 <= n_linear and abs(n - n_linear) <= 0.01 + 1e-9
                and len(rows) > 2 and all(map(math.isfinite, values))):
            return [f"simulate: n = {n} vs linearized {n_linear}, {len(rows)} samples"]
        return []


WORKLOADS = {
    "spectrum-grid": SpectrumGrid,
    "readout-identify": ReadoutIdentify,
    "odf-sweep": OdfSweep,
    "cli-cold": CliCold,
}


# ---------------------------------------------------------------------------
# Accuracy fingerprints, recorded from the code the benchmark was defined on
# ---------------------------------------------------------------------------

FINGERPRINTS = {
    # shift (Hz) of N=6, J=11/2, I=0, m=11/2 at 789.0 nm, default intensity
    "stark_shift_hz": (1032.9485045918009, 1e-9),
    # |A-| (m) of the odf-sweep shape at f_IP + 250 Hz, -30 Hz drive, with a
    # 0.05 ms pulse so that every run can afford it
    "odf_amplitude_m": (3.754291837877159e-11, 1e-6),
    # extracted shift (Hz) of a 20-shot 1500 Hz signal, seed 20201, against
    # the geomspace(150, 5200, 12) calibration
    "extracted_shift_hz": (1501.0322664183939, 1e-6),
}


def measure_fingerprints(ctx: Context) -> dict[str, float]:
    state = MolecularState(6, HalfInt(11), 0, None, HalfInt(11))
    stark = predict_catalog_shifts(789.0, ctx.intensity, [state], ctx.catalog,
                                   guard_hz=ctx.guard_hz)[0].shift_hz
    crystal = ctx.config.crystal()
    sim = SimulationConfig(crystal, LatticeDrive.for_crystal(crystal, 789.0, -30.0, 0.0,
                                                             duration_s=5e-5))
    ((_, amplitude),) = sweep_beat_frequency(sim, [crystal.f_ip + 250.0])
    pipeline = ReadoutPipeline(crystal)
    calibration = build_calibration(np.geomspace(150.0, 5200.0, 12), pipeline)
    extracted = extract_shift(pipeline.signal(1500.0, shots=20, seed=20201),
                              calibration).shift_hz
    return {"stark_shift_hz": stark, "odf_amplitude_m": amplitude,
            "extracted_shift_hz": extracted}


def check_fingerprints(values: dict[str, float]) -> list[str]:
    problems = []
    for name, (reference, tolerance) in FINGERPRINTS.items():
        value = values[name]
        if not abs(value - reference) <= tolerance * abs(reference):
            problems.append(f"fingerprint {name}: {value!r} vs {reference!r} "
                            f"(relative tolerance {tolerance:g})")
    return problems
