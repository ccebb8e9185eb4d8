"""Layer boundaries of odfprobe, traced by rebinding names at run time.

Each boundary is ``(layer, "module:qualname")``.  :func:`install` replaces the
function (or class attribute) with a wrapper that records a span named
``layer.qualname`` and bumps the layer's counters, and rebinds every module
global in ``odfprobe.*`` that referred to the original, so calls made through
``from .x import y`` names are traced too.  Nothing under ``src/`` changes.

A boundary that no longer exists is recorded in ``absent`` with the reason;
the metrics it feeds are then reported as absent, and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys

# The layers the benchmark reports on.  ``terms`` is on no runtime path (the
# shipped catalog is read from CSV) and ``quantities`` is a few arithmetic
# calls; neither is traced.
LAYERS = ("angular", "stark", "catalog", "config", "states", "crystal",
          "dynamics", "readout", "identify", "cli")

BOUNDARIES = (
    ("angular", "odfprobe.angular:wigner_3j"),
    ("angular", "odfprobe.angular:wigner_6j"),
    ("angular", "odfprobe.angular:honl_london"),
    ("stark", "odfprobe.stark:polarizability_breakdown"),
    ("stark", "odfprobe.stark:transition_strength"),
    ("stark", "odfprobe.stark:dynamic_polarizability"),
    ("stark", "odfprobe.stark:molecular_stark_shift"),
    ("stark", "odfprobe.stark:atomic_polarizability"),
    ("stark", "odfprobe.stark:load_shipped_atomic_model"),
    ("catalog", "odfprobe.catalog:load_line_catalog"),
    ("catalog", "odfprobe.catalog:load_shipped_catalog"),
    ("catalog", "odfprobe.catalog:LineCatalog.lines_from"),
    ("catalog", "odfprobe.catalog:LineCatalog.lines_up_to"),
    ("config", "odfprobe.config:load_config"),
    ("config", "odfprobe.config:RunConfig.catalog"),
    ("config", "odfprobe.config:RunConfig.crystal"),
    ("config", "odfprobe.config:RunConfig.atomic_model"),
    ("states", "odfprobe.states:enumerate_states"),
    ("states", "odfprobe.states:MolecularState.sort_key"),
    ("crystal", "odfprobe.crystal:normal_modes"),
    ("crystal", "odfprobe.crystal:equilibrium_distance"),
    ("crystal", "odfprobe.crystal:spring_from_distance"),
    ("crystal", "odfprobe.crystal:combined_mode_shift"),
    ("crystal", "odfprobe.crystal:extract_molecular_shift"),
    ("crystal", "odfprobe.crystal:infer_detuning_sign"),
    ("crystal", "odfprobe.crystal:LatticeDrive.for_crystal"),
    ("dynamics", "odfprobe.dynamics:simulate_odf"),
    ("dynamics", "odfprobe.dynamics:sweep_beat_frequency"),
    ("dynamics", "odfprobe.dynamics:linearized_prediction"),
    ("dynamics", "odfprobe.dynamics:mode_amplitude"),
    ("readout", "odfprobe.readout:extract_shift"),
    ("readout", "odfprobe.readout:build_calibration"),
    ("readout", "odfprobe.readout:iterate_partner_correction"),
    ("readout", "odfprobe.readout:fit_rabi"),
    ("readout", "odfprobe.readout:synthesize_bsb_signal"),
    ("readout", "odfprobe.readout:ReadoutPipeline.signal"),
    ("readout", "odfprobe.readout:CalibrationSet.interpolate"),
    ("identify", "odfprobe.identify:predict_catalog_shifts"),
    ("identify", "odfprobe.identify:identification_report"),
    ("identify", "odfprobe.identify:match_candidates"),
    ("identify", "odfprobe.identify:background_shift_hz"),
    ("identify", "odfprobe.identify:classify_event"),
    ("identify", "odfprobe.identify:read_measurements"),
    ("identify", "odfprobe.identify:write_report_json"),
    ("identify", "odfprobe.identify:exclusion_window"),
    ("identify", "odfprobe.identify:apply_partial_readout"),
    ("cli", "odfprobe.cli:main"),
    ("cli", "odfprobe.cli:cmd_enumerate"),
    ("cli", "odfprobe.cli:cmd_spectrum"),
    ("cli", "odfprobe.cli:cmd_simulate"),
    ("cli", "odfprobe.cli:cmd_calibrate"),
    ("cli", "odfprobe.cli:cmd_identify"),
    ("cli", "odfprobe.cli:cmd_windows"),
    ("cli", "odfprobe.cli:cmd_classify"),
)

# Counters bumped per call of a boundary: counter name -> boundaries.
CALL_COUNTERS = {
    "angular.calls": ("angular.wigner_3j", "angular.wigner_6j"),
    "stark.calls": ("stark.polarizability_breakdown", "stark.transition_strength"),
    "catalog.loads": ("catalog.load_line_catalog",),
    "dynamics.pulses": ("dynamics.simulate_odf",),
    "readout.extractions": ("readout.extract_shift",),
    "readout.chi2_evals": ("readout.CalibrationSet.interpolate",),
    "readout.rabi_fits": ("readout.fit_rabi",),
    "identify.reports": ("identify.identification_report",),
}

# Metrics taken from a result or an exception rather than a call.
RESULT_METRICS = {
    "stark.near_resonant": "stark.polarizability_breakdown",
    "readout.partner_iterations": "readout.iterate_partner_correction",
    "readout.informative_ratio": "readout.extract_shift",
}

# Names wrapped where a layer resolves them, counted without a span.
#   dynamics.rhs_evals: nfev of every solve_ivp call, wrapped both where
#     dynamics binds it and on scipy.integrate, so a lazy import still counts.
#   readout.pchip_builds: PchipInterpolator constructions inside readout.
FOREIGN_COUNTERS = {
    "dynamics.rhs_evals": (("odfprobe.dynamics", "solve_ivp"),
                           ("scipy.integrate", "solve_ivp")),
    "readout.pchip_builds": (("odfprobe.readout", "PchipInterpolator"),),
}


def _resolve(target: str):
    module_name, qualname = target.split(":")
    module = importlib.import_module(module_name)
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return module, owner, parts[-1], getattr(owner, parts[-1])


def _rebind_globals(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "odfprobe" or name.startswith("odfprobe.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _counting_wrapper(name: str, original, tracer):
    counted = [c for c, names in CALL_COUNTERS.items() if name in names]
    counters = tracer.counters

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        for counter in counted:
            counters[counter] += 1
        with tracer.span(name):
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                if name == "stark.polarizability_breakdown" \
                        and type(exc).__name__ == "NearResonanceError":
                    counters["stark.near_resonant"] += 1
                raise
        if name == "readout.iterate_partner_correction":
            counters["readout.partner_iterations"] += len(result.trace_hz)
        elif name == "readout.extract_shift":
            if not (result.uninformative or result.extrapolated):
                counters["readout.informative"] += 1
        return result

    return wrapper


def _solve_ivp_wrapper(original, tracer):
    @functools.wraps(original)
    def solve_ivp(*args, **kwargs):
        result = original(*args, **kwargs)
        tracer.counters["dynamics.rhs_evals"] += int(result.nfev)
        return result

    return solve_ivp


def _pchip_wrapper(original, tracer):
    def PchipInterpolator(*args, **kwargs):
        tracer.counters["readout.pchip_builds"] += 1
        return original(*args, **kwargs)

    return PchipInterpolator


def install(tracer) -> dict[str, str]:
    """Wrap every boundary; returns ``{boundary or counter: reason}`` for the
    ones that could not be found."""
    absent = {}
    for layer, target in BOUNDARIES:
        name = f"{layer}.{target.split(':')[1]}"
        try:
            module, owner, attr, original = _resolve(target)
        except (ImportError, AttributeError) as exc:
            absent[name] = f"{target} not found ({exc})"
            continue
        if owner is module:
            _rebind_globals(original, _counting_wrapper(name, original, tracer))
            continue
        static = inspect.getattr_static(owner, attr)
        if isinstance(static, classmethod):
            wrapper = classmethod(_counting_wrapper(name, static.__func__, tracer))
        else:
            wrapper = _counting_wrapper(name, static, tracer)
        setattr(owner, attr, wrapper)
    factories = {"dynamics.rhs_evals": _solve_ivp_wrapper,
                 "readout.pchip_builds": _pchip_wrapper}
    for counter, places in FOREIGN_COUNTERS.items():
        found = False
        for module_name, attr in places:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                continue
            found = True
            wrapper = factories[counter](original, tracer)
            _rebind_globals(original, wrapper)
            setattr(module, attr, wrapper)
        if not found:
            absent[counter] = "no " + " or ".join(f"{m}.{a}" for m, a in places)
    for metric, boundary in RESULT_METRICS.items():
        if boundary in absent:
            absent[metric] = f"boundary {boundary} is absent"
    for counter, names in CALL_COUNTERS.items():
        if all(n in absent for n in names):
            absent[counter] = "boundaries " + ", ".join(names) + " are absent"
    for layer in LAYERS:
        names = [f"{layer}.{t.split(':')[1]}" for lay, t in BOUNDARIES if lay == layer]
        if all(n in absent for n in names):
            absent[f"{layer}.self_s"] = f"every {layer} boundary is absent"
    return absent


def cache_stats() -> tuple[int, int]:
    """(hits, misses) of the Wigner-symbol caches; (0, 0) when they are gone."""
    from odfprobe import angular
    hits = misses = 0
    for name in ("_wigner_3j_doubled", "_wigner_6j_doubled"):
        info = getattr(getattr(angular, name, None), "cache_info", None)
        if info is not None:
            stats = info()
            hits, misses = hits + stats.hits, misses + stats.misses
    return hits, misses
