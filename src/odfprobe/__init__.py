"""Phase-sensitive optical-dipole-force state detection for a two-ion crystal.

The package predicts state-dependent ac-Stark shifts of a molecular ion and
its atomic reference ion in a running-wave optical lattice, simulates the
lattice-driven excitation of the crystal's in-phase motional mode, synthesizes
and fits the blue-sideband Rabi signals used to read that excitation out, and
inverts same-phase/opposite-phase (SP/OP) measurement pairs into the magnitude
and detuning sign of the molecular shift, from which candidate quantum states
are identified or excluded.
"""

__version__ = "0.1.0"

# Home module of every public name.  ``import odfprobe`` loads no submodule:
# a name's module is imported on its first use (PEP 562), so a command pays
# only for the modules it runs.
_EXPORTS = {
    "quantities": ("intensity_from_core_anchor", "polarizability_to_shift",
                   "shift_to_intensity"),
    "angular": ("HalfInt", "wigner_3j", "wigner_6j", "honl_london"),
    "states": ("MolecularState", "enumerate_states"),
    "catalog": ("LineCatalog", "TransitionLine", "load_shipped_catalog"),
    "stark": ("transition_strength", "dynamic_polarizability", "atomic_polarizability",
              "molecular_stark_shift"),
    "crystal": ("TwoIonCrystal", "LatticeDrive", "equilibrium_distance",
                "spring_from_distance", "normal_modes", "combined_mode_shift",
                "extract_molecular_shift", "infer_detuning_sign"),
    "dynamics": ("SimulationConfig", "simulate_odf", "mode_amplitude",
                 "linearized_prediction"),
    "readout": ("MotionalDistribution", "RabiSignal", "synthesize_bsb_signal", "fit_rabi",
                "CalibrationSet", "build_calibration", "extract_shift",
                "iterate_partner_correction"),
    "identify": ("Measurement", "predict_catalog_shifts", "match_candidates",
                 "exclusion_window", "apply_partial_readout", "classify_event"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    from importlib import import_module
    if name in _EXPORTS:        # a submodule, as ``odfprobe.stark``
        return import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
