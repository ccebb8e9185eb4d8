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

from .quantities import (intensity_from_core_anchor, polarizability_to_shift,
                         shift_to_intensity)
from .angular import HalfInt, wigner_3j, wigner_6j, honl_london
from .states import MolecularState, enumerate_states
from .catalog import LineCatalog, TransitionLine, build_line_catalog, load_shipped_catalog
from .stark import (atomic_polarizability, dynamic_polarizability,
                    molecular_stark_shift, transition_strength)
from .crystal import (LatticeDrive, TwoIonCrystal, combined_mode_shift,
                      equilibrium_distance, extract_molecular_shift,
                      infer_detuning_sign, lattice_phase, normal_modes,
                      spring_from_distance)
from .dynamics import (SimulationConfig, linearized_prediction, mode_amplitude,
                       simulate_odf)
from .identify import (Measurement, apply_partial_readout, classify_event,
                       exclusion_window, match_candidates, predict_catalog_shifts)

__all__ = [
    "__version__",
    "intensity_from_core_anchor",
    "polarizability_to_shift",
    "shift_to_intensity",
    "HalfInt",
    "wigner_3j",
    "wigner_6j",
    "honl_london",
    "MolecularState",
    "enumerate_states",
    "LineCatalog",
    "TransitionLine",
    "build_line_catalog",
    "load_shipped_catalog",
    "transition_strength",
    "dynamic_polarizability",
    "atomic_polarizability",
    "molecular_stark_shift",
    "TwoIonCrystal",
    "LatticeDrive",
    "equilibrium_distance",
    "spring_from_distance",
    "normal_modes",
    "lattice_phase",
    "combined_mode_shift",
    "extract_molecular_shift",
    "infer_detuning_sign",
    "SimulationConfig",
    "simulate_odf",
    "mode_amplitude",
    "linearized_prediction",
    "MotionalDistribution",
    "RabiSignal",
    "synthesize_bsb_signal",
    "fit_rabi",
    "CalibrationSet",
    "build_calibration",
    "extract_shift",
    "iterate_partner_correction",
    "Measurement",
    "predict_catalog_shifts",
    "match_candidates",
    "exclusion_window",
    "apply_partial_readout",
    "classify_event",
]

# readout's own import costs about 20-30 ms, and only calibration and
# extraction need it, so its names load on first use (PEP 562).
_READOUT_NAMES = frozenset({
    "MotionalDistribution", "RabiSignal", "synthesize_bsb_signal", "fit_rabi",
    "CalibrationSet", "build_calibration", "extract_shift",
    "iterate_partner_correction",
})


def __getattr__(name):
    if name in _READOUT_NAMES:
        from . import readout
        return getattr(readout, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
