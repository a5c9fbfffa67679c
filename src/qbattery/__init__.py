"""Exact-diagonalization toolkit for a bosonic quantum battery charged by a
single-particle harmonic charger through a contact-interaction quench."""

__version__ = "0.1.0"

from .basis import (CompositeBasis, ParitySector, Species, SpeciesConfig,
                    build_composite_basis, enumerate_fock_states)
from .dynamics import (ObservableSeries, QuenchSimulation, SimulationConfig,
                       time_series)
from .errors import (ConfigError, CutoffWarning, HorizonWarning,
                     NoTransferError, NumericalBreakdownError)
from .experiments import (ResonancePeak, ScanConfig, convergence_check,
                          fine_tune_resonance, find_resonance_peaks,
                          power_scan, spectrum_scan, wirr_scan)
from .thermo import (ChargingSummary, ergotropy, find_t_max,
                     irreversible_work, qsl_numeric, stored_work,
                     von_neumann_entropy)
from .tlm import (TwoLevelParams, delta_poly, ergotropy_tlm, power_tlm,
                  qsl_fermionic, qsl_tlm, resonance_solve, tlm_params,
                  wb_tlm)

__all__ = [
    "__version__",
    "CompositeBasis", "ParitySector", "Species", "SpeciesConfig",
    "build_composite_basis", "enumerate_fock_states",
    "ObservableSeries", "QuenchSimulation", "SimulationConfig", "time_series",
    "ConfigError", "CutoffWarning", "HorizonWarning", "NoTransferError",
    "NumericalBreakdownError",
    "ResonancePeak", "ScanConfig", "convergence_check", "fine_tune_resonance",
    "find_resonance_peaks", "power_scan", "spectrum_scan", "wirr_scan",
    "ChargingSummary", "ergotropy", "find_t_max", "irreversible_work",
    "qsl_numeric", "stored_work", "von_neumann_entropy",
    "TwoLevelParams", "delta_poly", "ergotropy_tlm", "power_tlm",
    "qsl_fermionic", "qsl_tlm", "resonance_solve", "tlm_params", "wb_tlm",
]
