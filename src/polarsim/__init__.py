"""Simulator of a ping-pong polarization key-exchange protocol that detects
photon siphon-and-inject eavesdropping by tracking both beam intensity and the
received density matrix (via simulated quantum state tomography)."""

__version__ = "0.4.0"

from .polarization import (
    DensityMatrix,
    PhotonEnsemble,
    Spectrum,
    StokesVector,
    density_from_stokes,
    density_of_pure,
    eigendecompose,
    ensemble_density,
    matrix_distance,
    normalize_angle,
    purity,
    stokes_from_density,
)
from .protocol import (
    Decision,
    EveConfig,
    ProtocolConfig,
    ProtocolOutcome,
    decide,
    intensity_check,
    run_protocol,
)
from .sweeps import (
    SweepRecord,
    SweepSpec,
    closed_form_lambda_max,
    mixture_density,
    sweep_delta_family,
    sweep_siphon,
    write_csv,
)
from .tomography import (
    MeasurementCounts,
    TomographyConfig,
    born_probabilities,
    reconstruct,
    simulate_counts,
    stokes_estimate,
)

__all__ = [
    "DensityMatrix",
    "Decision",
    "EveConfig",
    "MeasurementCounts",
    "PhotonEnsemble",
    "ProtocolConfig",
    "ProtocolOutcome",
    "Spectrum",
    "StokesVector",
    "SweepRecord",
    "SweepSpec",
    "TomographyConfig",
    "born_probabilities",
    "closed_form_lambda_max",
    "decide",
    "density_from_stokes",
    "density_of_pure",
    "eigendecompose",
    "ensemble_density",
    "intensity_check",
    "matrix_distance",
    "mixture_density",
    "normalize_angle",
    "purity",
    "reconstruct",
    "run_protocol",
    "simulate_counts",
    "stokes_estimate",
    "stokes_from_density",
    "sweep_delta_family",
    "sweep_siphon",
    "write_csv",
]
