"""Qubit transmission through a fermionic nearest-neighbour wire.

Simulation and verification toolkit for sending qubits through a
tight-binding ring with Gaussian-wavepacket encodings: exact
single-particle dynamics, packet diagnostics, protocol error budgets,
an exact small-lattice many-body oracle, and the minimal-wait scaling
harness.
"""

__version__ = "0.1.0"

import os
# One BLAS thread unless the user chose: OpenBLAS's idle worker spins ~130 ms of a
# second core per process, and threaded sums move the last digits at large N.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .lattice import (
    dispersion,
    dispersion_third_derivative,
    group_velocity,
    mode_amplitudes,
    propagate,
    ring_bonds,
    ring_energies,
    transit_time,
)
from .wavepacket import (
    PacketBudget,
    PacketParams,
    Region,
    WidthReport,
    broadening_prediction,
    carrier_mode,
    characteristic_width,
    circular_centroid,
    centroid_shift,
    gaussian_packet,
    measured_width,
    overlap,
    region_weight,
    sigma_for_budget,
    sigma_sites_for_budget,
    spectral_leakage,
    width_report,
)
from .protocol import (
    ErrorBudgetReport,
    ProtocolPlan,
    ScalingFit,
    decode_mode,
    encoding_error_bound,
    error_budget,
    fit_rate_scaling,
    line_fit,
    min_wait_time,
    plan_protocol,
)
from . import fock
from . import harness

__all__ = [
    "ErrorBudgetReport",
    "PacketBudget",
    "PacketParams",
    "ProtocolPlan",
    "Region",
    "ScalingFit",
    "WidthReport",
    "broadening_prediction",
    "carrier_mode",
    "centroid_shift",
    "characteristic_width",
    "circular_centroid",
    "decode_mode",
    "dispersion",
    "dispersion_third_derivative",
    "encoding_error_bound",
    "error_budget",
    "fit_rate_scaling",
    "fock",
    "gaussian_packet",
    "group_velocity",
    "harness",
    "line_fit",
    "measured_width",
    "min_wait_time",
    "mode_amplitudes",
    "overlap",
    "plan_protocol",
    "propagate",
    "region_weight",
    "ring_bonds",
    "ring_energies",
    "sigma_for_budget",
    "sigma_sites_for_budget",
    "spectral_leakage",
    "transit_time",
    "width_report",
]
