"""Kicked spin chain: single-excitation dynamics under periodic parabolic kicks.

The package simulates an exchange-coupled chain whose one-excitation
sector is driven by instantaneous parabolic phase kicks, realizing
kicked-rotor physics on a lattice: ballistic accelerator-mode wavepackets,
chaotic diffusion, dynamical localization, and measurement-heralded
two-packet superpositions.
"""

__version__ = "0.1.0"

from .chain import (
    EvolutionContext,
    Trajectory,
    evolve,
    hop_eigenphases,
    make_context,
    oracle_hamiltonian,
    step_period_inverse,
    uhc_matrix,
)
from .config import (
    DEFAULTS,
    EXPERIMENTS,
    ExperimentConfig,
    apply_overrides,
    config_values,
    parse_config,
)
from .errors import (
    CapacityError,
    ConfigError,
    DimensionMismatchError,
    InsufficientDataError,
    KickedChainError,
    MemoryBudgetError,
    NotLocalizedError,
    PacketsOutOfRangeError,
)
from .experiments import RunManifest, run_experiment
from .observables import (
    ConcurrenceMax,
    GaussianMode,
    LocalizationFit,
    ModeDecayFit,
    ModeReport,
    concurrence,
    concurrence_profile_max,
    detect_accelerator_modes,
    fit_localization_length,
    ipr,
    max_concurrence,
    mode_decay,
    packet_centers,
    pair_clearance,
    q_measure,
    remnant_halfwidth,
    spread_variance,
    trackable_pulses,
)
from .params import ChainParams, DerivedParams, derived_params
from .protocol import (
    MeasurementOutcome,
    ProtocolReport,
    central_measurement,
    measurement_window,
    run_protocol,
)
from .qkr import (
    bessel_interior_mask,
    classical_diffusion,
    frs_quadrature,
    qkr_kick_matrix,
    rechester_d,
    ring_kick_column,
    standard_map,
)
from .state import SpinState, site_state
from .validation import CheckResult, ValidationReport, validate_suite
