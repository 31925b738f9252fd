"""Differentially private summation of real vectors in the single-message
shuffle model: local randomizer, trusted-shuffler simulation, analyzer,
parameter calibration with its accuracy bounds, privacy auditing, and an
experiment harness that scores trials and fits power laws."""

from .audit import AuditVerdict, exact_audit
from .calibration import (
    InfeasibleParametersError,
    PrivacyBudget,
    ProtocolParams,
    bound_mse,
    calibrate_gamma,
    choose_k_general,
    choose_k_t1,
    compose_epsilon_prime,
)
from .harness import (
    ExperimentConfig,
    SweepResult,
    TrialResult,
    emit_outputs,
    empirical_mse,
    fit_matrix,
    fit_power_law,
    ingest_csv,
    resolve_point,
    run_sweep,
    run_trial,
    trial_seed,
)
from .protocol import MalformedMessageError, analyze_arrays, randomize_batch, shuffle

__version__ = "0.1.0"
