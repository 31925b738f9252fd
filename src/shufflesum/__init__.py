"""Differentially private summation of real vectors in the single-message
shuffle model: local randomizer, trusted-shuffler simulation, analyzer,
parameter calibration, accuracy bounds, and privacy auditing."""

from .accuracy import (
    TrialResult,
    bound_mse_general,
    bound_mse_t1,
    empirical_mse,
    fit_power_law,
)
from .aggregation import analyze_arrays, shuffle
from .audit import AuditVerdict, exact_audit
from .calibration import (
    ComposedBudget,
    PrivacyBudget,
    ProtocolParams,
    calibrate_gamma_general,
    calibrate_gamma_t1,
    choose_k_general,
    choose_k_t1,
    compose_epsilon_prime,
)
from .exceptions import InfeasibleParametersError, MalformedMessageError
from .harness import (
    DatasetMatrix,
    ExperimentConfig,
    SweepResult,
    emit_outputs,
    fit_matrix,
    ingest_csv,
    resolve_point,
    run_sweep,
    run_trial,
    trial_seed,
)
from .randomizer import randomize_batch, respond

__version__ = "0.1.0"
