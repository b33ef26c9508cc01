"""End-to-end federated simulation: users, datasets, secure aggregation, rounds."""

from .datasets import SyntheticSpec, load_csv, make_synthetic, partition_equal
from .models import GlobalModel, ModelFamily, ModelOps, evaluate_model, init_model
from .secagg import FixedPointCodec, SAChannel, secure_aggregate
from .simulation import (
    MechanismConfig,
    MechanismKind,
    Role,
    RoundOutcome,
    SimulationResult,
    UserState,
    noise_round,
    run_round,
    run_simulation,
    user_update,
)

__all__ = [
    "FixedPointCodec",
    "GlobalModel",
    "MechanismConfig",
    "MechanismKind",
    "ModelFamily",
    "ModelOps",
    "Role",
    "RoundOutcome",
    "SAChannel",
    "SimulationResult",
    "SyntheticSpec",
    "UserState",
    "evaluate_model",
    "init_model",
    "load_csv",
    "make_synthetic",
    "noise_round",
    "partition_equal",
    "run_round",
    "run_simulation",
    "secure_aggregate",
    "user_update",
]
