"""aggnoise: how much differential privacy do other users' updates buy you?

A federated-learning privacy simulator and accountant for the worst-case
(eps, delta)-DP a sensitive user receives from the inherent randomness of
securely aggregated model updates, plus the eigenvalue-flooring ("water
filling") mechanism that guarantees DP with the minimum added noise.
"""

from .accountant import (
    ROUTES,
    ClosedFormBound,
    CompositionMode,
    CompositionResult,
    LedgerEntry,
    PrivacyParams,
    RdpCurve,
    RdpVariant,
    Reads,
    Region,
    RoundLedger,
    Route,
    account_round,
    compose,
    delta_approx_gaussian,
    delta_validity_limit,
    eps_dp_closed_form,
    optimize_alpha,
    rdp_bound,
    rdp_to_dp,
)
from .mechanisms import (
    NoisedUpdate,
    SchemeKind,
    UpdateScheme,
    clip_gradient,
    compute_update,
    ddp_noise,
    fedavg_replays,
    wfdp_update,
    wfna_noise,
)
from .spectra import (
    CovarianceModel,
    GradientMatrix,
    eig_decompose,
    estimate_mean_cov,
    floor_eigenvalues,
    renyi_gaussian,
    sample_gaussian,
    span_contains,
    sum_covariances,
)

__version__ = "0.1.0"
