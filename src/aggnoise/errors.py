"""Exception hierarchy shared by all aggnoise modules."""


class AggNoiseError(Exception):
    """Base class for all errors raised by this package."""


class NonFinite(AggNoiseError):
    """Input contains NaN or Inf."""


class NonSymmetric(AggNoiseError):
    """Matrix asymmetry exceeds the numerical tolerance."""


class NotPositiveSemidefinite(AggNoiseError):
    """Matrix has an eigenvalue more negative than the clamping tolerance."""


class EmptyGradients(AggNoiseError):
    """A gradient collection with zero columns was supplied."""


class SingularCovariance(AggNoiseError):
    """A full-rank covariance was required but the input is rank deficient."""


class IndefiniteSigmaAlpha(AggNoiseError):
    """The alpha-mixture covariance (1-a)*Sp + a*Sq is not positive definite."""


class DimensionMismatch(AggNoiseError):
    """Vector/matrix dimensions are inconsistent."""


class NonPositiveLambda(AggNoiseError):
    """A strictly positive eigenvalue was required."""


class DeltaOutOfRegion(AggNoiseError):
    """Supplied delta exceeds the validity bound of the low-privacy region."""


class EmptyValidityInterval(AggNoiseError):
    """The RDP order interval is empty; the bound cannot yield a finite epsilon."""


class EmptyLedger(AggNoiseError):
    """Composition was requested over a ledger with no rounds."""


class NoDpGuarantee(AggNoiseError):
    """The configured sampling/mechanism combination carries no DP guarantee."""


class LedgerOrderError(AggNoiseError):
    """Round indices appended to a ledger must be strictly increasing."""


class EmptyDataset(AggNoiseError):
    """An operation needs at least one example."""


class MalformedCsv(AggNoiseError):
    """CSV has a non-numeric cell or ragged rows."""


class TooFewExamples(AggNoiseError):
    """Dataset has fewer rows than users to partition across."""


class Overflow(AggNoiseError):
    """Fixed-point magnitude bound violated; value would wrap in the ring."""


class MissingParticipant(AggNoiseError):
    """Aggregation requested before every participant submitted."""


class BadDimension(AggNoiseError):
    """Dimension does not satisfy the construction's divisibility constraint."""


class ConfigError(AggNoiseError):
    """Run configuration is invalid; message names the offending key."""
