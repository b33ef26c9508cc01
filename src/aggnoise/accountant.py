"""Privacy accounting for aggregated-update noise.

Implements the closed-form (eps, delta) bounds driven by the smallest
eigenvalue of the aggregate update covariance, the exact delta(eps) of the
Gaussian mechanism (with Phi and log Phi from ``math`` alone), the RDP
bounds for the eigenvalue-floored mechanism (both printed variants, which
disagree and are adjudicated empirically by the verify module), RDP-to-DP
conversion, order optimization, and multi-round composition over a round
ledger.

Every total epsilon comes from ``compose``, in the mode the ledger was built
with; ``round_eps`` is the one map from a ledger entry to its per-round eps.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import (
    DeltaOutOfRegion,
    EmptyLedger,
    EmptyValidityInterval,
    LedgerOrderError,
    NoDpGuarantee,
    NonPositiveLambda,
)

# warning tags carried on results instead of raising
WARN_REGIME = "regime: high-privacy formula returned eps >= 1"
WARN_MEANINGLESS_DELTA = "meaningless_delta: total delta >= 1"
WARN_MIXED_VARIANTS = "mixed_curve_variants: summing RDP curves of different variants"
WARN_SUBSPACE = "subspace: smallest *nonzero* eigenvalue used; space coverage asserted by caller"
WARN_APPROX_GAUSSIAN = "approx_gaussian: update treated as Gaussian with supplied delta0"

ALPHA_CAP = 1e6  # stand-in upper bound for curves valid on all alpha > 1
GRID_POINTS = 10_000
GOLDEN_REL_TOL = 1e-6
_INTERVAL_MARGIN = 1e-9


class Region(Enum):
    HIGH = "high"
    LOW = "low"


class RdpVariant(Enum):
    THEOREM1_RDP = "theorem1_rdp"
    WFDP_A = "wfdp_a"
    WFDP_B = "wfdp_b"
    # Plain Gaussian-mechanism description of a closed-form round, used when a
    # ledger of closed-form rounds is composed in RDP mode.
    GAUSSIAN = "gaussian"


class CompositionMode(Enum):
    SIMPLE = "simple"
    RDP = "rdp"


@dataclass(frozen=True)
class PrivacyParams:
    """Scalar inputs shared by the privacy formulas.

    clip: L2 clip bound C on per-example gradients.
    batch: mini-batch size B.
    local_size: per-user dataset size D.
    ns_users: number of non-sensitive (noise-providing) users N.
    delta: DP relaxation term.
    approx_gauss_delta0: Gaussian-approximation slack delta0 (0 = exactly
        Gaussian); inflates delta by (1 + e^eps) * delta0.
    floor: eigenvalue floor sigma^2 used by the flooring mechanism.
    """

    clip: float
    batch: int
    local_size: int = 1
    ns_users: int = 1
    delta: float = 1e-5
    approx_gauss_delta0: float = 0.0
    floor: float = 0.0

    def __post_init__(self):
        # every check is written so that NaN fails it
        if not 0 < self.clip < math.inf:
            raise ValueError(f"clip must be positive and finite, got {self.clip}")
        if not self.batch >= 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if not self.local_size >= 1:
            raise ValueError(f"local_size must be >= 1, got {self.local_size}")
        if not self.ns_users >= 1:
            raise ValueError(f"ns_users must be >= 1, got {self.ns_users}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if not 0 <= self.approx_gauss_delta0 < math.inf:
            raise ValueError(f"approx_gauss_delta0 must be finite and >= 0, got {self.approx_gauss_delta0}")
        if not 0 <= self.floor < math.inf:
            raise ValueError(f"floor must be finite and >= 0, got {self.floor}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PrivacyParams":
        # older ledgers also stored the run length, which no bound read, and a
        # subsampling ratio, which only its unamplified value 1 still means
        d = dict(d)
        d.pop("rounds", None)
        q = d.pop("sampling_ratio", 1.0)
        if q != 1.0:
            raise ValueError(
                f"sampling_ratio: got {q!r}, but no subsampling amplifies when the "
                "server sees who takes part; only 1.0 is accepted"
            )
        return cls(**d)


@dataclass(frozen=True)
class ClosedFormBound:
    """Result of the closed-form per-round bound."""

    eps: float
    region: Region
    delta_bound: float  # largest delta for which the formula's region is valid
    warnings: tuple[str, ...] = ()


def delta_validity_limit(eps: float) -> float:
    """Low-privacy-region validity limit f(eps) = 1/2 - e^(-3 eps) / sqrt(4 pi eps)."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return 0.5 - math.exp(-3.0 * eps) / math.sqrt(4.0 * math.pi * eps)


def eps_dp_closed_form(lambda_min: float, params: PrivacyParams) -> ClosedFormBound:
    """Per-round (eps, delta) bound from the aggregate covariance spectrum.

    ``lambda_min`` is the aggregate non-sensitive covariance's smallest
    eigenvalue, the one number the bound reads. The paper's IID case is this
    bound at N times one user's eigenvalue, and its singular case this bound
    at the smallest non-zero eigenvalue (see ``ROUTES``).

    Region split at lambda_0 = 4 C^2 sqrt(2 log(1.25/delta)) / B^2:
      high privacy (lambda > lambda_0): eps = 2 C sqrt(2 log(1.25/delta)) / (B sqrt(lambda)),
      low privacy  (lambda <= lambda_0): eps = max(1, 2 C^2 / (B^2 lambda)),
        valid only while delta < f(eps).
    The high-privacy formula is returned with a regime warning (not switched)
    if it lands at eps >= 1.
    """
    if not lambda_min > 0:
        raise NonPositiveLambda(f"lambda_min must be positive, got {lambda_min}")
    c, b, delta = params.clip, params.batch, params.delta
    root = math.sqrt(2.0 * math.log(1.25 / delta))
    lambda_0 = 4.0 * c * c * root / (b * b)
    if lambda_min > lambda_0:
        eps = 2.0 * c * root / (b * math.sqrt(lambda_min))
        warnings = (WARN_REGIME,) if eps >= 1.0 else ()
        return ClosedFormBound(eps=eps, region=Region.HIGH, delta_bound=1.0, warnings=warnings)
    eps = max(1.0, 2.0 * c * c / (b * b * lambda_min))
    bound = delta_validity_limit(eps)
    if delta >= bound:
        raise DeltaOutOfRegion(
            f"delta={delta!r} >= f(eps)={bound!r} in the low-privacy region"
        )
    return ClosedFormBound(eps=eps, region=Region.LOW, delta_bound=bound)


def norm_cdf(x: float) -> float:
    """Standard normal CDF Phi(x)."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def log_norm_cdf(x: float) -> float:
    """log Phi(x), accurate in both tails.

    It is log1p(-Phi(-x)) for x > 0 and log(Phi(x)) for -20 <= x <= 0.
    Below -20 it is the asymptotic series of Abramowitz & Stegun 26.2.12,
    log phi(x) - log(-x) + log(1 - 1/x^2 + 1*3/x^4 - ...), summed until a
    term falls below 1e-17. The k-th term is (2k-1)!!/x^(2k), so that takes
    at most 10 terms (none once x^2 overflows); a NaN never reaches the
    series.
    """
    if x < -20.0:
        inv2 = 1.0 / (x * x)
        term, total, k = 1.0, 0.0, 1
        while abs(term) >= 1e-17:
            term *= -(2 * k - 1) * inv2
            total += term
            k += 1
        return -0.5 * x * x - 0.5 * math.log(2.0 * math.pi) - math.log(-x) + math.log1p(total)
    if x > 0.0:
        return math.log1p(-norm_cdf(-x))
    return math.log(norm_cdf(x))


def analytic_gaussian_delta(sensitivity: float, noise_std: float, eps: float) -> float:
    """Exact delta(eps) of the Gaussian mechanism (hockey-stick divergence).

    delta = Phi(D/(2s) - eps s/D) - e^eps Phi(-D/(2s) - eps s/D) for
    sensitivity D > 0 and noise scale s (Balle & Wang, ICML 2018). It is 0 at
    D = 0 or eps = inf, and 1 at D = inf for finite eps. Evaluated in log
    space so the e^eps * Phi(...) product stays accurate far in the tail.
    """
    if not sensitivity >= 0:
        raise ValueError(f"sensitivity must be >= 0, got {sensitivity}")
    if not 0 < noise_std < math.inf:
        raise ValueError(f"noise_std must be positive and finite, got {noise_std}")
    if not eps >= 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    if sensitivity == 0.0 or eps == math.inf:
        return 0.0
    if sensitivity == math.inf:
        return 1.0
    a = sensitivity / (2.0 * noise_std)
    b = eps * noise_std / sensitivity
    first = norm_cdf(a - b)
    second = math.exp(eps + log_norm_cdf(-a - b))
    return max(first - second, 0.0)


def delta_approx_gaussian(eps: float, params: PrivacyParams) -> float:
    """Total delta when the aggregate is only approximately Gaussian.

    Returns delta + (1 + e^eps) * delta0, which is delta bit for bit at
    delta0 = 0. A total >= 1 is vacuous; the caller flags it rather than
    rejecting it.
    """
    return params.delta + (1.0 + math.exp(min(eps, 700.0))) * params.approx_gauss_delta0


def alpha_validity(
    params: PrivacyParams,
    variant: RdpVariant,
    sum_lambda_min: Optional[float] = None,
) -> tuple[float, float]:
    """Open interval of RDP orders on which the variant's bound is finite."""
    c2 = params.clip * params.clip
    if variant is RdpVariant.THEOREM1_RDP:
        if sum_lambda_min is None:
            raise ValueError("THEOREM1_RDP needs sum_lambda_min context")
        return 1.0, params.local_size * sum_lambda_min / c2
    if variant in (RdpVariant.WFDP_A, RdpVariant.WFDP_B):
        return 1.0, params.ns_users * params.floor * params.local_size / (2.0 * c2)
    if variant is RdpVariant.GAUSSIAN:
        return 1.0, math.inf
    raise ValueError(f"unknown variant {variant}")


def _rdp_terms(a, params: PrivacyParams, variant: RdpVariant, sum_lambda_min: Optional[float]):
    """Numerator and denominator of the variant's RDP bound at order(s) ``a``.

    The one copy of the formulas: ``a`` is a float on ``rdp_bound``'s scalar
    path and an array on its array path, and both evaluate the same operations
    in the same order, so a scalar equals the array element bit for bit. Any
    field may be an array; B and D convert exactly, as float() would.
    """
    c2 = params.clip * params.clip
    b, d = params.batch, params.local_size
    if variant is RdpVariant.THEOREM1_RDP:
        num = 2.0 * a * b * c2 / d**2 + a * c2 / ((a - 1.0) * d)
        return num, sum_lambda_min - a * c2 / d
    if variant is RdpVariant.WFDP_A:
        num = 2.0 * a * b * c2 / d**2 + 2.0 * a * c2 / ((a - 1.0) * d)
        return num, params.ns_users * params.floor - 2.0 * a * c2 / d
    if variant is RdpVariant.WFDP_B:
        num = 2.0 * a * c2 / d**2 + 2.0 * a * c2 / ((a - 1.0) * b * d)
        return num, params.ns_users * params.floor - 2.0 * a * c2 / (b * d)
    if variant is RdpVariant.GAUSSIAN:
        return 2.0 * a * c2, b * b * sum_lambda_min
    raise ValueError(f"unknown variant {variant}")  # pragma: no cover - enum is closed


def rdp_bound(
    alpha,
    params: PrivacyParams,
    variant: RdpVariant,
    sum_lambda_min: Optional[float] = None,
):
    """RDP epsilon at order(s) ``alpha``; +inf outside the validity interval.

    THEOREM1_RDP: (2aBC^2/D^2 + aC^2/((a-1)D)) / (sum_lambda_min - aC^2/D)
    WFDP_A:       (2aBC^2/D^2 + 2aC^2/((a-1)D)) / (N sigma^2 - 2aC^2/D)
    WFDP_B:       (2aC^2/D^2 + 2aC^2/((a-1)BD)) / (N sigma^2 - 2aC^2/(BD))
    GAUSSIAN:     2 a C^2 / (B^2 * sum_lambda_min)   (plain Gaussian mechanism
                  with sensitivity 2C/B and noise covariance eigenfloor
                  sum_lambda_min; used to re-express closed-form rounds)

    Accepts a scalar or an array of orders; out-of-range entries are reported
    as +inf rather than raised. A float order takes a scalar path in float
    arithmetic, equal bit for bit to the array path's element, where params'
    fields and ``sum_lambda_min`` may also be arrays broadcast against the orders.
    """
    if variant is RdpVariant.GAUSSIAN and (sum_lambda_min is None or sum_lambda_min <= 0):
        raise NonPositiveLambda("GAUSSIAN variant needs positive sum_lambda_min")
    lo, hi = alpha_validity(params, variant, sum_lambda_min)
    if isinstance(alpha, float):
        if not lo < alpha < hi:
            return math.inf
        num, den = _rdp_terms(alpha, params, variant, sum_lambda_min)
        return float(num / den) if den > 0 else math.inf
    a = np.asarray(alpha, dtype=float)
    inside = (a > lo) & (a < hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        num, den = _rdp_terms(a, params, variant, sum_lambda_min)
        out = np.where(inside & (den > 0), num / np.where(den > 0, den, 1.0), math.inf)
    if np.ndim(alpha) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class RdpCurve:
    """An RDP bound as a function of the order, with its validity interval."""

    variant: RdpVariant
    params: PrivacyParams
    sum_lambda_min: Optional[float] = None

    # hashed once: ledgers count curves and curve_eps caches on them
    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.variant, self.params, self.sum_lambda_min)))

    def __hash__(self) -> int:
        return self._hash

    def alpha_interval(self) -> tuple[float, float]:
        return alpha_validity(self.params, self.variant, self.sum_lambda_min)

    def __call__(self, alpha):
        return rdp_bound(alpha, self.params, self.variant, self.sum_lambda_min)

    def to_dict(self) -> dict:
        return {
            "variant": self.variant.value,
            "params": self.params.to_dict(),
            "sum_lambda_min": self.sum_lambda_min,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RdpCurve":
        return cls(
            variant=RdpVariant(d["variant"]),
            params=PrivacyParams.from_dict(d["params"]),
            sum_lambda_min=_parse_float(d.get("sum_lambda_min"), "sum_lambda_min", finite=True),
        )


def rdp_to_dp(alpha: float, eps_rdp: float, delta: float) -> float:
    """Convert an (alpha, eps)-RDP guarantee to (eps, delta)-DP:
    eps_dp = eps_rdp + log(1/delta) / (alpha - 1)."""
    if not alpha > 1:
        raise ValueError(f"alpha must be > 1, got {alpha}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return eps_rdp + math.log(1.0 / delta) / (alpha - 1.0)


def _composed_rdp(weighted: Counter, alpha):
    """Summed RDP at order(s) ``alpha``: each distinct curve once, scaled by its count."""
    return sum(count * curve(alpha) for curve, count in weighted.items())


def _golden_refine(fn, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section minimization to GOLDEN_REL_TOL relative interval width."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > GOLDEN_REL_TOL * max(abs(a), abs(b), 1.0):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    x = 0.5 * (a + b)
    return x, fn(x)


def _shared_interval(lo: float, hi: float) -> tuple[float, float]:
    """The searched order interval inside the curves' shared bounds (lo, hi)."""
    if not hi > lo:
        raise EmptyValidityInterval(
            f"empty alpha validity interval ({lo:.6g}, {hi:.6g}); "
            "the parameters cannot yield a finite epsilon"
        )
    hi = min(hi, ALPHA_CAP)
    span = hi - lo
    return lo + _INTERVAL_MARGIN * span, hi - _INTERVAL_MARGIN * span


class CompositionState:
    """Running composition of a ledger's rounds, kept up to date by ``append``.

    ``stop`` is the first entry that ends composition, in either mode: one
    whose term is infinite or that has no guarantee (see ``_entry_term``);
    later entries add nothing. A SIMPLE ledger keeps ``total``, the sum of its
    rounds' ``round_eps`` at the ledger's delta, in round order. An RDP ledger
    keeps ``curves``, which counts the distinct curves in order of first
    appearance, the order in which their RDP values are summed, and ``bounds``,
    the running max of their lower and min of their upper order bounds. The
    order grid is kept until the interval changes, and with it the values on
    that grid of each curve counted at least twice; a curve seen once keeps
    none.
    """

    def __init__(self, curves: Sequence[RdpCurve] = ()):
        self.total = 0.0
        self.curves: Counter = Counter()
        self.bounds = (1.0, math.inf)
        self.stop: Optional[LedgerEntry] = None
        self._grid: Optional[tuple[tuple[float, float], np.ndarray]] = None
        self._grid_values: dict[RdpCurve, np.ndarray] = {}
        for curve in curves:
            self._count(curve)

    def add(self, entry: LedgerEntry, params: PrivacyParams, mode: CompositionMode) -> None:
        if self.stop is not None:
            return
        try:
            term = _entry_term(entry, params, mode)
        except NoDpGuarantee:
            term = None
        if term is None:
            self.stop = entry
        elif mode is CompositionMode.SIMPLE:
            self.total += term
        else:
            self._count(term)

    def _count(self, curve: RdpCurve) -> None:
        count = self.curves[curve]
        if not count:
            (lo, hi), (clo, chi) = self.bounds, curve.alpha_interval()
            self.bounds = (max(lo, clo), min(hi, chi))
        self.curves[curve] = count + 1

    def order_grid(self) -> np.ndarray:
        """GRID_POINTS log-spaced orders across the shared interval."""
        interval = _shared_interval(*self.bounds)
        if self._grid is None or self._grid[0] != interval:
            self._grid = (interval, np.geomspace(*interval, GRID_POINTS))
            self._grid_values.clear()
        return self._grid[1]

    def grid_rdp(self) -> np.ndarray:
        """``_composed_rdp`` of the curves on ``order_grid``, bit for bit."""
        grid = self.order_grid()
        total = 0
        for curve, count in self.curves.items():
            values = self._grid_values.get(curve)
            if values is None:
                values = curve(grid)
                if count > 1:
                    self._grid_values[curve] = values
            total = total + count * values
        return total


def optimize_alpha(
    curve: Union[RdpCurve, Sequence[RdpCurve], CompositionState],
    delta: float,
) -> tuple[float, float]:
    """Minimize rdp_to_dp(alpha, curve(alpha), delta) over the validity interval.

    Dense log-spaced grid search (GRID_POINTS orders) followed by one
    golden-section pass between the best grid point's neighbours. Accepts a
    single curve, several (their RDP values are summed per order: multi-round
    composition), or a ledger's ``CompositionState``, whose curve ``Counter``,
    bounds, order grid and kept grid values are used as they are. Repeated
    curves are collapsed, so the cost scales with the number of *distinct*
    curves, not rounds: a ledger of T identical rounds costs what one round
    does, and once its curve's values are kept, no evaluation on the grid.

    Returns (alpha_star, eps_star). Raises EmptyValidityInterval when the
    interval is empty (e.g. N sigma^2 D <= 2 C^2 for the floored mechanism).
    """
    if isinstance(curve, CompositionState):
        state = curve
    else:
        state = CompositionState([curve] if isinstance(curve, RdpCurve) else curve)
    weighted = state.curves
    grid = state.order_grid()
    objective = state.grid_rdp() + math.log(1.0 / delta) / (grid - 1.0)
    finite = np.isfinite(objective)
    if not finite.any():
        raise EmptyValidityInterval("RDP bound is infinite on the whole order grid")
    idx = int(np.argmin(np.where(finite, objective, math.inf)))
    left = float(grid[max(idx - 1, 0)])
    right = float(grid[min(idx + 1, grid.size - 1)])

    def fn(x: float) -> float:
        return rdp_to_dp(x, _composed_rdp(weighted, x), delta)

    alpha_star, eps_star = _golden_refine(fn, left, right)
    if eps_star > objective[idx]:
        alpha_star, eps_star = float(grid[idx]), float(objective[idx])
    return alpha_star, eps_star


@functools.lru_cache(maxsize=1024)
def curve_eps(curve: RdpCurve, delta: float) -> float:
    """One curve's optimized epsilon eps* at ``delta``, computed once per (curve, delta).

    Floored-mechanism rounds of a run all carry the same curve, so per-round
    scalars cost one optimization per run rather than one per round.
    """
    return optimize_alpha(curve, delta)[1]


def _json_float(value: Optional[float]):
    """Strict-JSON-safe float: infinities become the string "inf"."""
    if value is None:
        return None
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _parse_float(value, name: str, finite: bool = False) -> Optional[float]:
    """A ledger's non-negative float field; NaN or a negative value is malformed.

    "inf" is allowed unless ``finite`` is set.
    """
    if value is None:
        return None
    number = float(value)
    if not number >= 0 or (finite and number == math.inf):
        kind = "a finite number" if finite else "a number"
        raise ValueError(f"{name} must be {kind} >= 0, got {value!r}")
    return number


@dataclass(frozen=True)
class LedgerEntry:
    """One accounted round: either a scalar bound or a deferred RDP curve."""

    round_index: int
    route: str
    lambda_min: Optional[float] = None
    eps: Optional[float] = None
    delta_total: Optional[float] = None
    region: Optional[str] = None
    curve: Optional[RdpCurve] = None
    noise_trace: float = 0.0
    warnings: tuple[str, ...] = ()
    cause: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "round_index": self.round_index,
            "route": self.route,
            "lambda_min": self.lambda_min,
            "eps": _json_float(self.eps),
            "delta_total": self.delta_total,
            "region": self.region,
            "curve": self.curve.to_dict() if self.curve is not None else None,
            "noise_trace": self.noise_trace,
            "warnings": list(self.warnings),
            "cause": self.cause,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LedgerEntry":
        return cls(
            round_index=d["round_index"],
            route=d["route"],
            lambda_min=_parse_float(d.get("lambda_min"), "lambda_min"),
            eps=_parse_float(d.get("eps"), "eps"),
            delta_total=_parse_float(d.get("delta_total"), "delta_total", finite=True),
            region=d.get("region"),
            curve=RdpCurve.from_dict(d["curve"]) if d.get("curve") else None,
            noise_trace=_parse_float(d.get("noise_trace", 0.0), "noise_trace"),
            warnings=tuple(d.get("warnings", ())),
            cause=d.get("cause"),
        )


class RoundLedger:
    """Append-only per-round record feeding composition and reports."""

    def __init__(self, params: PrivacyParams, composition: CompositionMode = CompositionMode.SIMPLE):
        self.params = params
        self.composition = composition
        self.entries: list[LedgerEntry] = []
        self.state = CompositionState()

    def append(self, entry: LedgerEntry) -> None:
        if self.entries and entry.round_index <= self.entries[-1].round_index:
            raise LedgerOrderError(
                f"round {entry.round_index} not after {self.entries[-1].round_index}"
            )
        self.entries.append(entry)
        self.state.add(entry, self.params, self.composition)

    def __len__(self) -> int:
        return len(self.entries)

    def to_dict(self, total_eps: Optional[float] = None, extra: Optional[dict] = None) -> dict:
        doc = {
            "params": self.params.to_dict(),
            "composition": self.composition.value,
            "entries": [e.to_dict() for e in self.entries],
            "total_eps": _json_float(total_eps),
            "warnings": sorted({w for e in self.entries for w in e.warnings}),
        }
        if extra:
            doc.update(extra)
        return doc

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(**kwargs), indent=2, sort_keys=True, allow_nan=False)

    @classmethod
    def from_dict(cls, d: dict) -> "RoundLedger":
        ledger = cls(
            params=PrivacyParams.from_dict(d["params"]),
            composition=CompositionMode(d.get("composition", "simple")),
        )
        for ed in d.get("entries", ()):
            ledger.append(LedgerEntry.from_dict(ed))
        return ledger


@dataclass(frozen=True)
class CompositionResult:
    total_eps: float
    mode: CompositionMode
    delta: float
    alpha_star: Optional[float] = None
    warnings: tuple[str, ...] = ()


def _entry_curve(entry: LedgerEntry, params: PrivacyParams) -> RdpCurve:
    """Curve for RDP composition; closed-form rounds become plain Gaussian curves."""
    if entry.cause is not None:
        raise NoDpGuarantee(f"round {entry.round_index}: {entry.cause}")
    if entry.curve is not None:
        return entry.curve
    if entry.lambda_min is None or entry.lambda_min <= 0:
        raise NoDpGuarantee(
            f"round {entry.round_index} has no RDP curve and no usable lambda_min"
        )
    return RdpCurve(RdpVariant.GAUSSIAN, params, sum_lambda_min=entry.lambda_min)


def _infinite(entry: LedgerEntry) -> bool:
    return entry.eps is not None and math.isinf(entry.eps)


def round_eps(entry: LedgerEntry, delta: float) -> float:
    """A round's scalar epsilon at ``delta``: its own eps, else its curve optimized.

    Raises NoDpGuarantee for a round that carries neither (a refused round). A
    curve whose order interval is empty gives no finite guarantee: +inf.
    """
    if entry.eps is not None:
        return entry.eps
    if entry.cause is not None:
        raise NoDpGuarantee(f"round {entry.round_index}: {entry.cause}")
    if entry.curve is None:
        raise NoDpGuarantee(f"round {entry.round_index} carries neither eps nor a curve")
    try:
        return curve_eps(entry.curve, delta)
    except EmptyValidityInterval:
        return math.inf


def _entry_term(entry: LedgerEntry, params: PrivacyParams, mode: CompositionMode):
    """A round's term in its ledger's composition; None when it makes the total +inf.

    SIMPLE: its ``round_eps`` at ``params.delta``. RDP: its curve, unless its
    eps is infinite. Raises NoDpGuarantee for a round that has no guarantee in
    ``mode``.
    """
    if mode is CompositionMode.SIMPLE:
        eps = round_eps(entry, params.delta)
        return None if math.isinf(eps) else eps
    return None if _infinite(entry) else _entry_curve(entry, params)


def compose(ledger: RoundLedger) -> CompositionResult:
    """Total epsilon across all ledger rounds at the ledger's delta.

    This is the one place a total is computed; the mode is the ledger's own
    ``composition``. It reads the ledger's running ``CompositionState``, never
    the entries. SIMPLE takes the state's sum of per-round eps. RDP sums the
    distinct curves, each scaled by its count, on a shared order grid,
    converts once and minimizes over the order, so its cost is set by the
    number of distinct curves, not rounds. The first round that stops
    composition makes the total +inf, or raises its NoDpGuarantee.
    """
    if len(ledger) == 0:
        raise EmptyLedger("cannot compose an empty ledger")
    mode, delta, state = ledger.composition, ledger.params.delta, ledger.state
    if state.stop is not None:
        _entry_term(state.stop, ledger.params, mode)  # raises NoDpGuarantee for this round
        return CompositionResult(math.inf, mode, delta)
    if mode is CompositionMode.SIMPLE:
        return CompositionResult(state.total, mode, delta)
    warnings = (WARN_MIXED_VARIANTS,) if len({c.variant for c in state.curves}) > 1 else ()
    alpha_star, eps_star = optimize_alpha(state, delta)
    return CompositionResult(eps_star, mode, delta, alpha_star=alpha_star, warnings=warnings)


class Reads(Enum):
    """The one input a route's bound reads, in words."""

    LAMBDA_MIN = "the aggregate's smallest eigenvalue"
    NONZERO_LAMBDA_MIN = "the aggregate's smallest non-zero eigenvalue"
    CONTEXT = "theorem 1's context sum_u B lambda_min(Sigma_u)"
    FLOOR = "the floor N sigma^2"


@dataclass(frozen=True)
class Route:
    """One accountant route, a row of ``ROUTES``, and the only description of it.

    ``name`` is its key and its ledger ``route``, behind ``rdp:`` for an RDP
    route; ``config`` is the ``accountant.route`` that selects it (a closed
    form's with its ``mode``), ``cli`` its ``account --route``. ``variant``
    is an RDP route's curve, None for a closed form, whose bound is
    ``eps_dp_closed_form`` at the eigenvalue it ``reads``. ``build`` makes a
    round's entry fields from that one input: a closed form's eps, which an
    RDP ledger re-expresses as a GAUSSIAN curve of lambda_min, or an RDP
    curve. It raises DeltaOutOfRegion or EmptyValidityInterval where the
    bound has no value; ``limit`` names a round-read input's least value with
    an order above 1 (a floor's interval depends on the parameters alone).
    ``verify`` does not fail on an ``adjudicated`` route's dominance suite:
    the printed floored-mechanism variants disagree, and it decides between them.
    """

    name: str
    config: str
    cli: str
    variant: Optional[RdpVariant]
    reads: Reads
    composition: CompositionMode
    build: Callable[..., dict]
    limit: str = ""
    adjudicated: bool = False

    @property
    def mode(self) -> Optional[str]:
        return self.name.partition(":")[2] or None


def _closed_form_fields(route: Route, value: float, params: PrivacyParams, warnings) -> dict:
    bound = eps_dp_closed_form(value, params)
    subspace = (WARN_SUBSPACE,) if route.reads is Reads.NONZERO_LAMBDA_MIN else ()
    delta_total = delta_approx_gaussian(bound.eps, params)
    meaningless = (WARN_MEANINGLESS_DELTA,) if delta_total >= 1.0 else ()
    return dict(route=route.name, lambda_min=value, eps=bound.eps, delta_total=delta_total,
                region=bound.region.value, warnings=warnings + subspace + bound.warnings + meaningless)


def _curve_fields(route: Route, value: float, params: PrivacyParams, warnings) -> dict:
    floor = route.reads is Reads.FLOOR  # read from params
    curve = RdpCurve(route.variant, params, sum_lambda_min=None if floor else value)
    lo, hi = curve.alpha_interval()
    if not hi > lo:
        why = ""
        if route.limit and hi > 0:  # hi is linear in the input, so value / hi is the limit
            why = f"; {route.reads.value} = {value:.6g} is at most {route.limit} = {value / hi:.6g}"
        raise EmptyValidityInterval(
            f"empty alpha validity interval for {route.name}: upper bound {hi:.6g} <= 1{why}"
        )
    return dict(route=f"rdp:{route.name}", lambda_min=value, curve=curve, warnings=warnings)


ROUTES: dict[str, Route] = {route.name: route for route in (
    Route("closed_form:general", "closed_form", "closed", None,
          Reads.LAMBDA_MIN, CompositionMode.SIMPLE, _closed_form_fields),
    Route("closed_form:singular", "closed_form", "closed", None,
          Reads.NONZERO_LAMBDA_MIN, CompositionMode.SIMPLE, _closed_form_fields),
    Route("theorem1_rdp", "theorem1_rdp", "theorem1-rdp", RdpVariant.THEOREM1_RDP,
          Reads.CONTEXT, CompositionMode.RDP, _curve_fields, limit="C^2/D"),
    Route("wfdp_a", "wfdp_a", "wfdp-a", RdpVariant.WFDP_A,
          Reads.FLOOR, CompositionMode.RDP, _curve_fields, adjudicated=True),
    Route("wfdp_b", "wfdp_b", "wfdp-b", RdpVariant.WFDP_B,
          Reads.FLOOR, CompositionMode.RDP, _curve_fields, adjudicated=True),
)}


def account_round(
    lambda_min: float,
    params: PrivacyParams,
    route: Route,
    round_index: int = 0,
    noise_trace: float = 0.0,
    extra_warnings: Sequence[str] = (),
    cause: Optional[str] = None,
) -> LedgerEntry:
    """Build a ledger entry for one round on ``route``, from the input it reads.

    ``lambda_min`` is that input; a FLOOR route reads ``params`` and only
    records it. A round with a non-None ``cause``, or whose bound has no
    value at this input (a low-privacy closed form past its delta limit, an
    empty RDP order interval; the error is the cause), is refused: eps = +inf.
    """
    warnings = tuple(extra_warnings)
    if cause is None:
        try:
            fields = route.build(route, lambda_min, params, warnings)
            return LedgerEntry(round_index=round_index, noise_trace=noise_trace, **fields)
        except (DeltaOutOfRegion, EmptyValidityInterval) as exc:
            cause = str(exc)
    return LedgerEntry(
        round_index=round_index,
        route="refused",
        lambda_min=lambda_min if lambda_min > 0 else None,
        eps=math.inf,
        delta_total=params.delta,
        noise_trace=noise_trace,
        warnings=warnings,
        cause=cause,
    )
