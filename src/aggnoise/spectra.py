"""Positive-semidefinite linear algebra on model-update covariances.

Covariance models here are stored in factored form (a mean, orthonormal
eigenvectors and a non-negative spectrum, nothing else) so that eigenvalue
flooring, low-rank sampling and Renyi divergences can all work directly on the
spectrum. The full-dimension estimator and the sum build their model once,
through ``eig_decompose`` with their own mean. Rank and the nonzero lambda_min
count eigenvalues above ``DEFAULT_RANK_TOL`` times lambda_max. The
second-moment estimator follows the update-generation convention of the rest
of the package: the per-user matrix is the *uncentered* second moment of
clipped per-example gradients scaled by 1/(B*D), which equals the
sampling-noise covariance of a Gaussian-weighted update with weights
w ~ N(1/D, I/(B*D)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import (
    BlockMismatch,
    DimensionMismatch,
    EmptyGradients,
    IndefiniteSigmaAlpha,
    NonFinite,
    NonSymmetric,
    NotPositiveSemidefinite,
    PartialSpectrum,
    SingularCovariance,
)

Array = np.ndarray

DEFAULT_RANK_TOL = 1e-10
_NEG_EIG_CLAMP = 1e-10  # relative to lambda_max; more negative input is rejected


def _as_float_array(x, name: str) -> Array:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise NonFinite(f"{name} contains NaN or Inf")
    return arr


@dataclass(frozen=True)
class GradientMatrix:
    """Per-user collection of clipped per-example gradients, one per column.

    Every column must have Euclidean norm <= clip_bound (up to 1e-9 relative
    slack); that bound is what every privacy formula downstream leans on.
    """

    columns: Array
    clip_bound: float

    def __post_init__(self):
        cols = _as_float_array(self.columns, "gradient columns")
        if cols.ndim != 2:
            raise DimensionMismatch(f"expected a 2-D (dim, count) array, got ndim={cols.ndim}")
        if cols.shape[1] == 0:
            raise EmptyGradients("gradient matrix has zero columns")
        if cols.shape[0] == 0:
            raise DimensionMismatch("gradient matrix has zero rows")
        if not self.clip_bound > 0:
            raise ValueError(f"clip_bound must be positive, got {self.clip_bound}")
        norms = np.linalg.norm(cols, axis=0)
        limit = self.clip_bound * (1.0 + 1e-9)
        if np.any(norms > limit):
            worst = float(norms.max())
            raise ValueError(
                f"column norm {worst:.6g} exceeds clip bound {self.clip_bound:.6g}"
            )
        object.__setattr__(self, "columns", cols)

    @property
    def dim(self) -> int:
        return self.columns.shape[0]

    @property
    def count(self) -> int:
        return self.columns.shape[1]


@dataclass(frozen=True)
class BlockSpec:
    """Partition of coordinates 0..dim into contiguous, non-empty ranges."""

    boundaries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        bounds = tuple((int(a), int(b)) for a, b in self.boundaries)
        if not bounds:
            raise BlockMismatch("block spec must contain at least one range")
        prev = 0
        for start, stop in bounds:
            if start != prev:
                raise BlockMismatch(f"block starting at {start} leaves a gap after {prev}")
            if stop <= start:
                raise BlockMismatch(f"empty block [{start}, {stop})")
            prev = stop
        object.__setattr__(self, "boundaries", bounds)

    @classmethod
    def equal_parts(cls, dim: int, block_count: int) -> "BlockSpec":
        """Split 0..dim into block_count contiguous parts of near-equal size."""
        if block_count < 1 or block_count > dim:
            raise BlockMismatch(f"cannot split dimension {dim} into {block_count} blocks")
        edges = np.linspace(0, dim, block_count + 1).round().astype(int)
        return cls(tuple((int(edges[i]), int(edges[i + 1])) for i in range(block_count)))

    @property
    def block_count(self) -> int:
        return len(self.boundaries)

    @property
    def dim(self) -> int:
        return self.boundaries[-1][1]

    def check_dim(self, dim: int) -> None:
        if self.dim != dim:
            raise BlockMismatch(f"blocks cover {self.dim} coordinates, data has {dim}")


@dataclass
class CovarianceModel:
    """Mean vector plus eigen-factorization of a PSD covariance.

    Eigenpairs are canonicalized to non-increasing eigenvalue order at
    construction time, so two models representing the same matrix compare
    spectrum-for-spectrum. ``eigvecs`` is (dim, n_components) with orthonormal
    columns; a model is *full-dimension* when n_components == dim (zero
    eigenvalues explicitly represented).
    """

    mean: Array
    eigvecs: Array
    eigvals: Array

    def __post_init__(self):
        mean = _as_float_array(self.mean, "mean")
        vecs = _as_float_array(self.eigvecs, "eigvecs")
        vals = _as_float_array(self.eigvals, "eigvals")
        if mean.ndim != 1 or vecs.ndim != 2 or vals.ndim != 1:
            raise DimensionMismatch("mean must be 1-D, eigvecs 2-D, eigvals 1-D")
        if vecs.shape[0] != mean.shape[0] or vecs.shape[1] != vals.shape[0]:
            raise DimensionMismatch(
                f"shape mismatch: mean {mean.shape}, eigvecs {vecs.shape}, eigvals {vals.shape}"
            )
        if np.any(vals < 0):
            raise NotPositiveSemidefinite(f"negative eigenvalue {vals.min():.3e}")
        order = np.argsort(-vals, kind="stable")
        self.mean = mean
        self.eigvecs = vecs[:, order]
        self.eigvals = vals[order]

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def n_components(self) -> int:
        return self.eigvals.shape[0]

    def is_full_dimension(self) -> bool:
        return self.n_components == self.dim

    def lambda_max(self) -> float:
        return float(self.eigvals[0]) if self.n_components else 0.0

    def lambda_min(self) -> float:
        """Smallest retained eigenvalue (the true lambda_min on full models)."""
        return float(self.eigvals[-1]) if self.n_components else 0.0

    def lambda_min_nonzero(self) -> float:
        """Smallest eigenvalue above the rank threshold DEFAULT_RANK_TOL * lambda_max."""
        thresh = DEFAULT_RANK_TOL * self.lambda_max()
        above = self.eigvals[self.eigvals > thresh]
        if above.size == 0:
            raise SingularCovariance("model has no eigenvalue above the rank threshold")
        return float(above[-1])

    def rank(self) -> int:
        """Number of eigenvalues above DEFAULT_RANK_TOL * lambda_max."""
        thresh = DEFAULT_RANK_TOL * self.lambda_max()
        return int(np.sum(self.eigvals > thresh))

    def matrix(self) -> Array:
        """Reconstruct the dense covariance U diag(L) U^T."""
        return (self.eigvecs * self.eigvals) @ self.eigvecs.T

    def factor(self) -> Array:
        """Square-root factor L = U diag(L)^(1/2), so Sigma = L L^T."""
        return self.eigvecs * np.sqrt(self.eigvals)


def eig_decompose(sym_matrix, mean=None) -> CovarianceModel:
    """Eigendecompose a symmetric PSD matrix into a CovarianceModel.

    The model's mean is ``mean``, or zeros when none is given.

    Tiny negative eigenvalues (within -1e-10 * lambda_max) are clamped to
    zero; anything more negative means the input was not PSD and is rejected.
    """
    mat = _as_float_array(sym_matrix, "matrix")
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {mat.shape}")
    scale = max(1.0, float(np.abs(mat).max()))
    asym = float(np.abs(mat - mat.T).max())
    if asym > 1e-9 * scale:
        raise NonSymmetric(f"asymmetry {asym:.3e} exceeds tolerance")
    vals, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
    lam_max = max(float(vals[-1]), 0.0)
    clamp_floor = -_NEG_EIG_CLAMP * lam_max
    if vals[0] < clamp_floor:
        raise NotPositiveSemidefinite(
            f"eigenvalue {vals[0]:.3e} below clamp threshold {clamp_floor:.3e}"
        )
    vals = np.maximum(vals, 0.0)
    return CovarianceModel(
        mean=np.zeros(mat.shape[0]) if mean is None else mean,
        eigvecs=vecs,
        eigvals=vals,
    )


def _second_moment(cols: Array, mean: Array, batch: int, centered: bool) -> Array:
    count = cols.shape[1]
    if centered:
        shifted = cols - mean[:, None]
        return (shifted @ shifted.T) / (batch * count)
    return (cols @ cols.T) / (batch * count)


def estimate_mean_cov(
    grads: GradientMatrix,
    batch: int,
    blocks: BlockSpec | None = None,
    centered: bool = False,
) -> CovarianceModel:
    """Mean and 1/(B*D)-scaled second moment of a gradient collection.

    The default (uncentered) estimator matches the Gaussian-weighted update
    model under which the closed-form privacy results are exact; pass
    ``centered=True`` for sensitivity studies with the centered covariance.

    With ``blocks`` the returned model is block-diagonal: each coordinate
    block is decomposed independently and cross-block covariance is zero.
    Eigenvectors are embedded back into the full coordinate space, so the
    result is a regular full-dimension model. Note the blockwise smallest
    eigenvalue is not guaranteed to upper- or lower-bound the unblocked one;
    downstream accounting must consume the blockwise model's own spectrum,
    which is also what the sampler draws from.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    cols = grads.columns
    dim = grads.dim
    mean = cols.mean(axis=1)
    if blocks is None:
        return eig_decompose(_second_moment(cols, mean, batch, centered), mean)
    blocks.check_dim(dim)
    vecs = np.zeros((dim, dim))
    vals = np.zeros(dim)
    offset = 0
    for start, stop in blocks.boundaries:
        sub = cols[start:stop, :]
        sigma = _second_moment(sub, mean[start:stop], batch, centered)
        part = eig_decompose(sigma)
        width = stop - start
        vecs[start:stop, offset : offset + width] = part.eigvecs
        vals[offset : offset + width] = part.eigvals
        offset += width
    return CovarianceModel(mean=mean, eigvecs=vecs, eigvals=vals)


def floor_eigenvalues(
    model: CovarianceModel, floor: float
) -> tuple[CovarianceModel, CovarianceModel]:
    """Lift every eigenvalue to at least ``floor``; also return the lift itself.

    Returns ``(floored, delta)`` where ``delta`` is the PSD model of the added
    noise: same eigenvectors, eigenvalues ``max(lam, floor) - lam`` (its mean
    is zero). Requires a full-dimension model, because directions missing from
    the decomposition are exactly the ones the floor must fill.
    """
    if floor < 0:
        raise ValueError(f"floor must be >= 0, got {floor}")
    if not model.is_full_dimension():
        raise PartialSpectrum(
            f"flooring needs all {model.dim} eigenpairs, model has {model.n_components}"
        )
    floored_vals = np.maximum(model.eigvals, floor)
    delta_vals = floored_vals - model.eigvals
    # CovarianceModel copies eigvecs when it sorts them; the mean it keeps as given
    floored = CovarianceModel(mean=model.mean.copy(), eigvecs=model.eigvecs, eigvals=floored_vals)
    delta = CovarianceModel(mean=np.zeros(model.dim), eigvecs=model.eigvecs, eigvals=delta_vals)
    return floored, delta


def sample_gaussian(model: CovarianceModel, rng: np.random.Generator) -> Array:
    """Draw mean + U diag(L)^(1/2) v with v standard normal of length r.

    Deterministic given the generator state; a zero spectrum returns the mean
    exactly, and rank-deficient models sample only inside their eigenspace.
    """
    if np.any(~np.isfinite(model.eigvals)):
        raise NonFinite("model eigvals contain NaN or Inf")
    v = rng.standard_normal(model.n_components)
    return model.mean + model.factor() @ v


def renyi_gaussian(alpha: float, p: CovarianceModel, q: CovarianceModel) -> float:
    """Exact Renyi divergence of order alpha between two full-rank Gaussians.

    D_a(p || q) = (a/2) dm^T S_a^{-1} dm
                  - 1/(2(a-1)) * ln( |S_a| / (|Sp|^(1-a) |Sq|^a) ),
    with S_a = (1-a) Sp + a Sq, valid whenever S_a is positive definite.
    """
    if alpha <= 0 or alpha == 1.0:
        raise ValueError(f"alpha must be positive and != 1, got {alpha}")
    if p.dim != q.dim:
        raise DimensionMismatch(f"dimension mismatch: {p.dim} vs {q.dim}")
    for name, model in (("p", p), ("q", q)):
        if not model.is_full_dimension() or model.rank() < model.dim:
            raise SingularCovariance(f"model {name} is rank deficient")
    sig_p = p.matrix()
    sig_q = q.matrix()
    sig_a = (1.0 - alpha) * sig_p + alpha * sig_q
    try:
        chol = np.linalg.cholesky(sig_a)
    except np.linalg.LinAlgError:
        raise IndefiniteSigmaAlpha(
            f"(1-a)*Sp + a*Sq is not positive definite at alpha={alpha}"
        ) from None
    dmean = p.mean - q.mean
    white = np.linalg.solve(chol, dmean)
    term_mean = 0.5 * alpha * float(white @ white)
    logdet_a = 2.0 * float(np.sum(np.log(np.diag(chol))))
    logdet_p = float(np.sum(np.log(p.eigvals)))
    logdet_q = float(np.sum(np.log(q.eigvals)))
    term_det = -(logdet_a - (1.0 - alpha) * logdet_p - alpha * logdet_q) / (2.0 * (alpha - 1.0))
    return max(term_mean + term_det, 0.0)


def span_contains(
    columns: Union[GradientMatrix, Array, Sequence[Array]],
    vector,
    tol: float = 1e-8,
) -> bool:
    """Whether ``vector`` lies in the column space of ``columns``.

    The column-space rank is read off singular values above tol * sigma_max;
    membership means the projection residual is <= tol * max(||v||, 1).
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if isinstance(columns, GradientMatrix):
        cols = columns.columns
    else:
        cols = _as_float_array(np.column_stack(columns) if isinstance(columns, (list, tuple)) else columns, "columns")
        if cols.ndim == 1:
            cols = cols[:, None]
    v = _as_float_array(vector, "vector")
    if v.ndim != 1 or v.shape[0] != cols.shape[0]:
        raise DimensionMismatch(f"vector length {v.shape} vs column dim {cols.shape[0]}")
    vnorm = float(np.linalg.norm(v))
    if vnorm == 0.0:
        return True
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return False
    basis = u[:, s > tol * s[0]]
    residual = v - basis @ (basis.T @ v)
    return float(np.linalg.norm(residual)) <= tol * max(vnorm, 1.0)


def sum_covariances(
    models: Sequence[CovarianceModel],
    isotropic_extra: float = 0.0,
) -> CovarianceModel:
    """Distribution of a sum of independent Gaussians: means add, matrices add.

    ``isotropic_extra`` adds that much variance to every coordinate, which is
    how distributed isotropic noise shares enter the aggregate.
    """
    if not models:
        raise ValueError("need at least one model to sum")
    dim = models[0].dim
    total = np.zeros((dim, dim))
    mean = np.zeros(dim)
    for m in models:
        if m.dim != dim:
            raise DimensionMismatch("models have inconsistent dimensions")
        total += m.matrix()
        mean += m.mean
    if isotropic_extra:
        total[np.diag_indices(dim)] += isotropic_extra
    return eig_decompose(total, mean)
