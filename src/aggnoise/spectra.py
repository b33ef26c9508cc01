"""Positive-semidefinite linear algebra on model-update covariances.

A covariance model is a mean, r orthonormal eigenvectors U (dim x r), their
eigenvalues and an isotropic tail tau >= 0 on the directions U leaves out:
Sigma = U diag(L) U^T + tau (I - U U^T). A model with r = dim is a plain
eigendecomposition (its tail is 0). Everything that reads a spectrum reads all
dim eigenvalues: the r stored ones plus tau repeated dim - r times. Flooring
lifts both the stored eigenvalues and the tail, low-rank sampling draws from
the stored eigenspace and the tail separately, and Renyi divergences work on
the reconstructed matrices. A sum of models is read as its spectrum alone: a
sum of isotropic models (every stored eigenvalue equal to its tail) has the
summed tails as every eigenvalue; any other sum adds the reconstructed
matrices and reads the eigenvalues of the dim x dim total, with no
eigenvectors. ``rank`` counts a spectrum's eigenvalues above
``DEFAULT_RANK_TOL`` times its largest; every rank and rank-threshold test
in the package reads it.

The second-moment estimator follows the update-generation convention of the
rest of the package: the per-user matrix is the *uncentered* second moment of
clipped per-example gradients scaled by 1/(B*D), which equals the
sampling-noise covariance of a Gaussian-weighted update with weights
w ~ N(1/D, I/(B*D)). With D > dim/2 it eigendecomposes that dim x dim matrix;
with at most half as many gradients as coordinates it eigendecomposes a D x D
reduction (through a thin QR of the gradients) instead and keeps all D
components, with tail 0. The shapes alone fix an estimate's width
(``estimate_width``). A thin Gaussian-sampled update needs no estimate: it
is drawn straight from its gradients X as mean + X z / sqrt(B*D), from the D
normals z a draw from its estimate takes (``mechanisms.compute_update``);
only a dense one is drawn from its estimate. Whether a floor covers a user's
whole spectrum is decided without an estimate: ``floor_coverage`` forms the user's matrix
once (the dense second moment, or for thin gradients the D x D Gram matrix,
which has the same nonzero eigenvalues), bounds its largest eigenvalue by
row sums of |M| (or, where they fall short, by a Cholesky factorization),
shows the PSD clamp from the product's shape alone (or, for a shape too
large for that, by a second Cholesky factorization), and reads the
eigenvalues alone of a matrix it cannot certify, with no eigenvectors and no
QR.

Gradient matrices and covariance models also come as stacks, one member per
user, so that a simulation round estimates, floors, samples and sums a run
of users in stacked numpy calls, and ``verify``'s dominance suites estimate
and floor many instances' users at once; a member may carry its own clip
bound, batch size and floor. A stack of gradients gives one model stack, as
every member keeps the same width. A single model is ordered, checked and
sampled as a stack of one, by the stacked code itself. A member's result is
bit for bit the one its user would get alone: members keep a single model's
memory layout, and each draws its normals from its own generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyGradients,
    IndefiniteSigmaAlpha,
    NonFinite,
    NonSymmetric,
    NotPositiveSemidefinite,
    SingularCovariance,
)

Array = np.ndarray

DEFAULT_RANK_TOL = 1e-10
_NEG_EIG_CLAMP = 1e-10  # relative to lambda_max; more negative input is rejected
_EPS = 2.0**-52  # float64 machine epsilon
_ROW_SUM_MIN = 2.0**-500  # keeps the underflow of |M| r far below its rounding


def _as_float_array(x, name: str) -> Array:
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():  # the method skips np.all's dispatch, ~2 us a call
        raise NonFinite(f"{name} contains NaN or Inf")
    return arr


@dataclass(frozen=True)
class GradientMatrix:
    """Per-user collection of clipped per-example gradients, one per column.

    ``columns`` is one (dim, count) array or a stack (..., dim, count) of
    them, one member per user. Every column must have Euclidean norm <=
    clip_bound (up to 1e-9 relative slack); that bound is what every privacy
    formula downstream leans on. ``clip_bound`` is one C for every member or
    an array of per-member bounds that broadcasts over the stack's leading
    axes. Each member is checked against its own bound: a stack is rejected
    with the first offending member's worst norm and bound. The check's
    squared column norms are kept as ``squared_norms`` (..., count), summed
    without BLAS.
    """

    columns: Array
    clip_bound: Union[float, Array]
    squared_norms: Array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cols = _as_float_array(self.columns, "gradient columns")
        if cols.ndim < 2:
            raise DimensionMismatch(f"expected a 2-D (dim, count) array, got ndim={cols.ndim}")
        if cols.shape[-1] == 0:
            raise EmptyGradients("gradient matrix has zero columns")
        if cols.shape[-2] == 0:
            raise DimensionMismatch("gradient matrix has zero rows")
        clip = np.asarray(self.clip_bound, dtype=float)
        if clip.ndim > cols.ndim - 2:
            raise DimensionMismatch(
                f"clip bounds of shape {clip.shape} for a stack of shape {cols.shape[:-2]}"
            )
        if not (clip > 0).all():
            raise ValueError(f"clip_bound must be positive, got {self.clip_bound}")
        squared_norms = (cols * cols).sum(axis=-2)  # np.linalg.norm's own reduction
        norms = np.sqrt(squared_norms)
        over = norms > clip[..., None] * (1.0 + 1e-9)
        if over.any():
            # the first member with an over-long column, as a per-user loop meets it
            first = np.unravel_index(np.argmax(over.any(axis=-1)), over.shape[:-1])
            worst = float(norms[first].max())
            bound = float(np.broadcast_to(clip, over.shape[:-1])[first])
            raise ValueError(f"column norm {worst:.6g} exceeds clip bound {bound:.6g}")
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "squared_norms", squared_norms)

    @property
    def dim(self) -> int:
        return self.columns.shape[-2]

    @property
    def count(self) -> int:
        return self.columns.shape[-1]


@dataclass
class CovarianceModel:
    """Mean vector plus top eigenpairs and an isotropic tail of a PSD covariance.

    The covariance is U diag(L) U^T + tail * (I - U U^T): ``eigvecs`` U is
    (dim, n_components) with orthonormal columns, ``eigvals`` L holds their
    eigenvalues, and every direction orthogonal to U has eigenvalue ``tail``.
    With n_components == dim there is no such direction and the tail is stored
    as 0. Eigenpairs are canonicalized to non-increasing eigenvalue order at
    construction time, so two models representing the same matrix compare
    spectrum-for-spectrum.

    A model may also be a stack of k models with the same dim and r: mean
    (k, dim), eigvecs (k, dim, r), eigvals (k, r) and tail a scalar or (k,).
    ``spectrum`` and ``matrix`` then answer per member. Eigenvectors are stored
    column-major per member, the layout sorting a single model's eigenvectors
    gives them, so that BLAS makes the same calls on a member as on that model.
    """

    mean: Array
    eigvecs: Array
    eigvals: Array
    tail: Union[float, Array] = 0.0

    def __post_init__(self):
        mean = _as_float_array(self.mean, "mean")
        vecs = _as_float_array(self.eigvecs, "eigvecs")
        vals = _as_float_array(self.eigvals, "eigvals")
        if mean.ndim < 1 or vecs.ndim != mean.ndim + 1 or vals.ndim != mean.ndim:
            raise DimensionMismatch("mean must be 1-D, eigvecs 2-D, eigvals 1-D")
        if (
            vecs.shape[:-1] != mean.shape
            or vecs.shape[:-2] + vecs.shape[-1:] != vals.shape
            or vals.shape[-1] > mean.shape[-1]
        ):
            raise DimensionMismatch(
                f"shape mismatch: mean {mean.shape}, eigvecs {vecs.shape}, eigvals {vals.shape}"
            )
        if (vals < 0).any():
            raise NotPositiveSemidefinite(f"negative eigenvalue {vals.min():.3e}")
        # a single model's tail comes out as a numpy float, a stack's as a (k,) array
        tail = np.full(mean.shape[:-1], self.tail, dtype=float)[()]
        if not np.isfinite(tail).all():
            raise NonFinite("tail is NaN or Inf")
        if (tail < 0).any():
            raise NotPositiveSemidefinite(f"negative tail {tail.min():.3e}")
        if (vals[..., :-1] >= vals[..., 1:]).all():
            # already non-increasing (a floored model always is): the order is
            # the identity, so only a row-major input is laid out again
            if not vecs.swapaxes(-1, -2).flags.c_contiguous:
                vecs = _column_major(vecs)
        else:
            # taking rows of the transpose leaves each member's eigenvectors column-major;
            # a single model indexes them directly, the same bytes at a quarter of the cost
            order = np.argsort(-vals, axis=-1, kind="stable")
            if vals.ndim == 1:
                vals, vecs = vals[order], vecs.T[order].T
            else:
                vals = np.take_along_axis(vals, order, axis=-1)
                vecs = np.take_along_axis(vecs.swapaxes(-1, -2), order[..., None], axis=-2).swapaxes(-1, -2)
        self.mean = mean
        self.eigvecs = vecs
        self.eigvals = vals
        self.tail = tail if vals.shape[-1] < mean.shape[-1] else tail * 0.0

    @classmethod
    def isotropic(cls, mean: Array, tail: Union[float, Array] = 0.0) -> "CovarianceModel":
        """tail * I about ``mean`` (one mean or a (k, dim) stack), stored with no eigenpairs."""
        return cls(mean, np.zeros(mean.shape + (0,)), np.zeros(mean.shape[:-1] + (0,)), tail)

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]

    @property
    def n_components(self) -> int:
        return self.eigvals.shape[-1]

    def spectrum(self) -> Array:
        """All dim eigenvalues, non-increasing: eigvals plus the tail dim - r times."""
        if self.n_components == self.dim:
            return self.eigvals
        tail = np.broadcast_to(
            np.asarray(self.tail)[..., None], self.eigvals.shape[:-1] + (self.dim - self.n_components,)
        )
        padded = np.concatenate([self.eigvals, tail], axis=-1)
        return np.sort(padded, axis=-1)[..., ::-1]

    def matrix(self) -> Array:
        """Reconstruct the dense covariance (U diag(L - tail) U^T + tail I), at cost dim^2 r."""
        return _reconstruct(self.eigvecs, self.eigvals, self.tail)


def rank(spectra: Array) -> Array:
    """Eigenvalues above DEFAULT_RANK_TOL times the largest, per member of (..., dim) spectra.

    The spectra may be in either order; a (dim,) spectrum gives one count.
    """
    return np.sum(spectra > DEFAULT_RANK_TOL * spectra.max(axis=-1, keepdims=True, initial=0.0), axis=-1)


def _column_major(vecs: Array) -> Array:
    """A copy of one (dim, r) matrix, or of each member of a stack, laid out column-major."""
    return np.ascontiguousarray(vecs.swapaxes(-1, -2)).swapaxes(-1, -2)


def _reconstruct(vecs: Array, vals: Array, tail=0.0) -> Array:
    """U diag(L - tail) U^T + tail I for one (dim, r) U and (r,) L, or for stacks of them."""
    dim = vecs.shape[-2]
    tail = np.asarray(tail)[..., None]
    mat = (vecs * (vals - tail)[..., None, :]) @ vecs.swapaxes(-1, -2)
    mat.reshape(*mat.shape[:-2], dim * dim)[..., :: dim + 1] += tail  # the diagonal
    return mat


def _psd_eigh(sym_matrix, vectors: bool = True) -> tuple[Array, Array | None]:
    """Ascending eigenvalues (tiny negatives clamped to 0) and eigenvectors of PSD matrices.

    ``sym_matrix`` is one (dim, dim) matrix or a stack (..., dim, dim); the
    symmetry and clamp checks hold for each member on its own scale, and a
    stack is rejected when any member fails them. Per-member values stay numpy
    scalars for one matrix, which keeps the checks as cheap as scalar code.
    With ``vectors`` false only the eigenvalues are computed (``eigvalsh``),
    under the same checks, and None stands in for the eigenvectors.
    """
    mat = _as_float_array(sym_matrix, "matrix")
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got shape {mat.shape}")
    mat_t = mat.swapaxes(-1, -2)
    scale = np.abs(mat).max(axis=(-2, -1), initial=1.0)
    asym = np.abs(mat - mat_t).max(axis=(-2, -1))
    bad = asym > 1e-9 * scale
    if bad.any():
        raise NonSymmetric(f"asymmetry {np.max(np.where(bad, asym, 0.0)):.3e} exceeds tolerance")
    sym = 0.5 * (mat + mat_t)
    if vectors:
        vals, vecs = np.linalg.eigh(sym)
    else:
        vals, vecs = np.linalg.eigvalsh(sym), None
    # each member's smallest and largest eigenvalue (.T keeps one matrix's scalars)
    low, high = vals.T[0], vals.T[-1]
    # low < -clamp * max(high, 0), split so that no member needs a max
    bad = (low < 0.0) & (low < -_NEG_EIG_CLAMP * high)
    if bad.any():
        clamp_floor = -_NEG_EIG_CLAMP * np.maximum(high, 0.0)
        worst = np.unravel_index(np.argmax(np.where(bad, clamp_floor - low, -np.inf)), np.shape(bad))
        raise NotPositiveSemidefinite(
            f"eigenvalue {low[worst]:.3e} below clamp threshold {clamp_floor[worst]:.3e}"
        )
    return np.maximum(vals, 0.0), vecs


def eig_decompose(sym_matrix, mean=None) -> CovarianceModel:
    """Eigendecompose a symmetric PSD matrix into a full-dimension CovarianceModel.

    The model's mean is ``mean``, or zeros when none is given.

    Tiny negative eigenvalues (within -1e-10 * lambda_max) are clamped to
    zero; anything more negative means the input was not PSD and is rejected.
    """
    vals, vecs = _psd_eigh(sym_matrix)
    return CovarianceModel(
        mean=np.zeros(vals.shape[0]) if mean is None else mean,
        eigvecs=vecs,
        eigvals=vals,
    )


def _is_thin(dim: int, count: int) -> bool:
    """At most half as many gradients as coordinates: the D x D reduction is then the cheaper path."""
    return 2 * count <= dim


def estimate_width(dim: int, count: int) -> int:
    """Components ``estimate_mean_cov`` keeps from ``count`` gradients of ``dim`` coordinates.

    One per gradient when the gradients are thin and one per coordinate
    otherwise; the shapes alone decide, whatever the gradients' rank.
    """
    return count if _is_thin(dim, count) else dim


def _second_moment(cols: Array, batch, out: Optional[Array] = None) -> Array:
    """The matrix (..., dim, D) gradients' eigenvalues are read from, scaled by 1/(B*D).

    X X^T for dense gradients; for thin ones the D x D Gram matrix X^T X, which
    has the same nonzero eigenvalues. An array ``batch`` broadcasts per member.
    The product is formed, then scaled, in ``out`` when given; without it
    each step makes a new array.
    """
    if _is_thin(*cols.shape[-2:]):
        mat = np.matmul(cols.swapaxes(-1, -2), cols, out=out)
    else:
        mat = np.matmul(cols, cols.swapaxes(-1, -2), out=out)
    return np.divide(mat, batch * cols.shape[-1], out=out)


def estimate_mean_cov(
    grads: GradientMatrix,
    batch: Union[int, Array],
) -> CovarianceModel:
    """Mean and 1/(B*D)-scaled second moment of a gradient collection.

    The second moment is uncentered, which matches the Gaussian-weighted
    update model under which the closed-form privacy results are exact.

    With more than dim/2 gradients D the dim x dim matrix is eigendecomposed
    and the model is full-dimension. With at most dim/2, the matrix has rank
    <= D: a thin QR of the gradients reduces it to a D x D matrix (cost
    O(dim D^2), not O(dim^3)) and the model keeps all D components, with
    tail 0. Only the shape decides which (``estimate_width``); near D = dim
    the dense path is the cheaper one.

    ``grads`` may hold a stack of users' gradients (see ``GradientMatrix``);
    all of them are decomposed in stacked calls into one model stack, whose
    members all keep the same number of components. ``batch`` is then one B
    for every member or a (k,) array of them. Each member equals the model of
    that user's gradients alone, bit for bit.
    """
    if np.any(np.asarray(batch) < 1):
        raise ValueError(f"batch must be >= 1, got {batch}")
    batch = np.asarray(batch)[..., None, None]  # a member's B broadcasts over its (dim, D) gradients
    single = grads.columns.ndim == 2
    cols = grads.columns[None] if single else grads.columns
    mean = cols.mean(axis=-1)
    if _is_thin(grads.dim, grads.count):
        # with X = cols / sqrt(B*D) = Q R, X X^T = Q (R R^T) Q^T: the D x D matrix
        # R R^T gives the eigenvalues, and Q times its eigenvectors orthonormal ones
        q, r = np.linalg.qr(cols / np.sqrt(batch * grads.count))
        vals, w = _psd_eigh(r @ r.swapaxes(-1, -2))
        vecs = q @ _column_major(w)
    else:
        vals, vecs = _psd_eigh(_second_moment(cols, batch))
    if single:
        mean, vecs, vals = mean[0], vecs[0], vals[0]
    return CovarianceModel(mean=mean, eigvecs=vecs, eigvals=vals)


def _positive_definite(mats: Array) -> bool:
    """Whether one stacked Cholesky factorization of every member runs to completion."""
    try:
        np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        return False
    return True


def _row_sums_clear(mat: Array, bound: float) -> bool:
    """Whether row sums put every member's largest eigenvalue at or below ``bound``.

    For each member M of the stack, with A = |M| and r = A 1 its row sums,
    b = max_i (A r)_i / r_i times 1 + (w + 4) eps bounds every |lambda(M)|
    for M's side w, rounding included (see ``floor_coverage``). A zero row
    adds a ratio of 0; a stack with another row sum below 2^-500 is not
    cleared. M is only read.
    """
    side = mat.shape[-1]
    entries = np.abs(mat)
    sums = entries @ np.ones(side)
    if not ((sums >= _ROW_SUM_MIN) | (sums == 0.0)).all():
        return False
    ratios = (entries @ sums[..., None])[..., 0] / np.maximum(sums, _ROW_SUM_MIN)
    return bool((ratios.max(axis=-1) * (1.0 + (side + 4) * _EPS) <= bound).all())


def _rounding_clears(side: int, inner: int) -> bool:
    """Whether the shape alone keeps a formed second moment within ``_psd_eigh``'s clamp.

    ``side`` is M's side w and ``inner`` the inner dimension n of the product
    M was formed by: true when w (n + 2) u / (1 - 2 (n + 2) u) <= 1e-10 - eta,
    with u = eps / 2 and eta = 4 w^2 eps (see ``floor_coverage``).
    """
    unit = (inner + 2) * _EPS / 2
    room = _NEG_EIG_CLAMP - 4 * side**2 * _EPS
    return 2.0 * unit < 1.0 and side * unit / (1.0 - 2.0 * unit) <= room


def _certified(mat: Array, floor: float, inner: int) -> bool:
    """Whether row sums or a Cholesky factorization, and the shape or a clamp Cholesky, clear ``mat``.

    ``mat`` is a stack of second moments M (see ``floor_coverage``), formed
    by products of inner dimension ``inner``, in its own contiguous
    buffer, whose flattened rows step along the diagonal. Where row sums and
    the shape clear every member, M is only read. Otherwise the shifted
    matrices are formed in that buffer: negation is exact, each diagonal is
    written from a saved copy of M's, and M is left as it was found.
    """
    side = mat.shape[-1]
    eta = 4 * side**2 * _EPS
    if eta >= _NEG_EIG_CLAMP or not (np.isfinite(mat).all() and (mat == mat.swapaxes(-1, -2)).all()):
        return False
    diag = mat.reshape(*mat.shape[:-2], side * side)[..., :: side + 1]
    trace = diag.sum(axis=-1)
    # a member too faint for the rounding bound clears by shape only when it is all zero
    clamped = _rounding_clears(side, inner) and not mat[trace < _ROW_SUM_MIN].any()
    ceiling = floor * (1.0 - eta)
    certified = _row_sums_clear(mat, ceiling)
    if certified and clamped:
        return True
    moment_diag = diag.copy()
    if not certified:
        mat *= -1.0
        diag[...] = ceiling - moment_diag
        certified = _positive_definite(mat)
        mat *= -1.0
    if certified and not clamped:
        diag[...] = moment_diag + (_NEG_EIG_CLAMP - eta) * trace[..., None] / side
        certified = _positive_definite(mat)
    diag[...] = moment_diag
    return certified


def floor_coverage(
    grads: GradientMatrix,
    batch: Union[int, Array],
    floor: float,
    spectra: bool = False,
    out: Optional[Array] = None,
) -> tuple[Array, Array | None]:
    """Which members ``floor`` covers, and with ``spectra`` their second moments' eigenvalues.

    Returns ``(covered, spectra)``: one flag per member, set when every
    eigenvalue of its 1/(B*D)-scaled second moment is at or below ``floor``,
    and the (..., dim) non-increasing spectra, or None unless asked for. The
    members' matrices are formed once: X X^T/(B*D) with more gradients than
    half the width, else the D x D Gram matrix X^T X/(B*D), which has the same
    nonzero eigenvalues (a thin spectrum is padded with zeros). Without
    ``spectra`` the stack is first offered to a certificate that needs no
    eigenvalue; only a stack it does not clear reads the eigenvalues of the
    same matrices, in one stacked ``eigvalsh`` call, as every stack does with
    ``spectra``. ``batch`` broadcasts as in ``estimate_mean_cov``. The values
    agree with the estimates' spectra up to the last bits ``eigvalsh`` and
    ``eigh`` differ in. Given ``out``, a contiguous (..., w, w) array, the
    matrices are formed there; nothing returned views it.

    The certificate clears a stack when, for every member, M is exactly
    symmetric, its largest eigenvalue is bounded by floor (1 - eta), and its
    smallest is within the clamp, with eta = 4 w^2 eps for M's side w. It
    clears only what the eigenvalues would cover. Exact symmetry makes M the
    very matrix ``_psd_eigh`` reads, and passes its symmetry check. The upper
    bound comes first from row sums: for any positive v, every |lambda(M)|
    is at most rho(|M|) <= max_i (|M| v)_i / v_i (Wielandt and
    Collatz-Wielandt; Horn & Johnson, Matrix Analysis, ch. 8). With v = r =
    |M| 1, any positive computed r serves; the nonnegative sums of |M| r,
    the division and the scaling round by less than (w + 2) eps, which the
    factor 1 + (w + 4) eps covers, so the computed b >= ||M||_2. Row sums of
    at least 2^-500 keep the products' underflow below eps / 64 of a row's
    (|M| r)_i >= r_i^2 / w. A row whose sum is exactly 0 is, by exact
    symmetry, a zero column too: M is the direct sum of an eigenvalue 0 and
    the other rows' matrix, whose row sums and ratios are the ones computed,
    so that row's ratio is taken as 0. Where b exceeds floor (1 - eta) for
    some member, floor (1 - eta) I - M is factored by Cholesky instead. A Cholesky
    factorization R of a w x w matrix A that runs to completion is exact for
    some A + E with |E| <= gamma_{w+1} |R^T| |R| (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 10), so ||E||_2 <= w gamma_{w+1}
    ||A + E||_2, about w^2 eps ||A||_2 / 2. For A = floor (1 - eta) I - M
    that gives lambda_max(M) <= floor (1 - eta + w^2 eps). Either way eigvalsh's computed value is larger by at most a
    modest p(w) eps floor; with eta = 4 w^2 eps, the 3 w^2 eps or more left
    over covers that and the rounding of floor (1 - eta), so ``eigvalsh``
    puts every eigenvalue at or below the floor.

    The clamp, computed lambda_min >= -1e-10 computed lambda_max, follows
    from the shape alone. Its premise is that M is ``_second_moment``'s own
    output: M = fl(fl(P) / c) for P = X X^T, the product of a member's
    gradients X with inner dimension n = D, and c = B D >= 1 (for thin
    gradients P = X^T X, n = dim, and X^T stands for X below), and that BLAS
    (or numpy's own loop) forms each entry of P as its n products summed in
    some order, with or without fused multiply-adds, and with no
    Strassen-like algorithm. The exact P / c is PSD. Each entry of fl(P) is
    a dot product computed in some order, so |fl(P) - P| <= gamma_n |X|
    |X|^T entrywise, with gamma_n = n u / (1 - n u) and u = eps / 2, FMA
    included (Higham, ch. 3.1 and 3.5; Jeannerod & Rump, SIMAX 2013, sharpen
    gamma_n to n u, which is not needed here). The division adds a relative
    u, so M = P / c + G with |G| <= gamma_{n+1} |X| |X|^T / c. G is
    symmetric, as M is exactly and P is, so ||G||_2 <= rho(|G|) <=
    gamma_{n+1} ||X||_F^2 / c, and by Weyl's inequality lambda_min(M) >=
    lambda_min(P / c) - ||G||_2 >= -gamma_{n+1} ||X||_F^2 / c. M's diagonal
    sums nonnegative products, so the same bounds give tr(M) >= (1 -
    gamma_{n+1}) ||X||_F^2 / c, and lambda_min(M) >= -(n + 1) u / (1 - 2 (n
    + 1) u) tr(M). The bound is relative to tr(M), and tr(M) / w <=
    lambda_max(M) since the trace sums the w eigenvalues: lambda_min(M) >=
    -w (n + 1) u / (1 - 2 (n + 1) u) lambda_max(M), on the scale the clamp
    is stated in, whatever M's size. Underflow breaks the relative bounds
    only by an absolute 2^-1075 per product (or fused multiply-add) and per
    division, as sums of subnormals are exact: at most w (n + 1) 2^-1074 in
    ||G||_2 and in the trace. The shape decides only for members whose
    computed trace, a sum of nonnegative terms, is at least 2^-500, where
    that is far below u lambda_max >= u tr(M) / w. Taking n + 2 for n + 1
    covers it and the few roundings of the shape test itself, which is w (n
    + 2) u / (1 - 2 (n + 2) u) <= 1e-10 - eta (``_rounding_clears``). That
    gives lambda_min(M) >= -(1e-10 - eta) lambda_max(M). ``eigvalsh`` moves
    either end by at most p(w) eps lambda_max; no Cholesky spends any of
    eta on this path, and eta covers that and the rounding of the clamp's
    own product. An all-zero M is cleared too: ``eigvalsh``'s error p(w) eps
    ||M||_2 is then 0, so it reads exact zeros, which pass the clamp (the
    Cholesky of M + tau I below refuses it, as tau is 0). A member of
    smaller nonzero trace, or a shape the test does not clear (10^5
    coordinates and 100 gradients, a thin n = 10^5, is one), is left to a
    Cholesky of M + tau I, with tau = (1e-10 - eta) tr(M)/w <= (1e-10 - eta)
    lambda_max: one that runs to completion bounds the computed lambda_min
    below by -1e-10 lambda_max, checked on the computed M itself.
    A thin Gram matrix has the nonzero eigenvalues of X X^T, so the upper
    bound covers it too. A matrix wider than about 330 has eta >= 1e-10, no
    room left for the clamp, and is never certified.
    """
    if np.any(np.asarray(batch) < 1):
        raise ValueError(f"batch must be >= 1, got {batch}")
    if not 0.0 <= floor < math.inf:
        raise ValueError(f"floor must be finite and >= 0, got {floor}")
    covered = np.full(grads.columns.shape[:-2], True)
    mat = _second_moment(grads.columns, np.asarray(batch)[..., None, None], out=out)
    # the products' inner dimension: D for X X^T, dim for a thin X^T X
    inner = grads.dim if _is_thin(grads.dim, grads.count) else grads.count
    if not spectra and _certified(mat, floor, inner):
        return covered, None
    vals, _ = _psd_eigh(mat, vectors=False)
    covered &= vals[..., -1] <= floor
    if not spectra:
        return covered, None
    padding = np.zeros(vals.shape[:-1] + (grads.dim - vals.shape[-1],))
    return covered, np.concatenate([padding, vals], axis=-1)[..., ::-1]


def floor_eigenvalues(
    model: CovarianceModel, floor: Union[float, Array]
) -> tuple[CovarianceModel, Union[float, Array]]:
    """Lift every eigenvalue, the tail included, to at least ``floor``.

    Returns ``(floored, lift_trace)``: the model with eigenvalues
    max(lam, floor) and tail max(tail, floor), and the trace of the added
    covariance, sum_j max(floor - lam_j, 0) + (dim - r) max(floor - tail, 0).
    The directions a low-rank model leaves out are the tail, so flooring
    fills them too. A model stack is floored member by member, at one floor
    for every member or at a (k,) array of them, and its lift traces come back
    as a (k,) array.
    """
    if np.any(np.asarray(floor) < 0):
        raise ValueError(f"floor must be >= 0, got {floor}")
    floors = np.asarray(floor)[..., None]  # a member's floor broadcasts over its eigenvalues
    # the lift of a non-increasing spectrum is non-decreasing; it is summed from
    # the largest eigenvalue's end, the order ledgers' noise traces were recorded in
    lift_trace = np.maximum(floors - model.spectrum(), 0.0)[..., ::-1].sum(axis=-1)
    # the lifted eigenvalues stay non-increasing, so the floored model shares
    # the eigenvectors; the mean it keeps as given, so it gets a copy
    floored = CovarianceModel(
        mean=model.mean.copy(),
        eigvecs=model.eigvecs,
        eigvals=np.maximum(model.eigvals, floors),
        tail=np.maximum(model.tail, floor),
    )
    return floored, float(lift_trace) if lift_trace.ndim == 0 else lift_trace


def _member_normals(rngs: Sequence[np.random.Generator], widths: Array) -> Array:
    """Row i holds ``widths[i]`` standard normals drawn from ``rngs[i]``, then zeros.

    Consecutive members that share one generator and one width are drawn in
    one call, which fills their rows as one call per member would.
    """
    cuts = [0] + [
        i for i in range(1, len(rngs))
        if rngs[i] is not rngs[i - 1] or widths[i] != widths[i - 1]
    ] + [len(rngs)]
    if len(cuts) == 2:
        return rngs[0].standard_normal((len(rngs), int(widths[0])))
    out = np.zeros((len(rngs), int(widths.max())))
    for start, stop in zip(cuts, cuts[1:]):
        width = int(widths[start])
        out[start:stop, :width] = rngs[start].standard_normal((stop - start, width))
    return out


def sample_gaussian(model: CovarianceModel, rng) -> Array:
    """Draw mean + U (sqrt(L) * a) + sqrt(tail) (w - U U^T w) from each member's generator.

    ``a`` holds r standard normals and ``w`` dim more, drawn after ``a`` in
    the same call and only when the member has a nonzero tail. Deterministic
    given the generator state; a zero spectrum returns the mean exactly, and
    rank-deficient models without a tail sample only inside their eigenspace.
    For a model stack, ``rng`` is a sequence of generators, one per member,
    and row i is member i's draw from ``rng[i]``. A single model with one
    generator is drawn as a stack of one, and its draw is that stack's row.
    """
    mean, vecs, vals, tail = model.mean, model.eigvecs, model.eigvals, model.tail
    single = mean.ndim == 1
    if single:
        mean, vecs, vals, tail, rng = mean[None], vecs[None], vals[None], np.reshape(tail, (1,)), [rng]
    if not np.isfinite(vals).all():
        raise NonFinite("model eigvals contain NaN or Inf")
    r, dim = vals.shape[-1], mean.shape[-1]
    tailed = tail != 0.0
    z = _member_normals(rng, r + dim * tailed)[:, None, :]
    # each member's factor is column-major, as a model alone has it, so each
    # member's product is the one it would get alone
    head = vecs * np.sqrt(vals)[:, None, :]
    draws = z[..., :r] @ head.swapaxes(-1, -2)
    if tailed.any():
        w = z[..., r:]
        off_span = w - (w @ vecs) @ vecs.swapaxes(-1, -2)
        spread = draws + np.sqrt(tail)[:, None, None] * off_span
        draws = np.where(tailed[:, None, None], spread, draws)
    draws = mean + draws[:, 0]
    return draws[0] if single else draws


def renyi_gaussian(alpha: float, p: CovarianceModel, q: CovarianceModel) -> float:
    """Exact Renyi divergence of order alpha between two full-rank Gaussians.

    Both models' full spectra (tail included) enter the log-determinants.

    D_a(p || q) = (a/2) dm^T S_a^{-1} dm
                  - 1/(2(a-1)) * ln( |S_a| / (|Sp|^(1-a) |Sq|^a) ),
    with S_a = (1-a) Sp + a Sq, valid whenever S_a is positive definite.
    """
    if p.dim != q.dim:
        raise DimensionMismatch(f"dimension mismatch: {p.dim} vs {q.dim}")
    return float(_renyi_divergence(
        alpha, p.mean, q.mean, p.matrix(), q.matrix(), p.spectrum(), q.spectrum()
    ))


def _renyi_divergence(alpha, mean_p, mean_q, sig_p, sig_q, spec_p, spec_q) -> Array:
    """``renyi_gaussian`` on raw arrays, for one pair or a stack of pairs.

    Means are (..., dim), covariances (..., dim, dim) and spectra (..., dim)
    in non-increasing order. Raises when any member is rank deficient or has
    an indefinite S_a.
    """
    if alpha <= 0 or alpha == 1.0:
        raise ValueError(f"alpha must be positive and != 1, got {alpha}")
    for name, spec in (("p", spec_p), ("q", spec_q)):
        if np.any(rank(spec) < spec.shape[-1]):
            raise SingularCovariance(f"model {name} is rank deficient")
    sig_a = (1.0 - alpha) * sig_p + alpha * sig_q
    try:
        chol = np.linalg.cholesky(sig_a)
    except np.linalg.LinAlgError:
        raise IndefiniteSigmaAlpha(
            f"(1-a)*Sp + a*Sq is not positive definite at alpha={alpha}"
        ) from None
    white = np.linalg.solve(chol, (mean_p - mean_q)[..., None])
    term_mean = 0.5 * alpha * (white.swapaxes(-1, -2) @ white)[..., 0, 0]
    logdet_a = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
    # contiguous copies: a reversed view's logs can differ from its copy's in the last bit
    logdet_p = np.sum(np.log(np.ascontiguousarray(spec_p)), axis=-1)
    logdet_q = np.sum(np.log(np.ascontiguousarray(spec_q)), axis=-1)
    term_det = -(logdet_a - (1.0 - alpha) * logdet_p - alpha * logdet_q) / (2.0 * (alpha - 1.0))
    return np.maximum(term_mean + term_det, 0.0)


def span_contains(columns: Array, vector, tol: float = 1e-8) -> bool:
    """Whether ``vector`` lies in the column space of the (dim, n) array ``columns``.

    The column-space rank is read off singular values above tol * sigma_max;
    membership means the projection residual is <= tol * max(||v||, 1).
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    cols = _as_float_array(columns, "columns")
    v = _as_float_array(vector, "vector")
    if cols.ndim != 2 or v.ndim != 1 or v.shape[0] != cols.shape[0]:
        raise DimensionMismatch(f"vector of shape {v.shape} vs columns of shape {cols.shape}")
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
) -> Array:
    """Spectrum of the covariance of a sum of independent Gaussians, non-increasing.

    Covariances add; the means are not summed. When every stored eigenvalue
    of every model equals its model's tail, each model is tail_i I and the sum
    is c I, with c the summed tails plus ``isotropic_extra``: its (dim,)
    spectrum is c repeated, with no decomposition at all. Otherwise every
    model's ``matrix()`` is added and the eigenvalues of the dim x dim total,
    without eigenvectors, are returned. ``isotropic_extra`` adds that much
    variance to every coordinate, which is how distributed isotropic noise
    shares enter the aggregate. ``models`` may hold model stacks; their
    members are added in order, as if each were listed on its own.
    """
    if not models:
        raise ValueError("need at least one model to sum")
    dim = models[0].dim
    if any(m.dim != dim for m in models):
        raise DimensionMismatch("models have inconsistent dimensions")
    # a full-dimension model stores tail 0, so it is isotropic only when it is
    # zero; skipping it saves the scan on the dense sums of small-dim models
    if all(m.n_components < dim and np.all(m.eigvals == np.asarray(m.tail)[..., None]) for m in models):
        # summed in the order the dense path adds its diagonal, so c matches it bit for bit
        tail = sum(float(t) for m in models for t in np.asarray(m.tail).reshape(-1)) + isotropic_extra
        return np.full(dim, tail)
    total = np.zeros((dim, dim))
    for m in models:
        # a stack is reconstructed in one call and added member by member
        for member in m.matrix().reshape(-1, dim, dim):
            total += member
    if isotropic_extra:
        total[np.diag_indices(dim)] += isotropic_extra
    # a contiguous copy: numpy reduces a reversed view in memory order, not in the order it lists
    return _psd_eigh(total, vectors=False)[0][::-1].copy()
