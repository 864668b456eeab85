"""Best-fit linear step operator extraction from a snapshot matrix (DMD).

Given the m x (n+1) snapshot matrix X, the method fits the one-step
shifted pair X1 = X[:, :-1], X2 = X[:, 1:]: it computes a truncated SVD
X1 = U S V^T, projects the step operator onto the U basis as
A~ = U^T X2 V S^{-1}, eigendecomposes A~ W = W L, lifts modes as
Phi = U W, and fits amplitudes b = W^{-1} U^T x1, the least-squares fit
of Phi b to the first snapshot x1 (U has orthonormal columns). The full
m x m operator is never formed. Reconstruction: x_j = Phi L^{j-1} b.

Truncation. The default rule (``DEFAULT_RULE``, ``thresholded-energy``
0.9999) keeps the smallest rank that holds 99.99 % of X1's squared
singular-value energy, capped at max(1, #{sigma_k > omega(beta)
median(sigma)}): the Gavish-Donoho hard threshold for a low-rank matrix
in white noise of unknown level (IEEE Trans. Inf. Theory 2014), with
beta = min(m, n) / max(m, n) of X1 (m x n) and the median over X1's
whole spectrum (:func:`_noise_rank`). Every route passes X1's shape, also
when it takes the spectrum from a compressed factor of X1. The cap only
lowers the energy rank, so it stops the rank from growing into the
noise, where the energy rule fits noise directions as modes. On
noise-free data the Gram route resolves no sigma below about
sqrt(eps) sigma_1, so the threshold count is at least the signal rank
and the energy rank stands. ``energy-fraction`` is the uncapped rule.

Hankel matrices. When X is the Hankel matrix of one series s and is
wide (n > m + 1), X1 X1^T and X2 X1^T are blocks of the (m+1) x (m+1)
lagged Gram matrix G[i, j] = sum_k s[i+k] s[j+k] of the pair's m + 1
distinct rows (the method of snapshots, Sirovich, Q. Appl. Math. 1987;
the lagged covariance of singular spectrum analysis, Vautard & Ghil,
Physica D 1989). G costs O(m n + m^2): its first row is one correlation
of the series, and each later row follows from the one above it down
the diagonals, G[i, j] = G[i-1, j-1] + s[i-1+n] s[j-1+n] - s[i-1] s[j-1].
Then eigh(G[:m, :m]) = U S^2 U^T gives X1's left singular vectors and squared
singular values, and A~ = U_r^T G[1:, :m] U_r S_r^-2 is exact DMD's
operator, with no m x n product, QR or SVD (:func:`_gram_projection`).
Squaring the condition number is harmless while sigma_r stays well above
G's rounding: the computed eigenpairs are exact for X1 X1^T + E with
||E||_2 of a few eps sigma_1^2, which moves A~ by about
||E||_2 / sigma_r^2. So the Gram route is taken only when the requested
rank keeps sigma_r > sqrt(4 eps / 1e-8) sigma_1 = 3.0e-4 sigma_1, where
that move is below 1e-8, the eigen-residual tolerance of
:func:`eig_modes`. Otherwise (a rank near m, noise-free input, an
all-zero window) the fit takes the QR route: a Householder QR
H^T = Q R of the m + 1 rows, read as a view of the series, gives
L = R^T with X1 = L[:m] Q^T and X2 = L[1:] Q^T, and the SVD, operator
and eigen-steps run on the m x (m+1) pair (L[:m], L[1:]). Exact DMD is
unchanged by the orthonormal change of basis Q^T on the right (Tu et al.,
J. Comput. Dyn. 2014), and Householder QR is backward stable, so that
route resolves every singular value to about eps sigma_1. Both routes
agree with the direct fit up to rounding, which the Gram route amplifies
by up to (sigma_1 / sigma_r)^2.

Other snapshot matrices. Any other X (every MR-DMD bin, every tall
Hankel matrix) takes the R route (:func:`_shift_projection`): the thin
Householder QR X = Q R gives X1 = Q R[:, :-1] and X2 = Q R[:, 1:], and
the fit runs on the pair (R[:, :-1], R[:, 1:]) of at most n + 1 rows,
with U^T x1 = U_R^T R[:, 0]. It is exact DMD in another orthonormal
basis, and the QR is backward stable, so it is the direct fit up to
rounding at eps sigma_1. Its modes stay factored, Phi = Q (U_R W), and a
bin lifts through Q (never through X1 V S^-1, which amplifies rounding
by sigma_1 / sigma_r) only the columns it reads (:meth:`DmdResult.lifted`).

A fit keeps what its readers use: the modes, eigenvalues and amplitudes,
the rank and the singular values. The reduced operator and its
eigenvectors are checked in :func:`eig_modes` and then dropped. Every
mode has unit norm (orthonormal U, or Q U_R, times unit W columns), so
the mode order and the mode reports read no m-row array.

Conjugate pairs. The reduced operator is real, so its complex eigenvalues
come in conjugate pairs with conjugate eigenvectors. :func:`eig_modes`
lifts and checks only the first member of each pair (and each real
eigenvalue), and writes the partner's mode as the exact conjugate of its
first member's, so the two members are conjugate by construction, on any
BLAS build and thread count.

The eigenvector check rejects W when sigma_min(W) <= 1e-12 sigma_max(W).
It is decided by a certificate in real arithmetic: W of a real operator
has the singular values of the real matrix Y with W's real columns and
sqrt(2) Re w, sqrt(2) Im w for each conjugate pair, and a Cholesky
factorization of Y^T Y - tau I that completes proves sigma_min(W) far
above that bound (Demmel, LAPACK Working Note 14, 1989; Higham, Accuracy
and Stability of Numerical Algorithms, 2002, section 10.1), at a fraction
of the cost of the singular values. When the factorization breaks down,
the singular values decide, so every decision is the singular-value
rule's.

Both analyses evaluate their modes through one factored form,
:class:`ModeFactor`: mode shapes, amplitudes and continuous eigenvalues
omega = f_sp ln(lambda), a conjugate pair folded into one column. Its
anti-diagonal sums are one FFT convolution of each mode shape with its
geometric sequence. Single-window DMD reads it at dt = f_sp = 1, where
omega = ln(lambda) and x_j = Phi L^j b (:func:`reconstruct_series`); an
MR-DMD bin reads its slow modes at the full sample rate.
:func:`reconstruct_window` forms the dense window from its own powers of
L, the independent check of the factor.

All functions are pure; results are immutable and safe to share across
threads. Linear-algebra kernels may use threaded BLAS internally, which is
deterministic for a fixed library and thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .stacking import antidiagonal_counts

# Singular values at or below these floors carry no usable signal.
_SV_ABS_FLOOR = 1e-300
_SV_RATIO_FLOOR = 1e-12

_EIG_RESIDUAL_RTOL = 1e-8

# The Gram route keeps a rank r only when sigma_r^2 > _GRAM_CUT_SQ * sigma_1^2
# (sigma_r > 3.0e-4 sigma_1): G's rounding, at most about 4 eps sigma_1^2, then
# moves A~ by at most about 1e-8, the eigen-residual tolerance (see _gram_projection).
_GRAM_CUT_SQ = 4 * np.finfo(float).eps / _EIG_RESIDUAL_RTOL

# Modes transformed together by ModeFactor.antidiagonal_sums. The two spectra
# of a block are 2 * 64 * 16 bytes per FFT point (10 MB on a 1000 x 4001
# window), and every MR-DMD bin of rank <= 64 is a single block.
_SERIES_BLOCK = 64

# BLAS products round the columns of a partial output tile differently from
# the rest, and differently again on their small-matrix path. Evaluating a
# factor in whole tiles of this many columns keeps each MR-DMD bin's input
# bit-identical to the data less its lineage factor's full-span product, on
# builds whose column tile divides it (measured on OpenBLAS's SkylakeX dgemm);
# noise-only bins amplify any last-bit difference.
_TILE = 8

TRUNC_FIXED = "fixed-rank"
TRUNC_ENERGY = "energy-fraction"
TRUNC_RATIO = "singular-value-ratio"
TRUNC_THRESHOLDED = "thresholded-energy"


class DecompositionError(ValueError):
    """Raised when a snapshot matrix cannot be decomposed as requested."""


class ZeroSignalError(DecompositionError):
    """Raised for matrices with no signal energy (all-zero input)."""


@dataclass(frozen=True)
class TruncationRule:
    """SVD truncation policy.

    kind is one of ``fixed-rank`` (value: positive integer rank),
    ``energy-fraction`` (value in (0, 1]: smallest rank capturing that
    fraction of squared singular-value energy), ``singular-value-ratio``
    (value in (0, 1): keep singular values above value * sigma_1) or
    ``thresholded-energy`` (value in (0, 1]: the energy-fraction rank,
    capped at the number of singular values above the Gavish-Donoho hard
    threshold, and at least 1; :func:`_noise_rank`).
    """

    kind: str
    value: float

    def __post_init__(self) -> None:
        if self.kind == TRUNC_FIXED:
            if int(self.value) != self.value or self.value < 1:
                raise ValueError("fixed-rank truncation needs a positive integer rank")
        elif self.kind in (TRUNC_ENERGY, TRUNC_THRESHOLDED):
            if not 0.0 < self.value <= 1.0:
                raise ValueError("energy fraction must lie in (0, 1]")
        elif self.kind == TRUNC_RATIO:
            if not 0.0 < self.value < 1.0:
                raise ValueError("singular-value ratio must lie in (0, 1)")
        else:
            raise ValueError(f"unknown truncation kind {self.kind!r}")

    @classmethod
    def fixed(cls, rank: int) -> "TruncationRule":
        return cls(TRUNC_FIXED, rank)

    @classmethod
    def energy(cls, fraction: float) -> "TruncationRule":
        return cls(TRUNC_ENERGY, fraction)

    @classmethod
    def sv_ratio(cls, ratio: float) -> "TruncationRule":
        return cls(TRUNC_RATIO, ratio)


DEFAULT_RULE = TruncationRule(TRUNC_THRESHOLDED, 0.9999)


@dataclass(frozen=True)
class SvdTruncation:
    """Rank-truncated SVD factors plus the full pre-truncation spectrum."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    rank: int
    singular_values: np.ndarray
    rank_clamped: bool


@dataclass(frozen=True)
class DmdResult:
    """Outcome of one decomposition.

    The unit-norm modes are Phi = basis @ coefficients: on the R route the
    pair's thin Q times U_R W, lifted to m rows only on request
    (:meth:`lifted`, :attr:`modes`); elsewhere ``basis`` is None and
    ``coefficients`` are Phi = U W. eigenvalues are the per-step
    multipliers, amplitudes the least-squares fit of the first snapshot,
    solved as W b = U^T x1. Modes are ordered by descending score |b_k|, ties broken by
    descending |lambda| with the non-negative imaginary member first. Both
    members of a conjugate pair take the pair's larger score, so a pair is
    listed as two adjacent modes, the positive-imaginary member first;
    :func:`conjugate_pairs` finds them, and the mode reports, the series and
    the MR-DMD slow factors read pairs from it. The second member's mode is
    the exact conjugate of the first's (its amplitude need not be), so
    :func:`reconstruct_series` takes one convolution per pair.
    The reduced operator and its eigenvectors are not kept: :func:`eig_modes`
    checks the eigen residuals and conditioning when the fit is made.
    singular_values is X1's whole spectrum. On the Gram route of a wide
    Hankel matrix (:func:`dmd`) it comes from sigma^2, so sigma_k is resolved
    to about 2 eps sigma_1^2 / sigma_k: the retained ones to better than
    2e-12 sigma_1, the ones far below the cut only to about
    sqrt(eps) sigma_1.
    """

    coefficients: np.ndarray
    eigenvalues: np.ndarray
    amplitudes: np.ndarray
    rank: int
    singular_values: np.ndarray
    rank_clamped: bool
    basis: np.ndarray | None = None

    def __post_init__(self) -> None:
        for field in ("coefficients", "eigenvalues", "amplitudes", "singular_values", "basis"):
            if (arr := getattr(self, field)) is not None:
                arr.setflags(write=False)

    def lifted(self, idx: np.ndarray) -> np.ndarray:
        """Phi's columns ``idx`` at full rows: basis @ coefficients[:, idx], one real product."""
        cols = self.coefficients[:, idx]
        return cols if self.basis is None else _real_times(self.basis, cols)

    @cached_property
    def modes(self) -> np.ndarray:
        """Phi at full rows, each partner the exact conjugate of its first member; lifted on first use."""
        if self.basis is None:
            return self.coefficients
        phi, pair = self.lifted(slice(None)), conjugate_pairs(self.eigenvalues)
        phi[:, pair + 1] = phi[:, pair].conj()
        phi.setflags(write=False)
        return phi


def _noise_rank(s: np.ndarray, shape: tuple[int, int]) -> int:
    """How many of X1's descending singular values s lie above the Gavish-Donoho hard threshold.

    The threshold is omega(beta) median(s), with beta = min(m, n) / max(m, n)
    of X1's shape (m, n) and omega(beta) = 0.56 beta^3 - 0.95 beta^2 +
    1.82 beta + 1.43, the optimal hard threshold for a low-rank matrix in
    white noise of unknown level (Gavish & Donoho, IEEE Trans. Inf. Theory
    2014). The median runs over X1's whole spectrum.
    """
    beta = min(shape) / max(shape)
    omega = 0.56 * beta**3 - 0.95 * beta**2 + 1.82 * beta + 1.43
    return int(np.sum(s > omega * np.median(s)))


def _requested_rank(
    s: np.ndarray, rule: TruncationRule, shape: tuple[int, int], s2: np.ndarray | None = None
) -> int:
    """The rank a rule asks of X1's descending singular values s, X1 of ``shape``.

    The energy rules read s2 = s^2 when given; the threshold reads ``shape``.
    """
    if rule.kind == TRUNC_FIXED:
        return int(rule.value)
    if rule.kind == TRUNC_RATIO:
        return max(int(np.sum(s > rule.value * s[0])), 1)
    energy = np.cumsum(s * s if s2 is None else s2)
    rank = int(np.searchsorted(energy, rule.value * energy[-1], side="left")) + 1
    if rule.kind == TRUNC_THRESHOLDED:
        rank = min(rank, max(1, _noise_rank(s, shape)))
    return rank


def svd_truncated(
    x: np.ndarray, rule: TruncationRule = DEFAULT_RULE, shape: tuple[int, int] | None = None
) -> SvdTruncation:
    """Truncated SVD of a snapshot matrix under a truncation rule.

    Singular directions below the relative floor 1e-12 never count as
    available; a rule demanding more than the available rank is clamped
    and flagged. An all-zero matrix is rejected. :func:`dmd` calls this
    for any snapshot matrix but a wide Hankel one whose requested rank is
    resolved from its lagged Gram matrix; there the singular values below
    the cut are resolved only to about sqrt(eps) sigma_1 (:class:`DmdResult`).
    ``shape`` is the shape whose beta the noise threshold reads (default:
    x's own). :func:`dmd` passes X1's when x is a compressed factor with
    X1's spectrum, L[:m] or R[:, :-1].
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.size == 0:
        raise DecompositionError("snapshot matrix must be 2-D and non-empty")
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    if s[0] <= _SV_ABS_FLOOR:
        raise ZeroSignalError("no signal energy in snapshot matrix")
    available = int(np.sum(s > max(_SV_ABS_FLOOR, s[0] * _SV_RATIO_FLOOR)))
    requested = _requested_rank(s, rule, x.shape if shape is None else shape)
    rank = min(requested, available)
    return SvdTruncation(
        u=u[:, :rank].copy(),
        sigma=s[:rank].copy(),
        v=vh[:rank].T.copy(),
        rank=rank,
        singular_values=s,
        rank_clamped=requested > available,
    )


def reduced_operator(u: np.ndarray, sigma: np.ndarray, v: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Project the step operator onto the U basis: U^T X2 V S^{-1}."""
    u = np.asarray(u)
    v = np.asarray(v)
    sigma = np.asarray(sigma)
    x2 = np.asarray(x2)
    r = u.shape[1]
    if sigma.shape != (r,) or v.shape[1] != r:
        raise ValueError("inconsistent truncation shapes for U, sigma, V")
    if x2.shape != (u.shape[0], v.shape[0]):
        raise ValueError(
            f"X2 shape {x2.shape} does not match U rows {u.shape[0]} and V rows {v.shape[0]}"
        )
    a_tilde = (u.T @ x2 @ v) / sigma[None, :]
    if not np.all(np.isfinite(a_tilde)):
        raise DecompositionError("reduced operator has non-finite entries")
    return a_tilde


def eig_modes(a_tilde: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigendecompose the real reduced operator and lift modes as Phi = U W (U real; U_R on the R route).

    Eigenvector columns are normalized to unit 2-norm before projection.
    eig lists a conjugate pair of a real operator as adjacent columns with
    exactly conjugate eigenvalues and eigenvectors, positive-imaginary
    member first (:func:`conjugate_pairs`). Only real eigenvalues and first
    members are lifted and checked, in one real product each on their
    columns' float view (:func:`_real_times`); a partner's mode is written
    as the exact conjugate of its first member's, and its residual is its
    first member's. A defective (non-diagonalizable) operator is rejected
    with a hint to lower the truncation rank by one: a zero eigenvector, a
    numerically singular W (sigma_min(W) <= 1e-12 sigma_max(W), decided by
    :func:`_eigenvectors_independent`), or an eigen residual above
    1e-8 ||A~||_2.
    """
    a_tilde = np.asarray(a_tilde)
    if a_tilde.ndim != 2 or a_tilde.shape[0] != a_tilde.shape[1]:
        raise ValueError("reduced operator must be square")
    if u.shape[1] != a_tilde.shape[0]:
        raise ValueError("U columns must match the reduced operator size")
    if np.iscomplexobj(a_tilde) or np.iscomplexobj(u):
        raise ValueError("the reduced operator and U must be real")
    try:
        eigvals, w = np.linalg.eig(a_tilde)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(
            f"eigendecomposition failed ({exc}); retry with truncation rank r-1"
        ) from exc
    # eig returns real arrays for an all-real spectrum
    eigvals = eigvals.astype(complex)
    w = w.astype(complex)
    norms = np.linalg.norm(w, axis=0)
    if np.any(norms == 0):
        raise DecompositionError(
            "reduced operator appears defective (zero eigenvector); retry with truncation rank r-1"
        )
    w = w / norms[None, :]
    pair = conjugate_pairs(eigvals)
    if not _eigenvectors_independent(w, pair):
        raise DecompositionError(
            "reduced operator appears defective (eigenvector matrix is singular); "
            "retry with truncation rank r-1"
        )
    first = np.delete(np.arange(eigvals.size), pair + 1)
    w_first = w[:, first]
    residuals = np.linalg.norm(_real_times(a_tilde, w_first) - w_first * eigvals[first], axis=0)
    if not _residuals_within_tol(a_tilde, residuals):
        raise DecompositionError(
            "reduced operator appears defective (eigen residual "
            f"{residuals.max():.3e} exceeds {_EIG_RESIDUAL_RTOL:.0e} * ||A~||); "
            "retry with truncation rank r-1"
        )
    phi = np.empty((u.shape[0], eigvals.size), dtype=complex)
    phi[:, first] = _real_times(u, w_first)
    phi[:, pair + 1] = phi[:, pair].conj()
    return w, eigvals, phi


def _real_times(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """a @ z for real a and complex z, as one real product on the float view of z's rows.

    The view interleaves each column's real and imaginary parts, so the
    product needs no complex copy of a and half the multiplications of a
    complex product.
    """
    return (a @ np.ascontiguousarray(z).view(float)).view(complex)


def _eigenvectors_independent(w: np.ndarray, pair: np.ndarray) -> bool:
    """Whether sigma_min(W) > 1e-12 * sigma_max(W), for eig's W of a real operator with unit-norm columns.

    Columns k and k + 1 for k in ``pair`` are exact conjugates, and every
    other column is real, as eig gives them. W has the singular values of
    the real matrix Y that keeps each real column and puts sqrt(2) Re w_k
    and sqrt(2) Im w_k in place of a pair's columns: with w_k = a + ib,
    [w_k, conj(w_k)] = [sqrt(2) a, sqrt(2) b] T with T = [[1, 1], [i, -i]] / sqrt(2)
    unitary. ||Y||_F^2 = ||W||_F^2 = r, so sigma_max(W)^2 <= r.

    Certificate first, in real arithmetic: with tau = 100 (r + 1)^2 eps,
    Cholesky-factor G = fl(Y^T Y) - tau I. Forming G and factoring it are
    backward stable (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, Lemma 3.5 and Theorem 10.3; ||Y||_F^2 = r bounds
    both terms), so a factorization that completes with finite pivots gives
    Y^T Y - tau I + E = R^T R, positive semidefinite, with
    ||E||_2 <= 2 r (r + 3) eps < tau / 25. Hence

        sigma_min(W)^2 >= tau - ||E||_2 >= tau / 2 = 50 (r + 1)^2 eps,
        sigma_min(W) / sigma_max(W) >= sqrt(50 eps) (r + 1) / sqrt(r) > 2e-7,

    five orders of magnitude above the 1e-12 bound and above the computed
    singular values' own error, so the singular-value rule accepts too. A
    factorization that breaks down proves nothing, and then W's computed
    singular values decide, as they do without the certificate.
    """
    r = w.shape[1]
    y = w.real.copy()
    y[:, pair] *= np.sqrt(2.0)
    y[:, pair + 1] = np.sqrt(2.0) * w[:, pair].imag
    gram = y.T @ y
    gram.flat[:: r + 1] -= 100.0 * (r + 1) ** 2 * np.finfo(float).eps
    try:
        # a NaN pivot does not make LAPACK report a breakdown
        if np.isfinite(np.linalg.cholesky(gram).diagonal()).all():
            return True
    except np.linalg.LinAlgError:
        pass
    wsv = np.linalg.svd(w, compute_uv=False)
    return wsv[-1] > 1e-12 * wsv[0]


def _residuals_within_tol(a_tilde: np.ndarray, residuals: np.ndarray) -> bool:
    """Whether every eigen residual is at most 1e-8 * ||A~||_2.

    The largest column norm of A~ is a lower bound on ||A~||_2, so residuals
    below the tolerance on that bound (less a 1e-6 relative margin for
    rounding) pass without the SVD that the 2-norm costs. Any other case
    takes the 2-norm, and the decision is the 2-norm rule's.
    """
    if residuals.max() <= _EIG_RESIDUAL_RTOL * (1 - 1e-6) * np.linalg.norm(a_tilde, axis=0).max():
        return True
    return not np.any(residuals > _EIG_RESIDUAL_RTOL * np.linalg.norm(a_tilde, 2))


def amplitudes(u: np.ndarray, w: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """Mode amplitudes b that minimize ||U W b - x1||, from W b = U^T x1.

    U has orthonormal columns, so ||U W b - x1||^2 = ||W b - U^T x1||^2
    plus a term free of b, and the m x r least-squares fit on Phi = U W is
    the r x r solve. W is invertible: eig_modes rejects a numerically
    singular one.
    """
    if u.shape[0] != np.shape(x1)[0]:
        raise ValueError("first snapshot length must match mode rows")
    return np.linalg.solve(w, u.T @ x1)


def conjugate_pairs(eigenvalues: np.ndarray) -> np.ndarray:
    """Indices k at which modes k and k + 1 are a conjugate pair.

    That is Im(lambda_k) > 0 and lambda_(k+1) = conj(lambda_k) exactly, as
    dmd() lists a pair: adjacent, the positive-imaginary member first.
    """
    return np.flatnonzero((eigenvalues[:-1].imag > 0) & (eigenvalues[1:] == eigenvalues[:-1].conj()))


def _powers(eigenvalues: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """lambda ** j as exp(j ln lambda) for each eigenvalue (rows) and exponent (columns).

    A zero eigenvalue gives 0 ** 0 = 1 and 0 ** j = 0 for j > 0.
    """
    zero = eigenvalues == 0
    log = np.log(np.where(zero, 1.0, eigenvalues))
    powers = np.exp(log[:, None] * exponents[None, :])
    powers[zero] = exponents == 0
    return powers


def reconstruct_window(result: DmdResult, n_columns: int) -> np.ndarray:
    """Reconstruction over iterations 1..n_columns as a complex m x n matrix."""
    if n_columns < 1:
        raise ValueError("need at least one column")
    powers = _powers(result.eigenvalues, np.arange(n_columns))
    return result.modes @ (result.amplitudes[:, None] * powers)


@lru_cache  # each MR-DMD bin asks again for one of a few lengths
def _fast_length(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n, a length numpy.fft transforms quickly."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


@dataclass(frozen=True)
class ModeFactor:
    """A fit's modes in factored form, analytic at any column of ``col_span``.

    Column j of the span is Re(sum_k modes[:, k] amplitudes[k] exp(omega[k] dt j)),
    with omega_k = f_sp ln(lambda_k) carrying an eigenvalue at the fit's
    snapshot rate f_sp to the column interval dt. ``modes`` (rows x r) is a
    copy with one column per conjugate pair; an empty factor evaluates to
    zeros. Single-window DMD reads every mode at dt = f_sp = 1
    (:func:`reconstruct_series`), an MR-DMD bin its slow modes at the full
    rate (``mrdmd.lineage_factor`` stacks them). The arrays are read-only.
    """

    col_span: tuple[int, int]
    modes: np.ndarray
    amplitudes: np.ndarray
    omega: np.ndarray
    dt: float

    def __post_init__(self) -> None:
        for name in ("modes", "amplitudes", "omega"):
            getattr(self, name).setflags(write=False)

    @classmethod
    def of(
        cls, fit: DmdResult, idx: np.ndarray | tuple[int, ...], col_span: tuple[int, int], dt: float, f_sp: float
    ) -> "ModeFactor":
        """The fit's modes ``idx`` (ascending, no zero eigenvalue) at m rows, each conjugate pair in one column.

        A pair (:func:`conjugate_pairs`) with both members in ``idx`` keeps
        its first member's column with amplitude b + conj(b'): dmd() writes
        the partner's mode as the exact conjugate of the first's, so
        Re(phi b z^j + conj(phi) b' conj(z)^j) = Re(phi (b + conj(b')) z^j),
        whether or not b' = conj(b).
        """
        idx = np.asarray(idx, dtype=int)
        starts = np.zeros(fit.eigenvalues.size, dtype=bool)
        starts[conjugate_pairs(fit.eigenvalues)] = True
        # positions in idx whose mode starts a pair and whose next mode in idx is its partner
        first = np.flatnonzero(starts[idx[:-1]] & (idx[1:] == idx[:-1] + 1))
        b = fit.amplitudes[idx]
        b[first] += b[first + 1].conj()
        idx, b = np.delete(idx, first + 1), np.delete(b, first + 1)
        # the lift (or a basis-free fit's fancy index) copies: no view of the fit is held
        return cls(col_span, fit.lifted(idx), b, f_sp * np.log(fit.eigenvalues[idx]), dt)

    def at(self, cols: np.ndarray) -> np.ndarray:
        """The reconstruction at absolute snapshot columns inside the span.

        Re(modes @ C) as one real product on the modes' float view, padded
        to whole ``_TILE``-column tiles: no column lies in a partial tile,
        so each is bit for bit the full-span product's.
        """
        offsets = np.asarray(cols) - self.col_span[0]
        tau = self.dt * np.concatenate([offsets, np.zeros(-offsets.size % _TILE, dtype=int)])
        coeff = self.amplitudes[:, None] * np.exp(self.omega[:, None] * tau[None, :])
        real = np.stack((coeff.real, -coeff.imag), axis=1).reshape(2 * coeff.shape[0], coeff.shape[1])
        return (np.ascontiguousarray(self.modes).view(float) @ real)[:, : offsets.size]

    def antidiagonal_sums(self) -> np.ndarray:
        """Anti-diagonal sums of the reconstruction over the whole span, which is never formed.

        Equal, up to rounding, to ``stacking.antidiagonal_sums`` of the rows x
        width reconstruction: Re(sum_k modes[:, k] (*) (amplitudes[k] z_k^j)),
        one convolution of each mode shape with its geometric sequence
        (z_k = exp(omega_k dt)), taken by FFT ``_SERIES_BLOCK`` modes at a
        time in O(r (rows + width) log) instead of O(rows width r).
        """
        rows, r = self.modes.shape
        width = self.col_span[1] - self.col_span[0]
        tau = self.dt * np.arange(width)[None, :]
        length = rows + width - 1
        size = _fast_length(length)
        spectrum = np.zeros(size, dtype=complex)
        for lo in range(0, r, _SERIES_BLOCK):
            k = slice(lo, lo + _SERIES_BLOCK)
            spectrum += np.einsum(
                "fk,kf->f",
                np.fft.fft(self.modes[:, k], size, axis=0),
                np.fft.fft(self.amplitudes[k, None] * np.exp(self.omega[k, None] * tau), size, axis=1),
            )
        return np.fft.ifft(spectrum)[:length].real


def reconstruct_series(result: DmdResult, n_columns: int) -> np.ndarray:
    """Anti-diagonal average of Re(reconstruct_window(result, n_columns)).

    Equals ``unembed(reconstruct_window(result, n_columns).real)`` up to
    rounding, without forming the m x n window: the sums are those of the
    :class:`ModeFactor` of every mode at dt = f_sp = 1, so omega = ln(lambda).
    A zero eigenvalue keeps 0^0 = 1: its mode adds to column 0 alone, the
    first m anti-diagonals, and takes no logarithm.
    """
    if n_columns < 1:
        raise ValueError("need at least one column")
    zero = result.eigenvalues == 0
    factor = ModeFactor.of(result, np.flatnonzero(~zero), (0, n_columns), 1.0, 1.0)
    sums = factor.antidiagonal_sums()
    m = factor.modes.shape[0]
    if zero.any():
        sums[:m] += (result.lifted(np.flatnonzero(zero)) @ result.amplitudes[zero]).real
    return sums / antidiagonal_counts(m, n_columns)


def _hankel_series(x: np.ndarray) -> np.ndarray | None:
    """The series s with X[i, k] = s[i + k], or None.

    None unless the m x (n+1) snapshot matrix is wide (n > m + 1) and is
    exactly the Hankel matrix of one series. The rows are compared a block
    at a time, so the comparison holds about (m + 1)^2 bytes, not m n.
    """
    m, n = x.shape[0], x.shape[1] - 1
    if n <= m + 1:
        return None
    series = np.concatenate([x[0], x[1:, -1]])
    rows = sliding_window_view(series, n + 1)
    step = max(1, (m + 1) ** 2 // n)
    for lo in range(0, m, step):
        block = slice(lo, lo + step)
        if not np.array_equal(rows[block], x[block]):
            return None
    return series


def _hankel_factor(series: np.ndarray, n: int) -> np.ndarray:
    """Lower-triangular L with X1 = L[:m] Q^T and X2 = L[1:] Q^T for the Hankel pair of ``series``.

    L is the transposed R factor of the QR factorization of the pair's
    m + 1 distinct rows, [X1; X2[-1]]^T, read as a view of the series, so
    no copy of the rows is made before the QR.
    """
    return np.linalg.qr(sliding_window_view(series, n).T, mode="r").T


def _lagged_gram(series: np.ndarray, n: int) -> np.ndarray:
    """G[i, j] = sum_{k < n} s[i + k] s[j + k] for i, j <= m = len(s) - n: the Gram matrix H H^T of the rows.

    The first row is one correlation of the series with its first n
    samples. Row i then follows from row i - 1 down the diagonals,
    G[i, j] = G[i-1, j-1] + s[i-1+n] s[j-1+n] - s[i-1] s[j-1], and each
    row is copied into its column, so G is filled in one array. Entry
    (i, j) takes i of these updates, each of them a difference of two
    products of samples, so its rounding error is at most about
    (n + 2 m) eps n max|s|^2.
    """
    m = series.size - n
    g = np.empty((m + 1, m + 1))
    g[0] = np.correlate(series, series[:n], "valid")
    g[1:, 0] = g[0, 1:]
    head, tail = series[:m], series[n:]
    for i in range(1, m + 1):
        g[i, i:] = g[i - 1, i - 1 : -1] + (tail[i - 1] * tail[i - 1 :] - head[i - 1] * head[i - 1 :])
        g[i + 1 :, i] = g[i, i + 1 :]
    return g


class _Projection(NamedTuple):
    """A fit's reduced space: X1's r retained left singular vectors U, the operator A~ on them, and X1's spectrum.

    ``first`` is X[:, 0], which the amplitudes fit; on the R route it and U are in the coordinates of ``basis`` Q."""

    u: np.ndarray
    a_tilde: np.ndarray
    singular_values: np.ndarray
    rank: int
    rank_clamped: bool
    basis: np.ndarray | None = None
    first: np.ndarray | None = None


def _svd_projection(y1: np.ndarray, y2: np.ndarray, rule: TruncationRule, shape: tuple[int, int]) -> _Projection:
    """The truncated SVD of y1 and the operator U^T y2 V S^-1; y1 has X1's spectrum, and ``shape`` is X1's."""
    svd = svd_truncated(y1, rule, shape)
    a_tilde = reduced_operator(svd.u, svd.sigma, svd.v, y2)
    return _Projection(svd.u, a_tilde, svd.singular_values, svd.rank, svd.rank_clamped)


def _gram_projection(series: np.ndarray, n: int, rule: TruncationRule) -> _Projection | None:
    """The Hankel pair's projection from its lagged Gram matrix, or None when sigma_r is not resolved.

    eigh(G[:m, :m]) = U S^2 U^T, the rule reads the rank from S^2, and
    A~ = U_r^T G[1:, :m] U_r S_r^-2 = U_r^T X2 V_r S_r^-1 with
    V_r = X1^T U_r S_r^-1. Forming G (:func:`_lagged_gram`) and eigh are
    backward stable, so the computed S^2 and U are exact for X1 X1^T + E
    with ||E||_2 <= c eps sigma_1^2 for a small c: against the QR route's
    sigma^2, c read 0.7 to 4.0 on the gapped benchmark LFO record at
    m = 1000, 2000 and 4000. So sigma_k^2 is resolved to about
    4 eps sigma_1^2, and sigma_k to a relative 2 eps (sigma_1 / sigma_k)^2:
    a singular value near sqrt(eps) sigma_1 = 1.5e-8 sigma_1 or below is
    not resolved at all. The projection moves A~ by about
    ||E||_2 / sigma_r^2 <= 4 eps (sigma_1 / sigma_r)^2. None, and so the QR
    route, unless sigma_r^2 > (4 eps / 1e-8) sigma_1^2
    (sigma_r > 3.0e-4 sigma_1), where that move is below 1e-8, the
    eigen-residual tolerance of :func:`eig_modes`; also None for a rank
    above m, a G that is not finite, and a sigma_r^2 below the smallest
    normal float, such as an all-zero window.
    The Gram route never clamps: every kept sigma_r is far above the 1e-12
    floor.
    """
    # samples near sqrt(max float) overflow G, and then the QR route fits
    with np.errstate(over="ignore", invalid="ignore"):
        g = _lagged_gram(series, n)
    if not np.isfinite(g).all():
        return None
    m = g.shape[0] - 1
    s2, vecs = np.linalg.eigh(g[:m, :m])
    s2 = np.maximum(s2[::-1], 0.0)
    s = np.sqrt(s2)
    rank = _requested_rank(s, rule, (m, n), s2)
    if rank > m or not s2[rank - 1] > _GRAM_CUT_SQ * s2[0] >= np.finfo(float).tiny:
        return None
    u = np.ascontiguousarray(vecs[:, ::-1][:, :rank])
    a_tilde = (u.T @ (g[1:, :m] @ u)) / s2[None, :rank]
    return _Projection(u, a_tilde, s, rank, False)


def _shift_projection(x: np.ndarray, rule: TruncationRule) -> _Projection:
    """X's projection from its thin QR X = Q R: the SVD route on (R[:, :-1], R[:, 1:])."""
    q, r = np.linalg.qr(x)
    x1_shape = (x.shape[0], x.shape[1] - 1)
    return _svd_projection(r[:, :-1], r[:, 1:], rule, x1_shape)._replace(basis=q, first=r[:, 0])


def _projection(x: np.ndarray, rule: TruncationRule) -> _Projection:
    """The projection dmd() fits from: Gram or QR route (wide Hankel matrix) or R route (any other)."""
    series = _hankel_series(x)
    if series is None:
        return _shift_projection(x, rule)
    n = x.shape[1] - 1
    fit = _gram_projection(series, n, rule)
    if fit is None:
        low = _hankel_factor(series, n)
        fit = _svd_projection(low[:-1], low[1:], rule, (x.shape[0], n))
    # X[:, 0] as the series holds it: contiguous whatever X's layout, so the fit does not depend on it
    return fit._replace(first=series[: x.shape[0]])


def _mode_order(score: np.ndarray, eigvals: np.ndarray) -> np.ndarray:
    """The stable order of ascending keys (-score, -|lambda|, Im lambda < 0, -Im lambda, Re lambda).

    lexsort is stable, as sorted() is, and takes its primary key last.
    np.hypot is abs() of each eigenvalue bit for bit; np.abs can differ
    in the last bit.
    """
    return np.lexsort(
        (eigvals.real, -eigvals.imag, eigvals.imag < 0, -np.hypot(eigvals.real, eigvals.imag), -score)
    )


def dmd(x: np.ndarray, rule: TruncationRule = DEFAULT_RULE) -> DmdResult:
    """Exact DMD of the m x (n+1) snapshot matrix X: the fit of the pair (X[:, :-1], X[:, 1:]).

    Composes truncated SVD, reduced-operator projection, eigendecomposition
    and amplitude fitting. The eigenvalues are per snapshot step.

    A wide X (n > m + 1) that is the Hankel matrix of one series is fitted
    from the (m+1) x (m+1) lagged Gram matrix of the pair's rows
    (:func:`_gram_projection`), or, when the requested rank's sigma_r is too
    small to resolve from sigma^2, from the QR factor of those rows
    (:func:`_hankel_factor`). Any other X, every tall one included, takes
    the R route (:func:`_shift_projection`). The route follows X's values,
    not its memory layout. All three are exact DMD of the pair in another
    basis, so they give the rank, spectrum and modes of the direct fit up
    to rounding. The amplitudes are fitted to the first snapshot X[:, 0],
    in the reduced space (:func:`amplitudes`). All routes order the modes by
    the one pair rule of :class:`DmdResult`.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0 or x.shape[1] < 2:
        raise DecompositionError(f"need a 2-D snapshot matrix with rows and at least 2 columns, got shape {x.shape}")

    fit = _projection(x, rule)
    w, eigvals, coefficients = eig_modes(fit.a_tilde, fit.u)
    b = amplitudes(fit.u, w, fit.first)

    # ||phi_k|| = 1, so |b_k| is the score. The members of a conjugate pair
    # (adjacent in eig's output) score equally up to rounding; ranking both
    # by the larger score keeps them adjacent, positive-imaginary member first.
    score = np.abs(b)
    pair = conjugate_pairs(eigvals)
    score[pair] = score[pair + 1] = np.maximum(score[pair], score[pair + 1])
    order = _mode_order(score, eigvals)
    return DmdResult(
        coefficients=coefficients[:, order],
        eigenvalues=eigvals[order],
        amplitudes=b[order],
        rank=fit.rank,
        singular_values=fit.singular_values.copy(),
        rank_clamped=fit.rank_clamped,
        basis=fit.basis,
    )
