"""Best-fit linear step operator extraction from snapshot pairs (DMD).

Given the shifted pair X1, X2 (X2 one step ahead of X1), the method
computes a truncated SVD X1 = U S V^T, projects the step operator onto the
U basis as A~ = U^T X2 V S^{-1}, eigendecomposes A~ W = W L, lifts modes as
Phi = U W, and fits amplitudes b = W^{-1} U^T x1, the least-squares fit
of Phi b to x1 (U has orthonormal columns). The full m x m operator is
never formed. Reconstruction: x_j = Phi L^{j-1} b.

Hankel compression. When X1 and X2 are the one-step shifted pair of the
Hankel matrix of one series and the pair is wide (n > m + 1), the pair
has only m + 1 distinct rows H = [X1; last row of X2], and H is a
read-only view of that series (m + n samples). A QR factorization
H^T = Q R of the view gives L = R^T with X1 = L[:m] Q^T and
X2 = L[1:] Q^T. Exact DMD depends only on the pair and is unchanged by the
orthonormal change of basis Q^T on the right (Tu et al., J. Comput. Dyn.
2014), so the SVD, operator and eigen-steps run on the m x (m+1) pair
(L[:m], L[1:]) and Q is never formed. U, the singular values, A~ and the
modes agree with the direct fit to rounding. Householder QR is backward
stable, unlike the Gram matrix X1 X1^T, which would square the condition
number. Tall pairs (every MR-DMD bin) and pairs that are not the Hankel
pair of one series are fitted directly.

A fit keeps what its readers use: the ordered modes, eigenvalues and
amplitudes, the rank and the singular values. The reduced operator and
its eigenvectors are checked in :func:`eig_modes` and then dropped.

The eigenvector check rejects W when sigma_min(W) <= 1e-12 sigma_max(W).
It is decided by a certificate: a Cholesky factorization of W^H W - tau I
that completes proves sigma_min(W) far above that bound (Demmel, LAPACK
Working Note 14, 1989; Higham, Accuracy and Stability of Numerical
Algorithms, 2002, section 10.1), at about a third of the cost of the
singular values from rank 50 up. When the factorization breaks down,
the singular values decide, so every decision is the singular-value
rule's.

Both analyses build their series with :func:`product_antidiagonal_sums`,
one FFT convolution of each mode shape with its coefficient sequence.

All functions are pure; results are immutable and safe to share across
threads. Linear-algebra kernels may use threaded BLAS internally, which is
deterministic for a fixed library and thread count.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .stacking import antidiagonal_counts

# Singular values at or below these floors carry no usable signal.
_SV_ABS_FLOOR = 1e-300
_SV_RATIO_FLOOR = 1e-12

_EIG_RESIDUAL_RTOL = 1e-8

# Modes transformed together by product_antidiagonal_sums. The two spectra
# of a block are 2 * 64 * 16 bytes per FFT point (10 MB on a 1000 x 4001
# window), and every MR-DMD bin of rank <= 64 is a single block.
_SERIES_BLOCK = 64

TRUNC_FIXED = "fixed-rank"
TRUNC_ENERGY = "energy-fraction"
TRUNC_RATIO = "singular-value-ratio"


class DecompositionError(ValueError):
    """Raised when a snapshot matrix cannot be decomposed as requested."""


class ZeroSignalError(DecompositionError):
    """Raised for matrices with no signal energy (all-zero input)."""


@dataclass(frozen=True)
class TruncationRule:
    """SVD truncation policy.

    kind is one of ``fixed-rank`` (value: positive integer rank),
    ``energy-fraction`` (value in (0, 1]: smallest rank capturing that
    fraction of squared singular-value energy) or ``singular-value-ratio``
    (value in (0, 1): keep singular values above value * sigma_1).
    """

    kind: str
    value: float

    def __post_init__(self) -> None:
        if self.kind == TRUNC_FIXED:
            if int(self.value) != self.value or self.value < 1:
                raise ValueError("fixed-rank truncation needs a positive integer rank")
        elif self.kind == TRUNC_ENERGY:
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


DEFAULT_RULE = TruncationRule(TRUNC_ENERGY, 0.9999)


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

    modes holds the projected mode columns Phi = U W (unit-norm W columns),
    eigenvalues the per-step multipliers at dt_effective, amplitudes the
    least-squares fit of the first snapshot, solved as W b = U^T x1. Modes
    are ordered by descending score |b_k| * ||Phi_k||, ties broken by
    descending |lambda| with the non-negative imaginary member first. Both
    members of a conjugate pair take the pair's larger score, so a pair is
    listed as two adjacent modes, the positive-imaginary member first;
    :func:`oscidmd.modes.reports_from_dmd` reads pairs from this order.
    The reduced operator and its eigenvectors are not kept: :func:`eig_modes`
    checks the eigen residuals and conditioning when the fit is made.
    """

    modes: np.ndarray
    eigenvalues: np.ndarray
    amplitudes: np.ndarray
    rank: int
    dt_effective: float
    singular_values: np.ndarray
    rank_clamped: bool

    def __post_init__(self) -> None:
        for field in ("modes", "eigenvalues", "amplitudes", "singular_values"):
            arr = getattr(self, field)
            arr.setflags(write=False)


def _requested_rank(s: np.ndarray, rule: TruncationRule) -> int:
    if rule.kind == TRUNC_FIXED:
        return int(rule.value)
    if rule.kind == TRUNC_ENERGY:
        energy = np.cumsum(s * s)
        return int(np.searchsorted(energy, rule.value * energy[-1], side="left")) + 1
    return max(int(np.sum(s > rule.value * s[0])), 1)


def svd_truncated(x: np.ndarray, rule: TruncationRule = DEFAULT_RULE) -> SvdTruncation:
    """Truncated SVD of a snapshot matrix under a truncation rule.

    Singular directions below the relative floor 1e-12 never count as
    available; a rule demanding more than the available rank is clamped
    and flagged. An all-zero matrix is rejected.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.size == 0:
        raise DecompositionError("snapshot matrix must be 2-D and non-empty")
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    if s[0] <= _SV_ABS_FLOOR:
        raise ZeroSignalError("no signal energy in snapshot matrix")
    available = int(np.sum(s > max(_SV_ABS_FLOOR, s[0] * _SV_RATIO_FLOOR)))
    requested = _requested_rank(s, rule)
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
    """Eigendecompose the reduced operator and lift modes as Phi = U W.

    Eigenvector columns are normalized to unit 2-norm before projection.
    A defective (non-diagonalizable) operator is rejected with a hint to
    lower the truncation rank by one: a zero eigenvector, a numerically
    singular W (sigma_min(W) <= 1e-12 sigma_max(W), decided by
    :func:`_eigenvectors_independent`), or an eigen residual above
    1e-8 ||A~||_2.
    """
    a_tilde = np.asarray(a_tilde)
    if a_tilde.ndim != 2 or a_tilde.shape[0] != a_tilde.shape[1]:
        raise ValueError("reduced operator must be square")
    if u.shape[1] != a_tilde.shape[0]:
        raise ValueError("U columns must match the reduced operator size")
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
    if not _eigenvectors_independent(w):
        raise DecompositionError(
            "reduced operator appears defective (eigenvector matrix is singular); "
            "retry with truncation rank r-1"
        )
    residuals = np.linalg.norm(a_tilde @ w - w * eigvals[None, :], axis=0)
    if not _residuals_within_tol(a_tilde, residuals):
        raise DecompositionError(
            "reduced operator appears defective (eigen residual "
            f"{residuals.max():.3e} exceeds {_EIG_RESIDUAL_RTOL:.0e} * ||A~||); "
            "retry with truncation rank r-1"
        )
    return w, eigvals, u @ w


def _eigenvectors_independent(w: np.ndarray) -> bool:
    """Whether sigma_min(W) > 1e-12 * sigma_max(W), for W with unit-norm columns.

    Certificate first: with tau = 100 (r + 1)^2 eps, Cholesky-factor
    G = fl(W^H W) - tau I. Forming G and factoring it are backward stable
    (Higham, 2002, Lemma 3.5 and Theorem 10.3, with the sqrt(2) of complex
    arithmetic), so a factorization that completes with finite pivots gives
    W^H W - tau I + E = R^H R, positive semidefinite, with
    ||E||_2 <= 3 r (r + 3) eps < tau / 25, since ||W||_F^2 = r. The unit
    columns also give sigma_max(W)^2 <= r. Hence

        sigma_min(W)^2 >= tau - ||E||_2 >= tau / 2 = 50 (r + 1)^2 eps,
        sigma_min(W) / sigma_max(W) >= sqrt(50 eps) (r + 1) / sqrt(r) > 2e-7,

    five orders of magnitude above the 1e-12 bound and above the computed
    singular values' own error, so the singular-value rule accepts too. A
    factorization that breaks down proves nothing, and then the computed
    singular values decide, as they do without the certificate.
    """
    r = w.shape[1]
    gram = w.conj().T @ w
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


def product_antidiagonal_sums(modes: np.ndarray, sequences: Callable[[slice], np.ndarray], width: int) -> np.ndarray:
    """Anti-diagonal sums of Re(modes @ C), C the r x width rows ``sequences(k)`` gives for mode slices k.

    The sums are Re(sum_k modes[:, k] (*) C[k]), one convolution per mode, taken by FFT
    ``_SERIES_BLOCK`` modes at a time in O(r * (rows + width) * log); modes @ C is never formed.
    """
    rows, r = modes.shape
    length = rows + width - 1
    size = _fast_length(length)
    spectrum = np.zeros(size, dtype=complex)
    for lo in range(0, r, _SERIES_BLOCK):
        k = slice(lo, lo + _SERIES_BLOCK)
        spectrum += np.einsum(
            "fk,kf->f",
            np.fft.fft(modes[:, k], size, axis=0),
            np.fft.fft(sequences(k), size, axis=1),
        )
    return np.fft.ifft(spectrum)[:length].real


def reconstruct_series(result: DmdResult, n_columns: int) -> np.ndarray:
    """Anti-diagonal average of Re(reconstruct_window(result, n_columns)).

    Equals ``unembed(reconstruct_window(result, n_columns).real)`` up to
    rounding, without forming the m x n window: the sums are
    :func:`product_antidiagonal_sums` over the sequences b_k lambda_k^j.
    """
    if n_columns < 1:
        raise ValueError("need at least one column")
    j = np.arange(n_columns)
    sums = product_antidiagonal_sums(
        result.modes, lambda k: result.amplitudes[k, None] * _powers(result.eigenvalues[k], j), n_columns
    )
    return sums / antidiagonal_counts(result.modes.shape[0], n_columns)


def _hankel_factor(x1: np.ndarray, x2: np.ndarray) -> np.ndarray | None:
    """Lower-triangular L with X1 = L[:m] Q^T and X2 = L[1:] Q^T, or None.

    L is the transposed R factor of the QR factorization of the pair's
    m + 1 distinct rows, [X1; X2[-1]]^T, read as a view of the series the
    pair embeds, so no copy of the rows is made before the QR. None unless
    the pair is wide (n > m + 1) and that view equals X1 and X2 exactly.
    """
    m, n = x1.shape
    if n <= m + 1:
        return None
    rows = sliding_window_view(np.concatenate([x1[0], x1[1:, -1], x2[-1, -1:]]), n)
    if not (np.array_equal(rows[:-1], x1) and np.array_equal(rows[1:], x2)):
        return None
    return np.linalg.qr(rows.T, mode="r").T


def _mode_order(score: np.ndarray, eigvals: np.ndarray) -> np.ndarray:
    """The stable order of ascending keys (-score, -|lambda|, Im lambda < 0, -Im lambda, Re lambda).

    lexsort is stable, as sorted() is, and takes its primary key last.
    np.hypot is abs() of each eigenvalue bit for bit; np.abs can differ
    in the last bit.
    """
    return np.lexsort(
        (eigvals.real, -eigvals.imag, eigvals.imag < 0, -np.hypot(eigvals.real, eigvals.imag), -score)
    )


def dmd(
    x1: np.ndarray,
    x2: np.ndarray,
    rule: TruncationRule = DEFAULT_RULE,
    dt: float = 1.0,
) -> DmdResult:
    """Full decomposition of a shifted snapshot pair.

    Composes truncated SVD, reduced-operator projection, eigendecomposition
    and amplitude fitting; dt is the sampling interval the eigenvalues are
    expressed in.

    A wide pair (n > m + 1) that is the one-step shifted Hankel pair of one
    series is first compressed to the m x (m+1) pair L[:m], L[1:] with
    [X1; X2[-1]]^T = Q L^T, the QR taken on a view of that series. Exact
    DMD is invariant under the orthonormal change of basis Q on the right,
    so this gives the same rank, spectrum, operator and modes as the direct
    fit up to rounding, from an SVD of m x (m+1) instead of m x n. The
    amplitudes are fitted to the original first snapshot X1[:, 0], in the
    reduced space (:func:`amplitudes`). Every other pair is fitted directly.
    Both paths order the modes by the one pair rule of :class:`DmdResult`.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x1.ndim != 2 or x1.size == 0:
        raise DecompositionError("empty snapshot pair")
    if x1.shape != x2.shape:
        raise ValueError(f"snapshot pair shapes differ: {x1.shape} vs {x2.shape}")
    if not dt > 0:
        raise ValueError("dt must be positive")

    low = _hankel_factor(x1, x2)
    y1, y2 = (x1, x2) if low is None else (low[:-1], low[1:])
    svd = svd_truncated(y1, rule)
    w, eigvals, phi = eig_modes(reduced_operator(svd.u, svd.sigma, svd.v, y2), svd.u)
    b = amplitudes(svd.u, w, x1[:, 0])

    score = np.abs(b) * np.linalg.norm(phi, axis=0)
    # The members of a conjugate pair (adjacent in eig's output) score
    # equally up to rounding; ranking both by the larger score keeps them
    # adjacent, positive-imaginary member first.
    pair = np.flatnonzero((eigvals[:-1].imag > 0) & (eigvals[1:] == eigvals[:-1].conj()))
    score[pair] = score[pair + 1] = np.maximum(score[pair], score[pair + 1])
    order = _mode_order(score, eigvals)
    # The 1-D gathers are new arrays. The modes keep their copy: on a
    # 1000-row MR-DMD run, dropping it (or gathering with np.take) doubled
    # the minor page faults and cost more time than the copy.
    return DmdResult(
        modes=phi[:, order].copy(),
        eigenvalues=eigvals[order],
        amplitudes=b[order],
        rank=svd.rank,
        dt_effective=dt,
        singular_values=svd.singular_values.copy(),
        rank_clamped=svd.rank_clamped,
    )
