"""Best-fit linear step operator extraction from snapshot pairs (DMD).

Given the shifted pair X1, X2 (X2 one step ahead of X1), the method
computes a truncated SVD X1 = U S V^T, projects the step operator onto the
U basis as A~ = U^T X2 V S^{-1}, eigendecomposes A~ W = W L, lifts modes as
Phi = U W, and fits amplitudes b = pinv(Phi) x1. The full m x m operator is
never formed. Reconstruction: x_j = Phi L^{j-1} b.

Hankel compression. When X1 and X2 are a one-step shift of one m x (n+1)
Hankel matrix (X2[:-1] equals X1[1:]) and the pair is wide (n > m + 1),
the pair has only m + 1 distinct rows H = [X1; last row of X2]. A QR
factorization H^T = Q R gives L = R^T with X1 = L[:m] Q^T and
X2 = L[1:] Q^T. Exact DMD depends only on the pair and is unchanged by the
orthonormal change of basis Q^T on the right (Tu et al., J. Comput. Dyn.
2014), so the SVD, operator and eigen-steps run on the m x (m+1) pair
(L[:m], L[1:]) and Q is never formed. U, the singular values, A~ and the
modes agree with the direct fit to rounding. Householder QR is backward
stable, unlike the Gram matrix X1 X1^T, which would square the condition
number. Tall pairs (every MR-DMD bin) and pairs that are not a Hankel
shift are fitted directly.

All functions are pure; results are immutable and safe to share across
threads. Linear-algebra kernels may use threaded BLAS internally, which is
deterministic for a fixed library and thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stacking import antidiagonal_counts, antidiagonal_sums

# Singular values at or below these floors carry no usable signal.
_SV_ABS_FLOOR = 1e-300
_SV_RATIO_FLOOR = 1e-12

_EIG_RESIDUAL_RTOL = 1e-8

# Column tile of reconstruct_series: an m x 1024 block is 8 MB at m = 1000.
# On a 1000 x 4001 window, 1024 columns ran 1.4x faster than 64 or 256
# (2-vCPU x86-64 VM, 1 OpenBLAS thread); wider tiles gained little more.
_SERIES_COLUMNS = 1024

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
    least-squares fit of the first snapshot. Modes are ordered by
    descending |b_k| * ||Phi_k||, ties broken by descending |lambda| with
    the non-negative imaginary member of a conjugate pair first.
    a_tilde and eigvecs retain the reduced operator and its (reordered)
    eigenvectors for residual diagnostics.
    """

    modes: np.ndarray
    eigenvalues: np.ndarray
    amplitudes: np.ndarray
    rank: int
    dt_effective: float
    singular_values: np.ndarray
    rank_clamped: bool
    a_tilde: np.ndarray
    eigvecs: np.ndarray

    def __post_init__(self) -> None:
        for field in ("modes", "eigenvalues", "amplitudes", "singular_values", "a_tilde", "eigvecs"):
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
    lower the truncation rank by one.
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
    wsv = np.linalg.svd(w, compute_uv=False)
    if wsv[-1] <= 1e-12 * wsv[0]:
        raise DecompositionError(
            "reduced operator appears defective (eigenvector matrix is singular); "
            "retry with truncation rank r-1"
        )
    scale = np.linalg.norm(a_tilde, 2)
    residuals = np.linalg.norm(a_tilde @ w - w * eigvals[None, :], axis=0)
    if np.any(residuals > _EIG_RESIDUAL_RTOL * scale):
        raise DecompositionError(
            "reduced operator appears defective (eigen residual "
            f"{residuals.max():.3e} exceeds {_EIG_RESIDUAL_RTOL:.0e} * ||A~||); "
            "retry with truncation rank r-1"
        )
    return w, eigvals, u @ w


def amplitudes(phi: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """Least-squares mode amplitudes b that minimize ||Phi b - x1||."""
    phi = np.asarray(phi)
    x1 = np.asarray(x1)
    if phi.shape[0] != x1.shape[0]:
        raise ValueError("first snapshot length must match mode rows")
    b, *_ = np.linalg.lstsq(phi, x1.astype(complex), rcond=None)
    return b


def reconstruct(result: DmdResult, j: int) -> np.ndarray:
    """State estimate at iteration j >= 1: Phi diag(lambda^(j-1)) b."""
    if j < 1:
        raise ValueError("iteration index j starts at 1")
    return result.modes @ (result.amplitudes * result.eigenvalues ** (j - 1))


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


def reconstruct_series(result: DmdResult, n_columns: int) -> np.ndarray:
    """Anti-diagonal average of Re(reconstruct_window(result, n_columns)).

    Equals ``unembed(reconstruct_window(result, n_columns).real)``, a
    series of length m + n_columns - 1, without forming the m x n window:
    each tile of ``_SERIES_COLUMNS`` columns is one real product
    [Re Phi, -Im Phi] @ [Re C; Im C] with C = b lambda^j, and its
    anti-diagonal sums are added into the series.
    """
    if n_columns < 1:
        raise ValueError("need at least one column")
    phi = np.hstack([result.modes.real, -result.modes.imag])
    m = phi.shape[0]
    sums = np.zeros(m + n_columns - 1)
    for j0 in range(0, n_columns, _SERIES_COLUMNS):
        j = np.arange(j0, min(j0 + _SERIES_COLUMNS, n_columns))
        c = result.amplitudes[:, None] * _powers(result.eigenvalues, j)
        tile = phi @ np.vstack([c.real, c.imag])
        sums[j0 : j0 + m + j.size - 1] += antidiagonal_sums(tile)
    return sums / antidiagonal_counts(m, n_columns)


def _hankel_factor(x1: np.ndarray, x2: np.ndarray) -> np.ndarray | None:
    """Lower-triangular L with X1 = L[:m] Q^T and X2 = L[1:] Q^T, or None.

    L is the transposed R factor of the QR factorization of the pair's
    m + 1 distinct rows, [X1; X2[-1]]^T. None unless the pair is wide
    (n > m + 1) and X2[:-1] equals X1[1:] exactly.
    """
    m, n = x1.shape
    if n <= m + 1 or not np.array_equal(x2[:-1], x1[1:]):
        return None
    return np.linalg.qr(np.vstack([x1, x2[-1:]]).T, mode="r").T


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

    A wide pair (n > m + 1) that is a one-step Hankel shift, X2[:-1] equal
    to X1[1:], is first compressed to the m x (m+1) pair L[:m], L[1:] with
    [X1; X2[-1]]^T = Q L^T. Exact DMD is invariant under the orthonormal
    change of basis Q on the right, so this gives the same rank, spectrum,
    operator and modes as the direct fit up to rounding, from an SVD of
    m x (m+1) instead of m x n. The amplitudes are fitted to the original
    first snapshot X1[:, 0]. Every other pair is fitted directly.
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
    a_tilde = reduced_operator(svd.u, svd.sigma, svd.v, y2)
    w, eigvals, phi = eig_modes(a_tilde, svd.u)
    b = amplitudes(phi, x1[:, 0])

    score = np.abs(b) * np.linalg.norm(phi, axis=0)
    if low is not None:
        # The members of a conjugate pair (adjacent in eig's output) score
        # equally up to rounding; ranking both by the larger score keeps the
        # positive-imaginary member first. Direct fits keep the rounding
        # order, so MR-DMD outputs stay as they were.
        pair = np.flatnonzero((eigvals[:-1].imag > 0) & (eigvals[1:] == eigvals[:-1].conj()))
        score[pair] = score[pair + 1] = np.maximum(score[pair], score[pair + 1])
    order = sorted(
        range(svd.rank),
        key=lambda k: (
            -score[k],
            -abs(eigvals[k]),
            0 if eigvals[k].imag >= 0 else 1,
            -eigvals[k].imag,
            eigvals[k].real,
        ),
    )
    return DmdResult(
        modes=phi[:, order].copy(),
        eigenvalues=eigvals[order].copy(),
        amplitudes=b[order].copy(),
        rank=svd.rank,
        dt_effective=dt,
        singular_values=svd.singular_values.copy(),
        rank_clamped=svd.rank_clamped,
        a_tilde=a_tilde,
        eigvecs=w[:, order].copy(),
    )
