"""Multi-resolution decomposition over dyadic time bins.

Each level l splits the snapshot window into 2^(l-1) bins. Every bin is
subsampled down to a fixed count mu, decomposed, and screened: modes with
|ln(lambda)| < rho (rho = pi / g) are slow at that time scale. Their
full-resolution reconstruction is subtracted from the bin and the residual
is halved and recursed until the termination level, which is the largest L
keeping more than mu columns per bin.

The recursion is one generator, ``_walk``, that yields each bin in
pre-order (a bin, then its left half, then its right half) with its slow
modes; ``decompose`` and the dense view are plain loops over it.
The implementation is matrix-free. A bin's fit reads only its mu
subsample columns, and slow modes are analytic in time, so each bin
gathers those columns from the snapshot matrix and subtracts its
ancestors' slow modes evaluated there, in one product; no residual is
formed at full resolution. A bin is fitted in the R factor of its
columns (``dmd``'s R route), and only its slow modes are lifted to m
rows, once (``SlowModes``: the mode shapes, amplitudes and continuous
eigenvalues, one column per conjugate pair). A bin with slow modes
appends them to the lineage factor it received (``lineage_factor``: one
``SlowModes`` holding every ancestor's slow columns, amplitudes re-based
to the bin's start) and passes the result to both halves. The factor and the fit's m x mu
basis are freed when the bin's subtree is done, so at most one of each
per level is alive at a time. The node keeps only the bin's
geometry, its fit as a ``BinFit`` (eigenvalues, amplitudes, rank and
singular values) and its slow set: no m-row array. A bin's contribution to
its level's series is the anti-diagonal sums of its slow reconstruction,
which is a sum of convolutions of each mode shape with its geometric
sequence b_k z_k^j; it is taken by FFT (``dmd.product_antidiagonal_sums``,
as for single-window DMD), so no bin's m x width reconstruction is formed.
The primary outputs, ``per_level_series`` and ``series``, cost
O(L * (m + n)) memory. The one dense view, the m x n total reconstruction,
is rebuilt only on request, by walking the recursion again over the kept
snapshot matrix (one more refit of every bin) at O(m * n) memory.

Per-level bookkeeping (exact in rational arithmetic), with B = 2^(l-1)
bins of nominal size S = n / B over a window of duration N = n * dt:

    bin duration        D = S * dt
    subsample rate      f_sp = mu / D
    capturable ceiling  f_m = f_sp / 2 = 2^(l-2) * mu / N
    slow-mode ceiling   f_slow_max = f_m / g

The walk runs depth-first and sequentially. Two threads over level-3
subtrees took ``ac_long_mrdmd``'s decompose from 1.48 to 1.27 s wall but
from 1.47 to 1.99 s CPU (the GIL), so the benchmark's ``cpu_s`` would regress.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from .dmd import TRUNC_RATIO, DmdResult, TruncationRule, ZeroSignalError, dmd, fold_pairs
from .dmd import product_antidiagonal_sums
from .ingest import _DT_REL_TOL
from .modes import ModeTable, mode_table
from .stacking import antidiagonal_counts

# Unused here, but bench/spans.py wraps this name on this module by getattr.
from .modes import reports_from_dmd  # noqa: F401

_MAX_DT_DENOMINATOR = 10**9

# Per-bin fits see only mu subsamples; a relative noise-floor cut keeps weak
# coherent content resolvable without the overfit a near-full rank causes on
# corrupted bins.
DEFAULT_BIN_RULE = TruncationRule(TRUNC_RATIO, 1e-4)

# BLAS products round the columns of a partial output tile differently from
# the rest, and differently again on their small-matrix path. Evaluating a
# lineage factor in whole tiles of this many columns keeps each bin's input
# bit-identical to the data less the factor's full-span product, on builds
# whose column tile divides it (measured on OpenBLAS's SkylakeX dgemm);
# noise-only bins amplify any last-bit difference.
_TILE = 8


# A residual of at most this fraction of its bin data's norm is rounding,
# and its bin a zero-signal bin: a noise-free constant record's bins read up
# to 28 ulps below level 1, the noisy lfo_udc and ac_in profiles 2.9e-4 or more.
_ROUNDING_FLOOR = 1000 * np.finfo(float).eps


class PlanError(ValueError):
    """Raised when decomposition parameters are inconsistent."""


def _as_fraction(value, name: str) -> Fraction:
    """Exact rational view of a parameter.

    A float snaps to the nearest ratio of denominator <= 10^9 (0.0004 to 1/2500) only within ``_DT_REL_TOL``.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise PlanError(f"{name} must be rational, got {value!r}") from exc
    if isinstance(value, float):
        if not math.isfinite(value):
            raise PlanError(f"{name} must be finite")
        exact = Fraction(value)
        snapped = exact.limit_denominator(_MAX_DT_DENOMINATOR)
        return snapped if abs(snapped - exact) <= _DT_REL_TOL * abs(exact) else exact
    raise PlanError(f"{name} must be rational, got {type(value).__name__}")


@dataclass(frozen=True)
class LevelParams:
    """Exact per-level quantities of a decomposition plan."""

    level: int
    bins: int
    bin_size: Fraction
    bin_duration: Fraction
    f_sp: Fraction
    f_m: Fraction
    f_slow_max: Fraction


@dataclass(frozen=True)
class MrdmdPlan:
    """Decomposition geometry: levels, bin sizes and frequency ceilings."""

    mu: int
    termination_level: int
    g: Fraction
    rho: float
    n: int
    dt: float
    dt_exact: Fraction
    window_duration: Fraction
    per_level: tuple[LevelParams, ...]


def plan(
    n: int,
    dt: float,
    mu: int = 16,
    g: int | str | Fraction | float = 4,
    termination_level: int | None = None,
) -> MrdmdPlan:
    """Build the decomposition plan for n snapshot columns at interval dt.

    The termination level defaults to the largest L with
    floor(n / 2^(L-1)) > mu, that is 2^(L-1) <= n // (mu + 1); an
    override must still satisfy that bound.
    """
    if n < 2:
        raise PlanError("need at least 2 snapshot columns")
    if mu < 2:
        raise PlanError("subsample count mu must be at least 2")
    g_frac = _as_fraction(g, "g")
    if not g_frac > 1:
        raise PlanError(f"screening divisor g must exceed 1, got {g_frac}")
    if mu >= n:
        raise PlanError(
            f"cannot subsample level 1: mu={mu} must be smaller than the n={n} snapshot columns"
        )
    level_max = (n // (mu + 1)).bit_length()
    level = level_max if termination_level is None else termination_level
    if not 1 <= level <= level_max:
        raise PlanError(
            f"termination level {termination_level} violates the bin-size criterion "
            f"n / 2^(L-1) > mu (n={n}, mu={mu}, max feasible L={level_max})"
        )

    dt_exact = _as_fraction(dt, "dt")
    if not dt_exact > 0:
        raise PlanError("dt must be positive")
    window = n * dt_exact
    table = []
    for l in range(1, level + 1):
        bins = 2 ** (l - 1)
        size = Fraction(n, bins)
        duration = size * dt_exact
        f_sp = Fraction(mu) / duration
        f_m = f_sp / 2
        table.append(
            LevelParams(
                level=l,
                bins=bins,
                bin_size=size,
                bin_duration=duration,
                f_sp=f_sp,
                f_m=f_m,
                f_slow_max=f_m / g_frac,
            )
        )
    try:  # the window is the plan's longest duration and the last level's f_sp its highest rate
        rho = math.pi / float(g_frac)
        float(window), float(table[-1].f_sp)
    except OverflowError as exc:
        raise PlanError(f"g={g} and dt={dt} put the plan beyond the float range") from exc
    return MrdmdPlan(
        mu=mu,
        termination_level=level,
        g=g_frac,
        rho=rho,
        n=n,
        dt=float(dt),
        dt_exact=dt_exact,
        window_duration=window,
        per_level=tuple(table),
    )


def subsample(span: tuple[int, int], mu: int) -> np.ndarray:
    """mu evenly spaced column indices inside [start, stop).

    Index i maps to start + round(i * len / mu) (exact half-to-even
    rounding, in integer arithmetic); the first subsample is the span
    start.
    """
    start, stop = span
    length = stop - start
    if length < mu:
        raise ValueError(f"span of {length} columns is shorter than mu={mu}")
    if mu < 1:
        raise ValueError("mu must be positive")
    quotient, remainder = np.divmod(np.arange(mu) * length, mu)
    # round half to even: up past the half, and at exactly half when the quotient is odd
    up = (2 * remainder > mu) | ((2 * remainder == mu) & (quotient % 2 == 1))
    return start + quotient + up


def screen_slow(result: DmdResult | BinFit, rho: float) -> np.ndarray:
    """Indices of modes with |ln(lambda)| < rho (strict).

    A zero eigenvalue (fully decayed numerical mode) has |ln 0| = inf and
    is never slow.
    """
    with np.errstate(divide="ignore"):
        return np.flatnonzero(np.abs(np.log(result.eigenvalues)) < rho)


@dataclass(frozen=True, slots=True)
class BinFit:
    """A bin's fit without its modes: every ``DmdResult`` field but ``coefficients`` and ``basis``.

    The arrays are the fit's own read-only arrays, not copies.
    """

    eigenvalues: np.ndarray
    amplitudes: np.ndarray
    rank: int
    rank_clamped: bool
    singular_values: np.ndarray

    @classmethod
    def of(cls, fit: DmdResult) -> "BinFit":
        return cls(fit.eigenvalues, fit.amplitudes, fit.rank, fit.rank_clamped, fit.singular_values)


@dataclass(frozen=True)
class SlowModes:
    """A bin's slow modes in factored form, analytic at any of its columns.

    The column at offset j from the bin start is
    Re(sum_k modes[:, k] * amplitudes[k] * exp(omega[k] * dt * j)), with
    omega_k = f_sp * ln(lambda_k) bridging the subsampled eigenvalue
    interval to the full sample rate. ``modes`` is rows x r, a copy of the
    fit's slow columns that keeps no reference to its other modes, with one
    column per conjugate pair; an empty slow set evaluates to zeros. A
    lineage factor (``lineage_factor``) has the same form. The arrays are
    read-only.
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
        cls,
        node_dmd: DmdResult,
        slow_set: np.ndarray | tuple[int, ...],
        col_span: tuple[int, int],
        dt: float,
        f_sp: float,
    ) -> "SlowModes":
        """The slow set's modes at m rows, a conjugate pair folded into one column (``dmd.fold_pairs``).

        dmd() lists a pair as adjacent modes, positive-imaginary member
        first (``dmd.conjugate_pairs``), and writes the partner's mode as
        the exact conjugate of the first's. A pair folds when both members
        are slow: it keeps its first member's column with amplitude
        b + conj(b').
        """
        idx = np.asarray(slow_set, dtype=int)
        keep, amplitudes = fold_pairs(node_dmd.eigenvalues, node_dmd.amplitudes, idx)
        return cls(
            col_span=col_span,
            # the lift (or a basis-free fit's fancy index) copies: no view of the fit is held
            modes=node_dmd.lifted(keep),
            amplitudes=amplitudes,
            omega=f_sp * np.log(node_dmd.eigenvalues[keep]),
            dt=dt,
        )

    def at(self, cols: np.ndarray) -> np.ndarray:
        """The slow reconstruction at absolute snapshot columns inside the bin.

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
        """Anti-diagonal sums of the slow reconstruction over the whole bin.

        Equal, up to rounding, to ``stacking.antidiagonal_sums`` of the
        rows x width reconstruction, which is never formed: the sums are
        Re(sum_k modes[:, k] (*) (amplitudes[k] * z_k^j)), one convolution
        of each mode shape with its geometric sequence (z_k =
        exp(omega_k * dt)), taken by FFT (``dmd.product_antidiagonal_sums``)
        in O(r_slow * (rows + width) * log) instead of O(rows * width * r_slow).
        """
        width = self.col_span[1] - self.col_span[0]
        tau = self.dt * np.arange(width)[None, :]
        return product_antidiagonal_sums(
            self.modes, lambda k: self.amplitudes[k, None] * np.exp(self.omega[k, None] * tau), width
        )


def lineage_factor(ancestors: SlowModes | None, own: SlowModes) -> SlowModes:
    """The factor a bin with slow modes passes to both its halves.

    One ``SlowModes`` over the bin's span: the columns of ``ancestors``
    (the factor the bin received, None at the root), then ``own``'s. The
    ancestors' amplitudes are re-based to the bin's start,
    b * exp(omega * dt * (start - origin)); a left half starts where its
    parent starts, so its factor keeps them unchanged.
    """
    if ancestors is None:
        return own
    shift = own.col_span[0] - ancestors.col_span[0]
    return SlowModes(
        col_span=own.col_span,
        modes=np.concatenate([ancestors.modes, own.modes], axis=1),
        amplitudes=np.concatenate(
            [ancestors.amplitudes * np.exp(ancestors.omega * (ancestors.dt * shift)), own.amplitudes]
        ),
        omega=np.concatenate([ancestors.omega, own.omega]),
        dt=own.dt,
    )


def slow_reconstruction(
    node_dmd: DmdResult,
    slow_set: np.ndarray | tuple[int, ...],
    span: tuple[int, int],
    dt: float,
    f_sp: float,
) -> np.ndarray:
    """Full-resolution reconstruction of the slow modes over a bin: ``SlowModes.at`` every column of the span."""
    return SlowModes.of(node_dmd, slow_set, span, dt, f_sp).at(np.arange(*span))


@dataclass(frozen=True)
class MrdmdNode:
    """One (level, bin) analysis unit of the recursion.

    ``dmd`` is the bin's fit without its modes (None for a zero-signal
    bin) and ``slow_set`` indexes the fit's slow modes.
    ``f_sp`` is the rate of the bin's subsample columns, ``subsample(col_span,
    plan.mu)``; the full-resolution column interval is the plan's ``dt``. A node holds
    no m-row array: the bin's slow modes live on the recursion stack only
    while its descendants are fitted.
    """

    level: int
    bin_index: int
    col_span: tuple[int, int]
    dmd: BinFit | None
    slow_set: tuple[int, ...]
    f_sp: float
    children: tuple["MrdmdNode", ...] = ()


def _walk(
    data: np.ndarray, mrdmd_plan: MrdmdPlan, rule: TruncationRule
) -> Iterator[tuple[MrdmdNode, SlowModes | None]]:
    """The recursion over ``data``: yields each bin as it is fitted.

    Pre-order per bin (a bin, then its left half, then its right half):
    gather the bin's mu subsample columns, subtract the lineage factor it
    received evaluated at those columns (one product for all ancestors),
    decompose, screen slow modes, then yield ``(node, slow_modes)``: the
    bin's childless node, whose ``dmd`` is None when nothing above
    rounding is left (``_ROUNDING_FLOOR``), and its slow modes (None when
    it has none). Bins of odd width split with the larger half first. A
    bin with slow modes appends them to its factor (``lineage_factor``),
    built once and shared by both halves; a bin without passes its factor
    on unchanged. Only the walk holds a bin's fit: it and the bin's
    factor, with the fit's m x mu basis, are freed when the bin's subtree
    is done, so at most one of each per level is alive at a time. The
    same input gives the same fits, bit for bit, on every walk.
    """
    dt = mrdmd_plan.dt
    mu = mrdmd_plan.mu
    level_count = mrdmd_plan.termination_level

    def recurse(
        start: int, width: int, level: int, bin_index: int, lineage: SlowModes | None
    ) -> Iterator[tuple[MrdmdNode, SlowModes | None]]:
        span = (start, start + width)
        cols = subsample(span, mu)
        f_sp = mu / (width * dt)
        xsub = data[:, cols]
        floor = _ROUNDING_FLOOR * np.linalg.norm(xsub)
        if lineage is not None:
            xsub -= lineage.at(cols)
        fit = None
        if np.linalg.norm(xsub) > floor:
            try:
                fit = dmd(xsub[:, :-1], xsub[:, 1:], rule)
            except ZeroSignalError:
                pass
        slow: tuple[int, ...] = ()
        own = None
        if fit is not None:
            slow_idx = screen_slow(fit, mrdmd_plan.rho)
            slow = tuple(slow_idx.tolist())
            if slow:
                own = SlowModes.of(fit, slow_idx, span, dt, f_sp)
        binfit = None if fit is None else BinFit.of(fit)
        yield MrdmdNode(level, bin_index, span, binfit, slow, f_sp), own
        # This frame lives until both halves are done: free the bin's input
        # first. The fit (its basis Q) is freed on return, not here: m-row
        # arrays freed ahead of the halves' allocations let glibc trim the
        # heap and fault it back in for every bin (3x the page faults on a
        # 1000 x 4000 input, measured when fits held their lifted modes).
        del xsub
        if level < level_count:
            # a bin without slow modes subtracts nothing more from its descendants
            if own is not None:
                lineage = lineage_factor(lineage, own)
            # the factor holds a copy of own's columns (or is own): keep no second one over the subtree
            del own
            half = (width + 1) // 2
            yield from recurse(start, half, level + 1, 2 * bin_index, lineage)
            yield from recurse(start + half, width - half, level + 1, 2 * bin_index + 1, lineage)

    return recurse(0, mrdmd_plan.n, 1, 0, None)


@dataclass(frozen=True)
class MrdmdResult:
    """Full decomposition: node tree, modes, per-level and total series.

    ``per_level_series[l - 1]`` is level l's slow reconstruction collapsed
    by anti-diagonal averaging (``stacking.unembed``) and ``series`` the
    sum over levels, each of length rows + n - 1. ``data`` is the
    read-only snapshot matrix that was decomposed (such as a slice of the
    ``delay_embed`` view) and ``rule`` the bins' truncation rule. The one
    dense view, the rows x n ``total_reconstruction``, is rebuilt on first
    access by walking the recursion again over ``data``: the walk yields
    every bin, refitted bit for bit, and each adds its slow reconstruction
    over its span. It costs one more walk and O(m * n) memory, and is cached
    read-only.
    """

    plan: MrdmdPlan
    root: MrdmdNode
    all_modes: ModeTable
    per_level_series: tuple[np.ndarray, ...]
    series: np.ndarray
    data: np.ndarray = field(repr=False)
    rule: TruncationRule

    @cached_property
    def total_reconstruction(self) -> np.ndarray:
        """One refitting walk that adds each bin's slow reconstruction over its span.

        The walk yields a bin's ancestors before it, so each entry sums as
        zeros + level 1 + level 2 + ...
        """
        total = np.zeros(self.data.shape)
        for node, own in _walk(self.data, self.plan, self.rule):
            if own is not None:
                start, stop = node.col_span
                total[:, start:stop] += own.at(np.arange(start, stop))
        total.setflags(write=False)
        return total


def _read_only_float(arr) -> bool:
    """True for a float64 array that neither it nor any array it views can write."""
    if not isinstance(arr, np.ndarray) or arr.dtype != np.float64:
        return False
    base = arr
    while base is not None:
        if isinstance(base, np.ndarray) and base.flags.writeable:
            return False
        base = getattr(base, "base", None)
    return True


def _subtree(pre_order: Iterator[MrdmdNode], level_count: int) -> MrdmdNode:
    """The next node of a pre-order node sequence, given its two subtrees above the last level."""
    node = next(pre_order)
    if node.level < level_count:
        return replace(node, children=(_subtree(pre_order, level_count), _subtree(pre_order, level_count)))
    return node


def decompose(
    data: np.ndarray,
    mrdmd_plan: MrdmdPlan,
    rule: TruncationRule = DEFAULT_BIN_RULE,
) -> MrdmdResult:
    """Run the multi-resolution recursion over a rows x n snapshot matrix.

    The recursion is ``_walk``, which yields each bin in pre-order; one
    loop consumes it. The residual is never formed at full resolution: each
    bin adds the anti-diagonal sums of its own slow reconstruction,
    convolved by FFT from its factored slow modes, to its level's series.
    No bin's slow modes or mode matrix outlive its subtree; its node keeps
    the fit only as a ``BinFit``. The node tree is built from the
    pre-order node list, and ``all_modes`` is one ``modes.mode_table`` of
    every fitted node's ``BinFit``, made after the walk. When a bin has no
    signal left (fully explained upstream) it contributes zeros and no
    modes and the recursion continues.

    The result keeps the snapshot matrix for its dense view: a read-only
    float array as given (such as a slice of the ``delay_embed`` view), and
    anything else as a read-only copy, so that later writes by the caller
    cannot change what the view rebuilds.
    """
    if not _read_only_float(data):
        data = np.array(data, dtype=float)
        data.setflags(write=False)
    if data.ndim != 2:
        raise ValueError("snapshot data must be 2-D")
    m, n = data.shape
    if n != mrdmd_plan.n:
        raise ValueError(f"snapshot matrix has {n} columns but the plan expects {mrdmd_plan.n}")

    level_sums = np.zeros((mrdmd_plan.termination_level, m + n - 1))
    nodes = []
    for node, own in _walk(data, mrdmd_plan, rule):
        if own is not None:
            start, stop = node.col_span
            level_sums[node.level - 1, start : stop + m - 1] += own.antidiagonal_sums()
        nodes.append(node)

    root = _subtree(iter(nodes), mrdmd_plan.termination_level)
    # the table lists the levels in order and each level's bins left to right
    fitted = sorted((node for node in nodes if node.dmd is not None), key=lambda node: (node.level, node.bin_index))
    all_modes = mode_table([node.dmd for node in fitted], [node.f_sp for node in fitted], mrdmd_plan.mu,
                           [node.level for node in fitted], [node.bin_index for node in fitted],
                           [node.slow_set for node in fitted])
    counts = antidiagonal_counts(m, n)
    series = level_sums.sum(axis=0) / counts
    level_sums /= counts  # in place: each level's series is a row view
    for s in (level_sums, series):
        s.setflags(write=False)
    return MrdmdResult(
        plan=mrdmd_plan,
        root=root,
        all_modes=all_modes,
        per_level_series=tuple(level_sums),
        series=series,
        data=data,
        rule=rule,
    )
