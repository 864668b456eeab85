"""Multi-resolution decomposition over dyadic time bins.

Each level l splits the snapshot window into 2^(l-1) bins. Every bin is
subsampled down to a fixed count mu, decomposed, and screened: modes with
|ln(lambda)| < rho (rho = pi / g) are slow at that time scale. Their
full-resolution reconstruction is subtracted from the bin and the residual
is halved and recursed until the termination level, which is the largest L
keeping more than mu columns per bin.

The implementation is matrix-free. A bin's fit reads only its mu
subsample columns, and slow modes are analytic in time, so each bin
gathers those columns from the snapshot matrix and subtracts every
ancestor's slow modes evaluated there; no residual is formed at full
resolution. Each bin's slow modes are factored once (``SlowModes``: the
mode shapes, amplitudes and continuous eigenvalues) and passed down the
recursion, in the lineage tuple, to its descendants; they and the fit's
m x r mode matrix are freed when the bin's subtree returns, so at most one
of each per level is alive at a time. The node keeps only the bin's
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

The recursion is embarrassingly parallel across sibling bins; this
implementation runs depth-first sequentially, which is the reference
ordering any parallel variant must reproduce.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain

import numpy as np

from .dmd import TRUNC_RATIO, DmdResult, TruncationRule, ZeroSignalError, dmd
from .dmd import product_antidiagonal_sums
from .modes import ModeReport, reports_from_dmd
from .stacking import antidiagonal_counts

_MAX_DT_DENOMINATOR = 10**9

# Per-bin fits see only mu subsamples; a relative noise-floor cut keeps weak
# coherent content resolvable without the overfit a near-full rank causes on
# corrupted bins.
DEFAULT_BIN_RULE = TruncationRule(TRUNC_RATIO, 1e-4)

# BLAS products round the columns of a partial output tile differently from
# the rest. Evaluating ancestors' slow modes in whole tiles of this many
# columns keeps each bin's input bit-identical to the dense residual on
# builds whose column tile divides it; noise-only bins amplify any last-bit
# difference.
_TILE = 8


class PlanError(ValueError):
    """Raised when decomposition parameters are inconsistent."""


def _as_fraction(value, name: str) -> Fraction:
    """Exact rational view of a parameter; floats snap to the nearest simple ratio."""
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
        return Fraction(value).limit_denominator(_MAX_DT_DENOMINATOR)
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

    def level(self, l: int) -> LevelParams:
        if not 1 <= l <= self.termination_level:
            raise PlanError(f"level {l} outside 1..{self.termination_level}")
        return self.per_level[l - 1]


def plan(
    n: int,
    dt: float,
    mu: int = 16,
    g: int | str | Fraction | float = 4,
    termination_level: int | None = None,
) -> MrdmdPlan:
    """Build the decomposition plan for n snapshot columns at interval dt.

    The termination level defaults to the largest L with
    floor(n / 2^(L-1)) > mu; an override must still satisfy that bound.
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
    level_max = 1
    while n // (2**level_max) > mu:
        level_max += 1
    if termination_level is not None:
        if termination_level < 1 or n // (2 ** (termination_level - 1)) <= mu:
            raise PlanError(
                f"termination level {termination_level} violates the bin-size criterion "
                f"n / 2^(L-1) > mu (n={n}, mu={mu}, max feasible L={level_max})"
            )
        level = termination_level
    else:
        level = level_max

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
    return MrdmdPlan(
        mu=mu,
        termination_level=level,
        g=g_frac,
        rho=math.pi / float(g_frac),
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
    lams = result.eigenvalues
    mags = np.full(lams.shape, np.inf)
    nz = lams != 0
    mags[nz] = np.abs(np.log(lams[nz]))
    return np.flatnonzero(mags < rho)


@dataclass(frozen=True, slots=True)
class BinFit:
    """A bin's fit without its mode matrix: every ``DmdResult`` field but ``modes``.

    The arrays are the fit's own read-only arrays, not copies.
    """

    eigenvalues: np.ndarray
    amplitudes: np.ndarray
    rank: int
    rank_clamped: bool
    singular_values: np.ndarray
    dt_effective: float

    @classmethod
    def of(cls, fit: DmdResult) -> "BinFit":
        return cls(
            fit.eigenvalues, fit.amplitudes, fit.rank, fit.rank_clamped, fit.singular_values, fit.dt_effective
        )


@dataclass(frozen=True)
class SlowModes:
    """A bin's slow modes in factored form, analytic at any of its columns.

    The column at offset j from the bin start is
    Re(sum_k modes[:, k] * amplitudes[k] * exp(omega[k] * dt * j)), with
    omega_k = f_sp * ln(lambda_k) bridging the subsampled eigenvalue
    interval to the full sample rate. ``modes`` is rows x r_slow, a copy of
    the fit's slow columns that keeps no reference to its other modes; an
    empty slow set evaluates to zeros. The arrays are read-only.
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
        idx = np.asarray(slow_set, dtype=int)
        # fancy indexing copies, so the slow modes hold no view of the fit's Phi
        return cls(
            col_span=col_span,
            modes=node_dmd.modes[:, idx],
            amplitudes=node_dmd.amplitudes[idx],
            omega=f_sp * np.log(node_dmd.eigenvalues[idx]),
            dt=dt,
        )

    @property
    def width(self) -> int:
        return self.col_span[1] - self.col_span[0]

    def at_offsets(self, offsets: np.ndarray) -> np.ndarray:
        """The slow reconstruction at column offsets from the bin start."""
        tau = self.dt * np.asarray(offsets)
        coeff = self.amplitudes[:, None] * np.exp(self.omega[:, None] * tau[None, :])
        return (self.modes @ coeff).real

    def at(self, cols: np.ndarray) -> np.ndarray:
        """The slow reconstruction at absolute snapshot columns inside the bin.

        Columns in whole ``_TILE``-column tiles of the bin are evaluated in
        one product padded to whole tiles, followed by the bin's own last,
        partial tile when a requested column lies in it, so each column
        takes the same BLAS kernel path as in the full-width product and
        comes out bit for bit the same.
        """
        offsets = np.asarray(cols) - self.col_span[0]
        width = self.width
        tail = width - width % _TILE
        in_tail = offsets >= tail
        head = offsets[~in_tail]
        pad = -head.size % _TILE
        if not in_tail.any():
            return self.at_offsets(np.concatenate([head, np.zeros(pad, dtype=int)]))[:, : head.size]
        values = self.at_offsets(
            np.concatenate([head, np.zeros(pad, dtype=int), np.arange(tail, width)])
        )
        where = np.empty(offsets.size, dtype=int)
        where[~in_tail] = np.arange(head.size)
        where[in_tail] = head.size + pad + offsets[in_tail] - tail
        return values[:, where]

    def antidiagonal_sums(self) -> np.ndarray:
        """Anti-diagonal sums of the slow reconstruction over the whole bin.

        Equal, up to rounding, to ``stacking.antidiagonal_sums`` of the
        rows x width reconstruction, which is never formed: the sums are
        Re(sum_k modes[:, k] (*) (amplitudes[k] * z_k^j)), one convolution
        of each mode shape with its geometric sequence (z_k =
        exp(omega_k * dt)), taken by FFT (``dmd.product_antidiagonal_sums``)
        in O(r_slow * (rows + width) * log) instead of O(rows * width * r_slow).
        """
        tau = self.dt * np.arange(self.width)[None, :]
        return product_antidiagonal_sums(
            self.modes, lambda k: self.amplitudes[k, None] * np.exp(self.omega[k, None] * tau), self.width
        )


def slow_reconstruction(
    node_dmd: DmdResult,
    slow_set: np.ndarray | tuple[int, ...],
    span: tuple[int, int],
    dt: float,
    f_sp: float,
) -> np.ndarray:
    """Full-resolution reconstruction of the slow modes over a bin.

    ``SlowModes.at_offsets`` at every offset of the span; only the span's
    width matters.
    """
    start, stop = span
    width = stop - start
    if width < 1:
        raise ValueError("span must cover at least one column")
    return SlowModes.of(node_dmd, slow_set, span, dt, f_sp).at_offsets(np.arange(width))


@dataclass(frozen=True)
class MrdmdNode:
    """One (level, bin) analysis unit of the recursion.

    ``dmd`` is the bin's fit without its mode matrix (None for a bin with
    no signal energy) and ``slow_set`` indexes the fit's slow modes.
    ``f_sp`` is the bin's subsample rate and ``dt`` the full-resolution
    column interval. A node holds no m-row array: the bin's slow modes
    live on the recursion stack only while its descendants are fitted.
    """

    level: int
    bin_index: int
    col_span: tuple[int, int]
    subsample_indices: np.ndarray
    dmd: BinFit | None
    slow_set: tuple[int, ...]
    f_sp: float
    dt: float
    children: tuple["MrdmdNode", ...] = ()


def _walk(
    data: np.ndarray,
    mrdmd_plan: MrdmdPlan,
    rule: TruncationRule,
    visit: Callable[
        [int, int, tuple[int, int], float, tuple[int, ...], DmdResult | None, SlowModes | None], None
    ],
) -> MrdmdNode:
    """The recursion over ``data``; returns the root of its node tree.

    Depth first per bin: gather the bin's mu subsample columns, subtract
    every ancestor's slow modes evaluated at those columns (root first),
    decompose, screen slow modes, then call
    ``visit(level, bin_index, col_span, f_sp, slow_set, fit, slow_modes)``
    with the bin's fit (None when it has no signal energy left) and its
    slow modes (None when it has none), and recurse into both halves. The
    bin's node is built once its halves' nodes are. Bins of odd width split
    with the larger half first. The lineage of slow modes is a tuple passed
    down the recursion: a bin's ``SlowModes`` and its fit, with the fit's
    m x r mode matrix, are freed when the bin's subtree returns, so at most
    one of each per level is alive at a time. The same input gives the same
    fits, bit for bit, on every walk.
    """
    dt = mrdmd_plan.dt
    mu = mrdmd_plan.mu
    level_count = mrdmd_plan.termination_level

    def recurse(
        start: int, width: int, level: int, bin_index: int, ancestors: tuple[SlowModes, ...]
    ) -> MrdmdNode:
        span = (start, start + width)
        cols = subsample(span, mu)
        f_sp = mu / (width * dt)
        xsub = data[:, cols]
        for ancestor in ancestors:
            xsub -= ancestor.at(cols)
        try:
            fit = dmd(xsub[:, :-1], xsub[:, 1:], rule, dt=1.0 / f_sp)
        except ZeroSignalError:
            fit = None
        slow: tuple[int, ...] = ()
        own = None
        if fit is not None:
            slow_idx = screen_slow(fit, mrdmd_plan.rho)
            slow = tuple(slow_idx.tolist())
            if slow:
                own = SlowModes.of(fit, slow_idx, span, dt, f_sp)
        visit(level, bin_index, span, f_sp, slow, fit, own)
        # This frame lives until both halves return: free the bin's input
        # first. The fit (Phi) is freed on return, not here: freed ahead of
        # the halves' allocations it let glibc trim the heap and fault it
        # back in for every bin (3x the page faults on a 1000 x 4000 input).
        del xsub
        children: tuple[MrdmdNode, ...] = ()
        if level < level_count:
            # a bin without slow modes subtracts nothing from its descendants
            lineage = ancestors if own is None else ancestors + (own,)
            half = (width + 1) // 2
            children = (
                recurse(start, half, level + 1, 2 * bin_index, lineage),
                recurse(start + half, width - half, level + 1, 2 * bin_index + 1, lineage),
            )
        return MrdmdNode(
            level=level,
            bin_index=bin_index,
            col_span=span,
            subsample_indices=cols,
            dmd=None if fit is None else BinFit.of(fit),
            slow_set=slow,
            f_sp=f_sp,
            dt=dt,
            children=children,
        )

    return recurse(0, mrdmd_plan.n, 1, 0, ())


@dataclass(frozen=True)
class MrdmdResult:
    """Full decomposition: node tree, modes, per-level and total series.

    ``per_level_series[l - 1]`` is level l's slow reconstruction collapsed
    by anti-diagonal averaging (``stacking.unembed``) and ``series`` the
    sum over levels, each of length rows + n - 1. ``data`` is the
    read-only snapshot matrix that was decomposed (such as a slice of the
    ``delay_embed`` view) and ``rule`` the bins' truncation rule. The one
    dense view, the rows x n ``total_reconstruction``, is rebuilt on first
    access by walking the recursion again over ``data``: every bin is
    refitted bit for bit and adds its slow reconstruction over its span. It
    costs one more walk and O(m * n) memory, and is cached read-only.
    """

    plan: MrdmdPlan
    root: MrdmdNode
    all_modes: tuple[ModeReport, ...]
    per_level_series: tuple[np.ndarray, ...]
    series: np.ndarray
    data: np.ndarray = field(repr=False)
    rule: TruncationRule

    def _nodes(self) -> Iterator[MrdmdNode]:
        """Every node, level by level and left to right within a level."""
        level = [self.root]
        while level:
            yield from level
            level = [child for node in level for child in node.children]

    @cached_property
    def total_reconstruction(self) -> np.ndarray:
        """One refitting walk that adds each bin's slow reconstruction over its span.

        The walk visits a bin's ancestors before it, so each entry sums as
        zeros + level 1 + level 2 + ...
        """
        total = np.zeros(self.data.shape)

        def add(
            level: int,
            bin_index: int,
            span: tuple[int, int],
            f_sp: float,
            slow: tuple[int, ...],
            fit: DmdResult | None,
            own: SlowModes | None,
        ) -> None:
            if own is not None:
                start, stop = span
                total[:, start:stop] += own.at(np.arange(start, stop))

        _walk(self.data, self.plan, self.rule, add)
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


def decompose(
    data: np.ndarray,
    mrdmd_plan: MrdmdPlan,
    rule: TruncationRule = DEFAULT_BIN_RULE,
) -> MrdmdResult:
    """Run the multi-resolution recursion over a rows x n snapshot matrix.

    The recursion is ``_walk``. The residual is never formed at full
    resolution: each bin adds the anti-diagonal sums of its own slow
    reconstruction, convolved by FFT from its factored slow modes, to its
    level's series, and its mode reports to the mode list. No bin's slow
    modes or mode matrix outlive its subtree; its node keeps the fit only as
    a ``BinFit``. When a bin has no signal energy left (fully explained
    upstream) it contributes zeros and an empty mode list and the recursion
    continues.

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
    # the walk visits each level's bins left to right, so each list is in bin order
    level_reports: tuple[list[ModeReport], ...] = tuple([] for _ in level_sums)

    def collect(
        level: int,
        bin_index: int,
        span: tuple[int, int],
        f_sp: float,
        slow: tuple[int, ...],
        fit: DmdResult | None,
        own: SlowModes | None,
    ) -> None:
        if own is not None:
            start, stop = span
            level_sums[level - 1, start : stop + m - 1] += own.antidiagonal_sums()
        if fit is not None:
            level_reports[level - 1].extend(
                reports_from_dmd(
                    fit,
                    f_sp=f_sp,
                    horizon_steps=mrdmd_plan.mu,
                    level=level,
                    bin_index=bin_index,
                    slow_set=set(slow),
                )
            )

    root = _walk(data, mrdmd_plan, rule, collect)
    counts = antidiagonal_counts(m, n)
    per_level_series = tuple(sums / counts for sums in level_sums)
    series = level_sums.sum(axis=0) / counts
    for s in (*per_level_series, series):
        s.setflags(write=False)
    return MrdmdResult(
        plan=mrdmd_plan,
        root=root,
        all_modes=tuple(chain.from_iterable(level_reports)),
        per_level_series=per_level_series,
        series=series,
        data=data,
        rule=rule,
    )
