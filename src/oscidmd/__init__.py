"""Oscillation-mode identification from measured time series.

Pipeline: ingest uniformly sampled measurements, delay-embed them into
Hankel snapshot matrices, fit the best-fit linear step operator (DMD),
and optionally run the multi-resolution variant (MR-DMD) that recurses
over dyadic time bins, screening and removing slow modes at each level.
Mode reports map discrete eigenvalues to continuous frequency/damping
and rank modes by integral contribution.
"""

from .ingest import (
    FILL_HOLD,
    FILL_ZERO,
    IngestConfig,
    IngestError,
    SignalRecord,
    inject_gap,
    load_csv,
    write_csv,
)
from .stacking import default_stack_depth, delay_embed, shifted_pair, unembed
from .dmd import (
    DEFAULT_RULE,
    DecompositionError,
    DmdResult,
    TruncationRule,
    ZeroSignalError,
    amplitudes,
    dmd,
    eig_modes,
    reconstruct_series,
    reconstruct_window,
    reduced_operator,
    svd_truncated,
)
from .mrdmd import (
    DEFAULT_BIN_RULE,
    BinFit,
    MrdmdNode,
    MrdmdPlan,
    MrdmdResult,
    PlanError,
    decompose,
    plan,
    screen_slow,
    slow_reconstruction,
    subsample,
)
from .modes import (
    DEFAULT_EPS_CRIT,
    ModeCluster,
    ModeReport,
    classify,
    cluster_sustained,
    dominant_cluster,
    integral_contribution,
    reports_from_dmd,
    strongest_oscillatory,
    to_continuous,
)
from .siggen import PROFILES, ModeSpec, SignalProfile, generate, generate_profile

__version__ = "0.1.0"

__all__ = [
    "FILL_HOLD",
    "FILL_ZERO",
    "IngestConfig",
    "IngestError",
    "SignalRecord",
    "inject_gap",
    "load_csv",
    "write_csv",
    "default_stack_depth",
    "delay_embed",
    "shifted_pair",
    "unembed",
    "DEFAULT_RULE",
    "DecompositionError",
    "DmdResult",
    "TruncationRule",
    "ZeroSignalError",
    "amplitudes",
    "dmd",
    "eig_modes",
    "reconstruct_series",
    "reconstruct_window",
    "reduced_operator",
    "svd_truncated",
    "DEFAULT_BIN_RULE",
    "BinFit",
    "MrdmdNode",
    "MrdmdPlan",
    "MrdmdResult",
    "PlanError",
    "decompose",
    "plan",
    "screen_slow",
    "slow_reconstruction",
    "subsample",
    "DEFAULT_EPS_CRIT",
    "ModeCluster",
    "ModeReport",
    "classify",
    "cluster_sustained",
    "dominant_cluster",
    "integral_contribution",
    "reports_from_dmd",
    "strongest_oscillatory",
    "to_continuous",
    "PROFILES",
    "ModeSpec",
    "SignalProfile",
    "generate",
    "generate_profile",
    "__version__",
]
