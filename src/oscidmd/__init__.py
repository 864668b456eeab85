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
    IngestError,
    SignalRecord,
    inject_gap,
    load_csv,
    write_csv,
)
from .stacking import default_stack_depth, delay_embed
from .dmd import (
    DEFAULT_RULE,
    DecompositionError,
    DmdResult,
    TruncationRule,
    ZeroSignalError,
    dmd,
    reconstruct_series,
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
    subsample,
)
from .modes import (
    DEFAULT_EPS_CRIT,
    ModeCluster,
    ModeReport,
    classify,
    cluster_sustained,
    dominant_cluster,
    reports_from_dmd,
)
from .siggen import PROFILES, ModeSpec, SignalProfile, generate, generate_profile

__version__ = "0.1.0"

__all__ = [
    "FILL_HOLD",
    "FILL_ZERO",
    "IngestError",
    "SignalRecord",
    "inject_gap",
    "load_csv",
    "write_csv",
    "default_stack_depth",
    "delay_embed",
    "DEFAULT_RULE",
    "DecompositionError",
    "DmdResult",
    "TruncationRule",
    "ZeroSignalError",
    "dmd",
    "reconstruct_series",
    "DEFAULT_BIN_RULE",
    "BinFit",
    "MrdmdNode",
    "MrdmdPlan",
    "MrdmdResult",
    "PlanError",
    "decompose",
    "plan",
    "screen_slow",
    "subsample",
    "DEFAULT_EPS_CRIT",
    "ModeCluster",
    "ModeReport",
    "classify",
    "cluster_sustained",
    "dominant_cluster",
    "reports_from_dmd",
    "PROFILES",
    "ModeSpec",
    "SignalProfile",
    "generate",
    "generate_profile",
    "__version__",
]
