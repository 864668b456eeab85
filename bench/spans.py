"""Layer spans for the traced in-process run.

The library has no stage recorder yet (ROADMAP item 1), so the traced run
times each layer from outside. For the length of one run it replaces the
module-level names through which oscidmd reaches a layer's public
functions with timing wrappers, and restores them afterwards. Spans
therefore sit around every public call of ``ingest``, ``stacking``,
``dmd``, ``mrdmd`` and ``modes``, in the order ``cli._analyze_*_core``
makes them, including the per-bin ``dmd`` calls inside ``decompose``.
Spans stay in memory and are written out once, when the benchmark ends.
"""

from __future__ import annotations

import importlib
from dataclasses import asdict, dataclass
from time import perf_counter

MIB = 2**20

# (module, attribute, span name): each call through module.attribute is one span
TARGETS = (
    ("oscidmd.cli", "load_csv", "ingest.load_csv"),
    ("oscidmd.cli", "delay_embed", "stacking.delay_embed"),
    ("oscidmd.cli", "unembed", "stacking.unembed"),
    ("oscidmd.cli", "dmd", "dmd.dmd"),
    ("oscidmd.mrdmd", "dmd", "dmd.dmd"),
    ("oscidmd.dmd", "svd_truncated", "dmd.svd"),
    ("oscidmd.dmd", "reduced_operator", "dmd.operator"),
    ("oscidmd.dmd", "eig_modes", "dmd.eig"),
    ("oscidmd.dmd", "amplitudes", "dmd.amplitudes"),
    ("oscidmd.cli", "reconstruct_window", "dmd.reconstruct"),
    ("oscidmd.cli", "plan", "mrdmd.plan"),
    ("oscidmd.cli", "decompose", "mrdmd.decompose"),
    ("oscidmd.mrdmd", "slow_reconstruction", "mrdmd.slow_reconstruction"),
    ("oscidmd.cli", "reports_from_dmd", "modes.reports"),
    ("oscidmd.mrdmd", "reports_from_dmd", "modes.reports"),
    ("oscidmd.cli", "classify", "modes.classify"),
    ("oscidmd.modes", "cluster_sustained", "modes.cluster"),
)
ROOT_SPAN = "cli.run"

# per-layer time metric -> span name whose durations it sums
SPAN_TIMES = {
    "ingest.load_csv_s": "ingest.load_csv",
    "stacking.delay_embed_s": "stacking.delay_embed",
    "stacking.unembed_s": "stacking.unembed",
    "dmd.svd_s": "dmd.svd",
    "dmd.operator_s": "dmd.operator",
    "dmd.eig_s": "dmd.eig",
    "dmd.amplitudes_s": "dmd.amplitudes",
    "dmd.reconstruct_s": "dmd.reconstruct",
    "mrdmd.decompose_s": "mrdmd.decompose",
    "mrdmd.slow_reconstruction_s": "mrdmd.slow_reconstruction",
    "modes.reports_s": "modes.reports",
    "modes.classify_s": "modes.classify",
    "modes.cluster_s": "modes.cluster",
}
# per-layer self-time metric -> span name; self time is the span minus its child spans
SELF_TIMES = {
    "mrdmd.self_s": "mrdmd.decompose",
    "cli.emit_s": ROOT_SPAN,
}


def svd_flops(rows: int, cols: int) -> float:
    """Thin SVD with both factors (R-SVD, Golub and Van Loan): 6 M N^2 + 20 N^3."""
    big, small = max(rows, cols), min(rows, cols)
    return 6.0 * big * small**2 + 20.0 * small**3


def tree_counts(result) -> dict:
    """Bin, rank and slow-mode counts from a returned MR-DMD node tree."""
    nodes, stack = [], [result.root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(node.children)
    fits = [n.dmd for n in nodes if n.dmd is not None]
    m, n = result.total_reconstruction.shape
    levels = result.plan.termination_level
    return {
        "mrdmd.levels": levels,
        "mrdmd.bins": len(nodes),
        "mrdmd.zero_signal_bins": len(nodes) - len(fits),
        "mrdmd.rank_sum": sum(f.rank for f in fits),
        "mrdmd.rank_clamped_bins": sum(bool(f.rank_clamped) for f in fits),
        "mrdmd.slow_modes": sum(len(n.slow_set) for n in nodes),
        "mrdmd.layers_mb": levels * m * n * 8 / MIB,
    }


# span name -> counters taken from (args, return value) of each call
COUNTERS = {
    "ingest.load_csv": lambda a, out: {"ingest.rows": out.length,
                                       "ingest.missing": int(out.missing_mask.sum())},
    "stacking.delay_embed": lambda a, out: {"stacking.hankel_mb": out.data.nbytes / MIB},
    "dmd.dmd": lambda a, out: {"dmd.calls": 1},
    "dmd.svd": lambda a, out: {"dmd.rank": out.rank,
                               "dmd.svd_gflop": svd_flops(*a[0].shape) / 1e9},
    "mrdmd.decompose": lambda a, out: tree_counts(out),
    "modes.classify": lambda a, out: {
        "modes.reported": len(out),
        "modes.ranked": sum(r.dominant_rank is not None for r in out),
    },
    "modes.cluster": lambda a, out: {"modes.clusters": len(out)},
}


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    workload: str
    run: int


class Recorder:
    """Collects spans and counters over traced runs of one workload."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span | None] = []
        self.counts: dict[str, float] = {}
        self.run = -1
        self._open: list[int] = []

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        def timed(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append(None)
            self._open.append(index)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open.pop()
                self.spans[index] = Span(name, start, end, parent, self.workload, self.run)
            if count is not None:
                for key, value in count(args, out).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return out

        return timed

    def traced_run(self, run_fn, cfg) -> int:
        """One call of ``run_fn(cfg)`` under a root span, with every layer wrapped."""
        self.run += 1
        self.counts = {}
        patched = []
        try:
            for module_name, attr, span_name in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                patched.append((module, attr, original))
                setattr(module, attr, self._wrap(span_name, original))
            return self._wrap(ROOT_SPAN, run_fn)(cfg)
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def run_metrics(self, run: int) -> dict:
        """Summed span and self times of one traced run, in seconds."""
        index = {i: s for i, s in enumerate(self.spans) if s is not None and s.run == run}
        child_time = dict.fromkeys(index, 0.0)
        for s in index.values():
            if s.parent in child_time:
                child_time[s.parent] += s.end - s.start
        totals: dict[str, float] = {}
        selfs: dict[str, float] = {}
        for i, s in index.items():
            totals[s.name] = totals.get(s.name, 0.0) + (s.end - s.start)
            selfs[s.name] = selfs.get(s.name, 0.0) + (s.end - s.start - child_time[i])
        out = {metric: totals.get(name, 0.0) for metric, name in SPAN_TIMES.items()}
        out.update({metric: selfs.get(name, 0.0) for metric, name in SELF_TIMES.items()})
        out["trace.spans"] = len(index)
        return out

    def records(self) -> list[dict]:
        return [dict(asdict(s), id=i) for i, s in enumerate(self.spans) if s is not None]
