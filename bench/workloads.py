"""The benchmark's workloads: seeded inputs, planted truth, and why each exists.

Each workload is one ``oscidmd analyze`` command on one CSV. The CSV is
built from the workload seed with ``siggen.generate``, ``inject_gap`` and
``write_csv``; the planted mode table stays beside it as ``truth.json``
and the CLI receives only the file. The seed drives the noise draw only,
so every seed exercises the same regime (same gap, same geometry).

Cases left out, and why:

* ``analyze compare`` is single-window DMD plus MR-DMD on the same input,
  so it adds no layer that ``lfo_gap_dmd`` and ``lfo_gap_mrdmd`` do not
  already load; it also reads its truth from a ``--profile``, which would
  bypass ``ingest``.
* MR-DMD on 4 s and 8 s records at the default stack (length/5) wait for
  ROADMAP item 2. The dense per-level layers grow with length squared:
  about 2.4 GB at 4 s and 9 GB at 8 s. The 8 s case cannot run on a 7 GB
  machine shared with other tenants, and the 4 s case would hold a third
  of it for every child. ``ac_long_mrdmd`` covers length growth at a
  fixed stack instead.
"""

from __future__ import annotations

from dataclasses import dataclass

FS = 2500.0
NOISE_STD = 0.05


@dataclass(frozen=True)
class Workload:
    """One CLI analysis on one generated record.

    ``modes`` holds the planted ``(frequency_hz, growth_rate, amplitude)``
    triples; ``stack`` is None for the CLI default depth (length/5).
    """

    name: str
    analysis: str
    channel: str
    dc: float
    modes: tuple[tuple[float, float, float], ...]
    duration: float
    gap_start: int
    gap_length: int
    fill: str
    stack: int | None
    mu: int
    why: str
    loads: str

    @property
    def length(self) -> int:
        return round(self.duration * FS)

    @property
    def depth(self) -> int:
        """Embedding depth m, as ``stacking.default_stack_depth`` picks it."""
        if self.stack is not None:
            return self.stack
        return min(max(self.length // 5, 1), self.length - 1)

    @property
    def columns(self) -> int:
        """Columns the analysis decomposes: n for DMD, n - 1 for MR-DMD."""
        n = self.length - self.depth + 1
        return n - 1 if self.analysis == "mrdmd" else n

    @property
    def levels(self) -> int:
        return mrdmd_levels(self.columns, self.mu) if self.analysis == "mrdmd" else 0

    @property
    def covered_samples(self) -> int:
        """Rows of reconstruction.csv: anti-diagonals of the decomposed matrix."""
        return self.depth + self.columns - 1

    def cli_args(self, input_name: str, out_dir: str) -> list[str]:
        args = ["analyze", self.analysis, "--input", input_name, "--time-column", "t",
                "--fill", self.fill, "--out", out_dir]
        if self.stack is not None:
            args += ["--stack", str(self.stack)]
        if self.analysis == "mrdmd":
            args += ["--mu", str(self.mu)]
        return args

    def expected_files(self) -> list[str]:
        if self.analysis == "dmd":
            return ["eigenvalues.csv", "reconstruction.csv", "report.json"]
        levels = [f"level_{l}.csv" for l in range(1, self.levels + 1)]
        return ["modes.csv", "plan.csv", "reconstruction.csv", "report.json", *levels]

    def truth(self) -> dict:
        """The planted dominant mode: the largest-amplitude oscillatory one."""
        osc = [m for m in self.modes if m[0] > 0]
        f, growth, _ = max(osc, key=lambda m: abs(m[2]))
        return {"frequency_hz": f, "growth_rate_per_s": growth,
                "modes": [list(m) for m in self.modes]}


_LFO_MODES = ((8.6, 0.0, 6.0),)
_AC_MODES = ((50.0, 0.0, 10.0), (41.4, 0.0, 3.0), (58.6, 0.0, 3.0))

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="lfo_gap_dmd",
            analysis="dmd",
            channel="u_dc",
            dc=170.0,
            modes=_LFO_MODES,
            duration=2.0,
            gap_start=2000,
            gap_length=250,
            fill="zero",
            stack=None,
            mu=16,
            why="one large 1000x4001 Hankel fit: the single-window SVD and the m x n "
                "complex reconstruction dominate; mrdmd does not run",
            loads="dmd (svd_truncated, eig_modes, reconstruct_window), stacking",
        ),
        Workload(
            name="lfo_gap_mrdmd",
            analysis="mrdmd",
            channel="u_dc",
            dc=170.0,
            modes=_LFO_MODES,
            duration=2.0,
            gap_start=2000,
            gap_length=250,
            fill="zero",
            stack=None,
            mu=16,
            why="same file as lfo_gap_dmd, so the pair differs only in the analysis layer: "
                "255 small 1000x15 fits and 8 dense per-level layers (memory-heavy)",
            loads="mrdmd (decompose, per-level layers), dmd per bin, stacking.unembed",
        ),
        Workload(
            name="ac_long_mrdmd",
            analysis="mrdmd",
            channel="i_ac",
            dc=0.0,
            modes=_AC_MODES,
            duration=8.0,
            gap_start=8000,
            gap_length=250,
            fill="hold",
            stack=200,
            mu=50,
            why="long and thin 8 s record: 511 bins and ~12.9k modes, so cost follows bin "
                "and mode count; ingest of 20k rows and ~12 MB of CSV artifacts show",
            loads="mrdmd per-bin loop, modes (reports, classify, cluster), ingest, cli emit",
        ),
    )
}
# ac_long_mrdmd uses mu 50, the paper's AC setting. At mu 16 the same
# record reports a 6.05 Hz alias of the 58.6 Hz sideband at level 6: a
# known correctness defect that belongs to its own issue, not to a
# performance workload.


def mrdmd_levels(n: int, mu: int) -> int:
    """Termination level: the largest L with floor(n / 2^(L-1)) > mu."""
    level = 1
    while n // 2**level > mu:
        level += 1
    return level


def estimate_bytes(w: Workload) -> int:
    """Pre-flight footprint of one analysis child, from m, n and L.

    MR-DMD holds the Hankel matrix, its working copy and residual and one
    dense m x n layer per level: m*n*8*(L+3) (ROADMAP). Single-window DMD
    holds the Hankel matrix, the SVD factors, the complex m x n window
    (two doubles per entry) and the index and weights of ``unembed``:
    m*n*8*6.
    """
    cells = w.depth * w.columns * 8
    return cells * (w.levels + 3) if w.analysis == "mrdmd" else cells * 6


def make_inputs(w: Workload, seed: int, csv_path) -> None:
    """Write the workload's seeded CSV; missing samples become empty cells."""
    from oscidmd import ModeSpec, generate, inject_gap, write_csv

    record = generate(
        [ModeSpec(frequency_hz=f, growth_rate=g, amplitude=a) for f, g, a in w.modes],
        dc=w.dc, fs=FS, duration=w.duration, noise_std=NOISE_STD, seed=seed, channel=w.channel,
    )
    write_csv(inject_gap(record, w.gap_start, w.gap_length), csv_path)
