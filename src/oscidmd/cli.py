"""Command-line front end: pipeline orchestration and artifact emission.

Subcommands mirror the library pipeline: ``generate`` writes synthetic
CSV datasets, ``analyze dmd`` runs a single-window decomposition,
``analyze mrdmd`` the multi-resolution recursion, ``analyze plan`` only
the parameter planner, and ``analyze compare`` both methods side by side
against generator ground truth.

All numeric CSV cells use fixed 17-significant-digit scientific notation,
so identical configuration and seed yield byte-identical files. Module
rejections exit nonzero after printing a single JSON error line on
stderr.
"""

from __future__ import annotations

import configparser
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import click
import numpy as np

from . import __version__
from .dmd import DEFAULT_RULE, DecompositionError, DmdResult, TruncationRule, dmd, reconstruct_series
from .ingest import FILL_ZERO, IngestConfig, SignalRecord, inject_gap, load_csv, write_csv
from .modes import (
    DEFAULT_EPS_CRIT,
    ModeCluster,
    ModeReport,
    classify,
    dominant_cluster,
    reports_from_dmd,
    strongest_oscillatory,
)
from .mrdmd import DEFAULT_BIN_RULE, MrdmdPlan, MrdmdResult, decompose, plan
from .siggen import PROFILES, generate_profile
from .stacking import default_stack_depth, delay_embed, shifted_pair

# Unused here, but bench/spans.py wraps these names on this module by getattr.
from .dmd import reconstruct_window  # noqa: F401
from .stacking import unembed  # noqa: F401


def _fmt(x: float) -> str:
    """Fixed 17-significant-digit scientific notation (round-trip exact)."""
    return f"{x:.16e}"


def _num(x) -> float | None:
    x = float(x)
    return x if np.isfinite(x) else None


@dataclass
class RunConfig:
    """Validated pipeline configuration assembled from CLI flags."""

    input_path: Path | None = None
    profile: str | None = None
    seed: int = 0
    noise_std: float | None = None
    channel: str | None = None
    dt: float | None = None
    time_column: str | int | None = None
    has_header: bool = True
    fill_policy: str = FILL_ZERO
    gap_start: int | None = None
    gap_length: int = 0
    stack_depth: int | None = None
    rule: TruncationRule | None = None
    mu: int = 16
    g: str = "4"
    termination_level: int | None = None
    eps_crit: float = DEFAULT_EPS_CRIT
    out_dir: Path = field(default_factory=lambda: Path("oscidmd-out"))
    emit_report: bool = True
    emit_eigenvalues: bool = True
    emit_levels: bool = True
    emit_plan: bool = True

    def validate(self) -> None:
        if (self.input_path is None) == (self.profile is None):
            raise ValueError("exactly one of --input and --profile must be given")
        if self.profile is not None and self.profile not in PROFILES:
            raise ValueError(f"unknown profile {self.profile!r}; available: {sorted(PROFILES)}")
        if self.gap_length < 0:
            raise ValueError("--gap-length must be non-negative")
        if self.gap_length > 0 and self.gap_start is None:
            raise ValueError("--gap-start is required when --gap-length is positive")
        if self.eps_crit < 0:
            raise ValueError("--eps-crit must be non-negative")
        if self.stack_depth is not None and self.stack_depth < 1:
            raise ValueError("--stack must be at least 1")


def _resolve_rule(rank: int | None, energy: float | None, sv_ratio: float | None) -> TruncationRule | None:
    given = [v is not None for v in (rank, energy, sv_ratio)]
    if sum(given) > 1:
        raise ValueError("give at most one of --rank, --energy, --sv-ratio")
    if rank is not None:
        return TruncationRule.fixed(rank)
    if energy is not None:
        return TruncationRule.energy(energy)
    if sv_ratio is not None:
        return TruncationRule.sv_ratio(sv_ratio)
    return None


def _load_record(cfg: RunConfig) -> tuple[SignalRecord, object | None]:
    if cfg.profile is not None:
        record, profile = generate_profile(cfg.profile, seed=cfg.seed, noise_std=cfg.noise_std)
    else:
        record = load_csv(
            cfg.input_path,
            IngestConfig(
                dt=cfg.dt,
                time_column=cfg.time_column,
                has_header=cfg.has_header,
                fill_policy=cfg.fill_policy,
            ),
        )
        profile = None
    if cfg.gap_length > 0:
        record = inject_gap(record, cfg.gap_start, cfg.gap_length)
    return record, profile


def _series_metrics(record: SignalRecord, channel: str, series: np.ndarray) -> dict:
    """Reconstruction error over covered, non-missing samples."""
    raw = record.channel(channel)
    mask = record.channel_mask(channel)
    cover = min(series.size, raw.size)
    ok = ~mask[:cover]
    used = int(np.sum(ok))
    if used == 0:
        return {"rmse": None, "signal_rms": None, "relative_rmse": None, "samples_used": 0}
    err = series[:cover][ok] - raw[:cover][ok]
    rmse = float(np.sqrt(np.mean(err**2)))
    rms = float(np.sqrt(np.mean(raw[:cover][ok] ** 2)))
    return {
        "rmse": _num(rmse),
        "signal_rms": _num(rms),
        "relative_rmse": _num(rmse / rms) if rms > 0 else None,
        "samples_used": used,
    }


def _mode_cells(r: ModeReport) -> list[str]:
    return [
        _fmt(r.eigenvalue.real),
        _fmt(r.eigenvalue.imag),
        _fmt(r.omega.real),
        _fmt(r.omega.imag),
        _fmt(r.frequency_hz),
        _fmt(r.growth_rate),
        r.damping_class or "",
        _fmt(r.amplitude_mag),
        _fmt(r.integral_contribution),
        "" if r.dominant_rank is None else str(r.dominant_rank),
        "1" if r.pair else "0",
    ]


_MODE_HEADER = [
    "lambda_re",
    "lambda_im",
    "omega_re",
    "omega_im",
    "frequency_hz",
    "growth_rate_per_s",
    "damping_class",
    "amplitude_mag",
    "integral_contribution",
    "dominant_rank",
    "pair",
]


def _write_rows(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _write_reconstruction(path: Path, record: SignalRecord, channel: str, series: np.ndarray) -> None:
    raw = record.channel(channel)
    cover = min(series.size, raw.size)
    rows = [
        [_fmt(record.t0 + k * record.dt), _fmt(float(raw[k])), _fmt(float(series[k]))]
        for k in range(cover)
    ]
    _write_rows(path, ["t", "measured", "reconstructed"], rows)


def _write_plan_csv(path: Path, mrdmd_plan: MrdmdPlan) -> None:
    rows = [
        [
            str(lv.level),
            str(lv.bins),
            _fmt(float(lv.bin_size)),
            _fmt(float(lv.bin_duration)),
            _fmt(float(lv.f_sp)),
            _fmt(float(lv.f_m)),
            _fmt(float(lv.f_slow_max)),
        ]
        for lv in mrdmd_plan.per_level
    ]
    _write_rows(
        path,
        ["level", "bins", "bin_size", "bin_duration_s", "f_sp_hz", "f_m_hz", "f_slow_max_hz"],
        rows,
    )


def _dominant_payload(cluster: ModeCluster | None, fallback: ModeReport | None) -> dict | None:
    if cluster is not None:
        r = cluster.best
        sustained = True
        size = len(cluster.members)
        agg = _num(cluster.aggregate_ic)
    elif fallback is not None:
        r = fallback
        sustained = False
        size = 1
        agg = _num(fallback.integral_contribution)
    else:
        return None
    return {
        "level": r.level,
        "bin": r.bin_index,
        "frequency_hz": _num(r.frequency_hz),
        "growth_rate_per_s": _num(r.growth_rate),
        "damping_class": r.damping_class,
        "amplitude_mag": _num(r.amplitude_mag),
        "integral_contribution": _num(r.integral_contribution),
        "cluster_size": size,
        "cluster_integral_contribution": agg,
        "eigenvalue": {"re": _num(r.eigenvalue.real), "im": _num(r.eigenvalue.imag)},
        "omega": {"re": _num(r.omega.real), "im": _num(r.omega.imag)},
        "sustained": sustained,
    }


def _stability_payload(reports: list[ModeReport], cluster: ModeCluster | None, eps_crit: float) -> dict:
    pool = [r for r in reports if r.slow is not False and r.frequency_hz > 0]
    counts = {
        "growing_modes": sum(r.damping_class == "growing" for r in pool),
        "critical_modes": sum(r.damping_class == "critical" for r in pool),
        "decaying_modes": sum(r.damping_class == "decaying" for r in pool),
    }
    if cluster is not None:
        verdict = "sustained-oscillation"
    elif pool:
        verdict = "no-sustained-oscillation"
    else:
        verdict = "no-oscillatory-modes"
    return {"verdict": verdict, "eps_crit": eps_crit, **counts}


def _source_payload(cfg: RunConfig, record: SignalRecord, channel: str) -> dict:
    gap = None
    if cfg.gap_length > 0:
        gap = {"start_index": cfg.gap_start, "length": cfg.gap_length}
    return {
        "kind": "profile" if cfg.profile else "file",
        "name": cfg.profile or str(cfg.input_path),
        "seed": cfg.seed if cfg.profile else None,
        "channel": channel,
        "length": record.length,
        "dt": record.dt,
        "t0": record.t0,
        "gap": gap,
    }


def _write_report(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _analyze_dmd_core(
    cfg: RunConfig, record: SignalRecord
) -> tuple[list[ModeReport], np.ndarray, DmdResult, int]:
    channel = cfg.channel or record.names[0]
    depth = cfg.stack_depth or default_stack_depth(record.length)
    snap = delay_embed(record, channel, depth)
    x1, x2 = shifted_pair(snap)
    rule = cfg.rule or DEFAULT_RULE
    result = dmd(x1, x2, rule, dt=record.dt)
    reports = classify(
        reports_from_dmd(result, f_sp=1.0 / record.dt, horizon_steps=x1.shape[1]),
        cfg.eps_crit,
    )
    series = reconstruct_series(result, snap.data.shape[1])
    return reports, series, result, depth


def _analyze_mrdmd_core(
    cfg: RunConfig, record: SignalRecord
) -> tuple[list[ModeReport], np.ndarray, MrdmdResult, MrdmdPlan, int]:
    channel = cfg.channel or record.names[0]
    depth = cfg.stack_depth or default_stack_depth(record.length)
    snap = delay_embed(record, channel, depth)
    if snap.data.shape[1] < 3:
        raise ValueError("record too short for the multi-resolution recursion")
    n_cols = snap.data.shape[1] - 1  # last column reserved for the shifted pair
    mrdmd_plan = plan(n_cols, record.dt, mu=cfg.mu, g=cfg.g, termination_level=cfg.termination_level)
    rule = cfg.rule or DEFAULT_BIN_RULE
    result = decompose(snap.data[:, :n_cols], mrdmd_plan, rule)
    reports = classify(list(result.all_modes), cfg.eps_crit)
    return reports, result.series, result, mrdmd_plan, depth


def run_dmd(cfg: RunConfig) -> int:
    """Single-window analysis; writes eigenvalues.csv, reconstruction.csv, report.json."""
    cfg.validate()
    record, _ = _load_record(cfg)
    channel = cfg.channel or record.names[0]
    reports, series, result, depth = _analyze_dmd_core(cfg, record)
    cluster = dominant_cluster(reports, cfg.eps_crit)
    rule = cfg.rule or DEFAULT_RULE

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.emit_eigenvalues:
        _write_rows(out / "eigenvalues.csv", _MODE_HEADER, [_mode_cells(r) for r in reports])
    _write_reconstruction(out / "reconstruction.csv", record, channel, series)
    if cfg.emit_report:
        payload = {
            "tool": {"name": "oscidmd", "version": __version__},
            "analysis": "dmd",
            "source": _source_payload(cfg, record, channel),
            "stacking": {"depth": depth, "rows": depth, "columns": record.length - depth + 1},
            "truncation": {"kind": rule.kind, "value": rule.value, "rank": result.rank,
                           "rank_clamped": result.rank_clamped},
            "dominant_mode": _dominant_payload(cluster, strongest_oscillatory(reports)),
            "stability": _stability_payload(reports, cluster, cfg.eps_crit),
            "reconstruction": _series_metrics(record, channel, series),
            "modes": {
                "reported": len(reports),
                "ranked": sum(r.dominant_rank is not None for r in reports),
            },
        }
        _write_report(out / "report.json", payload)
    return 0


def run_mrdmd(cfg: RunConfig) -> int:
    """Multi-resolution analysis; adds plan.csv, modes.csv and per-level series."""
    cfg.validate()
    record, _ = _load_record(cfg)
    channel = cfg.channel or record.names[0]
    reports, series, result, mrdmd_plan, depth = _analyze_mrdmd_core(cfg, record)
    cluster = dominant_cluster(reports, cfg.eps_crit)
    rule = cfg.rule or DEFAULT_BIN_RULE

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.emit_plan:
        _write_plan_csv(out / "plan.csv", mrdmd_plan)
    if cfg.emit_eigenvalues:
        rows = [
            [str(r.level), str(r.bin_index), "1" if r.slow else "0", *_mode_cells(r)]
            for r in reports
        ]
        _write_rows(out / "modes.csv", ["level", "bin", "slow", *_MODE_HEADER], rows)
    _write_reconstruction(out / "reconstruction.csv", record, channel, series)
    if cfg.emit_levels:
        t0, dt = record.t0, record.dt
        for l, level_series in enumerate(result.per_level_series, start=1):
            rows = [[_fmt(t0 + k * dt), _fmt(float(v))] for k, v in enumerate(level_series)]
            _write_rows(out / f"level_{l}.csv", ["t", "reconstructed"], rows)
    if cfg.emit_report:
        payload = {
            "tool": {"name": "oscidmd", "version": __version__},
            "analysis": "mrdmd",
            "source": _source_payload(cfg, record, channel),
            "stacking": {"depth": depth, "rows": depth, "columns": record.length - depth + 1},
            "truncation": {"kind": rule.kind, "value": rule.value},
            "plan": {
                "mu": mrdmd_plan.mu,
                "g": str(mrdmd_plan.g),
                "termination_level": mrdmd_plan.termination_level,
                "rho": mrdmd_plan.rho,
                "n": mrdmd_plan.n,
                "window_duration_s": float(mrdmd_plan.window_duration),
                "levels": [
                    {
                        "level": lv.level,
                        "bins": lv.bins,
                        "bin_size": float(lv.bin_size),
                        "bin_duration_s": float(lv.bin_duration),
                        "f_sp_hz": float(lv.f_sp),
                        "f_m_hz": float(lv.f_m),
                        "f_slow_max_hz": float(lv.f_slow_max),
                    }
                    for lv in mrdmd_plan.per_level
                ],
            },
            "dominant_mode": _dominant_payload(cluster, strongest_oscillatory(reports)),
            "stability": _stability_payload(reports, cluster, cfg.eps_crit),
            "reconstruction": _series_metrics(record, channel, series),
            "modes": {
                "reported": len(reports),
                "ranked": sum(r.dominant_rank is not None for r in reports),
            },
        }
        _write_report(out / "report.json", payload)
    return 0


def _method_payload(
    reports: list[ModeReport],
    series: np.ndarray,
    record: SignalRecord,
    channel: str,
    eps_crit: float,
    truth,
) -> dict:
    cluster = dominant_cluster(reports, eps_crit)
    best = cluster.best if cluster is not None else strongest_oscillatory(reports)
    metrics = _series_metrics(record, channel, series)
    payload = {
        "identified": best is not None,
        "sustained": cluster is not None,
        "frequency_hz": _num(best.frequency_hz) if best else None,
        "growth_rate_per_s": _num(best.growth_rate) if best else None,
        "frequency_error_hz": None,
        "growth_rate_error_per_s": None,
        "rmse": metrics["rmse"],
        "relative_rmse": metrics["relative_rmse"],
    }
    if best is not None and truth is not None:
        payload["frequency_error_hz"] = _num(abs(best.frequency_hz - truth.frequency_hz))
        payload["growth_rate_error_per_s"] = _num(abs(best.growth_rate - truth.growth_rate))
    return payload


def run_compare(cfg: RunConfig) -> int:
    """Run both methods on one (optionally gapped) generated dataset."""
    cfg.validate()
    if cfg.profile is None:
        raise ValueError("compare needs --profile (ground truth comes from the generator)")
    record, profile = _load_record(cfg)
    channel = cfg.channel or record.names[0]
    truth = profile.dominant_truth()

    # a method that cannot decompose the data at all (e.g. a gap wiped the
    # whole window) is reported as failed-to-identify, not a CLI error
    try:
        dmd_reports, dmd_series, _, _ = _analyze_dmd_core(cfg, record)
    except DecompositionError:
        dmd_reports, dmd_series = [], np.zeros(0)
    try:
        mr_reports, mr_series, _, _, _ = _analyze_mrdmd_core(cfg, record)
    except DecompositionError:
        mr_reports, mr_series = [], np.zeros(0)

    dmd_payload = _method_payload(dmd_reports, dmd_series, record, channel, cfg.eps_crit, truth)
    mr_payload = _method_payload(mr_reports, mr_series, record, channel, cfg.eps_crit, truth)
    ratio = None
    if dmd_payload["rmse"] is not None and mr_payload["rmse"] not in (None, 0.0):
        ratio = _num(dmd_payload["rmse"] / mr_payload["rmse"])

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "profile": cfg.profile,
        "seed": cfg.seed,
        "channel": channel,
        "gap": {"start_index": cfg.gap_start, "length": cfg.gap_length} if cfg.gap_length else None,
        "truth": {
            "frequency_hz": _num(truth.frequency_hz) if truth else None,
            "growth_rate_per_s": _num(truth.growth_rate) if truth else None,
        },
        "dmd": dmd_payload,
        "mrdmd": mr_payload,
        "rmse_ratio_dmd_over_mrdmd": ratio,
    }
    _write_report(out / "compare.json", payload)
    return 0


def _echo_error(exc: BaseException) -> None:
    line = json.dumps({"error": {"kind": type(exc).__name__, "message": str(exc)}})
    click.echo(line, err=True)


def _run_guarded(func, cfg: RunConfig) -> None:
    try:
        code = func(cfg)
    except ValueError as exc:
        _echo_error(exc)
        sys.exit(1)
    sys.exit(code)


# INI keys mirror the CLI flags; these flags bind to differently named params
_FLAG_PARAM_ALIASES = {
    "out": "out_dir",
    "stack": "stack_depth",
    "input": "input_path",
    "fill": "fill_policy",
}


def _config_default_map(path: str | None) -> dict:
    """Translate an INI config file into click's default map."""
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise click.UsageError(f"config file not found: {path}")
    sections = {}
    for section in parser.sections():
        entries = {}
        for key, value in parser.items(section):
            name = key.replace("-", "_")
            entries[_FLAG_PARAM_ALIASES.get(name, name)] = value
        sections[section] = entries
    return {
        "generate": sections.get("generate", {}),
        "analyze": {
            "dmd": sections.get("dmd", {}),
            "mrdmd": sections.get("mrdmd", {}),
            "compare": sections.get("compare", {}),
            "plan": sections.get("plan", {}),
        },
    }


@click.group(name="oscidmd")
@click.version_option(version=__version__)
@click.option(
    "--config",
    "config_path",
    type=click.Path(dir_okay=False),
    default=None,
    help="INI file with [dmd]/[mrdmd]/[compare]/[plan]/[generate] sections of flag defaults.",
)
@click.pass_context
def cli(ctx: click.Context, config_path: str | None) -> None:
    """Oscillation-mode identification and stability assessment."""
    ctx.default_map = _config_default_map(config_path)


def _source_options(func):
    opts = [
        click.option("--input", "input_path", type=click.Path(dir_okay=False), default=None,
                     help="CSV file to analyze."),
        click.option("--profile", type=str, default=None,
                     help=f"Synthetic profile instead of a file ({', '.join(sorted(PROFILES))})."),
        click.option("--seed", type=int, default=0, show_default=True, help="Generator seed."),
        click.option("--noise-std", type=float, default=None, help="Override profile noise level."),
        click.option("--channel", type=str, default=None, help="Channel name (default: first)."),
        click.option("--dt", type=float, default=None, help="Sample interval of the CSV in seconds."),
        click.option("--time-column", type=str, default=None,
                     help="Header name or 0-based index of the time column."),
        click.option("--no-header", "has_header", flag_value=False, default=True,
                     help="Treat the first CSV row as data."),
        click.option("--fill", "fill_policy", type=click.Choice(["zero", "hold"]), default="zero",
                     show_default=True, help="Missing-sample fill policy."),
        click.option("--gap-start", type=click.IntRange(min=0), default=None,
                     help="First sample index of an injected gap."),
        click.option("--gap-length", type=click.IntRange(min=0), default=0, show_default=True,
                     help="Injected gap length in samples."),
        click.option("--stack", "stack_depth", type=click.IntRange(min=1), default=None,
                     help="Delay-embedding depth (default: length/5)."),
        click.option("--rank", type=click.IntRange(min=1), default=None,
                     help="Fixed truncation rank."),
        click.option("--energy", type=float, default=None,
                     help="Energy-fraction truncation in (0, 1]."),
        click.option("--sv-ratio", type=float, default=None,
                     help="Singular-value ratio truncation in (0, 1)."),
        click.option("--eps-crit", type=float, default=DEFAULT_EPS_CRIT, show_default=True,
                     help="Growth-rate band (1/s) classed as critically damped."),
        click.option("--out", "out_dir", type=click.Path(file_okay=False), default="oscidmd-out",
                     show_default=True, help="Output directory."),
        click.option("--report/--no-report", "emit_report", default=True, show_default=True),
        click.option("--eigenvalues/--no-eigenvalues", "emit_eigenvalues", default=True,
                     show_default=True),
    ]
    for opt in reversed(opts):
        func = opt(func)
    return func


def _time_column_value(raw: str | None) -> str | int | None:
    if raw is None:
        return None
    return int(raw) if raw.lstrip("-").isdigit() else raw


@cli.group()
def analyze() -> None:
    """Run a decomposition pipeline on measured or generated data."""


@analyze.command("dmd")
@_source_options
def analyze_dmd(**kw) -> None:
    """Single-window decomposition of the whole record."""
    cfg = RunConfig(
        input_path=Path(kw["input_path"]) if kw["input_path"] else None,
        profile=kw["profile"],
        seed=kw["seed"],
        noise_std=kw["noise_std"],
        channel=kw["channel"],
        dt=kw["dt"],
        time_column=_time_column_value(kw["time_column"]),
        has_header=kw["has_header"],
        fill_policy=kw["fill_policy"],
        gap_start=kw["gap_start"],
        gap_length=kw["gap_length"],
        stack_depth=kw["stack_depth"],
        rule=_resolve_rule(kw["rank"], kw["energy"], kw["sv_ratio"]),
        eps_crit=kw["eps_crit"],
        out_dir=Path(kw["out_dir"]),
        emit_report=kw["emit_report"],
        emit_eigenvalues=kw["emit_eigenvalues"],
    )
    _run_guarded(run_dmd, cfg)


@analyze.command("mrdmd")
@_source_options
@click.option("--mu", type=click.IntRange(min=2), default=16, show_default=True,
              help="Subsample count per time bin.")
@click.option("--g", type=str, default="4", show_default=True,
              help="Slow-mode screening divisor (rational, > 1).")
@click.option("--termination-level", type=click.IntRange(min=1), default=None,
              help="Override the deepest recursion level.")
@click.option("--levels/--no-levels", "emit_levels", default=True, show_default=True,
              help="Emit per-level reconstruction CSVs.")
@click.option("--plan/--no-plan", "emit_plan", default=True, show_default=True,
              help="Emit the plan table CSV.")
def analyze_mrdmd(**kw) -> None:
    """Multi-resolution decomposition over dyadic time bins."""
    cfg = RunConfig(
        input_path=Path(kw["input_path"]) if kw["input_path"] else None,
        profile=kw["profile"],
        seed=kw["seed"],
        noise_std=kw["noise_std"],
        channel=kw["channel"],
        dt=kw["dt"],
        time_column=_time_column_value(kw["time_column"]),
        has_header=kw["has_header"],
        fill_policy=kw["fill_policy"],
        gap_start=kw["gap_start"],
        gap_length=kw["gap_length"],
        stack_depth=kw["stack_depth"],
        rule=_resolve_rule(kw["rank"], kw["energy"], kw["sv_ratio"]),
        mu=kw["mu"],
        g=kw["g"],
        termination_level=kw["termination_level"],
        eps_crit=kw["eps_crit"],
        out_dir=Path(kw["out_dir"]),
        emit_report=kw["emit_report"],
        emit_eigenvalues=kw["emit_eigenvalues"],
        emit_levels=kw["emit_levels"],
        emit_plan=kw["emit_plan"],
    )
    _run_guarded(run_mrdmd, cfg)


@analyze.command("compare")
@_source_options
@click.option("--mu", type=click.IntRange(min=2), default=16, show_default=True)
@click.option("--g", type=str, default="4", show_default=True)
@click.option("--termination-level", type=click.IntRange(min=1), default=None)
def analyze_compare(**kw) -> None:
    """Run DMD and MR-DMD on the same generated dataset and compare errors."""
    cfg = RunConfig(
        input_path=Path(kw["input_path"]) if kw["input_path"] else None,
        profile=kw["profile"],
        seed=kw["seed"],
        noise_std=kw["noise_std"],
        channel=kw["channel"],
        gap_start=kw["gap_start"],
        gap_length=kw["gap_length"],
        stack_depth=kw["stack_depth"],
        rule=_resolve_rule(kw["rank"], kw["energy"], kw["sv_ratio"]),
        mu=kw["mu"],
        g=kw["g"],
        termination_level=kw["termination_level"],
        eps_crit=kw["eps_crit"],
        out_dir=Path(kw["out_dir"]),
    )
    _run_guarded(run_compare, cfg)


@analyze.command("plan")
@click.option("--n", type=click.IntRange(min=2), required=True, help="Snapshot column count.")
@click.option("--dt", type=float, required=True, help="Sample interval in seconds.")
@click.option("--mu", type=click.IntRange(min=2), default=16, show_default=True)
@click.option("--g", type=str, default="4", show_default=True)
@click.option("--termination-level", type=click.IntRange(min=1), default=None)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
              help="Also write plan.csv into this directory.")
def analyze_plan(n, dt, mu, g, termination_level, out_dir) -> None:
    """Print (and optionally write) the per-level parameter table."""
    try:
        mrdmd_plan = plan(n, dt, mu=mu, g=g, termination_level=termination_level)
    except ValueError as exc:
        _echo_error(exc)
        sys.exit(1)
    click.echo(
        f"levels={mrdmd_plan.termination_level} rho={mrdmd_plan.rho:.12g} "
        f"window={float(mrdmd_plan.window_duration):.12g} s"
    )
    click.echo("level  bins  bin_size  bin_duration_s  f_sp_hz  f_m_hz  f_slow_max_hz")
    for lv in mrdmd_plan.per_level:
        click.echo(
            f"{lv.level:5d} {lv.bins:5d} {float(lv.bin_size):9.5g} {float(lv.bin_duration):15.8g} "
            f"{float(lv.f_sp):8.6g} {float(lv.f_m):7.5g} {float(lv.f_slow_max):13.7g}"
        )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_plan_csv(out / "plan.csv", mrdmd_plan)
    sys.exit(0)


@cli.command("generate")
@click.option("--profile", type=str, required=True,
              help=f"Profile name ({', '.join(sorted(PROFILES))}).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--noise-std", type=float, default=None)
@click.option("--gap-start", type=click.IntRange(min=0), default=None)
@click.option("--gap-length", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--output", "-o", type=click.Path(dir_okay=False), required=True,
              help="Destination CSV path.")
def generate_cmd(profile, seed, noise_std, gap_start, gap_length, output) -> None:
    """Write a synthetic dataset as an ingest-compatible CSV."""
    try:
        record, _ = generate_profile(profile, seed=seed, noise_std=noise_std)
        if gap_length > 0:
            if gap_start is None:
                raise ValueError("--gap-start is required when --gap-length is positive")
            record = inject_gap(record, gap_start, gap_length)
        Path(output).parent.mkdir(parents=True, exist_ok=True)
        write_csv(record, output)
    except ValueError as exc:
        _echo_error(exc)
        sys.exit(1)
    sys.exit(0)


def main() -> None:
    cli(auto_envvar_prefix="OSCIDMD")


if __name__ == "__main__":
    main()
