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
from collections.abc import Iterable, Iterator
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
    retained_oscillatory,
    strongest_oscillatory,
)
from .mrdmd import DEFAULT_BIN_RULE, MrdmdPlan, MrdmdResult, decompose, plan
from .siggen import PROFILES, generate_profile
from .stacking import delay_embed, shifted_pair

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
        if self.gap_length < 0:
            raise ValueError("--gap-length must be non-negative")
        if self.gap_length > 0 and self.gap_start is None:
            raise ValueError("--gap-start is required when --gap-length is positive")
        if not np.isfinite(self.eps_crit) or self.eps_crit < 0:
            raise ValueError(f"--eps-crit must be finite and non-negative, got {self.eps_crit!r}")
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


def _run_config(
    rank=None, energy=None, sv_ratio=None, input_path=None, time_column=None, **fields
) -> RunConfig:
    """The one flags-to-config mapping: every other click parameter names a RunConfig field."""
    return RunConfig(
        input_path=Path(input_path) if input_path else None,
        time_column=_time_column_value(time_column),
        rule=_resolve_rule(rank, energy, sv_ratio),
        **fields,
    )


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
_MODE_TAGS = ["level", "bin", "slow"]

# One row of the mode table: the _MODE_HEADER columns, each number as _fmt writes it.
_MODE_ROW = "%.16e,%.16e,%.16e,%.16e,%.16e,%.16e,%s,%.16e,%.16e,%s,%s\n"


def _mode_lines(reports: list[ModeReport], tagged: bool) -> Iterator[str]:
    """The mode table's rows, formatted one at a time as they are written.

    ``tagged`` leads each row with level, bin and slow flag (_MODE_TAGS).
    """
    row = "%s,%s,%s," + _MODE_ROW if tagged else _MODE_ROW
    for r in reports:
        tags = (r.level, r.bin_index, "1" if r.slow else "0") if tagged else ()
        yield row % (
            *tags,
            r.eigenvalue.real,
            r.eigenvalue.imag,
            r.omega.real,
            r.omega.imag,
            r.frequency_hz,
            r.growth_rate,
            r.damping_class or "",
            r.amplitude_mag,
            r.integral_contribution,
            "" if r.dominant_rank is None else r.dominant_rank,
            "1" if r.pair else "0",
        )


# (LevelParams attribute, plan.csv and report.json column, `analyze plan` format)
_PLAN_FIELDS = (
    ("level", "level", "5d"),
    ("bins", "bins", "5d"),
    ("bin_size", "bin_size", "9.5g"),
    ("bin_duration", "bin_duration_s", "15.8g"),
    ("f_sp", "f_sp_hz", "8.6g"),
    ("f_m", "f_m_hz", "7.5g"),
    ("f_slow_max", "f_slow_max_hz", "13.7g"),
)


def _plan_levels(mrdmd_plan: MrdmdPlan) -> list[dict]:
    """The plan table, one row per level: counts stay ints, exact fractions become floats."""
    rows = [{col: getattr(lv, attr) for attr, col, _ in _PLAN_FIELDS} for lv in mrdmd_plan.per_level]
    return [{col: v if isinstance(v, int) else float(v) for col, v in row.items()} for row in rows]


def _write_lines(path: Path, header: list[str], lines: Iterable[str]) -> None:
    """Write a header row and then each of ``lines`` (newline-terminated) as it comes."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


def _write_plan_csv(path: Path, levels: list[dict]) -> None:
    cells = ([str(v) if isinstance(v, int) else _fmt(v) for v in row.values()] for row in levels)
    _write_lines(path, [col for _, col, _ in _PLAN_FIELDS], (",".join(row) + "\n" for row in cells))


def _time_cells(record: SignalRecord, count: int) -> list[str]:
    """Formatted sample times t0 + k * dt for k < count, shared by every series file."""
    t0, dt = record.t0, record.dt
    return [_fmt(t0 + k * dt) for k in range(count)]


def _series_lines(times: list[str], *columns: np.ndarray) -> Iterator[str]:
    """A series file's rows, one per time cell: the cell, then each column's value as _fmt writes it."""
    row = "%s" + ",%.16e" * len(columns) + "\n"
    return (row % cells for cells in zip(times, *columns))


def _dominant(reports: list[ModeReport], eps_crit: float) -> tuple[ModeCluster | None, ModeReport | None]:
    """The dominant sustained cluster and the dominant mode: its best member, else the strongest."""
    cluster = dominant_cluster(reports, eps_crit)
    return cluster, cluster.best if cluster is not None else strongest_oscillatory(reports)


def _dominant_payload(cluster: ModeCluster | None, r: ModeReport | None) -> dict | None:
    if r is None:
        return None
    sustained = cluster is not None
    aggregate = cluster.aggregate_ic if sustained else r.integral_contribution
    return {
        "level": r.level,
        "bin": r.bin_index,
        "frequency_hz": _num(r.frequency_hz),
        "growth_rate_per_s": _num(r.growth_rate),
        "damping_class": r.damping_class,
        "amplitude_mag": _num(r.amplitude_mag),
        "integral_contribution": _num(r.integral_contribution),
        "cluster_size": len(cluster.members) if sustained else 1,
        "cluster_integral_contribution": _num(aggregate),
        "eigenvalue": {"re": _num(r.eigenvalue.real), "im": _num(r.eigenvalue.imag)},
        "omega": {"re": _num(r.omega.real), "im": _num(r.omega.imag)},
        "sustained": sustained,
    }


def _stability_payload(reports: list[ModeReport], cluster: ModeCluster | None, eps_crit: float) -> dict:
    pool = [r for r in reports if retained_oscillatory(r)]
    classes = ("growing", "critical", "decaying")
    counts = {f"{c}_modes": sum(r.damping_class == c for r in pool) for c in classes}
    if cluster is not None:
        verdict = "sustained-oscillation"
    elif pool:
        verdict = "no-sustained-oscillation"
    else:
        verdict = "no-oscillatory-modes"
    return {"verdict": verdict, "eps_crit": eps_crit, **counts}


def _gap_payload(cfg: RunConfig) -> dict | None:
    return {"start_index": cfg.gap_start, "length": cfg.gap_length} if cfg.gap_length > 0 else None


def _source_payload(cfg: RunConfig, record: SignalRecord, channel: str) -> dict:
    return {
        "kind": "profile" if cfg.profile else "file",
        "name": cfg.profile or str(cfg.input_path),
        "seed": cfg.seed if cfg.profile else None,
        "channel": channel,
        "length": record.length,
        "dt": record.dt,
        "t0": record.t0,
        "gap": _gap_payload(cfg),
    }


def _write_report(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_run(
    cfg: RunConfig, record: SignalRecord, depth: int, rule: TruncationRule, reports: list[ModeReport],
    series: np.ndarray, report: dict, tagged: bool = False, levels: tuple[np.ndarray, ...] = (),
) -> Path:
    """Write the artifacts every analysis shares plus its extras; returns the output directory.

    ``report`` adds report.json keys; its ``truncation`` joins the rule's kind and value.
    ``tagged`` names the mode table modes.csv and leads each row with level, bin and slow flag.
    Each of ``levels`` becomes a level_<l>.csv series.
    """
    channel = cfg.channel or record.names[0]
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.emit_eigenvalues:
        header = _MODE_TAGS + _MODE_HEADER if tagged else _MODE_HEADER
        path = out / ("modes.csv" if tagged else "eigenvalues.csv")
        _write_lines(path, header, _mode_lines(reports, tagged))
    times = _time_cells(record, min(series.size, record.length))
    _write_lines(out / "reconstruction.csv", ["t", "measured", "reconstructed"],
                 _series_lines(times, record.channel(channel), series))
    for l, level_series in enumerate(levels, start=1):
        _write_lines(out / f"level_{l}.csv", ["t", "reconstructed"], _series_lines(times, level_series))
    if cfg.emit_report:
        cluster, best = _dominant(reports, cfg.eps_crit)
        payload = {
            **report,
            "tool": {"name": "oscidmd", "version": __version__},
            "source": _source_payload(cfg, record, channel),
            "stacking": {"depth": depth, "rows": depth, "columns": record.length - depth + 1},
            "truncation": {"kind": rule.kind, "value": rule.value, **report.get("truncation", {})},
            "dominant_mode": _dominant_payload(cluster, best),
            "stability": _stability_payload(reports, cluster, cfg.eps_crit),
            "reconstruction": _series_metrics(record, channel, series),
            "modes": {
                "reported": len(reports),
                "ranked": sum(r.dominant_rank is not None for r in reports),
            },
        }
        _write_report(out / "report.json", payload)
    return out


def _embed(cfg: RunConfig, record: SignalRecord) -> np.ndarray:
    """Delay-embed the configured channel (default: the first) at the configured depth."""
    return delay_embed(record, cfg.channel or record.names[0], cfg.stack_depth)


def _analyze_dmd_core(
    cfg: RunConfig, record: SignalRecord
) -> tuple[list[ModeReport], np.ndarray, DmdResult, int]:
    hankel = _embed(cfg, record)
    x1, x2 = shifted_pair(hankel)
    result = dmd(x1, x2, cfg.rule or DEFAULT_RULE, dt=record.dt)
    reports = classify(
        reports_from_dmd(result, f_sp=1.0 / record.dt, horizon_steps=x1.shape[1]),
        cfg.eps_crit,
    )
    series = reconstruct_series(result, hankel.shape[1])
    return reports, series, result, hankel.shape[0]


def _analyze_mrdmd_core(
    cfg: RunConfig, record: SignalRecord
) -> tuple[list[ModeReport], np.ndarray, MrdmdResult, MrdmdPlan, int]:
    hankel = _embed(cfg, record)
    if hankel.shape[1] < 3:
        raise ValueError("record too short for the multi-resolution recursion")
    n_cols = hankel.shape[1] - 1  # last column reserved for the shifted pair
    mrdmd_plan = plan(n_cols, record.dt, mu=cfg.mu, g=cfg.g, termination_level=cfg.termination_level)
    result = decompose(hankel[:, :n_cols], mrdmd_plan, cfg.rule or DEFAULT_BIN_RULE)
    reports = classify(list(result.all_modes), cfg.eps_crit)
    return reports, result.series, result, mrdmd_plan, hankel.shape[0]


def run_dmd(cfg: RunConfig) -> int:
    """Single-window analysis; writes eigenvalues.csv, reconstruction.csv, report.json."""
    cfg.validate()
    record, _ = _load_record(cfg)
    reports, series, result, depth = _analyze_dmd_core(cfg, record)
    report = {"analysis": "dmd", "truncation": {"rank": result.rank, "rank_clamped": result.rank_clamped}}
    _write_run(cfg, record, depth, cfg.rule or DEFAULT_RULE, reports, series, report)
    return 0


def run_mrdmd(cfg: RunConfig) -> int:
    """Multi-resolution analysis; adds plan.csv, modes.csv and per-level series."""
    cfg.validate()
    record, _ = _load_record(cfg)
    reports, series, result, mrdmd_plan, depth = _analyze_mrdmd_core(cfg, record)
    levels = _plan_levels(mrdmd_plan)
    report = {
        "analysis": "mrdmd",
        "plan": {
            "mu": mrdmd_plan.mu,
            "g": str(mrdmd_plan.g),
            "termination_level": mrdmd_plan.termination_level,
            "rho": mrdmd_plan.rho,
            "n": mrdmd_plan.n,
            "window_duration_s": float(mrdmd_plan.window_duration),
            "levels": levels,
        },
    }
    level_series = result.per_level_series if cfg.emit_levels else ()
    rule = cfg.rule or DEFAULT_BIN_RULE
    out = _write_run(cfg, record, depth, rule, reports, series, report, tagged=True, levels=level_series)
    if cfg.emit_plan:
        _write_plan_csv(out / "plan.csv", levels)
    return 0


def _method_payload(
    reports: list[ModeReport],
    series: np.ndarray,
    record: SignalRecord,
    channel: str,
    eps_crit: float,
    truth,
) -> dict:
    cluster, best = _dominant(reports, eps_crit)
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

    methods = {}
    for name, core in (("dmd", _analyze_dmd_core), ("mrdmd", _analyze_mrdmd_core)):
        # a method that cannot decompose the data at all (e.g. a gap wiped the
        # whole window) is reported as failed-to-identify, not a CLI error
        try:
            reports, series, *_ = core(cfg, record)
        except DecompositionError:
            reports, series = [], np.zeros(0)
        methods[name] = _method_payload(reports, series, record, channel, cfg.eps_crit, truth)
    ratio = None
    if methods["dmd"]["rmse"] is not None and methods["mrdmd"]["rmse"] not in (None, 0.0):
        ratio = _num(methods["dmd"]["rmse"] / methods["mrdmd"]["rmse"])

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "profile": cfg.profile,
        "seed": cfg.seed,
        "channel": channel,
        "gap": _gap_payload(cfg),
        "truth": {
            "frequency_hz": _num(truth.frequency_hz) if truth else None,
            "growth_rate_per_s": _num(truth.growth_rate) if truth else None,
        },
        **methods,
        "rmse_ratio_dmd_over_mrdmd": ratio,
    }
    _write_report(out / "compare.json", payload)
    return 0


def _guarded(call) -> None:
    """Exit with call()'s code; a ValueError exits 1 after one JSON error line on stderr."""
    try:
        code = call()
    except ValueError as exc:
        click.echo(json.dumps({"error": {"kind": type(exc).__name__, "message": str(exc)}}), err=True)
        sys.exit(1)
    sys.exit(code)


def _run_guarded(func, params: dict) -> None:
    """Build the RunConfig from a command's click parameters and run ``func`` on it, guarded."""
    _guarded(lambda: func(_run_config(**params)))


def _ini_keys(command: click.Command) -> dict[str, tuple[str, bool | None]]:
    """INI key ('-' read as '_') -> (parameter name, value a true switch key sets, else None).

    Keys are the command's long flags and parameter names. A switch key is
    true when its flag is given: ``no-levels = true`` means ``--no-levels``.
    """
    keys: dict[str, tuple[str, bool | None]] = {}
    for param in command.params:
        keys[param.name] = (param.name, None)
        flag = isinstance(param, click.Option) and param.is_bool_flag
        for opts, primary in ((param.opts, True), (param.secondary_opts, False)):
            value = (param.flag_value if primary else not param.flag_value) if flag else None
            for opt in opts:
                if opt.startswith("--"):
                    keys[opt[2:].replace("-", "_")] = (param.name, value)
    return keys


def _config_default_map(path: str | None) -> dict:
    """Translate an INI config file into click's default map; unknown sections and keys exit 2."""
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise click.UsageError(f"config file not found: {path}")
    commands = {"generate": generate_cmd, **analyze.commands}
    sections = {}
    for section in parser.sections():
        if section not in commands:
            raise click.UsageError(f"unknown section [{section}] in {path}; known: {', '.join(commands)}")
        keys, entries = _ini_keys(commands[section]), {}
        for key, value in parser.items(section):
            name, when_true = keys.get(key.replace("-", "_"), (None, None))
            if name is None:
                raise click.UsageError(f"unknown key {key!r} in [{section}] of {path}")
            if when_true is not None:
                if value.lower() not in parser.BOOLEAN_STATES:
                    raise click.UsageError(f"key {key!r} in [{section}] of {path} takes true or false")
                value = when_true if parser.BOOLEAN_STATES[value.lower()] else not when_true
            entries[name] = value
        sections[section] = entries
    return {"generate": sections.pop("generate", {}), "analyze": sections}


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


def _options(*opts):
    """One decorator applying click options in the order listed."""
    def apply(func):
        for opt in reversed(opts):
            func = opt(func)
        return func
    return apply


_source_options = _options(
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
    click.option("--out", "out_dir", type=click.Path(file_okay=False, path_type=Path),
                 default="oscidmd-out", show_default=True, help="Output directory."),
)

_emit_options = _options(
    click.option("--report/--no-report", "emit_report", default=True, show_default=True),
    click.option("--eigenvalues/--no-eigenvalues", "emit_eigenvalues", default=True,
                 show_default=True),
)

_plan_options = _options(
    click.option("--mu", type=click.IntRange(min=2), default=16, show_default=True,
                 help="Subsample count per time bin."),
    click.option("--g", type=str, default="4", show_default=True,
                 help="Slow-mode screening divisor (rational, > 1)."),
    click.option("--termination-level", type=click.IntRange(min=1), default=None,
                 help="Override the deepest recursion level."),
)


def _time_column_value(raw: str | None) -> str | int | None:
    if raw is None:
        return None
    return int(raw) if raw.lstrip("-").isdigit() else raw


@cli.group()
def analyze() -> None:
    """Run a decomposition pipeline on measured or generated data."""


@analyze.command("dmd")
@_source_options
@_emit_options
def analyze_dmd(**kw) -> None:
    """Single-window decomposition of the whole record."""
    _run_guarded(run_dmd, kw)


@analyze.command("mrdmd")
@_source_options
@_emit_options
@_plan_options
@click.option("--levels/--no-levels", "emit_levels", default=True, show_default=True,
              help="Emit per-level reconstruction CSVs.")
@click.option("--plan/--no-plan", "emit_plan", default=True, show_default=True,
              help="Emit the plan table CSV.")
def analyze_mrdmd(**kw) -> None:
    """Multi-resolution decomposition over dyadic time bins."""
    _run_guarded(run_mrdmd, kw)


@analyze.command("compare")
@_source_options
@_plan_options
def analyze_compare(**kw) -> None:
    """Run DMD and MR-DMD on the same generated dataset and compare errors."""
    _run_guarded(run_compare, kw)


@analyze.command("plan")
@click.option("--n", type=click.IntRange(min=2), required=True, help="Snapshot column count.")
@click.option("--dt", type=float, required=True, help="Sample interval in seconds.")
@_plan_options
@click.option("--out", "out_dir", type=click.Path(file_okay=False, path_type=Path), default=None,
              help="Also write plan.csv into this directory.")
def analyze_plan(n, dt, mu, g, termination_level, out_dir) -> None:
    """Print (and optionally write) the per-level parameter table."""

    def show() -> int:
        mrdmd_plan = plan(n, dt, mu=mu, g=g, termination_level=termination_level)
        levels = _plan_levels(mrdmd_plan)
        click.echo(
            f"levels={mrdmd_plan.termination_level} rho={mrdmd_plan.rho:.12g} "
            f"window={float(mrdmd_plan.window_duration):.12g} s"
        )
        click.echo("  ".join(col for _, col, _ in _PLAN_FIELDS))
        for row in levels:
            click.echo(" ".join(format(row[col], spec) for _, col, spec in _PLAN_FIELDS))
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            _write_plan_csv(out_dir / "plan.csv", levels)
        return 0

    _guarded(show)


@cli.command("generate")
@click.option("--profile", type=str, required=True,
              help=f"Profile name ({', '.join(sorted(PROFILES))}).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--noise-std", type=float, default=None)
@click.option("--gap-start", type=click.IntRange(min=0), default=None)
@click.option("--gap-length", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--output", "-o", type=click.Path(dir_okay=False), required=True,
              help="Destination CSV path.")
def generate_cmd(output, **kw) -> None:
    """Write a synthetic dataset as an ingest-compatible CSV."""

    def write(cfg: RunConfig) -> int:
        cfg.validate()
        record, _ = _load_record(cfg)
        Path(output).parent.mkdir(parents=True, exist_ok=True)
        write_csv(record, output)
        return 0

    _run_guarded(write, kw)


def main() -> None:
    cli(auto_envvar_prefix="OSCIDMD")


if __name__ == "__main__":
    main()
