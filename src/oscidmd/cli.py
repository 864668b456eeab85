"""Command-line front end: pipeline orchestration and artifact emission.

Subcommands mirror the library pipeline: ``generate`` writes synthetic
CSV datasets, ``analyze dmd`` runs a single-window decomposition,
``analyze mrdmd`` the multi-resolution recursion, ``analyze plan`` only
the parameter planner, and ``analyze compare`` both methods side by side
against generator ground truth.

Every float CSV cell is byte-equal to ``'%.16e' % x`` (17 significant
digits), so identical configuration and seed yield byte-identical files.
CSV files are written in blocks of rows whose cells ``csvtext`` formats at
once: series files fill together, 4096 rows at a time, sharing each
block's time cells; the mode table goes 64 rows at a time. ``csvtext`` is
imported by the first CSV write, not with this module, so ``--version``
and ``--help`` do not build its tables. Module rejections exit nonzero
after printing a single JSON error line on stderr.
"""

from __future__ import annotations

import configparser
import json
import sys
from collections.abc import Iterable, Iterator
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from pathlib import Path

import click
import numpy as np

from . import __version__
from .dmd import DEFAULT_RULE, DecompositionError, DmdResult, TruncationRule, dmd, reconstruct_series
from .ingest import FILL_ZERO, IngestConfig, SignalRecord, inject_gap, load_csv, write_csv
from .modes import (
    DAMPING_CLASSES,
    DEFAULT_EPS_CRIT,
    ModeCluster,
    ModeReport,
    ModeTable,
    classify,
    dominant_cluster,
    mode_table,
    reports_from_dmd,
)
from .mrdmd import DEFAULT_BIN_RULE, MrdmdPlan, MrdmdResult, decompose, plan
from .siggen import PROFILES, generate_profile
from .stacking import delay_embed

# Unused here, but bench/spans.py wraps these names on this module by getattr.
from .dmd import reconstruct_window  # noqa: F401
from .stacking import unembed  # noqa: F401


def _num(x) -> float | None:
    x = float(x)
    return x if np.isfinite(x) else None


@dataclass
class RunConfig:
    """Validated pipeline configuration assembled from CLI flags."""

    input_path: Path | None = None
    profile: str | None = None
    seed: int | None = None
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
        if self.gap_length == 0 and self.gap_start is not None:
            raise ValueError("--gap-start needs a positive --gap-length")
        if not np.isfinite(self.eps_crit) or self.eps_crit < 0:
            raise ValueError(f"--eps-crit must be finite and non-negative, got {self.eps_crit!r}")
        if self.stack_depth is not None and self.stack_depth < 1:
            raise ValueError("--stack must be at least 1")
        # a flag that cannot apply to the chosen source is an error, not ignored
        if self.profile is not None:
            for flag, given in (
                ("--dt", self.dt is not None),
                ("--time-column", self.time_column is not None),
                ("--no-header", not self.has_header),
            ):
                if given:
                    raise ValueError(f"{flag} applies to --input only, not to --profile")
            if self.seed is None:
                self.seed = 0
        else:
            for flag, given in (
                ("--noise-std", self.noise_std is not None),
                ("--seed", self.seed is not None),
            ):
                if given:
                    raise ValueError(f"{flag} applies to --profile only, not to --input")


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
        # the fill policy decides what an injected gap holds
        record = replace(record, fill_policy=cfg.fill_policy)
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
# Rows per block. A block's cells and row bytes are the writer's working
# memory: about 0.2 KB per series row and 1 KB per mode row (14 cells), so
# about 1 MB for a series block and 64 KB for a mode block.
_SERIES_BLOCK = 4096
_MODE_BLOCK = 64


def _mode_blocks(table: ModeTable, tagged: bool) -> Iterator[bytes]:
    """A classified table's rows (the _MODE_HEADER columns), one block of _MODE_BLOCK rows at a time.

    ``tagged`` leads each row with level, bin and slow flag (_MODE_TAGS).
    """
    from . import csvtext

    classes = csvtext.text([*DAMPING_CLASSES, ""])  # code -1, an unclassified row, is blank
    for start in range(0, len(table), _MODE_BLOCK):
        rows = slice(start, start + _MODE_BLOCK)
        lam, omega = table.eigenvalue[rows], table.omega[rows]
        cells = csvtext.floats(np.stack([lam.real, lam.imag, omega.real, omega.imag, table.frequency_hz[rows],
                                         table.growth_rate[rows], table.amplitude_mag[rows],
                                         table.integral_contribution[rows]], axis=1))
        # the integer cells, each run of them one text cell (their strings are not kept)
        ranks, pairs = table.dominant_rank[rows].tolist(), table.pair[rows].tolist()
        groups = [cells[:, :6], classes[table.damping_class[rows]], cells[:, 6:],
                  csvtext.text([f"{'' if r < 0 else r},{p:d}" for r, p in zip(ranks, pairs)])]
        if tagged:
            slow = [False] * len(ranks) if table.slow is None else table.slow[rows].tolist()
            groups.insert(0, csvtext.text([f"{level},{bin_index},{s:d}" for level, bin_index, s in zip(
                table.level[rows].tolist(), table.bin_index[rows].tolist(), slow)]))
        yield csvtext.rows(groups)
        # not held while the next block's cells are made
        del cells, groups


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


def _header(header: list[str]) -> bytes:
    return (",".join(header) + "\n").encode()


def _write_table(path: Path, header: list[str], blocks: Iterable[bytes]) -> None:
    """Write a header row and then each block of rows as it comes."""
    with open(path, "wb") as fh:
        fh.write(_header(header))
        fh.writelines(blocks)


def _write_plan_csv(path: Path, levels: list[dict]) -> None:
    from . import csvtext

    columns = [[row[col] for row in levels] for _, col, _ in _PLAN_FIELDS]
    cells = [csvtext.text([str(v) for v in c]) if all(isinstance(v, int) for v in c) else csvtext.floats(c)
             for c in columns]
    _write_table(path, [col for _, col, _ in _PLAN_FIELDS], [csvtext.rows(cells)])


def _write_series(out: Path, record: SignalRecord, count: int,
                  files: dict[str, tuple[list[str], tuple[np.ndarray, ...]]]) -> None:
    """Write series files ``{name: (header, columns)}``, rows k < count: t0 + k * dt, then the columns.

    The files fill together, one block of _SERIES_BLOCK rows at a time, so
    each block's time cells are formatted once, for every file.
    """
    from . import csvtext

    with ExitStack() as stack:
        handles = [(stack.enter_context(open(out / name, "wb")), header, columns)
                   for name, (header, columns) in files.items()]
        for fh, header, _ in handles:
            fh.write(_header(header))
        for start in range(0, count, _SERIES_BLOCK):
            stop = min(start + _SERIES_BLOCK, count)
            times = csvtext.floats(record.t0 + np.arange(start, stop) * record.dt)
            for fh, _, columns in handles:
                cells = csvtext.floats(np.stack([c[start:stop] for c in columns], axis=1))
                fh.write(csvtext.rows([times, cells]))


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
        "cluster_size": cluster.indices.size if sustained else 1,
        "cluster_integral_contribution": _num(aggregate),
        "eigenvalue": {"re": _num(r.eigenvalue.real), "im": _num(r.eigenvalue.imag)},
        "omega": {"re": _num(r.omega.real), "im": _num(r.omega.imag)},
        "sustained": sustained,
    }


def _stability_payload(reports: ModeTable, cluster: ModeCluster | None, eps_crit: float) -> dict:
    pool_classes = reports.damping_class[reports.dominant_rank > 0]
    counts = {f"{c}_modes": int(np.count_nonzero(pool_classes == code)) for code, c in enumerate(DAMPING_CLASSES)}
    if cluster is not None:
        verdict = "sustained-oscillation"
    elif pool_classes.size:
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
        "seed": cfg.seed,
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


def _truncation_payload(rule: TruncationRule, fit: DmdResult | None = None) -> dict:
    """The ``truncation`` block of report.json and compare.json: the rule, and a single-window fit's rank."""
    payload = {"kind": rule.kind, "value": rule.value}
    if fit is not None:
        payload.update(rank=fit.rank, rank_clamped=fit.rank_clamped)
    return payload


def _assessment(cfg: RunConfig, record: SignalRecord, reports: ModeTable, series: np.ndarray) -> dict:
    """report.json's ``dominant_mode`` (the dominant sustained cluster's best member, else the rank-1 row,
    the strongest oscillatory mode), ``stability`` and ``reconstruction`` blocks, which compare.json also reads."""
    cluster = dominant_cluster(reports)
    top = np.flatnonzero(reports.dominant_rank == 1)
    best = cluster.best if cluster is not None else reports[int(top[0])] if top.size else None
    return {
        "dominant_mode": _dominant_payload(cluster, best),
        "stability": _stability_payload(reports, cluster, cfg.eps_crit),
        "reconstruction": _series_metrics(record, cfg.channel or record.names[0], series),
    }


def _write_run(
    cfg: RunConfig, record: SignalRecord, reports: ModeTable, series: np.ndarray,
    report: dict, tagged: bool = False, levels: tuple[np.ndarray, ...] = (),
) -> Path:
    """Write the artifacts every analysis shares plus its extras; returns the output directory.

    ``report`` holds the analysis core's report.json blocks, to which :func:`_assessment` adds the verdict.
    ``tagged`` names the mode table modes.csv and leads each row with level, bin and slow flag.
    Each of ``levels`` becomes a level_<l>.csv series.
    """
    channel = cfg.channel or record.names[0]
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.emit_eigenvalues:
        header = _MODE_TAGS + _MODE_HEADER if tagged else _MODE_HEADER
        path = out / ("modes.csv" if tagged else "eigenvalues.csv")
        _write_table(path, header, _mode_blocks(reports, tagged))
    files = {"reconstruction.csv": (["t", "measured", "reconstructed"], (record.channel(channel), series))}
    for l, level_series in enumerate(levels, start=1):
        files[f"level_{l}.csv"] = (["t", "reconstructed"], (level_series,))
    _write_series(out, record, min(series.size, record.length), files)
    if cfg.emit_report:
        payload = {
            **report,
            **_assessment(cfg, record, reports, series),
            "tool": {"name": "oscidmd", "version": __version__},
            "source": _source_payload(cfg, record, channel),
            "modes": {
                "reported": len(reports),
                "ranked": int(np.count_nonzero(reports.dominant_rank > 0)),
            },
        }
        _write_report(out / "report.json", payload)
    return out


def _embed(cfg: RunConfig, record: SignalRecord) -> tuple[np.ndarray, dict]:
    """The configured channel (default: the first) delay-embedded at the configured depth, and its stacking block."""
    hankel = delay_embed(record, cfg.channel or record.names[0], cfg.stack_depth)
    depth, columns = hankel.shape
    return hankel, {"depth": depth, "rows": depth, "columns": columns}


def _analyze_dmd_core(cfg: RunConfig, record: SignalRecord) -> tuple[ModeTable, np.ndarray, DmdResult, dict]:
    """Single-window fit: the classified modes, the series, the fit and its report.json blocks."""
    hankel, stacking = _embed(cfg, record)
    rule = cfg.rule or DEFAULT_RULE
    result = dmd(hankel, rule)
    reports = classify(
        reports_from_dmd(result, f_sp=1.0 / record.dt, horizon_steps=hankel.shape[1] - 1),
        cfg.eps_crit,
    )
    series = reconstruct_series(result, hankel.shape[1])
    report = {"analysis": "dmd", "stacking": stacking, "truncation": _truncation_payload(rule, result)}
    return reports, series, result, report


def _analyze_mrdmd_core(cfg: RunConfig, record: SignalRecord) -> tuple[ModeTable, np.ndarray, MrdmdResult, dict]:
    """Multi-resolution fit: the classified modes, the series, the result and its report.json blocks."""
    hankel, stacking = _embed(cfg, record)
    # No bin reads the last column: each fits its own mu subsample columns. It
    # is still dropped because plan.n = columns - 1 is what every MR-DMD
    # output, the README example (hankel[:, :4000]) and the bench assume.
    n_cols = hankel.shape[1] - 1
    mrdmd_plan = plan(n_cols, record.dt, mu=cfg.mu, g=cfg.g, termination_level=cfg.termination_level)
    rule = cfg.rule or DEFAULT_BIN_RULE
    result = decompose(hankel[:, :n_cols], mrdmd_plan, rule)
    reports = classify(result.all_modes, cfg.eps_crit)
    report = {
        "analysis": "mrdmd",
        "stacking": stacking,
        "truncation": _truncation_payload(rule),
        "plan": {
            "mu": mrdmd_plan.mu,
            "g": str(mrdmd_plan.g),
            "termination_level": mrdmd_plan.termination_level,
            "rho": mrdmd_plan.rho,
            "n": mrdmd_plan.n,
            "window_duration_s": float(mrdmd_plan.window_duration),
            "levels": _plan_levels(mrdmd_plan),
        },
    }
    return reports, result.series, result, report


def run_dmd(cfg: RunConfig) -> int:
    """Single-window analysis; writes eigenvalues.csv, reconstruction.csv, report.json."""
    cfg.validate()
    record, _ = _load_record(cfg)
    reports, series, _, report = _analyze_dmd_core(cfg, record)
    _write_run(cfg, record, reports, series, report)
    return 0


def run_mrdmd(cfg: RunConfig) -> int:
    """Multi-resolution analysis; adds plan.csv, modes.csv and per-level series."""
    cfg.validate()
    record, _ = _load_record(cfg)
    reports, series, result, report = _analyze_mrdmd_core(cfg, record)
    level_series = result.per_level_series if cfg.emit_levels else ()
    out = _write_run(cfg, record, reports, series, report, tagged=True, levels=level_series)
    if cfg.emit_plan:
        _write_plan_csv(out / "plan.csv", report["plan"]["levels"])
    return 0


def _method_payload(report: dict, truth) -> dict:
    """One method's block of compare.json: fields of its report.json blocks, plus the errors against ``truth``."""
    dominant = report["dominant_mode"] or {}
    freq, growth = dominant.get("frequency_hz"), dominant.get("growth_rate_per_s")
    known = truth is not None
    return {
        "identified": bool(dominant),
        "sustained": dominant.get("sustained", False),
        "frequency_hz": freq,
        "growth_rate_per_s": growth,
        "frequency_error_hz": _num(abs(freq - truth.frequency_hz)) if known and freq is not None else None,
        "growth_rate_error_per_s": _num(abs(growth - truth.growth_rate)) if known and growth is not None else None,
        "rmse": report["reconstruction"]["rmse"],
        "relative_rmse": report["reconstruction"]["relative_rmse"],
        "truncation": report["truncation"],
    }


def run_compare(cfg: RunConfig) -> int:
    """Run both methods on one (optionally gapped) generated dataset."""
    cfg.validate()
    if cfg.profile is None:
        raise ValueError("compare needs --profile (ground truth comes from the generator)")
    record, profile = _load_record(cfg)
    channel = cfg.channel or record.names[0]
    truth = profile.dominant_truth()

    methods = {}
    for name, core, rule in (("dmd", _analyze_dmd_core, DEFAULT_RULE),
                             ("mrdmd", _analyze_mrdmd_core, DEFAULT_BIN_RULE)):
        # a method that cannot decompose the data at all (e.g. a gap wiped the
        # whole window) is reported as failed-to-identify, not a CLI error;
        # with no fit, its truncation block names the rule alone
        try:
            reports, series, _, report = core(cfg, record)
        except DecompositionError:
            reports, series = classify(mode_table([], [], 1, [], []), cfg.eps_crit), np.zeros(0)  # no modes
            report = {"truncation": _truncation_payload(cfg.rule or rule)}
        methods[name] = _method_payload({**report, **_assessment(cfg, record, reports, series)}, truth)
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
    click.option("--seed", type=int, default=None, help="Generator seed (--profile only; default 0)."),
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
