"""Experiment orchestration: named presets, single runs, parameter sweeps,
and report generation from game logs.

Every run persists three things next to each other: the event log
(``game.log``), the fully resolved flat config (``config.txt``, no defaults
left implicit), and a ``record.json`` with the log hash and summary. Reports
are CSV and markdown only. Report rows are labeled by a content-derived
experiment id, so re-running and re-analyzing the same configuration yields
byte-identical reports.
"""

from __future__ import annotations

import csv
import hashlib
import json
import multiprocessing
import signal
import threading
import time
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
# not used here, but perfbench's traced rounds rebind this name
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from .core import (AgentState, ConfigError, GameConfig, ROLE_CHOOSER, ROLE_PROVIDER,
                   VARIANT_SEXUAL_SELECTION, new_game)
from .engine import run_game
from .gamelog import MALFORMED_RECORD, GameLog, LogError
from .gateway import GatewayConfig
from .metrics import ACTION_TYPES, MetricsError, MetricsSummary, Summarizer, summarize
from .policy import LLMPolicy, Policy, PolicyMap, SCRIPTED_POLICIES, make_scripted


# --------------------------------------------------------------------------
# Presets


@dataclass(frozen=True)
class Preset:
    """A named experiment family: base config, default policies, and an
    optional default sweep axis."""

    name: str
    description: str
    config: GameConfig
    policy_assignment: str
    sweep: tuple[str, tuple[int, ...]] | None = None


PRESETS: dict[str, Preset] = {
    "P1": Preset(
        name="P1",
        description="Survival baseline: 9x9 grid, 16 agents, upkeep 2, seed 42.",
        config=GameConfig(seed=42),
        policy_assignment="scripted:greedy",
    ),
    "P2": Preset(
        name="P2",
        description="Broad pressure sweep at seed 7; node counts vary via overrides.",
        config=GameConfig(seed=7),
        policy_assignment="scripted:greedy",
        sweep=("upkeep", (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15)),
    ),
    "P2b": Preset(
        name="P2b",
        description="Controlled upkeep sweep: constant nodes (8 food regen 3, "
                    "5 token regen 2), 9x9 grid, 16 agents, seed 42, 60 turns.",
        config=GameConfig(seed=42),
        policy_assignment="scripted:greedy",
        sweep=("upkeep", (2, 4, 5, 6, 7)),
    ),
    "V7": Preset(
        name="V7",
        description="Sexual selection on a 7x7 grid: provider/chooser roles, "
                    "upkeep 2, 40 turns, seed 42.",
        config=GameConfig(grid_width=7, grid_height=7, upkeep=2, max_turns=40,
                          engine_variant=VARIANT_SEXUAL_SELECTION, seed=42),
        policy_assignment="byrole:provider=suitor,chooser=picky",
    ),
}


def resolve_preset(preset: "str | Preset | GameConfig") -> Preset:
    if isinstance(preset, Preset):
        return preset
    if isinstance(preset, GameConfig):
        return Preset(name="custom", description="ad-hoc configuration",
                      config=preset, policy_assignment="scripted:greedy")
    try:
        return PRESETS[str(preset)]
    except KeyError:
        raise ConfigError([f"unknown preset {preset!r}; "
                           f"choices: {', '.join(PRESETS)}"]) from None


# --------------------------------------------------------------------------
# Policy assignment strings


Rule = tuple[Callable[[AgentState], bool], str]  # (matches(agent), policy name)


def _id_matcher(selector: str) -> Callable[[AgentState], bool]:
    """Match ``*`` (every agent), one agent id, or an inclusive ``lo-hi`` range."""
    if selector == "*":
        return lambda agent: True
    lo_text, dash, hi_text = selector.partition("-")
    try:
        lo, hi = int(lo_text), int(hi_text if dash else lo_text)
    except ValueError:
        raise ConfigError([f"bad agent ids {selector!r}"]) from None
    if lo > hi:
        raise ConfigError([f"empty id range {selector!r}: {lo} > {hi}"])
    return lambda agent: lo <= agent.id <= hi


def _assignment_rules(assignment: str, config: GameConfig) -> list[Rule]:
    """An assignment string as its ordered rule list: ``llm`` and
    ``scripted:<name>`` are one ``*`` rule, ``byrole`` one rule per role,
    and ``mixed`` lists its rules as written."""
    form, _, body = assignment.partition(":")
    if assignment == "llm":
        return [(_id_matcher("*"), "llm")]
    if form == "scripted" and body and body != "llm":
        return [(_id_matcher("*"), body)]
    if form not in ("mixed", "byrole") or not body:
        raise ConfigError([
            f"bad policy assignment {assignment!r}; forms: llm | scripted:<name> | "
            "mixed:<ids=name,...> | byrole:provider=<name>,chooser=<name>"])
    pairs = []
    for part in body.split(","):
        selector, eq, name = (text.strip() for text in part.partition("="))
        if not (selector and eq and name):
            raise ConfigError([f"bad {form} rule {part!r}; expected <selector>=<name>"])
        pairs.append((selector, name))
    if form == "mixed":
        return [(_id_matcher(selector), name) for selector, name in pairs]
    if config.engine_variant != VARIANT_SEXUAL_SELECTION:
        raise ConfigError(["byrole assignment needs engine_variant=sexual_selection"])
    if sorted(role for role, _ in pairs) != [ROLE_CHOOSER, ROLE_PROVIDER]:
        raise ConfigError([f"bad byrole rules {body!r}; expected "
                           "provider=<name> and chooser=<name>, once each"])
    return [((lambda agent, role=role: agent.role == role), name) for role, name in pairs]


def build_policy_map(assignment: str, config: GameConfig,
                     gateway: GatewayConfig | None = None) -> PolicyMap:
    """Turn an assignment string into a PolicyMap.

    Forms::

        llm
        scripted:<name>
        mixed:<id|lo-hi|*>=<name>,...
        byrole:provider=<name>,chooser=<name>

    Each form is one ordered rule list: the first rule matching an agent
    names its policy, and an agent no rule matches plays ``rest``. ``llm`` is
    also accepted as a <name> inside mixed/byrole; all LLM agents share one
    policy instance so their prompts batch together, at most
    ``config.llm_concurrency`` in flight whatever ``gateway`` says.
    """
    rules = _assignment_rules(assignment, config)
    for _, name in rules:
        if name != "llm" and name not in SCRIPTED_POLICIES:
            raise ConfigError([f"unknown policy {name!r}; choices: "
                               f"llm, {', '.join(sorted(SCRIPTED_POLICIES))}"])
    llm: LLMPolicy | None = None
    if any(name == "llm" for _, name in rules):
        if gateway is None:
            raise ConfigError(["policy assignment uses 'llm' but no gateway is "
                               "configured (CLI: --endpoint and --model)"])
        llm = LLMPolicy(replace(gateway, max_concurrency=config.llm_concurrency))

    def factory(agent: AgentState) -> Policy:
        name = next((name for matches, name in rules if matches(agent)), "rest")
        return llm if name == "llm" else make_scripted(name, agent.id, config)

    return PolicyMap(factory)


# --------------------------------------------------------------------------
# Running experiments


@dataclass
class ExperimentRecord:
    experiment_id: str
    config: GameConfig
    log_sha256: str
    summary: MetricsSummary
    wall_seconds: float
    out_dir: Path | None = None
    log_path: Path | None = None


def config_digest(config: GameConfig) -> str:
    return hashlib.sha256(config.to_flat_text().encode("utf-8")).hexdigest()


def experiment_id_for(config: GameConfig) -> str:
    """Content-derived id: stable across reruns of the same configuration."""
    short = "v7" if config.engine_variant == VARIANT_SEXUAL_SELECTION else "sv"
    return f"{short}-u{config.upkeep}-s{config.seed}-{config_digest(config)[:8]}"


def resolve_config(preset: Preset, overrides: Mapping[str, Any],
                   seed: int | None) -> GameConfig:
    """The preset's config with ``overrides`` (and ``seed``, if given) merged
    in, read by ``GameConfig.parse``. Overrides that set another seed than
    ``seed`` are refused, as one of the two would be dropped."""
    values = {**preset.config.as_dict(), **overrides}
    if seed is not None:
        if "seed" in overrides and GameConfig.parse(values).seed != seed:
            raise ConfigError([f"overrides set seed={overrides['seed']} but seed={seed} "
                               "is also given (CLI: drop --set seed or --seed)"])
        values["seed"] = seed
    return GameConfig.parse(values)


def require_acknowledged(overrides: Mapping[str, Any], ack_overrides: bool) -> None:
    """Overrides of preset defaults count only when acknowledged."""
    if overrides and not ack_overrides:
        raise ConfigError([
            "overrides change preset defaults: " + ", ".join(sorted(overrides)),
            "re-run with ack_overrides=True (CLI: --ack-overrides) to confirm",
        ])


def _make_experiment_dir(root: Path, preset_name: str, exp_id: str) -> Path:
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    base = f"{preset_name}-{exp_id}-{stamp}"
    for attempt in range(1000):
        candidate = root / (base if attempt == 0 else f"{base}-{attempt}")
        try:
            candidate.mkdir(parents=True, exist_ok=False)
            return candidate
        except FileExistsError:
            continue
    raise RuntimeError(f"could not allocate an experiment directory under {root}")


def run_experiment(preset: "str | Preset | GameConfig",
                   overrides: Mapping[str, Any] | None = None, *,
                   seed: int | None = None,
                   policies: str | None = None,
                   out_dir: "str | Path | None" = None,
                   ack_overrides: bool = False,
                   gateway: GatewayConfig | None = None,
                   echo: Callable[[str], None] | None = None) -> ExperimentRecord:
    """Run one game to termination and persist its artifacts.

    Overriding preset defaults via ``overrides`` must be acknowledged with
    ``ack_overrides``; the resolved config is echoed before the first turn
    so silent defaults cannot slip into a result.
    """
    chosen = resolve_preset(preset)
    overrides = dict(overrides or {})
    require_acknowledged(overrides, ack_overrides)
    config = resolve_config(chosen, overrides, seed)
    assignment = policies if policies is not None else chosen.policy_assignment
    policy_map = build_policy_map(assignment, config, gateway)

    if echo is not None:
        echo(f"preset {chosen.name}: {chosen.description}")
        echo("resolved configuration:")
        for line in config.to_flat_text().splitlines():
            echo(f"  {line}")
        echo(f"policies: {assignment}")

    exp_id = experiment_id_for(config)
    started = time.perf_counter()
    state = new_game(config)
    summarizer = Summarizer()  # counts the game as it plays
    log = run_game(state, policy_map, sink=summarizer)
    wall = time.perf_counter() - started
    summary = summarizer.summary

    exp_dir: Path | None = None
    log_path: Path | None = None
    if out_dir is None:
        digest = log.sha256()
    else:
        exp_dir = _make_experiment_dir(Path(out_dir), chosen.name, exp_id)
        log_path = exp_dir / "game.log"
        digest = log.write(log_path)
        config.write(exp_dir / "config.txt")
        _write_summary_tables([summary_row(exp_id, config, summary)], exp_dir)
        record = {
            "experiment_id": exp_id,
            "preset": chosen.name,
            "policies": assignment,
            "log_sha256": digest,
            "wall_seconds": round(wall, 3),
            "config": config.as_dict(),
            "summary": summary.as_record(),
        }
        (exp_dir / "record.json").write_text(json.dumps(record, indent=2) + "\n",
                                             encoding="utf-8")

    if echo is not None:
        echo(f"{exp_id}: {summary.duration} turns, {summary.survivors} survivors, "
             f"{summary.trades_completed} trades, {summary.fallbacks} fallbacks, "
             f"{summary.policy_faults} policy faults, log sha256 {digest[:12]}")
        if exp_dir is not None:
            echo(f"artifacts in {exp_dir}")
    return ExperimentRecord(experiment_id=exp_id, config=config, log_sha256=digest,
                            summary=summary, wall_seconds=wall,
                            out_dir=exp_dir, log_path=log_path)


def sweep(preset: "str | Preset | GameConfig",
          parameter: str | None = None,
          values: Sequence[Any] | None = None, *,
          seed: int | None = None,
          policies: str | None = None,
          out_dir: "str | Path | None" = None,
          parallel: int = 1,
          gateway: GatewayConfig | None = None,
          echo: Callable[[str], None] | None = None) -> list[ExperimentRecord]:
    """Run one experiment per value of one config parameter.

    Runs are independent; failures are recorded and do not stop the sweep.
    With an output directory, the combined report tables are written there
    from the runs' summaries; no log is read back. A sweep over ``seed``
    takes no ``seed``, which would replace every swept value. A sweep over
    the preset's axis takes its values when given none.

    ``parallel`` (at least 1) games run at once. Above 1, they run in worker
    processes forked from this one (the ``fork`` start method; POSIX only),
    and the records come back to this process. Ctrl-C then cancels the games
    not yet started and waits for the running ones, which ignore it.
    """
    chosen = resolve_preset(preset)
    axis, axis_values = chosen.sweep or (None, None)
    if parameter is None:
        if axis is None:
            raise ConfigError([f"preset {chosen.name} has no default sweep; "
                               "pass a parameter and values"])
        parameter = axis
    if values is None and parameter == axis:
        values = axis_values
    if parameter not in GameConfig.FIELDS:
        raise ConfigError([f"unknown sweep parameter {parameter!r}"])
    if parameter == "seed" and seed is not None:
        raise ConfigError([f"a sweep over seed cannot also fix seed={seed} "
                           "(CLI: drop --seed)"])
    if parallel < 1:
        raise ConfigError([f"parallel must be >= 1, got {parallel}"])
    if values is None:
        raise ConfigError([f"sweep over {parameter!r} needs a value list"])
    values = list(values)
    if not values:
        warnings.warn("sweep value list is empty; nothing to run", stacklevel=2)
        return []

    play = partial(run_experiment, chosen, seed=seed, policies=policies, out_dir=out_dir,
                   ack_overrides=True, gateway=gateway)
    # workers ignore Ctrl-C, so a game that has started writes all its files
    pool = None if parallel == 1 else ProcessPoolExecutor(
        max_workers=min(parallel, len(values)),
        mp_context=multiprocessing.get_context("fork"),
        initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN))
    records: list[ExperimentRecord] = []
    failures: list[tuple[Any, str]] = []
    try:
        if pool is None:  # each game runs in this process when its result is asked for
            results = [partial(play, {parameter: value}) for value in values]
        else:
            # a game is handed over only once a worker is free, as shutting
            # down cannot cancel games already in the pool's queue
            slots = threading.Semaphore(parallel)
            results = []
            for value in values:
                slots.acquire()
                try:
                    future = pool.submit(play, {parameter: value})
                except BrokenProcessPool as exc:  # a worker died; the game fails
                    future = Future()
                    future.set_exception(exc)
                future.add_done_callback(lambda _: slots.release())
                results.append(future.result)
        for value, result in zip(values, results):
            try:
                records.append(result())
            except Exception as exc:
                failures.append((value, f"{type(exc).__name__}: {exc}"))
    finally:  # on Ctrl-C, queued games never start
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    for value, message in failures:
        warnings.warn(f"sweep run {parameter}={value} failed: {message}", stacklevel=2)

    if out_dir is not None:
        root = Path(out_dir)
        if records:
            _write_report([(r.experiment_id, r.config, r.summary) for r in records], root)
        if failures:
            lines = ["# Failed sweep runs", ""]
            lines += [f"- {parameter}={value}: {message}" for value, message in failures]
            (root / "failures.md").write_text("\n".join(lines) + "\n", encoding="utf-8")

    if echo is not None:
        rows = [summary_row(r.experiment_id, r.config, r.summary) for r in records]
        for line in render_summary_md(rows).splitlines():
            echo(line)
        for value, message in failures:
            echo(f"FAILED {parameter}={value}: {message}")
    return records


# --------------------------------------------------------------------------
# Reports


SUMMARY_COLUMNS = ("upkeep", "experiment", "trades", "attacks", "survivors",
                   "duration", "social_pct", "entropy", "total_actions",
                   "births", "reproductions", "communications", "fallbacks",
                   "policy_faults")


def summary_row(exp_id: str, config: GameConfig, summary: MetricsSummary) -> dict[str, str]:
    """One report row, pre-formatted so emitted bytes are deterministic."""
    return {
        "upkeep": str(config.upkeep),
        "experiment": exp_id,
        "trades": str(summary.trades_completed),
        "attacks": str(summary.attacks),
        "survivors": str(summary.survivors),
        "duration": str(summary.duration),
        "social_pct": f"{summary.social_action_pct:.1f}",
        "entropy": f"{summary.entropy_norm:.3f}",
        "total_actions": str(summary.total_actions),
        "births": str(summary.births),
        "reproductions": str(summary.action_counts.get("REPRODUCE", 0)),
        "communications": str(summary.action_counts.get("COMMUNICATE", 0)),
        "fallbacks": str(summary.fallbacks),
        "policy_faults": str(summary.policy_faults),
    }


def render_summary_md(rows: list[dict[str, str]]) -> str:
    """Markdown summary table with the peak trade count bolded. A table with
    no trades, or whose rows all tie, has no peak and bolds nothing."""
    out = ["| " + " | ".join(SUMMARY_COLUMNS) + " |",
           "| " + " | ".join("---" for _ in SUMMARY_COLUMNS) + " |"]
    trades = [int(r["trades"]) for r in rows]
    peak = max(trades, default=0)
    has_peak = peak > 0 and min(trades) < peak
    for row in rows:
        cells = []
        for column in SUMMARY_COLUMNS:
            value = row[column]
            if column == "trades" and has_peak and int(value) == peak:
                value = f"**{value}**"
            cells.append(value)
        out.append("| " + " | ".join(cells) + " |")
    return "\n".join(out) + "\n"


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> Path:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _write_summary_tables(rows: list[dict[str, str]], out: Path) -> tuple[Path, Path]:
    """``summary.csv`` and ``summary.md`` in ``out``, for one run or a report."""
    summary_csv = _write_csv(out / "summary.csv", SUMMARY_COLUMNS,
                             ([row[column] for column in SUMMARY_COLUMNS] for row in rows))
    summary_md = out / "summary.md"
    summary_md.write_text(render_summary_md(rows), encoding="utf-8")
    return summary_csv, summary_md


@dataclass
class AnalysisReport:
    summary_csv: Path
    summary_md: Path
    distribution_csv: Path
    curve_csv: Path
    perturn_csvs: list[Path]


def analyze(log_paths: Sequence["str | Path"], out_dir: "str | Path") -> AnalysisReport:
    """Build the report bundle for a set of game logs.

    Outputs: summary CSV/markdown (one row per log), an action-distribution
    table, the pressure curve CSV (upkeep, trades, duration), and a per-turn
    entropy CSV per log. Logs are read and summarized one at a time.
    """
    return _write_report([_summarize_file(path) for path in log_paths], out_dir)


def _summarize_file(path: "str | Path") -> tuple[str, GameConfig, MetricsSummary]:
    """Read and summarise one log; every error it raises names the file, and
    a log too malformed to read is a LogError, never a bare error."""
    try:
        log = GameLog.read(path)
        config = log.config()
        return experiment_id_for(config), config, summarize(log)
    except (LogError, MetricsError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    except MALFORMED_RECORD as exc:
        raise LogError(f"{path}: malformed log ({type(exc).__name__}: {exc})") from exc


def _write_report(games: Sequence[tuple[str, GameConfig, MetricsSummary]],
                  out_dir: "str | Path") -> AnalysisReport:
    """Write the report bundle for per-game (label, config, summary) rows; a
    repeated label gets a ``-2``, ``-3``, ... suffix."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    labeled: list[tuple[str, GameConfig, MetricsSummary]] = []
    seen: dict[str, int] = {}
    for label, config, summary in games:
        seen[label] = seen.get(label, 0) + 1
        if seen[label] > 1:
            label = f"{label}-{seen[label]}"
        labeled.append((label, config, summary))

    rows = [summary_row(label, config, summary) for label, config, summary in labeled]
    summary_csv, summary_md = _write_summary_tables(rows, out)

    # one column per game; one row per action type that occurred in any game
    summaries = [summary for _, _, summary in labeled]
    present = [name for name in ACTION_TYPES
               if any(name in summary.action_counts for summary in summaries)]
    distribution = [[name] + [f"{summary.action_distribution.get(name, 0.0):.1f}"
                              for summary in summaries] for name in present]
    distribution.append(["total_actions"] + [str(summary.total_actions) for summary in summaries])
    distribution_csv = _write_csv(out / "action_distribution.csv",
                                  ["action"] + [label for label, _, _ in labeled], distribution)
    curve_csv = _write_csv(out / "curve.csv", ["upkeep", "trades", "duration"],
                           [[config.upkeep, summary.trades_completed, summary.duration]
                            for _, config, summary in labeled])
    perturn_csvs = [_write_csv(out / f"perturn_{label}.csv", ["turn", "entropy", "alive"],
                               [[turn, f"{entropy:.4f}", alive]
                                for turn, entropy, alive in summary.per_turn])
                    for label, _, summary in labeled]

    return AnalysisReport(summary_csv=summary_csv, summary_md=summary_md,
                          distribution_csv=distribution_csv, curve_csv=curve_csv,
                          perturn_csvs=perturn_csvs)
