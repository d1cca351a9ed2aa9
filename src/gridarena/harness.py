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
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from .core import ConfigError, GameConfig, VARIANT_SEXUAL_SELECTION, new_game
from .engine import run_game
from .gamelog import GameLog
from .gateway import GatewayConfig
from .metrics import (
    ACTION_TYPES,
    MetricsSummary,
    per_turn_entropy,
    summarize,
)
from .policy import LLMPolicy, PolicyMap, SCRIPTED_POLICIES, make_scripted


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


def build_policy_map(assignment: str, config: GameConfig,
                     gateway: GatewayConfig | None = None) -> PolicyMap:
    """Turn an assignment string into a PolicyMap.

    Forms::

        llm
        scripted:<name>
        mixed:<id|lo-hi|*>=<name>,...      first matching rule wins, else rest
        byrole:provider=<name>,chooser=<name>

    ``llm`` is also accepted as a <name> inside mixed/byrole; all LLM agents
    share one policy instance so their prompts batch together.
    """
    shared_llm: list[LLMPolicy] = []

    def llm_policy() -> LLMPolicy:
        if gateway is None:
            raise ConfigError(["policy assignment uses 'llm' but no gateway is "
                               "configured (CLI: --endpoint and --model)"])
        if not shared_llm:
            shared_llm.append(LLMPolicy(gateway))
        return shared_llm[0]

    def check_name(name: str) -> str:
        if name != "llm" and name not in SCRIPTED_POLICIES:
            raise ConfigError([f"unknown policy {name!r}; choices: "
                               f"llm, {', '.join(sorted(SCRIPTED_POLICIES))}"])
        if name == "llm":
            llm_policy()  # fail fast when no gateway is configured
        return name

    def resolve(name: str, agent) -> Any:
        if name == "llm":
            return llm_policy()
        return make_scripted(name, agent.id, config)

    kind, _, rest = assignment.partition(":")

    if assignment == "llm":
        llm_policy()
        return PolicyMap(lambda agent: llm_policy())

    if kind == "scripted" and rest:
        check_name(rest)
        if rest == "llm":
            raise ConfigError(["'scripted:llm' is not a thing; use 'llm'"])
        return PolicyMap(lambda agent: resolve(rest, agent))

    if kind == "mixed" and rest:
        rules: list[tuple[int | None, int | None, str]] = []
        for part in rest.split(","):
            selector, eq, name = part.partition("=")
            selector, name = selector.strip(), name.strip()
            if not eq or not name:
                raise ConfigError([f"bad mixed rule {part!r}; expected <ids>=<name>"])
            check_name(name)
            if selector == "*":
                rules.append((None, None, name))
            elif "-" in selector:
                lo_text, _, hi_text = selector.partition("-")
                try:
                    lo, hi = int(lo_text), int(hi_text)
                except ValueError:
                    raise ConfigError([f"bad id range {selector!r}"]) from None
                rules.append((lo, hi, name))
            else:
                try:
                    only = int(selector)
                except ValueError:
                    raise ConfigError([f"bad agent id {selector!r}"]) from None
                rules.append((only, only, name))

        def mixed_factory(agent):
            for lo, hi, name in rules:
                if lo is None or lo <= agent.id <= hi:
                    return resolve(name, agent)
            return make_scripted("rest", agent.id, config)

        return PolicyMap(mixed_factory)

    if kind == "byrole" and rest:
        if config.engine_variant != VARIANT_SEXUAL_SELECTION:
            raise ConfigError(["byrole assignment needs engine_variant=sexual_selection"])
        by_role: dict[str, str] = {}
        for part in rest.split(","):
            role, eq, name = part.partition("=")
            role, name = role.strip(), name.strip()
            if role not in ("provider", "chooser") or not eq or not name:
                raise ConfigError([f"bad byrole rule {part!r}; expected "
                                   "provider=<name> or chooser=<name>"])
            by_role[role] = check_name(name)
        missing = [r for r in ("provider", "chooser") if r not in by_role]
        if missing:
            raise ConfigError([f"byrole assignment missing {', '.join(missing)}"])

        def role_factory(agent):
            name = by_role.get(agent.role)
            if name is None:
                return make_scripted("rest", agent.id, config)
            return resolve(name, agent)

        return PolicyMap(role_factory)

    raise ConfigError([
        f"bad policy assignment {assignment!r}; forms: llm | scripted:<name> | "
        "mixed:<ids=name,...> | byrole:provider=<name>,chooser=<name>"])


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
    unknown = sorted(set(overrides) - set(GameConfig.FIELDS))
    if unknown:
        raise ConfigError([f"unknown config key {key!r}" for key in unknown])
    values: dict[str, Any] = {}
    problems = []
    for key, value in overrides.items():
        if key == "engine_variant":
            values[key] = str(value)
        else:
            try:
                values[key] = int(value)
            except (TypeError, ValueError):
                problems.append(f"{key} must be an integer, got {value!r}")
    if problems:
        raise ConfigError(problems)
    if seed is not None:
        values["seed"] = int(seed)
    return replace(preset.config, **values).validate()


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
    if overrides and not ack_overrides:
        raise ConfigError([
            "overrides change preset defaults: " + ", ".join(sorted(overrides)),
            "re-run with ack_overrides=True (CLI: --ack-overrides) to confirm",
        ])
    config = resolve_config(chosen, overrides, seed)
    if gateway is not None:
        gateway = replace(gateway, max_concurrency=config.llm_concurrency)
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
    log = run_game(state, policy_map)
    wall = time.perf_counter() - started
    summary = summarize(log)
    digest = log.sha256()

    exp_dir: Path | None = None
    log_path: Path | None = None
    if out_dir is not None:
        exp_dir = _make_experiment_dir(Path(out_dir), chosen.name, exp_id)
        log_path = exp_dir / "game.log"
        log.write(log_path)
        config.write(exp_dir / "config.txt")
        row = summary_row(exp_id, config, summary)
        write_summary_csv([row], exp_dir / "summary.csv")
        write_summary_md([row], exp_dir / "summary.md")
        record = {
            "experiment_id": exp_id,
            "preset": chosen.name,
            "policies": assignment,
            "log_sha256": digest,
            "wall_seconds": round(wall, 3),
            "config": {name: getattr(config, name) for name in GameConfig.FIELDS},
            "summary": {
                "trades_completed": summary.trades_completed,
                "attacks": summary.attacks,
                "survivors": summary.survivors,
                "duration": summary.duration,
                "social_action_pct": summary.social_action_pct,
                "entropy_norm": summary.entropy_norm,
                "total_actions": summary.total_actions,
                "births": summary.births,
                "action_counts": summary.action_counts,
            },
        }
        (exp_dir / "record.json").write_text(json.dumps(record, indent=2) + "\n",
                                             encoding="utf-8")

    if echo is not None:
        echo(f"{exp_id}: {summary.duration} turns, {summary.survivors} survivors, "
             f"{summary.trades_completed} trades, log sha256 {digest[:12]}")
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
    via ``analyze``.
    """
    chosen = resolve_preset(preset)
    if parameter is None:
        if chosen.sweep is None:
            raise ConfigError([f"preset {chosen.name} has no default sweep; "
                               "pass a parameter and values"])
        parameter = chosen.sweep[0]
        if values is None:
            values = chosen.sweep[1]
    if parameter not in GameConfig.FIELDS:
        raise ConfigError([f"unknown sweep parameter {parameter!r}"])
    if values is None:
        raise ConfigError([f"sweep over {parameter!r} needs a value list"])
    values = list(values)
    if not values:
        warnings.warn("sweep value list is empty; nothing to run", stacklevel=2)
        return []

    def one(value: Any) -> ExperimentRecord:
        return run_experiment(chosen, {parameter: value}, seed=seed,
                              policies=policies, out_dir=out_dir,
                              ack_overrides=True, gateway=gateway)

    records: list[ExperimentRecord] = []
    failures: list[tuple[Any, str]] = []
    if parallel > 1:
        with ThreadPoolExecutor(max_workers=parallel) as pool:
            futures = [(value, pool.submit(one, value)) for value in values]
            for value, future in futures:
                try:
                    records.append(future.result())
                except Exception as exc:
                    failures.append((value, f"{type(exc).__name__}: {exc}"))
    else:
        for value in values:
            try:
                records.append(one(value))
            except Exception as exc:
                failures.append((value, f"{type(exc).__name__}: {exc}"))

    for value, message in failures:
        warnings.warn(f"sweep run {parameter}={value} failed: {message}", stacklevel=2)

    if out_dir is not None:
        root = Path(out_dir)
        if records:
            analyze([r.log_path for r in records], root)
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
                   "births", "reproductions", "communications")


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
    }


def write_summary_csv(rows: list[dict[str, str]], path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def render_summary_md(rows: list[dict[str, str]]) -> str:
    """Markdown summary table with the peak trade count bolded."""
    out = ["| " + " | ".join(SUMMARY_COLUMNS) + " |",
           "| " + " | ".join("---" for _ in SUMMARY_COLUMNS) + " |"]
    max_trades = max((int(r["trades"]) for r in rows), default=0)
    for row in rows:
        cells = []
        for column in SUMMARY_COLUMNS:
            value = row[column]
            if column == "trades" and rows and int(value) == max_trades and len(rows) > 1:
                value = f"**{value}**"
            cells.append(value)
        out.append("| " + " | ".join(cells) + " |")
    return "\n".join(out) + "\n"


def write_summary_md(rows: list[dict[str, str]], path: Path) -> None:
    path.write_text(render_summary_md(rows), encoding="utf-8")


def write_distribution_csv(entries: list[tuple[str, MetricsSummary]], path: Path) -> None:
    """Action-distribution table: one column per experiment, one row per
    action type that occurred anywhere, plus a total_actions row."""
    present = [name for name in ACTION_TYPES
               if any(name in s.action_counts for _, s in entries)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["action"] + [label for label, _ in entries])
        for name in present:
            writer.writerow([name] + [f"{s.action_distribution.get(name, 0.0):.1f}"
                                      for _, s in entries])
        writer.writerow(["total_actions"] + [str(s.total_actions) for _, s in entries])


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
    entropy CSV per log.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    labeled: list[tuple[str, GameConfig, GameLog, MetricsSummary]] = []
    seen: dict[str, int] = {}
    for path in log_paths:
        log = GameLog.read(path)
        config = log.config()
        label = experiment_id_for(config)
        seen[label] = seen.get(label, 0) + 1
        if seen[label] > 1:
            label = f"{label}-{seen[label]}"
        labeled.append((label, config, log, summarize(log)))

    rows = [summary_row(label, config, summary)
            for label, config, _, summary in labeled]
    summary_csv = out / "summary.csv"
    summary_md = out / "summary.md"
    write_summary_csv(rows, summary_csv)
    write_summary_md(rows, summary_md)

    distribution_csv = out / "action_distribution.csv"
    write_distribution_csv([(label, summary) for label, _, _, summary in labeled],
                           distribution_csv)

    curve_csv = out / "curve.csv"
    with open(curve_csv, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["upkeep", "trades", "duration"])
        for _, config, _, summary in labeled:
            writer.writerow([config.upkeep, summary.trades_completed, summary.duration])

    perturn_csvs = []
    for label, _, log, _ in labeled:
        path = out / f"perturn_{label}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["turn", "entropy", "alive"])
            for turn, entropy, alive in per_turn_entropy(log):
                writer.writerow([turn, f"{entropy:.4f}", alive])
        perturn_csvs.append(path)

    return AnalysisReport(summary_csv=summary_csv, summary_md=summary_md,
                          distribution_csv=distribution_csv, curve_csv=curve_csv,
                          perturn_csvs=perturn_csvs)
