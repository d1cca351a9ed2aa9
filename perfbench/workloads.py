"""The four workloads, each a closed loop of rounds run by one process.

A round is the workload's unit of repeated work: a set-up part, timed on its
own, then a timed part. Rounds repeat until ``seconds`` of wall time have
passed (at least one round runs). Output checks run after the loop, so they
take no time from the measurement:

* every log produced is verified with ``gamelog.replay`` (once per distinct
  sha256, since equal bytes replay equally);
* the sha256 of each written log file equals the hash the run reported;
* every game is deterministic: repeats of one seed within a run, and runs of
  the same program in the same checkout (via a cache file keyed by a digest
  of the package source), give the same log hash;
* no log holds a policy fault or a parse fallback, sweep runs all finish,
  and every report bundle covers every log it was given.

Each failed check is one entry in ``Run.failures``; nothing is dropped.

Every timed interval is kept as (start, seconds). For the CPU-bound
workloads it is converted to nominal seconds at the end (see ``speed``); the
reference loop runs at round boundaries and between turns or logs, and its
own time is left out of any interval it falls in. ``llm`` spends about half
of its time waiting on the stub's fixed hold, which does not scale with
machine speed, so it converts only the rest of each interval (see
``run_llm``).

In a traced run, rounds come in pairs that play the same game seed, one
round traced and one untraced, so the tracing overhead compares the same
games, played on the same machine at about the same time. The pairs run
traced-first and untraced-first in turn (traced, untraced, untraced, traced,
...), so a steady drift over the run biases neither side.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import shutil
import statistics
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from gridarena import core, engine, gamelog, gateway, harness, mating, metrics, policy
from gridarena import actions as actions_mod
from gridarena.core import GameConfig
from gridarena.gateway import GatewayConfig

import spans
from speed import Speed
from stub import HOLD_MS, StubProcess

STUB_KEY_ENV = "PERFBENCH_STUB_KEY"


@dataclass(frozen=True)
class Sizes:
    """Every size a workload depends on. ``FULL`` is the benchmark; ``TINY``
    exists so the self-tests can run each workload in about a second."""

    sweep_values: tuple[int, ...]          # upkeep values of one P2 sweep
    sweep_seeds: int                       # distinct game seeds per run
    crowd: dict[str, Any]                  # GameConfig fields of the crowd game
    crowd_seeds: int
    llm: dict[str, Any]                    # GameConfig fields of the llm game
    llm_seeds: int
    llm_setups: int                        # extra set-ups before the rounds
    verify_sweeps: int                     # sweep-style seed sets in the corpus
    verify_generations: int                # corpus set-ups per run (median taken)


CROWD_POLICIES = "mixed:0-35=aggressor,36-71=trader,72-107=walker,*=greedy"

FULL = Sizes(
    sweep_values=harness.PRESETS["P2"].sweep[1],
    sweep_seeds=15,
    crowd=dict(grid_width=24, grid_height=24, n_food_nodes=44, n_token_nodes=22,
               n_agents=144, upkeep=1, max_turns=150),
    crowd_seeds=6,
    llm=dict(grid_width=9, grid_height=9, n_agents=16, upkeep=1, max_turns=120,
             llm_concurrency=2),
    llm_seeds=2,
    llm_setups=15,
    verify_sweeps=2,
    verify_generations=3,
)

TINY = Sizes(
    sweep_values=(3, 15),
    sweep_seeds=1,
    crowd=dict(grid_width=10, grid_height=10, n_food_nodes=6, n_token_nodes=3,
               n_agents=16, upkeep=1, max_turns=8),
    crowd_seeds=1,
    llm=dict(grid_width=9, grid_height=9, n_agents=6, upkeep=1, max_turns=4,
             llm_concurrency=2),
    llm_seeds=1,
    llm_setups=1,
    verify_sweeps=1,
    verify_generations=2,
)


# --------------------------------------------------------------------------
# Run state

# A measured interval: (perf_counter at its start, seconds).
Interval = tuple[float, float]


@dataclass
class Round:
    games: int
    actions: int
    parts: list[Interval]      # the timed parts; the round's time is their sum
    traced: bool


@dataclass
class Run:
    """Everything one invocation measures; ``run.py`` turns it into metrics."""

    workload: str
    seed: int
    seconds: float
    work: Path
    sizes: Sizes = FULL
    tracer: spans.Tracer | None = None
    speed: Speed | None = None        # None: report seconds as measured
    setup: list[Interval] = field(default_factory=list)
    latency: list[Interval] = field(default_factory=list)
    latency_op: str = ""
    rounds: list[Round] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    # name -> (value, unit, samples): workload-specific figures for the report
    extra: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    # stub counters over traced rounds
    stub: dict[str, int] = field(default_factory=lambda: {
        "requests": 0, "connections": 0, "inflight_max": 0})

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def nominal(self, interval: Interval) -> float:
        return interval[1] if self.speed is None else self.speed.nominal(*interval)

    def sample_speed(self, unless_recent: bool = False) -> None:
        if self.speed is not None:
            if unless_recent:
                self.speed.maybe_sample()
            else:
                self.speed.sample()

    def round_seconds(self, round_: Round) -> float:
        return sum(self.nominal(part) for part in round_.parts)


def game_seeds(run: Run, count: int) -> list[int]:
    rng = random.Random(f"{run.workload}:{run.seed}")
    return [rng.randrange(1, 2 ** 31) for _ in range(count)]


def round_seed(run: Run, seeds: list[int], index: int) -> int:
    """The game seed of round ``index``. A traced run plays each seed twice
    in a row, once traced and once untraced, so both kinds of round play the
    same games."""
    return seeds[(index // 2 if run.tracer is not None else index) % len(seeds)]


def rounds(run: Run) -> Iterator[tuple[int, bool]]:
    """Yield (round index, traced) until the run's wall time is used up."""
    started = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - started < run.seconds:
        run.sample_speed()
        yield index, run.tracer is not None and index % 4 in (0, 3)
        index += 1
    run.sample_speed()


def since(started: float) -> Interval:
    return (started, time.perf_counter() - started)


@contextlib.contextmanager
def tracing(run: Run, traced: bool) -> Iterator[None]:
    if not traced:
        yield
        return
    rebinder = install(run.tracer)
    try:
        yield
    finally:
        rebinder.restore()


@contextlib.contextmanager
def latency_timer(module: Any, attr: str, samples: list[Interval],
                  before: Callable[[], None] | None = None) -> Iterator[None]:
    rebinder = spans.Rebinder()
    rebinder.function(module, attr, spans.timer(samples, before))
    try:
        yield
    finally:
        rebinder.restore()


def turn_timer(run: Run, turns: list[Interval],
               traced: bool = False) -> contextlib.AbstractContextManager:
    """Times each ``engine.step`` that ``engine.run_game`` makes into
    ``turns``, sampling the machine speed before each turn. In a traced round
    the sampling is a span of its own, ``perfbench.speed``, so that its time
    is not counted as ``engine.run_game``'s self time."""
    before = None
    if run.speed is not None:
        before = run.speed.maybe_sample
        if traced:
            before = run.tracer.wrapper("perfbench.speed")(before)
    return latency_timer(engine, "step", turns, before)


def nominal_median(run: Run, intervals: list[Interval]) -> float:
    return statistics.median(run.nominal(i) for i in intervals)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


# --------------------------------------------------------------------------
# Traced functions


def _count_outcome(tracer: spans.Tracer, args: tuple, outcome: str) -> None:
    tracer.count("engine.resolved")
    if outcome in (engine.OUTCOME_OK, engine.OUTCOME_ACCEPTED):
        tracer.count("engine.useful")


def _count_decisions(tracer: spans.Tracer, args: tuple, results: dict) -> None:
    tracer.count("policy.decisions", len(results))
    tracer.count("policy.fallbacks", sum(
        1 for d in results.values() if getattr(d, "parse_status", "ok") == "fallback"))


def _count_birth(tracer: spans.Tracer, args: tuple, result: tuple) -> None:
    if result[0] == "accepted":
        tracer.count("mating.births")


def _count_bytes(tracer: spans.Tracer, args: tuple, result: None) -> None:
    tracer.count("gamelog.bytes", os.path.getsize(args[1]))


def _count_events(tracer: spans.Tracer, args: tuple, result: Any) -> None:
    tracer.count("gamelog.replay.events", result.events)


# (span name, owner, attribute, observer); a class owner means a method.
TRACED: tuple[tuple[str, Any, str, Callable | None], ...] = (
    ("core.new_game", core, "new_game", None),
    ("engine.run_game", engine, "run_game", None),
    ("engine.step", engine, "step", None),
    ("engine.observe", engine, "observe", None),
    ("engine.resolve_action", engine, "resolve_action", _count_outcome),
    ("policy.decide_all", policy.PolicyMap, "decide_all", _count_decisions),
    ("policy.build_prompt", policy, "build_prompt", None),
    ("actions.parse_action", actions_mod, "parse_action", None),
    ("gateway.complete", gateway, "complete", None),
    ("gateway.batch_complete", gateway, "batch_complete", None),
    ("mating.resolve_reproduce", mating, "resolve_reproduce", _count_birth),
    ("gamelog.to_text", gamelog.GameLog, "to_text", None),
    ("gamelog.sha256", gamelog.GameLog, "sha256", None),
    ("gamelog.write", gamelog.GameLog, "write", _count_bytes),
    ("gamelog.read", gamelog.GameLog, "read", None),
    ("gamelog.replay", gamelog, "replay", _count_events),
    ("metrics.summarize", metrics, "summarize", None),
    ("metrics.per_turn_entropy", metrics, "per_turn_entropy", None),
    ("harness.run_experiment", harness, "run_experiment", None),
    ("harness.sweep", harness, "sweep", None),
    ("harness.analyze", harness, "analyze", None),
)

SPAN_NAMES = tuple(name for name, *_ in TRACED)


def install(tracer: spans.Tracer) -> spans.Rebinder:
    rebinder = spans.Rebinder()
    for name, owner, attr, observe in TRACED:
        make = tracer.wrapper(name, observe)
        if isinstance(owner, type):
            rebinder.method(owner, attr, make)
        else:
            rebinder.function(owner, attr, make)
    executor = tracer.executor_class()
    for module in (harness, gateway):
        rebinder.set(module, "ThreadPoolExecutor", executor)
    return rebinder


# --------------------------------------------------------------------------
# Shared pieces


def resolved_actions(events: list[dict]) -> int:
    return sum(1 for e in events
               if e["type"] == "action" and e["outcome"] != engine.OUTCOME_CANCELLED_DEAD)


def program_digest() -> str:
    """sha256 over the package source, so cached log hashes are only
    compared against runs of the same program."""
    root = Path(core.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class LogChecker:
    """Checks produced logs: file hash, determinism per key, replay, faults."""

    def __init__(self, run: Run, cache_path: Path):
        self.run = run
        self.cache_path = cache_path
        self.program = program_digest()
        try:
            cache = json.loads(cache_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            cache = {}
        self.cache: dict[str, dict[str, str]] = cache if isinstance(cache, dict) else {}
        self.expected = dict(self.cache.get(self.program, {}))
        self.replayed: set[str] = set()

    def check(self, key: str, path: Path, reported_sha: str | None = None) -> None:
        run = self.run
        try:
            data = path.read_bytes()
        except OSError as exc:
            run.fail(f"{key}: log not written ({exc})")
            return
        sha = hashlib.sha256(data).hexdigest()
        if reported_sha is not None and sha != reported_sha:
            run.fail(f"{key}: log file hash {sha[:12]} != reported {reported_sha[:12]}")
        expected = self.expected.setdefault(key, sha)
        if sha != expected:
            run.fail(f"{key}: log hash {sha[:12]} differs from earlier run {expected[:12]}")
        if sha in self.replayed:
            return
        self.replayed.add(sha)
        try:
            log = gamelog.GameLog.from_text(data.decode("utf-8"))
            gamelog.replay(log)
        except (gamelog.LogError, gamelog.ReplayError, KeyError, ValueError) as exc:
            run.fail(f"{key}: replay failed: {type(exc).__name__}: {exc}")
            return
        faults = sum(1 for e in log.events if e["type"] == "policy_fault")
        fallbacks = sum(1 for e in log.events if e["type"] == "action" and e["fallback"])
        for _ in range(faults):
            run.fail(f"{key}: policy fault in log")
        for _ in range(fallbacks):
            run.fail(f"{key}: parse fallback in log")

    def save(self) -> None:
        self.cache[self.program] = self.expected
        tmp = self.cache_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.cache, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.cache_path)


# --------------------------------------------------------------------------
# sweep


def run_sweep(run: Run, checker: LogChecker) -> None:
    """Preset P2's upkeep sweep through ``harness.sweep(parallel=2)`` plus one
    V7 game through ``run_experiment``, per round. Latency op: one game.

    Set-up: ``harness.sweep`` builds each game inside its own call, where it
    cannot be timed apart from outside, so set-up times separate calls of
    ``new_game`` and ``build_policy_map`` on each of the round's 13 configs.
    They run outside the tracing, so the per-layer figures count only the
    sweep's own calls."""
    run.latency_op = "game (harness.run_experiment, two at a time)"
    seeds = game_seeds(run, run.sizes.sweep_seeds)
    values = run.sizes.sweep_values
    p2, v7 = harness.PRESETS["P2"], harness.PRESETS["V7"]
    produced: list[tuple[str, Path, str]] = []
    games: list[Interval] = []

    for index, traced in rounds(run):
        seed = round_seed(run, seeds, index)
        out = run.work / f"sweep-{index}"
        started = time.perf_counter()
        for preset, overrides in [(p2, {"upkeep": v}) for v in values] + [(v7, {})]:
            config = harness.resolve_config(preset, overrides, seed)
            core.new_game(config)
            harness.build_policy_map(preset.policy_assignment, config)
        setup = since(started)

        with tracing(run, traced):
            timer = (contextlib.nullcontext() if traced
                     else latency_timer(harness, "run_experiment", games))
            with timer, warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                started = time.perf_counter()
                records = harness.sweep("P2", "upkeep", values, seed=seed,
                                        out_dir=out, parallel=2)
                records.append(harness.run_experiment("V7", seed=seed, out_dir=out))
                timed = since(started)
        reasons = [str(w.message) for w in caught
                   if str(w.message).startswith("sweep run")]
        for missing in range(len(values) + 1 - len(records)):
            reason = reasons[missing] if missing < len(reasons) else "no record"
            run.fail(f"sweep seed {seed}: {reason}")
        actions = sum(r.summary.total_actions for r in records)
        run.rounds.append(Round(len(records), actions, [timed], traced))
        run.attempted += len(values) + 1 + actions
        if not traced:
            run.setup.append(setup)
        for record in records:
            produced.append((f"sweep:{seed}:{record.experiment_id}",
                             record.log_path, record.log_sha256))
        check_report(run, out, len(records) - 1)

    run.latency.extend(games)
    for key, path, sha in produced:
        checker.check(key, path, sha)


def check_report(run: Run, out: Path, logs: int) -> None:
    """The report bundle ``analyze`` wrote covers every log it was given."""
    for name in ("summary.csv", "summary.md", "action_distribution.csv", "curve.csv"):
        if not (out / name).is_file():
            run.fail(f"{out.name}: report file {name} missing")
    try:
        rows = len((out / "summary.csv").read_text(encoding="utf-8").splitlines()) - 1
    except OSError:
        rows = -1
    if rows != logs:
        run.fail(f"{out.name}: summary.csv has {rows} rows for {logs} logs")
    perturn = len(list(out.glob("perturn_*.csv")))
    if perturn != logs:
        run.fail(f"{out.name}: {perturn} per-turn tables for {logs} logs")


# --------------------------------------------------------------------------
# crowd and llm: one large game per round, turns timed


def crowd_config(run: Run, seed: int) -> GameConfig:
    return GameConfig(**run.sizes.crowd, seed=seed).validate()


def run_crowd(run: Run, checker: LogChecker) -> None:
    """One 144-agent survival game per round; set-up is ``new_game`` plus the
    policy map. The timed part plays (``engine.run_game``), hashes and writes
    the log. Latency op: one turn."""
    run.latency_op = "turn (engine.step)"
    seeds = game_seeds(run, run.sizes.crowd_seeds)
    produced: list[tuple[str, Path, str]] = []
    for index, traced in rounds(run):
        seed = round_seed(run, seeds, index)
        path = run.work / f"crowd-{index}.log"
        turns: list[Interval] = []
        with tracing(run, traced):
            started = time.perf_counter()
            config = crowd_config(run, seed)
            state = core.new_game(config)
            policies = harness.build_policy_map(CROWD_POLICIES, config)
            setup = since(started)

            with turn_timer(run, turns, traced):
                started = time.perf_counter()
                log = engine.run_game(state, policies)
                sha = log.sha256()
                log.write(path)
                timed = since(started)
        record_game(run, traced, setup, log, timed)
        if not traced:
            run.latency.extend(turns)
        produced.append((f"crowd:{seed}", path, sha))
    # Each seed plays about once in the loop, so the first plays again,
    # untimed, for the determinism check.
    config = crowd_config(run, seeds[0])
    log = engine.run_game(core.new_game(config),
                          harness.build_policy_map(CROWD_POLICIES, config))
    log.write(run.work / "crowd-again.log")
    produced.append((f"crowd:{seeds[0]}", run.work / "crowd-again.log", log.sha256()))
    for key, path, sha in produced:
        checker.check(key, path, sha)


def record_game(run: Run, traced: bool, setup: Interval, log: gamelog.GameLog,
                timed: Interval) -> None:
    actions = resolved_actions(log.events)
    run.rounds.append(Round(1, actions, [timed], traced))
    run.attempted += 1 + actions
    if not traced:
        run.setup.append(setup)


def start_llm_game(run: Run, stub: StubProcess,
                   seed: int) -> tuple[core.GameState, policy.PolicyMap]:
    """The llm game's state and policy map, every agent talking to ``stub``."""
    config = GameConfig(**run.sizes.llm, seed=seed).validate()
    state = core.new_game(config)
    gw = GatewayConfig(endpoint_url=stub.url, model_name="stub-model",
                       api_key_env_var=STUB_KEY_ENV,
                       max_concurrency=config.llm_concurrency,
                       request_timeout=10.0, max_retries=2,
                       backoff_base=0.05, backoff_cap=0.2)
    return state, harness.build_policy_map("llm", config, gw)


def run_llm(run: Run, checker: LogChecker) -> None:
    """One 16-agent game per round, every agent driven through the gateway
    against a fresh stub child process. Latency op: one decision
    (``gateway.complete``); a turn's latency is mostly the number of agents
    alive, which the seed decides.

    Only the time not spent in the stub's fixed hold scales with machine
    speed, so each interval is converted to nominal seconds as its hold time
    plus the rest divided by the slowdown: a decision holds once, a round
    holds ``requests * HOLD_MS / llm_concurrency`` on its critical path. The
    reference loop runs between turns and around each set-up.

    Set-up is ``new_game`` plus the policy map. Starting the stub is left out
    of it: the stub is the benchmark's own process, no change to gridarena
    moves its start time, and that time swings by a third between runs on a
    shared machine. It is reported apart, as ``stub_start_s``. Since only a
    few rounds fit in a run, an untraced run first sets up ``llm_setups``
    more times, for a steadier set-up median."""
    run.latency_op = "decision (gateway.complete)"
    os.environ.setdefault(STUB_KEY_ENV, "perfbench")
    seeds = game_seeds(run, run.sizes.llm_seeds)
    produced: list[tuple[str, Path, str]] = []
    decisions = run.latency
    llm_turns: list[Interval] = []
    stub_starts: list[float] = []
    holds: list[float] = []            # per round, hold time on its critical path
    hold_s = HOLD_MS / 1000.0
    speed = Speed()

    def nominal(interval: Interval, hold: float) -> Interval:
        start, seconds = interval
        work = speed.work_seconds(start, seconds)
        return (start, hold + max(0.0, work - hold) * speed.nominal(start, seconds) / work)

    def set_up(stub: StubProcess, seed: int):
        speed.sample()
        started = time.perf_counter()
        game = start_llm_game(run, stub, seed)
        setup = since(started)
        speed.sample()
        return game, nominal(setup, 0.0)

    if run.tracer is None:
        with StubProcess() as stub:
            for _ in range(run.sizes.llm_setups):
                run.setup.append(set_up(stub, seeds[0])[1])
    for index, traced in rounds(run):
        seed = round_seed(run, seeds, index)
        path = run.work / f"llm-{index}.log"
        with tracing(run, traced):
            started = time.perf_counter()
            with StubProcess() as stub:
                stub_starts.append(time.perf_counter() - started)
                (state, policies), setup = set_up(stub, seed)

                with contextlib.ExitStack() as timers:
                    if not traced:
                        timers.enter_context(latency_timer(gateway, "complete", decisions))
                        timers.enter_context(latency_timer(engine, "step", llm_turns,
                                                           speed.maybe_sample))
                    started = time.perf_counter()
                    log = engine.run_game(state, policies)
                    sha = log.sha256()
                    log.write(path)
                    timed = since(started)
                stats = stub.stats()
        speed.sample()
        record_game(run, traced, setup, log, timed)
        holds.append(stats["requests"] * hold_s / state.config.llm_concurrency)
        produced.append((f"llm:{seed}", path, sha))
        if traced:
            run.stub["requests"] += stats["requests"]
            run.stub["connections"] += stats["connections"]
            run.stub["inflight_max"] = max(run.stub["inflight_max"], stats["inflight_max"])
    for key, path, sha in produced:
        checker.check(key, path, sha)
    measured = [r.actions / r.parts[0][1] for r in run.rounds if not r.traced]
    if measured:
        run.extra["measured_actions_per_s"] = (statistics.median(measured), "1/s",
                                               len(measured))
    if decisions:
        run.extra["measured_latency_p90_ms"] = (
            percentile([d[1] * 1e3 for d in decisions], 90), "ms", len(decisions))
    for round_, hold in zip(run.rounds, holds):
        round_.parts = [nominal(part, hold) for part in round_.parts]
    decisions[:] = [nominal(d, hold_s) for d in decisions]
    run.extra["stub_start_s"] = (statistics.median(stub_starts), "s", len(stub_starts))
    run.extra["machine_slowdown"] = (statistics.median(speed.slowdowns), "ratio",
                                     len(speed.slowdowns))
    if decisions:
        decided_s = sum(run.round_seconds(r) for r in run.rounds if not r.traced)
        decision_ms = [d[1] * 1e3 for d in decisions]
        turn_ms = [t[1] * 1e3 for t in llm_turns]
        run.extra["decisions_per_s"] = (len(decisions) / decided_s, "1/s", len(decisions))
        run.extra["decision_p99_ms"] = (percentile(decision_ms, 99), "ms", len(decisions))
        run.extra["turn_p50_ms"] = (percentile(turn_ms, 50), "ms", len(turn_ms))
        run.extra["turn_p90_ms"] = (percentile(turn_ms, 90), "ms", len(turn_ms))


# --------------------------------------------------------------------------
# verify


def generate_corpus(run: Run, out: Path) -> list[Path]:
    """Sweep-style logs (P2 sweeps plus a V7 game) and one crowd-sized log."""
    seeds = game_seeds(run, run.sizes.verify_sweeps + 1)
    paths: list[Path] = []
    for k, seed in enumerate(seeds[:-1]):
        records = harness.sweep("P2", "upkeep", run.sizes.sweep_values, seed=seed,
                                out_dir=out / f"sweep-{k}")
        paths += [r.log_path for r in records]
    paths.append(harness.run_experiment("V7", seed=seeds[0], out_dir=out).log_path)
    config = crowd_config(run, seeds[-1])
    with turn_timer(run, []):
        log = engine.run_game(core.new_game(config),
                              harness.build_policy_map(CROWD_POLICIES, config))
    paths.append(out / "crowd.log")
    log.write(paths[-1])
    return paths


def run_verify(run: Run, checker: LogChecker) -> None:
    """Set-up generates the corpus (several times, for the set-up median and
    a determinism check); a round reads and replays every log, then runs
    ``harness.analyze`` on all of them. Latency op: read + replay of one log."""
    run.latency_op = "log (GameLog.read + gamelog.replay)"
    generations: list[list[Path]] = []
    for g in range(run.sizes.verify_generations):
        run.sample_speed()
        started = time.perf_counter()
        generations.append(generate_corpus(run, run.work / f"corpus-{g}"))
        run.setup.append(since(started))
    corpus = generations[0]
    for g, paths in enumerate(generations):
        for number, path in enumerate(paths):
            checker.check(f"verify:{run.seed}:{number}", path)
        if g:
            shutil.rmtree(run.work / f"corpus-{g}")
    logs = [gamelog.GameLog.read(p).events for p in corpus]
    actions = sum(resolved_actions(events) for events in logs)
    events = sum(len(events) for events in logs)
    del logs

    replay_passes: list[list[Interval]] = []
    analyses: list[Interval] = []
    for index, traced in rounds(run):
        report = run.work / f"report-{index}"
        replays: list[Interval] = []
        with tracing(run, traced):
            for path in corpus:
                run.sample_speed(unless_recent=True)
                run.attempted += 1
                started = time.perf_counter()
                try:
                    gamelog.replay(gamelog.GameLog.read(path))
                except (gamelog.LogError, gamelog.ReplayError, OSError) as exc:
                    run.fail(f"{path.name}: replay failed: {exc}")
                    continue
                replays.append(since(started))
            run.sample_speed(unless_recent=True)
            run.attempted += 1
            started = time.perf_counter()
            harness.analyze(corpus, report)
            analysis = since(started)
        run.rounds.append(Round(len(corpus), actions, replays + [analysis], traced))
        if not traced:
            run.latency.extend(replays)
            replay_passes.append(replays)
            analyses.append(analysis)
        check_report(run, report, len(corpus))
        shutil.rmtree(report)
    if analyses:
        rates = [events / sum(run.nominal(r) for r in replays) for replays in replay_passes]
        run.extra["replay_events_per_s"] = (statistics.median(rates), "1/s", len(rates))
        run.extra["analyze_s"] = (nominal_median(run, analyses), "s", len(analyses))


WORKLOADS: dict[str, Callable[[Run, "LogChecker"], None]] = {
    "sweep": run_sweep,
    "crowd": run_crowd,
    "llm": run_llm,
    "verify": run_verify,
}
CPU_BOUND = ("sweep", "crowd", "verify")


def execute(run: Run) -> None:
    """Run the workload, then its output checks."""
    if run.workload in CPU_BOUND:
        run.speed = Speed()
    checker = LogChecker(run, run.work.parent / "shas.json")
    WORKLOADS[run.workload](run, checker)
    checker.save()
