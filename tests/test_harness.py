"""Presets, policy assignment parsing, run artifacts, sweeps, reports, CLI."""

import copy
import csv
import dataclasses
import hashlib
import json
import os
import random
import signal
import time
import warnings
import weakref
from pathlib import Path

import pytest

from gridarena import gamelog, harness, metrics
from gridarena.cli import main
from gridarena.core import ConfigError, GameConfig, VARIANT_SEXUAL_SELECTION, new_game
from gridarena.engine import observe
from gridarena.gamelog import GameLog, LogError
from gridarena.harness import (
    PRESETS,
    analyze,
    build_policy_map,
    experiment_id_for,
    render_summary_md,
    resolve_config,
    resolve_preset,
    run_experiment,
    summary_row,
    sweep,
)
from gridarena.metrics import MetricsError, summarize
from gridarena.policy import (
    Aggressor,
    LLMPolicy,
    PickyChooser,
    RestOnly,
    Suitor,
    Trader,
)

from conftest import gateway_config, small_config


SMALL = {"grid_width": "5", "grid_height": "5", "n_agents": "4",
         "max_turns": "4", "n_food_nodes": "2", "n_token_nodes": "1"}


def run_small(**kwargs):
    return run_experiment("P1", SMALL, ack_overrides=True, **kwargs)


# --------------------------------------------------------------------------
# Presets and config resolution


def test_presets_cover_both_variants():
    assert set(PRESETS) == {"P1", "P2", "P2b", "V7"}
    assert PRESETS["P1"].config.seed == 42
    assert PRESETS["P2"].config.seed == 7
    assert PRESETS["P2"].sweep[0] == "upkeep"
    assert PRESETS["P2b"].sweep == ("upkeep", (2, 4, 5, 6, 7))
    v7 = PRESETS["V7"].config
    assert v7.engine_variant == VARIANT_SEXUAL_SELECTION
    assert (v7.grid_width, v7.grid_height, v7.max_turns) == (7, 7, 40)
    for preset in PRESETS.values():
        preset.config.validate()


def test_resolve_preset_forms():
    assert resolve_preset("P1") is PRESETS["P1"]
    assert resolve_preset(PRESETS["V7"]) is PRESETS["V7"]
    custom = resolve_preset(small_config())
    assert custom.config == small_config()
    with pytest.raises(ConfigError):
        resolve_preset("P9")


def test_resolve_config_overrides_and_seed():
    config = resolve_config(PRESETS["P1"], {"upkeep": "5"}, seed=9)
    assert config.upkeep == 5 and config.seed == 9
    with pytest.raises(ConfigError):
        resolve_config(PRESETS["P1"], {"upkeep": "lots"}, None)
    with pytest.raises(ConfigError):
        resolve_config(PRESETS["P1"], {"turbo": "1"}, None)
    with pytest.raises(ConfigError):
        resolve_config(PRESETS["P1"], {"upkeep": "-3"}, None)


@pytest.mark.parametrize("overrides, seed", [
    ({"upkeep": 2.7}, None),      # was played as upkeep 2
    ({"n_agents": True}, None),   # was played as a 1-agent game
    ({}, 7.9),                    # was played as seed 7
])
def test_non_text_values_are_not_truncated(overrides, seed):
    with pytest.raises(ConfigError, match="must be an integer"):
        run_experiment("P1", overrides, seed=seed, ack_overrides=True)


def test_sweep_records_a_fractional_value_as_a_failure(tmp_path):
    with pytest.warns(UserWarning, match="upkeep=2.5"):
        records = sweep(small_config(max_turns=2), "upkeep", [2.5],
                        policies="scripted:rest", out_dir=tmp_path)
    assert records == []
    assert "upkeep=2.5" in (tmp_path / "failures.md").read_text()


def test_overrides_require_acknowledgement():
    with pytest.raises(ConfigError):
        run_experiment("P1", {"upkeep": 5})
    # dedicated seed/policies knobs need no acknowledgement
    record = run_experiment(small_config(max_turns=2), seed=3,
                            policies="scripted:rest")
    assert record.config.seed == 3


def test_experiment_id_is_content_derived():
    config = small_config()
    assert experiment_id_for(config) == experiment_id_for(GameConfig(
        **{name: getattr(config, name) for name in GameConfig.FIELDS}))
    assert experiment_id_for(config) != experiment_id_for(
        small_config(seed=config.seed + 1))


# --------------------------------------------------------------------------
# Policy assignment strings


def test_assignment_scripted_and_mixed():
    config = small_config(n_agents=4)
    build_policy_map("scripted:greedy", config)
    build_policy_map("mixed:0-1=aggressor,2=walker,*=rest", config)
    byrole_config = small_config(n_agents=4,
                                 engine_variant=VARIANT_SEXUAL_SELECTION)
    build_policy_map("byrole:provider=suitor,chooser=picky", byrole_config)


@pytest.mark.parametrize("assignment", [
    "", "scripted:", "scripted:clever", "mixed:", "mixed:abc=greedy",
    "mixed:0-x=greedy", "mixed:0=nonsense", "byrole:provider=suitor",
    "byrole:dealer=suitor,chooser=picky", "llm", "mixed:0=llm,*=rest",
    "scripted:llm", "what", "byrole:provider=suitor,chooser=picky",
    "mixed:0-3", "mixed:=greedy", "mixed:0=",
])
def test_assignment_rejects_malformed_or_unsupported(assignment):
    # everything here is invalid for a survival config with no gateway
    with pytest.raises(ConfigError):
        build_policy_map(assignment, small_config())


@pytest.mark.parametrize("assignment", [
    "mixed:5-2=trader,*=greedy",                         # an empty id range
    "byrole:provider=suitor,provider=picky,chooser=picky",  # a role named twice
])
def test_assignment_rejects_rules_that_cannot_match_as_written(assignment):
    config = small_config(n_agents=8, engine_variant=VARIANT_SEXUAL_SELECTION)
    with pytest.raises(ConfigError):
        build_policy_map(assignment, config)


def policy_classes(assignment, config, gateway=None):
    policy_map = build_policy_map(assignment, config, gateway)
    return {agent.id: type(policy_map.policy_for(agent))
            for agent in new_game(config).agents.values()}


def test_assignment_scripted_is_one_rule_for_everyone():
    classes = policy_classes("scripted:trader", small_config(n_agents=4))
    assert classes == {0: Trader, 1: Trader, 2: Trader, 3: Trader}


def test_assignment_mixed_leaves_unmatched_agents_at_rest():
    classes = policy_classes("mixed:0-1=aggressor,3=trader", small_config(n_agents=5))
    assert classes == {0: Aggressor, 1: Aggressor, 2: RestOnly, 3: Trader, 4: RestOnly}


def test_assignment_byrole_is_one_rule_per_role(stub_gateway):
    config = small_config(n_agents=6, engine_variant=VARIANT_SEXUAL_SELECTION)
    state = new_game(config)
    roles = {agent.id: agent.role for agent in state.agents.values()}
    assert set(roles.values()) == {"provider", "chooser"}

    scripted = policy_classes("byrole:provider=suitor,chooser=picky", config)
    assert scripted == {aid: Suitor if role == "provider" else PickyChooser
                        for aid, role in roles.items()}

    policy_map = build_policy_map("byrole:provider=llm,chooser=picky", config,
                                  gateway_config(stub_gateway))
    policies = {aid: policy_map.policy_for(agent) for aid, agent in state.agents.items()}
    llm = {policy for aid, policy in policies.items() if roles[aid] == "provider"}
    assert len(llm) == 1 and isinstance(llm.pop(), LLMPolicy)
    assert all(isinstance(policy, PickyChooser)
               for aid, policy in policies.items() if roles[aid] == "chooser")


def test_assignment_llm_shares_one_policy(stub_gateway):
    config = small_config(n_agents=4)
    policy_map = build_policy_map("llm", config, gateway_config(stub_gateway))

    class Stand:
        def __init__(self, agent_id):
            self.id = agent_id
            self.role = "none"

    policies = {policy_map.policy_for(Stand(i)) for i in range(4)}
    assert len(policies) == 1
    assert isinstance(policies.pop(), LLMPolicy)


def test_assignment_llm_runs_at_the_configs_concurrency(stub_gateway):
    config = small_config(n_agents=8, llm_concurrency=2)
    policy_map = build_policy_map("llm", config,
                                  gateway_config(stub_gateway, max_concurrency=4))
    stub_gateway.hold_seconds = 0.05
    state = new_game(config)
    policy_map.decide_all({aid: observe(state, aid) for aid in state.agents})
    assert stub_gateway.request_count == 8
    assert stub_gateway.max_in_flight <= 2


def test_assignment_mixed_first_match_wins(stub_gateway):
    config = small_config(n_agents=4)
    policy_map = build_policy_map("mixed:0-2=rest,1=walker,*=greedy", config)

    class Stand:
        def __init__(self, agent_id):
            self.id = agent_id
            self.role = "none"

    from gridarena.policy import GreedyGatherer, RestOnly

    assert isinstance(policy_map.policy_for(Stand(1)), RestOnly)
    assert isinstance(policy_map.policy_for(Stand(3)), GreedyGatherer)


# --------------------------------------------------------------------------
# run_experiment artifacts


def test_record_summary_lists_every_count_of_the_summary(tmp_path):
    record = run_small(out_dir=tmp_path)
    stored = json.loads((record.out_dir / "record.json").read_text())["summary"]
    assert list(stored) == [field.name for field in dataclasses.fields(metrics.MetricsSummary)
                            if field.name not in ("action_distribution", "per_turn")]
    assert stored["action_counts"] == record.summary.action_counts
    assert stored["entropy_norm"] == record.summary.entropy_norm


def test_run_experiment_writes_artifact_bundle(tmp_path):
    record = run_small(out_dir=tmp_path)
    assert record.out_dir is not None and record.out_dir.parent == tmp_path
    names = {path.name for path in record.out_dir.iterdir()}
    assert names == {"game.log", "config.txt", "record.json",
                     "summary.csv", "summary.md"}
    config = GameConfig.read(record.out_dir / "config.txt")
    assert config == record.config
    stored = json.loads((record.out_dir / "record.json").read_text())
    assert stored["experiment_id"] == record.experiment_id
    assert stored["log_sha256"] == record.log_sha256
    assert stored["summary"]["survivors"] == record.summary.survivors
    from gridarena.gamelog import GameLog, replay

    log = GameLog.read(record.out_dir / "game.log")
    assert log.sha256() == record.log_sha256
    replay(log)


def test_run_experiment_echoes_resolved_config():
    lines = []
    run_small(echo=lines.append)
    text = "\n".join(lines)
    assert "resolved configuration:" in text
    for name in GameConfig.FIELDS:
        assert f"{name}=" in text
    assert "policies: scripted:greedy" in text


def test_unparseable_replies_are_reported_as_fallbacks(stub_gateway, tmp_path):
    stub_gateway.responder = lambda prompt: "hold position"
    lines = []
    record = run_small(policies="llm", gateway=gateway_config(stub_gateway),
                       out_dir=tmp_path, echo=lines.append)
    decisions = [e for e in GameLog.read(record.log_path) if e["type"] == "action"]
    assert decisions and all(e["action"] == "REST" for e in decisions)
    assert record.summary.fallbacks == len(decisions)
    assert record.summary.policy_faults == 0

    stored = json.loads((record.out_dir / "record.json").read_text())["summary"]
    assert (stored["fallbacks"], stored["policy_faults"]) == (len(decisions), 0)
    with open(record.out_dir / "summary.csv", newline="") as fh:
        [row] = list(csv.DictReader(fh))
    assert (row["fallbacks"], row["policy_faults"]) == (str(len(decisions)), "0")
    assert f"| {len(decisions)} | 0 |" in (record.out_dir / "summary.md").read_text()
    assert f"{len(decisions)} fallbacks, 0 policy faults" in lines[-2]


def test_run_experiment_reruns_are_identical(tmp_path):
    first = run_small(out_dir=tmp_path / "a")
    second = run_small(out_dir=tmp_path / "b")
    assert first.experiment_id == second.experiment_id
    assert first.log_sha256 == second.log_sha256
    assert (first.out_dir / "summary.csv").read_text() == \
           (second.out_dir / "summary.csv").read_text()


# --------------------------------------------------------------------------
# sweep


def test_sweep_uses_preset_defaults_and_continues_on_failure(tmp_path):
    with pytest.warns(UserWarning, match="upkeep=-2"):
        records = sweep(resolve_preset("P1"), "upkeep", [1, -2, 3],
                        policies="scripted:rest", out_dir=tmp_path)
    assert [r.config.upkeep for r in records] == [1, 3]
    failures = (tmp_path / "failures.md").read_text()
    assert "upkeep=-2" in failures
    assert (tmp_path / "summary.csv").exists()
    assert (tmp_path / "curve.csv").exists()


def test_sweep_empty_values_warns_and_runs_nothing(tmp_path):
    with pytest.warns(UserWarning):
        records = sweep("P2b", "upkeep", [], out_dir=tmp_path)
    assert records == []


def test_sweep_parallel_matches_serial():
    serial = sweep(small_config(max_turns=3), "upkeep", [0, 1, 2],
                   policies="scripted:walker")
    parallel = sweep(small_config(max_turns=3), "upkeep", [0, 1, 2],
                     policies="scripted:walker", parallel=3)
    assert [r.log_sha256 for r in serial] == [r.log_sha256 for r in parallel]


@pytest.mark.parametrize("preset, values", [("P2", PRESETS["P2"].sweep[1]), ("V7", [1, 2, 3])])
def test_sweep_parallel_matches_serial_with_observing_policies(preset, values):
    # greedy, suitor and picky read their observations every turn, so games
    # in forked workers exercise the per-turn sight index and the log
    # encoder there, at the presets' own turn counts
    serial = sweep(preset, "upkeep", values)
    parallel = sweep(preset, "upkeep", values, parallel=2)
    assert len(serial) == len(values)
    assert [r.log_sha256 for r in serial] == [r.log_sha256 for r in parallel]


def test_sweep_over_seed_refuses_a_fixed_seed(tmp_path):
    with pytest.raises(ConfigError, match="seed"):
        sweep("P2b", "seed", [1, 2], seed=5, out_dir=tmp_path / "api")
    out = tmp_path / "cli"
    assert cli("sweep", "--preset", "P2b", "--param", "seed", "--values", "1,2,3",
               "--seed", "5", "--out", str(out)) == 2
    assert not (tmp_path / "api").exists() and not out.exists()


def test_a_seed_override_that_clashes_with_seed_is_refused(tmp_path):
    with pytest.raises(ConfigError, match="seed=3 but seed=5"):
        run_experiment("P1", {"seed": 3, "max_turns": 2}, seed=5, ack_overrides=True)
    # the same seed given both ways is no clash
    record = run_experiment("P1", {"seed": "5", "max_turns": "2"}, seed=5,
                            ack_overrides=True)
    assert record.config.seed == 5
    out = tmp_path / "cli"
    assert cli("run", "--preset", "P1", "--set", "seed=3", "--seed", "5",
               "--ack-overrides", "--out", str(out)) == 2
    assert cli("sweep", "--preset", "P2b", "--set", "seed=3", "--seed", "5",
               "--ack-overrides", "--out", str(out)) == 2
    assert not out.exists()


def test_sweep_over_the_preset_axis_defaults_to_its_values(tmp_path):
    out = tmp_path / "sweep"
    assert cli("sweep", "--preset", "P2b", "--param", "upkeep", "--set", "max_turns=3",
               "--ack-overrides", "--out", str(out)) == 0
    configs = [GameConfig.read(path) for path in sorted(out.glob("*/config.txt"))]
    assert sorted(c.upkeep for c in configs) == list(PRESETS["P2b"].sweep[1])
    assert len(list(out.glob("*/game.log"))) == 5
    with pytest.raises(ConfigError, match="needs a value list"):
        sweep("P2b", "max_turns")


# Stand-ins for run_experiment that sweep workers inherit when forked; a
# worker's side effects reach the test only through files.
_real_run_experiment = run_experiment


def _marked_slow_run(preset, overrides, **kwargs):
    """Mark the game as started in the output directory, then play it slowly."""
    (Path(kwargs["out_dir"]) / f"started-{overrides['upkeep']}").touch()
    time.sleep(0.3)
    return _real_run_experiment(preset, overrides, **kwargs)


def _dying_run(preset, overrides, **kwargs):
    """End the worker process mid-game."""
    os._exit(1)


@pytest.mark.parametrize("parallel, most_started", [(2, 4), (1, 1)])
def test_interrupting_a_sweep_starts_no_queued_game(monkeypatch, tmp_path, parallel,
                                                    most_started):
    # Ctrl-C comes while the first games sleep; this thread sees it once a
    # game ends, by when at most two more games can have started in the
    # freed workers, and none can start until those end. A SIGALRM stands in
    # for it, so the sweep forks beside no other thread.
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "run_experiment", _marked_slow_run)
    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, 0.1)
    try:
        with pytest.raises(KeyboardInterrupt):
            sweep(small_config(max_turns=1), "upkeep", [0, 1, 2, 3, 4],
                  policies="scripted:rest", out_dir=tmp_path, parallel=parallel)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    started = [path.name for path in tmp_path.glob("started-*")]
    assert "started-0" in started and len(started) <= most_started


def test_a_dead_sweep_worker_fails_its_games_not_the_sweep(monkeypatch, tmp_path):
    monkeypatch.setattr(harness, "run_experiment", _dying_run)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records = sweep(small_config(max_turns=1), "upkeep", [0, 1, 2, 3],
                        policies="scripted:rest", out_dir=tmp_path, parallel=2)
    assert records == []
    messages = [str(w.message) for w in caught]
    assert len(messages) == 4
    for value, message in zip([0, 1, 2, 3], messages):
        assert message.startswith(f"sweep run upkeep={value} failed: BrokenProcessPool")
    assert (tmp_path / "failures.md").read_text().count("BrokenProcessPool") == 4


def test_a_parallel_sweep_warns_of_the_serial_sweeps_failures():
    def failure_warnings(parallel):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records = sweep(small_config(max_turns=2), "upkeep", [-1, "x", 2],
                            policies="scripted:rest", parallel=parallel)
        assert [r.config.upkeep for r in records] == [2]
        return [str(w.message) for w in caught]

    serial = failure_warnings(1)
    assert len(serial) == 2 and "upkeep must be >= 0" in serial[0]
    assert failure_warnings(2) == serial


def test_cli_sweep_prints_each_failed_run(tmp_path, capsys):
    out = tmp_path / "sweep"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli("sweep", "--preset", "P2b", "--values", "2,-1", "--out", str(out)) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1] == ("FAILED upkeep=-1: ConfigError: invalid configuration: "
                           "upkeep must be >= 0")
    assert sum(line.startswith("| 2 |") for line in printed) == 1
    assert "- upkeep=-1: ConfigError" in (out / "failures.md").read_text()


@pytest.mark.parametrize("parallel", [0, -1])
def test_sweep_refuses_fewer_than_one_game_at_once(tmp_path, parallel, capsys):
    with pytest.raises(ConfigError, match="parallel must be >= 1"):
        sweep("P2b", out_dir=tmp_path / "api", parallel=parallel)
    out = tmp_path / "cli"
    assert cli("sweep", "--preset", "P2b", "--parallel", str(parallel),
               "--out", str(out)) == 2
    assert "parallel must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "api").exists() and not out.exists()


@pytest.mark.parametrize("text", ["", ", ,", ","])
def test_cli_sweep_values_that_name_no_value_are_a_config_error(tmp_path, text, capsys):
    out = tmp_path / "sweep"
    assert cli("sweep", "--preset", "P2b", "--values", text, "--out", str(out)) == 2
    assert "names no value" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_requires_axis_for_presets_without_one():
    with pytest.raises(ConfigError):
        sweep("P1")
    with pytest.raises(ConfigError):
        sweep("P1", "gravity", [1])
    with pytest.raises(ConfigError):
        sweep("P1", "upkeep", None)


# --------------------------------------------------------------------------
# analyze


def sweep_logs(tmp_path, values=(1, 3)):
    records = sweep(small_config(max_turns=4, n_agents=4), "upkeep",
                    list(values), policies="scripted:greedy",
                    out_dir=tmp_path / "runs")
    return [record.log_path for record in records]


def test_analyze_report_bundle(tmp_path):
    logs = sweep_logs(tmp_path)
    report = analyze(logs, tmp_path / "report")

    with open(report.summary_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["upkeep"] for row in rows] == ["1", "3"]
    for row in rows:
        assert set(row) == {"upkeep", "experiment", "trades", "attacks",
                            "survivors", "duration", "social_pct", "entropy",
                            "total_actions", "births", "reproductions",
                            "communications", "fallbacks", "policy_faults"}
        float(row["entropy"])

    with open(report.distribution_csv, newline="") as fh:
        dist = list(csv.reader(fh))
    assert dist[0][0] == "action" and len(dist[0]) == 3
    assert dist[-1][0] == "total_actions"
    for row in dist[1:-1]:
        for cell in row[1:]:
            assert 0.0 <= float(cell) <= 100.0

    with open(report.curve_csv, newline="") as fh:
        curve = list(csv.reader(fh))
    assert curve[0] == ["upkeep", "trades", "duration"]
    assert len(curve) == 3

    assert len(report.perturn_csvs) == 2
    with open(report.perturn_csvs[0], newline="") as fh:
        perturn = list(csv.reader(fh))
    assert perturn[0] == ["turn", "entropy", "alive"]

    md = report.summary_md.read_text()
    assert md.count("|") > 10


def test_analyze_is_reproducible_and_label_stable(tmp_path):
    logs = sweep_logs(tmp_path)
    first = analyze(logs, tmp_path / "r1")
    second = analyze(list(reversed(logs)), tmp_path / "r2")
    text_one = first.summary_csv.read_text()
    text_two = second.summary_csv.read_text()
    assert text_one != text_two  # row order follows input order
    assert sorted(text_one.splitlines()[1:]) == sorted(text_two.splitlines()[1:])
    again = analyze(logs, tmp_path / "r3")
    assert again.summary_csv.read_text() == text_one


def test_analyze_disambiguates_duplicate_logs(tmp_path):
    logs = sweep_logs(tmp_path, values=(1,))
    report = analyze([logs[0], logs[0]], tmp_path / "report")
    names = [path.name for path in report.perturn_csvs]
    assert len(set(names)) == 2


def test_analyze_holds_one_parsed_log_at_a_time(tmp_path, monkeypatch):
    logs = sweep_logs(tmp_path, values=(1, 2, 3))
    parsed = []
    read = GameLog.read.__func__

    def tracked_read(cls, path):
        assert all(ref() is None for ref in parsed), "an earlier log is still held"
        log = read(cls, path)
        parsed.append(weakref.ref(log))
        return log

    monkeypatch.setattr(GameLog, "read", classmethod(tracked_read))
    analyze(logs, tmp_path / "report")
    assert len(parsed) == 3


def test_analyze_does_not_default_a_missing_header_field(tmp_path):
    """An upkeep-5 log whose header lost ``upkeep`` was once reported as an
    upkeep-2 game, the dataclass default, under P1's experiment id."""
    record = run_experiment("P2b", {"upkeep": 5}, ack_overrides=True, out_dir=tmp_path)
    lines = record.log_path.read_text().splitlines(keepends=True)
    assert '"upkeep":5,' in lines[0]
    record.log_path.write_text(lines[0].replace('"upkeep":5,', "", 1) + "".join(lines[1:]))
    with pytest.raises(LogError, match=r"line 1 \(header\): missing keys: upkeep"):
        analyze([record.log_path], tmp_path / "report")
    assert not (tmp_path / "report" / "curve.csv").exists()


def nested_paths(value, path=()):
    """The key path of every value nested in a decoded record."""
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, item in children:
        yield path + (key,)
        yield from nested_paths(item, path + (key,))


def test_analyze_of_an_edited_log_never_escapes_with_a_bare_error(tmp_path):
    """300 single-value edits of a V7 log (a nested key deleted, or a value
    set to null, text, a list, an object or true; never a record's type):
    each log is reported or rejected with LogError/MetricsError."""
    log_path = run_experiment("V7", seed=3, out_dir=tmp_path).log_path
    lines = log_path.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    edited, rng, escapes = tmp_path / "edited.log", random.Random(3), []
    for _ in range(300):
        index = rng.randrange(len(records))
        record = copy.deepcopy(records[index])
        path = rng.choice([p for p in nested_paths(record) if p != ("type",)])
        parent = record
        for key in path[:-1]:
            parent = parent[key]
        value = rng.choice(["delete", None, "x", [], {}, True])
        if value == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        edited.write_text("\n".join([*lines[:index], json.dumps(record),
                                     *lines[index + 1:]]) + "\n")
        try:
            analyze([edited], tmp_path / "report")
        except (LogError, MetricsError):
            pass
        except Exception as exc:
            escapes.append(f"line {index + 1} {path} -> {value!r}: {exc!r}")
    assert not escapes, escapes[:5]


def table_with_trades(*trades):
    rows = [dict.fromkeys(harness.SUMMARY_COLUMNS, "0") for _ in trades]
    for row, count in zip(rows, trades):
        row["trades"] = str(count)
    return render_summary_md(rows)


def test_summary_md_bolds_only_a_real_trade_peak():
    assert "**" not in table_with_trades(0, 0, 0)   # no trades: no peak
    assert "**" not in table_with_trades(4, 4)      # every row ties
    assert "**" not in table_with_trades(5)         # one row
    assert table_with_trades(1, 3, 3, 0).count("**3**") == 2


def test_summary_row_formatting():
    record = run_experiment(small_config(max_turns=3), policies="scripted:rest")
    row = summary_row("x", record.config, record.summary)
    assert row["entropy"].count(".") == 1 and len(row["entropy"].split(".")[1]) == 3
    assert len(row["social_pct"].split(".")[1]) == 1


# --------------------------------------------------------------------------
# One encoding per log, one report writer


def refuse(what):
    def refused(*args, **kwargs):
        raise AssertionError(f"{what} was called")
    return refused


def test_run_experiment_encodes_each_record_once(tmp_path, monkeypatch):
    encoded = []
    dumps = gamelog._dumps
    monkeypatch.setattr(gamelog, "_dumps", lambda event: encoded.append(1) or dumps(event))
    record = run_small(out_dir=tmp_path)
    assert len(encoded) == len(GameLog.read(record.log_path))


def test_record_hash_is_the_hash_of_the_written_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(GameLog, "sha256", refuse("GameLog.sha256"))
    record = run_small(out_dir=tmp_path)
    digest = hashlib.sha256(record.log_path.read_bytes()).hexdigest()
    stored = json.loads((record.out_dir / "record.json").read_text())
    assert stored["log_sha256"] == record.log_sha256 == digest


def test_sweep_reads_back_and_resummarizes_no_log(tmp_path, monkeypatch):
    # each game is summarised once, as it plays: its summarizer counts each
    # record of its log once, and nothing walks the log again
    monkeypatch.setattr(GameLog, "read", refuse("GameLog.read"))
    monkeypatch.setattr(harness, "summarize", refuse("summarize"))
    summarizers = []
    monkeypatch.setattr(harness, "Summarizer",
                        lambda: summarizers.append(metrics.Summarizer()) or summarizers[-1])
    records = sweep(small_config(max_turns=4, n_agents=4), "upkeep", [1, 3],
                    policies="scripted:greedy", out_dir=tmp_path)
    assert len(records) == len(summarizers) == 2
    for record, summarizer in zip(records, summarizers):
        assert record.summary is summarizer.summary
        assert summarizer.seen == record.log_path.read_text().count("\n")
    assert len(list(tmp_path.glob("perturn_*.csv"))) == 2


def test_sweep_reports_equal_analyze_of_its_logs(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "analyze", refuse("analyze"))
    records = sweep(small_config(max_turns=4, n_agents=4), "upkeep", [1, 3, 1],
                    policies="scripted:greedy", out_dir=tmp_path / "sweep")
    analyze([r.log_path for r in records], tmp_path / "analyze")
    names = sorted(path.name for path in (tmp_path / "analyze").iterdir())
    assert f"perturn_{records[0].experiment_id}-2.csv" in names
    assert {"summary.csv", "summary.md", "action_distribution.csv", "curve.csv"} < set(names)
    for name in names:
        assert (tmp_path / "sweep" / name).read_bytes() == \
               (tmp_path / "analyze" / name).read_bytes(), name


# --------------------------------------------------------------------------
# CLI


def cli(*args):
    return main(list(args))


def test_cli_run_and_replay_and_validate(tmp_path, capsys):
    out = tmp_path / "runs"
    code = cli("run", "--preset", "P1",
               "--set", "grid_width=5", "--set", "grid_height=5",
               "--set", "n_agents=4", "--set", "max_turns=3",
               "--set", "n_food_nodes=2", "--set", "n_token_nodes=1",
               "--ack-overrides", "--out", str(out))
    assert code == 0
    printed = capsys.readouterr().out
    assert "resolved configuration:" in printed
    run_dir = next(out.iterdir())

    assert cli("replay", str(run_dir / "game.log")) == 0
    assert "replay ok" in capsys.readouterr().out

    assert cli("validate-config", str(run_dir / "config.txt")) == 0
    assert "configuration ok" in capsys.readouterr().out

    report = tmp_path / "report"
    assert cli("analyze", str(run_dir / "game.log"), "--out", str(report)) == 0
    assert (report / "summary.md").exists()


def test_cli_exit_code_two_for_config_errors(tmp_path, capsys):
    assert cli("run", "--preset", "P1", "--set", "upkeep=9") == 2
    assert "config error" in capsys.readouterr().err
    assert cli("run", "--preset", "P1", "--set", "upkeep") == 2
    capsys.readouterr()
    assert cli("run", "--preset", "P1", "--policies", "llm") == 2
    assert "gateway" in capsys.readouterr().err
    bad = tmp_path / "bad.txt"
    bad.write_text("upkeep=2\n")
    assert cli("validate-config", str(bad)) == 2


def test_cli_malformed_endpoint_is_a_config_error(capsys):
    assert cli("run", "--preset", "P1", "--policies", "llm",
               "--endpoint", "localhost:8000/v1", "--model", "m") == 2
    err = capsys.readouterr().err
    assert "config error" in err and "endpoint_url" in err


@pytest.mark.parametrize("flag", ["--endpoint", "--model"])
def test_cli_endpoint_and_model_come_together(flag, capsys):
    value = "http://127.0.0.1:9/v1" if flag == "--endpoint" else "m"
    assert cli("run", "--preset", "P1", "--policies", "llm", flag, value) == 2
    assert capsys.readouterr().err == \
        "config error: --endpoint and --model must be given together\n"


@pytest.mark.parametrize("timeout", ["0", "-1"])
def test_cli_non_positive_gateway_timeout_is_a_config_error(timeout, capsys):
    assert cli("run", "--preset", "P1", "--policies", "llm",
               "--endpoint", "http://127.0.0.1:9/v1", "--model", "m",
               "--gateway-timeout", timeout) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "request_timeout" in err


@pytest.mark.parametrize("flag, value, field", [
    ("--temperature", "nan", "temperature"), ("--max-tokens", "-5", "max_tokens")])
def test_cli_unsendable_sampling_field_is_a_config_error(flag, value, field, capsys):
    assert cli("run", "--preset", "P1", "--policies", "llm",
               "--endpoint", "http://127.0.0.1:9/v1", "--model", "m", flag, value) == 2
    err = capsys.readouterr().err
    assert "config error" in err and field in err


@pytest.mark.parametrize("timeout", ["inf", "1e12"])
def test_cli_unbounded_gateway_timeout_is_a_config_error(timeout, capsys):
    assert cli("run", "--preset", "P1", "--policies", "llm",
               "--endpoint", "http://127.0.0.1:9/v1", "--model", "m",
               "--gateway-timeout", timeout) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "request_timeout" in err


@pytest.mark.parametrize("pair, problem", [
    ("upkeep", "expected key=value, got 'upkeep'"),
    ("=3", "expected key=value, got '=3'"),
    ("upkeep=4", "duplicate key 'upkeep'"),
])
def test_set_pairs_and_config_lines_share_one_reader(tmp_path, capsys, pair, problem):
    assert cli("run", "--preset", "P1", "--set", "upkeep=2", "--set", pair,
               "--ack-overrides") == 2
    assert capsys.readouterr().err == f"config error: --set: {problem}\n"
    path = tmp_path / "config.txt"
    path.write_text(GameConfig().to_flat_text() + pair + "\n")
    assert cli("validate-config", str(path)) == 2
    line = len(GameConfig.FIELDS) + 1
    assert capsys.readouterr().err == f"config error: line {line}: {problem}\n"


def test_a_config_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "config.txt"
    path.write_bytes(b"upkeep=2\nseed=\xff\n")
    assert cli("validate-config", str(path)) == 2
    assert capsys.readouterr().err.startswith("config error: line 2: not UTF-8 text")


def test_cli_exit_code_three_for_runtime_faults(tmp_path):
    assert cli("replay", str(tmp_path / "missing.log")) == 3


def test_cli_exit_code_four_for_analysis_errors(tmp_path, capsys):
    mangled = tmp_path / "game.log"
    mangled.write_text("this is not a log\n")
    assert cli("replay", str(mangled)) == 4
    assert "analysis error" in capsys.readouterr().err

    record = run_small(out_dir=tmp_path / "runs")
    text = (record.log_path).read_text().splitlines()
    record.log_path.write_text("\n".join(text[:-1]) + "\n")  # drop end record
    assert cli("analyze", str(record.log_path), "--out", str(tmp_path / "r")) == 4


def test_cli_sweep(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = cli("sweep", "--preset", "P1", "--param", "max_turns",
               "--values", "2,3",
               "--set", "grid_width=5", "--set", "grid_height=5",
               "--set", "n_agents=4",
               "--set", "n_food_nodes=2", "--set", "n_token_nodes=1",
               "--ack-overrides", "--policies", "scripted:walker",
               "--parallel", "2", "--out", str(out))
    assert code == 0
    assert (out / "summary.csv").exists()
    assert "| upkeep |" in capsys.readouterr().out


def test_cli_sweep_applies_acknowledged_overrides(tmp_path, capsys):
    sets = ["--set", "grid_width=5", "--set", "grid_height=5", "--set", "n_agents=4",
            "--set", "n_food_nodes=2", "--set", "n_token_nodes=1"]
    out = tmp_path / "sweep"
    assert cli("sweep", "--preset", "P1", "--param", "upkeep", "--values", "1,2",
               *sets, "--ack-overrides", "--out", str(out)) == 0
    configs = [GameConfig.read(path) for path in sorted(out.glob("*/config.txt"))]
    assert [(c.grid_width, c.n_agents, c.upkeep) for c in configs] == [(5, 4, 1), (5, 4, 2)]
    capsys.readouterr()

    unacknowledged = tmp_path / "unacknowledged"
    assert cli("sweep", "--preset", "P1", "--param", "upkeep", "--values", "1",
               *sets, "--out", str(unacknowledged)) == 2
    assert "--ack-overrides" in capsys.readouterr().err
    assert cli("sweep", "--preset", "P1", "--param", "upkeep", "--values", "1",
               "--set", "bogus", "--ack-overrides", "--out", str(unacknowledged)) == 2
    assert "bogus" in capsys.readouterr().err
    assert not unacknowledged.exists()


def test_cli_analyze_names_the_log_that_fails_to_read(tmp_path, capsys):
    first = run_small(out_dir=tmp_path / "a").log_path
    second = tmp_path / "b.log"
    lines = first.read_text().splitlines(keepends=True)
    lines[2] = "{not json\n"
    second.write_text("".join(lines))
    assert cli("analyze", str(first), str(second), "--out", str(tmp_path / "r")) == 4
    err = capsys.readouterr().err
    assert f"{second}: line 3: invalid JSON" in err
