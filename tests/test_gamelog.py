"""Log serialization and replay verification."""

import json
import random
import tracemalloc

import pytest

from gridarena.cli import main
from gridarena.core import new_game
from gridarena.engine import run_game
from gridarena.gamelog import (
    RECORD_KEYS,
    GameLog,
    LogError,
    ReplayError,
    replay,
)
from gridarena.harness import analyze, run_experiment
from gridarena.metrics import MetricsError, summarize
from gridarena.policy import Policy, PolicyMap, make_scripted

from conftest import small_config


def scripted_log(config=None, name="greedy"):
    config = config or small_config(n_agents=4, max_turns=6)
    return run_game(new_game(config),
                    PolicyMap(lambda a: make_scripted(name, a.id, config)))


def test_log_text_round_trip():
    log = scripted_log()
    text = log.to_text()
    clone = GameLog.from_text(text)
    assert clone.to_text() == text
    assert clone.sha256() == log.sha256()


def test_log_lines_are_compact_json():
    log = scripted_log()
    for line in log.lines():
        assert ": " not in line and ", " not in line.replace('", "', "")
        json.loads(line)


def test_log_file_round_trip(tmp_path):
    log = scripted_log()
    path = tmp_path / "game.log"
    log.write(path)
    assert GameLog.read(path).to_text() == log.to_text()


def test_log_header_and_end_accessors():
    log = scripted_log()
    assert log.header["type"] == "header"
    assert log.end["type"] == "end"
    assert log.config() == small_config(n_agents=4, max_turns=6)


def test_from_text_reports_line_numbers():
    log = scripted_log()
    lines = log.to_text().splitlines()
    lines[2] = "not json"
    with pytest.raises(LogError) as excinfo:
        GameLog.from_text("\n".join(lines))
    assert "line 3" in str(excinfo.value)


@pytest.mark.parametrize("number", [58.0, float("nan"), float("inf"), float("-inf")])
def test_from_text_rejects_non_integer_numbers(number, tmp_path):
    lines = scripted_log().to_text().splitlines()
    record = json.loads(lines[1])
    assert record["type"] == "upkeep" and isinstance(record["delta"][0][4], int)
    record["delta"][0][4] = number
    lines[1] = json.dumps(record)
    with pytest.raises(LogError, match=r"line 2 \(upkeep\): delta\[0\]\[4\] must be an integer"):
        GameLog.from_text("\n".join(lines))
    path = tmp_path / "game.log"
    path.write_text("\n".join(lines) + "\n")
    assert main(["replay", str(path)]) == 4


def test_from_text_rejects_a_float_before_a_syntax_error():
    with pytest.raises(LogError, match="line 1: invalid JSON"):
        GameLog.from_text('{"type": "regen", "turn": 1.5, oops}')


def test_append_rejects_unknown_event_types():
    log = GameLog()
    with pytest.raises(LogError):
        log.append({"type": "mystery"})


def test_replay_accepts_untampered_logs():
    log = scripted_log()
    result = replay(log)
    assert result.turns == 6
    assert result.survivors == 4
    assert result.reason == "max_turns"
    assert result.events == len(list(log))  # every record is verified


def tamper(log, predicate, mutate):
    """Rewrite the first record matching predicate."""
    records = [json.loads(line) for line in log.lines()]
    for record in records:
        if predicate(record):
            mutate(record)
            break
    else:
        pytest.fail("no record matched the tampering predicate")
    text = "\n".join(json.dumps(r, separators=(",", ":")) for r in records) + "\n"
    return GameLog.from_text(text)


def first_agent_op(record):
    return (record["type"] in ("upkeep", "action", "regen", "turn_end")
            and any(op[0] == "agent" for op in record.get("delta", ())))


def test_replay_rejects_tampered_before_value():
    def mutate(record):
        op = next(op for op in record["delta"] if op[0] == "agent")
        op[3] = op[3] + 1 if isinstance(op[3], int) else op[3]

    log = tamper(scripted_log(), first_agent_op, mutate)
    with pytest.raises(ReplayError):
        replay(log)


def test_replay_rejects_tampered_after_value():
    def mutate(record):
        op = next(op for op in record["delta"] if op[0] == "agent")
        if isinstance(op[4], int):
            op[4] = op[4] + 1

    log = tamper(scripted_log(), first_agent_op, mutate)
    with pytest.raises(ReplayError):
        replay(log)


def test_replay_rejects_forged_end_survivors():
    def mutate(record):
        record["survivors"] = record["survivors"] + 1

    log = tamper(scripted_log(), lambda r: r["type"] == "end", mutate)
    with pytest.raises(ReplayError):
        replay(log)


def test_replay_rejects_missing_death_flag():
    config = small_config(n_agents=2, upkeep=30, n_food_nodes=0,
                          n_token_nodes=0, max_turns=4)
    log = scripted_log(config, name="rest")

    def drop_alive_flip(record):
        record["delta"] = [op for op in record["delta"]
                           if not (op[0] == "agent" and op[2] == "alive")]

    bad = tamper(log, lambda r: r["type"] == "upkeep" and r.get("deaths"),
                 drop_alive_flip)
    with pytest.raises(ReplayError):
        replay(bad)


def test_replay_rejects_overfilled_cells():
    config = small_config(n_agents=3, cell_capacity=1, grid_width=4,
                          grid_height=4, max_turns=3, seed=8)
    log = scripted_log(config, name="rest")

    def teleport(record):
        op = next(op for op in record["delta"]
                  if op[0] == "agent" and op[2] == "food")
        # replace the food op with an illegal move onto an occupied cell
        agents = log.header["agents"]
        target = agents[0]["pos"]
        mover = agents[1]
        op[:] = ["agent", mover["id"], "pos", mover["pos"], target]

    bad = tamper(log, lambda r: r["type"] == "upkeep" and r.get("delta"),
                 teleport)
    with pytest.raises(ReplayError):
        replay(bad)


# --------------------------------------------------------------------------
# Malformed logs: every defect ends in LogError or ReplayError


@pytest.mark.parametrize("etype", sorted(RECORD_KEYS))
def test_from_text_rejects_records_missing_a_key(etype):
    records = [json.loads(line) for line in scripted_log().lines()]
    # scripted games raise no policy faults; splice one in
    records.insert(1, {"type": "policy_fault", "turn": 0, "agent_id": 0, "error": "boom"})
    lines = [json.dumps(record) for record in records]
    assert len(GameLog.from_text("\n".join(lines))) == len(lines)
    index = next(i for i, record in enumerate(records) if record["type"] == etype)
    for key in sorted(RECORD_KEYS[etype] - {"type"}):
        broken = {k: v for k, v in records[index].items() if k != key}
        mutated = lines[:index] + [json.dumps(broken)] + lines[index + 1:]
        with pytest.raises(LogError, match=f"line {index + 1}: {etype} record lacks {key}"):
            GameLog.from_text("\n".join(mutated))


def test_replay_reports_short_delta_op_with_its_line():
    def shorten(record):
        op = next(op for op in record["delta"] if op[0] == "agent")
        del op[3]

    log = tamper(scripted_log(), first_agent_op, shorten)
    with pytest.raises(ReplayError, match=r"line 2 \(upkeep\): delta "):
        replay(log)


def test_replay_rejects_dropped_end_node():
    log = tamper(scripted_log(), lambda r: r["type"] == "end",
                 lambda record: record["nodes"].pop())
    with pytest.raises(ReplayError, match=r"line 44 \(end\): nodes "):
        replay(log)


def test_replay_rejects_forged_alive_ids():
    log = tamper(scripted_log(), lambda r: r["type"] == "end",
                 lambda record: record["alive_ids"].pop())
    with pytest.raises(ReplayError, match=r"line 44 \(end\): alive_ids "):
        replay(log)


def json_paths(obj, prefix=()):
    """Every key or list-element path inside a decoded record."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from json_paths(value, prefix + (key,))


def test_single_deletions_never_escape_as_bare_errors(tmp_path):
    """Delete one key or list element anywhere in a V7 log: reading,
    replaying and summarizing may only fail with the documented errors."""
    text = run_experiment("V7", seed=3, out_dir=tmp_path).log_path.read_text()
    lines = text.splitlines()
    rng = random.Random(20260)
    rejected = 0
    for _ in range(300):
        index = rng.randrange(len(lines))
        record = json.loads(lines[index])
        path = rng.choice(list(json_paths(record)))
        parent = record
        for step in path[:-1]:
            parent = parent[step]
        del parent[path[-1]]
        mutated = lines[:index] + [json.dumps(record)] + lines[index + 1:]
        try:
            log = GameLog.from_text("\n".join(mutated))
            replay(log)
            summarize(log)
        except (LogError, ReplayError, MetricsError):
            rejected += 1
    assert rejected == 300


# --------------------------------------------------------------------------
# Re-execution: decisions come from the log, everything else is re-derived


@pytest.mark.parametrize("preset, overrides, seed, policies, digest", [
    ("P1", None, 42, None,
     "d73f733a02b472fdb896acbf9891a85c39b70d5e82ab61f341c1594e7e98d2e4"),
    ("P1", None, 42, "mixed:0-5=trader,6-9=aggressor,*=walker",
     "ac4dfdb150ba986ddecfbef3d79d687a7187fca0fa5aa5695c7d7d4386d6139d"),
    ("P2", {"upkeep": 5}, 7, None,
     "b0f8856ea13eca10e43d46d096293fa9d36eacc7026ff48402ae432c719e8ece"),
    ("V7", None, 1, None,
     "aeb23f35183f534972d647537f54b6ec366b355a8427aa67f072c04f739f01a2"),
    # crowd-sized: stacked cells, and a vision range smaller than the grid
    ("P1", {"grid_width": 24, "grid_height": 24, "n_food_nodes": 44,
            "n_token_nodes": 22, "n_agents": 144, "upkeep": 1, "max_turns": 40}, 1,
     "mixed:0-35=aggressor,36-71=trader,72-107=walker,*=greedy",
     "6edaa1bdc1f32eb31276b70923d1aceab498422326672d8b224a0b70d93717c7"),
])
def test_log_bytes_are_pinned(preset, overrides, seed, policies, digest):
    """Engine changes must leave these logs byte for byte as they were."""
    record = run_experiment(preset, overrides, seed=seed, policies=policies,
                            ack_overrides=overrides is not None)
    assert record.log_sha256 == digest


def records_of(log):
    return [json.loads(line) for line in log.lines()]


def log_of(records):
    return GameLog.from_text("".join(json.dumps(r) + "\n" for r in records))


def first_index(records, predicate):
    return next(i for i, record in enumerate(records) if predicate(record))


def test_replay_rejects_rewritten_outcome():
    records = records_of(scripted_log())
    index = first_index(records, lambda r: r["type"] == "action" and r["outcome"] == "ok")
    records[index]["outcome"] = "failed_blocked"
    with pytest.raises(ReplayError, match=rf"line {index + 1} \(action\): outcome "):
        replay(log_of(records))


def test_replay_rejects_a_verdict_the_rules_never_asked_for(tmp_path):
    records = records_of(GameLog.read(run_experiment("V7", seed=1, out_dir=tmp_path).log_path))
    index = first_index(records, lambda r: r["type"] == "action" and r["outcome"] == "accepted")
    records[index]["outcome"] = "chooser_insolvent"
    with pytest.raises(ReplayError, match=rf"line {index + 1} \(action\): the rules have"):
        replay(log_of(records))


def test_replay_rejects_dropped_turn_end_death():
    config = small_config(n_agents=2, upkeep=30, n_food_nodes=0,
                          n_token_nodes=0, max_turns=4)
    records = records_of(scripted_log(config, name="rest"))
    index = first_index(records, lambda r: r["type"] == "turn_end" and r["deaths"])
    records[index]["deaths"].pop()
    with pytest.raises(ReplayError, match=rf"line {index + 1} \(turn_end\): deaths "):
        replay(log_of(records))


def test_replay_rejects_swapped_action_lines():
    records = records_of(scripted_log())
    index = first_index(range(len(records) - 1), lambda i: records[i]["type"] == "action"
                        and records[i + 1]["type"] == "action")
    records[index], records[index + 1] = records[index + 1], records[index]
    with pytest.raises(ReplayError, match=rf"line {index + 1} \(action\): agent_id "):
        replay(log_of(records))


def test_replay_rejects_header_upkeep_edit():
    records = records_of(scripted_log())
    records[0]["config"]["upkeep"] += 1
    with pytest.raises(ReplayError, match=r"line 2 \(upkeep\): "):
        replay(log_of(records))


def test_replay_rejects_a_header_number_of_another_type():
    records = records_of(scripted_log())
    records[0]["config"]["upkeep"] = float(records[0]["config"]["upkeep"])
    with pytest.raises(ReplayError, match=r"line 1 \(header\): .*upkeep must be an integer"):
        replay(log_of(records))


def test_replay_rejects_header_that_new_game_does_not_build():
    records = records_of(scripted_log())
    records[0]["agents"][0]["food"] += 1
    with pytest.raises(ReplayError, match=r"line 1 \(header\): agents "):
        replay(log_of(records))


@pytest.mark.parametrize("edit,fragment", [
    (lambda config: config.pop("upkeep"), "missing keys: upkeep"),
    (lambda config: config.update(turbo=1), "unknown key 'turbo'"),
    (None, "must be a mapping, got list"),
])
def test_a_malformed_header_config_is_a_log_error(tmp_path, capsys, edit, fragment):
    records = records_of(scripted_log())
    if edit is None:
        records[0]["config"] = list(records[0]["config"].values())
    else:
        edit(records[0]["config"])
    path = tmp_path / "game.log"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    message = rf"line 1 \(header\): .*{fragment}"
    with pytest.raises(LogError, match=message):
        replay(GameLog.read(path))
    with pytest.raises(LogError, match=message):
        analyze([path], tmp_path / "report")
    assert main(["replay", str(path)]) == 4
    assert main(["analyze", str(path), "--out", str(tmp_path / "report")]) == 4
    assert fragment in capsys.readouterr().err


class Unreachable(Policy):
    def decide(self, obs):
        raise RuntimeError("model unreachable")


def faulty_log():
    """Agent 1's policy raises every turn; the others play greedy."""
    config = small_config(n_agents=4, max_turns=6)
    return run_game(new_game(config), PolicyMap(
        lambda agent: Unreachable() if agent.id == 1
        else make_scripted("greedy", agent.id, config)))


def test_replay_accepts_policy_faults():
    log = faulty_log()
    faults = [r for r in log if r["type"] == "policy_fault"]
    assert len(faults) == 6 and {r["agent_id"] for r in faults} == {1}
    assert replay(log).events == len(log)


def test_replay_rejects_policy_fault_moved_to_another_agent():
    records = records_of(faulty_log())
    # a fault followed by its REST and then another agent's action
    index = first_index(range(len(records) - 2), lambda i: records[i]["type"] == "policy_fault"
                        and records[i + 2]["type"] == "action")
    records[index]["agent_id"] = records[index + 2]["agent_id"]
    with pytest.raises(ReplayError, match=rf"line {index + 1} \(policy_fault\): type "):
        replay(log_of(records))


def test_replay_rejects_rest_claimed_for_a_fault():
    records = records_of(faulty_log())
    index = first_index(records, lambda r: r["type"] == "action" and r["agent_id"] == 1)
    records[index]["fallback"] = False
    with pytest.raises(ReplayError, match=rf"line {index + 1} \(action\): fallback "):
        replay(log_of(records))


def test_replay_rejects_fallback_that_is_not_a_bool():
    records = records_of(scripted_log())
    index = first_index(records, lambda r: r["type"] == "action")
    records[index]["fallback"] = 0
    with pytest.raises(ReplayError, match=rf"line {index + 1} \(action\): fallback is not"):
        replay(log_of(records))


def test_replay_rejects_fault_text_that_is_not_a_string():
    records = records_of(faulty_log())
    index = first_index(records, lambda r: r["type"] == "policy_fault")
    records[index]["error"] = 7
    with pytest.raises(ReplayError, match=rf"line {index + 1} \(policy_fault\): error is not"):
        replay(log_of(records))


def test_replay_rejects_config_sizes_the_snapshots_do_not_match():
    records = records_of(scripted_log())
    config = records[0]["config"]
    config["n_agents"] += 1
    config["cell_capacity"] = 10 ** 9
    with pytest.raises(ReplayError, match=r"line 1 \(header\): snapshot counts differ"):
        replay(log_of(records))


def test_replay_setup_does_not_grow_with_a_tampered_grid_area():
    records = records_of(scripted_log())
    records[0]["config"].update(grid_width=1000, grid_height=1000)
    tracemalloc.start()
    try:
        with pytest.raises(ReplayError, match=r"line 1 \(header\): "):
            replay(log_of(records))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000  # a list of the million cells alone is ~80 MB


def test_rewritten_actions_never_verify(tmp_path):
    """Rewrite one action record's kind or outcome in a V7 log, which is what
    ``metrics`` counts: every rewrite is rejected. (A rewrite within a kind,
    such as one blocked MOVE for another, is a different decision with the
    same effect; a dead agent's cancelled action is never resolved.)"""
    records = records_of(GameLog.read(run_experiment("V7", seed=3, out_dir=tmp_path).log_path))
    actions = [i for i, r in enumerate(records) if r["type"] == "action"]
    texts = ["GATHER", "REST", "MOVE N", "MOVE E W", "TRAIN STR", "ATTACK 0",
             "TRADE 1 1f0t 0f1t", "COMMUNICATE hi", "REPRODUCE 1"]
    outcomes = ["ok", "accepted", "rejected", "failed_blocked", "cancelled_dead"]
    rng = random.Random(3)
    tried = 0
    for _ in range(150):
        index = rng.choice(actions)
        key, value = rng.choice([("action", rng.choice(texts)),
                                 ("outcome", rng.choice(outcomes))])
        logged = records[index][key]
        if key == "action" and (logged.split()[0] == value.split()[0]
                                or records[index]["outcome"] == "cancelled_dead"):
            continue
        if logged == value:
            continue
        mutated = [dict(r) for r in records]
        mutated[index][key] = value
        with pytest.raises(ReplayError):
            replay(log_of(mutated))
        tried += 1
    assert tried > 100
