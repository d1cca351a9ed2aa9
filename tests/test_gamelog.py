"""Log serialization and replay verification."""

import json
import random

import pytest

from gridarena.core import new_game
from gridarena.engine import run_game
from gridarena.gamelog import (
    RECORD_KEYS,
    GameLog,
    LogError,
    ReplayError,
    replay,
)
from gridarena.harness import run_experiment
from gridarena.metrics import MetricsError, summarize
from gridarena.policy import PolicyMap, make_scripted

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
    with pytest.raises(ReplayError, match=r"line \d+ \(\w+\): malformed record"):
        replay(log)


def test_replay_rejects_dropped_end_node():
    log = tamper(scripted_log(), lambda r: r["type"] == "end",
                 lambda record: record["nodes"].pop())
    with pytest.raises(ReplayError, match="node count"):
        replay(log)


def test_replay_rejects_forged_alive_ids():
    log = tamper(scripted_log(), lambda r: r["type"] == "end",
                 lambda record: record["alive_ids"].pop())
    with pytest.raises(ReplayError, match="survivors"):
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
    # nearly every deletion is caught (a dropped turn_end death is not yet)
    assert rejected >= 295
