"""Log serialization and replay verification."""

import functools
import gc
import hashlib
import json
import random
import re
import sys
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from gridarena import gamelog
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
from gridarena.harness import PRESETS, analyze, build_policy_map, resolve_config, run_experiment
from gridarena.metrics import MetricsError, summarize
from gridarena.policy import Policy, PolicyMap, make_scripted

from conftest import promotes, small_config, young


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


def test_each_record_is_encoded_once(tmp_path, monkeypatch):
    """Text, hash and file reuse the lines encoded when records were appended."""
    calls = []
    encode = gamelog._dumps
    monkeypatch.setattr(gamelog, "_dumps", lambda event: calls.append(1) or encode(event))
    log = scripted_log()
    for index in range(2):
        log.to_text()
        log.sha256()
        log.write(tmp_path / f"game-{index}.log")
    assert len(calls) == len(log)


def test_a_read_log_hashes_its_file_without_encoding(tmp_path, monkeypatch):
    path = tmp_path / "game.log"
    scripted_log().write(path)

    def refuse(event):
        raise AssertionError("a read record was encoded again")

    monkeypatch.setattr(gamelog, "_dumps", refuse)
    log = GameLog.read(path)
    assert log.sha256() == hashlib.sha256(path.read_bytes()).hexdigest()
    assert log.write(tmp_path / "again.log") == log.sha256()


def test_a_log_built_from_records_gives_the_engine_text():
    log = scripted_log()
    assert GameLog(log.events).to_text() == log.to_text()
    assert GameLog(json.loads(line) for line in log.lines()).to_text() == log.to_text()


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


@pytest.mark.parametrize("etype", [[], {}, ["header"], 1, None])
def test_a_record_type_that_is_not_text_is_a_log_error(etype, tmp_path):
    text = json.dumps({"type": etype}) + "\n"
    with pytest.raises(LogError, match="line 1: not a known event record"):
        GameLog.from_text(text)
    path = tmp_path / "bad.log"
    path.write_text(text)
    assert main(["replay", str(path)]) == 4
    assert main(["analyze", str(path), "--out", str(tmp_path / "report")]) == 4


@pytest.mark.parametrize("line", [1, 3])
def test_a_log_that_is_not_utf8_is_a_log_error(line, tmp_path, capsys):
    lines = [json.dumps(r).encode() + b"\n" for r in records_of(scripted_log())]
    lines[line - 1] = b"\xff" + lines[line - 1]
    path = tmp_path / "bad.log"
    path.write_bytes(b"".join(lines))
    with pytest.raises(LogError, match=f"line {line}: not UTF-8 text"):
        GameLog.read(path)
    assert main(["replay", str(path)]) == 4
    assert f"line {line}: not UTF-8 text" in capsys.readouterr().err
    assert main(["analyze", str(path), "--out", str(tmp_path / "report")]) == 4


def test_append_rejects_unknown_event_types():
    log = GameLog()
    with pytest.raises(LogError):
        log.append({"type": "mystery"})
    with pytest.raises(LogError):
        log.append({"type": []})


def test_append_refuses_a_record_its_reader_refuses():
    log = GameLog([{"type": "regen", "turn": 0, "delta": []}])
    with pytest.raises(LogError, match=r"^line 2: upkeep record lacks deaths, delta, turn$"):
        log.append({"type": "upkeep"})
    with pytest.raises(LogError) as read:
        GameLog.from_text(log.to_text() + '{"type":"upkeep"}\n')
    assert str(read.value) == "line 2: upkeep record lacks deaths, delta, turn"
    for record in ({"type": "mystery"}, {"type": []}, {"type": 1}):
        with pytest.raises(LogError, match=r"^line 2: not a known event record$"):
            log.append(record)
        with pytest.raises(LogError) as read:
            GameLog.from_text(log.to_text() + json.dumps(record) + "\n")
        assert str(read.value) == "line 2: not a known event record"
    assert len(log) == 1 and log.to_text().count("\n") == 1  # nothing was added


def malformed_line_log(tmp_path, line):
    """A real log whose second line is ``line``."""
    lines = scripted_log().to_text().splitlines()
    lines[1] = line
    path = tmp_path / "bad.log"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def assert_both_commands_name(path, tmp_path, capsys, message):
    with pytest.raises(LogError, match=message):
        GameLog.read(path)
    assert main(["replay", str(path)]) == 4
    assert re.search(message, capsys.readouterr().err)
    assert main(["analyze", str(path), "--out", str(tmp_path / "report")]) == 4
    assert re.search(message, capsys.readouterr().err)


def test_analyze_of_a_header_only_log_names_the_missing_end_once(tmp_path, capsys):
    path = tmp_path / "header.log"
    path.write_text(next(scripted_log().lines()) + "\n", encoding="utf-8")
    assert main(["analyze", str(path), "--out", str(tmp_path / "report")]) == 4
    assert capsys.readouterr().err == f"analysis error: {path}: log has no end record\n"


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python reads integers of any length")
def test_an_integer_past_the_digit_limit_is_a_log_error(tmp_path, capsys):
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    path = malformed_line_log(tmp_path, f'{{"type":"upkeep","turn":{digits},'
                                        f'"delta":[],"deaths":[]}}')
    assert_both_commands_name(path, tmp_path, capsys, r"line 2: unreadable number \(Exceeds")


def test_a_line_nested_past_the_recursion_limit_is_a_log_error(tmp_path, capsys):
    path = malformed_line_log(tmp_path, '{"type":"upkeep","turn":0,"delta":[],"deaths":'
                                        + "[" * 100_000)
    assert_both_commands_name(path, tmp_path, capsys, "line 2: nested too deeply to read")


SMALL_LOG_TEXT = scripted_log(small_config(n_agents=2, max_turns=2)).to_text()


def test_padded_and_blank_lines_read_as_their_records():
    log = scripted_log()
    lines = log.to_text().splitlines()
    padded = ["", " \t" + lines[0], lines[1] + " ", "   "] + lines[2:]
    clone = GameLog.from_text("\n".join(padded))
    assert clone.events == log.events
    assert list(clone.lines()) == list(log.lines())


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=20),
                          st.sampled_from(["", " ", "\t \u2028"])), max_size=8))
def test_a_records_line_number_is_its_file_line(blanks):
    """``lineno`` counts the blank lines ``from_text`` skipped; a log read
    without one before its last record keeps no skipped lines."""
    log = GameLog.from_text(SMALL_LOG_TEXT)
    assert log._skipped == []
    lines = SMALL_LOG_TEXT.split("\n")
    for at, blank in blanks:
        lines.insert(min(at, len(lines)), blank)
    read = GameLog.from_text("\n".join(lines))
    assert read.events == log.events
    for index in range(len(read)):
        assert lines[read.lineno(index) - 1].strip() == list(log.lines())[index]


ROUND_TRIP_GAMES = {
    "P1": ("P1", None, None),
    "V7": ("V7", None, None),
    "crowd-shaped": ("P1", {"grid_width": 12, "grid_height": 12, "n_food_nodes": 10,
                            "n_token_nodes": 5, "n_agents": 24, "upkeep": 1,
                            "max_turns": 30},
                     "mixed:0-5=aggressor,6-11=trader,12-17=walker,*=greedy"),
}


@pytest.mark.parametrize("name", ROUND_TRIP_GAMES)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 64 - 1))
def test_an_engine_log_reads_back_as_it_was_written(name, seed):
    preset, overrides, policies = ROUND_TRIP_GAMES[name]
    config = resolve_config(PRESETS[preset], overrides or {}, seed)
    log = run_game(new_game(config),
                   build_policy_map(policies or PRESETS[preset].policy_assignment, config))
    clone = GameLog.from_text(log.to_text())
    assert clone.events == log.events
    assert list(clone.lines()) == list(log.lines())


# Every character ``str.strip`` removes but "\n", which ends a line; among
# them the ASCII separators, U+0085, U+00A0, U+2028 and U+3000.
PADDING = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace() and c != "\n")


@functools.cache
def round_trip_log(name):
    preset, overrides, policies = ROUND_TRIP_GAMES[name]
    config = resolve_config(PRESETS[preset], overrides or {}, 5)
    return run_game(new_game(config),
                    build_policy_map(policies or PRESETS[preset].policy_assignment, config))


@pytest.mark.parametrize("name", ROUND_TRIP_GAMES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_unicode_padding_reads_as_the_line_it_pads(name, data):
    log = round_trip_log(name)
    lines = list(log.lines())
    pad = st.text(PADDING, max_size=3)
    pads = data.draw(st.dictionaries(st.integers(0, len(lines) - 1), st.tuples(pad, pad),
                                     min_size=1, max_size=40))
    for number, (before, after) in pads.items():
        lines[number] = before + lines[number] + after
    clone = GameLog.from_text("\n".join(lines))
    assert clone.events == log.events
    assert list(clone.lines()) == list(log.lines())


@pytest.mark.parametrize("space", "\x0b\x0c\x1c\x85\xa0\u2028\u3000")
def test_a_padded_float_is_still_named(space):
    log = round_trip_log("P1")
    lines = list(log.lines())
    padded = GameLog.from_text("\n".join(space + line + space for line in lines))
    assert padded.events == log.events
    record = json.loads(lines[1])
    record["delta"][0][4] += 0.5
    lines[1] = space + json.dumps(record) + space
    with pytest.raises(LogError, match=r"^line 2 \(upkeep\): delta\[0\]\[4\] must be an integer"):
        GameLog.from_text("\n".join(lines))


@pytest.mark.parametrize("enabled", [True, False])
def test_reading_pauses_the_collector_and_restores_it(monkeypatch, enabled):
    seen = []
    decode = gamelog._decode
    monkeypatch.setattr(gamelog, "_decode",
                        lambda *args: seen.append(gc.isenabled()) or decode(*args))
    text = " " + scripted_log().to_text()  # a padded line goes to _decode
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        GameLog.from_text(text)
        assert seen == [False]
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


@promotes
def test_a_read_log_is_in_the_oldest_generation():
    log = GameLog.from_text(scripted_log().to_text())
    assert not young(log.events[-1])


def test_reading_leaves_a_callers_frozen_objects_alone(frozen_caller):
    text = scripted_log().to_text()
    frozen = gc.get_freeze_count()
    log = GameLog.from_text(text)
    assert gc.get_freeze_count() == frozen
    assert young(log.events[-1])


def test_a_read_that_fails_restores_the_collector():
    assert gc.isenabled()
    with pytest.raises(LogError, match="line 2: invalid JSON"):
        GameLog.from_text(scripted_log().to_text().replace("\n", "\nnot json\n", 1))
    assert gc.isenabled()


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


PINNED_LOGS = {
    "P1": ("P1", None, 42, None,
           "d73f733a02b472fdb896acbf9891a85c39b70d5e82ab61f341c1594e7e98d2e4"),
    "P1-mixed": ("P1", None, 42, "mixed:0-5=trader,6-9=aggressor,*=walker",
                 "ac4dfdb150ba986ddecfbef3d79d687a7187fca0fa5aa5695c7d7d4386d6139d"),
    "P2": ("P2", {"upkeep": 5}, 7, None,
           "b0f8856ea13eca10e43d46d096293fa9d36eacc7026ff48402ae432c719e8ece"),
    "V7": ("V7", None, 1, None,
           "aeb23f35183f534972d647537f54b6ec366b355a8427aa67f072c04f739f01a2"),
    # crowd-sized: stacked cells, and a vision range smaller than the grid
    "crowd": ("P1", {"grid_width": 24, "grid_height": 24, "n_food_nodes": 44,
                     "n_token_nodes": 22, "n_agents": 144, "upkeep": 1, "max_turns": 40}, 1,
              "mixed:0-35=aggressor,36-71=trader,72-107=walker,*=greedy",
              "6edaa1bdc1f32eb31276b70923d1aceab498422326672d8b224a0b70d93717c7"),
}


def run_pinned(preset, overrides, seed, policies):
    return run_experiment(preset, overrides, seed=seed, policies=policies,
                          ack_overrides=overrides is not None)


@pytest.mark.parametrize("preset, overrides, seed, policies, digest", list(PINNED_LOGS.values()))
def test_log_bytes_are_pinned(preset, overrides, seed, policies, digest):
    """Engine changes must leave these logs byte for byte as they were."""
    assert run_pinned(preset, overrides, seed, policies).log_sha256 == digest


@pytest.mark.parametrize("name", ["P2", "V7", "crowd"])
def test_games_make_no_bounded_draw_through_random_random(name, monkeypatch):
    """Every bounded draw goes through ``core.below``: with ``random.Random``'s
    own bounded draws refused, the games still give their pinned logs. (The
    V7 game shuffles roles and breeds a child; ``sample``, which places the
    nodes, calls ``_randbelow`` itself, so that stays.)"""
    def refused(self, *args, **kwargs):
        raise AssertionError("a bounded draw through random.Random")

    for method in ("choice", "shuffle", "randrange", "randint"):
        monkeypatch.setattr(random.Random, method, refused)
    *game, digest = PINNED_LOGS[name]
    assert run_pinned(*game).log_sha256 == digest


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


def test_replay_names_the_nested_header_field_that_differs(tmp_path, capsys):
    records = records_of(scripted_log())
    upkeep = records[0]["config"]["upkeep"]
    records[0]["config"]["upkeep"] = str(upkeep)
    message = rf'line 1 \(header\): config.upkeep is "{upkeep}" in the log, {upkeep} on re-execution'
    with pytest.raises(ReplayError, match=message):
        replay(log_of(records))
    path = tmp_path / "game.log"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert main(["replay", str(path)]) == 4
    assert "config.upkeep" in capsys.readouterr().err


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
    def __init__(self, text="model unreachable"):
        self.text = text

    def decide(self, obs):
        raise RuntimeError(self.text)


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


@pytest.mark.parametrize("char", ["\u0085", "\u2028", "\u2029"])
def test_a_fault_text_with_a_unicode_line_break_replays(char, tmp_path):
    """The encoder writes these raw inside a string; a line ends at \\n only."""
    config = small_config(n_agents=4, max_turns=3)
    log = run_game(new_game(config), PolicyMap(
        lambda agent: Unreachable(f"bad{char}reply") if agent.id == 1
        else make_scripted("greedy", agent.id, config)))
    path = tmp_path / "game.log"
    log.write(path)
    assert char in path.read_text(encoding="utf-8")
    read = GameLog.read(path)
    assert read.events == log.events
    assert read.sha256() == log.sha256()
    assert main(["replay", str(path)]) == 0


def test_replay_parses_each_distinct_action_text_once(tmp_path, monkeypatch):
    log = GameLog.read(run_experiment("V7", seed=3, out_dir=tmp_path).log_path)
    texts = [r["action"] for r in log if r["type"] == "action"]
    parsed = []
    parse = gamelog.parse_action
    monkeypatch.setattr(gamelog, "parse_action", lambda text: parsed.append(text) or parse(text))
    replay(log)
    assert sorted(parsed) == sorted(set(texts))
    assert len(parsed) < len(texts)


def test_replay_rejects_policy_fault_moved_to_another_agent():
    records = records_of(faulty_log())
    # a fault followed by its REST and then another agent's action
    index = first_index(range(len(records) - 2), lambda i: records[i]["type"] == "policy_fault"
                        and records[i + 2]["type"] == "action")
    moved_to, faulty = records[index + 2]["agent_id"], records[index]["agent_id"]
    records[index]["agent_id"] = moved_to
    message = (f"line {index + 1} (policy_fault): agent_id is {moved_to} in the log, "
               f"{faulty} on re-execution")
    with pytest.raises(ReplayError, match=f"^{re.escape(message)}$"):
        replay(log_of(records))


def test_replay_rejects_rest_claimed_for_a_fault():
    records = records_of(faulty_log())
    index = first_index(records, lambda r: r["type"] == "action" and r["agent_id"] == 1)
    records[index]["fallback"] = False
    with pytest.raises(ReplayError, match=rf"line {index + 1} \(action\): fallback "):
        replay(log_of(records))


def preset_log(name, policies=None, **overrides):
    config = replace(PRESETS[name].config, **overrides)
    return run_game(new_game(config),
                    build_policy_map(policies or PRESETS[name].policy_assignment, config))


@pytest.mark.parametrize("name, policies, overrides", [
    ("P1", None, {}),
    ("V7", None, {"seed": 1}),
    ("P2b", "scripted:trader", {"upkeep": 5}),
], ids=["P1", "V7", "P2b-upkeep5-trader"])
def test_replay_rejects_a_fallback_on_any_action_but_rest(name, policies, overrides):
    # a fallback decision plays REST, so a fallback flag on another action is
    # a decision no policy can make
    records = records_of(preset_log(name, policies, **overrides))
    candidates = [i for i, r in enumerate(records)
                  if r["type"] == "action" and r["action"] != "REST" and not r["fallback"]]
    for index in random.Random(22).sample(candidates, 20):
        mutated = [dict(r) for r in records]
        mutated[index]["fallback"] = True
        with pytest.raises(ReplayError, match=rf"^line {index + 1} \(action\): "):
            replay(log_of(mutated))


@pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                   reason="re-deriving decisions is ROADMAP item 4")
def test_replay_rejects_a_fallback_flag_on_a_rest_no_policy_gave():
    records = records_of(preset_log("P1", "scripted:rest"))
    index = first_index(records, lambda r: r["type"] == "action" and r["action"] == "REST")
    records[index]["fallback"] = True
    with pytest.raises(ReplayError, match=rf"^line {index + 1} \(action\): fallback "):
        replay(log_of(records))


def test_replay_names_a_fallback_flag_on_an_action_but_rest():
    records = records_of(scripted_log())
    index = first_index(records, lambda r: r["type"] == "action" and r["action"] == "GATHER")
    records[index]["fallback"] = True
    message = (f"line {index + 1} (action): fallback is true on 'GATHER', "
               "but a fallback decision plays REST")
    with pytest.raises(ReplayError, match=f"^{re.escape(message)}$"):
        replay(log_of(records))


def test_replay_names_action_text_that_does_not_parse():
    records = records_of(scripted_log())
    index = first_index(records, lambda r: r["type"] == "action")
    records[index]["action"] = "DANCE 3"
    message = f"line {index + 1} (action): action 'DANCE 3' does not parse"
    with pytest.raises(ReplayError, match=f"^{re.escape(message)}$"):
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


def test_replay_rejects_a_repeated_end_record(tmp_path, capsys):
    records = records_of(scripted_log())
    records.append(records[-1])
    message = f"line {len(records)} (end): record after the end of the game"
    with pytest.raises(ReplayError, match=f"^{re.escape(message)}$"):
        replay(log_of(records))
    path = tmp_path / "game.log"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert main(["replay", str(path)]) == 4
    assert message in capsys.readouterr().err


def test_replay_names_an_action_record_too_malformed_to_use():
    records = records_of(scripted_log())
    index = first_index(records, lambda r: r["type"] == "action")
    agent_id = records[index]["agent_id"]
    records[index]["agent_id"] = [agent_id]
    message = (f"line {index + 1} (action): agent_id is [{agent_id}] in the log, "
               f"{agent_id} on re-execution")
    with pytest.raises(ReplayError, match=f"^{re.escape(message)}$"):
        replay(log_of(records))


def test_replay_names_an_action_text_of_the_wrong_type_as_malformed():
    records = records_of(scripted_log())
    index = first_index(records, lambda r: r["type"] == "action")
    records[index]["action"] = 7
    message = f"line {index + 1} (action): malformed record (AttributeError: "
    with pytest.raises(ReplayError, match=f"^{re.escape(message)}") as raised:
        replay(log_of(records))
    assert isinstance(raised.value.__cause__, AttributeError)


def test_replay_names_the_line_where_a_turns_decisions_are_missing():
    records = records_of(preset_log("P1"))
    kept = [r for r in records if not (r["type"] == "action" and r["turn"] == 0)]
    assert len(kept) < len(records)
    message = 'line 3 (regen): type is "regen" in the log, "action" on re-execution'
    with pytest.raises(ReplayError, match=f"^{re.escape(message)}$"):
        replay(log_of(kept))


def test_replay_names_the_first_line_that_differs_within_a_turn():
    """A later record of the turn that cannot be used is not read before an
    earlier record of the same turn is compared."""
    records = records_of(scripted_log())
    first = first_index(records, lambda r: r["type"] == "action" and r["outcome"] == "ok")
    later = first + 1 + first_index(records[first + 1:], lambda r: r["type"] == "action")
    assert records[later]["turn"] == records[first]["turn"]
    records[first]["outcome"] = "rejected"
    records[later]["action"] = "GATHRE"
    message = f'line {first + 1} (action): outcome is "rejected" in the log, "ok" on re-execution'
    with pytest.raises(ReplayError, match=f"^{re.escape(message)}$"):
        replay(log_of(records))


def test_a_log_without_its_header_is_an_analysis_error(tmp_path, capsys):
    path = tmp_path / "game.log"
    path.write_text("".join(line + "\n" for line in list(scripted_log().lines())[1:]))
    with pytest.raises(LogError, match="^log has no header record$"):
        replay(GameLog.read(path))
    assert main(["replay", str(path)]) == 4
    assert "log has no header record" in capsys.readouterr().err
    assert main(["analyze", str(path), "--out", str(tmp_path / "report")]) == 4
    assert "log has no header record" in capsys.readouterr().err


def test_replay_names_the_file_in_every_analysis_error(tmp_path, capsys):
    lines = [line + "\n" for line in scripted_log().lines()]
    for name, data, problem in [
            ("not-utf8", b"\xff" + "".join(lines).encode(), "line 1: not UTF-8 text"),
            ("no-header", "".join(lines[1:]).encode(), "log has no header record"),
            ("end-twice", "".join(lines + lines[-1:]).encode(),
             f"line {len(lines) + 1} (end): record after the end of the game")]:
        path = tmp_path / f"{name}.log"
        path.write_bytes(data)
        assert main(["replay", str(path)]) == 4
        assert capsys.readouterr().err.startswith(f"analysis error: {path}: {problem}")


def blank_line_log(tmp_path, edit):
    """P1 seed 1's log with a blank line after its header and ``edit``
    applied to its file lines; the path and the edited file line."""
    lines = list(preset_log("P1", seed=1).lines())
    lines.insert(1, "")
    lineno = edit(lines)
    path = tmp_path / "blank.log"
    path.write_text("\n".join(lines) + "\n")
    return path, lineno


def test_replay_names_the_file_line_after_a_blank_line(tmp_path, capsys):
    def reject_line_5(lines):
        assert '"outcome":"ok"' in lines[4]
        lines[4] = lines[4].replace('"outcome":"ok"', '"outcome":"rejected"', 1)
        return 5

    path, lineno = blank_line_log(tmp_path, reject_line_5)
    message = (f'line {lineno} (action): outcome is "rejected" in the log, '
               '"ok" on re-execution')
    with pytest.raises(ReplayError, match=f"^{re.escape(message)}$"):
        replay(GameLog.read(path))
    assert main(["replay", str(path)]) == 4
    assert capsys.readouterr().err == f"analysis error: {path}: {message}\n"


def test_analyze_names_the_file_line_after_a_blank_line(tmp_path, capsys):
    def fly(lines):
        index = next(i for i, line in enumerate(lines) if '"action":"GATHER"' in line)
        lines[index] = lines[index].replace('"action":"GATHER"', '"action":"FLY"', 1)
        return index + 1

    path, lineno = blank_line_log(tmp_path, fly)
    assert main(["analyze", str(path), "--out", str(tmp_path / "report")]) == 4
    assert capsys.readouterr().err == (f"analysis error: {path}: line {lineno} (action): "
                                       "'FLY' is not an action type\n")


def test_a_header_after_a_blank_line_is_named_by_its_file_line(tmp_path):
    records = records_of(scripted_log())
    records[0]["config"].pop("upkeep")
    path = tmp_path / "game.log"
    path.write_text("\n" + "".join(json.dumps(r) + "\n" for r in records))
    with pytest.raises(LogError, match=r"^line 2 \(header\): missing keys: upkeep$"):
        replay(GameLog.read(path))


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
