"""Event-sourced game log: line-delimited JSON with replayable state deltas.

One record per line, ``type`` first; a line ends at ``\\n`` only (record
text may hold U+0085, U+2028 or U+2029 raw). Field order is fixed and all
state values are integers, so identical runs serialize byte for byte. A
``GameLog`` encodes each record once, when it is appended (or keeps the line
it was read from), and its text, hash and file all reuse those lines; so a
record is not edited after it is appended. Record types, in the order they
appear in a log::

    header    config + initial agent/node snapshots
    upkeep    per-turn food deduction (delta, deaths)
    policy_fault  a policy raised; REST was substituted for that agent
    action    one resolved action (agent_id, action text, outcome, fallback, delta)
    regen     node restock (delta)
    turn_end  deaths and births of the completed turn (its delta is always [])
    end       termination reason, survivor count, final snapshots

A delta is a list of atomic ops:

    ["agent", id, field, before, after]   field may be "pos", "attr:STR",
                                          "train:STR", or a plain field name
    ["node", index, "stock", before, after]
    ["spawn", agent_snapshot]

``GameLog.from_text`` reads a log line by line, with the cyclic garbage
collector paused (the records are trees); unless something is already frozen,
the decoded records then go straight to the collector's oldest generation, so
no young collection walks them (``core.collector_paused``). Each line is
decoded by one shared decoder's ``scan_once``. A line the scan does not read
to its end is stripped of any Unicode whitespace (``str.strip``), skipped if
blank (``GameLog.lineno`` still counts it: every line an error of the log,
its replay or its metrics names is a line of the file), and otherwise decoded
once more by ``_decode``. Every decoded line then passes one record check;
LogError names the line and its first problem:

    invalid JSON (...)          the decoder's reason
    unreadable number (...)     an integer longer than sys.get_int_max_str_digits()
    nested too deeply to read   past the recursion limit
    not a known event record    not an object, or its type is not a record type
    <type> record lacks <keys>
    <path> must be an integer   a float, NaN or Infinity, at a path as delta[0][4]

``replay`` is the integrity checker: it re-executes the game with the
engine's rules and compares every record in order. Each decision (action
text, fallback flag, policy fault, a chooser's accept/reject) is read from
the record under the cursor when the engine asks for it, as a
``PolicyDecision`` the engine plays, which refuses a fallback on any action
but REST; everything else (snapshots, deltas, outcomes, order, deaths,
births, the end record) is re-derived.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from .actions import REST, ActionParseError, PolicyDecision, parse_action
from .core import (
    AgentState,
    ConfigError,
    GameConfig,
    GameState,
    ResourceNode,
    collector_paused,
    new_game,
    read_text,
)

LOG_VERSION = 1

# Top-level keys each record type must carry; ``from_text`` rejects a record
# that lacks one, so readers can index these keys without guarding.
RECORD_KEYS: dict[str, frozenset[str]] = {
    "header": frozenset({"type", "version", "config", "agents", "nodes"}),
    "upkeep": frozenset({"type", "turn", "delta", "deaths"}),
    "policy_fault": frozenset({"type", "turn", "agent_id", "error"}),
    "action": frozenset({"type", "turn", "agent_id", "action", "outcome", "fallback", "delta"}),
    "regen": frozenset({"type", "turn", "delta"}),
    "turn_end": frozenset({"type", "turn", "deaths", "births", "delta"}),
    "end": frozenset({"type", "turn", "reason", "survivors", "alive_ids", "agents", "nodes"}),
}


# What reading a record of the wrong shape (a nested key missing, say) raises.
MALFORMED_RECORD = (KeyError, IndexError, TypeError, ValueError, AttributeError)


class ReplayError(ValueError):
    """Re-execution diverged from the log, or the log is unusable."""


class LogError(ReplayError):
    """Malformed log line; message carries the 1-based line number. A log
    that cannot be read cannot be replayed, hence the base class."""


class _NotAnInteger(ValueError):
    pass


def _reject_number(text: str):
    raise _NotAnInteger(text)


# The engine writes integers only, so a float, NaN or Infinity in a line is
# an edit. One module-level decoder parses at ``json.loads``' cost.
_DECODER = json.JSONDecoder(parse_float=_reject_number, parse_constant=_reject_number)


def _decode(lineno: int, line: str) -> tuple[Any, str | None]:
    """The value on stripped, non-blank ``line`` and the text of its first
    non-integer number if any; LogError says why the line is not JSON."""
    try:
        try:
            return _DECODER.decode(line), None
        except _NotAnInteger as exc:
            return json.loads(line), str(exc)
    except json.JSONDecodeError as exc:
        raise LogError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
    except RecursionError as exc:
        raise LogError(f"line {lineno}: nested too deeply to read") from exc
    except ValueError as exc:  # an integer past ``sys.get_int_max_str_digits()``
        raise LogError(f"line {lineno}: unreadable number ({exc})") from exc


def _checked_type(lineno: int, event: Any) -> str:
    """The type of ``event``, a record that line ``lineno`` holds or would
    hold; LogError unless it is an object of a record type with its keys."""
    etype = event.get("type") if type(event) is dict else None
    required = RECORD_KEYS.get(etype) if type(etype) is str else None
    if required is None:
        raise LogError(f"line {lineno}: not a known event record")
    if not required <= event.keys():
        missing = ", ".join(sorted(required - event.keys()))
        raise LogError(f"line {lineno}: {etype} record lacks {missing}")
    return etype


def _float_path(value: Any, path: str = "") -> str | None:
    """Where the first float of a decoded record sits, as ``delta[0][3]``."""
    if isinstance(value, float):
        return path.lstrip(".")
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, item in children:
        found = _float_path(item, f"{path}.{key}" if isinstance(key, str) else f"{path}[{key}]")
        if found is not None:
            return found
    return None


# --------------------------------------------------------------------------
# Snapshots


def agent_snapshot(agent: AgentState) -> dict[str, Any]:
    return {
        "id": agent.id,
        "pos": [agent.pos[0], agent.pos[1]],
        "attrs": agent.attrs.as_dict(),
        "food": agent.food,
        "tokens": agent.tokens,
        "health": agent.health,
        "alive": agent.alive,
        "role": agent.role,
        "vitality": agent.vitality,
        "revealed_until": agent.revealed_until,
        "train_progress": {k: agent.train_progress[k] for k in sorted(agent.train_progress)},
    }


def node_snapshot(node: ResourceNode) -> dict[str, Any]:
    return {
        "pos": [node.pos[0], node.pos[1]],
        "kind": node.kind,
        "regen": node.regen,
        "stock": node.stock,
    }


def header_event(state: GameState) -> dict[str, Any]:
    return {
        "type": "header",
        "version": LOG_VERSION,
        "config": state.config.as_dict(),
        "agents": [agent_snapshot(a) for a in state.agents.values()],
        "nodes": [node_snapshot(n) for n in state.nodes],
    }


def end_event(state: GameState, reason: str) -> dict[str, Any]:
    alive = [a.id for a in state.agents.values() if a.alive]
    return {
        "type": "end",
        "turn": state.turn,
        "reason": reason,
        "survivors": len(alive),
        "alive_ids": alive,
        "agents": [agent_snapshot(a) for a in state.agents.values()],
        "nodes": [node_snapshot(n) for n in state.nodes],
    }


# --------------------------------------------------------------------------
# Container


# ``json.dumps`` with these options makes a new encoder per call; one shared
# encoder gives the same bytes, and ``encode`` keeps no state between calls.
# Records are trees, so the circular-reference check only costs time.
_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False, check_circular=False)

# ``_ENCODER.encode`` still builds a C encoder per record; this one, made once
# with its settings (as ``JSONEncoder.iterencode`` makes it), writes the same
# text. It is None without the ``_json`` module, where ``encode`` is pure Python.
_C_ENCODER = None if json.encoder.c_make_encoder is None else json.encoder.c_make_encoder(
    None, _ENCODER.default, json.encoder.encode_basestring, _ENCODER.indent,
    _ENCODER.key_separator, _ENCODER.item_separator, _ENCODER.sort_keys,
    _ENCODER.skipkeys, _ENCODER.allow_nan)


def _dumps(event: dict[str, Any]) -> str:
    if _C_ENCODER is None:
        return _ENCODER.encode(event)
    return "".join(_C_ENCODER(event, 0))


@dataclass
class GameLog:
    """Ordered event records of one game, each with its one encoded line.
    Append-only: a record is encoded when it is appended (or kept as the
    line it was read from), and ``to_text``, ``sha256`` and ``write`` reuse
    those lines, so a record must not be edited after it is appended."""

    events: list[dict[str, Any]]
    _lines: list[str] = field(repr=False, compare=False)
    # the blank lines ``from_text`` skipped before the last record, ascending
    _skipped: list[int] = field(repr=False, compare=False)

    def __init__(self, events: Iterable[dict[str, Any]] = ()):
        self.events = []
        self._lines = []
        self._skipped = []
        self.extend(events)

    def append(self, event: dict[str, Any]) -> None:
        """Add ``event`` as the next line. LogError refuses, with the same
        message, a record that ``from_text`` would refuse for its type or keys."""
        _checked_type(len(self._lines) + 1, event)
        self._lines.append(_dumps(event))
        self.events.append(event)

    def extend(self, events: Iterable[dict[str, Any]]) -> None:
        for event in events:
            self.append(event)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def lineno(self, index: int) -> int:
        """The file line of record ``index`` (from 0): its place in the log,
        moved down past each blank line ``from_text`` skipped before it."""
        line = index + 1
        for skipped in self._skipped:
            if skipped > line:
                break
            line += 1
        return line

    @property
    def header(self) -> dict[str, Any]:
        if not self.events or self.events[0]["type"] != "header":
            raise LogError("log has no header record")
        return self.events[0]

    @property
    def end(self) -> dict[str, Any]:
        if not self.events or self.events[-1]["type"] != "end":
            raise LogError("log has no end record")
        return self.events[-1]

    def config(self) -> GameConfig:
        """The header's config, read by ``GameConfig.parse``."""
        try:
            return GameConfig.parse(self.header["config"])
        except ConfigError as exc:
            raise LogError(f"line {self.lineno(0)} (header): "
                           + "; ".join(exc.problems)) from exc

    def lines(self) -> Iterator[str]:
        return iter(self._lines)

    def to_text(self) -> str:
        return "\n".join(self._lines) + "\n" if self._lines else ""

    def write(self, path) -> str:
        """Write the log to ``path`` and return the sha256 of the bytes
        written, so a recorded hash is the file's hash by construction."""
        data = self.to_text().encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(data)
        return hashlib.sha256(data).hexdigest()

    def sha256(self) -> str:
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()

    @classmethod
    def from_text(cls, text: str) -> "GameLog":
        """Read a log's text with the collector paused; LogError names the
        first line that is not a record (see the module docstring)."""
        log = cls()
        events, lines, skipped = log.events, log._lines, log._skipped
        scan = _DECODER.scan_once
        with collector_paused():
            # ``splitlines`` would also break at U+0085, U+2028 and U+2029,
            # which the encoder writes raw inside strings
            for lineno, line in enumerate(text.split("\n"), start=1):
                try:
                    event, end = scan(line, 0)
                except (StopIteration, ValueError, RecursionError):
                    end = -1
                number = None
                if end != len(line):
                    # blank, padded, not JSON or holding a float: decode it
                    # once more, stripped, so a problem can be named
                    line = line.strip()
                    if not line:
                        skipped.append(lineno)
                        continue
                    event, number = _decode(lineno, line)
                etype = _checked_type(lineno, event)
                if number is not None:
                    raise LogError(f"line {lineno} ({etype}): {_float_path(event)} "
                                   f"must be an integer, got {number}")
                events.append(event)
                lines.append(line)
        while skipped and skipped[-1] == lineno:  # after the last record: moves none
            skipped.pop()
            lineno -= 1
        return log

    @classmethod
    def read(cls, path) -> "GameLog":
        return cls.from_text(read_text(path, LogError))


# --------------------------------------------------------------------------
# Replay


@dataclass
class ReplayResult:
    turns: int
    events: int
    survivors: int
    reason: str


_ABSENT = object()

# Played for a record that logs no decision; ``check`` refuses what it yields.
_MISSING = PolicyDecision(REST)


def _shown(value: Any) -> str:
    text = "absent" if value is _ABSENT else json.dumps(value)
    return text if len(text) <= 120 else text[:117] + "..."


class _Script:
    """The logged side of a replay: it serves the engine the decisions a log
    records, and checks each record the rules produce against the log."""

    def __init__(self, log: GameLog):
        self.events = log.events
        self.lineno = log.lineno  # error lines are file lines
        self.at = 0  # index of the record being read or checked
        self.decisions: dict[tuple[str, bool], PolicyDecision] = {}  # see ``decision``

    def where(self) -> str:
        return f"line {self.lineno(self.at)} ({self.events[self.at]['type']})"

    def check(self, produced: dict[str, Any]) -> None:
        """The record must equal the logged one. A difference is named by
        its dotted path down through nested objects, stopping at the first
        list or scalar: ``config.upkeep``, ``delta``."""
        logged = self.events[self.at]
        if logged != produced:
            path = []
            while isinstance(logged, dict) and isinstance(produced, dict):
                key = next(k for k in [*produced, *logged] if k not in logged
                           or k not in produced or logged[k] != produced[k])
                path.append(key)
                logged, produced = logged.get(key, _ABSENT), produced.get(key, _ABSENT)
            raise ReplayError(f"{self.where()}: {'.'.join(path)} is {_shown(logged)} in the "
                              f"log, {_shown(produced)} on re-execution")
        self.at += 1

    def __getitem__(self, agent_id: int) -> PolicyDecision:
        """The decision the record under the cursor logs (the engine asks just
        before it yields the actor's records): a fault's text, or an action's
        text and fallback flag. Whose it is, ``check`` compares."""
        record = self.events[self.at]
        if record["type"] == "policy_fault":
            if not isinstance(record["error"], str):
                raise ReplayError(f"{self.where()}: error is not a string")
            return PolicyDecision(REST, parse_status="fallback", error=record["error"])
        if record["type"] == "action":
            return self.decision(record["action"], record["fallback"])
        return _MISSING

    def decision(self, text: str, fallback: Any) -> PolicyDecision:
        """The decision an action record logs, built once per distinct
        (text, fallback). A text that does not parse, or a fallback on any
        action but REST, is a decision no policy makes: ReplayError."""
        if not isinstance(fallback, bool):  # 1 would find (text, True)'s entry
            raise ReplayError(f"{self.where()}: fallback is not true or false")
        decision = self.decisions.get((text, fallback))
        if decision is None:
            try:
                action = parse_action(text)
            except ActionParseError:
                raise ReplayError(f"{self.where()}: action {text!r} does not parse") from None
            try:
                decision = PolicyDecision(action, parse_status="fallback" if fallback else "ok")
            except ValueError:  # the one rule this can break: a fallback plays REST
                raise ReplayError(f"{self.where()}: fallback is true on {text!r}, "
                                  "but a fallback decision plays REST") from None
            self.decisions[text, fallback] = decision
        return decision

    def evaluate_proposal(self, chooser: AgentState, view: Any) -> bool:
        """A chooser's verdict is the logged outcome of the proposer's action,
        the record under the cursor while its REPRODUCE resolves."""
        outcome = self.events[self.at]["outcome"]
        if outcome not in ("accepted", "rejected"):
            raise ReplayError(f"{self.where()}: the rules have agent {chooser.id} "
                              f"evaluate this proposal, but the outcome is {outcome!r}")
        return outcome == "accepted"


def replay(log: GameLog) -> ReplayResult:
    """Verify a log by re-executing the game it records.

    The header's config is rebuilt with ``new_game`` and every turn is played
    by the engine's rules (``engine.play_turn``) with the logged decisions.
    Each record produced must equal the logged one (as decoded JSON values);
    ReplayError names the first line that differs or is too malformed to use.
    """
    from . import engine  # engine imports this module

    events = log.events
    header, _ = log.header, log.end  # LogError when either record is missing
    script = _Script(log)
    config = log.config()
    try:
        # the header's own snapshots bound the set-up work by the size of the log
        if (len(header["agents"]) != config.n_agents
                or len(header["nodes"]) != config.n_food_nodes + config.n_token_nodes):
            raise ReplayError(f"{script.where()}: snapshot counts differ from the config")
        state = new_game(config)
        script.check(header_event(state))
        while (reason := engine.check_termination(state)) is None:
            for record in engine.play_turn(state, script, lambda actors: script):
                script.check(record)
        script.check(end_event(state, reason))
    except ReplayError:
        raise
    except MALFORMED_RECORD as exc:
        raise ReplayError(f"{script.where()}: malformed record "
                          f"({type(exc).__name__}: {exc})") from exc
    if script.at != len(events):
        raise ReplayError(f"{script.where()}: record after the end of the game")
    return ReplayResult(turns=state.turn, events=len(events),
                        survivors=len(state.alive_agents()), reason=reason)


# --------------------------------------------------------------------------
# Delta recorder used by the engine


class Delta:
    """Applies mutations to live state while recording verifiable ops.

    Routing every write through here keeps the log and the state consistent
    by construction, and keeps ``GameState.living`` in step with the
    agents' positions and liveness. ``dying`` lists each agent whose food or
    health this delta set to 0 or below (once per such write), so a death
    sweep reads only those agents.
    """

    def __init__(self, state: GameState):
        self.state = state
        self.ops: list[list[Any]] = []
        self.dying: list[AgentState] = []

    def set_agent(self, agent: AgentState, fieldname: str, value: Any) -> None:
        if fieldname.startswith("attr:"):
            key = fieldname[5:]
            before = agent.attrs.get(key)
            if before == value:
                return
            agent.attrs = agent.attrs.with_value(key, value)
        elif fieldname.startswith("train:"):
            key = fieldname[6:]
            before = agent.train_progress.get(key, 0)
            if before == value:
                return
            agent.train_progress[key] = value
        elif fieldname == "pos":
            before = [agent.pos[0], agent.pos[1]]
            value = [value[0], value[1]]
            if before == value:
                return
            pos = (value[0], value[1])
            if agent.alive:
                self.state.living[agent.pos] -= 1
                self.state.living[pos] += 1
            agent.pos = pos
        else:
            before = getattr(agent, fieldname)
            if before == value:
                return
            setattr(agent, fieldname, value)
            if fieldname == "alive":
                self.state.living[agent.pos] += 1 if value else -1
            elif (fieldname == "food" or fieldname == "health") and value <= 0:
                self.dying.append(agent)
        self.ops.append(["agent", agent.id, fieldname, before, value])

    def set_node_stock(self, index: int, value: int) -> None:
        node = self.state.nodes[index]
        if node.stock == value:
            return
        self.ops.append(["node", index, "stock", node.stock, value])
        node.stock = value

    def spawn(self, agent: AgentState) -> None:
        self.state.agents[agent.id] = agent
        if agent.alive:
            self.state.living[agent.pos] += 1
        self.ops.append(["spawn", agent_snapshot(agent)])

