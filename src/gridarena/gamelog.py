"""Event-sourced game log: line-delimited JSON with replayable state deltas.

One record per line, ``type`` first. Field order is fixed and all state
values are integers, so identical runs serialize byte for byte. Record
types, in the order they appear in a log::

    header    config + initial agent/node snapshots
    upkeep    per-turn food deduction (delta, deaths)
    policy_fault  a policy raised; REST was substituted for that agent
    action    one resolved action (agent_id, action text, outcome, fallback, delta)
    regen     node restock (delta)
    turn_end  deaths and births of the completed turn (plus a closing
              death-sweep delta, normally empty)
    end       termination reason, survivor count, final snapshots

A delta is a list of atomic ops:

    ["agent", id, field, before, after]   field may be "pos", "attr:STR",
                                          "train:STR", or a plain field name
    ["node", index, "stock", before, after]
    ["spawn", agent_snapshot]

``replay`` is the integrity checker: it re-executes the game with the
engine's rules and compares every record. Decisions are read from the log
(action text, fallback flag, policy faults, a chooser's accept/reject);
everything else (snapshots, deltas, outcomes, order, deaths, births, the end
record) is re-derived.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from .actions import REST, parse_action
from .core import AgentState, GameConfig, GameState, ResourceNode, new_game

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

EVENT_TYPES = tuple(RECORD_KEYS)


class LogError(ValueError):
    """Malformed log line; message carries the 1-based line number."""


class ReplayError(ValueError):
    """Re-execution diverged from the log, or the log is unusable."""


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


def config_snapshot(config: GameConfig) -> dict[str, Any]:
    return {name: getattr(config, name) for name in GameConfig.FIELDS}


def header_event(state: GameState) -> dict[str, Any]:
    return {
        "type": "header",
        "version": LOG_VERSION,
        "config": config_snapshot(state.config),
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


def _dumps(event: dict[str, Any]) -> str:
    return json.dumps(event, separators=(",", ":"), ensure_ascii=False)


@dataclass
class GameLog:
    """Ordered event records of one game. Append-only."""

    events: list[dict[str, Any]]

    def __init__(self, events: Iterable[dict[str, Any]] = ()):
        self.events = list(events)

    def append(self, event: dict[str, Any]) -> None:
        etype = event.get("type")
        if etype not in EVENT_TYPES:
            raise LogError(f"unknown event type {etype!r}")
        self.events.append(event)

    def extend(self, events: Iterable[dict[str, Any]]) -> None:
        for event in events:
            self.append(event)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

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
        return GameConfig(**self.header["config"])

    def lines(self) -> Iterator[str]:
        return (_dumps(e) for e in self.events)

    def to_text(self) -> str:
        return "".join(line + "\n" for line in self.lines())

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.lines():
                fh.write(line + "\n")

    def sha256(self) -> str:
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()

    @classmethod
    def from_text(cls, text: str) -> "GameLog":
        log = cls()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise LogError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(event, dict) or event.get("type") not in EVENT_TYPES:
                raise LogError(f"line {lineno}: not a known event record")
            required = RECORD_KEYS[event["type"]]
            if not required <= event.keys():
                missing = ", ".join(sorted(required - event.keys()))
                raise LogError(f"line {lineno}: {event['type']} record lacks {missing}")
            log.events.append(event)
        return log

    @classmethod
    def read(cls, path) -> "GameLog":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())


# --------------------------------------------------------------------------
# Replay


@dataclass
class ReplayResult:
    turns: int
    events: int
    survivors: int
    reason: str


def _shown(record: dict[str, Any], key: str) -> str:
    text = json.dumps(record[key]) if key in record else "absent"
    return text if len(text) <= 120 else text[:117] + "..."


class _Script:
    """The logged side of a replay: it serves the engine the decisions a log
    records, and checks each record the rules produce against the log."""

    def __init__(self, events: list[dict[str, Any]]):
        self.events = events
        self.at = 0                           # index of the record being read or checked
        self.proposals: dict[int, int] = {}   # proposer id -> index of its action record

    def where(self, index: int | None = None) -> str:
        index = self.at if index is None else index
        return f"line {index + 1} ({self.events[index]['type']})"

    def check(self, produced: dict[str, Any]) -> None:
        logged = self.events[self.at]
        if logged != produced:
            key = next(k for k in [*produced, *logged] if k not in logged
                       or k not in produced or logged[k] != produced[k])
            raise ReplayError(f"{self.where()}: {key} is {_shown(logged, key)} in the log, "
                              f"{_shown(produced, key)} on re-execution")
        self.at += 1

    def plans(self, actors: list[int]) -> dict[int, Any]:
        """This turn's plans, read from the policy_fault and action records
        that follow its upkeep record: the action text, the fallback flag and
        any fault text. A fault always comes with REST."""
        start, plans = self.at, {}
        self.proposals = {}
        while self.events[self.at]["type"] in ("policy_fault", "action"):
            record = self.events[self.at]
            agent_id = record["agent_id"]
            if record["type"] == "policy_fault":
                if not isinstance(record["error"], str):
                    raise ReplayError(f"{self.where()}: error is not a string")
                plans[agent_id] = (REST, True, record["error"])
            elif agent_id not in plans:
                if not isinstance(record["fallback"], bool):
                    raise ReplayError(f"{self.where()}: fallback is not true or false")
                plans[agent_id] = (parse_action(record["action"]), record["fallback"], None)
                self.proposals[agent_id] = self.at
            self.at += 1
        self.at = start
        for agent_id in actors:
            # a placeholder for a missing action record; its record cannot match
            plans.setdefault(agent_id, (REST, False, None))
        return plans

    def evaluate_proposal(self, chooser: AgentState, view: Any) -> bool:
        """A chooser's verdict is the proposer's logged REPRODUCE outcome."""
        index = self.proposals[view.provider_id]
        outcome = self.events[index]["outcome"]
        if outcome not in ("accepted", "rejected"):
            raise ReplayError(f"{self.where(index)}: the rules have agent {chooser.id} "
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
    if not events or events[0]["type"] != "header":
        raise ReplayError("log does not start with a header record")
    if events[-1]["type"] != "end":
        raise ReplayError("log does not finish with an end record")
    script = _Script(events)
    try:
        # the header's own snapshots bound the set-up work by the size of the log
        header, config = events[0], events[0]["config"]
        if (len(header["agents"]) != config["n_agents"]
                or len(header["nodes"]) != config["n_food_nodes"] + config["n_token_nodes"]):
            raise ReplayError(f"{script.where()}: snapshot counts differ from the config")
        state = new_game(GameConfig(**config))
        script.check(header_event(state))
        while (term := engine.check_termination(state)).running:
            for record in engine.play_turn(state, script, script.plans):
                script.check(record)
        script.check(end_event(state, term.reason or "max_turns"))
    except ReplayError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise ReplayError(f"{script.where()}: malformed record "
                          f"({type(exc).__name__}: {exc})") from exc
    if script.at != len(events):
        raise ReplayError(f"{script.where()}: record after the end of the game")
    return ReplayResult(turns=state.turn, events=len(events),
                        survivors=len(state.alive_agents()), reason=term.reason or "max_turns")


# --------------------------------------------------------------------------
# Delta recorder used by the engine


class Delta:
    """Applies mutations to live state while recording verifiable ops.

    Routing every write through here keeps the log and the state consistent
    by construction.
    """

    def __init__(self, state: GameState):
        self.state = state
        self.ops: list[list[Any]] = []

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
            agent.pos = (value[0], value[1])
        else:
            before = getattr(agent, fieldname)
            if before == value:
                return
            setattr(agent, fieldname, value)
        self.ops.append(["agent", agent.id, fieldname, before, value])

    def set_node_stock(self, index: int, value: int) -> None:
        node = self.state.nodes[index]
        if node.stock == value:
            return
        self.ops.append(["node", index, "stock", node.stock, value])
        node.stock = value

    def spawn(self, agent: AgentState) -> None:
        self.state.agents[agent.id] = agent
        self.ops.append(["spawn", agent_snapshot(agent)])

