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

A delta is a list of atomic ops, each verifiable on replay:

    ["agent", id, field, before, after]   field may be "pos", "attr:STR",
                                          "train:STR", or a plain field name
    ["node", index, "stock", before, after]
    ["spawn", agent_snapshot]

``replay`` folds deltas over the header snapshots, checking every ``before``
value and the cell-capacity bound on the way, and finally compares the folded
state against the end-record snapshots. It doubles as the integrity checker.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from .core import AgentState, GameConfig, GameState, ResourceNode

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
    """Replay diverged from the recorded deltas or snapshots."""


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


def _snapshot_to_comparable(snap: dict[str, Any]) -> dict[str, Any]:
    out = copy.deepcopy(snap)
    out["train_progress"] = {k: v for k, v in out.get("train_progress", {}).items() if v != 0}
    return out


class _Replayer:
    def __init__(self, header: dict[str, Any]):
        self.config = GameConfig(**header["config"])
        self.agents: dict[int, dict[str, Any]] = {
            snap["id"]: copy.deepcopy(snap) for snap in header["agents"]
        }
        self.nodes: list[dict[str, Any]] = [copy.deepcopy(s) for s in header["nodes"]]
        self.turn = 0

    def apply_delta(self, ops: list[Any], where: str) -> None:
        for op in ops:
            self.apply_op(op, where)
        self.check_occupancy(where)

    def apply_op(self, op: list[Any], where: str) -> None:
        tag = op[0]
        if tag == "spawn":
            snap = op[1]
            if snap["id"] in self.agents:
                raise ReplayError(f"{where}: spawn of existing agent {snap['id']}")
            self.agents[snap["id"]] = copy.deepcopy(snap)
            return
        if tag == "agent":
            _, agent_id, fieldname, before, after = op
            agent = self.agents.get(agent_id)
            if agent is None:
                raise ReplayError(f"{where}: unknown agent {agent_id}")
            if fieldname.startswith("attr:"):
                holder, key = agent["attrs"], fieldname[5:]
                current = holder.get(key)
            elif fieldname.startswith("train:"):
                holder, key = agent["train_progress"], fieldname[6:]
                current = holder.get(key, 0)
            else:
                holder, key = agent, fieldname
                current = holder.get(key)
            if current != before:
                raise ReplayError(
                    f"{where}: agent {agent_id} {fieldname} is {current!r}, "
                    f"delta expected {before!r}")
            holder[key] = after
            return
        if tag == "node":
            _, index, fieldname, before, after = op
            if fieldname != "stock" or not 0 <= index < len(self.nodes):
                raise ReplayError(f"{where}: bad node op {op!r}")
            current = self.nodes[index]["stock"]
            if current != before:
                raise ReplayError(
                    f"{where}: node {index} stock is {current}, delta expected {before}")
            self.nodes[index]["stock"] = after
            return
        raise ReplayError(f"{where}: unknown delta op {op!r}")

    def check_occupancy(self, where: str) -> None:
        counts: dict[tuple[int, int], int] = {}
        for agent in self.agents.values():
            if agent["alive"]:
                key = tuple(agent["pos"])
                counts[key] = counts.get(key, 0) + 1
        for pos, count in counts.items():
            if count > self.config.cell_capacity:
                raise ReplayError(f"{where}: cell {pos} holds {count} alive agents, "
                                  f"capacity {self.config.cell_capacity}")


@dataclass
class ReplayResult:
    turns: int
    events: int
    survivors: int
    reason: str


def replay(log: GameLog) -> ReplayResult:
    """Fold every delta over the header snapshots, verifying before-values,
    occupancy, and the final snapshots. Raises ReplayError on divergence,
    and on a record too malformed to fold (a missing key, a short delta op),
    naming its line."""
    events = log.events
    if not events or events[0]["type"] != "header":
        raise ReplayError("log does not start with a header record")
    if events[-1]["type"] != "end":
        raise ReplayError("log does not finish with an end record")
    where = "line 1 (header)"
    try:
        rep = _Replayer(events[0])
        for i, event in enumerate(events[1:-1], start=2):
            where = f"line {i} ({event['type']})"
            etype = event["type"]
            if etype in ("header", "end"):
                raise ReplayError(f"{where}: unexpected {etype} record mid-log")
            if etype in ("upkeep", "action", "regen", "turn_end"):
                rep.apply_delta(event["delta"], where)
            if etype == "turn_end":
                if event["turn"] != rep.turn:
                    raise ReplayError(f"{where}: turn {event['turn']}, replay at {rep.turn}")
                rep.turn += 1
            for agent_id in event.get("deaths", []):
                if rep.agents[agent_id]["alive"]:
                    raise ReplayError(f"{where}: agent {agent_id} listed dead but alive in replay")
        where = f"line {len(events)} (end)"
        return _check_end(rep, events[-1], len(events))
    except ReplayError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise ReplayError(f"{where}: malformed record ({type(exc).__name__}: {exc})") from exc


def _check_end(rep: _Replayer, end: dict[str, Any], n_events: int) -> ReplayResult:
    if end["turn"] != rep.turn:
        raise ReplayError(f"end record turn {end['turn']}, replay reached {rep.turn}")
    for snap in end["agents"]:
        got = _snapshot_to_comparable(rep.agents.get(snap["id"], {}))
        want = _snapshot_to_comparable(snap)
        if got != want:
            raise ReplayError(f"final agent {snap['id']} mismatch:\n  replay {got}\n  log    {want}")
    if len(rep.agents) != len(end["agents"]):
        raise ReplayError("replay and end record disagree on roster size")
    if len(rep.nodes) != len(end["nodes"]):
        raise ReplayError("replay and end record disagree on node count")
    for index, snap in enumerate(end["nodes"]):
        if rep.nodes[index] != snap:
            raise ReplayError(f"final node {index} mismatch: replay {rep.nodes[index]}, log {snap}")
    alive_ids = [agent_id for agent_id, agent in rep.agents.items() if agent["alive"]]
    if alive_ids != end["alive_ids"] or len(alive_ids) != end["survivors"]:
        raise ReplayError(f"end record says {end['survivors']} survivors {end['alive_ids']}, "
                          f"replay has {len(alive_ids)} {alive_ids}")
    return ReplayResult(turns=rep.turn, events=n_events, survivors=len(alive_ids),
                        reason=end["reason"])


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

