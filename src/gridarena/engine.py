"""Turn engine: observation building, batch decision collection, seeded
sequential resolution.

One turn runs in a fixed order:

1. upkeep: every living agent loses ``config.upkeep`` food (floor 0);
   agents at 0 food die now.
2. observations: every surviving agent gets an Observation built from the
   same post-upkeep snapshot.
3. decisions: policies are consulted in batch; a policy failure substitutes
   REST and logs a policy_fault record.
4. resolution: queued actions resolve one at a time in a seeded-random
   permutation of agent ids; an agent killed before its action resolves
   has it cancelled (outcome ``cancelled_dead``).
5. regen: nodes restock by ``regen`` up to their cap.
6. death sweep and turn_end bookkeeping; the turn counter increments.

``play_turn`` holds these rules; steps 2-3 are its callback, which asks the
policies in ``step`` and reads a log's decisions in ``gamelog.replay``.

The engine is policy-agnostic: ``policies`` is any object providing

    decide_all(observations: dict[int, Observation])
        -> dict[int, decision-or-Exception]
    evaluate_proposal(chooser: AgentState, view: ProposalView) -> bool

where a decision exposes ``action`` (an Action) and ``parse_status``
("ok" or "fallback"). ``policy.PolicyMap`` implements this protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator

from . import mating as _mating
from .actions import (
    Action,
    Attack,
    Communicate,
    DIRECTIONS,
    Gather,
    Move,
    REST,
    Reproduce,
    Rest,
    Trade,
    Train,
    render,
)
from .core import (
    AgentState,
    GameState,
    VARIANT_SEXUAL_SELECTION,
    VISION_RANGE,
    chebyshev,
)
from .gamelog import Delta, GameLog, end_event, header_event

TRADE_RANGE = 2
TRAIN_THRESHOLD = 10
ATTACK_TOKEN_COST = 1
RECENT_ACTION_WINDOW = 3

OUTCOME_OK = "ok"
OUTCOME_ACCEPTED = "accepted"
OUTCOME_REJECTED = "rejected"
OUTCOME_CANCELLED_DEAD = "cancelled_dead"

# Default mating costs only: the log header does not record them for replay.
MATING = _mating.MatingConfig()


# --------------------------------------------------------------------------
# Observations


@dataclass(frozen=True)
class NearbyAgent:
    """Another agent as seen by an observer: resources quantized by the
    observer's SOC, attributes only while revealed by a recent COMMUNICATE."""

    id: int
    pos: tuple[int, int]
    approx_food: int
    approx_tokens: int
    role: str | None
    vitality: int | None
    attrs: Any | None


@dataclass(frozen=True)
class ObservedNode:
    """Node terrain is public; ``stock`` is None beyond vision range."""

    pos: tuple[int, int]
    kind: str
    stock: int | None


@dataclass(frozen=True)
class Observation:
    agent: AgentState
    nearby: tuple[NearbyAgent, ...]
    nodes: tuple[ObservedNode, ...]
    recent_actions: tuple[str, ...]
    messages: tuple[tuple[int, str], ...]
    turn: int
    variant: str


def quantize(value: int, width: int) -> int:
    """Round to the nearest multiple of ``width`` (halves round up)."""
    return (value + width // 2) // width * width


def observe(state: GameState, agent_id: int) -> Observation:
    """Build one agent's view of the current state.

    Other agents are visible within Chebyshev distance 2; their resources
    are quantized to buckets of width max(1, 8 - SOC_observer) and their
    attributes are hidden unless currently revealed.
    """
    agent = state.agents[agent_id]
    sexual = state.config.engine_variant == VARIANT_SEXUAL_SELECTION
    width = max(1, 8 - agent.attrs.SOC)

    nearby = []
    for other in state.agents.values():
        if other.id == agent_id or not other.alive:
            continue
        if chebyshev(agent.pos, other.pos) > VISION_RANGE:
            continue
        revealed = other.revealed_until != 0 and other.revealed_until >= state.turn
        nearby.append(NearbyAgent(
            id=other.id,
            pos=other.pos,
            approx_food=quantize(other.food, width),
            approx_tokens=quantize(other.tokens, width),
            role=other.role if sexual else None,
            vitality=other.vitality if sexual else None,
            attrs=other.attrs if revealed else None,
        ))

    nodes = tuple(
        ObservedNode(
            pos=node.pos,
            kind=node.kind,
            stock=node.stock if chebyshev(agent.pos, node.pos) <= VISION_RANGE else None,
        )
        for node in state.nodes
    )

    me = replace(agent, train_progress=dict(agent.train_progress))
    return Observation(
        agent=me,
        nearby=tuple(nearby),
        nodes=nodes,
        recent_actions=tuple(state.recent_actions.get(agent_id, ())),
        messages=tuple(state.inbox.get(agent_id, ())),
        turn=state.turn,
        variant=state.config.engine_variant,
    )


# --------------------------------------------------------------------------
# Phase helpers


def apply_upkeep(state: GameState, delta: Delta) -> list[int]:
    """Charge every living agent the upkeep cost; 0 food is death."""
    deaths = []
    cost = state.config.upkeep
    if cost == 0:
        return deaths
    for agent in state.alive_agents():
        new_food = max(0, agent.food - cost)
        delta.set_agent(agent, "food", new_food)
        if new_food == 0:
            delta.set_agent(agent, "alive", False)
            deaths.append(agent.id)
    return deaths


def regen_nodes(state: GameState, delta: Delta) -> None:
    for index, node in enumerate(state.nodes):
        delta.set_node_stock(index, min(node.stock_cap, node.stock + node.regen))


def sweep_deaths(state: GameState, delta: Delta,
                 agents: list[AgentState] | None = None) -> list[int]:
    """Flip ``agents`` (default: the roster) whose food or health hit 0."""
    deaths = []
    for agent in state.alive_agents() if agents is None else agents:
        if agent.alive and (agent.food <= 0 or agent.health <= 0):
            delta.set_agent(agent, "alive", False)
            deaths.append(agent.id)
    return deaths


@dataclass(frozen=True)
class Termination:
    running: bool
    reason: str | None


def check_termination(state: GameState) -> Termination:
    """Last-survivor (one or zero agents left) is checked before max_turns."""
    if len(state.alive_agents()) <= 1:
        return Termination(False, "last_survivor")
    if state.turn >= state.config.max_turns:
        return Termination(False, "max_turns")
    return Termination(True, None)


# --------------------------------------------------------------------------
# Action resolution


def _resolve_gather(state: GameState, agent: AgentState, delta: Delta) -> str:
    index = state.node_index.get(agent.pos)
    if index is None:
        return "failed_no_node"
    node = state.nodes[index]
    if node.stock <= 0:
        return "failed_empty"
    amount = min(node.stock, 1 + math.ceil(agent.attrs.STR / 2))
    delta.set_node_stock(index, node.stock - amount)
    if node.kind == "food":
        delta.set_agent(agent, "food", agent.food + amount)
    else:
        delta.set_agent(agent, "tokens", agent.tokens + amount)
    return OUTCOME_OK


def _resolve_move(state: GameState, agent: AgentState, action: Move, delta: Delta) -> str:
    allowed = 2 if agent.attrs.SPD >= 5 else 1
    pos = agent.pos
    taken = 0
    for direction in action.steps[:allowed]:
        dx, dy = DIRECTIONS[direction]
        nxt = (pos[0] + dx, pos[1] + dy)
        if not state.in_bounds(nxt):
            break
        if state.occupancy(nxt) >= state.config.cell_capacity:
            break
        pos = nxt
        taken += 1
    if taken == 0:
        return "failed_blocked"
    delta.set_agent(agent, "pos", pos)
    return OUTCOME_OK


def _resolve_attack(state: GameState, agent: AgentState, action: Attack, delta: Delta) -> str:
    target = state.agents.get(action.target_id)
    if target is None or not target.alive or target.id == agent.id or target.pos != agent.pos:
        return "failed_bad_target"
    if agent.tokens < ATTACK_TOKEN_COST:
        return "failed_no_tokens"
    delta.set_agent(agent, "tokens", agent.tokens - ATTACK_TOKEN_COST)
    delta.set_agent(target, "health", max(0, target.health - agent.attrs.STR))
    return OUTCOME_OK


def trade_accept_probability(charisma: int) -> float:
    """Proposer charisma shifts acceptance around a 0.5 base, clamped to [0.10, 0.95]."""
    return max(0.10, min(0.95, 0.5 + 0.06 * (charisma - 4.5)))


def _resolve_trade(state: GameState, agent: AgentState, action: Trade, delta: Delta) -> str:
    target = state.agents.get(action.target_id)
    if target is None or not target.alive or target.id == agent.id:
        return "failed_bad_target"
    if chebyshev(agent.pos, target.pos) > TRADE_RANGE:
        return "failed_bad_target"
    if agent.food < action.offer_food or agent.tokens < action.offer_tokens:
        return "failed_insolvent"
    if target.food < action.request_food or target.tokens < action.request_tokens:
        return "failed_target_insolvent"
    if state.rng.random() >= trade_accept_probability(agent.attrs.CHA):
        return OUTCOME_REJECTED
    delta.set_agent(agent, "food", agent.food - action.offer_food + action.request_food)
    delta.set_agent(agent, "tokens", agent.tokens - action.offer_tokens + action.request_tokens)
    delta.set_agent(target, "food", target.food + action.offer_food - action.request_food)
    delta.set_agent(target, "tokens", target.tokens + action.offer_tokens - action.request_tokens)
    return OUTCOME_ACCEPTED


def _resolve_rest(agent: AgentState, delta: Delta) -> str:
    delta.set_agent(agent, "health", min(agent.max_health, agent.health + agent.attrs.END))
    return OUTCOME_OK


def _resolve_train(agent: AgentState, action: Train, delta: Delta) -> str:
    name = action.attribute
    progress = agent.train_progress.get(name, 0) + agent.attrs.INT
    if progress >= TRAIN_THRESHOLD:
        delta.set_agent(agent, f"attr:{name}", min(10, agent.attrs.get(name) + 1))
        delta.set_agent(agent, f"train:{name}", 0)
    else:
        delta.set_agent(agent, f"train:{name}", progress)
    return OUTCOME_OK


def resolve_action(state: GameState, agent: AgentState, action: Action, delta: Delta,
                   policies: Any, mating_cfg: "_mating.MatingConfig",
                   births: list[int]) -> str:
    """Resolve one queued action against live state. Returns the outcome tag."""
    if isinstance(action, Gather):
        return _resolve_gather(state, agent, delta)
    if isinstance(action, Move):
        return _resolve_move(state, agent, action, delta)
    if isinstance(action, Attack):
        return _resolve_attack(state, agent, action, delta)
    if isinstance(action, Trade):
        return _resolve_trade(state, agent, action, delta)
    if isinstance(action, Rest):
        return _resolve_rest(agent, delta)
    if isinstance(action, Train):
        return _resolve_train(agent, action, delta)
    if isinstance(action, (Communicate, Reproduce)):
        if state.config.engine_variant != VARIANT_SEXUAL_SELECTION:
            return "failed_unavailable"
        if isinstance(action, Communicate):
            return _mating.resolve_communicate(state, agent, action, delta, mating_cfg)
        outcome, _ = _mating.resolve_reproduce(state, agent, action, delta, mating_cfg,
                                               policies, births)
        return outcome
    raise TypeError(f"not an action: {action!r}")


# --------------------------------------------------------------------------
# The turn


@dataclass
class TurnLog:
    """Everything that happened in one turn, as ready-to-serialize events."""

    turn: int
    events: list[dict[str, Any]]
    deaths: list[int]
    births: list[int]


# A decided action: (action, fallback flag, policy fault text or None).
Plan = tuple[Action, bool, str | None]


def play_turn(state: GameState, policies: Any,
              decide: Callable[[list[int]], dict[int, Plan]]) -> Iterator[dict[str, Any]]:
    """Play one turn by the rules, mutating ``state`` and yielding each record
    as it is produced. ``decide(actors)`` gives the plans of the agents alive
    after upkeep; ``policies.evaluate_proposal`` answers REPRODUCE proposals."""
    turn = state.turn
    deaths: list[int] = []
    births: list[int] = []

    # 1. upkeep
    delta = Delta(state)
    upkeep_deaths = apply_upkeep(state, delta)
    deaths.extend(upkeep_deaths)
    yield {"type": "upkeep", "turn": turn, "delta": delta.ops, "deaths": upkeep_deaths}

    # 2-3. observations and decisions, from the post-upkeep state
    actors = [a.id for a in state.alive_agents()]
    plans = decide(actors)
    state.inbox = {}

    # 4. sequential resolution in seeded-random order
    order = sorted(actors)
    state.rng.shuffle(order)
    for aid in order:
        agent = state.agents[aid]
        action, fallback, fault = plans[aid]
        text = render(action)
        if fault is not None:
            yield {"type": "policy_fault", "turn": turn, "agent_id": aid, "error": fault}
        if not agent.alive:
            yield {"type": "action", "turn": turn, "agent_id": aid, "action": text,
                   "outcome": OUTCOME_CANCELLED_DEAD, "fallback": fallback, "delta": []}
            continue
        delta = Delta(state)
        outcome = resolve_action(state, agent, action, delta, policies, MATING, births)
        touched = sorted({op[1] for op in delta.ops if op[0] == "agent"})  # roster order
        deaths.extend(sweep_deaths(state, delta, [state.agents[i] for i in touched]))
        yield {"type": "action", "turn": turn, "agent_id": aid, "action": text,
               "outcome": outcome, "fallback": fallback, "delta": delta.ops}
        history = state.recent_actions.setdefault(aid, [])
        history.append(text)
        del history[:-RECENT_ACTION_WINDOW]

    # 5. node regeneration
    delta = Delta(state)
    regen_nodes(state, delta)
    yield {"type": "regen", "turn": turn, "delta": delta.ops}

    # 6. closing sweep (a no-op unless a resolution missed a death) and bookkeeping
    delta = Delta(state)
    deaths.extend(sweep_deaths(state, delta))
    state.turn = turn + 1
    yield {"type": "turn_end", "turn": turn, "deaths": deaths, "births": births,
           "delta": delta.ops}


def _plan(decision: Any) -> Plan:
    """A policy's answer as a plan; a missing or failed decision is REST."""
    if decision is None:
        return REST, True, "policy returned no decision"
    if isinstance(decision, BaseException):
        return REST, True, f"{type(decision).__name__}: {decision}"
    return decision.action, getattr(decision, "parse_status", "ok") != "ok", None


def step(state: GameState, policies: Any) -> tuple[GameState, TurnLog]:
    """Advance the game one full turn, mutating ``state`` in place."""

    def decide(actors: list[int]) -> dict[int, Plan]:
        observations = {aid: observe(state, aid) for aid in actors}
        decisions = policies.decide_all(observations) if actors else {}
        return {aid: _plan(decisions.get(aid)) for aid in actors}

    events = list(play_turn(state, policies, decide))
    end = events[-1]
    return state, TurnLog(turn=end["turn"], events=events, deaths=end["deaths"],
                          births=end["births"])


def run_game(state: GameState, policies: Any) -> GameLog:
    """Step ``state`` to termination and return the complete event log."""
    log = GameLog()
    log.append(header_event(state))
    while True:
        term = check_termination(state)
        if not term.running:
            break
        _, turn_log = step(state, policies)
        log.extend(turn_log.events)
    log.append(end_event(state, term.reason or "max_turns"))
    return log
