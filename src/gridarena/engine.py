"""Turn engine: observation building, batch decision collection, seeded
sequential resolution.

One turn runs in a fixed order:

1. upkeep: every living agent loses ``config.upkeep`` food (floor 0);
   agents at 0 food die now.
2. observations: every surviving agent gets an Observation of the same
   post-upkeep snapshot. Per turn, ``step`` indexes that snapshot once
   (``sight_index``): one immutable row per living agent, found by cell
   through a list with a slot per grid number, and one view of each node
   with its stock. ``observe`` itself takes only the observer's own copy,
   its recent actions and messages, the turn and the variant. ``nearby``,
   ``nodes`` and ``node_order`` are worked out from the index each time a
   policy reads them, so a random walker, which reads none, costs none of
   that work. Nothing changes the index, and it reads no live agent or node,
   so a view read after the turn resolves shows the turn's snapshot; a view
   reads only the rows within the observer's vision range. The index is
   dropped with the turn's last observation. Per game (``GameSight``), what
   never changes is worked out once: the all-hidden node views up front,
   and, the first time a view of an observer on a cell is read, one entry
   for that cell: the cells in its vision range, the nodes on them, and its
   node order (``Observation.node_order``: nodes by Manhattan distance).
3. decisions: a policy that overrides ``decide_batch`` is asked once for
   all its agents; every other policy is asked one agent at a time, in id
   order. A failed policy's decision is REST, and a policy_fault record
   precedes its action record.
4. resolution: queued actions resolve one at a time in a seeded-random
   permutation of agent ids; an agent killed before its action resolves
   has it cancelled (outcome ``cancelled_dead``).
5. regen: nodes restock by ``regen`` up to their cap.
6. turn_end bookkeeping (the turn's deaths and births); the turn counter
   increments. No death is left to sweep: steps 1 and 4 pass every agent
   whose food or health they set to 0 or below to ``sweep_deaths``, nothing
   else writes those fields and offspring start fed, so the turn_end
   ``delta`` is always empty.

``play_turn`` holds these rules; steps 2-3 are its callback, which asks the
policies in ``step`` and reads a log's decisions in ``gamelog.replay``; its
mapping is read once per actor, just before that actor's records are yielded.

The engine is policy-agnostic: ``policies`` is any object providing

    decide_all(observations: dict[int, Observation])
        -> dict[int, PolicyDecision]
    evaluate_proposal(chooser: AgentState, view: ProposalView) -> bool

where ``decide_all`` gives one ``actions.PolicyDecision`` per observation:
a failed policy's decision is a REST fallback whose ``error`` the engine
logs. The one exception it passes on is ``ViewError``, an engine fault in
working out a view, which stops the game. ``policy.PolicyMap`` implements
this protocol.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Any, Callable, Iterator, Mapping, NamedTuple

from . import mating as _mating
from .actions import (
    Action,
    Attack,
    Communicate,
    DIRECTIONS,
    Gather,
    Move,
    PolicyDecision,
    Reproduce,
    Rest,
    Trade,
    Train,
    render,
)
from .core import (
    ATTRIBUTE_MAX,
    AgentState,
    GameState,
    VARIANT_SEXUAL_SELECTION,
    VISION_RANGE,
    chebyshev,
    collector_paused,
    shuffle,
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

# --------------------------------------------------------------------------
# Observations


# A NamedTuple's or an Observation's ``__new__`` is a Python call; the tuple
# constructor makes the same object at under half the cost, and a turn makes
# an observation per agent and a view per agent in sight.
_make = tuple.__new__


class ViewError(RuntimeError):
    """The turn's ``SightIndex`` failed to work out an observation's view.

    Raised from the index's exception when a policy reads ``nearby``,
    ``nodes`` or ``node_order``. Unlike the policy's own exceptions it is
    not turned into a fault decision: it stops the game."""


def _view_error(obs: "Observation", name: str, exc: Exception) -> ViewError:
    return ViewError(f"agent {obs[0].id}'s {name} view: {type(exc).__name__}: {exc}")


class NearbyAgent(NamedTuple):
    """Another agent as seen by an observer: resources quantized by the
    observer's SOC, attributes only while revealed by a recent COMMUNICATE."""

    id: int
    pos: tuple[int, int]
    approx_food: int
    approx_tokens: int
    role: str | None
    vitality: int | None
    attrs: Any | None


class ObservedNode(NamedTuple):
    """Node terrain is public; ``stock`` is None beyond vision range."""

    pos: tuple[int, int]
    kind: str
    stock: int | None


class Observation(tuple):
    """One agent's view of one turn: an immutable value, read by field name.

    ``observe`` takes ``agent`` (the observer's own copy), ``recent_actions``,
    ``messages``, ``turn`` and ``variant`` when it is called. ``nearby``,
    ``nodes`` and ``node_order`` are worked out from the turn's
    ``SightIndex`` each time they are read: a policy that needs one twice
    keeps the value, and one that never reads it never pays for it. The
    index holds no live agent or node, so a policy may keep an observation,
    and read it, after its turn resolves. ``Observation(agent=..., ...)``
    builds one with every field given, and observations are equal when
    their fields are.
    ``node_order`` lists the indices into ``nodes`` by (Manhattan distance
    from the observer, pos), nearest first, so a scripted policy finds the
    nearest usable node without scanning them all; prompts do not show it.

    It is a tuple underneath, but not of its fields: read them by name."""

    __slots__ = ()
    _fields = ("agent", "nearby", "nodes", "node_order", "recent_actions", "messages",
               "turn", "variant")

    # Underneath: (agent, recent_actions, messages, turn, variant, views),
    # where ``views`` is the SightIndex the other fields are read from, or
    # the (nearby, nodes, node_order) given. One ``tuple.__new__`` makes it.
    def __new__(cls, agent: AgentState, nearby: tuple[NearbyAgent, ...],
                nodes: tuple[ObservedNode, ...], node_order: tuple[int, ...],
                recent_actions: tuple[str, ...], messages: tuple[tuple[int, str], ...],
                turn: int, variant: str) -> "Observation":
        return _make(cls, (agent, recent_actions, messages, turn, variant,
                           (nearby, nodes, node_order)))

    agent = property(itemgetter(0))
    recent_actions = property(itemgetter(1))
    messages = property(itemgetter(2))
    turn = property(itemgetter(3))
    variant = property(itemgetter(4))

    @property
    def nearby(self) -> tuple[NearbyAgent, ...]:
        views = self[5]
        try:
            return views[0] if type(views) is tuple else views.nearby_of(self[0])
        except Exception as exc:
            raise _view_error(self, "nearby", exc) from exc

    @property
    def nodes(self) -> tuple[ObservedNode, ...]:
        views = self[5]
        try:
            return views[1] if type(views) is tuple else views.nodes_at(self[0].pos)
        except Exception as exc:
            raise _view_error(self, "nodes", exc) from exc

    @property
    def node_order(self) -> tuple[int, ...]:
        views = self[5]
        try:
            return views[2] if type(views) is tuple else views.node_order_at(self[0].pos)
        except Exception as exc:
            raise _view_error(self, "node_order", exc) from exc

    def _values(self) -> tuple:
        """The fields, in ``_fields`` order."""
        return (self[0], self.nearby, self.nodes, self.node_order, *self[1:5])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Observation):
            return NotImplemented
        return self._values() == other._values()

    def __ne__(self, other: object) -> bool:
        if not isinstance(other, Observation):
            return NotImplemented
        return self._values() != other._values()

    def __getnewargs__(self) -> tuple:
        # a copy or a pickle is rebuilt with every field given
        return self._values()

    def __repr__(self) -> str:
        return "Observation(" + ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self._values())) + ")"


def quantize(value: int, width: int) -> int:
    """Round to the nearest multiple of ``width`` (halves round up)."""
    return (value + width // 2) // width * width


Cell = tuple[int, int]


class GameSight(NamedTuple):
    """What the cells of one game see. Nodes never move and the grid never
    changes, so it holds for the whole game; ``_game_sight`` makes it, with
    ``hidden`` and ``by_pos``, on the game's first index. ``cells`` gets a
    cell's entry (``_cell_sight``), keyed by its grid number (x + y * width,
    the index ``GameConfig.cell_at`` takes), the first time a view of an
    observer on that cell is read; every later read from it uses the entry.
    Its tables are ``array``s of ints, which hold no objects to free when
    the game's state goes; a read of a node order gets a tuple copy."""

    hidden: tuple[ObservedNode, ...]  # every node's terrain, stock unseen
    by_pos: array  # node indices by pos
    cells: dict[int, tuple[array, array, array]]  # grid number -> _cell_sight


def _game_sight(state: GameState) -> GameSight:
    """``state``'s per-game sight, made on first use in O(nodes log nodes)."""
    sight = state.sight
    if sight is None:
        sight = state.sight = GameSight(
            hidden=tuple(ObservedNode(node.pos, node.kind, None) for node in state.nodes),
            by_pos=array("I", sorted(range(len(state.nodes)), key=lambda r: state.nodes[r].pos)),
            cells={})
    return sight


def _cell_sight(sight: GameSight, width: int, height: int, pos: Cell
                ) -> tuple[array, array, array]:
    """What an observer on ``pos`` of a ``width`` x ``height`` grid sees all
    game: the grid numbers of the in-bounds cells within ``VISION_RANGE``
    (its reach), the indices of the nodes on those cells, and the node
    indices by (Manhattan distance from ``pos``, pos), a stable sort of
    ``sight.by_pos`` by distance."""
    x, y = pos
    xs = range(max(0, x - VISION_RANGE), min(width, x + VISION_RANGE + 1))
    ys = range(max(0, y - VISION_RANGE), min(height, y + VISION_RANGE + 1))
    nodes = [node_pos for node_pos, _, _ in sight.hidden]
    distance = [abs(nx - x) + abs(ny - y) for nx, ny in nodes]
    return (array("I", [cx + cy * width for cx in xs for cy in ys]),
            array("I", [rank for rank, (nx, ny) in enumerate(nodes) if nx in xs and ny in ys]),
            array("I", sorted(sight.by_pos, key=distance.__getitem__)))


# A living agent as every observer of one turn sees it before quantizing:
# (id, pos, food, tokens, role, vitality, attrs). Role and vitality are None
# outside sexual_selection, attrs None unless revealed this turn.
Row = tuple[int, Cell, int, int, str | None, int | None, Any]


@dataclass(frozen=True)
class SightIndex:
    """The snapshot of one turn that its observations read their views from.

    Made with the turn, in O(agents + nodes + cells), and never changed:
    ``rows`` holds one immutable row per living agent and ``views`` one view
    of each node with its stock, so nothing here reads the live agents or
    nodes again; ``cells``, a list with one slot per grid number, holds the
    positions in ``rows`` of the agents on each cell. Each read of a view
    works it out again from these and ``sight``'s entry for the observer's
    cell. Everything but ``sight`` is dropped with the last observation
    that holds the index."""

    rows: list[Row]  # roster order
    cells: list[tuple[int, ...]]  # grid number -> positions in ``rows``
    views: list[ObservedNode]  # ``state.nodes`` order, stock seen
    sight: GameSight
    width: int
    height: int

    def _entry(self, pos: Cell) -> tuple[array, array, array]:
        """``sight``'s entry for ``pos``, made on first use."""
        cells, number = self.sight.cells, pos[0] + pos[1] * self.width
        if number not in cells:
            cells[number] = _cell_sight(self.sight, self.width, self.height, pos)
        return cells[number]

    def nearby_of(self, agent: AgentState) -> tuple[NearbyAgent, ...]:
        """``agent``'s ``nearby``: the others in sight, resources quantized."""
        ranks: list[int] = []
        cells = self.cells
        for near in self._entry(agent.pos)[0]:
            found = cells[near]
            if found:
                ranks += found
        ranks.sort()
        rows = self.rows
        agent_id = agent.id
        width = max(1, 8 - agent.attrs.SOC)
        return tuple([
            _make(NearbyAgent, (other_id, pos, quantize(food, width),
                                quantize(tokens, width), role, vitality, attrs))
            for other_id, pos, food, tokens, role, vitality, attrs in map(rows.__getitem__, ranks)
            if other_id != agent_id])

    def nodes_at(self, pos: Cell) -> tuple[ObservedNode, ...]:
        """Every node's terrain, with this turn's stock of those in sight."""
        in_sight = self._entry(pos)[1]
        if not in_sight:
            return self.sight.hidden
        shown = list(self.sight.hidden)
        for rank in in_sight:
            shown[rank] = self.views[rank]
        return tuple(shown)

    def node_order_at(self, pos: Cell) -> tuple[int, ...]:
        """The node indices nearest ``pos`` first (``Observation.node_order``)."""
        return tuple(self._entry(pos)[2])


def sight_index(state: GameState) -> SightIndex:
    """Index ``state`` for ``observe``: O(agents + nodes + cells)."""
    config = state.config
    sexual = config.engine_variant == VARIANT_SEXUAL_SELECTION
    width = config.grid_width
    turn = state.turn
    rows: list[Row] = []
    cells: list[tuple[int, ...]] = [()] * config.area
    for agent in state.alive_agents():
        x, y = pos = agent.pos
        cells[x + y * width] += (len(rows),)
        rows.append((agent.id, pos, agent.food, agent.tokens,
                     agent.role if sexual else None,
                     agent.vitality if sexual else None,
                     agent.attrs if agent.revealed(turn) else None))
    views = [_make(ObservedNode, (node.pos, node.kind, node.stock)) for node in state.nodes]
    return SightIndex(rows=rows, cells=cells, views=views, sight=_game_sight(state),
                      width=width, height=config.grid_height)


def observe(state: GameState, agent_id: int, index: SightIndex | None = None) -> Observation:
    """Build one agent's view of the current state.

    Other agents are visible within Chebyshev distance 2; their resources
    are quantized to buckets of width max(1, 8 - SOC_observer) and their
    attributes are hidden unless currently revealed. ``nearby`` keeps roster
    order, ``nodes`` keeps ``state.nodes`` order and ``node_order`` lists
    the node indices nearest first (see ``Observation``).

    ``index`` must be ``sight_index`` of this same state, unchanged since;
    ``step`` builds it once per turn. The call copies the observer, its
    recent actions and its messages, and leaves the views to the index
    (see ``SightIndex``): each read of ``nearby`` costs O(agents in vision
    range), and each read of ``nodes`` or ``node_order`` O(nodes). Without
    ``index`` the call indexes the state itself: O(agents + nodes + cells).
    """
    if index is None:
        index = sight_index(state)
    return _make(Observation, (
        state.agents[agent_id].snapshot(),
        tuple(state.recent_actions.get(agent_id, ())),
        tuple(state.inbox.get(agent_id, ())),
        state.turn,
        state.config.engine_variant,
        index,
    ))


# --------------------------------------------------------------------------
# Phase helpers


def apply_upkeep(state: GameState, delta: Delta) -> list[int]:
    """Charge every living agent the upkeep cost; 0 food is death."""
    deaths = []
    cost = state.config.upkeep
    if cost == 0:
        return deaths
    for agent in state.alive_agents():
        delta.set_agent(agent, "food", max(0, agent.food - cost))
        if agent.food == 0:
            deaths += sweep_deaths(state, delta, [agent])
    return deaths


def regen_nodes(state: GameState, delta: Delta) -> None:
    for index, node in enumerate(state.nodes):
        delta.set_node_stock(index, min(node.stock_cap, node.stock + node.regen))


def sweep_deaths(state: GameState, delta: Delta, agents: list[AgentState]) -> list[int]:
    """Flip to dead each of ``agents``, in order, that is alive with food or
    health at 0 or below, and return their ids. It is the only code that
    kills: upkeep passes each agent it starves, and a resolution the agents
    its delta noted as ``dying``."""
    deaths = []
    for agent in agents:
        if agent.alive and (agent.food <= 0 or agent.health <= 0):
            delta.set_agent(agent, "alive", False)
            deaths.append(agent.id)
    return deaths


def check_termination(state: GameState) -> str | None:
    """The reason the game ends, or None while it runs. Last-survivor (one
    or zero agents left) is checked before max_turns."""
    if len(state.alive_agents()) <= 1:
        return "last_survivor"
    if state.turn >= state.config.max_turns:
        return "max_turns"
    return None


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
    pos = agent.pos
    taken = 0
    for direction in action.steps[:agent.move_steps]:
        dx, dy = DIRECTIONS[direction]
        nxt = (pos[0] + dx, pos[1] + dy)
        if not state.config.in_bounds(nxt):
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
        delta.set_agent(agent, f"attr:{name}", min(ATTRIBUTE_MAX, agent.attrs.get(name) + 1))
        delta.set_agent(agent, f"train:{name}", 0)
    else:
        delta.set_agent(agent, f"train:{name}", progress)
    return OUTCOME_OK


def resolve_action(state: GameState, agent: AgentState, action: Action, delta: Delta,
                   policies: Any, births: list[int]) -> str:
    """Resolve one queued action against live state. Returns the outcome tag;
    an offspring's id is appended to ``births``."""
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
            return _mating.resolve_communicate(state, agent, action, delta)
        outcome, child = _mating.resolve_reproduce(state, agent, action, delta, policies)
        if child is not None:
            births.append(child.id)
        return outcome
    raise TypeError(f"not an action: {action!r}")


# --------------------------------------------------------------------------
# The turn


# Ids are given out in increasing order, so the roster is in id order.
_roster_order = attrgetter("id")


def play_turn(state: GameState, policies: Any,
              decide: Callable[[list[int]], Mapping[int, PolicyDecision]]
              ) -> Iterator[dict[str, Any]]:
    """Play one turn by the rules, mutating ``state`` and yielding each record
    as it is produced. ``decide(actors)`` maps the agents alive after upkeep to
    their decisions, each read just before that agent's records are yielded;
    ``policies.evaluate_proposal`` answers REPRODUCE proposals as they resolve."""
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
    decisions = decide(actors)
    state.inbox = {}

    # 4. sequential resolution in seeded-random order
    order = sorted(actors)
    shuffle(state.rng, order)
    for aid in order:
        agent = state.agents[aid]
        decision = decisions[aid]
        text = render(decision.action)
        if decision.error is not None:
            yield {"type": "policy_fault", "turn": turn, "agent_id": aid, "error": decision.error}
        fallback = decision.parse_status != "ok"
        if not agent.alive:
            yield {"type": "action", "turn": turn, "agent_id": aid, "action": text,
                   "outcome": OUTCOME_CANCELLED_DEAD, "fallback": fallback, "delta": []}
            continue
        delta = Delta(state)
        outcome = resolve_action(state, agent, decision.action, delta, policies, births)
        if delta.dying:  # only an agent whose food or health fell to 0 can die here
            deaths.extend(sweep_deaths(state, delta, sorted(delta.dying, key=_roster_order)))
        yield {"type": "action", "turn": turn, "agent_id": aid, "action": text,
               "outcome": outcome, "fallback": fallback, "delta": delta.ops}
        history = state.recent_actions.setdefault(aid, [])
        history.append(text)
        del history[:-RECENT_ACTION_WINDOW]

    # 5. node regeneration
    delta = Delta(state)
    regen_nodes(state, delta)
    yield {"type": "regen", "turn": turn, "delta": delta.ops}

    # 6. bookkeeping
    state.turn = turn + 1
    yield {"type": "turn_end", "turn": turn, "deaths": deaths, "births": births, "delta": []}


def step(state: GameState, policies: Any) -> list[dict[str, Any]]:
    """Advance the game one full turn, mutating ``state`` in place, and
    return the turn's records."""

    def decide(actors: list[int]) -> dict[int, PolicyDecision]:
        index = sight_index(state)
        observations = {aid: observe(state, aid, index) for aid in actors}
        return policies.decide_all(observations) if actors else {}

    return list(play_turn(state, policies, decide))


def run_game(state: GameState, policies: Any,
             sink: Callable[[list[dict[str, Any]]], None] | None = None) -> GameLog:
    """Step ``state`` to termination and return the complete event log.

    ``sink``, if given, is called with the records as they are appended:
    the header, each turn's records just after ``step`` returns them, and
    the end record (``metrics.Summarizer`` is one).

    Python's cyclic garbage collector is paused, process-wide, while the
    game plays, and left on or off afterwards as it was found, on error too.
    Unless something is already frozen, the game's state and log then sit
    in the collector's oldest generation, which only a full collection walks
    (see ``core.collector_paused``).
    """
    # A game's records and state hold no reference cycles, so a collection
    # during the game, or a young one after it, would only re-walk the log.
    with collector_paused():
        log = GameLog()

        def add(records: list[dict[str, Any]]) -> None:
            log.extend(records)
            if sink is not None:
                sink(records)

        add([header_event(state)])
        while (reason := check_termination(state)) is None:
            add(step(state, policies))
        add([end_event(state, reason)])
        return log
