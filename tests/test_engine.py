"""Turn mechanics: upkeep, observation, each action resolver, turn order,
termination, and fault isolation."""

import copy
import gc
import os
import socket
import subprocess
import sys
import weakref
from array import array
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from gridarena import engine
from gridarena.actions import (
    Attack,
    Communicate,
    GATHER,
    Move,
    REST,
    Reproduce,
    Trade,
    Train,
)
from gridarena.core import (
    ROLE_CHOOSER,
    ROLE_NONE,
    ROLE_PROVIDER,
    VARIANT_SEXUAL_SELECTION,
    VARIANTS,
    VISION_RANGE,
    Attributes,
    GameConfig,
    chebyshev,
    manhattan,
    new_game,
    shuffle,
)
from gridarena.cli import main
from gridarena.engine import (
    GameSight,
    NearbyAgent,
    Observation,
    ObservedNode,
    apply_upkeep,
    check_termination,
    observe,
    quantize,
    resolve_action,
    run_game,
    sight_index,
    step,
    sweep_deaths,
    trade_accept_probability,
)
from gridarena.gamelog import Delta, GameLog, end_event, header_event, replay
from gridarena.gateway import GatewayConfig
from gridarena.harness import PRESETS, build_policy_map
from gridarena.policy import LLMPolicy, Policy, PolicyDecision, PolicyMap, make_scripted

from conftest import (
    CROWD_SHAPED_POLICIES,
    KEY_ENV,
    crowd_shaped_game,
    flat_attrs,
    food_node,
    gateway_config,
    make_agent,
    make_state,
    preset_game,
    promotes,
    small_config,
    token_node,
    young,
)


def resolve(state, agent, action, policies=None, births=None):
    delta = Delta(state)
    outcome = resolve_action(state, agent, action, delta, policies,
                             births if births is not None else [])
    return outcome, delta.ops


class Plan(Policy):
    """Maps each agent id to a fixed action (or exception) for one test turn."""

    def __init__(self, plans):
        self.plans = plans

    def decide(self, obs):
        planned = self.plans.get(obs.agent.id, REST)
        if isinstance(planned, Exception):
            raise planned
        return PolicyDecision(action=planned)


def plan_map(plans):
    policy = Plan(plans)
    return PolicyMap(lambda agent: policy)


# --------------------------------------------------------------------------
# Upkeep


def test_upkeep_subtracts_and_floors():
    a = make_agent(0, (0, 0), food=5)
    b = make_agent(1, (1, 0), food=2)
    state = make_state([a, b], config=small_config(n_agents=2, upkeep=3,
                                                   n_food_nodes=0, n_token_nodes=0))
    delta = Delta(state)
    deaths = apply_upkeep(state, delta)
    assert a.food == 2 and a.alive
    assert b.food == 0 and not b.alive
    assert deaths == [1]


def test_upkeep_zero_is_a_no_op():
    a = make_agent(0, (0, 0), food=5)
    state = make_state([a], config=small_config(n_agents=1, upkeep=0,
                                                n_food_nodes=0, n_token_nodes=0))
    delta = Delta(state)
    assert apply_upkeep(state, delta) == []
    assert a.food == 5 and delta.ops == []


# --------------------------------------------------------------------------
# Observation


def test_quantize_widths():
    assert quantize(37, 6) == 36
    assert quantize(40, 6) == 42
    assert quantize(5, 1) == 5
    assert quantize(0, 8) == 0


def test_observation_vision_and_quantization():
    me = make_agent(0, (2, 2), attrs=flat_attrs(5))  # SOC 5 -> width 3
    near = make_agent(1, (4, 4), food=37, tokens=8)
    far = make_agent(2, (0, 5))
    state = make_state([me, near, far],
                       nodes=[food_node((2, 2), stock=4), token_node((4, 2)),
                              food_node((0, 5))],
                       config=small_config(n_agents=3, grid_width=6, grid_height=6,
                                           n_food_nodes=0, n_token_nodes=0))
    obs = observe(state, 0)
    assert [n.id for n in obs.nearby] == [1]
    seen = obs.nearby[0]
    assert seen.approx_food == quantize(37, 3) == 36
    assert seen.approx_tokens == quantize(8, 3) == 9
    assert seen.role is None and seen.vitality is None and seen.attrs is None
    assert {(n.pos, n.kind) for n in obs.nodes} == \
           {((2, 2), "food"), ((4, 2), "token"), ((0, 5), "food")}
    stocks = {n.pos: n.stock for n in obs.nodes}
    assert stocks[(2, 2)] == 4 and stocks[(4, 2)] == 5
    assert stocks[(0, 5)] is None  # terrain is public, stock needs vision


def test_observation_reveal_window():
    me = make_agent(0, (2, 2))
    other = make_agent(1, (3, 2), role="provider", vitality=9, revealed_until=6)
    cfg = small_config(n_agents=2, engine_variant=VARIANT_SEXUAL_SELECTION,
                       n_food_nodes=0, n_token_nodes=0)
    state = make_state([me, other], config=cfg)
    state.turn = 6
    seen = observe(state, 0).nearby[0]
    assert seen.role == "provider" and seen.vitality == 9
    assert seen.attrs == other.attrs
    state.turn = 7  # window closed
    seen = observe(state, 0).nearby[0]
    assert seen.role == "provider" and seen.vitality == 9  # public in this variant
    assert seen.attrs is None


def scan_observe(state, agent_id):
    """Reference observation: scan the whole roster and every node, keeping
    what lies within Chebyshev distance ``VISION_RANGE``."""
    agent = state.agents[agent_id]
    sexual = state.config.engine_variant == VARIANT_SEXUAL_SELECTION
    width = max(1, 8 - agent.attrs.SOC)
    nearby = tuple(
        NearbyAgent(id=other.id, pos=other.pos,
                    approx_food=quantize(other.food, width),
                    approx_tokens=quantize(other.tokens, width),
                    role=other.role if sexual else None,
                    vitality=other.vitality if sexual else None,
                    attrs=other.attrs if other.revealed(state.turn) else None)
        for other in state.agents.values()
        if other.id != agent_id and other.alive
        and chebyshev(agent.pos, other.pos) <= VISION_RANGE)
    nodes = tuple(
        ObservedNode(pos=node.pos, kind=node.kind,
                     stock=node.stock if chebyshev(agent.pos, node.pos) <= VISION_RANGE
                     else None)
        for node in state.nodes)
    node_order = tuple(sorted(range(len(nodes)),
                              key=lambda rank: (manhattan(agent.pos, nodes[rank].pos),
                                                nodes[rank].pos)))
    return Observation(
        agent=replace(agent, train_progress=dict(agent.train_progress)),
        nearby=nearby, nodes=nodes, node_order=node_order,
        recent_actions=tuple(state.recent_actions.get(agent_id, ())),
        messages=tuple(state.inbox.get(agent_id, ())),
        turn=state.turn, variant=state.config.engine_variant)


@st.composite
def sight_worlds(draw):
    """A small world as plain data: grids down to one cell wide, cells
    stacked up to capacity, dead agents, ids that need not start at 0 and a
    roster whose order is not id order."""
    width, height = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    capacity = draw(st.integers(1, 3))
    cells = [(x, y) for x in range(width) for y in range(height)]
    slots = [cell for cell in cells for _ in range(capacity)]  # stacks fill in order
    n_agents = draw(st.integers(1, min(14, len(slots))))
    first_id = draw(st.integers(0, 40))
    ids = draw(st.permutations(range(first_id, first_id + n_agents)))
    taken = draw(st.lists(st.integers(0, len(slots) - 1), min_size=n_agents,
                          max_size=n_agents, unique=True))
    agents = [dict(id=aid, pos=slots[slot], alive=draw(st.booleans()),
                   soc=draw(st.integers(1, 10)), food=draw(st.integers(0, 70)),
                   tokens=draw(st.integers(0, 20)),
                   revealed_until=draw(st.integers(0, 6)),
                   role=draw(st.sampled_from([ROLE_NONE, ROLE_PROVIDER, ROLE_CHOOSER])),
                   vitality=draw(st.integers(1, 10)))
              for aid, slot in zip(ids, taken)]
    node_cells = draw(st.lists(st.sampled_from(cells), unique=True,
                               max_size=min(6, len(cells))))
    nodes = [dict(pos=cell, kind=draw(st.sampled_from(["food", "token"])),
                  stock=draw(st.integers(0, 15)))
             for cell in node_cells]
    return dict(width=width, height=height, capacity=capacity,
                variant=draw(st.sampled_from(VARIANTS)), turn=draw(st.integers(0, 6)),
                agents=agents, nodes=nodes)


def build_world(world):
    agents = [make_agent(spec["id"], spec["pos"],
                         attrs=Attributes(STR=3, SPD=3, INT=3, SOC=spec["soc"], END=3, CHA=3),
                         alive=spec["alive"], food=spec["food"], tokens=spec["tokens"],
                         revealed_until=spec["revealed_until"], role=spec["role"],
                         vitality=spec["vitality"])
              for spec in world["agents"]]
    nodes = [(food_node if spec["kind"] == "food" else token_node)(spec["pos"], stock=spec["stock"])
             for spec in world["nodes"]]
    config = small_config(grid_width=world["width"], grid_height=world["height"],
                          cell_capacity=world["capacity"], engine_variant=world["variant"],
                          n_agents=len(agents), n_food_nodes=0, n_token_nodes=0)
    state = make_state(agents, nodes=nodes, config=config)
    state.turn = world["turn"]
    return state


STACKED_COLUMN = dict(  # one cell wide, a full stack on the edge, a dead agent
    width=1, height=5, capacity=3, variant=VARIANT_SEXUAL_SELECTION, turn=3,
    agents=[dict(id=aid, pos=pos, alive=alive, soc=5, food=20, tokens=4,
                 revealed_until=until, role=ROLE_PROVIDER, vitality=6)
            for aid, pos, alive, until in [(9, (0, 4), True, 3), (7, (0, 4), True, 2),
                                           (8, (0, 4), False, 0), (12, (0, 1), True, 5)]],
    nodes=[dict(pos=(0, 4), kind="food", stock=6), dict(pos=(0, 0), kind="token", stock=2)])


@given(sight_worlds())
@example(STACKED_COLUMN)
def test_observe_equals_the_roster_scan(world):
    state = build_world(world)
    index = sight_index(state)
    for agent_id in state.agents:
        expected = scan_observe(state, agent_id)
        assert observe(state, agent_id) == expected
        assert observe(state, agent_id, index) == expected


def test_step_builds_one_sight_index_per_turn(monkeypatch):
    built = []
    index = engine.sight_index
    monkeypatch.setattr(engine, "sight_index",
                        lambda state: built.append(state.turn) or index(state))
    config = small_config(n_agents=6, max_turns=10, upkeep=1)
    state = new_game(config)
    policies = PolicyMap(lambda agent: make_scripted("walker", agent.id, config))
    for _ in range(5):
        step(state, policies)
    assert built == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("value", [
    NearbyAgent(id=1, pos=(0, 0), approx_food=4, approx_tokens=2, role=None,
                vitality=None, attrs=None),
    ObservedNode(pos=(1, 1), kind="food", stock=None),
    Observation(agent=make_agent(0, (0, 0)), nearby=(), nodes=(), node_order=(),
                recent_actions=(), messages=(), turn=0, variant=VARIANTS[0]),
    observe(make_state([make_agent(0, (0, 0)), make_agent(1, (1, 0))],
                       nodes=[food_node((1, 1))]), 0),
])
def test_observation_types_are_immutable(value):
    for name in type(value)._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    # a copy is a value equal to the original, whichever kind it is
    assert copy.deepcopy(value) == value


def test_observations_compare_and_print_by_their_fields():
    state = make_state([make_agent(0, (0, 0)), make_agent(1, (1, 0))],
                       nodes=[food_node((1, 1))])
    obs, other = observe(state, 0), observe(state, 1)
    values = tuple(getattr(obs, name) for name in Observation._fields)
    given = Observation(*values)
    assert given == obs and not given != obs
    assert obs != other and not obs == other
    # a tuple underneath, but it compares only with observations
    for stranger in (values, None, "obs"):
        assert obs.__eq__(stranger) is NotImplemented
        assert obs.__ne__(stranger) is NotImplemented
        assert obs != stranger and not obs == stranger
    assert repr(obs) == repr(given) == "Observation(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(Observation._fields, values)) + ")"
    assert "nearby=(NearbyAgent(id=1, pos=(1, 0)" in repr(obs)


@given(sight_worlds())
@example(STACKED_COLUMN)
def test_one_index_observes_alike_in_any_order(world):
    state = build_world(world)
    forward, backward = sight_index(state), sight_index(state)
    ids = list(state.agents)
    first = {agent_id: observe(state, agent_id, forward) for agent_id in ids}
    second = {agent_id: observe(state, agent_id, backward) for agent_id in reversed(ids)}
    assert first == second


def test_new_game_leaves_the_sight_map_to_the_first_observation():
    config = small_config(n_agents=6, max_turns=10)
    state = new_game(config)
    assert state.sight is None
    observe(state, 0)
    sight = state.sight
    assert sight is not None
    step(state, PolicyMap(lambda agent: make_scripted("walker", agent.id, config)))
    assert state.sight is sight  # one per game


def test_each_cell_an_observer_stood_on_gets_one_sight_entry(monkeypatch):
    # an entry is made when a view of an observer on the cell is first read,
    # so walkers, which read none, leave cells stood on without one
    built, stood, read = [], set(), set()
    cell_sight, observe_one = engine._cell_sight, engine.observe
    monkeypatch.setattr(engine, "_cell_sight", lambda sight, width, height, pos: (
        built.append(pos) or cell_sight(sight, width, height, pos)))
    monkeypatch.setattr(engine, "observe", lambda state, agent_id, index=None: (
        stood.add(state.agents[agent_id].pos) or observe_one(state, agent_id, index)))
    for name in ("nearby", "nodes", "node_order"):
        view = getattr(Observation, name)
        monkeypatch.setattr(Observation, name, property(
            lambda obs, view=view: read.add(obs.agent.pos) or view.fget(obs)))
    config, policies = crowd_shaped_game()
    state = new_game(config)
    run_game(state, policies)
    assert built and len(built) == len(set(built))  # one entry per cell per game
    assert set(built) == read < stood
    width = config.grid_width
    assert set(state.sight.cells) == {x + y * width for x, y in read}
    for x, y in read:
        reach, in_sight, _ = state.sight.cells[x + y * width]
        assert sorted(reach) == sorted(cx + cy * width for cx in range(width)
                                       for cy in range(config.grid_height)
                                       if chebyshev((x, y), (cx, cy)) <= VISION_RANGE)
        assert sorted(in_sight) == [rank for rank, node in enumerate(state.nodes)
                                    if chebyshev((x, y), node.pos) <= VISION_RANGE]


class ObservationCheck:
    """Wraps a policy map and checks, before it decides, that each
    observation ``step`` built equals ``reference`` of the live state
    (``observe`` without an index unless given)."""

    def __init__(self, policies, state, reference=observe):
        self.policies, self.state, self.observers = policies, state, set()
        self.reference, self.turns = reference, 0

    def decide_all(self, observations):
        for agent_id, obs in observations.items():
            assert obs == self.reference(self.state, agent_id)
        self.observers.update(observations)
        self.turns += 1
        return self.policies.decide_all(observations)

    def evaluate_proposal(self, chooser, view):
        return self.policies.evaluate_proposal(chooser, view)


def test_step_observations_equal_unindexed_observe_in_a_game_with_births():
    preset = PRESETS["V7"]
    config = replace(preset.config, seed=1)
    state = new_game(config)
    check = ObservationCheck(build_policy_map(preset.policy_assignment, config), state)
    log = run_game(state, check)
    assert sum(len(e["births"]) for e in log if e["type"] == "turn_end") > 0
    assert any(agent_id >= config.n_agents for agent_id in check.observers)  # offspring


@pytest.mark.parametrize("game", ["crowd-shaped", "V7"])
def test_every_turns_observations_equal_the_roster_scan(game, monkeypatch):
    # what a turn shares (rows by cell, node views) is made for that turn and
    # dropped with it: a view kept from an earlier turn would show old stock
    indexes, make = [], engine.sight_index

    def sight_index(state):
        index = make(state)
        indexes.append(weakref.ref(index))
        return index

    monkeypatch.setattr(engine, "sight_index", sight_index)
    config, policies = (crowd_shaped_game() if game == "crowd-shaped"
                        else preset_game("V7", seed=3))
    state = new_game(config)
    check = ObservationCheck(policies, state, reference=scan_observe)
    run_game(state, check)
    assert check.turns == state.turn == len(indexes) > 1
    assert all(index() is None for index in indexes)
    sight = state.sight
    assert type(sight) is GameSight and GameSight._fields == ("hidden", "by_pos", "cells")
    assert sight.hidden == tuple(ObservedNode(node.pos, node.kind, None) for node in state.nodes)
    assert type(sight.by_pos) is array
    for entry in sight.cells.values():
        assert type(entry) is tuple and [type(table) for table in entry] == [array] * 3


class ObservationKeeper:
    """Wraps a policy map and keeps each turn's observations, with a copy of
    the state they were made from, taken before the turn resolves."""

    def __init__(self, policies, state):
        self.policies, self.state, self.kept = policies, state, None

    def decide_all(self, observations):
        self.kept = (dict(observations), copy.deepcopy(self.state))
        return self.policies.decide_all(observations)

    def evaluate_proposal(self, chooser, view):
        return self.policies.evaluate_proposal(chooser, view)


@pytest.mark.parametrize("game", ["crowd-shaped", "V7"])
def test_kept_observations_outlive_their_turn(game):
    # an observation holds values, not views of the live agents or nodes, so
    # resolving the turn does not change what a policy kept
    config, policies = (crowd_shaped_game() if game == "crowd-shaped"
                        else preset_game("V7", seed=3))
    state = new_game(config)
    keeper = ObservationKeeper(policies, state)
    moved = 0
    for _ in range(12):
        step(state, keeper)
        observations, before = keeper.kept
        for agent_id, obs in observations.items():
            assert obs == observe(before, agent_id)
            if agent_id in state.agents and state.agents[agent_id].alive:
                now = observe(state, agent_id)
                moved += (obs.nearby, obs.nodes) != (now.nearby, now.nodes)
    assert moved > 0  # the live state did change under the kept observations


VIEWS = ("nearby", "nodes", "node_order")


def read_late(data, observations, before):
    """Read a drawn subset of the observations' views, in a drawn order,
    each equal to the roster scan of ``before``, the state they were made
    from."""
    pairs = [(agent_id, name) for agent_id in observations for name in VIEWS]
    for agent_id, name in data.draw(st.lists(st.sampled_from(pairs), unique=True)):
        assert getattr(observations[agent_id], name) == \
            getattr(scan_observe(before, agent_id), name), (agent_id, name)


@given(sight_worlds(), st.sampled_from(["walker", "greedy", "aggressor"]),
       st.integers(0, 3), st.data())
def test_views_read_after_later_turns_equal_the_scan_of_their_turn(world, name, later, data):
    # views are worked out on first read, from an index that reads no live
    # state: turns resolved in between change nothing a late read sees
    state = build_world(world)
    before, index = copy.deepcopy(state), sight_index(state)
    observations = {agent_id: observe(state, agent_id, index) for agent_id in state.agents}
    policies = PolicyMap(lambda agent: make_scripted(name, agent.id, state.config))
    for _ in range(later):
        step(state, policies)
    read_late(data, observations, before)


# a twentieth of the profile's examples: 5 in the suite, 100 when searched deep
@settings(max_examples=max(1, settings().max_examples // 20), deadline=None)
@given(st.integers(0, 8), st.data())
def test_reading_every_view_twice_leaves_the_turns_index_unchanged(turns, data):
    # the index is the turn's snapshot: each read works its view out again
    # and stores nothing, so only the game's sight gains an entry per cell
    config, policies = crowd_shaped_game()
    state = new_game(config)
    for _ in range(turns):
        step(state, policies)
    warm = sight_index(state)
    for agent in state.alive_agents():
        for name in VIEWS:  # the game's sight gets an entry for each observer's cell
            getattr(observe(state, agent.id, warm), name)
    index = sight_index(state)
    before = copy.deepcopy(index)
    observations = {agent.id: observe(state, agent.id, index) for agent in state.alive_agents()}
    reads = [(agent_id, name) for agent_id in observations for name in VIEWS] * 2
    for agent_id, name in data.draw(st.permutations(reads)):
        assert getattr(observations[agent_id], name) == \
            getattr(scan_observe(state, agent_id), name), (agent_id, name)
    assert [field.name for field in fields(engine.SightIndex)] == \
        ["rows", "cells", "views", "sight", "width", "height"]
    assert not hasattr(engine.SightIndex, "rows_at")
    assert index == before


class FreshIndexKeeper:
    """Wraps a policy map and keeps, each turn, observations of every actor
    made from an index of their own, whose views nothing has read, with a
    copy of the state taken before the turn resolves."""

    def __init__(self, policies, state):
        self.policies, self.state, self.kept = policies, state, None

    def decide_all(self, observations):
        index = sight_index(self.state)
        self.kept = ({agent_id: observe(self.state, agent_id, index) for agent_id in observations},
                     copy.deepcopy(self.state))
        return self.policies.decide_all(observations)

    def evaluate_proposal(self, chooser, view):
        return self.policies.evaluate_proposal(chooser, view)


# a twentieth of the profile's examples: 5 in the suite, 100 when searched deep
@settings(max_examples=max(1, settings().max_examples // 20), deadline=None)
@given(st.sampled_from(["crowd-shaped", "V7"]), st.data())
def test_views_read_turns_later_in_a_game_equal_the_scan_of_their_turn(game, data):
    config, policies = (crowd_shaped_game() if game == "crowd-shaped"
                        else preset_game("V7", seed=3))
    state = new_game(config)
    keeper = FreshIndexKeeper(policies, state)
    pending = []  # (turn to read on, observations, state before their turn)
    for turn in range(10):
        step(state, keeper)
        pending.append((turn + data.draw(st.integers(0, 4)), *keeper.kept))
        for _, observations, before in [entry for entry in pending if entry[0] <= turn]:
            read_late(data, observations, before)
        pending = [entry for entry in pending if entry[0] > turn]
    for _, observations, before in pending:
        read_late(data, observations, before)


def play_alone(config, assignment):
    """The log hash of ``config``'s game played in a fresh interpreter."""
    script = "\n".join([
        "from gridarena.core import GameConfig, new_game",
        "from gridarena.engine import run_game",
        "from gridarena.harness import build_policy_map",
        f"config = GameConfig.from_flat_text({config.to_flat_text()!r})",
        f"policies = build_policy_map({assignment!r}, config)",
        "print(run_game(new_game(config), policies).sha256())",
    ])
    src = Path(engine.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_alternating_games_give_the_logs_they_give_alone():
    # two games with different grids and node layouts, one turn each in
    # turn, in one process, give the logs each gives in a process of its
    # own: no per-game or per-turn table leaks between them
    config, _ = crowd_shaped_game()
    configs = [config, replace(config, seed=12, grid_width=10, grid_height=10)]
    games = []
    for game_config in configs:
        state = new_game(game_config)
        games.append((state, build_policy_map(CROWD_SHAPED_POLICIES, game_config),
                      GameLog([header_event(state)])))
    assert games[0][0].nodes != games[1][0].nodes
    while any(check_termination(state) is None for state, _, _ in games):
        for state, policies, log in games:
            if check_termination(state) is None:
                log.extend(step(state, policies))
    shas = []
    for state, _, log in games:
        log.append(end_event(state, check_termination(state)))
        shas.append(log.sha256())
    assert shas == [play_alone(game_config, CROWD_SHAPED_POLICIES) for game_config in configs]


def test_births_are_the_turns_spawned_offspring():
    preset = PRESETS["V7"]
    config = replace(preset.config, seed=1)
    log = run_game(new_game(config), build_policy_map(preset.policy_assignment, config))
    spawned, turns_with_births = [], 0
    for event in log:
        if event["type"] == "action":
            spawned += [op[1]["id"] for op in event["delta"] if op[0] == "spawn"]
        elif event["type"] == "turn_end":
            assert event["births"] == spawned, event["turn"]
            turns_with_births += bool(spawned)
            spawned = []
    assert turns_with_births > 0


# --------------------------------------------------------------------------
# Resolvers


def test_gather_yield_is_strength_bound():
    agent = make_agent(0, (1, 1), attrs=flat_attrs(3))  # 1 + ceil(3/2) = 3
    node = food_node((1, 1), regen=2, stock=10)
    state = make_state([agent], nodes=[node])
    outcome, _ = resolve(state, agent, GATHER)
    assert outcome == "ok"
    assert agent.food == 63 and node.stock == 7


def test_gather_is_stock_bound_and_fails_when_empty():
    agent = make_agent(0, (1, 1), attrs=flat_attrs(8), tokens=0)
    node = token_node((1, 1), stock=2)
    state = make_state([agent], nodes=[node])
    outcome, _ = resolve(state, agent, GATHER)
    assert outcome == "ok" and agent.tokens == 2 and node.stock == 0
    outcome, ops = resolve(state, agent, GATHER)
    assert outcome == "failed_empty" and ops == []


def test_gather_needs_a_node_underfoot():
    agent = make_agent(0, (1, 1))
    state = make_state([agent], nodes=[food_node((2, 2))])
    outcome, _ = resolve(state, agent, GATHER)
    assert outcome == "failed_no_node"


def test_move_single_and_double_steps():
    slow = make_agent(0, (1, 1), attrs=flat_attrs(4))
    fast = make_agent(1, (3, 3), attrs=flat_attrs(5))
    state = make_state([slow, fast])
    outcome, _ = resolve(state, slow, Move(steps=("E", "E")))
    assert outcome == "ok" and slow.pos == (2, 1)  # SPD < 5: one step only
    outcome, _ = resolve(state, fast, Move(steps=("N", "W")))
    assert outcome == "ok" and fast.pos == (2, 2)


def test_move_blocked_by_bounds_and_capacity():
    cfg = small_config(n_agents=4, cell_capacity=2,
                       n_food_nodes=0, n_token_nodes=0)
    mover = make_agent(0, (0, 0), attrs=flat_attrs(5))
    squat_a = make_agent(1, (1, 0))
    squat_b = make_agent(2, (1, 0))
    state = make_state([mover, squat_a, squat_b], config=cfg)
    outcome, ops = resolve(state, mover, Move(steps=("N",)))
    assert outcome == "failed_blocked" and mover.pos == (0, 0) and ops == []
    outcome, _ = resolve(state, mover, Move(steps=("E", "S")))  # E full, halt
    assert outcome == "failed_blocked" and mover.pos == (0, 0)
    outcome, _ = resolve(state, mover, Move(steps=("S", "E")))  # S ok then E ok
    assert outcome == "ok" and mover.pos == (1, 1)


def test_attack_damage_cost_and_kill():
    attacker = make_agent(0, (1, 1), attrs=flat_attrs(6), tokens=2)
    victim = make_agent(1, (1, 1), attrs=flat_attrs(2), health=7)
    state = make_state([attacker, victim])
    outcome, _ = resolve(state, attacker, Attack(target_id=1))
    assert outcome == "ok"
    assert attacker.tokens == 1
    assert victim.health == 1
    outcome, _ = resolve(state, attacker, Attack(target_id=1))
    assert outcome == "ok" and victim.health == 0
    assert sweep_deaths(state, Delta(state), [victim]) == [1]  # step() sweeps per action
    assert not victim.alive


def test_attack_failure_modes():
    attacker = make_agent(0, (1, 1), tokens=0)
    away = make_agent(1, (2, 1))
    state = make_state([attacker, away])
    assert resolve(state, attacker, Attack(target_id=1))[0] == "failed_bad_target"
    assert resolve(state, attacker, Attack(target_id=0))[0] == "failed_bad_target"
    assert resolve(state, attacker, Attack(target_id=9))[0] == "failed_bad_target"
    away.pos = (1, 1)
    assert resolve(state, attacker, Attack(target_id=1))[0] == "failed_no_tokens"


def test_trade_probability_curve():
    assert trade_accept_probability(5) == pytest.approx(0.5 + 0.06 * 0.5)
    assert trade_accept_probability(1) == pytest.approx(0.5 + 0.06 * -3.5)
    assert trade_accept_probability(10) == pytest.approx(0.83)
    # clamping (reachable only with out-of-band CHA values)
    assert trade_accept_probability(-10) == 0.10
    assert trade_accept_probability(30) == 0.95


def test_trade_swaps_atomically():
    proposer = make_agent(0, (1, 1), attrs=flat_attrs(10), food=20, tokens=1)
    partner = make_agent(1, (3, 3), food=5, tokens=9)
    state = make_state([proposer, partner], seed=1)
    action = Trade(target_id=1, offer_food=4, offer_tokens=0,
                   request_food=0, request_tokens=3)
    draws = []
    cls = type(state.rng)
    state.rng = type("R", (cls,), {"random": lambda self: draws.append(1) or 0.0})()
    outcome, _ = resolve(state, proposer, action)
    assert outcome == "accepted" and len(draws) == 1
    assert (proposer.food, proposer.tokens) == (16, 4)
    assert (partner.food, partner.tokens) == (9, 6)


def test_trade_rejection_and_failures():
    proposer = make_agent(0, (1, 1), food=20, tokens=1)
    partner = make_agent(1, (3, 3), food=5, tokens=9)
    state = make_state([proposer, partner])
    cls = type(state.rng)
    state.rng = type("R", (cls,), {"random": lambda self: 0.999})()
    trade = Trade(target_id=1, offer_food=4, offer_tokens=0,
                  request_food=0, request_tokens=3)
    assert resolve(state, proposer, trade)[0] == "rejected"
    assert proposer.food == 20 and partner.tokens == 9

    far = Trade(target_id=9, offer_food=1, offer_tokens=0,
                request_food=0, request_tokens=1)
    assert resolve(state, proposer, far)[0] == "failed_bad_target"
    partner.pos = (4, 4)  # Chebyshev 3 > 2
    assert resolve(state, proposer, trade)[0] == "failed_bad_target"
    partner.pos = (3, 3)
    big = Trade(target_id=1, offer_food=99, offer_tokens=0,
                request_food=0, request_tokens=1)
    assert resolve(state, proposer, big)[0] == "failed_insolvent"
    greedy = Trade(target_id=1, offer_food=1, offer_tokens=0,
                   request_food=99, request_tokens=0)
    assert resolve(state, proposer, greedy)[0] == "failed_target_insolvent"


def test_rest_heals_to_cap():
    agent = make_agent(0, (1, 1), attrs=flat_attrs(4), health=12)
    state = make_state([agent])
    assert resolve(state, agent, REST)[0] == "ok"
    assert agent.health == 16
    assert resolve(state, agent, REST)[0] == "ok"
    assert agent.health == 18  # capped at 10 + 2*4
    resolve(state, agent, REST)
    assert agent.health == 18


def test_train_accumulates_and_levels():
    agent = make_agent(0, (1, 1), attrs=flat_attrs(6))
    state = make_state([agent])
    assert resolve(state, agent, Train(attribute="CHA"))[0] == "ok"
    assert agent.train_progress["CHA"] == 6 and agent.attrs.CHA == 6
    assert resolve(state, agent, Train(attribute="CHA"))[0] == "ok"
    assert agent.train_progress["CHA"] == 0 and agent.attrs.CHA == 7


def test_train_respects_attribute_cap():
    agent = make_agent(0, (1, 1), attrs=flat_attrs(10))
    state = make_state([agent])
    outcome, ops = resolve(state, agent, Train(attribute="STR"))
    assert outcome == "ok"
    assert agent.attrs.STR == 10
    assert agent.train_progress.get("STR", 0) == 0
    assert ops == []  # value already at cap, progress resets to 0: no change


def test_train_that_completes_from_no_progress_logs_only_the_attribute():
    # INT 10 reaches the threshold in one TRAIN: progress goes 0 -> 0
    agent = make_agent(0, (1, 1), attrs=replace(flat_attrs(1), INT=10))
    state = make_state([agent])
    outcome, ops = resolve(state, agent, Train(attribute="STR"))
    assert outcome == "ok"
    assert ops == [["agent", 0, "attr:STR", 1, 2]]
    assert agent.train_progress == {}


def test_mating_actions_unavailable_in_survival():
    agent = make_agent(0, (1, 1))
    other = make_agent(1, (1, 1))
    state = make_state([agent, other])
    assert resolve(state, agent, Communicate(message="hi"))[0] == "failed_unavailable"
    assert resolve(state, agent, Reproduce(target_id=1))[0] == "failed_unavailable"


# --------------------------------------------------------------------------
# Whole turns


def test_step_event_order_and_counter():
    config = small_config(n_agents=2)
    state = new_game(config)
    records = step(state, plan_map({}))
    types = [event["type"] for event in records]
    assert types[0] == "upkeep"
    assert types[-2] == "regen"
    assert types[-1] == "turn_end"
    assert types[1:-2] == ["action", "action"]
    assert state.turn == 1


def test_dead_actor_action_is_cancelled():
    cfg = small_config(n_agents=2, upkeep=0, n_food_nodes=0, n_token_nodes=0,
                       seed=2)
    a = make_agent(0, (1, 1), attrs=flat_attrs(8), tokens=5)
    b = make_agent(1, (1, 1), health=3)
    state = make_state([a, b], config=cfg, seed=0)
    # seed 0 shuffles [0, 1] to itself, so the attacker resolves first
    order = [0, 1]
    shuffle(state.rng, order)
    assert order == [0, 1], "fixture seed must schedule the attacker first"
    state = make_state([a, b], config=cfg, seed=0)
    records = step(state, plan_map({0: Attack(target_id=1), 1: GATHER}))
    actions = [e for e in records if e["type"] == "action"]
    by_agent = {e["agent_id"]: e for e in actions}
    assert by_agent[0]["outcome"] == "ok"
    assert by_agent[1]["outcome"] == "cancelled_dead"
    assert by_agent[1]["delta"] == []
    assert records[-1]["deaths"] == [1]


def test_policy_exception_becomes_rest_with_fault_event():
    config = small_config(n_agents=2, upkeep=0)
    state = new_game(config)
    records = step(state, plan_map({0: RuntimeError("boom")}))
    faults = [e for e in records if e["type"] == "policy_fault"]
    assert len(faults) == 1 and faults[0]["agent_id"] == 0
    assert "boom" in faults[0]["error"]
    action = next(e for e in records
                  if e["type"] == "action" and e["agent_id"] == 0)
    assert action["action"] == "REST"


def test_fallback_flag_is_logged():
    class Fallback(Policy):
        def decide(self, obs):
            return PolicyDecision(action=REST, raw_response="???",
                                  parse_status="fallback")

    config = small_config(n_agents=1, upkeep=0)
    state = new_game(config)
    records = step(state, PolicyMap(lambda agent: Fallback()))
    action = next(e for e in records if e["type"] == "action")
    assert action["fallback"] is True


def test_regen_restocks_to_cap():
    agent = make_agent(0, (0, 0))
    node = food_node((3, 3), regen=2, stock=1)
    state = make_state([agent], nodes=[node],
                       config=small_config(n_agents=1, upkeep=0,
                                           n_food_nodes=0, n_token_nodes=0))
    step(state, plan_map({}))
    assert node.stock == 3
    node.stock = 9
    step(state, plan_map({}))
    assert node.stock == 10  # cap 5 * regen


def test_termination_reasons():
    solo = make_state([make_agent(0, (0, 0))],
                      config=small_config(n_agents=1, max_turns=4,
                                          n_food_nodes=0, n_token_nodes=0))
    assert check_termination(solo) == "last_survivor"

    pair = make_state([make_agent(0, (0, 0)), make_agent(1, (1, 1))],
                      config=small_config(n_agents=2, max_turns=4,
                                          n_food_nodes=0, n_token_nodes=0))
    assert check_termination(pair) is None
    pair.turn = 4
    assert check_termination(pair) == "max_turns"


def test_run_game_ends_with_end_record():
    config = small_config(n_agents=2, max_turns=3, upkeep=0)
    log = run_game(new_game(config), plan_map({}))
    records = list(log)
    assert records[0]["type"] == "header"
    assert records[-1]["type"] == "end"
    assert records[-1]["turn"] == 3
    assert records[-1]["reason"] == "max_turns"
    assert records[-1]["survivors"] == 2


def test_run_game_hands_its_sink_the_records_as_they_are_appended():
    config = small_config(n_agents=2, max_turns=3, upkeep=0)
    batches = []
    log = run_game(new_game(config), plan_map({}), sink=batches.append)
    fed = [record for batch in batches for record in batch]
    assert len(fed) == len(log) and all(a is b for a, b in zip(fed, log))
    # the header, then one batch per turn, each ending at its turn_end, then the end
    assert [batch[-1]["type"] for batch in batches] == ["header"] + ["turn_end"] * 3 + ["end"]
    assert [len(batch) for batch in batches] == [1, 5, 5, 5, 1]


def test_scripted_runs_are_deterministic():
    config = small_config(n_agents=4, max_turns=6)
    make = lambda: run_game(
        new_game(config),
        PolicyMap(lambda agent: make_scripted("walker", agent.id, config)))
    assert make().to_text() == make().to_text()


# --------------------------------------------------------------------------
# The collector pause in run_game


class Interrupting(Policy):
    def decide(self, obs):
        raise KeyboardInterrupt


class CollectorWatcher(Policy):
    def __init__(self, seen):
        self.seen = seen

    def decide(self, obs):
        self.seen.append(gc.isenabled())
        return PolicyDecision(action=REST)


def test_run_game_pauses_the_collector_and_restores_it():
    config = small_config(n_agents=2, max_turns=3)
    seen = []
    assert gc.isenabled()
    run_game(new_game(config), PolicyMap(lambda agent: CollectorWatcher(seen)))
    assert seen and not any(seen)
    assert gc.isenabled()
    with pytest.raises(KeyboardInterrupt):
        run_game(new_game(config), PolicyMap(lambda agent: Interrupting()))
    assert gc.isenabled()


def test_run_game_leaves_a_disabled_collector_disabled():
    gc.disable()
    try:
        run_game(new_game(small_config(n_agents=2, max_turns=3)), plan_map({}))
        assert not gc.isenabled()
    finally:
        gc.enable()


@promotes
def test_run_game_leaves_its_log_in_the_oldest_generation():
    log = run_game(new_game(small_config(n_agents=2, max_turns=3)), plan_map({}))
    assert not young(log.events[-1])


def test_run_game_leaves_a_callers_frozen_objects_alone(frozen_caller):
    state, policies = new_game(small_config(n_agents=2, max_turns=3)), plan_map({})
    frozen = gc.get_freeze_count()
    log = run_game(state, policies)
    assert gc.get_freeze_count() == frozen
    assert young(log.events[-1])


class Cyclic:
    def __init__(self):
        self.me = self


class CycleMaker(Policy):
    def __init__(self, refs):
        self.refs = refs

    def decide(self, obs):
        self.refs.append(weakref.ref(Cyclic()))
        return PolicyDecision(REST)


def test_cycles_a_policy_makes_are_freed_by_a_full_collection():
    refs = []
    run_game(new_game(small_config(n_agents=2, max_turns=3)),
             PolicyMap(lambda agent: CycleMaker(refs)))
    gc.collect()
    assert refs and all(ref() is None for ref in refs)


# --------------------------------------------------------------------------
# A fault in working out a view stops the game


class ReadsView(Policy):
    def __init__(self, view):
        self.view = view

    def decide(self, obs):
        getattr(obs, self.view)
        return PolicyDecision(REST)


class BatchReadsView(ReadsView):
    def decide_batch(self, observations):
        for obs in observations:
            getattr(obs, self.view)
        return [PolicyDecision(REST)] * len(observations)


def broken_view(index, key):
    raise IndexError("stale row")


VIEW_METHODS = {"nearby": "nearby_of", "nodes": "nodes_at", "node_order": "node_order_at"}


@pytest.mark.parametrize("view", VIEW_METHODS)
@pytest.mark.parametrize("path", ["decide-alone", "decide-in-a-batch", "decide_batch"])
def test_a_view_fault_stops_the_game(monkeypatch, path, view):
    monkeypatch.setattr(engine.SightIndex, VIEW_METHODS[view], broken_view)
    if path == "decide-alone":  # a policy per agent, each asked through decide
        policies = PolicyMap(lambda agent: ReadsView(view))
    else:  # one policy for both agents, asked through decide_batch
        shared = (ReadsView if path == "decide-in-a-batch" else BatchReadsView)(view)
        policies = PolicyMap(lambda agent: shared)
    with pytest.raises(engine.ViewError,
                       match=rf"^agent 0's {view} view: IndexError: stale row$") as raised:
        run_game(new_game(small_config(n_agents=2)), policies)
    assert isinstance(raised.value.__cause__, IndexError)


def test_a_view_fault_is_a_runtime_fault_of_arena_run(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(engine.SightIndex, "nearby_of", broken_view)
    code = main(["run", "--preset", "P1", "--policies", "scripted:aggressor",
                 "--out", str(tmp_path)])
    assert code == 3
    assert "runtime fault: ViewError: agent 0's nearby view: IndexError: stale row" \
        in capsys.readouterr().err


class RaisingDecide(Policy):
    def decide(self, obs):
        raise RuntimeError("decide failed")


class RaisingBatch(Policy):
    def decide_batch(self, observations):
        raise RuntimeError("batch failed")


class ShortBatch(Policy):
    def decide_batch(self, observations):
        return [PolicyDecision(REST)] * (len(observations) - 1)


@pytest.mark.parametrize("path, error", [
    ("decide-raises", "RuntimeError: decide failed"),
    ("decide_batch-raises", "RuntimeError: batch failed"),
    ("short-batch", "RuntimeError: policy returned 1 decisions for 2 observations"),
    ("gateway-500", "GatewayError: HTTP 500"),
])
def test_each_failure_path_logs_its_fault_text(stub_gateway, path, error):
    # the pinned log hashes are all of fault-free games: these texts are what
    # keeps a fault log's bytes
    stub_gateway.status_script = [500] * 4  # both agents, past one retry each
    policy = {"decide-raises": RaisingDecide, "decide_batch-raises": RaisingBatch,
              "short-batch": ShortBatch,
              "gateway-500": lambda: LLMPolicy(gateway_config(
                  stub_gateway, max_retries=1, max_concurrency=1))}[path]()
    records = step(new_game(small_config(n_agents=2, upkeep=0)), PolicyMap(lambda agent: policy))
    faults = [i for i, record in enumerate(records) if record["type"] == "policy_fault"]
    assert sorted(records[i]["agent_id"] for i in faults) == [0, 1]
    for i in faults:
        assert records[i]["error"] == error
        assert {key: records[i + 1][key] for key in ("type", "agent_id", "action", "fallback")} \
            == {"type": "action", "agent_id": records[i]["agent_id"], "action": "REST",
                "fallback": True}


class NoDecision(Policy):
    def decide(self, obs):
        return None


class NoDecisions(Policy):
    def decide_batch(self, observations):
        return [None] * len(observations)


@pytest.mark.parametrize("path", ["decide-alone", "decide-in-a-batch", "decide_batch"])
def test_a_policy_that_gives_no_decision_is_a_logged_fault(path):
    if path == "decide-alone":  # a policy per agent, each asked through decide
        policies = PolicyMap(lambda agent: NoDecision())
    else:  # one policy for both agents, asked through decide_batch
        shared = NoDecision() if path == "decide-in-a-batch" else NoDecisions()
        policies = PolicyMap(lambda agent: shared)
    config = small_config(n_agents=2, max_turns=4)
    log = run_game(new_game(config), policies)
    assert log.end["reason"] == "max_turns"
    faults = [e for e in log if e["type"] == "policy_fault"]
    assert len(faults) == 2 * config.max_turns
    assert {e["error"] for e in faults} == {
        "TypeError: policy returned NoneType, not a PolicyDecision"}
    assert replay(GameLog.from_text(log.to_text())).events == len(log.events)


def llm_refused_game(port):
    config = GameConfig(n_agents=8, max_turns=5, seed=1)
    gateway = GatewayConfig(endpoint_url=f"http://127.0.0.1:{port}/v1/chat/completions",
                            model_name="m", api_key_env_var=KEY_ENV, max_retries=0)
    return config, build_policy_map("llm", config, gateway)


GAMES = {
    "P1": lambda port: preset_game("P1"),
    "V7": lambda port: preset_game("V7", seed=3),
    "crowd-shaped": lambda port: crowd_shaped_game(),
    "P1-decide-raises": lambda port: (
        PRESETS["P1"].config, PolicyMap(lambda agent: RaisingDecide())),
    "P1-decide_batch-raises": lambda port: (
        PRESETS["P1"].config, PolicyMap(lambda agent: RaisingBatch())),
    "llm-refused": llm_refused_game,
}


@pytest.mark.parametrize("name", GAMES)
def test_a_game_makes_no_reference_cycles(monkeypatch, name):
    # run_game pauses the collector because a game, faults included, leaves
    # nothing for it: an engine or policy change that makes a cycle fails here
    monkeypatch.setenv(KEY_ENV, "stub-key")
    with socket.socket() as sock:  # bound, never listening: connections are refused
        sock.bind(("127.0.0.1", 0))
        config, policies = GAMES[name](sock.getsockname()[1])
        gc.collect()
        gc.disable()
        try:
            log = run_game(new_game(config), policies)
            assert gc.collect() == 0
        finally:
            gc.enable()
    faults = sum(1 for record in log if record["type"] == "policy_fault")
    assert (faults > 0) == (name not in ("P1", "V7", "crowd-shaped"))


@pytest.mark.parametrize("name, seed, kind", [("V7", 7, "births"),
                                              ("crowd-shaped", None, "deaths")])
def test_cell_counts_match_a_roster_scan_after_every_action(monkeypatch, name, seed, kind):
    # occupancy reads counts that Delta keeps; the oracle counts the roster
    if seed is None:
        config, policies = crowd_shaped_game()
    else:
        config, policies = preset_game(name, seed=seed)
    state = new_game(config)
    play_turn = engine.play_turn
    checks = []

    def checked_turn(state, *args):
        for record in play_turn(state, *args):
            scanned = Counter(agent.pos for agent in state.alive_agents())
            assert {pos: n for pos, n in state.living.items() if n != 0} == scanned
            assert all(state.occupancy(pos) == n for pos, n in scanned.items())
            checks.append(record["type"])
            yield record

    monkeypatch.setattr(engine, "play_turn", checked_turn)
    log = run_game(state, policies)
    assert checks.count("action") == sum(1 for record in log if record["type"] == "action")
    assert any(record[kind] for record in log if record["type"] == "turn_end")
    if kind == "deaths":  # deaths during resolution, not only at upkeep
        assert any(op[2] == "alive" for record in log if record["type"] == "action"
                   for op in record["delta"])


@pytest.mark.parametrize("name", ["crowd-shaped", "V7"])
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_every_death_is_swept_by_the_record_that_causes_it(name, seed):
    # sweep_deaths is the only code that kills, and turn_end sweeps nothing:
    # after every record no living agent is starved or dead of its wounds
    if name == "V7":
        config, policies = preset_game("V7", seed=seed)
    else:
        config, policies = crowd_shaped_game(seed)
    state = new_game(config)
    play_turn = engine.play_turn
    turn_ends = []

    def checked_turn(state, *args):
        killed = []
        for record in play_turn(state, *args):
            assert all(agent.food > 0 and agent.health > 0 for agent in state.alive_agents())
            killed += [op[1] for op in record.get("delta", ())
                       if op[0] == "agent" and op[2] == "alive" and op[3] and not op[4]]
            if record["type"] == "turn_end":
                assert record["delta"] == []
                assert all(record["deaths"].count(aid) == 1 for aid in killed)
                assert sorted(record["deaths"]) == sorted(killed)
                turn_ends.append(record)
            yield record

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "play_turn", checked_turn)
        log = run_game(state, policies)
    assert turn_ends == [record for record in log if record["type"] == "turn_end"]


def test_a_resolution_sweeps_only_agents_whose_food_or_health_fell():
    attacker = make_agent(0, (1, 1), attrs=flat_attrs(9), tokens=5)
    victim = make_agent(1, (1, 1), health=3)
    state = make_state([attacker, victim])
    delta = Delta(state)
    resolve_action(state, attacker, Attack(target_id=1), delta, None, [])
    assert delta.dying == [victim]  # the attacker's tokens and role are not noted
    delta.set_agent(attacker, "role", ROLE_PROVIDER)
    delta.set_agent(attacker, "tokens", 0)
    assert delta.dying == [victim]
