"""Turn mechanics: upkeep, observation, each action resolver, turn order,
termination, and fault isolation."""

from dataclasses import replace

import pytest
from hypothesis import example, given, strategies as st

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
    chebyshev,
    new_game,
)
from gridarena.engine import (
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
from gridarena.gamelog import Delta
from gridarena.harness import PRESETS, build_policy_map
from gridarena.policy import Policy, PolicyDecision, PolicyMap, make_scripted

from conftest import (
    flat_attrs,
    food_node,
    make_agent,
    make_state,
    small_config,
    token_node,
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
    return Observation(
        agent=replace(agent, train_progress=dict(agent.train_progress)),
        nearby=nearby, nodes=nodes,
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


class ObservationCheck:
    """Wraps a policy map and checks, before it decides, that each
    observation ``step`` built equals ``observe`` without an index."""

    def __init__(self, policies, state):
        self.policies, self.state, self.observers = policies, state, set()

    def decide_all(self, observations):
        for agent_id, obs in observations.items():
            assert obs == observe(self.state, agent_id)
        self.observers.update(observations)
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
    assert sweep_deaths(state, Delta(state)) == [1]  # step() sweeps per action
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
    state.rng.shuffle(order)
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


def test_scripted_runs_are_deterministic():
    config = small_config(n_agents=4, max_turns=6)
    make = lambda: run_game(
        new_game(config),
        PolicyMap(lambda agent: make_scripted("walker", agent.id, config)))
    assert make().to_text() == make().to_text()
