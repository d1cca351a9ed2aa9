"""Prompt rendering, reply parsing, scripted baselines, and batch plumbing."""

import gc
import re
import socket

import pytest
from hypothesis import given, strategies as st

from gridarena.actions import (
    ACTION_TYPES,
    Attack,
    Communicate,
    GATHER,
    Gather,
    Move,
    REST,
    Reproduce,
    Trade,
)
from gridarena.core import (
    AgentState,
    Attributes,
    ROLE_CHOOSER,
    ROLE_NONE,
    ROLE_PROVIDER,
    VARIANT_SEXUAL_SELECTION,
    VARIANT_SURVIVAL,
    manhattan,
    new_game,
)
from gridarena.engine import NearbyAgent, ObservedNode, Observation, step
from gridarena.gateway import GatewayConfig, GatewayError
from gridarena.harness import build_policy_map
from gridarena.mating import ProposalView
from gridarena.policy import (
    LLMPolicy,
    Policy,
    PolicyDecision,
    PolicyMap,
    SCRIPTED_POLICIES,
    available_actions,
    build_prompt,
    build_proposal_prompt,
    derive_policy_seed,
    make_scripted,
    parse_verdict,
)

from conftest import (
    KEY_ENV,
    flat_attrs,
    gateway_config,
    make_agent,
    small_config,
)

BANNED_WORDS = ("cooperate", "should", "tip", "hint", "recommend")


def observation(agent, *, nearby=(), nodes=(), recent=(), messages=(),
                turn=5, variant=VARIANT_SURVIVAL):
    """An observation with ``node_order`` derived as ``engine.observe`` gives
    it: node indices by (Manhattan distance from the agent, pos)."""
    nodes = tuple(nodes)
    node_order = tuple(sorted(range(len(nodes)),
                              key=lambda rank: (manhattan(agent.pos, nodes[rank].pos),
                                                nodes[rank].pos)))
    return Observation(agent=agent, nearby=tuple(nearby), nodes=nodes, node_order=node_order,
                       recent_actions=tuple(recent), messages=tuple(messages),
                       turn=turn, variant=variant)


def survival_observation():
    attrs = Attributes(STR=3, SPD=6, INT=3, SOC=6, END=7, CHA=5)
    me = AgentState(id=4, pos=(4, 2), attrs=attrs, food=52, tokens=9)
    return observation(
        me,
        nearby=[NearbyAgent(id=7, pos=(5, 3), approx_food=48, approx_tokens=12,
                            role=None, vitality=None, attrs=None)],
        nodes=[ObservedNode(pos=(4, 2), kind="food", stock=8),
               ObservedNode(pos=(6, 2), kind="token", stock=None)],
        recent=["GATHER", "MOVE N"],
    )


SURVIVAL_PROMPT = """You are Agent 4 in a survival arena.

YOUR STATUS:
- Position: (4, 2)
- Food: 52, Tokens: 9, Health: 24/24
- Attributes: STR=3 SPD=6 INT=3 SOC=6 END=7 CHA=5

RESOURCE NODES:
- food node at (4, 2), stock 8
- token node at (6, 2)

NEARBY AGENTS (within 2 cells):
- Agent 7 at (5, 3): ~48 food, ~12 tokens

RECENT ACTIONS:
- GATHER
- MOVE N

AVAILABLE ACTIONS:
GATHER, MOVE [direction], ATTACK [target_id],
TRADE [target_id] [offer] [request], REST, TRAIN [attribute]

Offer and request take the form [food]f[tokens]t, e.g. 5f2t.

Choose exactly ONE action. Respond with the action name
and parameters only."""


PROPOSAL_PROMPT = """You are Agent 5 in a survival arena.

Agent 2 at your cell proposes reproduction with you.

PROPOSER:
- Attributes: STR=3 SPD=6 INT=3 SOC=6 END=7 CHA=5
- Vitality: 8 (robust)
- Food: 45, Tokens: 11

YOUR STATUS:
- Food: 40, Tokens: 12, Vitality: 4 (average)

Evaluating this proposal costs you 12 food and 5 tokens.

Respond with ACCEPT or REJECT only."""


# --------------------------------------------------------------------------
# Prompts


def test_survival_prompt_renders_byte_stably():
    obs = survival_observation()
    assert build_prompt(obs) == SURVIVAL_PROMPT
    assert build_prompt(obs) == build_prompt(obs)


def test_mating_prompt_adds_role_messages_and_actions():
    me = make_agent(2, (1, 1), attrs=flat_attrs(5), role=ROLE_PROVIDER,
                    vitality=8)
    obs = observation(me, messages=[(5, "over here")],
                      variant=VARIANT_SEXUAL_SELECTION)
    prompt = build_prompt(obs)
    assert "- Role: provider" in prompt
    assert "- Vitality: 8 (robust)" in prompt
    assert '- From Agent 5: "over here"' in prompt
    assert "COMMUNICATE [message], REPRODUCE [target_id]" in prompt


def test_chooser_prompt_omits_reproduce():
    me = make_agent(2, (1, 1), role=ROLE_CHOOSER, vitality=3)
    prompt = build_prompt(observation(
        me, variant=VARIANT_SEXUAL_SELECTION))
    assert "REPRODUCE" not in prompt
    assert "COMMUNICATE [message]" in prompt


def test_proposal_prompt_renders_byte_stably():
    attrs = Attributes(STR=3, SPD=6, INT=3, SOC=6, END=7, CHA=5)
    view = ProposalView(provider_id=2, provider_attrs=attrs,
                        provider_vitality=8, provider_food=45,
                        provider_tokens=11, chooser_id=5, chooser_food=40,
                        chooser_tokens=12, chooser_vitality=4,
                        food_cost=12, token_cost=5, turn=9)
    assert build_proposal_prompt(view) == PROPOSAL_PROMPT


def banned_word_hits(text):
    hits = []
    for word in BANNED_WORDS:
        if re.search(rf"\b{word}\b", text, flags=re.IGNORECASE):
            hits.append(word)
    return hits


def test_prompts_contain_no_steering_language():
    prompts = [SURVIVAL_PROMPT, PROPOSAL_PROMPT]
    me = make_agent(0, (0, 0), role=ROLE_PROVIDER)
    prompts.append(build_prompt(observation(
        me, variant=VARIANT_SEXUAL_SELECTION)))
    for prompt in prompts:
        assert banned_word_hits(prompt) == []


def test_available_actions_by_variant_and_role():
    base = ["GATHER", "MOVE", "ATTACK", "TRADE", "REST", "TRAIN"]
    me = make_agent(0, (0, 0))
    assert list(available_actions(observation(me))) == base
    prov = make_agent(0, (0, 0), role=ROLE_PROVIDER)
    actions = available_actions(observation(prov, variant=VARIANT_SEXUAL_SELECTION))
    assert list(actions) == base + ["COMMUNICATE", "REPRODUCE"]
    chooser = make_agent(0, (0, 0), role=ROLE_CHOOSER)
    actions = available_actions(observation(chooser, variant=VARIANT_SEXUAL_SELECTION))
    assert list(actions) == base + ["COMMUNICATE"]


@pytest.mark.parametrize("variant", [VARIANT_SURVIVAL, VARIANT_SEXUAL_SELECTION])
@pytest.mark.parametrize("role", [ROLE_NONE, ROLE_PROVIDER, ROLE_CHOOSER])
def test_available_actions_are_an_ordered_subsequence_of_action_types(variant, role):
    names = available_actions(observation(make_agent(0, (0, 0), role=role), variant=variant))
    rest = iter(ACTION_TYPES)
    assert names and all(name in rest for name in names)


# --------------------------------------------------------------------------
# Verdict parsing


@pytest.mark.parametrize("text,verdict", [
    ("ACCEPT", True),
    ("accept.", True),
    ("  REJECT!  ", False),
    ("thinking it over\nREJECT", False),
    ("ACCEPTABLE", None),
    ("no idea", None),
    ("", None),
])
def test_parse_verdict(text, verdict):
    assert parse_verdict(text) is verdict


# --------------------------------------------------------------------------
# Batch plumbing


class Echo(Policy):
    def __init__(self):
        self.seen = []

    def decide(self, obs):
        self.seen.append(obs.agent.id)
        return PolicyDecision(action=REST)


def observations_for(ids):
    return {i: observation(make_agent(i, (0, 0))) for i in ids}


def test_policy_map_caches_one_policy_per_agent():
    created = []

    def factory(agent):
        policy = Echo()
        created.append(agent.id)
        return policy

    policy_map = PolicyMap(factory)
    policy_map.decide_all(observations_for([1, 0]))
    policy_map.decide_all(observations_for([0, 1]))
    assert sorted(created) == [0, 1]


def test_policy_map_returns_decisions_in_full():
    policy = Echo()
    policy_map = PolicyMap(lambda agent: policy)
    decisions = policy_map.decide_all(observations_for([3, 1, 2]))
    assert sorted(decisions) == [1, 2, 3]
    assert policy.seen == [1, 2, 3]  # sorted id order
    assert all(d.action == REST for d in decisions.values())


def test_policy_map_isolates_per_agent_faults():
    class Flaky(Policy):
        def decide(self, obs):
            if obs.agent.id == 2:
                raise ValueError("bad agent")
            return PolicyDecision(action=REST)

    policy_map = PolicyMap(lambda agent: Flaky())
    decisions = policy_map.decide_all(observations_for([1, 2, 3]))
    assert decisions[2] == PolicyDecision(REST, parse_status="fallback",
                                          error="ValueError: bad agent")
    assert decisions[1] == decisions[3] == PolicyDecision(action=REST)


def test_policy_map_asks_each_agent_in_id_order_then_each_batch_once():
    calls = []

    class Named(Policy):
        def __init__(self, name):
            self.name = name

        def decide(self, obs):
            calls.append((self.name, obs.agent.id))
            if self.name == "raises":
                raise ValueError("no decision")
            return PolicyDecision(action=REST)

    class Batched(Named):
        def decide_batch(self, observations):
            calls.append((self.name, [obs.agent.id for obs in observations]))
            return [PolicyDecision(action=GATHER)]

    shared = Named("shared")
    policies = {0: shared, 1: Named("alone"), 2: shared, 3: Batched("batched"),
                4: Named("raises")}
    decisions = PolicyMap(lambda agent: policies[agent.id]).decide_all(
        observations_for([4, 3, 2, 1, 0]))
    assert calls == [("shared", 0), ("alone", 1), ("shared", 2), ("raises", 4),
                     ("batched", [3])]
    assert [decisions[i].action for i in range(4)] == [REST, REST, REST, GATHER]
    assert decisions[4] == PolicyDecision(REST, parse_status="fallback",
                                          error="ValueError: no decision")


class Recorded(Policy):
    """Answers every decision alike, by its ``behaviour``: its own REST
    ("decides"), an exception ("raises"), None ("none"), or, batching, one
    decision too few ("short"). Each call goes on ``calls``."""

    def __init__(self, name, behaviour, calls):
        self.name, self.behaviour, self.calls = name, behaviour, calls

    def answer(self):
        if self.behaviour == "raises":
            raise ValueError(f"{self.name} failed")
        return None if self.behaviour == "none" else PolicyDecision(REST, raw_response=self.name)

    def decide(self, obs):
        self.calls.append((self.name, obs.agent.id))
        return self.answer()

    def expected(self, batch_size):
        errors = {"raises": f"ValueError: {self.name} failed",
                  "none": "TypeError: policy returned NoneType, not a PolicyDecision",
                  "short": f"RuntimeError: policy returned {batch_size - 1} decisions "
                           f"for {batch_size} observations"}
        if self.behaviour == "decides":
            return PolicyDecision(REST, raw_response=self.name)
        return PolicyDecision(REST, parse_status="fallback", error=errors[self.behaviour])


class RecordedBatch(Recorded):
    def decide_batch(self, observations):
        self.calls.append((self.name, [obs.agent.id for obs in observations]))
        if self.behaviour == "short":
            return [PolicyDecision(REST, raw_response=self.name)] * (len(observations) - 1)
        return [self.answer() for _ in observations]


POLICY_SPECS = st.one_of(
    st.tuples(st.just(Recorded), st.sampled_from(["decides", "raises", "none"])),
    st.tuples(st.just(RecordedBatch), st.sampled_from(["decides", "raises", "none", "short"])))


@given(specs=st.lists(POLICY_SPECS, min_size=1, max_size=4),
       assignment=st.dictionaries(st.integers(0, 40), st.integers(0, 3), min_size=1,
                                  max_size=12))
def test_decide_all_asks_each_policy_as_it_decides_and_isolates_its_faults(specs, assignment):
    # ``assignment`` maps agent ids, in no particular order, to policies:
    # two agents may share one, batching or not
    calls = []
    policies = [cls(f"p{i}", behaviour, calls) for i, (cls, behaviour) in enumerate(specs)]
    owner = {aid: policies[index % len(policies)] for aid, index in assignment.items()}
    decisions = PolicyMap(lambda agent: owner[agent.id]).decide_all(
        {aid: observation(make_agent(aid, (0, 0))) for aid in assignment})

    ids = sorted(assignment)
    batches = {}  # each batching policy's ids, in the order of its first agent
    for aid in ids:
        if isinstance(owner[aid], RecordedBatch):
            batches.setdefault(owner[aid], []).append(aid)
    assert calls == ([(owner[aid].name, aid) for aid in ids
                      if not isinstance(owner[aid], RecordedBatch)]
                     + [(policy.name, members) for policy, members in batches.items()])
    assert sorted(decisions) == ids
    for aid in ids:
        size = len(batches.get(owner[aid], [aid]))
        assert decisions[aid] == owner[aid].expected(size)


def test_policy_map_evaluate_proposal_fault_rejects():
    class Boom(Policy):
        def evaluate_proposal(self, view):
            raise RuntimeError("down")

    policy_map = PolicyMap(lambda agent: Boom())
    assert policy_map.evaluate_proposal(make_agent(0, (0, 0)), None) is False


def test_derive_policy_seed_is_stable_and_distinct():
    assert derive_policy_seed(42, 3) == derive_policy_seed(42, 3)
    assert derive_policy_seed(42, 3) != derive_policy_seed(42, 4)
    assert derive_policy_seed(42, 3) != derive_policy_seed(43, 3)


# --------------------------------------------------------------------------
# Scripted policies


def decide(name, obs, config=None):
    policy = make_scripted(name, obs.agent.id, config or small_config())
    return policy.decide(obs).action


def test_make_scripted_rejects_unknown_names():
    with pytest.raises(ValueError):
        make_scripted("clever", 0, small_config())
    assert set(SCRIPTED_POLICIES) == {
        "rest", "walker", "greedy", "trader", "aggressor", "suitor", "picky"}


def test_rest_only_rests():
    assert decide("rest", observation(make_agent(0, (0, 0)))) == REST


def test_walker_moves_one_step():
    action = decide("walker", observation(make_agent(0, (2, 2))))
    assert isinstance(action, Move) and len(action.steps) == 1


@pytest.mark.parametrize("name", ["walker", "greedy", "suitor"])
def test_scripted_moves_are_shared_decisions(name):
    # one decision per step tuple, whichever agent or turn makes it
    config = small_config(grid_width=9, grid_height=9, n_food_nodes=4, n_token_nodes=2)
    moves = {}
    for agent_id, pos in enumerate([(0, 0), (8, 8), (4, 4), (0, 8), (8, 0)]):
        policy = make_scripted(name, agent_id, config)
        for speed in (3, 6):  # one step or two per MOVE
            me = make_agent(agent_id, pos, attrs=Attributes(STR=3, SPD=speed, INT=3, SOC=3,
                                                            END=3, CHA=3))
            for _ in range(10):
                decision = policy.decide(observation(me, nodes=[
                    ObservedNode(pos=(4, 1), kind="food", stock=None)]))
                if isinstance(decision.action, Move):
                    assert moves.setdefault(decision.action.steps, decision) is decision
    assert moves and len(moves) <= 20


def test_greedy_gathers_on_node_else_approaches():
    me = make_agent(0, (2, 2))
    on_node = observation(me, nodes=[ObservedNode(pos=(2, 2), kind="food", stock=4)])
    assert decide("greedy", on_node) == Gather()
    away = observation(me, nodes=[ObservedNode(pos=(4, 2), kind="food", stock=4)])
    action = decide("greedy", away)
    assert isinstance(action, Move) and action.steps[0] == "E"
    empty = observation(me, nodes=[ObservedNode(pos=(2, 2), kind="food", stock=0)])
    assert not isinstance(decide("greedy", empty), Gather)


def test_greedy_skips_empty_for_stocked_node():
    me = make_agent(0, (2, 2))
    obs = observation(me, nodes=[
        ObservedNode(pos=(2, 2), kind="food", stock=0),
        ObservedNode(pos=(3, 2), kind="food", stock=4),
    ])
    action = decide("greedy", obs)
    assert isinstance(action, Move) and action.steps[0] == "E"


def two_pass_gather(policy, obs, kind=None):
    """Reference for ``_gather``: find the node underfoot, then take the
    nearest usable candidate elsewhere by (Manhattan distance, pos)."""
    me = obs.agent

    def usable(node):
        if kind is not None and node.kind != kind:
            return False
        return node.stock is None or node.stock > 0

    here = next((n for n in obs.nodes if n.pos == me.pos), None)
    if here is not None and usable(here):
        return PolicyDecision(GATHER)
    candidates = [n for n in obs.nodes if n.pos != me.pos and usable(n)]
    if not candidates:
        return None
    target = min(candidates, key=lambda n: (manhattan(me.pos, n.pos), n.pos))
    return policy._move_toward(me, target.pos)


GRID_CELLS = [(x, y) for x in range(7) for y in range(7)]


@st.composite
def gather_cases(draw):
    """Nodes on distinct cells of a 7x7 grid, of both kinds, with stock 0,
    positive or unseen; an observer on a node or on any cell."""
    cells = draw(st.lists(st.sampled_from(GRID_CELLS), unique=True, max_size=10))
    nodes = [ObservedNode(pos=cell, kind=draw(st.sampled_from(["food", "token"])),
                          stock=draw(st.none() | st.integers(0, 4)))
             for cell in cells]
    here = draw(st.sampled_from(cells) if cells and draw(st.booleans())
                else st.sampled_from(GRID_CELLS))
    spd = draw(st.sampled_from([3, 6]))  # one step or two per MOVE
    me = make_agent(0, here, attrs=Attributes(STR=3, SPD=spd, INT=3, SOC=3, END=3, CHA=3))
    return observation(me, nodes=nodes), draw(st.sampled_from([None, "food", "token"]))


@given(gather_cases())
def test_gather_action_equals_the_two_pass_scan(case):
    obs, kind = case
    policy = make_scripted("greedy", 0, small_config(grid_width=7, grid_height=7))
    assert policy._gather(obs, kind) == two_pass_gather(policy, obs, kind)


def test_aggressor_attacks_poorest_cellmate():
    me = make_agent(0, (2, 2), tokens=4)
    obs = observation(me, nearby=[
        NearbyAgent(id=5, pos=(2, 2), approx_food=40, approx_tokens=10,
                    role=None, vitality=None, attrs=None),
        NearbyAgent(id=3, pos=(2, 2), approx_food=10, approx_tokens=10,
                    role=None, vitality=None, attrs=None),
        NearbyAgent(id=9, pos=(3, 2), approx_food=0, approx_tokens=0,
                    role=None, vitality=None, attrs=None),
    ])
    assert decide("aggressor", obs) == Attack(target_id=3)


def test_aggressor_without_targets_gathers():
    me = make_agent(0, (2, 2))
    obs = observation(me, nodes=[ObservedNode(pos=(2, 2), kind="food", stock=3)])
    assert decide("aggressor", obs) == Gather()


def test_trader_offers_food_for_tokens_when_flush():
    config = small_config(upkeep=1)
    me = make_agent(0, (2, 2), food=50, tokens=2)
    obs = observation(me, nearby=[
        NearbyAgent(id=4, pos=(3, 3), approx_food=30, approx_tokens=12,
                    role=None, vitality=None, attrs=None),
    ])
    action = decide("trader", obs, config)
    assert isinstance(action, Trade) and action.target_id == 4
    assert action.offer_food > 0 and action.request_tokens > 0


def test_suitor_proposes_to_best_cellmate_chooser():
    me = make_agent(0, (2, 2), role=ROLE_PROVIDER, food=40, tokens=9,
                    vitality=7)
    obs = observation(me, variant=VARIANT_SEXUAL_SELECTION, nearby=[
        NearbyAgent(id=2, pos=(2, 2), approx_food=30, approx_tokens=9,
                    role=ROLE_CHOOSER, vitality=4, attrs=None),
        NearbyAgent(id=6, pos=(2, 2), approx_food=30, approx_tokens=9,
                    role=ROLE_CHOOSER, vitality=9, attrs=None),
    ])
    assert decide("suitor", obs) == Reproduce(target_id=6)


def test_picky_chooser_thresholds_on_vitality():
    policy = make_scripted("picky", 1, small_config())
    strong = ProposalView(provider_id=0, provider_attrs=flat_attrs(5),
                          provider_vitality=6, provider_food=30,
                          provider_tokens=9, chooser_id=1, chooser_food=40,
                          chooser_tokens=12, chooser_vitality=5,
                          food_cost=12, token_cost=5, turn=2)
    weak = ProposalView(provider_id=0, provider_attrs=flat_attrs(5),
                        provider_vitality=5, provider_food=30,
                        provider_tokens=9, chooser_id=1, chooser_food=40,
                        chooser_tokens=12, chooser_vitality=5,
                        food_cost=12, token_cost=5, turn=2)
    assert policy.evaluate_proposal(strong) is True
    assert policy.evaluate_proposal(weak) is False


# --------------------------------------------------------------------------
# LLM policy against the stub


def test_llm_policy_parses_and_falls_back(stub_gateway):
    replies = {"good": "GATHER", "chatty": "Let me see.\nMOVE N\nextra",
               "broken": "I simply cannot decide"}

    def responder(prompt):
        for token, reply in replies.items():
            if token in prompt:
                return reply
        return "REST"

    stub_gateway.responder = responder
    policy = LLMPolicy(gateway_config(stub_gateway))

    def ctx(agent_id, note):
        me = make_agent(agent_id, (0, 0))
        return observation(me, recent=[note])

    good, chatty, broken = policy.decide_batch(
        [ctx(0, "good"), ctx(1, "chatty"), ctx(2, "broken")])
    assert good.action == GATHER and good.parse_status == "ok"
    assert chatty.action == Move(steps=("N",)) and chatty.parse_status == "ok"
    assert broken.action == REST and broken.parse_status == "fallback"
    assert broken.raw_response == "I simply cannot decide"


def test_llm_policy_batch_isolates_gateway_errors(stub_gateway):
    stub_gateway.responder = lambda prompt: "GATHER"
    stub_gateway.status_script = [500, 500, 500, 500, 500]  # exhaust retries
    policy = LLMPolicy(gateway_config(stub_gateway, max_retries=1,
                                      max_concurrency=1))
    observations = [observation(make_agent(i, (0, 0))) for i in (0, 1)]
    first, second = policy.decide_batch(observations)
    assert first == PolicyDecision(REST, parse_status="fallback", error="GatewayError: HTTP 500")
    assert second.error == first.error or second == PolicyDecision(GATHER, raw_response="GATHER")


def test_a_reply_without_text_content_faults_only_its_own_decision(stub_gateway):
    # a null content once reached parse_action and faulted the whole batch
    stub_gateway.responder = lambda prompt: (None if prompt.startswith("You are Agent 0 ")
                                             else "GATHER")
    config = small_config(n_agents=4)
    records = step(new_game(config), build_policy_map("llm", config, gateway_config(stub_gateway)))
    faults = [r for r in records if r["type"] == "policy_fault"]
    assert [(r["agent_id"], r["error"]) for r in faults] == [
        (0, "GatewayError: malformed completion payload: content is NoneType")]
    actions = {r["agent_id"]: r["action"] for r in records if r["type"] == "action"}
    assert actions == {0: "REST", 1: "GATHER", 2: "GATHER", 3: "GATHER"}


def test_llm_policy_evaluates_proposals(stub_gateway):
    stub_gateway.responder = lambda prompt: "ACCEPT"
    policy = LLMPolicy(gateway_config(stub_gateway))
    view = ProposalView(provider_id=0, provider_attrs=flat_attrs(5),
                        provider_vitality=8, provider_food=30,
                        provider_tokens=9, chooser_id=1, chooser_food=40,
                        chooser_tokens=12, chooser_vitality=5,
                        food_cost=12, token_cost=5, turn=2)
    assert policy.evaluate_proposal(view) is True
    stub_gateway.responder = lambda prompt: "hmm"
    assert policy.evaluate_proposal(view) is False


def test_llm_chooser_gateway_fault_raises_and_the_map_rejects(stub_gateway):
    stub_gateway.responder = lambda prompt: "ACCEPT"
    policy = LLMPolicy(gateway_config(stub_gateway, max_retries=0))
    policy_map = PolicyMap(lambda agent: policy)
    chooser = make_agent(1, (0, 0), role=ROLE_CHOOSER)
    view = ProposalView(provider_id=0, provider_attrs=flat_attrs(5),
                        provider_vitality=8, provider_food=30,
                        provider_tokens=9, chooser_id=1, chooser_food=40,
                        chooser_tokens=12, chooser_vitality=5,
                        food_cost=12, token_cost=5, turn=2)
    stub_gateway.status_script = [500]
    with pytest.raises(GatewayError):
        policy.evaluate_proposal(view)
    stub_gateway.status_script = [500]
    assert policy_map.evaluate_proposal(chooser, view) is False
    assert policy_map.evaluate_proposal(chooser, view) is True  # the gateway is back
    assert stub_gateway.request_count == 3


def test_llm_decide_against_a_refused_endpoint_leaves_no_cycle(monkeypatch):
    monkeypatch.setenv(KEY_ENV, "stub-key")
    with socket.socket() as sock:  # bound, never listening: connections are refused
        sock.bind(("127.0.0.1", 0))
        config = GatewayConfig(endpoint_url=f"http://127.0.0.1:{sock.getsockname()[1]}/v1",
                               model_name="m", api_key_env_var=KEY_ENV, max_retries=0)
        policy = LLMPolicy(config)
        gc.collect()
        gc.disable()
        try:
            [result] = policy.decide_batch([observation(make_agent(0, (0, 0)))])
            assert result.action == REST and result.parse_status == "fallback"
            assert result.error.startswith("GatewayError: transport error: ")
            del result
            assert gc.collect() == 0
        finally:
            gc.enable()
