"""Prompt rendering, reply parsing, scripted baselines, and batch plumbing."""

import re

import pytest

from gridarena.actions import (
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
    ROLE_PROVIDER,
    VARIANT_SEXUAL_SELECTION,
    VARIANT_SURVIVAL,
)
from gridarena.engine import NearbyAgent, ObservedNode, Observation
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
    flat_attrs,
    gateway_config,
    make_agent,
    small_config,
)

BANNED_WORDS = ("cooperate", "should", "tip", "hint", "recommend")


def observation(agent, *, nearby=(), nodes=(), recent=(), messages=(),
                turn=5, variant=VARIANT_SURVIVAL):
    return Observation(agent=agent, nearby=tuple(nearby), nodes=tuple(nodes),
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
    assert isinstance(decisions[2], Exception)
    assert decisions[1].action == REST and decisions[3].action == REST


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

    good = policy.decide(ctx(0, "good"))
    assert good.action == GATHER and good.parse_status == "ok"
    chatty = policy.decide(ctx(1, "chatty"))
    assert chatty.action == Move(steps=("N",)) and chatty.parse_status == "ok"
    broken = policy.decide(ctx(2, "broken"))
    assert broken.action == REST and broken.parse_status == "fallback"
    assert broken.raw_response == "I simply cannot decide"


def test_llm_policy_batch_isolates_gateway_errors(stub_gateway):
    stub_gateway.responder = lambda prompt: "GATHER"
    stub_gateway.status_script = [500, 500, 500, 500, 500]  # exhaust retries
    policy = LLMPolicy(gateway_config(stub_gateway, max_retries=1,
                                      max_concurrency=1))
    observations = [observation(make_agent(i, (0, 0))) for i in (0, 1)]
    first, second = policy.decide_batch(observations)
    assert isinstance(first, Exception)
    assert isinstance(second, Exception) or second.action == GATHER


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
