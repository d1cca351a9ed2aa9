"""Role assignment, endowments, signaling, courtship, and offspring."""

import random

import pytest

from gridarena.actions import Communicate, Reproduce
from gridarena.core import (
    ATTRIBUTE_NAMES,
    ROLE_CHOOSER,
    ROLE_PROVIDER,
    VARIANT_SEXUAL_SELECTION,
    round_half_up,
)
from gridarena.gamelog import Delta
from gridarena.mating import (
    ProposalView,
    assign_roles,
    make_offspring,
    resolve_communicate,
    resolve_reproduce,
    vitality_endowment,
)

from conftest import flat_attrs, make_agent, make_state, small_config


def mating_state(agents, **config_overrides):
    config = small_config(n_agents=len(agents),
                          engine_variant=VARIANT_SEXUAL_SELECTION,
                          n_food_nodes=0, n_token_nodes=0, **config_overrides)
    return make_state(agents, config=config)


def provider(agent_id, pos, **kw):
    kw.setdefault("role", ROLE_PROVIDER)
    return make_agent(agent_id, pos, **kw)


def chooser(agent_id, pos, **kw):
    kw.setdefault("role", ROLE_CHOOSER)
    return make_agent(agent_id, pos, **kw)


class Verdict:
    """Stands in for the policies object during courtship."""

    def __init__(self, answer=True):
        self.answer = answer
        self.views = []

    def evaluate_proposal(self, agent, view):
        self.views.append((agent.id, view))
        if isinstance(self.answer, Exception):
            raise self.answer
        return self.answer


def propose(state, proposer_id, target_id, *, answer=True):
    verdict = Verdict(answer)
    delta = Delta(state)
    births = []
    outcome, event = resolve_reproduce(
        state, state.agents[proposer_id], Reproduce(target_id=target_id),
        delta, verdict, births)
    return outcome, event, delta, births, verdict


# --------------------------------------------------------------------------
# Setup helpers


def test_assign_roles_half_and_half():
    agents = [make_agent(i, (0, 0)) for i in range(6)]
    assign_roles(agents, random.Random(3))
    roles = [agent.role for agent in agents]
    assert roles.count(ROLE_PROVIDER) == roles.count(ROLE_CHOOSER) == 3


def test_assign_roles_is_seed_deterministic():
    def roles(seed):
        agents = [make_agent(i, (0, 0)) for i in range(8)]
        assign_roles(agents, random.Random(seed))
        return [agent.role for agent in agents]

    assert roles(7) == roles(7)


def test_assign_roles_rejects_odd_populations():
    with pytest.raises(ValueError):
        assign_roles([make_agent(i, (0, 0)) for i in range(3)], random.Random(0))


@pytest.mark.parametrize("vitality,food,tokens", [
    (1, 33, 9), (5, 45, 13), (10, 60, 18),
])
def test_vitality_endowment(vitality, food, tokens):
    assert vitality_endowment(vitality) == (food, tokens)


def test_vitality_endowment_bounds():
    with pytest.raises(ValueError):
        vitality_endowment(0)
    with pytest.raises(ValueError):
        vitality_endowment(11)


# --------------------------------------------------------------------------
# COMMUNICATE


def test_communicate_costs_reveals_and_delivers():
    sender = provider(0, (2, 2), attrs=flat_attrs(2), tokens=5)  # SOC 2
    near = chooser(1, (4, 2))
    far = chooser(2, (2, 0))  # Chebyshev 2 > SOC range? no: SOC 2 covers it
    outside = chooser(3, (0, 0))  # wait, (0,0) is Chebyshev 2 as well
    state = mating_state([sender, near, far, outside])
    state.turn = 4
    delta = Delta(state)
    outcome = resolve_communicate(state, sender, Communicate(message="hi all"), delta)
    assert outcome == "ok"
    assert sender.tokens == 3
    assert sender.revealed_until == 7  # visible on turns 5..7
    assert sorted(state.inbox) == [1, 2, 3]
    assert state.inbox[1] == [(0, "hi all")]


def test_communicate_range_is_sender_soc():
    sender = provider(0, (0, 0), attrs=flat_attrs(1), tokens=5)  # SOC 1
    near = chooser(1, (1, 1))
    outside = chooser(2, (2, 0))
    state = mating_state([sender, near, outside])
    delta = Delta(state)
    resolve_communicate(state, sender, Communicate(message="psst"), delta)
    assert sorted(state.inbox) == [1]


def test_communicate_needs_tokens():
    sender = provider(0, (0, 0), tokens=1)
    state = mating_state([sender, chooser(1, (0, 1))])
    delta = Delta(state)
    outcome = resolve_communicate(state, sender, Communicate(message="hi"), delta)
    assert outcome == "failed_no_tokens"
    assert sender.tokens == 1 and state.inbox == {}


# --------------------------------------------------------------------------
# REPRODUCE


def test_reproduce_accepted_costs_and_offspring():
    dad = provider(0, (1, 1), attrs=flat_attrs(4), food=30, tokens=10, vitality=8)
    mom = chooser(1, (1, 1), attrs=flat_attrs(6), food=40, tokens=12, vitality=4)
    state = mating_state([dad, mom])
    state.turn = 3
    outcome, event, delta, births, verdict = propose(state, 0, 1)
    assert outcome == "accepted"
    assert (dad.food, dad.tokens) == (24, 7)    # -6, -3
    assert (mom.food, mom.tokens) == (28, 7)    # -12, -5
    assert births == [2] and event.offspring_id == 2
    assert event.proposer_id == 0 and event.chooser_id == 1
    assert event.accepted is True and event.turn == 3
    child = state.agents[2]
    assert child.pos == (1, 1)
    assert child.role in (ROLE_PROVIDER, ROLE_CHOOSER)
    assert child.vitality == 6  # mean of 8 and 4
    assert (child.food, child.tokens) == vitality_endowment(6)
    assert any(op[0] == "spawn" for op in delta.ops)
    # chooser saw the full proposal
    (evaluator_id, view), = verdict.views
    assert evaluator_id == 1
    assert view.provider_id == 0 and view.provider_vitality == 8
    assert view.provider_attrs == dad.attrs
    assert (view.food_cost, view.token_cost) == (12, 5)


def test_reproduce_rejected_still_charges_both_by_default():
    dad = provider(0, (1, 1), food=30, tokens=10)
    mom = chooser(1, (1, 1), food=40, tokens=12)
    state = mating_state([dad, mom])
    outcome, event, _, births, _ = propose(state, 0, 1, answer=False)
    assert outcome == "rejected"
    assert (dad.food, dad.tokens) == (24, 7)
    assert (mom.food, mom.tokens) == (28, 7)
    assert births == [] and event.accepted is False and event.offspring_id is None


def test_reproduce_failure_ordering():
    state = mating_state([
        provider(0, (1, 1), food=30, tokens=10),
        chooser(1, (1, 1)),
        chooser(2, (3, 3)),
        provider(3, (1, 1)),
    ])
    # not a provider
    outcome, event, _, _, _ = propose(state, 1, 0)
    assert outcome == "failed_role" and event is None
    # bad targets: missing, self, dead
    assert propose(state, 0, 9)[0] == "failed_bad_target"
    assert propose(state, 0, 0)[0] == "failed_bad_target"
    state.agents[1].alive = False
    assert propose(state, 0, 1)[0] == "failed_bad_target"
    state.agents[1].alive = True
    # target exists but is not a chooser
    assert propose(state, 0, 3)[0] == "failed_role"
    # chooser elsewhere
    assert propose(state, 0, 2)[0] == "failed_bad_target"
    # nothing was charged anywhere above
    assert (state.agents[0].food, state.agents[0].tokens) == (30, 10)


def test_reproduce_requires_spare_capacity_before_charging():
    crowd = [provider(0, (1, 1), food=30, tokens=10), chooser(1, (1, 1)),
             provider(2, (1, 1))]
    state = mating_state(crowd, cell_capacity=3)
    outcome, event, delta, births, verdict = propose(state, 0, 1)
    assert outcome == "failed_cell_full"
    assert event is None and births == [] and delta.ops == []
    assert verdict.views == []  # chooser is never consulted
    assert (state.agents[0].food, state.agents[0].tokens) == (30, 10)


def test_reproduce_provider_insolvent_charges_nothing():
    dad = provider(0, (1, 1), food=5, tokens=10)
    mom = chooser(1, (1, 1))
    state = mating_state([dad, mom])
    outcome, event, delta, _, verdict = propose(state, 0, 1)
    assert outcome == "failed_insolvent"
    assert event is None and delta.ops == [] and verdict.views == []
    assert dad.food == 5


def test_reproduce_chooser_insolvent_spends_provider_cost():
    dad = provider(0, (1, 1), food=30, tokens=10)
    mom = chooser(1, (1, 1), food=5, tokens=12)
    state = mating_state([dad, mom])
    outcome, event, _, births, verdict = propose(state, 0, 1)
    assert outcome == "chooser_insolvent"
    assert (dad.food, dad.tokens) == (24, 7)
    assert (mom.food, mom.tokens) == (5, 12)
    assert births == [] and verdict.views == []
    assert event.accepted is False and event.offspring_id is None


def test_reproduce_evaluation_fault_counts_as_reject():
    dad = provider(0, (1, 1), food=30, tokens=10)
    mom = chooser(1, (1, 1), food=40, tokens=12)
    state = mating_state([dad, mom])
    from gridarena.policy import Policy, PolicyMap

    class Boom(Policy):
        def evaluate_proposal(self, view):
            raise RuntimeError("no verdict")

    policies = PolicyMap(lambda agent: Boom())
    delta = Delta(state)
    births = []
    outcome, event = resolve_reproduce(state, dad, Reproduce(target_id=1),
                                       delta, policies, births)
    assert outcome == "rejected" and births == []
    assert event.accepted is False
    assert (mom.food, mom.tokens) == (28, 7)  # rejection still costs her


# --------------------------------------------------------------------------
# Offspring


def test_make_offspring_is_deterministic_and_bounded():
    a = provider(0, (2, 2), attrs=flat_attrs(1), vitality=1)
    b = chooser(1, (2, 2), attrs=flat_attrs(10), vitality=10)
    child_one = make_offspring(a, b, random.Random(42), agent_id=5)
    child_two = make_offspring(a, b, random.Random(42), agent_id=5)
    assert child_one == child_two
    assert child_one.id == 5 and child_one.pos == (2, 2)
    for name in ATTRIBUTE_NAMES:
        assert 1 <= child_one.attrs.get(name) <= 10
    assert child_one.vitality == round_half_up((1 + 10) / 2)
    assert (child_one.food, child_one.tokens) == vitality_endowment(child_one.vitality)


def test_make_offspring_role_is_coin_flip():
    a = provider(0, (2, 2), vitality=5)
    b = chooser(1, (2, 2), vitality=5)
    roles = {make_offspring(a, b, random.Random(seed), agent_id=9).role
             for seed in range(30)}
    assert roles == {ROLE_PROVIDER, ROLE_CHOOSER}
