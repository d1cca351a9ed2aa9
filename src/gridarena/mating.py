"""Sexual-selection mechanics: roles, vitality endowments, costly signaling
(COMMUNICATE), and reproduction with asymmetric parental investment.

Providers propose (cheap: 6 food + 3 tokens); choosers evaluate (expensive:
12 food + 5 tokens, paid even on rejection). An accepted proposal
creates an offspring whose attributes are the parental means plus Gaussian
mutation, clipped to [1, 10]. The offspring first acts on the following turn.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from .actions import Communicate, Reproduce
from .core import (
    ATTRIBUTE_MAX,
    ATTRIBUTE_MIN,
    ATTRIBUTE_NAMES,
    AgentState,
    Attributes,
    GameState,
    ROLE_CHOOSER,
    ROLE_PROVIDER,
    chebyshev,
    clip,
    round_half_up,
)
from .gamelog import Delta


# Costs and windows of the sexual-selection variant. They are constants
# because the log header does not record them, so replay plays these.
PROVIDER_FOOD_COST = 6
PROVIDER_TOKEN_COST = 3
CHOOSER_FOOD_COST = 12
CHOOSER_TOKEN_COST = 5
COMMUNICATE_TOKEN_COST = 2
REVEAL_DURATION = 3
MUTATION_SIGMA = 1.0


@dataclass(frozen=True)
class ProposalView:
    """What a chooser sees when evaluating a reproduction proposal.

    Courtship is full inspection: the proposer's exact attributes and
    vitality are visible here, unlike the quantized passive observations.
    """

    provider_id: int
    provider_attrs: Attributes
    provider_vitality: int
    provider_food: int
    provider_tokens: int
    chooser_id: int
    chooser_food: int
    chooser_tokens: int
    chooser_vitality: int
    food_cost: int
    token_cost: int
    turn: int


@dataclass(frozen=True)
class ReproductionEvent:
    """One evaluated proposal. ``offspring_id`` is present iff accepted."""

    proposer_id: int
    chooser_id: int
    accepted: bool
    offspring_id: int | None
    turn: int

    def __post_init__(self):
        if self.accepted != (self.offspring_id is not None):
            raise ValueError("offspring_id present iff accepted")


def assign_roles(agents: list[AgentState], rng: random.Random) -> None:
    """Split the roster half/half into providers and choosers, seeded."""
    if len(agents) % 2 != 0:
        raise ValueError("role assignment needs an even agent count")
    ids = sorted(a.id for a in agents)
    rng.shuffle(ids)
    providers = set(ids[: len(ids) // 2])
    for agent in agents:
        agent.role = ROLE_PROVIDER if agent.id in providers else ROLE_CHOOSER


def vitality_endowment(vitality: int) -> tuple[int, int]:
    """Starting (food, tokens) for a vitality score: linear, radiant = (60, 18)."""
    if not 1 <= vitality <= 10:
        raise ValueError(f"vitality must be 1..10, got {vitality}")
    return 30 + 3 * vitality, 8 + vitality


def resolve_communicate(state: GameState, agent: AgentState, action: Communicate,
                        delta: Delta) -> str:
    """Costly signal: 2 tokens buys a 3-turn full-stats reveal, and the
    message lands in next turn's observations of agents within SOC_sender."""
    if agent.tokens < COMMUNICATE_TOKEN_COST:
        return "failed_no_tokens"
    delta.set_agent(agent, "tokens", agent.tokens - COMMUNICATE_TOKEN_COST)
    delta.set_agent(agent, "revealed_until", state.turn + REVEAL_DURATION)
    reach = agent.attrs.SOC
    for other in state.alive_agents():
        if other.id != agent.id and chebyshev(agent.pos, other.pos) <= reach:
            state.inbox.setdefault(other.id, []).append((agent.id, action.message))
    return "ok"


def make_offspring(parent_a: AgentState, parent_b: AgentState, rng: random.Random,
                   *, agent_id: int) -> AgentState:
    """Blend two parents into a new agent at their cell.

    Each attribute is the parental mean plus N(0, sigma), rounded half-up and
    clipped to [1, 10]; vitality is the rounded mean; the role is a fair coin.
    Draw order: six Gaussians in attribute order, then the role.
    """
    values = {}
    for name in ATTRIBUTE_NAMES:
        mean = (parent_a.attrs.get(name) + parent_b.attrs.get(name)) / 2
        values[name] = clip(round_half_up(mean + rng.gauss(0.0, MUTATION_SIGMA)),
                            ATTRIBUTE_MIN, ATTRIBUTE_MAX)
    vitality = clip(round_half_up((parent_a.vitality + parent_b.vitality) / 2), 1, 10)
    role = rng.choice((ROLE_PROVIDER, ROLE_CHOOSER))
    food, tokens = vitality_endowment(vitality)
    return AgentState(
        id=agent_id,
        pos=parent_a.pos,
        attrs=Attributes(**values),
        food=food,
        tokens=tokens,
        role=role,
        vitality=vitality,
    )


def resolve_reproduce(state: GameState, provider: AgentState, action: Reproduce,
                      delta: Delta, policies: Any,
                      births: list[int]) -> tuple[str, ReproductionEvent | None]:
    """Resolve one REPRODUCE proposal.

    Failure order: role checks, target checks, cell capacity (checked before
    anything is charged, equivalent to charge-then-refund), provider
    solvency. The provider then pays; an insolvent chooser auto-rejects with
    the provider's cost already spent. Otherwise the chooser's policy
    evaluates a ProposalView and pays its fee whether it accepts or not.
    """
    if provider.role != ROLE_PROVIDER:
        return "failed_role", None
    chooser = state.agents.get(action.target_id)
    if chooser is None or not chooser.alive or chooser.id == provider.id:
        return "failed_bad_target", None
    if chooser.role != ROLE_CHOOSER:
        return "failed_role", None
    if chooser.pos != provider.pos:
        return "failed_bad_target", None
    if state.occupancy(provider.pos) >= state.config.cell_capacity:
        return "failed_cell_full", None
    if provider.food < PROVIDER_FOOD_COST or provider.tokens < PROVIDER_TOKEN_COST:
        return "failed_insolvent", None

    delta.set_agent(provider, "food", provider.food - PROVIDER_FOOD_COST)
    delta.set_agent(provider, "tokens", provider.tokens - PROVIDER_TOKEN_COST)

    if chooser.food < CHOOSER_FOOD_COST or chooser.tokens < CHOOSER_TOKEN_COST:
        event = ReproductionEvent(provider.id, chooser.id, accepted=False,
                                  offspring_id=None, turn=state.turn)
        return "chooser_insolvent", event

    view = ProposalView(
        provider_id=provider.id,
        provider_attrs=provider.attrs,
        provider_vitality=provider.vitality,
        provider_food=provider.food,
        provider_tokens=provider.tokens,
        chooser_id=chooser.id,
        chooser_food=chooser.food,
        chooser_tokens=chooser.tokens,
        chooser_vitality=chooser.vitality,
        food_cost=CHOOSER_FOOD_COST,
        token_cost=CHOOSER_TOKEN_COST,
        turn=state.turn,
    )
    accepted = bool(policies.evaluate_proposal(chooser, view))
    delta.set_agent(chooser, "food", chooser.food - CHOOSER_FOOD_COST)
    delta.set_agent(chooser, "tokens", chooser.tokens - CHOOSER_TOKEN_COST)

    if not accepted:
        event = ReproductionEvent(provider.id, chooser.id, accepted=False,
                                  offspring_id=None, turn=state.turn)
        return "rejected", event

    child = make_offspring(provider, chooser, state.rng,
                           agent_id=state.next_agent_id)
    state.next_agent_id += 1
    delta.spawn(child)
    births.append(child.id)
    event = ReproductionEvent(provider.id, chooser.id, accepted=True,
                              offspring_id=child.id, turn=state.turn)
    return "accepted", event
