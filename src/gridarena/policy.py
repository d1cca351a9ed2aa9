"""The agent-decision boundary: policy interface, scripted baselines,
prompt construction, and free-text action parsing.

A policy turns an ``engine.Observation`` into a ``PolicyDecision``. Scripted
policies are pure functions of (observation, policy-internal seed); the LLM
policy renders a prompt, calls the gateway, and parses the reply, falling
back to REST when the reply has no parseable action line.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Sequence

from .actions import (
    ACTION_TYPES,
    ActionParseError,
    Attack,
    Communicate,
    DIRECTIONS,
    GATHER,
    Move,
    PolicyDecision,
    REST,
    Reproduce,
    Trade,
    USAGE_LINES,
    parse_action,
)
from .core import (
    AgentState,
    GameConfig,
    ROLE_CHOOSER,
    ROLE_PROVIDER,
    VARIANT_SEXUAL_SELECTION,
    VISION_RANGE,
    below,
    manhattan,
    vitality_band,
)
from .engine import ATTACK_TOKEN_COST, Observation, ViewError
from .gateway import GatewayConfig, GatewayError, batch_complete, complete
from .mating import PROVIDER_TOKEN_COST


def available_actions(observation: Observation) -> tuple[str, ...]:
    """Action names legal for this observer, in ``ACTION_TYPES`` order: the
    survival six, plus COMMUNICATE under sexual_selection, plus REPRODUCE
    for providers only (``actions._KINDS`` puts those two last, in that order)."""
    if observation.variant != VARIANT_SEXUAL_SELECTION:
        return ACTION_TYPES[:-2]
    return ACTION_TYPES if observation.agent.role == ROLE_PROVIDER else ACTION_TYPES[:-1]


# --------------------------------------------------------------------------
# Prompt construction


def _actions_block(names: Sequence[str]) -> str:
    items = [USAGE_LINES[n] for n in names]
    rows = [items[i:i + 3] for i in range(0, len(items), 3)]
    return ",\n".join(", ".join(row) for row in rows)


def _attr_line(attrs: Any) -> str:
    return (f"STR={attrs.STR} SPD={attrs.SPD} INT={attrs.INT} "
            f"SOC={attrs.SOC} END={attrs.END} CHA={attrs.CHA}")


def build_prompt(obs: Observation) -> str:
    """Render the per-turn decision prompt. Byte-stable for equal observations.

    List sections (resource nodes, nearby agents, recent actions, messages)
    render their header with zero entry lines when empty.
    """
    me = obs.agent
    sexual = obs.variant == VARIANT_SEXUAL_SELECTION

    lines = [
        f"You are Agent {me.id} in a survival arena.",
        "",
        "YOUR STATUS:",
        f"- Position: ({me.pos[0]}, {me.pos[1]})",
        f"- Food: {me.food}, Tokens: {me.tokens}, Health: {me.health}/{me.max_health}",
        f"- Attributes: {_attr_line(me.attrs)}",
    ]
    if sexual:
        lines.append(f"- Role: {me.role}")
        lines.append(f"- Vitality: {me.vitality} ({vitality_band(me.vitality)})")
    lines.append("")

    lines.append("RESOURCE NODES:")
    for node in obs.nodes:
        entry = f"- {node.kind} node at ({node.pos[0]}, {node.pos[1]})"
        if node.stock is not None:
            entry += f", stock {node.stock}"
        lines.append(entry)
    lines.append("")

    lines.append(f"NEARBY AGENTS (within {VISION_RANGE} cells):")
    for other in obs.nearby:
        entry = (f"- Agent {other.id} at ({other.pos[0]}, {other.pos[1]}): "
                 f"~{other.approx_food} food, ~{other.approx_tokens} tokens")
        if other.role is not None:
            entry += f", {other.role}, vitality {other.vitality}"
        if other.attrs is not None:
            entry += f", attributes {_attr_line(other.attrs)}"
        lines.append(entry)
    lines.append("")

    lines.append("RECENT ACTIONS:")
    for text in obs.recent_actions:
        lines.append(f"- {text}")
    lines.append("")

    if sexual:
        lines.append("MESSAGES:")
        for sender_id, message in obs.messages:
            lines.append(f'- From Agent {sender_id}: "{message}"')
        lines.append("")

    lines.append("AVAILABLE ACTIONS:")
    lines.append(_actions_block(available_actions(obs)))
    lines.append("")
    lines.append("Offer and request take the form [food]f[tokens]t, e.g. 5f2t.")
    lines.append("")
    lines.append("Choose exactly ONE action. Respond with the action name")
    lines.append("and parameters only.")
    return "\n".join(lines)


def build_proposal_prompt(view: Any) -> str:
    """Render the chooser-side evaluation prompt for a reproduction proposal."""
    lines = [
        f"You are Agent {view.chooser_id} in a survival arena.",
        "",
        f"Agent {view.provider_id} at your cell proposes reproduction with you.",
        "",
        "PROPOSER:",
        f"- Attributes: {_attr_line(view.provider_attrs)}",
        f"- Vitality: {view.provider_vitality} ({vitality_band(view.provider_vitality)})",
        f"- Food: {view.provider_food}, Tokens: {view.provider_tokens}",
        "",
        "YOUR STATUS:",
        f"- Food: {view.chooser_food}, Tokens: {view.chooser_tokens}, "
        f"Vitality: {view.chooser_vitality} ({vitality_band(view.chooser_vitality)})",
        "",
        f"Evaluating this proposal costs you {view.food_cost} food "
        f"and {view.token_cost} tokens.",
        "",
        "Respond with ACCEPT or REJECT only.",
    ]
    return "\n".join(lines)


def parse_verdict(text: str) -> bool | None:
    """Find the first ACCEPT/REJECT line; None when neither appears."""
    for raw in text.splitlines():
        word = raw.strip().rstrip(".!").strip().upper()
        if word == "ACCEPT":
            return True
        if word == "REJECT":
            return False
    return None


# --------------------------------------------------------------------------
# Policy interface


def _fault(exc: Exception) -> PolicyDecision:
    """The decision of a policy that failed with ``exc``, as the log records it."""
    return PolicyDecision(REST, parse_status="fallback", error=f"{type(exc).__name__}: {exc}")


def _checked(decision: Any) -> PolicyDecision:
    """``decision``, or the fault decision if a policy gave something else."""
    if isinstance(decision, PolicyDecision):
        return decision
    return _fault(TypeError(f"policy returned {type(decision).__name__}, not a PolicyDecision"))


def _decided(policy: "Policy", obs: Observation) -> PolicyDecision:
    """``policy.decide(obs)``, or the fault decision if it raised or gave no
    ``PolicyDecision`` (``ViewError``, an engine fault in a view, is re-raised)."""
    try:
        return _checked(policy.decide(obs))
    except ViewError:
        raise
    except Exception as exc:
        return _fault(exc)


class Policy:
    """Decision maker for one or more agents.

    ``PolicyMap`` asks a policy through ``decide``, one observation at a
    time, unless its class overrides ``decide_batch`` (``LLMPolicy`` does):
    then it is asked once a turn for all its agents. ``decide_batch`` gives
    one decision per observation, in order, and isolates failures per
    observation: a ``decide`` that raises gives that slot the fault decision
    (``_fault``), and the engine logs the fault. A ``ViewError`` (the engine
    failed to work out a view) is passed on.
    """

    def decide(self, obs: Observation) -> PolicyDecision:
        raise NotImplementedError

    def decide_batch(self, observations: Sequence[Observation]) -> list[PolicyDecision]:
        return [_decided(self, obs) for obs in observations]

    def evaluate_proposal(self, view: Any) -> bool:
        """A chooser's verdict on a REPRODUCE proposal. It may raise (a
        gateway fault, say): ``PolicyMap.evaluate_proposal`` turns any fault
        into a rejection."""
        return True


class PolicyMap:
    """Routes agents to policies and implements the engine-facing protocol.

    Policies are created lazily through ``factory(agent)`` and cached by
    agent id, so offspring born mid-game get policies on first use.
    ``decide_all`` walks the agents in id order and asks each one's policy
    through ``decide`` at once, unless the policy overrides ``decide_batch``:
    such a policy is asked once, after the others, with its agents'
    observations in id order. Whatever a policy gives that is not a
    ``PolicyDecision`` (``None``, say) becomes the fault decision, so
    ``decide_all`` keeps the engine's protocol for any policy.
    """

    def __init__(self, factory):
        self._factory = factory
        self._cache: dict[int, Policy] = {}

    def policy_for(self, agent: AgentState) -> Policy:
        policy = self._cache.get(agent.id)
        if policy is None:
            policy = self._factory(agent)
            self._cache[agent.id] = policy
        return policy

    def decide_all(self, observations: dict[int, Observation]) -> dict[int, PolicyDecision]:
        results: dict[int, PolicyDecision] = {}
        batches: dict[int, tuple[Policy, list[int]]] = {}  # by policy instance
        for aid in sorted(observations):
            obs = observations[aid]
            policy = self.policy_for(obs.agent)
            if type(policy).decide_batch is Policy.decide_batch:
                results[aid] = _decided(policy, obs)
            else:
                batches.setdefault(id(policy), (policy, []))[1].append(aid)

        for policy, ids in batches.values():
            try:
                batch = list(policy.decide_batch([observations[a] for a in ids]))
            except ViewError:
                raise
            except Exception as exc:
                batch = [_fault(exc)] * len(ids)
            if len(batch) != len(ids):
                error = RuntimeError(
                    f"policy returned {len(batch)} decisions for {len(ids)} observations")
                batch = [_fault(error)] * len(ids)
            for aid, decision in zip(ids, batch):
                results[aid] = _checked(decision)
        return results

    def evaluate_proposal(self, chooser: AgentState, view: Any) -> bool:
        # A fault while evaluating is the conservative verdict: reject.
        try:
            return bool(self.policy_for(chooser).evaluate_proposal(view))
        except Exception:
            return False


# --------------------------------------------------------------------------
# Scripted baselines


def derive_policy_seed(config_seed: int, agent_id: int) -> int:
    """Stable per-agent seed stream, independent of the game RNG."""
    digest = hashlib.sha256(f"{config_seed}:{agent_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# Scripted decisions are shared by every agent: REST, GATHER, and one MOVE per
# step tuple (4 of one step and 16 of two), so a scripted MOVE builds nothing.
_REST = PolicyDecision(REST)
_GATHER = PolicyDecision(GATHER)
_MOVES = {steps: PolicyDecision(Move(steps)) for steps in
          [(a,) for a in DIRECTIONS] + [(a, b) for a in DIRECTIONS for b in DIRECTIONS]}
# a random step is ``_ONE_STEP[below(rng.getrandbits, 4)]``, as ``rng.choice("NSEW")`` draws it
_ONE_STEP = tuple(_MOVES[(name,)] for name in "NSEW")


class ScriptedPolicy(Policy):
    def __init__(self, config: GameConfig, seed: int):
        self.config = config
        self.rng = random.Random(seed)

    # Shared movement helper: one greedy Manhattan step, ties broken N,E,S,W.
    def _step_toward(self, frm: tuple[int, int], to: tuple[int, int]) -> str | None:
        best_name = None
        best_dist = manhattan(frm, to)
        for name in ("N", "E", "S", "W"):
            dx, dy = DIRECTIONS[name]
            nxt = (frm[0] + dx, frm[1] + dy)
            if not self.config.in_bounds(nxt):
                continue
            dist = manhattan(nxt, to)
            if dist < best_dist:
                best_name, best_dist = name, dist
        return best_name

    def _move_toward(self, agent: AgentState, to: tuple[int, int]) -> PolicyDecision | None:
        """Greedy steps toward ``to``, as many as one MOVE of ``agent`` takes."""
        steps: list[str] = []
        pos = agent.pos
        while len(steps) < agent.move_steps:
            step = self._step_toward(pos, to)
            if step is None:
                break
            steps.append(step)
            dx, dy = DIRECTIONS[step]
            pos = (pos[0] + dx, pos[1] + dy)
        return _MOVES[tuple(steps)] if steps else None

    def _gather(self, obs: Observation, kind: str | None = None) -> PolicyDecision | None:
        """GATHER on a usable node underfoot, else MOVE toward the nearest
        candidate node by (Manhattan distance, pos), else None. Unknown stock
        counts as a candidate. ``obs.node_order`` is that order, so the walk
        stops at the first usable node."""
        nodes = obs.nodes
        for rank in obs.node_order:
            pos, node_kind, stock = nodes[rank]
            if (stock is None or stock > 0) and (kind is None or node_kind == kind):
                return _GATHER if pos == obs.agent.pos else self._move_toward(obs.agent, pos)
        return None


class RestOnly(ScriptedPolicy):
    """Sits still forever; the survival-horizon oracle."""

    def decide(self, obs: Observation) -> PolicyDecision:
        return _REST


class RandomWalker(ScriptedPolicy):
    """One seeded-random step per turn."""

    def decide(self, obs: Observation) -> PolicyDecision:
        return _ONE_STEP[below(self.rng.getrandbits, 4)]


class GreedyGatherer(ScriptedPolicy):
    """Gathers underfoot, else heads for the nearest node believed non-empty."""

    def decide(self, obs: Observation) -> PolicyDecision:
        return self._gather(obs) or _REST


class Trader(ScriptedPolicy):
    """Offers 2 food for 1 token to the richest visible neighbor whenever
    food exceeds ten upkeeps' worth; otherwise behaves like the gatherer."""

    def decide(self, obs: Observation) -> PolicyDecision:
        me = obs.agent
        if me.food > 10 * self.config.upkeep and (nearby := obs.nearby):
            target = max(nearby,
                         key=lambda n: (n.approx_food + n.approx_tokens, -n.id))
            return PolicyDecision(Trade(target.id, offer_food=2, offer_tokens=0,
                                        request_food=0, request_tokens=1))
        return self._gather(obs) or _REST


class Aggressor(ScriptedPolicy):
    """Attacks the weakest-looking co-located agent (lowest approximate food,
    ties to the lower id) while it can pay the token cost, else gathers."""

    def decide(self, obs: Observation) -> PolicyDecision:
        me = obs.agent
        same_cell = [n for n in obs.nearby if n.pos == me.pos]
        if same_cell and me.tokens >= ATTACK_TOKEN_COST:
            target = min(same_cell, key=lambda n: (n.approx_food, n.id))
            return PolicyDecision(Attack(target.id))
        return self._gather(obs) or _REST


class Suitor(ScriptedPolicy):
    """Provider baseline: proposes to a co-located chooser when well stocked,
    signals with COMMUNICATE when flush with tokens, keeps itself fed, and
    otherwise drifts toward visible choosers."""

    PROPOSE_FOOD_FLOOR = 20
    SIGNAL_TOKEN_FLOOR = 8

    def decide(self, obs: Observation) -> PolicyDecision:
        me = obs.agent
        choosers = [n for n in obs.nearby if n.role == ROLE_CHOOSER]

        here = [n for n in choosers if n.pos == me.pos]
        if here and me.food >= self.PROPOSE_FOOD_FLOOR and me.tokens >= PROVIDER_TOKEN_COST:
            target = max(here, key=lambda n: ((n.vitality or 0), -n.id))
            return PolicyDecision(Reproduce(target.id))

        if choosers and me.tokens >= self.SIGNAL_TOKEN_FLOOR and not me.revealed(obs.turn):
            message = f"Agent {me.id} {vitality_band(me.vitality)}, vitality {me.vitality}, food {me.food}"
            return PolicyDecision(Communicate(message))

        if me.tokens < PROVIDER_TOKEN_COST:
            decision = self._gather(obs, kind="token") or self._gather(obs)
            if decision is not None:
                return decision
        if me.food < self.PROPOSE_FOOD_FLOOR:
            decision = self._gather(obs, kind="food") or self._gather(obs)
            if decision is not None:
                return decision

        if choosers:
            target = min(choosers, key=lambda n: (manhattan(me.pos, n.pos), n.id))
            move = self._move_toward(me, target.pos)
            if move is not None:
                return move
        return _ONE_STEP[below(self.rng.getrandbits, 4)]


class PickyChooser(GreedyGatherer):
    """Chooser baseline: gathers to stay solvent and accepts only proposals
    from providers of robust-or-better vitality."""

    ACCEPT_VITALITY_FLOOR = 6

    def evaluate_proposal(self, view: Any) -> bool:
        return view.provider_vitality >= self.ACCEPT_VITALITY_FLOOR


SCRIPTED_POLICIES: dict[str, type[ScriptedPolicy]] = {
    "rest": RestOnly,
    "walker": RandomWalker,
    "greedy": GreedyGatherer,
    "trader": Trader,
    "aggressor": Aggressor,
    "suitor": Suitor,
    "picky": PickyChooser,
}


def make_scripted(name: str, agent_id: int, config: GameConfig) -> ScriptedPolicy:
    try:
        cls = SCRIPTED_POLICIES[name]
    except KeyError:
        raise ValueError(f"unknown scripted policy {name!r}; "
                         f"choices: {', '.join(sorted(SCRIPTED_POLICIES))}") from None
    return cls(config, derive_policy_seed(config.seed, agent_id))


# --------------------------------------------------------------------------
# LLM-backed policy


class LLMPolicy(Policy):
    """Prompts a chat-completion endpoint for every decision.

    Use one shared instance for all LLM agents in a run so their observations
    batch into a single bounded-concurrency gateway call per turn. A gateway
    failure becomes the fault decision (the engine logs a policy_fault);
    replies that merely fail to parse become REST decisions flagged
    ``parse_status="fallback"`` with no ``error``.
    """

    def __init__(self, gateway_config: GatewayConfig):
        self.gateway_config = gateway_config

    def decide_batch(self, observations: Sequence[Observation]) -> list[PolicyDecision]:
        prompts = [build_prompt(obs) for obs in observations]
        replies = batch_complete(prompts, self.gateway_config)
        out: list[PolicyDecision] = []
        for reply in replies:
            if isinstance(reply, GatewayError):
                out.append(_fault(reply))
                continue
            try:
                out.append(PolicyDecision(parse_action(reply), raw_response=reply))
            except ActionParseError:
                out.append(PolicyDecision(REST, raw_response=reply, parse_status="fallback"))
        return out

    def evaluate_proposal(self, view: Any) -> bool:
        reply = complete(build_proposal_prompt(view), self.gateway_config)
        return parse_verdict(reply) is True
