"""Acceptance gate: nine criteria, one test (and one summary line) each.

c1  entropy cross-validation against reference action distributions
c2  survival-horizon arithmetic for REST-only populations
c3  byte-identical determinism for every preset
c4  conservation suite over >= 100 randomized scripted games
c5  entropy-confound direction (pooled vs per-turn; totals fall with upkeep)
c6  mating mechanics: offspring stats, reproduction costs, no unprovoked attacks
c7  prompt/parse round-trip, byte-stable template, no steering language
c8  gateway contract against an instrumented stub
c9  stub-model end-to-end run of all presets, with report output
"""

import math
import random
import statistics

import pytest
from hypothesis import given, settings, strategies as st

from gridarena.actions import (
    Communicate,
    GATHER,
    Gather,
    Move,
    REST,
    Reproduce,
    Rest,
    Attack,
    Trade,
    Train,
    parse_action,
    render,
)
from gridarena.core import (
    ATTRIBUTE_NAMES,
    GameConfig,
    VARIANT_SEXUAL_SELECTION,
    new_game,
)
from gridarena.engine import run_game
from gridarena.gamelog import GameLog, replay
from gridarena.gateway import batch_complete, complete
from gridarena.harness import (
    PRESETS,
    analyze,
    build_policy_map,
    run_experiment,
    sweep,
)
from gridarena.mating import make_offspring, vitality_endowment
from gridarena.metrics import normalized_entropy, per_turn_entropy
from gridarena.policy import (
    PolicyMap,
    build_prompt,
)

from conftest import (
    ScriptedSequence,
    canned_responder,
    flat_attrs,
    gateway_config,
    make_agent,
)
from test_policy import (
    PROPOSAL_PROMPT,
    SURVIVAL_PROMPT,
    banned_word_hits,
    observation,
    survival_observation,
)


# --------------------------------------------------------------------------
# c1: entropy cross-validation


REFERENCE_DISTRIBUTIONS = {
    2: {"GATHER": 44.6, "MOVE": 29.5, "ATTACK": 11.7, "TRAIN": 9.6,
        "TRADE": 2.8, "REST": 1.9},
    4: {"GATHER": 45.6, "MOVE": 26.6, "ATTACK": 11.7, "TRAIN": 8.6,
        "TRADE": 3.9, "REST": 3.5},
    5: {"GATHER": 40.6, "MOVE": 22.7, "ATTACK": 14.6, "TRAIN": 9.8,
        "TRADE": 8.4, "REST": 4.1},
    6: {"GATHER": 42.2, "MOVE": 22.7, "ATTACK": 12.7, "TRAIN": 7.8,
        "TRADE": 6.5, "REST": 8.1},
    7: {"GATHER": 38.8, "MOVE": 23.4, "ATTACK": 9.5, "TRAIN": 10.0,
        "TRADE": 9.5, "REST": 9.0},
}

REFERENCE_ENTROPY = {2: 0.764, 4: 0.791, 5: 0.864, 6: 0.861, 7: 0.892}


def test_c1_entropy_cross_validation():
    for upkeep, expected in REFERENCE_ENTROPY.items():
        value = normalized_entropy(REFERENCE_DISTRIBUTIONS[upkeep])
        assert value == pytest.approx(expected, abs=0.004), f"u={upkeep}"


# --------------------------------------------------------------------------
# c2: survival-horizon arithmetic


@pytest.mark.parametrize("upkeep,horizon", [(2, 30), (5, 12)])
def test_c2_survival_horizon(upkeep, horizon):
    record = run_experiment("P1", {"upkeep": upkeep}, ack_overrides=True,
                            policies="scripted:rest")
    assert record.summary.duration == horizon == math.ceil(60 / upkeep)
    assert record.summary.survivors == 0


# --------------------------------------------------------------------------
# c3: determinism


def test_c3_determinism_across_presets():
    for name in PRESETS:
        first = run_experiment(name)
        second = run_experiment(name)
        assert first.log_sha256 == second.log_sha256, name
        assert first.experiment_id == second.experiment_id, name


# --------------------------------------------------------------------------
# c4: conservation suite


def _as_key(value):
    return tuple(value) if isinstance(value, list) else value


class Mirror:
    """Independent state fold used to re-derive every ledger identity."""

    def __init__(self, header):
        self.upkeep = header["config"]["upkeep"]
        self.cell_capacity = header["config"]["cell_capacity"]
        self.agents = {}
        for snap in header["agents"]:
            self.agents[snap["id"]] = self._agent(snap)
        self.nodes = [dict(snap) for snap in header["nodes"]]

    @staticmethod
    def _agent(snap):
        agent = dict(snap)
        agent["pos"] = tuple(snap["pos"])
        agent["attrs"] = dict(snap["attrs"])
        agent["train_progress"] = dict(snap["train_progress"])
        return agent

    def alive_count(self):
        return sum(1 for agent in self.agents.values() if agent["alive"])

    def occupancy_ok(self):
        cells = {}
        for agent in self.agents.values():
            if agent["alive"]:
                cells[agent["pos"]] = cells.get(agent["pos"], 0) + 1
        return all(count <= self.cell_capacity for count in cells.values())

    def apply(self, ops):
        """Apply one event delta; returns (per-agent field changes, spawns)."""
        changes = {}
        spawns = []
        for op in ops:
            if op[0] == "agent":
                _, agent_id, field, before, after = op
                agent = self.agents[agent_id]
                if field.startswith("attr:"):
                    store, key = agent["attrs"], field[5:]
                elif field.startswith("train:"):
                    store, key = agent["train_progress"], field[6:]
                else:
                    store, key = agent, field
                current = store.get(key, 0) if field.startswith("train:") else store[key]
                assert _as_key(current) == _as_key(before), (field, current, before)
                store[key] = tuple(after) if field == "pos" else after
                changes[(agent_id, field)] = (before, after)
            elif op[0] == "node":
                _, index, _, before, after = op
                assert self.nodes[index]["stock"] == before
                self.nodes[index]["stock"] = after
                changes[("node", index)] = (before, after)
            elif op[0] == "spawn":
                snap = op[1]
                assert snap["id"] not in self.agents
                self.agents[snap["id"]] = self._agent(snap)
                spawns.append(snap)
            else:
                pytest.fail(f"unknown op {op!r}")
        return changes, spawns


def _resource_changes(changes, agent_id):
    food = changes.get((agent_id, "food"), (0, 0))
    tokens = changes.get((agent_id, "tokens"), (0, 0))
    return food[1] - food[0], tokens[1] - tokens[0]


def check_conservation(log):
    mirror = Mirror(log.header)
    alive_at_turn_start = mirror.alive_count()
    spawned_this_turn = 0

    for event in log:
        kind = event["type"]
        if kind in ("header", "end", "policy_fault"):
            continue
        before_alive = {aid for aid, a in mirror.agents.items() if a["alive"]}
        attrs_before = {aid: dict(a["attrs"]) for aid, a in mirror.agents.items()}
        changes, spawns = mirror.apply(event.get("delta", ()))
        spawned_this_turn += len(spawns)
        assert mirror.occupancy_ok(), "cell over capacity"

        died_now = [aid for aid in before_alive
                    if not mirror.agents[aid]["alive"]]
        for aid in died_now:
            agent = mirror.agents[aid]
            assert agent["food"] <= 0 or agent["health"] <= 0

        if kind == "upkeep":
            for (aid, field), (before, after) in changes.items():
                if field == "food":
                    assert after == max(0, before - mirror.upkeep)
                else:
                    assert field == "alive"
            assert sorted(event["deaths"]) == sorted(died_now)
            if mirror.upkeep == 0:
                assert not changes

        elif kind == "regen":
            for key, (before, after) in changes.items():
                assert key[0] == "node"
                node = mirror.nodes[key[1]]
                cap = 5 * node["regen"]
                assert after == min(cap, before + node["regen"])

        elif kind == "turn_end":
            for (aid, field), _ in changes.items():
                assert field == "alive", "closing sweep may only flip alive"
            alive_now = mirror.alive_count()
            assert alive_now == (alive_at_turn_start - len(event["deaths"])
                                 + len(event["births"]))
            assert len(set(event["deaths"])) == len(event["deaths"])
            assert len(event["births"]) == spawned_this_turn
            alive_at_turn_start = alive_now
            spawned_this_turn = 0

        elif kind == "action":
            action = parse_action(event["action"])
            outcome = event["outcome"]
            actor = event["agent_id"]
            if outcome.startswith("failed_") or outcome == "cancelled_dead":
                assert not changes and not spawns
                continue

            if isinstance(action, Gather):
                node_changes = [(k, v) for k, v in changes.items()
                                if k[0] == "node"]
                assert len(node_changes) == 1
                (_, index), (node_before, node_after) = node_changes[0]
                node = mirror.nodes[index]
                strength = attrs_before[actor]["STR"]
                harvest = node_before - node_after
                assert harvest == min(node_before, 1 + math.ceil(strength / 2))
                field = "food" if node["kind"] == "food" else "tokens"
                gained = changes[(actor, field)]
                assert gained[1] - gained[0] == harvest

            elif isinstance(action, Trade):
                partner = action.target_id
                actor_food, actor_tokens = _resource_changes(changes, actor)
                partner_food, partner_tokens = _resource_changes(changes, partner)
                if outcome == "accepted":
                    assert actor_food == -action.offer_food + action.request_food
                    assert actor_tokens == -action.offer_tokens + action.request_tokens
                    assert actor_food + partner_food == 0
                    assert actor_tokens + partner_tokens == 0
                else:
                    assert outcome == "rejected"
                    assert not changes

            elif isinstance(action, Attack):
                assert outcome == "ok"
                _, token_change = _resource_changes(changes, actor)
                assert token_change == -1
                health = changes[(action.target_id, "health")]
                strength = attrs_before[actor]["STR"]
                assert health[0] - health[1] == min(strength, health[0])

            elif isinstance(action, Communicate):
                assert outcome == "ok"
                _, token_change = _resource_changes(changes, actor)
                assert token_change == -2
                assert (actor, "revealed_until") in changes

            elif isinstance(action, Reproduce):
                chooser = action.target_id
                actor_food, actor_tokens = _resource_changes(changes, actor)
                chooser_food, chooser_tokens = _resource_changes(changes, chooser)
                assert (actor_food, actor_tokens) == (-6, -3)
                if outcome == "chooser_insolvent":
                    assert (chooser_food, chooser_tokens) == (0, 0)
                    assert not spawns
                else:
                    assert (chooser_food, chooser_tokens) == (-12, -5)
                if outcome == "accepted":
                    (snap,) = spawns
                    assert (snap["food"], snap["tokens"]) == \
                        vitality_endowment(snap["vitality"])
                    assert all(1 <= v <= 10 for v in snap["attrs"].values())
                else:
                    assert outcome in ("rejected", "chooser_insolvent")
                    assert not spawns

            elif isinstance(action, (Rest, Move)):
                resource_fields = {field for (_, field) in changes
                                   if field in ("food", "tokens")}
                assert not resource_fields

            elif isinstance(action, Train):
                for (aid, field), _ in changes.items():
                    assert aid == actor
                    assert field.startswith(("attr:", "train:"))


SCRIPTED_SURVIVAL = ("scripted:greedy", "scripted:walker", "scripted:trader",
                     "scripted:aggressor", "mixed:0-1=aggressor,*=greedy")
SCRIPTED_MATING = ("byrole:provider=suitor,chooser=picky",
                   "mixed:0=suitor,*=picky")


@st.composite
def game_setups(draw):
    sexual = draw(st.booleans())
    n_agents = draw(st.integers(min_value=1, max_value=4)) * 2
    config = GameConfig(
        grid_width=draw(st.integers(min_value=3, max_value=6)),
        grid_height=draw(st.integers(min_value=3, max_value=6)),
        n_food_nodes=draw(st.integers(min_value=0, max_value=3)),
        n_token_nodes=draw(st.integers(min_value=0, max_value=2)),
        food_regen=draw(st.integers(min_value=1, max_value=3)),
        token_regen=draw(st.integers(min_value=1, max_value=3)),
        upkeep=draw(st.integers(min_value=0, max_value=6)),
        max_turns=draw(st.integers(min_value=2, max_value=8)),
        n_agents=n_agents,
        engine_variant=VARIANT_SEXUAL_SELECTION if sexual else "survival",
        cell_capacity=draw(st.integers(min_value=2, max_value=3)),
        seed=draw(st.integers(min_value=0, max_value=2 ** 32 - 1)),
    )
    pool = SCRIPTED_MATING if sexual else SCRIPTED_SURVIVAL
    return config, draw(st.sampled_from(pool))


@settings(max_examples=100, deadline=None)
@given(game_setups())
def test_c4_conservation_suite(setup):
    config, assignment = setup
    config.validate()
    policies = build_policy_map(assignment, config)
    log = run_game(new_game(config), policies)
    replay(log)
    check_conservation(log)


# --------------------------------------------------------------------------
# c5: entropy-confound direction


def test_c5_pooled_entropy_exceeds_per_turn_average():
    config = GameConfig(grid_width=4, grid_height=4, n_food_nodes=0,
                        n_token_nodes=0, food_regen=1, token_regen=1,
                        upkeep=0, max_turns=12, n_agents=4, seed=3)

    def factory(agent):
        return ScriptedSequence(config, agent.id, [GATHER, REST], loop=True)

    log = run_game(new_game(config), PolicyMap(factory))
    cutoff = 6
    counts = {}
    for event in log:
        if event["type"] == "action" and event["turn"] < cutoff:
            name = event["action"].split()[0]
            counts[name] = counts.get(name, 0) + 1
    pooled = normalized_entropy(counts)
    per_turn = [entropy for turn, entropy, _ in per_turn_entropy(log)
                if turn < cutoff]
    assert pooled > statistics.mean(per_turn)
    assert statistics.mean(per_turn) == 0.0  # each early turn is single-typed
    assert pooled == pytest.approx(1.0)


def test_c5_total_actions_fall_as_upkeep_rises():
    records = sweep("P2b")
    totals = [record.summary.total_actions for record in records]
    assert [record.config.upkeep for record in records] == [2, 4, 5, 6, 7]
    assert all(a > b for a, b in zip(totals, totals[1:]))


# --------------------------------------------------------------------------
# c6: mating mechanics


def test_c6_offspring_statistics():
    parent_a = make_agent(0, (1, 1), attrs=flat_attrs(4), role="provider",
                          vitality=4)
    parent_b = make_agent(1, (1, 1), attrs=flat_attrs(6), role="chooser",
                          vitality=6)
    rng = random.Random(2024)
    samples = [make_offspring(parent_a, parent_b, rng, agent_id=i)
               for i in range(10_000)]
    for name in ATTRIBUTE_NAMES:
        values = [child.attrs.get(name) for child in samples]
        assert all(1 <= v <= 10 for v in values)
        mean = statistics.fmean(values)
        bound = 3 * statistics.stdev(values) / math.sqrt(len(values))
        assert abs(mean - 5.0) <= bound, (name, mean, bound)
    assert {child.vitality for child in samples} == {5}

    # clipping keeps extreme parents inside the attribute range
    low = make_agent(2, (0, 0), attrs=flat_attrs(1), vitality=1)
    high = make_agent(3, (0, 0), attrs=flat_attrs(10), vitality=10)
    for i in range(500):
        child = make_offspring(low, high, rng, agent_id=i)
        assert all(1 <= child.attrs.get(n) <= 10 for n in ATTRIBUTE_NAMES)


def test_c6_reproduction_costs_and_no_unprovoked_attacks(tmp_path):
    record = run_experiment("V7", out_dir=tmp_path)
    log = GameLog.read(record.log_path)
    accepted = 0
    for event in log:
        if event["type"] != "action":
            continue
        assert not event["action"].startswith("ATTACK"), "pacifist preset attacked"
        if (event["action"].startswith("REPRODUCE")
                and event["outcome"] == "accepted"):
            accepted += 1
            deltas = {}
            spawn = None
            for op in event["delta"]:
                if op[0] == "agent" and op[2] in ("food", "tokens"):
                    deltas[op[2]] = deltas.get(op[2], 0) + (op[4] - op[3])
                elif op[0] == "spawn":
                    spawn = op[1]
            assert deltas["food"] == -18, "parents must pay 6 + 12 food"
            assert deltas["tokens"] == -8, "parents must pay 3 + 5 tokens"
            assert spawn is not None
            assert (spawn["food"], spawn["tokens"]) == \
                vitality_endowment(spawn["vitality"])
    assert accepted >= 1, "scenario produced no accepted reproductions"
    assert record.summary.attacks == 0


# --------------------------------------------------------------------------
# c7: prompt/parse round-trip


def canonical_actions():
    actions = [Gather(), Rest()]
    for first in "NSEW":
        actions.append(Move(steps=(first,)))
        for second in "NSEW":
            actions.append(Move(steps=(first, second)))
    actions += [Attack(target_id=i) for i in (0, 7, 15, 120)]
    actions += [Train(attribute=name) for name in ATTRIBUTE_NAMES]
    actions += [Reproduce(target_id=i) for i in (0, 3, 99)]
    actions += [
        Communicate(message="hello"),
        Communicate(message="meet at (2, 3) after the next regen!"),
        Communicate(message="A 1, B 2... C?"),
    ]
    for offer in [(1, 0), (0, 1), (5, 2), (12, 0)]:
        for request in [(0, 3), (2, 2), (9, 1)]:
            actions.append(Trade(target_id=4, offer_food=offer[0],
                                 offer_tokens=offer[1], request_food=request[0],
                                 request_tokens=request[1]))
    return actions


def test_c7_round_trip_template_and_hint_scan():
    actions = canonical_actions()
    assert len(actions) > 40
    for action in actions:
        assert parse_action(render(action)) == action, render(action)

    obs = survival_observation()
    assert build_prompt(obs) == SURVIVAL_PROMPT
    assert build_prompt(obs) == build_prompt(obs)

    prompts = [SURVIVAL_PROMPT, PROPOSAL_PROMPT]
    provider = make_agent(0, (0, 0), role="provider", vitality=9)
    prompts.append(build_prompt(observation(
        provider, variant=VARIANT_SEXUAL_SELECTION,
        messages=[(4, "come north")])))
    chooser = make_agent(1, (0, 0), role="chooser", vitality=2)
    prompts.append(build_prompt(observation(
        chooser, variant=VARIANT_SEXUAL_SELECTION)))
    for prompt in prompts:
        assert banned_word_hits(prompt) == []


# --------------------------------------------------------------------------
# c8: gateway contract


def test_c8_gateway_contract(stub_gateway):
    # bounded concurrency at the default limit
    stub_gateway.responder = lambda prompt: "ok"
    stub_gateway.hold_seconds = 0.04
    config = gateway_config(stub_gateway)
    assert config.max_concurrency == 4
    batch_complete([f"p{i}" for i in range(16)], config)
    assert stub_gateway.max_in_flight <= 4

    # order preservation on a 16-prompt batch
    stub_gateway.reset()
    stub_gateway.responder = lambda prompt: f"reply-to:{prompt}"
    prompts = [f"prompt-{i}" for i in range(16)]
    results = batch_complete(prompts, config)
    assert results == [f"reply-to:{p}" for p in prompts]

    # retry-then-succeed transcript
    stub_gateway.reset()
    stub_gateway.responder = lambda prompt: "finally"
    stub_gateway.status_script = [429, 429, 200]
    assert complete("are you there", config) == "finally"
    assert stub_gateway.request_count == 3
    bodies = stub_gateway.requests
    assert bodies[0] == bodies[1] == bodies[2]


# --------------------------------------------------------------------------
# c9: stub-model end-to-end


def test_c9_stub_llm_end_to_end(stub_gateway, tmp_path):
    stub_gateway.responder = canned_responder
    gateway = gateway_config(stub_gateway)
    log_paths = []
    for name in PRESETS:
        record = run_experiment(name, policies="llm", gateway=gateway,
                                out_dir=tmp_path / name)
        log = GameLog.read(record.log_path)
        faults = [e for e in log if e["type"] == "policy_fault"]
        assert faults == [], f"{name}: gateway-driven run logged faults"
        assert record.summary.duration >= 1
        log_paths.append(record.log_path)

    report = analyze(log_paths, tmp_path / "report")
    summary_lines = report.summary_csv.read_text().splitlines()
    assert len(summary_lines) == 1 + len(PRESETS)
    assert report.summary_md.exists()
    assert report.distribution_csv.exists()
    assert report.curve_csv.exists()
    assert len(report.perturn_csvs) == len(PRESETS)
