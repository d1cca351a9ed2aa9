"""Config validation, serialization, helpers, and seeded world setup."""

import dataclasses
import pickle
import random

import pytest
from hypothesis import assume, given, strategies as st

from gridarena.core import (
    ATTRIBUTE_NAMES,
    AgentState,
    Attributes,
    ConfigError,
    GameConfig,
    ROLE_CHOOSER,
    ROLE_PROVIDER,
    VARIANT_SEXUAL_SELECTION,
    chebyshev,
    clip,
    generate_attributes,
    manhattan,
    new_game,
    round_half_up,
    vitality_band,
)
from gridarena.gamelog import GameLog, header_event
from gridarena.gateway import GatewayError
from gridarena.harness import resolve_config, resolve_preset

from conftest import small_config


# --------------------------------------------------------------------------
# Numeric helpers


@pytest.mark.parametrize("value,expected", [
    (0.5, 1), (1.5, 2), (2.5, 3), (-0.5, 0), (-1.5, -1),
    (2.4, 2), (2.6, 3), (7.0, 7), (6.49, 6),
])
def test_round_half_up(value, expected):
    assert round_half_up(value) == expected


def test_clip():
    assert clip(5, 1, 10) == 5
    assert clip(0, 1, 10) == 1
    assert clip(99, 1, 10) == 10


def test_distances():
    assert chebyshev((0, 0), (2, 1)) == 2
    assert chebyshev((3, 3), (3, 3)) == 0
    assert manhattan((0, 0), (2, 1)) == 3


@pytest.mark.parametrize("vitality,band", [
    (1, "frail"), (2, "frail"), (3, "average"), (5, "average"),
    (6, "robust"), (8, "robust"), (9, "radiant"), (10, "radiant"),
])
def test_vitality_bands(vitality, band):
    assert vitality_band(vitality) == band


# --------------------------------------------------------------------------
# Config


def test_default_config_is_valid():
    config = GameConfig()
    assert config.problems() == []
    assert (config.grid_width, config.grid_height) == (9, 9)
    assert (config.n_food_nodes, config.n_token_nodes) == (8, 5)
    assert (config.food_regen, config.token_regen) == (3, 2)
    assert (config.upkeep, config.max_turns, config.n_agents) == (2, 60, 16)


def test_config_collects_all_problems():
    config = GameConfig(grid_width=0, upkeep=-1, engine_variant="nope")
    problems = config.problems()
    assert any("grid_width" in p for p in problems)
    assert any("upkeep" in p for p in problems)
    assert any("engine_variant" in p for p in problems)
    with pytest.raises(ConfigError) as excinfo:
        config.validate()
    assert excinfo.value.problems == problems


def test_errors_keep_their_message_and_fields_through_pickle():
    # a sweep worker sends its game's error back to the sweep pickled
    error = ConfigError(["upkeep must be >= 0", "seed must be an integer"])
    copied = pickle.loads(pickle.dumps(error))
    assert str(copied) == str(error) == \
        "invalid configuration: upkeep must be >= 0; seed must be an integer"
    assert copied.problems == error.problems
    failure = pickle.loads(pickle.dumps(GatewayError("HTTP 503", status=503, attempts=5)))
    assert (str(failure), failure.status, failure.attempts) == ("HTTP 503", 503, 5)


@pytest.mark.parametrize("name,value", [
    ("upkeep", 2.0), ("n_agents", True), ("seed", "42"), ("engine_variant", 1),
])
def test_config_rejects_fields_of_the_wrong_type(name, value):
    with pytest.raises(ConfigError, match=rf"{name} must be"):
        GameConfig(**{name: value}).validate()


def test_config_capacity_limits():
    assert any("node count" in p for p in
               GameConfig(grid_width=2, grid_height=2, n_food_nodes=4,
                          n_token_nodes=1).problems())
    assert any("cell capacity" in p for p in
               GameConfig(grid_width=2, grid_height=2, cell_capacity=1,
                          n_agents=5, n_food_nodes=1, n_token_nodes=1).problems())


def test_config_regen_required_when_nodes_exist():
    assert any("food_regen" in p for p in
               GameConfig(food_regen=0).problems())
    assert GameConfig(n_food_nodes=0, food_regen=0).problems() == []


def test_config_even_agents_under_sexual_selection():
    bad = GameConfig(engine_variant=VARIANT_SEXUAL_SELECTION, n_agents=15)
    assert any("even" in p for p in bad.problems())


def test_flat_text_round_trip():
    config = small_config(seed=99)
    assert GameConfig.from_flat_text(config.to_flat_text()) == config


def test_flat_text_tolerates_comments_and_blanks():
    text = "# a comment\n\n" + GameConfig().to_flat_text()
    assert GameConfig.from_flat_text(text) == GameConfig()


@pytest.mark.parametrize("mutate,fragment", [
    (lambda t: t + "mystery=1\n", "unknown key"),
    (lambda t: t + "seed=1\n", "duplicate key"),
    (lambda t: t.replace("upkeep=2\n", ""), "missing keys"),
    (lambda t: t.replace("upkeep=2", "upkeep=two"), "integer"),
    (lambda t: t.replace("upkeep=2", "upkeep"), "key=value"),
])
def test_flat_text_rejects_malformed(mutate, fragment):
    text = mutate(GameConfig().to_flat_text())
    with pytest.raises(ConfigError) as excinfo:
        GameConfig.from_flat_text(text)
    assert any(fragment in p for p in excinfo.value.problems)


@pytest.mark.parametrize("values,fragment", [
    ([("upkeep", 2)], "must be a mapping"),
    ({**GameConfig().as_dict(), "mystery": 1}, "unknown key 'mystery'"),
    ({k: v for k, v in GameConfig().as_dict().items() if k != "upkeep"},
     "missing keys: upkeep"),
    ({**GameConfig().as_dict(), "upkeep": "two"}, "upkeep must be an integer, got 'two'"),
])
def test_parse_rejects(values, fragment):
    with pytest.raises(ConfigError) as excinfo:
        GameConfig.parse(values)
    assert any(fragment in p for p in excinfo.value.problems)


@st.composite
def valid_configs(draw):
    variant = draw(st.sampled_from(["survival", VARIANT_SEXUAL_SELECTION]))
    agents = draw(st.integers(0, 12))
    config = GameConfig(
        grid_width=draw(st.integers(1, 12)), grid_height=draw(st.integers(1, 12)),
        n_food_nodes=draw(st.integers(0, 4)), n_token_nodes=draw(st.integers(0, 4)),
        food_regen=draw(st.integers(1, 5)), token_regen=draw(st.integers(1, 5)),
        upkeep=draw(st.integers(0, 20)), max_turns=draw(st.integers(0, 100)),
        n_agents=agents - agents % 2 if variant == VARIANT_SEXUAL_SELECTION else agents,
        engine_variant=variant, cell_capacity=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2 ** 64 - 1)), llm_concurrency=draw(st.integers(1, 8)))
    assume(not config.problems())
    return config


@given(valid_configs())
def test_every_config_source_reads_back_the_same_config(config):
    """A file, a mapping, text overrides and a new game's log header all go
    through ``GameConfig.parse`` and give back the config that wrote them."""
    text = {name: str(value) for name, value in config.as_dict().items()}
    assert GameConfig.from_flat_text(config.to_flat_text()) == config
    assert GameConfig.parse(config.as_dict()) == config
    assert resolve_config(resolve_preset(config), text, None) == config
    assert GameLog([header_event(new_game(config))]).config() == config


def test_config_file_round_trip(tmp_path):
    config = small_config()
    path = tmp_path / "config.txt"
    config.write(path)
    assert GameConfig.read(path) == config


# --------------------------------------------------------------------------
# Attributes


def test_attributes_accessors():
    attrs = Attributes(STR=1, SPD=2, INT=3, SOC=4, END=5, CHA=6)
    assert attrs.get("SOC") == 4
    assert attrs.with_value("SOC", 9).get("SOC") == 9
    assert attrs.total() == 21
    assert list(attrs.as_dict()) == list(ATTRIBUTE_NAMES)


def test_agent_snapshot_equals_replace_and_owns_its_progress():
    # every field off its default, so a field the copy dropped would show
    agent = AgentState(id=7, pos=(2, 3), attrs=Attributes(STR=1, SPD=2, INT=3, SOC=4, END=5, CHA=6),
                       food=11, tokens=12, health=9, alive=False, role=ROLE_PROVIDER,
                       vitality=8, revealed_until=4, train_progress={"STR": 3})
    assert all(getattr(agent, f.name) != f.default for f in dataclasses.fields(agent)
               if f.default is not dataclasses.MISSING)
    copy = agent.snapshot()
    assert copy == dataclasses.replace(agent, train_progress=dict(agent.train_progress))
    assert copy is not agent and copy.train_progress is not agent.train_progress
    copy.train_progress["STR"] = 9
    assert agent.train_progress == {"STR": 3}


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_generated_attributes_spend_exact_budget(seed):
    attrs = generate_attributes(random.Random(seed))
    values = [attrs.get(name) for name in ATTRIBUTE_NAMES]
    assert attrs.total() == 6 + 24
    assert all(1 <= v <= 8 for v in values)


def test_generated_attributes_deterministic():
    assert generate_attributes(random.Random(5)) == generate_attributes(random.Random(5))


# --------------------------------------------------------------------------
# World setup


def test_new_game_is_deterministic():
    config = small_config(n_agents=4)
    a, b = new_game(config), new_game(config)
    assert [(x.id, x.pos, x.attrs) for x in a.agents.values()] == \
           [(x.id, x.pos, x.attrs) for x in b.agents.values()]
    assert [(n.pos, n.kind, n.stock) for n in a.nodes] == \
           [(n.pos, n.kind, n.stock) for n in b.nodes]


def test_new_game_setup_shape():
    config = small_config(n_agents=4)
    state = new_game(config)
    assert sorted(state.agents) == [0, 1, 2, 3]
    assert state.next_agent_id == 4
    assert len(state.nodes) == config.n_food_nodes + config.n_token_nodes
    assert len({node.pos for node in state.nodes}) == len(state.nodes)
    for node in state.nodes:
        assert node.stock == node.stock_cap == 5 * node.regen
    for agent in state.agents.values():
        assert config.in_bounds(agent.pos)
        assert agent.food == 60 and agent.tokens == 10
        assert agent.health == agent.max_health == 10 + 2 * agent.attrs.END
        assert agent.role == "none" and agent.vitality == 5
    occupancy = {}
    for agent in state.agents.values():
        occupancy[agent.pos] = occupancy.get(agent.pos, 0) + 1
    assert all(count <= config.cell_capacity for count in occupancy.values())


def test_new_game_sexual_selection_roles_and_endowments():
    config = small_config(n_agents=6, engine_variant=VARIANT_SEXUAL_SELECTION)
    state = new_game(config)
    roles = [agent.role for agent in state.agents.values()]
    assert roles.count(ROLE_PROVIDER) == roles.count(ROLE_CHOOSER) == 3
    for agent in state.agents.values():
        assert 1 <= agent.vitality <= 10
        assert agent.food == 30 + 3 * agent.vitality
        assert agent.tokens == 8 + agent.vitality


def test_new_game_rejects_invalid_config():
    with pytest.raises(ConfigError):
        new_game(GameConfig(grid_width=0))
