"""Action grammar: construction rules, rendering, and free-text parsing."""

import pytest
from hypothesis import example, given, strategies as st

from gridarena.actions import (
    ActionParseError,
    Attack,
    Communicate,
    GATHER,
    Gather,
    Move,
    REST,
    Reproduce,
    Rest,
    Trade,
    Train,
    kind,
    parse_action,
    render,
)


CANONICAL = [
    (Gather(), "GATHER"),
    (Rest(), "REST"),
    (Move(steps=("N",)), "MOVE N"),
    (Move(steps=("S", "W")), "MOVE S W"),
    (Attack(target_id=3), "ATTACK 3"),
    (Trade(target_id=7, offer_food=5, offer_tokens=2,
           request_food=0, request_tokens=1), "TRADE 7 5f2t 0f1t"),
    (Train(attribute="STR"), "TRAIN STR"),
    (Communicate(message="meet at the north node"),
     "COMMUNICATE meet at the north node"),
    (Reproduce(target_id=12), "REPRODUCE 12"),
]


@pytest.mark.parametrize("action,text", CANONICAL)
def test_render_matches_canonical_form(action, text):
    assert render(action) == text


@pytest.mark.parametrize("action,text", CANONICAL)
def test_parse_of_render_round_trips(action, text):
    assert parse_action(text) == action


def test_kind_names():
    assert kind(GATHER) == "GATHER"
    assert kind(Trade(target_id=1, offer_food=1, offer_tokens=0,
                      request_food=0, request_tokens=1)) == "TRADE"


# --------------------------------------------------------------------------
# Parsing behavior


def test_parse_is_case_insensitive():
    assert parse_action("gather") == GATHER
    assert parse_action("move n e") == Move(steps=("N", "E"))
    assert parse_action("Train cha") == Train(attribute="CHA")


def test_parse_strips_trailing_punctuation_on_fixed_forms():
    assert parse_action("GATHER.") == GATHER
    assert parse_action("ATTACK 3!") == Attack(target_id=3)
    assert parse_action("MOVE N.") == Move(steps=("N",))


def test_communicate_keeps_punctuation_and_case():
    action = parse_action("COMMUNICATE Meet me, now!")
    assert action == Communicate(message="Meet me, now!")
    action = parse_action("communicate trade?")
    assert action.message == "trade?"


def test_parse_scans_lines_top_to_bottom():
    text = "I think the best play is below\nREST\nGATHER"
    assert parse_action(text) == REST


def test_parse_skips_unparseable_lines():
    text = "MOVE X\nTRADE 1 0f0t 1f0t\nATTACK 4"
    assert parse_action(text) == Attack(target_id=4)


def test_parse_ignores_surrounding_whitespace():
    assert parse_action("   REST   ") == REST


@pytest.mark.parametrize("text", [
    "", "hold position", "MOVE", "MOVE X", "MOVE N E S", "ATTACK", "ATTACK x",
    "TRAIN", "TRAIN AGI", "TRADE 1 5f2t", "TRADE 1 0f0t 0f0t", "REPRODUCE",
    "COMMUNICATE", "COMMUNICATE ", "GATHER NOW PLEASE",
])
def test_parse_rejects_junk(text):
    with pytest.raises(ActionParseError):
        parse_action(text)


# --------------------------------------------------------------------------
# Construction validation


@pytest.mark.parametrize("build", [
    lambda: Move(steps=()),
    lambda: Move(steps=("N", "S", "E")),
    lambda: Move(steps=("X",)),
    lambda: Attack(target_id=-1),
    lambda: Train(attribute="AGI"),
    lambda: Communicate(message=""),
    lambda: Communicate(message="two\nlines"),
    lambda: Reproduce(target_id=-2),
    lambda: Trade(target_id=1, offer_food=0, offer_tokens=0,
                  request_food=1, request_tokens=0),
    lambda: Trade(target_id=1, offer_food=1, offer_tokens=0,
                  request_food=0, request_tokens=0),
    lambda: Trade(target_id=1, offer_food=-1, offer_tokens=1,
                  request_food=1, request_tokens=0),
])
def test_invalid_construction_rejected(build):
    with pytest.raises(ValueError):
        build()


# --------------------------------------------------------------------------
# Property: every constructible action round-trips


directions = st.sampled_from(["N", "S", "E", "W"])
amounts = st.integers(min_value=0, max_value=99)
ids = st.integers(min_value=0, max_value=999)

action_strategy = st.one_of(
    st.just(Gather()),
    st.just(Rest()),
    st.builds(Move, steps=st.lists(directions, min_size=1, max_size=2).map(tuple)),
    st.builds(Attack, target_id=ids),
    st.builds(Train, attribute=st.sampled_from(["STR", "SPD", "INT", "SOC", "END", "CHA"])),
    st.builds(Reproduce, target_id=ids),
    st.builds(Communicate,
              message=st.text(
                  alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                  min_size=1, max_size=60).filter(lambda s: s.strip())),
    st.builds(
        lambda tid, offer, request: Trade(
            target_id=tid, offer_food=offer[0], offer_tokens=offer[1],
            request_food=request[0], request_tokens=request[1]),
        ids,
        st.tuples(amounts, amounts).filter(lambda b: b[0] + b[1] > 0),
        st.tuples(amounts, amounts).filter(lambda b: b[0] + b[1] > 0)),
)


@given(action_strategy)
@example(Communicate("hi "))
def test_round_trip_property(action):
    assert parse_action(render(action)) == action
