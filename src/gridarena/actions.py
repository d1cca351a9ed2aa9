"""Action types and the text grammar that round-trips them.

The canonical forms are::

    GATHER
    MOVE <N|S|E|W>[ <N|S|E|W>]
    ATTACK <agent_id>
    TRADE <agent_id> <food>f<tokens>t <food>f<tokens>t
    REST
    TRAIN <STR|SPD|INT|SOC|END|CHA>
    COMMUNICATE <free text, one line>
    REPRODUCE <agent_id>

Parsing is lenient about case and surrounding prose: the input is scanned
line by line, top to bottom, and the first line matching the grammar wins.

The ``_KINDS`` table is the vocabulary's one owner: each kind's keyword,
prompt usage line, grammar and builder are declared there and nowhere else.
``ACTION_TYPES``, ``USAGE_LINES`` and the parser's patterns are derived from
it, and its order is the report order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Union

from .core import ATTRIBUTE_NAMES

DIRECTIONS: dict[str, tuple[int, int]] = {
    "N": (0, -1),
    "S": (0, 1),
    "E": (1, 0),
    "W": (-1, 0),
}


class ActionParseError(ValueError):
    """No line of the input matched the action grammar."""


@dataclass(frozen=True)
class Gather:
    pass


@dataclass(frozen=True)
class Move:
    steps: tuple[str, ...]

    def __post_init__(self):
        if not 1 <= len(self.steps) <= 2:
            raise ValueError("MOVE takes one or two steps")
        for step in self.steps:
            if step not in DIRECTIONS:
                raise ValueError(f"bad direction {step!r}")


@dataclass(frozen=True)
class Attack:
    target_id: int

    def __post_init__(self):
        if self.target_id < 0:
            raise ValueError("target_id must be >= 0")


@dataclass(frozen=True)
class Trade:
    """Offer/request bundles are non-negative and not both empty on either side."""

    target_id: int
    offer_food: int
    offer_tokens: int
    request_food: int
    request_tokens: int

    def __post_init__(self):
        if self.target_id < 0:
            raise ValueError("target_id must be >= 0")
        amounts = (self.offer_food, self.offer_tokens, self.request_food, self.request_tokens)
        if any(v < 0 for v in amounts):
            raise ValueError("trade amounts must be >= 0")
        if self.offer_food == 0 and self.offer_tokens == 0:
            raise ValueError("offer bundle is empty")
        if self.request_food == 0 and self.request_tokens == 0:
            raise ValueError("request bundle is empty")


@dataclass(frozen=True)
class Rest:
    pass


@dataclass(frozen=True)
class Train:
    attribute: str

    def __post_init__(self):
        if self.attribute not in ATTRIBUTE_NAMES:
            raise ValueError(f"bad attribute {self.attribute!r}")


@dataclass(frozen=True)
class Communicate:
    """``message`` is stored stripped: the grammar cannot carry edge whitespace."""

    message: str

    def __post_init__(self):
        # one line by ``str.splitlines``' rule, which ``parse_action`` reads by
        if self.message and self.message.splitlines() != [self.message]:
            raise ValueError("message must be a single line")
        object.__setattr__(self, "message", self.message.strip())
        if not self.message:
            raise ValueError("message is empty")


@dataclass(frozen=True)
class Reproduce:
    target_id: int

    def __post_init__(self):
        if self.target_id < 0:
            raise ValueError("target_id must be >= 0")


Action = Union[Gather, Move, Attack, Trade, Rest, Train, Communicate, Reproduce]

REST = Rest()
GATHER = Gather()


@dataclass(frozen=True)
class PolicyDecision:
    """One agent's decision, from policy to log. A "fallback" ``parse_status``
    means the policy gave no action (an unparseable reply, or a fault whose
    text is ``error``) and plays REST."""

    action: Action
    raw_response: str = ""
    parse_status: str = "ok"
    error: str | None = None

    def __post_init__(self):
        if self.parse_status not in ("ok", "fallback"):
            raise ValueError(f"bad parse_status {self.parse_status!r}")
        if self.parse_status == "fallback" and self.action != REST:
            raise ValueError("fallback decisions must be REST")
        if self.error is not None and self.parse_status != "fallback":
            raise ValueError("a fault is a fallback decision")


def render(action: Action) -> str:
    """Canonical single-line text for an action. ``parse_action(render(a)) == a``."""
    if isinstance(action, Gather):
        return "GATHER"
    if isinstance(action, Move):
        return "MOVE " + " ".join(action.steps)
    if isinstance(action, Attack):
        return f"ATTACK {action.target_id}"
    if isinstance(action, Trade):
        return (f"TRADE {action.target_id} "
                f"{action.offer_food}f{action.offer_tokens}t "
                f"{action.request_food}f{action.request_tokens}t")
    if isinstance(action, Rest):
        return "REST"
    if isinstance(action, Train):
        return f"TRAIN {action.attribute}"
    if isinstance(action, Communicate):
        return f"COMMUNICATE {action.message}"
    if isinstance(action, Reproduce):
        return f"REPRODUCE {action.target_id}"
    raise TypeError(f"not an action: {action!r}")


# One row per kind, the mating kinds COMMUNICATE and REPRODUCE last: its
# keyword, the usage line a prompt shows, the grammar after the keyword, and
# the builder of the action from a match of keyword + grammar.
_KINDS: tuple[tuple[str, str, str, Callable[[re.Match[str]], Action]], ...] = (
    ("GATHER", "GATHER", "", lambda m: Gather()),
    ("MOVE", "MOVE [direction]", r"\s+([NSEW])(?:\s+([NSEW]))?",
     lambda m: Move(tuple(g.upper() for g in m.groups() if g))),
    ("ATTACK", "ATTACK [target_id]", r"\s+(\d+)", lambda m: Attack(int(m.group(1)))),
    ("TRADE", "TRADE [target_id] [offer] [request]", r"\s+(\d+)\s+(\d+)f(\d+)t\s+(\d+)f(\d+)t",
     lambda m: Trade(*map(int, m.groups()))),
    ("REST", "REST", "", lambda m: Rest()),
    ("TRAIN", "TRAIN [attribute]", fr"\s+({'|'.join(ATTRIBUTE_NAMES)})",
     lambda m: Train(m.group(1).upper())),
    ("COMMUNICATE", "COMMUNICATE [message]", r"\s+(\S.*)", lambda m: Communicate(m.group(1))),
    ("REPRODUCE", "REPRODUCE [target_id]", r"\s+(\d+)", lambda m: Reproduce(int(m.group(1)))),
)
ACTION_TYPES = tuple(keyword for keyword, _, _, _ in _KINDS)
USAGE_LINES = {keyword: usage for keyword, usage, _, _ in _KINDS}
_PATTERNS = [(re.compile(keyword + grammar, re.IGNORECASE), build)
             for keyword, _, grammar, build in _KINDS]


def _match_line(line: str) -> Action | None:
    # Try the line verbatim first so COMMUNICATE keeps trailing punctuation,
    # then retry with trailing ./! stripped for the fixed-form actions.
    candidates = [line]
    stripped = line.rstrip(".!").rstrip()
    if stripped != line:
        candidates.append(stripped)
    for text in candidates:
        for pattern, build in _PATTERNS:
            m = pattern.fullmatch(text)
            if m:
                try:
                    return build(m)
                except ValueError:
                    continue
    return None


def parse_action(text: str) -> Action:
    """Scan ``text`` top to bottom and return the first line that is a valid
    action. Raises ActionParseError when nothing matches."""
    for raw in text.splitlines():
        action = _match_line(raw.strip())
        if action is not None:
            return action
    raise ActionParseError(f"no action found in {text!r}")
