"""Behavioral metrics computed from a GameLog.

The headline number is normalized Shannon entropy of the whole-game
action-type distribution: H_norm = -(1/log k) * sum(p_i log p_i) with k the
number of action types that actually occurred (natural log; a single type is
0 by convention). The per-turn variant exposes how early low-entropy turns
can drag a whole-game figure below what any individual turn shows, which is
why both are reported.

Counting rules: trades count accepted outcomes only and attacks count
successful ones, while social percentage counts TRADE and COMMUNICATE
attempts regardless of outcome. Actions cancelled because the agent died
before resolving are excluded everywhere. ``fallbacks`` counts every action
record whose decision was a fallback (an unparseable reply or a policy
fault, which plays REST), cancelled ones included; ``policy_faults`` counts
``policy_fault`` records. Neither changes how entropy is computed: a game
whose decisions failed shows low entropy, and these two counts say why.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .gamelog import GameLog

ACTION_TYPES = ("GATHER", "MOVE", "ATTACK", "TRADE", "REST", "TRAIN",
                "COMMUNICATE", "REPRODUCE")
SOCIAL_TYPES = ("TRADE", "COMMUNICATE")


class MetricsError(ValueError):
    pass


def normalized_entropy(action_counts: Mapping[str, float] | Iterable[float]) -> float:
    """Normalized Shannon entropy of a count (or percentage) vector.

    Zero-count types are dropped before k is taken, so the result is scale-
    and permutation-invariant. Raises MetricsError when nothing was counted.
    """
    if isinstance(action_counts, Mapping):
        values = list(action_counts.values())
    else:
        values = list(action_counts)
    if any(v < 0 for v in values):
        raise MetricsError("negative action count")
    values = [float(v) for v in values if v > 0]
    if not values:
        raise MetricsError("entropy of zero actions is undefined")
    if len(values) == 1:
        return 0.0
    total = sum(values)
    entropy = -sum((v / total) * math.log(v / total) for v in values)
    return entropy / math.log(len(values))


def _action_lines(log: GameLog) -> Iterable[dict]:
    for event in log:
        if event["type"] == "action" and event["outcome"] != "cancelled_dead":
            yield event


def _action_type(event: dict) -> str:
    return event["action"].split(" ", 1)[0]


def action_counts(log: GameLog) -> dict[str, int]:
    """Raw per-type counts of resolved actions, zero-count types omitted."""
    counts: dict[str, int] = {}
    for event in _action_lines(log):
        name = _action_type(event)
        counts[name] = counts.get(name, 0) + 1
    return {name: counts[name] for name in ACTION_TYPES if name in counts}


def per_turn_entropy(log: GameLog) -> list[tuple[int, float, int]]:
    """Per-turn series of (turn, entropy, alive_count).

    Entropy is the normalized entropy of that turn's action multiset; turns
    with one or zero actions yield 0. alive_count is the population at the
    end of the turn.
    """
    per_turn: dict[int, dict[str, int]] = {}
    for event in _action_lines(log):
        bucket = per_turn.setdefault(event["turn"], {})
        name = _action_type(event)
        bucket[name] = bucket.get(name, 0) + 1

    alive = sum(1 for snap in log.header["agents"] if snap["alive"])
    series = []
    for event in log:
        if event["type"] != "turn_end":
            continue
        turn = event["turn"]
        alive = alive - len(event["deaths"]) + len(event["births"])
        counts = per_turn.get(turn, {})
        entropy = normalized_entropy(counts) if sum(counts.values()) > 1 else 0.0
        series.append((turn, entropy, alive))
    return series


@dataclass(frozen=True)
class MetricsSummary:
    """Whole-game metrics in reporting order.

    ``action_distribution`` holds full-precision percentages over the types
    that occurred; table writers round for display. ``per_turn`` is the
    game's ``per_turn_entropy`` series.
    """

    trades_completed: int
    attacks: int
    survivors: int
    duration: int
    social_action_pct: float
    entropy_norm: float
    total_actions: int
    action_distribution: dict[str, float]
    action_counts: dict[str, int]
    births: int
    fallbacks: int
    policy_faults: int
    per_turn: list[tuple[int, float, int]]


def summarize(log: GameLog) -> MetricsSummary:
    """Compute the summary for one complete game log."""
    try:
        end = log.end
    except Exception as exc:
        raise MetricsError(f"log has no termination record: {exc}") from exc

    counts = action_counts(log)
    total = sum(counts.values())
    trades = 0
    attacks = 0
    social = 0
    for event in _action_lines(log):
        name = _action_type(event)
        social += name in SOCIAL_TYPES
        if name == "TRADE" and event["outcome"] == "accepted":
            trades += 1
        elif name == "ATTACK" and event["outcome"] == "ok":
            attacks += 1

    births = fallbacks = policy_faults = 0
    for event in log:
        kind = event["type"]
        if kind == "action":
            fallbacks += bool(event["fallback"])
        elif kind == "policy_fault":
            policy_faults += 1
        elif kind == "turn_end":
            births += len(event["births"])

    distribution = {name: 100.0 * count / total for name, count in counts.items()} if total else {}
    return MetricsSummary(
        trades_completed=trades,
        attacks=attacks,
        survivors=end["survivors"],
        duration=end["turn"],
        social_action_pct=100.0 * social / total if total else 0.0,
        entropy_norm=normalized_entropy(counts) if total else 0.0,
        total_actions=total,
        action_distribution=distribution,
        action_counts=counts,
        births=births,
        fallbacks=fallbacks,
        policy_faults=policy_faults,
        per_turn=per_turn_entropy(log),
    )
