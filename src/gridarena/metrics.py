"""Behavioral metrics counted from a game's records.

One ``Summarizer`` counts them, fed the records in log order: a run's
summary is counted while its game plays (``engine.run_game``'s ``sink``),
and ``summarize`` counts a log that was read, in the same one pass.

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
from dataclasses import dataclass, fields
from typing import Any, Callable, Iterable, Mapping

from .actions import ACTION_TYPES
from .gamelog import GameLog, LogError

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


@dataclass(frozen=True)
class MetricsSummary:
    """Whole-game metrics in reporting order.

    ``action_distribution`` holds full-precision percentages over the types
    that occurred; table writers round for display. ``per_turn`` is the
    series of (turn, entropy, alive_count) rows, one per turn, that the
    ``Summarizer`` counted along with the rest.
    """

    trades_completed: int
    attacks: int
    survivors: int
    duration: int
    social_action_pct: float
    entropy_norm: float
    total_actions: int
    births: int
    fallbacks: int
    policy_faults: int
    action_counts: dict[str, int]
    action_distribution: dict[str, float]
    per_turn: list[tuple[int, float, int]]

    def as_record(self) -> dict[str, Any]:
        """Every field but the distribution and the per-turn series, in
        field order: the ``summary`` of a run's ``record.json``."""
        return {field.name: getattr(self, field.name) for field in fields(self)
                if field.name not in ("action_distribution", "per_turn")}


class Summarizer:
    """Counts one game's metrics from its records as they come.

    Call it with each batch of records in log order: ``engine.run_game``
    calls it as its ``sink`` while the game plays, and ``summarize`` once
    with a whole log. ``summary`` is None until the ``end`` record is
    counted. ``per_turn`` gains a (turn, entropy, alive_count) row at each
    ``turn_end``: the normalized entropy of the turn's resolved actions (0
    for one or none) and the population after the turn.

    ``lineno`` maps a record's index (from 0) to the line an error names,
    by default index + 1. A first record that is not a header is a
    LogError; an action whose first word is not an action type is a
    MetricsError naming its line.
    """

    def __init__(self, lineno: Callable[[int], int] | None = None):
        self.lineno = lineno or (lambda index: index + 1)
        self.seen = 0  # records counted so far
        self.alive = 0
        self.counts: dict[str, int] = {}  # resolved actions per type
        self.tallies = dict.fromkeys(("trades", "attacks", "births", "fallbacks",
                                      "policy_faults"), 0)
        self.turn_counts: dict[int, dict[str, int]] = {}  # resolved actions by turn
        self.per_turn: list[tuple[int, float, int]] = []
        self.summary: MetricsSummary | None = None

    def __call__(self, records: Iterable[dict[str, Any]]) -> None:
        counts, tallies = self.counts, self.tallies
        for event in records:
            kind = event["type"]
            if not self.seen:
                if kind != "header":
                    raise LogError("log has no header record")
                self.alive = sum(1 for snap in event["agents"] if snap["alive"])
            elif kind == "action":
                tallies["fallbacks"] += bool(event["fallback"])
                if event["outcome"] != "cancelled_dead":
                    name = event["action"].split(" ", 1)[0]
                    if name not in ACTION_TYPES:
                        raise MetricsError(f"line {self.lineno(self.seen)} (action): "
                                           f"{name!r} is not an action type")
                    counts[name] = counts.get(name, 0) + 1
                    bucket = self.turn_counts.setdefault(event["turn"], {})
                    bucket[name] = bucket.get(name, 0) + 1
                    tallies["trades"] += name == "TRADE" and event["outcome"] == "accepted"
                    tallies["attacks"] += name == "ATTACK" and event["outcome"] == "ok"
            elif kind == "policy_fault":
                tallies["policy_faults"] += 1
            elif kind == "turn_end":
                turn = event["turn"]
                tallies["births"] += len(event["births"])
                self.alive = self.alive - len(event["deaths"]) + len(event["births"])
                turn_counts = self.turn_counts.get(turn, {})
                entropy = normalized_entropy(turn_counts) if sum(turn_counts.values()) > 1 else 0.0
                self.per_turn.append((turn, entropy, self.alive))
            elif kind == "end":
                self.summary = self._summary(event)
            self.seen += 1

    def _summary(self, end: dict[str, Any]) -> MetricsSummary:
        """The summary of the records counted so far, ending at ``end``."""
        counts = {name: self.counts[name] for name in ACTION_TYPES if name in self.counts}
        total = sum(counts.values())
        social = sum(counts.get(name, 0) for name in SOCIAL_TYPES)
        distribution = {name: 100.0 * count / total for name, count in counts.items()} if total else {}
        tallies = self.tallies
        return MetricsSummary(
            trades_completed=tallies["trades"],
            attacks=tallies["attacks"],
            survivors=end["survivors"],
            duration=end["turn"],
            social_action_pct=100.0 * social / total if total else 0.0,
            entropy_norm=normalized_entropy(counts) if total else 0.0,
            total_actions=total,
            births=tallies["births"],
            fallbacks=tallies["fallbacks"],
            policy_faults=tallies["policy_faults"],
            action_counts=counts,
            action_distribution=distribution,
            per_turn=list(self.per_turn),
        )


def summarize(log: GameLog) -> MetricsSummary:
    """Compute the summary for one complete game log."""
    try:
        log.end
    except LogError as exc:
        raise MetricsError(str(exc)) from exc
    summarizer = Summarizer(log.lineno)
    summarizer(log)
    return summarizer.summary


def per_turn_entropy(log: GameLog) -> list[tuple[int, float, int]]:
    """The log's per-turn series (``Summarizer.per_turn``); the log needs no
    end record."""
    summarizer = Summarizer(log.lineno)
    summarizer(log)
    return summarizer.per_turn
