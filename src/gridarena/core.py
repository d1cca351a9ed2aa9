"""Core world model: configuration, agents, resource nodes, game state.

All randomness flows through a single ``random.Random`` owned by the
``GameState``; nothing in this package touches the global RNG. Two games
built from equal configs (same seed) are identical object for object.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field, replace

VARIANT_SURVIVAL = "survival"
VARIANT_SEXUAL_SELECTION = "sexual_selection"
VARIANTS = (VARIANT_SURVIVAL, VARIANT_SEXUAL_SELECTION)

ROLE_NONE = "none"
ROLE_PROVIDER = "provider"
ROLE_CHOOSER = "chooser"

ATTRIBUTE_NAMES = ("STR", "SPD", "INT", "SOC", "END", "CHA")

INITIAL_FOOD = 60
INITIAL_TOKENS = 10
INITIAL_ATTRIBUTE_SUM = 30
INITIAL_ATTRIBUTE_CAP = 8
ATTRIBUTE_MIN = 1
ATTRIBUTE_MAX = 10
DEFAULT_VITALITY = 5
VISION_RANGE = 2


class ConfigError(ValueError):
    """Invalid game configuration; ``problems`` lists every violated invariant."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid configuration: " + "; ".join(self.problems))


def round_half_up(x: float) -> int:
    """Round to nearest integer, halves away from zero toward +inf."""
    return math.floor(x + 0.5)


def clip(x: int, lo: int, hi: int) -> int:
    return max(lo, min(hi, x))


def chebyshev(a: tuple[int, int], b: tuple[int, int]) -> int:
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def manhattan(a: tuple[int, int], b: tuple[int, int]) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def vitality_band(vitality: int) -> str:
    """Descriptive band for a vitality score: frail 1-2, average 3-5, robust 6-8, radiant 9-10."""
    if vitality <= 2:
        return "frail"
    if vitality <= 5:
        return "average"
    if vitality <= 8:
        return "robust"
    return "radiant"


# --------------------------------------------------------------------------
# Configuration


@dataclass
class GameConfig:
    """Complete run configuration; every field lands in the log header.

    Serialized flat as ``key=value`` lines in field order. Defaults describe
    a 9x9 survival game of 16 agents at upkeep 2.
    """

    grid_width: int = 9
    grid_height: int = 9
    n_food_nodes: int = 8
    n_token_nodes: int = 5
    food_regen: int = 3
    token_regen: int = 2
    upkeep: int = 2
    max_turns: int = 60
    n_agents: int = 16
    engine_variant: str = VARIANT_SURVIVAL
    cell_capacity: int = 3
    seed: int = 42
    llm_concurrency: int = 4

    FIELDS = (
        "grid_width", "grid_height", "n_food_nodes", "n_token_nodes",
        "food_regen", "token_regen", "upkeep", "max_turns", "n_agents",
        "engine_variant", "cell_capacity", "seed", "llm_concurrency",
    )

    @property
    def area(self) -> int:
        return self.grid_width * self.grid_height

    def cell_at(self, index: int) -> tuple[int, int]:  # grid order, row by row
        return (index % self.grid_width, index // self.grid_width)

    def problems(self) -> list[str]:
        out = []
        for name in ("grid_width", "grid_height", "cell_capacity", "llm_concurrency"):
            if getattr(self, name) < 1:
                out.append(f"{name} must be >= 1")
        for name in ("n_food_nodes", "n_token_nodes", "food_regen", "token_regen",
                     "upkeep", "max_turns", "n_agents"):
            if getattr(self, name) < 0:
                out.append(f"{name} must be >= 0")
        if self.engine_variant not in VARIANTS:
            out.append(f"engine_variant must be one of {VARIANTS}")
        if not (0 <= self.seed < 2 ** 64):
            out.append("seed must fit in 64 bits (0 <= seed < 2**64)")
        if self.grid_width >= 1 and self.grid_height >= 1:
            if self.n_food_nodes + self.n_token_nodes > self.area:
                out.append("node count exceeds grid area")
            if self.cell_capacity >= 1 and self.n_agents > self.cell_capacity * self.area:
                out.append("n_agents exceeds total cell capacity")
        if self.n_food_nodes > 0 and self.food_regen < 1:
            out.append("food_regen must be >= 1 when food nodes exist")
        if self.n_token_nodes > 0 and self.token_regen < 1:
            out.append("token_regen must be >= 1 when token nodes exist")
        if self.engine_variant == VARIANT_SEXUAL_SELECTION and self.n_agents % 2 != 0:
            out.append("n_agents must be even under sexual_selection (half/half roles)")
        return out

    def validate(self) -> "GameConfig":
        problems = self.problems()
        if problems:
            raise ConfigError(problems)
        return self

    def to_flat_text(self) -> str:
        lines = [f"{name}={getattr(self, name)}" for name in self.FIELDS]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_flat_text(cls, text: str) -> "GameConfig":
        """Parse ``key=value`` lines. Unknown, duplicate, or missing keys are fatal."""
        problems = []
        seen: dict[str, str] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                problems.append(f"line {lineno}: expected key=value, got {line!r}")
                continue
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in cls.FIELDS:
                problems.append(f"line {lineno}: unknown key {key!r}")
            elif key in seen:
                problems.append(f"line {lineno}: duplicate key {key!r}")
            else:
                seen[key] = value
        missing = [name for name in cls.FIELDS if name not in seen]
        if missing:
            problems.append("missing keys: " + ", ".join(missing))
        if problems:
            raise ConfigError(problems)
        values: dict[str, object] = {}
        for key, value in seen.items():
            if key == "engine_variant":
                values[key] = value
            else:
                try:
                    values[key] = int(value)
                except ValueError:
                    problems.append(f"{key} must be an integer, got {value!r}")
        if problems:
            raise ConfigError(problems)
        return cls(**values).validate()  # type: ignore[arg-type]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_flat_text())

    @classmethod
    def read(cls, path) -> "GameConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_flat_text(fh.read())


# --------------------------------------------------------------------------
# Agents and nodes


@dataclass(frozen=True)
class Attributes:
    """The six agent attributes. Initial values 1..8 summing to 30; 1..10 thereafter."""

    STR: int
    SPD: int
    INT: int
    SOC: int
    END: int
    CHA: int

    def get(self, name: str) -> int:
        if name not in ATTRIBUTE_NAMES:
            raise KeyError(name)
        return getattr(self, name)

    def with_value(self, name: str, value: int) -> "Attributes":
        if name not in ATTRIBUTE_NAMES:
            raise KeyError(name)
        return replace(self, **{name: value})

    def total(self) -> int:
        return sum(getattr(self, n) for n in ATTRIBUTE_NAMES)

    def as_dict(self) -> dict[str, int]:
        return {n: getattr(self, n) for n in ATTRIBUTE_NAMES}


def generate_attributes(rng: random.Random) -> Attributes:
    """Draw a fresh attribute block: start all at 1, then spend 24 points
    one at a time on a uniformly random attribute still below 8."""
    values = [ATTRIBUTE_MIN] * len(ATTRIBUTE_NAMES)
    open_slots = list(range(len(ATTRIBUTE_NAMES)))  # in order; a slot leaves at the cap
    for _ in range(INITIAL_ATTRIBUTE_SUM - len(ATTRIBUTE_NAMES) * ATTRIBUTE_MIN):
        slot = rng.choice(open_slots)
        values[slot] += 1
        if values[slot] == INITIAL_ATTRIBUTE_CAP:
            open_slots.remove(slot)
    return Attributes(*values)


@dataclass
class AgentState:
    """One agent. ``alive`` is equivalent to ``food > 0 and health > 0`` at
    every event boundary; dead agents stay in the roster with holdings frozen."""

    id: int
    pos: tuple[int, int]
    attrs: Attributes
    food: int = INITIAL_FOOD
    tokens: int = INITIAL_TOKENS
    health: int = 0
    alive: bool = True
    role: str = ROLE_NONE
    vitality: int = DEFAULT_VITALITY
    revealed_until: int = 0
    train_progress: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.health == 0 and self.alive:
            self.health = self.max_health

    @property
    def max_health(self) -> int:
        return 10 + 2 * self.attrs.END


@dataclass
class ResourceNode:
    """A food or token source. Stock regenerates by ``regen`` per turn up to
    ``stock_cap`` = 5 * regen, and starts full."""

    pos: tuple[int, int]
    kind: str  # "food" | "token"
    regen: int
    stock: int = -1

    def __post_init__(self):
        if self.stock < 0:
            self.stock = self.stock_cap

    @property
    def stock_cap(self) -> int:
        return 5 * self.regen


# --------------------------------------------------------------------------
# Game state and generation


@dataclass
class GameState:
    """Whole-game mutable state. Mutated only inside ``engine.step``."""

    config: GameConfig
    agents: dict[int, AgentState]
    nodes: list[ResourceNode]
    rng: random.Random
    turn: int = 0
    next_agent_id: int = 0
    recent_actions: dict[int, list[str]] = field(default_factory=dict)
    inbox: dict[int, list[tuple[int, str]]] = field(default_factory=dict)
    # node position -> index into ``nodes``; nodes never move or appear
    node_index: dict[tuple[int, int], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.node_index = {node.pos: index for index, node in enumerate(self.nodes)}

    def alive_agents(self) -> list[AgentState]:
        return [a for a in self.agents.values() if a.alive]

    def agents_at(self, pos: tuple[int, int]) -> list[AgentState]:
        return [a for a in self.agents.values() if a.alive and a.pos == pos]

    def occupancy(self, pos: tuple[int, int]) -> int:
        return len(self.agents_at(pos))

    def in_bounds(self, pos: tuple[int, int]) -> bool:
        return 0 <= pos[0] < self.config.grid_width and 0 <= pos[1] < self.config.grid_height


def place_nodes(rng: random.Random, config: GameConfig) -> list[ResourceNode]:
    """Scatter food then token nodes on distinct cells, full stock."""
    # sampling cell indices draws what sampling the grid-order cell list would
    picked = [config.cell_at(i)
              for i in rng.sample(range(config.area), config.n_food_nodes + config.n_token_nodes)]
    nodes = [ResourceNode(pos=p, kind="food", regen=config.food_regen)
             for p in picked[:config.n_food_nodes]]
    nodes += [ResourceNode(pos=p, kind="token", regen=config.token_regen)
              for p in picked[config.n_food_nodes:]]
    return nodes


def new_game(config: GameConfig) -> GameState:
    """Build the initial state for a validated config.

    Draw order is part of the determinism contract: node placement first,
    then per agent attrs, position, and (sexual_selection only) vitality;
    roles are assigned last, once the roster is complete.
    """
    config.validate()
    rng = random.Random(config.seed)
    nodes = place_nodes(rng, config)
    state = GameState(config=config, agents={}, nodes=nodes, rng=rng)

    sexual = config.engine_variant == VARIANT_SEXUAL_SELECTION
    # draw the n-th cell below capacity in grid order: O(roster), not O(area)
    full: list[int] = []                  # indices of full cells, ascending
    occupancy: dict[int, int] = {}
    for i in range(config.n_agents):
        attrs = generate_attributes(rng)
        cell = rng.choice(range(config.area - len(full)))
        for index in full:
            if index > cell:
                break
            cell += 1
        occupancy[cell] = occupancy.get(cell, 0) + 1
        if occupancy[cell] == config.cell_capacity:
            bisect.insort(full, cell)
        agent = AgentState(id=i, pos=config.cell_at(cell), attrs=attrs)
        if sexual:
            agent.vitality = rng.randint(1, 10)
        state.agents[i] = agent
    state.next_agent_id = config.n_agents

    if sexual:
        from .mating import assign_roles, vitality_endowment

        assign_roles(list(state.agents.values()), rng)
        for agent in state.agents.values():
            agent.food, agent.tokens = vitality_endowment(agent.vitality)
    return state
