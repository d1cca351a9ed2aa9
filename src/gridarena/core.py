"""Core world model: configuration, agents, resource nodes, game state.

All randomness flows through a single ``random.Random`` owned by the
``GameState``; nothing in this package touches the global RNG. Two games
built from equal configs (same seed) are identical object for object.

Every bounded draw of a game (attributes, start cells, vitality, turn order,
roles, a scripted policy's random step) goes through one kernel, ``below``,
and ``shuffle`` built on it: ``random.Random``'s own rejection loop on
``getrandbits``, so each draw reads the same Mersenne Twister words that
``choice``, ``randrange``, ``randint`` and ``shuffle`` would, without their
layers of Python calls. Node placement (``sample``), mutation noise
(``gauss``) and trade acceptance (``random``) stay ``random.Random``'s.
"""

from __future__ import annotations

import bisect
import gc
import math
import random
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from typing import Any, ClassVar

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

    def __reduce__(self):
        # rebuilt from ``problems``, not the message, when a sweep worker sends it back
        return type(self), (self.problems,)


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


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause Python's cyclic garbage collector, process-wide, for the block,
    and leave it on or off afterwards as it was found, on error too.

    For work that builds trees of containers and no reference cycles (a
    game's state and records, a log's decoded lines): a collection during it
    frees nothing and only re-walks what was built, and reference counting
    still frees what the work drops.

    On leaving the block, every object the collector tracks is moved to its
    oldest generation (``gc.freeze`` then ``gc.unfreeze``, each a list
    splice), so what the block built is never walked by a young collection;
    a full collection still visits it, and frees any cycle in it. This is
    skipped when anything is already frozen (a host that froze its objects
    before forking, or an interpreter that starts with some frozen), which
    are then left frozen, and the block's objects stay young; counting the
    frozen objects (``gc.get_freeze_count``) walks them."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if not gc.get_freeze_count():
            gc.freeze()
            gc.unfreeze()
        if was_enabled:
            gc.enable()


def below(getrandbits: Callable[[int], int], n: int) -> int:
    """A uniform draw from ``range(n)``, n >= 1 (n = 0 never returns), from
    an RNG's bound ``getrandbits``: the rejection loop of
    ``random.Random._randbelow``, so it reads the same words and returns what
    ``Random.randrange(n)`` would. The game's one copy of that loop."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def shuffle(rng: random.Random, x: list) -> None:
    """Shuffle ``x`` in place, draw for draw as ``rng.shuffle(x)`` does."""
    getrandbits = rng.getrandbits
    for i in range(len(x) - 1, 0, -1):
        j = below(getrandbits, i + 1)
        x[i], x[j] = x[j], x[i]


# --------------------------------------------------------------------------
# Configuration


def read_text(path, error: Callable[[str], Exception]) -> str:
    """``path``'s text, read as UTF-8 with universal newlines. A byte that is
    not UTF-8 raises ``error(problem)``, the problem naming its line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        # one read() decodes the whole file, so ``exc.object`` is its bytes
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise error(f"line {line}: not UTF-8 text ({exc.reason})") from exc


def read_pairs(entries: Iterable[tuple[str, str]]) -> dict[str, str]:
    """Read ``(where, "key=value")`` entries into a dict, key and value
    stripped; ``where`` ("line 3", "--set") starts each problem. A missing
    ``=``, an empty key or a key given twice is fatal."""
    pairs: dict[str, str] = {}
    problems = []
    for where, text in entries:
        key, eq, value = text.partition("=")
        key, value = key.strip(), value.strip()
        if not eq or not key:
            problems.append(f"{where}: expected key=value, got {text!r}")
        elif key in pairs:
            problems.append(f"{where}: duplicate key {key!r}")
        else:
            pairs[key] = value
    if problems:
        raise ConfigError(problems)
    return pairs


@dataclass
class GameConfig:
    """Complete run configuration; every field lands in the log header.

    Its outside form is the mapping ``as_dict`` writes and ``parse`` reads;
    every source (a flat file, CLI overrides, a log header) is read through
    ``parse``. Serialized flat as ``key=value`` lines in field order.
    Defaults describe a 9x9 survival game of 16 agents at upkeep 2.
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

    FIELDS: ClassVar[tuple[str, ...]]  # the field names in order, set below the class

    @property
    def area(self) -> int:
        return self.grid_width * self.grid_height

    def cell_at(self, index: int) -> tuple[int, int]:  # grid order, row by row
        return (index % self.grid_width, index // self.grid_width)

    def in_bounds(self, pos: tuple[int, int]) -> bool:
        return 0 <= pos[0] < self.grid_width and 0 <= pos[1] < self.grid_height

    def problems(self) -> list[str]:
        out = []
        for name in self.FIELDS:
            value = getattr(self, name)
            if name == "engine_variant":
                if not isinstance(value, str):
                    out.append(f"engine_variant must be a string, got {value!r}")
            elif isinstance(value, bool) or not isinstance(value, int):
                out.append(f"{name} must be an integer, got {value!r}")
        if out:
            return out  # the checks below need values of the right types
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

    def as_dict(self) -> dict[str, object]:
        """The config's outside form: each field name and value, in field order."""
        return {name: getattr(self, name) for name in self.FIELDS}

    @classmethod
    def parse(cls, values: Mapping[str, object]) -> "GameConfig":
        """Read a config's outside form: a mapping that names every field
        once. Text becomes an int for every field but ``engine_variant``; any
        other value must already have its field's type, which ``validate``
        checks, so 2.7 is never played as 2."""
        if not isinstance(values, Mapping):
            raise ConfigError([f"config must be a mapping, got {type(values).__name__}"])
        problems = [f"unknown key {key!r}" for key in values if key not in cls.FIELDS]
        missing = [name for name in cls.FIELDS if name not in values]
        if missing:
            problems.append("missing keys: " + ", ".join(missing))
        if problems:
            raise ConfigError(problems)
        typed = dict(values)
        for key, value in values.items():
            if isinstance(value, str) and key != "engine_variant":
                with suppress(ValueError):  # validate names text that is not an int
                    typed[key] = int(value)
        return cls(**typed).validate()

    def to_flat_text(self) -> str:
        lines = [f"{name}={value}" for name, value in self.as_dict().items()]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_flat_text(cls, text: str) -> "GameConfig":
        """Parse ``key=value`` lines (blanks and ``#`` comments skipped) with
        ``read_pairs``; ``parse`` checks the rest."""
        lines = enumerate(map(str.strip, text.splitlines()), start=1)
        return cls.parse(read_pairs((f"line {lineno}", line) for lineno, line in lines
                                    if line and not line.startswith("#")))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_flat_text())

    @classmethod
    def read(cls, path) -> "GameConfig":
        return cls.from_flat_text(read_text(path, lambda problem: ConfigError([problem])))


GameConfig.FIELDS = tuple(f.name for f in fields(GameConfig))


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
    one at a time on a uniformly random attribute still below 8 (each
    draw is ``rng.choice(open_slots)``'s)."""
    getrandbits = rng.getrandbits
    values = [ATTRIBUTE_MIN] * len(ATTRIBUTE_NAMES)
    open_slots = list(range(len(ATTRIBUTE_NAMES)))  # in order; a slot leaves at the cap
    for _ in range(INITIAL_ATTRIBUTE_SUM - len(ATTRIBUTE_NAMES) * ATTRIBUTE_MIN):
        slot = open_slots[below(getrandbits, len(open_slots))]
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

    @property
    def move_steps(self) -> int:
        """Steps one MOVE may take: two at SPD 5 or more, else one."""
        return 2 if self.attrs.SPD >= 5 else 1

    def revealed(self, turn: int) -> bool:
        """Whether a COMMUNICATE still shows this agent's attributes on ``turn``."""
        return self.revealed_until != 0 and self.revealed_until >= turn

    def snapshot(self) -> "AgentState":
        """A copy with its own ``train_progress``, equal to what
        ``dataclasses.replace`` gives at under a third of its cost. (Copying
        ``__dict__`` instead would slow every later attribute read of both.)"""
        copy = type(self)(*_AGENT_FIELDS(self))
        copy.train_progress = dict(copy.train_progress)
        return copy


_AGENT_FIELDS = attrgetter(*(f.name for f in fields(AgentState)))


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
    """Whole-game mutable state. Mutated only by ``engine.play_turn``, which
    plays a turn both for ``engine.step`` and for ``gamelog.replay``.

    An agent's position and liveness change only through ``gamelog.Delta``
    (``set_agent`` on ``pos`` or ``alive``, ``spawn``), which keeps
    ``living`` in step with the roster; the count is taken from the agents
    the state is built with."""

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
    # what the game's cells see (``engine.GameSight``): made on the first
    # observation; a cell's entry is made on the first read of a view of an
    # observer on it, and every later read from that cell uses it
    sight: Any = field(default=None, init=False, repr=False, compare=False)
    # cell -> how many living agents stand on it
    living: Counter[tuple[int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.node_index = {node.pos: index for index, node in enumerate(self.nodes)}
        self.living = Counter(agent.pos for agent in self.alive_agents())

    def alive_agents(self) -> list[AgentState]:
        return [a for a in self.agents.values() if a.alive]

    def occupancy(self, pos: tuple[int, int]) -> int:
        """How many living agents stand on ``pos``."""
        return self.living[pos]


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

    Draw order is part of the determinism contract: node placement first
    (``rng.sample``), then per agent attrs, position, and (sexual_selection
    only) vitality, each drawn by the ``below`` kernel as ``rng.choice`` and
    ``rng.randint(1, 10)`` would; roles are assigned last, once the roster is
    complete, by ``shuffle``.
    """
    config.validate()
    rng = random.Random(config.seed)
    getrandbits = rng.getrandbits
    nodes = place_nodes(rng, config)
    agents: dict[int, AgentState] = {}

    sexual = config.engine_variant == VARIANT_SEXUAL_SELECTION
    # draw the n-th cell below capacity in grid order: O(roster), not O(area),
    # so a tampered header's grid size cannot size replay's set-up
    # (test_replay_setup_does_not_grow_with_a_tampered_grid_area)
    full: list[int] = []                  # indices of full cells, ascending
    occupancy: dict[int, int] = {}
    for i in range(config.n_agents):
        attrs = generate_attributes(rng)
        cell = below(getrandbits, config.area - len(full))
        for index in full:
            if index > cell:
                break
            cell += 1
        occupancy[cell] = occupancy.get(cell, 0) + 1
        if occupancy[cell] == config.cell_capacity:
            bisect.insort(full, cell)
        agent = AgentState(id=i, pos=config.cell_at(cell), attrs=attrs)
        if sexual:
            agent.vitality = 1 + below(getrandbits, 10)
        agents[i] = agent
    state = GameState(config=config, agents=agents, nodes=nodes, rng=rng,
                      next_agent_id=config.n_agents)

    if sexual:
        from .mating import assign_roles, vitality_endowment

        assign_roles(list(state.agents.values()), rng)
        for agent in state.agents.values():
            agent.food, agent.tokens = vitality_endowment(agent.vitality)
    return state
