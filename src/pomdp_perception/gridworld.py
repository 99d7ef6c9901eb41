"""Grid-world navigation with patrolling UAV information sources.

A robot navigates a rectangular grid toward an absorbing goal while paying
penalties for obstacle cells.  Its own position sensor is noisy; at each step
it may additionally query a budget-limited subset of patrolling UAVs, each of
which reports a cell inside its current 3x3 field of view (or "not seen").
Episodes roll out under one of three perception policies: query nothing,
query a random subset, or query the greedy mutual-information subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .pbvi import ValueFunction, best_action
from .pomdp import (
    Belief,
    InfoSource,
    PerceptionAction,
    Pomdp,
    ZeroLikelihoodObservation,
    _read_lines,
    _write_lines,
    belief_update_auxiliary,
    belief_update_intrinsic,
)
from .selection import SelectionProblem, SourceSet, _greedy_picks

__all__ = [
    "UP",
    "RIGHT",
    "DOWN",
    "LEFT",
    "STOP",
    "ACTION_NAMES",
    "PERCEPTION_POLICIES",
    "InvalidScenario",
    "UavSpec",
    "Scenario",
    "StepRecord",
    "EpisodeRecord",
    "SimResult",
    "default_scenario",
    "build_pomdp",
    "uav_sources_at",
    "run_episode",
    "monte_carlo",
    "read_scenario_file",
    "write_scenario_file",
]

UP, RIGHT, DOWN, LEFT, STOP = range(5)
ACTION_NAMES = ("up", "right", "down", "left", "stop")
_MOVES = {UP: (-1, 0), RIGHT: (0, 1), DOWN: (1, 0), LEFT: (0, -1)}
_PERPENDICULAR = {UP: (LEFT, RIGHT), DOWN: (LEFT, RIGHT), LEFT: (UP, DOWN), RIGHT: (UP, DOWN)}

PERCEPTION_POLICIES = ("none", "random", "greedy")


class InvalidScenario(ValueError):
    """Scenario fields violate an invariant (bounds, probabilities, layout)."""


@dataclass(frozen=True)
class UavSpec:
    """One patrolling UAV: a periodic waypoint path plus its sensing model."""

    waypoints: tuple[int, ...]
    fov_radius: int = 1
    detection_accuracy: float = 0.9
    cost: float = 1.0

    def __post_init__(self) -> None:
        wps = tuple(int(w) for w in self.waypoints)
        if not wps:
            raise InvalidScenario("uav needs at least one waypoint")
        if self.fov_radius < 0:
            raise InvalidScenario("fov_radius must be nonnegative")
        if not 0.0 < self.detection_accuracy <= 1.0:
            raise InvalidScenario("detection_accuracy must be in (0, 1]")
        if not (math.isfinite(self.cost) and self.cost > 0.0):
            raise InvalidScenario(f"uav cost must be finite and positive, got {self.cost}")
        object.__setattr__(self, "waypoints", wps)


@dataclass(frozen=True)
class Scenario:
    """Grid layout, sensing parameters, and simulation protocol knobs."""

    width: int = 8
    height: int = 8
    start_cell: int = 56
    goal_cell: int = 7
    obstacle_cells: frozenset[int] = frozenset()
    goal_reward: float = 10.0
    obstacle_reward: float = -5.0
    step_reward: float = -1.0
    move_success_prob: float = 0.7
    intrinsic_sensor_accuracy: float = 0.5
    uavs: tuple[UavSpec, ...] = ()
    budget: int = 2
    discount: float = 0.95
    horizon: int = 40

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1 or self.num_cells < 2:
            raise InvalidScenario("grid needs at least two cells")
        cells = range(self.num_cells)
        if self.goal_cell not in cells or self.start_cell not in cells:
            raise InvalidScenario("start/goal cell out of bounds")
        obstacles = frozenset(int(c) for c in self.obstacle_cells)
        if any(c not in cells for c in obstacles):
            raise InvalidScenario("obstacle cell out of bounds")
        if self.goal_cell in obstacles:
            raise InvalidScenario("goal cell cannot be an obstacle")
        for p in (self.move_success_prob, self.intrinsic_sensor_accuracy):
            if not 0.0 < p <= 1.0:
                raise InvalidScenario("probabilities must be in (0, 1]")
        for name in ("goal_reward", "obstacle_reward", "step_reward"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidScenario(f"{name} must be finite")
        if not 0.0 <= self.discount < 1.0:
            raise InvalidScenario("discount must be in [0, 1)")
        if self.horizon < 1 or self.budget < 0:
            raise InvalidScenario("horizon must be positive, budget nonnegative")
        uavs = tuple(self.uavs)
        for uav in uavs:
            if any(w not in cells for w in uav.waypoints):
                raise InvalidScenario("uav waypoint out of bounds")
        object.__setattr__(self, "obstacle_cells", obstacles)
        object.__setattr__(self, "uavs", uavs)

    @property
    def num_cells(self) -> int:
        return self.width * self.height

    def cell_rc(self, cell: int) -> tuple[int, int]:
        return divmod(cell, self.width)

    def rc_cell(self, row: int, col: int) -> int:
        return row * self.width + col

    @cached_property
    def patrol_sources(self) -> tuple[tuple[InfoSource, ...], ...]:
        """Per UAV, its source at each of its waypoints, in path order.

        Built on first use and kept with the scenario, which is frozen; the
        sources are read-only, so every step and episode can share them.
        """
        return tuple(
            tuple(_uav_source(self, uav, center) for center in uav.waypoints) for uav in self.uavs
        )

    @cached_property
    def _patrol_period(self) -> int:
        """Steps after which every UAV is back at its first waypoint."""
        return math.lcm(*(len(uav.waypoints) for uav in self.uavs))

    @cached_property
    def _step_sources(self) -> dict[int, SourceSet]:
        """The source set of each patrol phase (t mod `_patrol_period`) that
        `uav_sources_at` has built so far."""
        return {}


def default_scenario() -> Scenario:
    """The stock 8x8 layout: diagonal start/goal, scattered obstacles, and 12
    UAVs flying small phase-staggered rectangular loops that tile the map."""
    width = height = 8
    obstacles = [(1, 2), (2, 5), (3, 3), (4, 1), (4, 6), (5, 4), (6, 2), (6, 6)]
    uavs = []
    index = 0
    for top in (0, 3, 6):
        for left in (0, 2, 4, 6):
            loop = [
                top * width + left,
                top * width + left + 1,
                (top + 1) * width + left + 1,
                (top + 1) * width + left,
            ]
            phase = index % 4
            uavs.append(UavSpec(waypoints=tuple(loop[phase:] + loop[:phase])))
            index += 1
    return Scenario(
        width=width,
        height=height,
        start_cell=7 * width + 0,
        goal_cell=0 * width + 7,
        obstacle_cells=frozenset(r * width + c for r, c in obstacles),
        uavs=tuple(uavs),
    )


def build_pomdp(scenario: Scenario) -> Pomdp:
    """Navigation POMDP for a scenario.

    States are cells and actions are (up, right, down, left, stop).  A move
    reaches the intended neighbor with move_success_prob; the remainder splits
    equally between the two perpendicular neighbors and staying put, and any
    share pointing off-grid folds into staying.  The goal is absorbing.
    Rewards are collected on arrival: R(s, a) is the transition-weighted cell
    reward of the destination, zero from the goal onward.  The intrinsic
    sensor reports the robot's cell with intrinsic_sensor_accuracy and spreads
    the rest uniformly over all other cells.
    """
    n = scenario.num_cells
    num_actions = len(ACTION_NAMES)
    transition = np.zeros((n, num_actions, n))
    goal = scenario.goal_cell
    side = (1.0 - scenario.move_success_prob) / 3.0

    # neighbor[a, s]: the cell a move reaches from s, s itself off the grid.
    cells = np.arange(n)
    rows, cols = np.divmod(cells, scenario.width)
    neighbor = np.empty((len(_MOVES), n), dtype=int)
    for a, (dr, dc) in _MOVES.items():
        r, c = rows + dr, cols + dc
        inside = (0 <= r) & (r < scenario.height) & (0 <= c) & (c < scenario.width)
        neighbor[a] = np.where(inside, r * scenario.width + c, cells)

    # Each entry sums its shares in one fixed order: success, the two
    # perpendicular slips, staying.
    movers = cells[cells != goal]
    for a in _MOVES:
        np.add.at(transition, (movers, a, neighbor[a, movers]), scenario.move_success_prob)
        for p in _PERPENDICULAR[a]:
            np.add.at(transition, (movers, a, neighbor[p, movers]), side)
        np.add.at(transition, (movers, a, movers), side)
    transition[movers, STOP, movers] = 1.0
    transition[goal, :, goal] = 1.0
    # Where every share folds into staying, p + 3 * side can round to just
    # above 1.
    np.minimum(transition, 1.0, out=transition)

    cell_reward = np.full(n, scenario.step_reward)
    cell_reward[list(scenario.obstacle_cells)] = scenario.obstacle_reward
    cell_reward[goal] = scenario.goal_reward
    reward = transition @ cell_reward
    reward[goal, :] = 0.0

    accuracy = scenario.intrinsic_sensor_accuracy
    noise = (1.0 - accuracy) / (n - 1)
    observation_2d = np.full((n, n), noise)
    np.fill_diagonal(observation_2d, accuracy)
    observation = np.repeat(observation_2d[:, None, :], num_actions, axis=1)

    return Pomdp(
        transition=transition,
        observation=observation,
        reward=reward,
        discount=scenario.discount,
    )


def _fov_cells(scenario: Scenario, center: int, radius: int) -> list[int]:
    row, col = scenario.cell_rc(center)
    cells = []
    for r in range(max(0, row - radius), min(scenario.height, row + radius + 1)):
        for c in range(max(0, col - radius), min(scenario.width, col + radius + 1)):
            cells.append(scenario.rc_cell(r, c))
    return cells


def _uav_source(scenario: Scenario, uav: UavSpec, center: int) -> InfoSource:
    n = scenario.num_cells
    num_actions = len(ACTION_NAMES)
    fov = _fov_cells(scenario, center, uav.fov_radius)
    num_symbols = len(fov) + 1
    likelihood = np.zeros((n, num_symbols))
    likelihood[:, -1] = 1.0
    miss = (1.0 - uav.detection_accuracy) / (num_symbols - 1)
    for slot, cell in enumerate(fov):
        likelihood[cell, :] = miss
        likelihood[cell, slot] = uav.detection_accuracy
    return InfoSource(
        likelihood=np.repeat(likelihood[:, None, :], num_actions, axis=1),
        cost=uav.cost,
    )


def uav_sources_at(scenario: Scenario, t: int) -> SourceSet:
    """Information sources offered by the UAVs at step t, in UAV order.

    Each UAV sits at waypoint (t mod path length).  Its alphabet is the cells
    inside its field of view, in ascending order, plus a final "not seen"
    symbol.  A robot inside the FOV is reported at its true cell with
    detection_accuracy, the rest spread uniformly over the other FOV cells and
    "not seen"; a robot outside the FOV yields "not seen" with certainty.

    Each UAV's source at each waypoint is built once per scenario, on first
    use.  The step's `SourceSet` is built once per patrol phase, on the first
    call at that phase, and kept with the scenario, which is frozen: every
    step and episode at that phase gets the same set, and with it the tables
    greedy selection builds from it once.
    """
    phase = t % scenario._patrol_period
    sources = scenario._step_sources.get(phase)
    if sources is None:
        sources = scenario._step_sources[phase] = SourceSet(
            per_uav[phase % len(per_uav)] for per_uav in scenario.patrol_sources
        )
    return sources


@dataclass(frozen=True)
class StepRecord:
    """State occupied when acting, the action, the queried sources, and the
    reward collected for the step."""

    state: int
    action: int
    selected: PerceptionAction
    reward: float


@dataclass(frozen=True)
class EpisodeRecord:
    steps: tuple[StepRecord, ...]
    discounted_reward: float
    reached_goal: bool
    failed: bool


@dataclass(frozen=True, eq=False)
class SimResult:
    """Aggregate of a batch of episodes under one perception policy."""

    episodes: tuple[EpisodeRecord, ...]
    visit_counts: np.ndarray
    mean_discounted_reward: float
    std_discounted_reward: float

    @property
    def num_failed(self) -> int:
        return sum(1 for e in self.episodes if e.failed)


def _sample_index(rng: np.random.Generator, cumulative: np.ndarray) -> int:
    """Draw an index from the distribution whose running sums are `cumulative`,
    one `np.cumsum` row."""
    return int(min(np.searchsorted(cumulative, rng.random(), side="right"), cumulative.size - 1))


def _select_sources(
    policy: str,
    k: int,
    belief: Belief,
    action: int,
    sources: Sequence[InfoSource],
    rng: np.random.Generator,
) -> PerceptionAction:
    """Sources to query this step; k caps their summed cost under every policy.

    `random` draws distinct sources among those costing at most k, as many as
    k pays for at the cheapest one's cost (but never fewer than k, so draws
    among sources of cost 1 or more are the same as for unit costs), and
    keeps them, in draw order, while their summed cost stays within k.  An
    empty pool (`run_episode` passes one under `none` or k <= 0) selects
    nothing and draws nothing.
    """
    if not sources:
        return PerceptionAction()
    if policy == "random":
        affordable = [i for i, src in enumerate(sources) if src.cost <= k]
        if not affordable:
            return PerceptionAction()
        most = max(k, math.floor(k / min(sources[i].cost for i in affordable)))
        picks = rng.choice(len(affordable), size=min(most, len(affordable)), replace=False)
        kept: list[int] = []
        spent = 0.0
        for pick in picks:
            spent += sources[affordable[int(pick)]].cost
            if spent > k:
                break
            kept.append(affordable[int(pick)])
        return PerceptionAction(kept)
    if policy == "greedy":
        problem = SelectionProblem(belief=belief, action=action, sources=sources, budget=float(k))
        return _greedy_picks(problem)[0]
    raise ValueError(f"unknown perception policy {policy!r}")


def run_episode(
    pomdp: Pomdp,
    vf: ValueFunction,
    scenario: Scenario,
    policy: str,
    k: int,
    seed,
    action_override: Sequence[int] | None = None,
) -> EpisodeRecord:
    """Roll out one episode.

    Per step: act greedily on the value function (or follow action_override),
    collect the discounted reward, sample the transition and the intrinsic
    observation, update the belief, then query sources per the perception
    policy and fold their sampled reports into the belief.  Terminates on
    reaching the goal (checked before acting) or at the horizon.  k is the
    per-step cost budget of the queried sources, for the random policy as
    for the greedy one.  Under `none`, or with k <= 0, the episode builds
    and reads no UAV source.  The greedy policy takes only the picks of
    `generalized_greedy`, not its utility.  The step source sets, with the
    tables greedy reads, and each source's report running sums are built
    once per scenario and shared by every step and episode.

    Transitions, intrinsic observations, auxiliary reports, and the random
    policy draw from four independent streams spawned from `seed`, so the
    visited states depend only on the seed and the action sequence, never on
    the perception policy.

    A zero-likelihood observation ends the episode with failed=True instead
    of raising.  A value function whose state count differs from the model's,
    or whose action tags reach past the model's actions, raises ValueError.
    """
    if vf.num_states != pomdp.num_states:
        raise ValueError(
            f"value function has {vf.num_states} states; the scenario has {pomdp.num_states}"
        )
    if vf.actions.max() >= pomdp.num_actions:
        raise ValueError(
            f"value function has action tags beyond the scenario's {pomdp.num_actions} actions"
        )
    if policy not in PERCEPTION_POLICIES:
        raise ValueError(f"unknown perception policy {policy!r}")
    if k > scenario.budget:
        raise ValueError(f"k={k} exceeds the scenario budget {scenario.budget}")
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rng_trans, rng_obs, rng_aux, rng_select = (np.random.default_rng(s) for s in seq.spawn(4))

    wants_sources = policy != "none" and k > 0
    transition_sums, observation_sums = pomdp.cumulative
    belief = Belief.uniform(pomdp.num_states)
    state = scenario.start_cell
    steps: list[StepRecord] = []
    total = 0.0
    failed = False
    for t in range(scenario.horizon):
        if state == scenario.goal_cell:
            break
        action = int(action_override[t]) if action_override is not None else best_action(vf, belief)
        reward = float(pomdp.reward[state, action])
        total += scenario.discount**t * reward
        next_state = _sample_index(rng_trans, transition_sums[state, action])
        obs = _sample_index(rng_obs, observation_sums[next_state, action])
        # An impossible intrinsic observation records no selection and draws
        # neither a selection nor a report.
        selected = PerceptionAction()
        try:
            belief = belief_update_intrinsic(pomdp, belief, action, obs)
            sources = uav_sources_at(scenario, t) if wants_sources else []
            selected = _select_sources(policy, k, belief, action, sources, rng_select)
            symbols = tuple(
                _sample_index(rng_aux, sources[i].cumulative[next_state, action])
                for i in selected
            )
            belief = belief_update_auxiliary(belief, action, selected, sources, symbols)
        except ZeroLikelihoodObservation:
            failed = True
        steps.append(StepRecord(state, action, selected, reward))
        state = next_state
        if failed:
            break
    return EpisodeRecord(tuple(steps), total, state == scenario.goal_cell, failed)


def monte_carlo(
    pomdp: Pomdp,
    vf: ValueFunction,
    scenario: Scenario,
    policy: str,
    k: int,
    n_runs: int = 50,
    base_seed: int = 0,
) -> SimResult:
    """Independent seeded episodes plus the visit-count and reward aggregates.

    Episode i uses the seed sequence (base_seed, i), so results are a pure
    function of the arguments.  Visit counts tally the cell occupied at each
    recorded step; their sum equals the total number of steps taken.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be at least 1")
    episodes = tuple(
        run_episode(pomdp, vf, scenario, policy, k, np.random.SeedSequence((base_seed, i)))
        for i in range(n_runs)
    )
    visits = np.zeros((scenario.height, scenario.width), dtype=int)
    for episode in episodes:
        for step in episode.steps:
            row, col = scenario.cell_rc(step.state)
            visits[row, col] += 1
    rewards = np.array([e.discounted_reward for e in episodes])
    return SimResult(
        episodes=episodes,
        visit_counts=visits,
        mean_discounted_reward=float(rewards.mean()),
        std_discounted_reward=float(rewards.std()),
    )


# ---------------------------------------------------------------------------
# Scenario files: line-oriented text, '#' comments.  Cells appear as
# "row col" pairs.  One 'uav' line per UAV listing its waypoints; the global
# detection_accuracy/uav_cost/fov_radius apply to all of them.
# ---------------------------------------------------------------------------

SCENARIO_FILE_HEADER = "scenario v1"
# The one-value keys in file order, after grid, start and goal: (key, owner,
# field, type), the owner being the scenario or the sensing model all UAVs
# share.
_SCENARIO_SCALARS = (
    ("goal_reward", "scenario", "goal_reward", float),
    ("obstacle_reward", "scenario", "obstacle_reward", float),
    ("step_reward", "scenario", "step_reward", float),
    ("move_success", "scenario", "move_success_prob", float),
    ("sensor_accuracy", "scenario", "intrinsic_sensor_accuracy", float),
    ("detection_accuracy", "uav", "detection_accuracy", float),
    ("fov_radius", "uav", "fov_radius", int),
    ("uav_cost", "uav", "cost", float),
    ("budget", "scenario", "budget", int),
    ("discount", "scenario", "discount", float),
    ("horizon", "scenario", "horizon", int),
)


def write_scenario_file(scenario: Scenario, path: str) -> None:
    # Each UAV's sensing model without its path; a scenario without UAVs
    # writes UavSpec's defaults.
    sensing = {replace(u, waypoints=(0,)) for u in scenario.uavs} or {UavSpec(waypoints=(0,))}
    if len(sensing) > 1:
        raise ValueError("scenario files support one shared uav sensing model")
    owners = {"scenario": scenario, "uav": sensing.pop()}

    def rc(cell: int) -> str:
        row, col = scenario.cell_rc(cell)
        return f"{row} {col}"

    lines = [
        SCENARIO_FILE_HEADER,
        f"grid {scenario.height} {scenario.width}",
        f"start {rc(scenario.start_cell)}",
        f"goal {rc(scenario.goal_cell)}",
    ]
    for key, owner, field, kind in _SCENARIO_SCALARS:
        value = getattr(owners[owner], field)
        lines.append(f"{key} {value!r}" if kind is float else f"{key} {value}")
    lines.extend(f"obstacle {rc(cell)}" for cell in sorted(scenario.obstacle_cells))
    lines.extend("uav " + " ".join(rc(w) for w in uav.waypoints) for uav in scenario.uavs)
    _write_lines(path, lines)


def read_scenario_file(path: str) -> Scenario:
    scalars: dict[str, list[str]] = {}
    obstacles: list[list[str]] = []
    uav_paths: list[list[str]] = []
    for line in _read_lines(path, SCENARIO_FILE_HEADER):
        key, *rest = line.split()
        if key == "obstacle":
            if len(rest) != 2:
                raise ValueError(f"obstacle wants 'row col', got {line!r}")
            obstacles.append(rest)
        elif key == "uav":
            if len(rest) < 2 or len(rest) % 2 != 0:
                raise ValueError(f"uav wants 'row col' pairs, got {line!r}")
            uav_paths.append(rest)
        elif key in scalars:
            raise ValueError(f"duplicate key {key!r}")
        else:
            scalars[key] = rest

    def take(key: str, parts: int) -> list[str]:
        if key not in scalars or len(scalars[key]) != parts:
            raise ValueError(f"missing or malformed key {key!r}")
        return scalars.pop(key)

    height, width = (int(v) for v in take("grid", 2))

    def cells(pairs: list[str]) -> list[int]:
        """The cells of a flat list of 'row col' pairs, each inside the grid."""
        out = []
        for rc in zip(map(int, pairs[::2]), map(int, pairs[1::2])):
            row, col = rc
            if not (0 <= row < height and 0 <= col < width):
                raise ValueError(f"cell {rc} out of bounds for {height}x{width} grid")
            out.append(row * width + col)
        return out

    (start,), (goal,) = cells(take("start", 2)), cells(take("goal", 2))
    fields: dict[str, dict] = {"scenario": {}, "uav": {}}
    for key, owner, field, kind in _SCENARIO_SCALARS:
        fields[owner][field] = kind(take(key, 1)[0])
    if scalars:
        raise ValueError(f"unknown keys: {sorted(scalars)}")
    return Scenario(
        width=width,
        height=height,
        start_cell=start,
        goal_cell=goal,
        obstacle_cells=frozenset(cell for pair in obstacles for cell in cells(pair)),
        uavs=tuple(UavSpec(waypoints=tuple(cells(wps)), **fields["uav"]) for wps in uav_paths),
        **fields["scenario"],
    )
