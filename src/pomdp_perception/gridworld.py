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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .pbvi import ValueFunction, best_action
from .pomdp import (
    Belief,
    InfoSource,
    PerceptionAction,
    Pomdp,
    ZeroLikelihoodObservation,
    _content_lines,
    belief_update_auxiliary,
    belief_update_intrinsic,
)
from .selection import SelectionProblem, generalized_greedy

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
        if not self.cost > 0.0:
            raise InvalidScenario("uav cost must be positive")
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

    def neighbor(cell: int, action: int) -> int | None:
        row, col = scenario.cell_rc(cell)
        dr, dc = _MOVES[action]
        row, col = row + dr, col + dc
        if 0 <= row < scenario.height and 0 <= col < scenario.width:
            return scenario.rc_cell(row, col)
        return None

    for s in range(n):
        if s == goal:
            transition[s, :, s] = 1.0
            continue
        for a in _MOVES:
            for target, prob in ((neighbor(s, a), scenario.move_success_prob),) + tuple(
                (neighbor(s, p), side) for p in _PERPENDICULAR[a]
            ):
                transition[s, a, s if target is None else target] += prob
            transition[s, a, s] += side
        transition[s, STOP, s] = 1.0

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


def uav_sources_at(scenario: Scenario, t: int) -> list[InfoSource]:
    """Information sources offered by the UAVs at step t.

    Each UAV sits at waypoint (t mod path length).  Its alphabet is the cells
    inside its field of view, in ascending order, plus a final "not seen"
    symbol.  A robot inside the FOV is reported at its true cell with
    detection_accuracy, the rest spread uniformly over the other FOV cells and
    "not seen"; a robot outside the FOV yields "not seen" with certainty.
    """
    n = scenario.num_cells
    num_actions = len(ACTION_NAMES)
    sources = []
    for uav in scenario.uavs:
        center = uav.waypoints[t % len(uav.waypoints)]
        fov = _fov_cells(scenario, center, uav.fov_radius)
        num_symbols = len(fov) + 1
        likelihood = np.zeros((n, num_symbols))
        likelihood[:, -1] = 1.0
        miss = (1.0 - uav.detection_accuracy) / (num_symbols - 1)
        for slot, cell in enumerate(fov):
            likelihood[cell, :] = miss
            likelihood[cell, slot] = uav.detection_accuracy
        sources.append(
            InfoSource(
                likelihood=np.repeat(likelihood[:, None, :], num_actions, axis=1),
                cost=uav.cost,
            )
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


def _sample_index(rng: np.random.Generator, probs: np.ndarray) -> int:
    cumulative = np.cumsum(probs)
    return int(min(np.searchsorted(cumulative, rng.random(), side="right"), probs.size - 1))


def _select_sources(
    policy: str,
    k: int,
    belief: Belief,
    action: int,
    sources: Sequence[InfoSource],
    rng: np.random.Generator,
) -> PerceptionAction:
    """Sources to query this step; k caps their summed cost under every policy.

    `random` draws up to k distinct sources among those costing at most k and
    keeps them, in draw order, while their summed cost stays within k.
    """
    if policy == "none" or k <= 0 or not sources:
        return PerceptionAction()
    if policy == "random":
        affordable = [i for i, src in enumerate(sources) if src.cost <= k]
        if not affordable:
            return PerceptionAction()
        picks = rng.choice(len(affordable), size=min(k, len(affordable)), replace=False)
        kept: list[int] = []
        spent = 0.0
        for pick in picks:
            spent += sources[affordable[int(pick)]].cost
            if spent > k:
                break
            kept.append(affordable[int(pick)])
        return PerceptionAction(kept)
    if policy == "greedy":
        problem = SelectionProblem(
            belief=belief, action=action, sources=tuple(sources), budget=float(k)
        )
        return generalized_greedy(problem).selected
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
    for the greedy one.

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
        next_state = _sample_index(rng_trans, pomdp.transition[state, action])
        obs = _sample_index(rng_obs, pomdp.observation[next_state, action])
        # An impossible intrinsic observation records no selection and draws
        # neither a selection nor a report.
        selected = PerceptionAction()
        try:
            belief = belief_update_intrinsic(pomdp, belief, action, obs)
            sources = uav_sources_at(scenario, t)
            selected = _select_sources(policy, k, belief, action, sources, rng_select)
            symbols = tuple(
                _sample_index(rng_aux, sources[i].likelihood[next_state, action]) for i in selected
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


def write_scenario_file(scenario: Scenario, path: str) -> None:
    def rc(cell: int) -> str:
        row, col = scenario.cell_rc(cell)
        return f"{row} {col}"

    if scenario.uavs:
        fov = {u.fov_radius for u in scenario.uavs}
        acc = {u.detection_accuracy for u in scenario.uavs}
        cost = {u.cost for u in scenario.uavs}
        if len(fov) > 1 or len(acc) > 1 or len(cost) > 1:
            raise ValueError("scenario files support one shared uav sensing model")
        fov_radius, accuracy, uav_cost = fov.pop(), acc.pop(), cost.pop()
    else:
        fov_radius, accuracy, uav_cost = 1, 0.9, 1.0
    lines = [
        SCENARIO_FILE_HEADER,
        f"grid {scenario.height} {scenario.width}",
        f"start {rc(scenario.start_cell)}",
        f"goal {rc(scenario.goal_cell)}",
        f"goal_reward {scenario.goal_reward!r}",
        f"obstacle_reward {scenario.obstacle_reward!r}",
        f"step_reward {scenario.step_reward!r}",
        f"move_success {scenario.move_success_prob!r}",
        f"sensor_accuracy {scenario.intrinsic_sensor_accuracy!r}",
        f"detection_accuracy {accuracy!r}",
        f"fov_radius {fov_radius}",
        f"uav_cost {uav_cost!r}",
        f"budget {scenario.budget}",
        f"discount {scenario.discount!r}",
        f"horizon {scenario.horizon}",
    ]
    for cell in sorted(scenario.obstacle_cells):
        lines.append(f"obstacle {rc(cell)}")
    for uav in scenario.uavs:
        lines.append("uav " + " ".join(rc(w) for w in uav.waypoints))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_scenario_file(path: str) -> Scenario:
    lines = _content_lines(path)
    if not lines or lines[0] != SCENARIO_FILE_HEADER:
        raise ValueError(f"not a '{SCENARIO_FILE_HEADER}' file: {path}")
    scalars: dict[str, list[str]] = {}
    obstacles: list[tuple[int, int]] = []
    uav_paths: list[list[tuple[int, int]]] = []
    for line in lines[1:]:
        key, *rest = line.split()
        if key == "obstacle":
            if len(rest) != 2:
                raise ValueError(f"obstacle wants 'row col', got {line!r}")
            obstacles.append((int(rest[0]), int(rest[1])))
        elif key == "uav":
            if len(rest) < 2 or len(rest) % 2 != 0:
                raise ValueError(f"uav wants 'row col' pairs, got {line!r}")
            uav_paths.append([(int(rest[i]), int(rest[i + 1])) for i in range(0, len(rest), 2)])
        elif key in scalars:
            raise ValueError(f"duplicate key {key!r}")
        else:
            scalars[key] = rest

    def take(key: str, parts: int) -> list[str]:
        if key not in scalars or len(scalars[key]) != parts:
            raise ValueError(f"missing or malformed key {key!r}")
        return scalars.pop(key)

    height, width = (int(v) for v in take("grid", 2))
    start = tuple(int(v) for v in take("start", 2))
    goal = tuple(int(v) for v in take("goal", 2))
    goal_reward = float(take("goal_reward", 1)[0])
    obstacle_reward = float(take("obstacle_reward", 1)[0])
    step_reward = float(take("step_reward", 1)[0])
    move_success = float(take("move_success", 1)[0])
    sensor_accuracy = float(take("sensor_accuracy", 1)[0])
    detection_accuracy = float(take("detection_accuracy", 1)[0])
    fov_radius = int(take("fov_radius", 1)[0])
    uav_cost = float(take("uav_cost", 1)[0])
    budget = int(take("budget", 1)[0])
    discount = float(take("discount", 1)[0])
    horizon = int(take("horizon", 1)[0])
    if scalars:
        raise ValueError(f"unknown keys: {sorted(scalars)}")

    def cell(rc: tuple[int, int]) -> int:
        row, col = rc
        if not (0 <= row < height and 0 <= col < width):
            raise ValueError(f"cell {rc} out of bounds for {height}x{width} grid")
        return row * width + col

    return Scenario(
        width=width,
        height=height,
        start_cell=cell(start),
        goal_cell=cell(goal),
        obstacle_cells=frozenset(cell(rc) for rc in obstacles),
        goal_reward=goal_reward,
        obstacle_reward=obstacle_reward,
        step_reward=step_reward,
        move_success_prob=move_success,
        intrinsic_sensor_accuracy=sensor_accuracy,
        uavs=tuple(
            UavSpec(
                waypoints=tuple(cell(rc) for rc in wps),
                fov_radius=fov_radius,
                detection_accuracy=detection_accuracy,
                cost=uav_cost,
            )
            for wps in uav_paths
        ),
        budget=budget,
        discount=discount,
        horizon=horizon,
    )
