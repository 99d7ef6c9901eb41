"""Scenario construction, the navigation model, UAV sources, and rollouts."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

import pomdp_perception.gridworld as gridworld
from pomdp_perception import (
    Belief,
    InvalidScenario,
    PerceptionAction,
    Scenario,
    SelectionProblem,
    SourceSet,
    UavSpec,
    ValueFunction,
    ZeroLikelihoodObservation,
    build_pomdp,
    conditional_entropy,
    default_scenario,
    entropy,
    generalized_greedy,
    initialize_value,
    monte_carlo,
    mutual_information,
    read_scenario_file,
    run_episode,
    sample_beliefs_uniform,
    solve,
    uav_sources_at,
    write_scenario_file,
)
from pomdp_perception.gridworld import DOWN, LEFT, RIGHT, STOP, UP
from helpers import (
    mdp_value_iteration,
    oracle_greedy,
    oracle_grid_transition,
    oracle_uav_likelihood,
)


def tiny_scenario(**overrides) -> Scenario:
    defaults = dict(
        width=3,
        height=3,
        start_cell=6,
        goal_cell=2,
        obstacle_cells=frozenset({4}),
        discount=0.9,
        horizon=15,
        budget=1,
        uavs=(UavSpec(waypoints=(4,), detection_accuracy=1.0),),
    )
    defaults.update(overrides)
    return Scenario(**defaults)


def lcm12_scenario() -> Scenario:
    """A 4x4 grid whose two UAVs fly paths of 3 and 4 waypoints (period 12),
    with different sensing models."""
    return Scenario(
        width=4,
        height=4,
        start_cell=12,
        goal_cell=3,
        uavs=(
            UavSpec(waypoints=(0, 1, 5)),
            UavSpec(waypoints=(10, 11, 15, 14), fov_radius=2, detection_accuracy=0.7, cost=0.5),
        ),
    )


# ---------------------------------------------------------------------------
# Scenario validation and files
# ---------------------------------------------------------------------------


def test_scenario_rejects_goal_on_obstacle():
    with pytest.raises(InvalidScenario, match="goal"):
        tiny_scenario(goal_cell=4)


def test_uav_cost_must_be_finite_and_positive():
    for cost in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InvalidScenario, match="uav cost must be finite and positive"):
            UavSpec(waypoints=(0,), cost=cost)


def test_scenario_rejects_out_of_bounds():
    with pytest.raises(InvalidScenario):
        tiny_scenario(start_cell=9)
    with pytest.raises(InvalidScenario):
        tiny_scenario(obstacle_cells=frozenset({42}))
    with pytest.raises(InvalidScenario):
        tiny_scenario(uavs=(UavSpec(waypoints=(100,)),))


def test_default_scenario_layout():
    scenario = default_scenario()
    assert scenario.width == scenario.height == 8
    assert len(scenario.uavs) == 12
    assert scenario.budget == 2
    assert scenario.horizon == 40
    assert scenario.goal_cell not in scenario.obstacle_cells
    assert all(len(u.waypoints) == 4 for u in scenario.uavs)
    # every UAV patrols a closed loop of adjacent cells
    for uav in scenario.uavs:
        rows_cols = [scenario.cell_rc(w) for w in uav.waypoints]
        for (r1, c1), (r2, c2) in zip(rows_cols, rows_cols[1:] + rows_cols[:1]):
            assert abs(r1 - r2) + abs(c1 - c2) == 1


def test_scenario_file_round_trip(tmp_path):
    scenario = default_scenario()
    path = tmp_path / "scenario.txt"
    write_scenario_file(scenario, str(path))
    assert read_scenario_file(str(path)) == scenario


def test_scenario_file_rejects_bad_input(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text("nope\n")
    with pytest.raises(ValueError, match="scenario v1"):
        read_scenario_file(str(path))
    write_scenario_file(default_scenario(), str(path))
    text = path.read_text().replace("budget 2", "budget 2\nbudget 3")
    path.write_text(text)
    with pytest.raises(ValueError, match="duplicate"):
        read_scenario_file(str(path))


# ---------------------------------------------------------------------------
# Navigation model
# ---------------------------------------------------------------------------


def test_build_pomdp_passes_model_validation_and_shapes():
    scenario = default_scenario()
    pomdp = build_pomdp(scenario)
    assert pomdp.num_states == 64
    assert pomdp.num_actions == 5
    assert pomdp.num_observations == 64
    assert np.allclose(pomdp.transition.sum(axis=2), 1.0, atol=1e-9)
    assert np.allclose(pomdp.observation.sum(axis=2), 1.0, atol=1e-9)


def test_transition_interior_split():
    scenario = default_scenario()
    pomdp = build_pomdp(scenario)
    s = scenario.rc_cell(3, 4)  # interior, not the goal
    row = pomdp.transition[s, UP]
    assert row[scenario.rc_cell(2, 4)] == pytest.approx(0.7)
    assert row[scenario.rc_cell(3, 3)] == pytest.approx(0.1)
    assert row[scenario.rc_cell(3, 5)] == pytest.approx(0.1)
    assert row[s] == pytest.approx(0.1)


def test_transition_edge_mass_folds_into_staying():
    scenario = default_scenario()
    pomdp = build_pomdp(scenario)
    corner = scenario.rc_cell(0, 0)
    row = pomdp.transition[corner, UP]  # up and left both point off-grid
    assert row[corner] == pytest.approx(0.9)
    assert row[scenario.rc_cell(0, 1)] == pytest.approx(0.1)


def test_transition_stop_and_goal_are_absorbing():
    scenario = default_scenario()
    pomdp = build_pomdp(scenario)
    s = scenario.rc_cell(5, 5)
    assert pomdp.transition[s, STOP, s] == 1.0
    goal = scenario.goal_cell
    for a in range(5):
        assert pomdp.transition[goal, a, goal] == 1.0
        assert pomdp.reward[goal, a] == 0.0


def test_reward_is_collected_on_arrival():
    scenario = default_scenario()
    pomdp = build_pomdp(scenario)
    # (0,2) moving DOWN into the obstacle at (1,2): 0.7 chance of -5, the rest
    # lands on ordinary -1 cells.
    s = scenario.rc_cell(0, 2)
    assert scenario.rc_cell(1, 2) in scenario.obstacle_cells
    assert pomdp.reward[s, DOWN] == pytest.approx(0.7 * -5.0 + 0.3 * -1.0)
    # (0,6) moving RIGHT into the goal: 0.7 chance of +10, rest -1.
    s = scenario.rc_cell(0, 6)
    assert pomdp.reward[s, RIGHT] == pytest.approx(0.7 * 10.0 + 0.3 * -1.0)


def test_transition_matches_the_plain_loop_bit_for_bit():
    scenarios = [default_scenario(), tiny_scenario()]
    rng = np.random.default_rng(0)
    while len(scenarios) < 100:
        width, height = (int(x) for x in rng.integers(1, 8, size=2))
        if width * height < 2:
            continue
        goal = int(rng.integers(width * height))
        success = float(rng.uniform(0.001, 1.0))
        scenarios.append(
            Scenario(width=width, height=height, start_cell=0, goal_cell=goal, move_success_prob=success)
        )
    for scenario in scenarios:
        expected = oracle_grid_transition(
            scenario.width, scenario.height, scenario.goal_cell, scenario.move_success_prob
        )
        assert np.array_equal(build_pomdp(scenario).transition, expected)


def test_one_wide_and_one_tall_grids_build_for_every_success_probability():
    # Where the success share and all three side shares fold into staying,
    # p + 3 * ((1 - p) / 3) can round to 1 + 2**-52.
    for width, height in ((1, 2), (2, 1)):
        for success in np.linspace(0.001, 1.0, 1000):
            scenario = Scenario(
                width=width, height=height, start_cell=0, goal_cell=1, move_success_prob=float(success)
            )
            assert build_pomdp(scenario).transition.max() <= 1.0
    column = Scenario(width=1, height=8, start_cell=7, goal_cell=0, move_success_prob=0.065)
    assert build_pomdp(column).transition[7, DOWN, 7] == 1.0


def test_intrinsic_sensor_spreads_errors_uniformly():
    scenario = default_scenario()
    pomdp = build_pomdp(scenario)
    n = scenario.num_cells
    for a in range(5):
        obs = pomdp.observation[:, a, :]
        assert np.allclose(np.diag(obs), 0.5)
        off = obs[~np.eye(n, dtype=bool)]
        assert np.allclose(off, 0.5 / (n - 1))


# ---------------------------------------------------------------------------
# UAV sources
# ---------------------------------------------------------------------------


def test_uav_sources_are_valid_over_a_full_patrol_period():
    scenario = default_scenario()
    period = max(len(u.waypoints) for u in scenario.uavs)
    for t in range(period):
        sources = uav_sources_at(scenario, t)
        assert len(sources) == 12
        for src in sources:
            assert src.likelihood.shape[0] == 64
            assert src.likelihood.shape[1] == 5
            assert np.allclose(src.likelihood.sum(axis=2), 1.0, atol=1e-9)


@pytest.mark.parametrize("make", [default_scenario, tiny_scenario, lcm12_scenario])
def test_uav_sources_match_a_plain_rebuild_over_two_periods(make):
    scenario = make()
    period = math.lcm(*(len(uav.waypoints) for uav in scenario.uavs))
    for t in range(2 * period):
        sources = uav_sources_at(scenario, t)
        assert len(sources) == len(scenario.uavs)
        for src, uav in zip(sources, scenario.uavs):
            center = uav.waypoints[t % len(uav.waypoints)]
            expected = oracle_uav_likelihood(
                scenario.width, scenario.height, center, uav.fov_radius, uav.detection_accuracy
            )
            assert np.array_equal(src.likelihood, expected)
            assert src.cost == uav.cost
            assert not src.likelihood.flags.writeable


def test_uav_sources_are_built_once_per_waypoint_and_shared(monkeypatch):
    built = []
    original = gridworld._uav_source

    def counting(scenario, uav, center):
        built.append(center)
        return original(scenario, uav, center)

    monkeypatch.setattr(gridworld, "_uav_source", counting)
    scenario = lcm12_scenario()
    first = uav_sources_at(scenario, 0)
    for t in range(24):
        uav_sources_at(scenario, t)
    assert sorted(built) == [0, 1, 5, 10, 11, 14, 15]
    # One immutable set per patrol phase, returned at every step of it.
    assert isinstance(first, SourceSet) and len(first) == 2
    assert uav_sources_at(scenario, 12) is first
    assert uav_sources_at(scenario, 13) is uav_sources_at(scenario, 1) is not first
    with pytest.raises(TypeError):
        first[0] = first[1]
    with pytest.raises(ValueError, match="read-only"):
        first[0].likelihood[0, 0, 0] = 0.5
    stock = default_scenario()
    uav_sources_at(stock, 0)
    assert len(built) == 7 + 48


def test_uav_reports_not_seen_outside_fov():
    scenario = default_scenario()
    sources = uav_sources_at(scenario, 0)
    uav = scenario.uavs[0]
    center = uav.waypoints[0]
    crow, ccol = scenario.cell_rc(center)
    src = sources[0]
    for cell in range(scenario.num_cells):
        row, col = scenario.cell_rc(cell)
        inside = abs(row - crow) <= 1 and abs(col - ccol) <= 1
        if not inside:
            assert src.likelihood[cell, 0, -1] == 1.0
        else:
            assert src.likelihood[cell, 0, -1] < 1.0


def test_uav_uninformative_for_belief_outside_fov():
    scenario = default_scenario()
    sources = uav_sources_at(scenario, 0)
    uav0_center = scenario.uavs[0].waypoints[0]
    crow, ccol = scenario.cell_rc(uav0_center)
    outside = [
        c
        for c in range(scenario.num_cells)
        if abs(scenario.cell_rc(c)[0] - crow) > 1 or abs(scenario.cell_rc(c)[1] - ccol) > 1
    ]
    probs = np.zeros(scenario.num_cells)
    probs[outside[:4]] = 0.25
    problem = SelectionProblem(
        belief=Belief(probs), action=0, sources=tuple(sources), budget=2.0
    )
    assert mutual_information(problem, PerceptionAction((0,))) == 0.0


def test_perfect_uav_with_belief_inside_fov_reveals_the_state():
    scenario = tiny_scenario()  # single UAV at the center, accuracy 1, sees all
    sources = uav_sources_at(scenario, 0)
    assert sources[0].num_symbols == scenario.num_cells + 1
    b = Belief(np.full(scenario.num_cells, 1.0 / scenario.num_cells))
    problem = SelectionProblem(belief=b, action=0, sources=tuple(sources), budget=1.0)
    assert conditional_entropy(problem, PerceptionAction((0,))) == pytest.approx(0.0, abs=1e-12)
    assert mutual_information(problem, PerceptionAction((0,))) == pytest.approx(
        entropy(b), abs=1e-10
    )


def test_uav_conditional_entropy_matches_oracle():
    from helpers import oracle_conditional_entropy

    scenario = default_scenario()
    sources = uav_sources_at(scenario, 2)
    rng = np.random.default_rng(0)
    b = Belief(rng.dirichlet(np.ones(scenario.num_cells)))
    problem = SelectionProblem(belief=b, action=1, sources=tuple(sources), budget=2.0)
    for subset in (PerceptionAction((3,)), PerceptionAction((3, 7))):
        slices = [sources[i].likelihood[:, 1, :] for i in subset]
        expected = oracle_conditional_entropy(b.probs, slices)
        assert conditional_entropy(problem, subset) == pytest.approx(expected, abs=1e-10)


# ---------------------------------------------------------------------------
# Episodes
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_solution():
    scenario = tiny_scenario()
    pomdp = build_pomdp(scenario)
    points = sample_beliefs_uniform(pomdp.num_states, 300, seed=0)
    result = solve(pomdp, points, tol=1e-5)
    assert result.converged
    return scenario, pomdp, result.value_function


def test_episode_starting_at_goal_is_empty(tiny_solution):
    scenario, pomdp, vf = tiny_solution
    at_goal = tiny_scenario(start_cell=scenario.goal_cell)
    record = run_episode(pomdp, vf, at_goal, "none", 0, seed=0)
    assert record.steps == ()
    assert record.discounted_reward == 0.0
    assert record.reached_goal


def test_episode_is_deterministic_per_seed(tiny_solution):
    scenario, pomdp, vf = tiny_solution
    a = run_episode(pomdp, vf, scenario, "greedy", 1, seed=123)
    b = run_episode(pomdp, vf, scenario, "greedy", 1, seed=123)
    assert a == b
    c = run_episode(pomdp, vf, scenario, "greedy", 1, seed=124)
    assert a != c or a.steps == c.steps  # different seed may still coincide on tiny grids


def test_episode_reward_accounting(tiny_solution):
    scenario, pomdp, vf = tiny_solution
    for policy, k in (("none", 0), ("random", 1), ("greedy", 1)):
        record = run_episode(pomdp, vf, scenario, policy, k, seed=7)
        recomputed = sum(
            scenario.discount**t * step.reward for t, step in enumerate(record.steps)
        )
        assert record.discounted_reward == pytest.approx(recomputed, abs=1e-9)
        assert len(record.steps) <= scenario.horizon


def test_states_do_not_depend_on_perception_policy(tiny_solution):
    scenario, pomdp, vf = tiny_solution
    actions = [RIGHT, RIGHT, UP, UP, LEFT, DOWN, RIGHT, UP, RIGHT, UP] + [STOP] * 5
    trajectories = {}
    for policy, k in (("none", 0), ("random", 1), ("greedy", 1)):
        record = run_episode(
            pomdp, vf, scenario, policy, k, seed=99, action_override=actions
        )
        trajectories[policy] = [s.state for s in record.steps]
    assert trajectories["none"] == trajectories["random"] == trajectories["greedy"]


def test_episode_rejects_bad_arguments(tiny_solution):
    scenario, pomdp, vf = tiny_solution
    with pytest.raises(ValueError, match="policy"):
        run_episode(pomdp, vf, scenario, "psychic", 1, seed=0)
    with pytest.raises(ValueError, match="budget"):
        run_episode(pomdp, vf, scenario, "greedy", scenario.budget + 1, seed=0)


def test_episode_rejects_a_value_function_the_model_cannot_use():
    scenario = tiny_scenario()
    pomdp = build_pomdp(scenario)
    with pytest.raises(ValueError, match="beyond the scenario's 5 actions"):
        run_episode(pomdp, ValueFunction.from_arrays(np.zeros((1, 9)), [7]), scenario, "none", 0, seed=0)
    with pytest.raises(ValueError, match="10 states; the scenario has 9"):
        run_episode(pomdp, ValueFunction.from_arrays(np.zeros((1, 10)), [0]), scenario, "none", 0, seed=0)
    # Tag 4 (stop) is the last the model has, so it runs.
    stop = ValueFunction.from_arrays(np.zeros((2, 9)), [4, 0])
    assert run_episode(pomdp, stop, scenario, "none", 0, seed=0).steps[0].action == STOP


def test_random_policy_respects_the_cost_budget():
    # k is a cost budget: one UAV of cost 1.5 fits in k=2, two do not.
    stock = default_scenario()
    pricey = dataclasses.replace(
        stock, uavs=tuple(dataclasses.replace(uav, cost=1.5) for uav in stock.uavs)
    )
    pomdp = build_pomdp(stock)
    vf = initialize_value(pomdp)
    for seed in range(3):
        record = run_episode(pomdp, vf, pricey, "random", 2, seed=seed)
        assert record.steps and all(len(step.selected) == 1 for step in record.steps)
        unit = run_episode(pomdp, vf, stock, "random", 2, seed=seed)
        assert all(len(step.selected) == 2 for step in unit.steps)
        # The same draw: the kept source is the first of the unit-cost pair.
        for cheap, dear in zip(unit.steps, record.steps):
            assert dear.selected == cheap.selected[:1]


def test_random_policy_spends_the_budget_on_cheap_sources():
    # k=2 pays for four UAVs of cost 0.5, and the draw takes as many.
    stock = default_scenario()
    cheap = dataclasses.replace(
        stock, uavs=tuple(dataclasses.replace(uav, cost=0.5) for uav in stock.uavs)
    )
    pomdp = build_pomdp(cheap)
    vf = initialize_value(pomdp)
    steps = [
        step for seed in range(3) for step in run_episode(pomdp, vf, cheap, "random", 2, seed=seed).steps
    ]
    assert any(len(step.selected) > 2 for step in steps)
    assert all(0.5 * len(step.selected) <= 2 for step in steps)


def test_episode_records_zero_likelihood_as_failure(tiny_solution, monkeypatch):
    scenario, pomdp, vf = tiny_solution

    def boom(*args, **kwargs):
        raise ZeroLikelihoodObservation("forced")

    monkeypatch.setattr(gridworld, "belief_update_intrinsic", boom)
    for policy, k in (("none", 0), ("random", 1)):
        record = run_episode(pomdp, vf, scenario, policy, k, seed=3)
        assert record.failed
        assert len(record.steps) == 1
        # An impossible intrinsic observation is recorded before any selection.
        assert not record.steps[0].selected


def test_episode_records_an_impossible_auxiliary_report_as_failure(monkeypatch):
    scenario = default_scenario()
    pomdp = build_pomdp(scenario)
    vf = initialize_value(pomdp)
    drawn = run_episode(pomdp, vf, scenario, "random", 2, seed=3).steps[0].selected
    passed = []

    def boom(belief, action, selected, sources, symbols):
        passed.append(selected)
        raise ZeroLikelihoodObservation("forced")

    monkeypatch.setattr(gridworld, "belief_update_auxiliary", boom)
    record = run_episode(pomdp, vf, scenario, "random", 2, seed=3)
    assert record.failed
    assert len(record.steps) == 1
    assert len(drawn) == 2
    assert record.steps[0].selected == drawn == passed[0]


def test_perfect_coverage_reduces_to_the_mdp_policy():
    # A single always-overhead UAV with perfect detection pins the belief to
    # the true cell after every step, so from step 1 on the chosen actions
    # must be (near-)optimal for the underlying MDP.
    scenario = tiny_scenario(intrinsic_sensor_accuracy=0.85)
    pomdp = build_pomdp(scenario)
    points = sample_beliefs_uniform(pomdp.num_states, 400, seed=1)
    result = solve(pomdp, points, tol=1e-6)
    assert result.converged
    vf = result.value_function
    exact = mdp_value_iteration(pomdp.transition, pomdp.reward, pomdp.discount)
    q = pomdp.reward + pomdp.discount * np.einsum("san,n->sa", pomdp.transition, exact)
    reached = 0
    for seed in range(10):
        record = run_episode(pomdp, vf, scenario, "greedy", 1, seed=seed)
        reached += record.reached_goal
        for step in record.steps[1:]:
            assert q[step.state, step.action] >= q[step.state].max() - 0.05
    assert reached >= 8


# monte_carlo(n_runs=5, base_seed=0, k=2) on the stock map under the QMDP
# value function: the sha256 of the JSON list of each episode's
# [state, action, selected] steps, and the discounted rewards.
PINNED_STOCK_EPISODES = {
    "none": (
        "2823c79cff56315a9dc1162962fd60debfbeed1263a89d623101b34179d01940",
        (-14.703831536927684, -14.090314580521328, -8.79056448206291, -11.781389260434668, -17.612988465948224),
    ),
    "random": (
        "dbb241f9117b1fc347142b11659e607adf46e50e637d76138aa69ef8d07e2e85",
        (-16.693193686663907, -10.678806000030812, -8.79056448206291, -8.857428978015339, -10.452083759079272),
    ),
    "greedy": (
        "021fdc942ea7c5070903d8790ee1a3d3d3ed82c33c4c84e387975209d6d7721b",
        (-11.635746224637534, -10.588938540061099, -8.183446691645166, -11.781389260434668, -8.706404840481856),
    ),
}


@pytest.fixture(scope="module")
def stock_qmdp():
    scenario = default_scenario()
    pomdp = build_pomdp(scenario)
    values = mdp_value_iteration(pomdp.transition, pomdp.reward, pomdp.discount)
    q = pomdp.reward + pomdp.discount * np.einsum("san,n->sa", pomdp.transition, values)
    return scenario, pomdp, ValueFunction.from_arrays(q.T, range(q.shape[1]))


@pytest.mark.parametrize("policy", sorted(PINNED_STOCK_EPISODES))
def test_stock_map_episodes_are_pinned(stock_qmdp, policy):
    scenario, pomdp, vf = stock_qmdp
    result = monte_carlo(pomdp, vf, scenario, policy, 2, n_runs=5, base_seed=0)
    steps = [[[s.state, s.action, list(s.selected)] for s in e.steps] for e in result.episodes]
    digest = hashlib.sha256(json.dumps(steps).encode()).hexdigest()
    rewards = tuple(e.discounted_reward for e in result.episodes)
    assert (digest, rewards) == PINNED_STOCK_EPISODES[policy]


def test_pinned_greedy_episodes_pick_what_greedy_and_the_oracle_pick(stock_qmdp, monkeypatch):
    # Every selection problem the pinned greedy episodes build, with the pick
    # the episode took at that step.
    scenario, pomdp, vf = stock_qmdp
    calls = []
    picks = gridworld._greedy_picks

    def recording(problem):
        picked, cost = picks(problem)
        calls.append((problem, picked))
        return picked, cost

    monkeypatch.setattr(gridworld, "_greedy_picks", recording)
    result = monte_carlo(pomdp, vf, scenario, "greedy", 2, n_runs=5, base_seed=0)
    assert [picked for _, picked in calls] == [s.selected for e in result.episodes for s in e.steps]
    assert len(calls) == 96
    for problem, picked in calls:
        assert generalized_greedy(problem).selected == picked
        expected = oracle_greedy(
            problem.belief.probs,
            [src.likelihood[:, problem.action, :] for src in problem.sources],
            [src.cost for src in problem.sources],
            problem.budget,
            problem.beta,
        )
        assert expected == picked


class _Uniforms:
    """Stands in for a Generator: random() returns the given values in turn."""

    def __init__(self, values):
        self.random = iter(values).__next__


def test_cached_cumulative_draws_equal_cumsum_draws(stock_qmdp):
    # Every (s, a) row of the stock model's transitions and intrinsic sensor,
    # at 1,000 uniforms including both ends of [0, 1).
    _, pomdp, _ = stock_qmdp
    uniforms = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], np.random.default_rng(8).random(998)])
    for table, cached in zip((pomdp.transition, pomdp.observation), pomdp.cumulative):
        for s, a in np.ndindex(table.shape[:2]):
            row = table[s, a]
            expected = np.minimum(np.searchsorted(np.cumsum(row), uniforms, side="right"), row.size - 1)
            drawn = np.minimum(np.searchsorted(cached[s, a], uniforms, side="right"), row.size - 1)
            assert np.array_equal(drawn, expected)
            rng = _Uniforms(uniforms[:10])
            draws = [gridworld._sample_index(rng, cached[s, a]) for _ in range(10)]
            assert draws == expected[:10].tolist()


def test_cached_source_cumulative_draws_equal_cumsum_draws(stock_qmdp):
    # Every (s, a) row of each of the stock map's 48 UAV sources, at 1,000
    # uniforms including both ends of [0, 1).
    scenario = stock_qmdp[0]
    sources = [src for per_uav in scenario.patrol_sources for src in per_uav]
    assert len(sources) == 48
    uniforms = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], np.random.default_rng(9).random(998)])
    for src in sources:
        assert not src.cumulative.flags.writeable
        for s, a in np.ndindex(src.likelihood.shape[:2]):
            row, cached = src.likelihood[s, a], src.cumulative[s, a]
            expected = np.minimum(np.searchsorted(np.cumsum(row), uniforms, side="right"), row.size - 1)
            drawn = np.minimum(np.searchsorted(cached, uniforms, side="right"), row.size - 1)
            assert np.array_equal(drawn, expected)
            rng = _Uniforms(uniforms[:3])
            draws = [gridworld._sample_index(rng, cached) for _ in range(3)]
            assert draws == expected[:3].tolist()


def test_blind_and_zero_budget_episodes_build_no_source(stock_qmdp, monkeypatch):
    _, pomdp, vf = stock_qmdp

    def boom(*args, **kwargs):
        raise RuntimeError("a UAV source was built")

    monkeypatch.setattr(gridworld, "_uav_source", boom)
    scenario = default_scenario()
    assert run_episode(pomdp, vf, scenario, "none", 2, seed=0).steps
    assert run_episode(pomdp, vf, scenario, "random", 0, seed=0).steps
    assert run_episode(pomdp, vf, scenario, "greedy", 0, seed=0).steps
    with pytest.raises(RuntimeError, match="source was built"):
        run_episode(pomdp, vf, scenario, "random", 2, seed=0)


# ---------------------------------------------------------------------------
# Monte Carlo aggregation
# ---------------------------------------------------------------------------


def test_monte_carlo_single_run_equals_episode(tiny_solution):
    scenario, pomdp, vf = tiny_solution
    result = monte_carlo(pomdp, vf, scenario, "greedy", 1, n_runs=1, base_seed=5)
    episode = run_episode(pomdp, vf, scenario, "greedy", 1, np.random.SeedSequence((5, 0)))
    assert result.episodes == (episode,)
    assert result.mean_discounted_reward == pytest.approx(episode.discounted_reward)
    assert result.std_discounted_reward == 0.0


def test_monte_carlo_visit_counts_sum_to_total_steps(tiny_solution):
    scenario, pomdp, vf = tiny_solution
    result = monte_carlo(pomdp, vf, scenario, "random", 1, n_runs=20, base_seed=1)
    total_steps = sum(len(e.steps) for e in result.episodes)
    assert result.visit_counts.sum() == total_steps
    assert result.visit_counts.shape == (scenario.height, scenario.width)
    assert (result.visit_counts >= 0).all()


def test_monte_carlo_is_deterministic(tiny_solution):
    scenario, pomdp, vf = tiny_solution
    r1 = monte_carlo(pomdp, vf, scenario, "greedy", 1, n_runs=5, base_seed=2)
    r2 = monte_carlo(pomdp, vf, scenario, "greedy", 1, n_runs=5, base_seed=2)
    assert r1.episodes == r2.episodes
    assert np.array_equal(r1.visit_counts, r2.visit_counts)
