"""Planner: belief sampling, backups, pruning, convergence, serialization."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pomdp_perception.pbvi as pbvi
from pomdp_perception import (
    AlphaVector,
    Belief,
    BeliefPointSet,
    Pomdp,
    Scenario,
    UavSpec,
    ValueFunction,
    backup,
    best_action,
    build_pomdp,
    initialize_value,
    point_values,
    prune,
    read_value_function,
    sample_beliefs_uniform,
    solve,
    value,
    write_value_function,
)
from helpers import (
    mdp_value_iteration,
    oracle_backup,
    oracle_one_step_value,
    oracle_sample_beliefs,
    random_belief,
    random_pomdp,
)


def alpha_norm_bound(pomdp: Pomdp) -> float:
    r = pomdp.reward
    return max(abs(float(r.max())), abs(float(r.min()))) / (1.0 - pomdp.discount)


# ---------------------------------------------------------------------------
# Belief sampling
# ---------------------------------------------------------------------------


def test_sampling_appends_corners_and_uniform():
    points = sample_beliefs_uniform(2, 3, seed=42)
    mat = points.matrix
    assert len(points) == 6  # 3 sampled + uniform + 2 corners
    assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-9)
    rows = {tuple(np.round(r, 12)) for r in mat}
    assert (1.0, 0.0) in rows and (0.0, 1.0) in rows and (0.5, 0.5) in rows


def test_sampling_is_deterministic():
    a = sample_beliefs_uniform(5, 40, seed=7)
    b = sample_beliefs_uniform(5, 40, seed=7)
    assert np.array_equal(a.matrix, b.matrix)
    c = sample_beliefs_uniform(5, 40, seed=8)
    assert not np.array_equal(a.matrix, c.matrix)


def test_sampling_flat_dirichlet_moments():
    num_states, count = 4, 10000
    points = sample_beliefs_uniform(num_states, count, seed=123)
    mat = points.matrix
    mean = mat.mean(axis=0)
    # Per-coordinate variance of a flat Dirichlet is p(1-p)/(S+1).
    p = 1.0 / num_states
    sigma_mean = np.sqrt(p * (1 - p) / (num_states + 1) / len(points))
    assert np.all(np.abs(mean - p) < 3 * sigma_mean)


def test_sampling_count_must_be_positive():
    with pytest.raises(ValueError):
        sample_beliefs_uniform(3, 0, seed=0)


@pytest.mark.parametrize("num_states", [1, 2, 5, 64])
def test_sampling_matches_the_first_copy_loop(num_states):
    for count in (1, 3, 40, 500):
        for seed in (0, 1, 9):
            points = sample_beliefs_uniform(num_states, count, seed=seed)
            expected = oracle_sample_beliefs(num_states, count, seed)
            assert points.matrix.dtype == expected.dtype
            assert np.array_equal(points.matrix, expected)
    if num_states == 1:
        # Every draw, the uniform belief and the corner are the same row.
        assert len(sample_beliefs_uniform(1, 3, seed=0)) == 1


def test_belief_point_set_validates_and_keeps_a_read_only_copy():
    rows = np.array([[0.25, 0.75], [1.0, 0.0]])
    points = BeliefPointSet(rows)
    rows[0] = [0.5, 0.5]
    assert np.array_equal(points.matrix, [[0.25, 0.75], [1.0, 0.0]])
    assert not points.matrix.flags.writeable
    assert len(points) == 2 and points.num_states == 2
    for bad, message in (
        ([0.5, 0.5], "matrix"),
        (np.empty((0, 2)), "empty"),
        ([[1.0, 0.0], [1.2, -0.2]], r"\[0, 1\]"),
        ([[0.6, 0.5]], "sum to 1"),
        ([[np.nan, 1.0]], r"\[0, 1\]"),
    ):
        with pytest.raises(ValueError, match=message):
            BeliefPointSet(bad)


# ---------------------------------------------------------------------------
# Initialization and evaluation
# ---------------------------------------------------------------------------


def test_initialize_value_formula():
    rng = np.random.default_rng(0)
    p = random_pomdp(rng, 3, 2, 3, discount=0.95)
    reward = np.array(p.reward)
    reward[1, 0] = -5.0
    reward[reward < -5.0] = -4.0
    p = Pomdp(p.transition, p.observation, reward, 0.95)
    vf = initialize_value(p)
    assert len(vf) == 1
    assert np.allclose(vf.matrix[0], -100.0)
    assert vf.actions[0] == 0


def test_initialize_value_zero_min_reward():
    p = Pomdp(
        transition=np.repeat(np.eye(2)[:, None, :], 2, axis=1),
        observation=np.repeat(np.eye(2)[:, None, :], 2, axis=1),
        reward=np.array([[0.0, 1.0], [2.0, 3.0]]),
        discount=0.5,
    )
    vf = initialize_value(p)
    assert np.allclose(vf.matrix[0], 0.0)
    for b in (Belief.uniform(2), Belief.point_mass(2, 1)):
        assert value(vf, b) == 0.0


def test_value_and_best_action_trivia():
    constant = ValueFunction((AlphaVector(np.array([3.0, 3.0]), 2),))
    assert value(constant, Belief.uniform(2)) == pytest.approx(3.0)
    assert best_action(constant, Belief.uniform(2)) == 2

    two = ValueFunction(
        (AlphaVector(np.array([1.0, 0.0]), 0), AlphaVector(np.array([0.0, 1.0]), 1))
    )
    assert value(two, Belief.uniform(2)) == pytest.approx(0.5)


def test_best_action_tie_keeps_lowest_vector_index():
    tied = ValueFunction(
        (AlphaVector(np.array([1.0, 1.0]), 1), AlphaVector(np.array([1.0, 1.0]), 3))
    )
    assert best_action(tied, Belief.uniform(2)) == 1


def test_value_matches_naive_loop():
    rng = np.random.default_rng(1)
    alphas = tuple(
        AlphaVector(rng.normal(size=4), int(rng.integers(3))) for _ in range(9)
    )
    vf = ValueFunction(alphas)
    for _ in range(20):
        b = random_belief(rng, 4)
        naive = max(float(a.coeffs @ b.probs) for a in alphas)
        assert value(vf, b) == pytest.approx(naive, abs=1e-12)
        dots = [float(a.coeffs @ b.probs) for a in alphas]
        assert best_action(vf, b) == alphas[int(np.argmax(dots))].action


def test_value_function_records_and_arrays_agree():
    rng = np.random.default_rng(24)
    matrix = rng.normal(size=(5, 3))
    actions = rng.integers(4, size=5)
    from_records = ValueFunction(AlphaVector(row, int(a)) for row, a in zip(matrix, actions))
    from_arrays = ValueFunction.from_arrays(matrix, actions)
    for vf in (from_records, from_arrays):
        assert np.array_equal(vf.matrix, matrix)
        assert np.array_equal(vf.actions, actions)
        assert (len(vf), vf.num_states) == (5, 3)
        assert not vf.matrix.flags.writeable and not vf.actions.flags.writeable
    matrix[0, 0] = 99.0
    assert from_arrays.matrix[0, 0] != 99.0


def test_value_function_validator_rejects_bad_sets():
    with pytest.raises(ValueError, match="at least one"):
        ValueFunction(())
    with pytest.raises(ValueError, match="at least one"):
        ValueFunction.from_arrays(np.empty((0, 3)), [])
    with pytest.raises(ValueError, match="state dimension"):
        ValueFunction((AlphaVector(np.ones(2), 0), AlphaVector(np.ones(3), 0)))
    with pytest.raises(ValueError, match="1 action tags for 2"):
        ValueFunction.from_arrays(np.ones((2, 3)), [0])
    with pytest.raises(ValueError, match="nonnegative"):
        ValueFunction((AlphaVector(np.ones(2), 0), AlphaVector(np.ones(2), -1)))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            ValueFunction.from_arrays([[0.0, 1.0], [bad, 0.0]], [0, 1])


# ---------------------------------------------------------------------------
# Backup
# ---------------------------------------------------------------------------


def test_backup_discount_zero_returns_best_reward_rows():
    rng = np.random.default_rng(2)
    p = random_pomdp(rng, 3, 4, 2, discount=0.0)
    points = sample_beliefs_uniform(3, 10, seed=3)
    vf = backup(p, initialize_value(p), points)
    for coeffs, action in zip(vf.matrix, vf.actions):
        assert np.allclose(coeffs, p.reward[:, action], atol=1e-12)
    for b in map(Belief, points.matrix):
        rewards = [float(b.probs @ p.reward[:, a]) for a in range(4)]
        assert value(vf, b) == pytest.approx(max(rewards), abs=1e-12)


def test_backup_matches_one_step_expansion_oracle():
    rng = np.random.default_rng(4)
    p = random_pomdp(rng, 2, 2, 2, discount=0.8)
    points = sample_beliefs_uniform(2, 12, seed=5)
    init = initialize_value(p)
    low = float(init.matrix[0][0])
    vf = backup(p, init, points)
    for b in map(Belief, points.matrix):
        expected = oracle_one_step_value(p, b, lambda _: low)
        assert value(vf, b) == pytest.approx(expected, abs=1e-10)


def test_backup_values_improve_monotonically_from_lower_bound():
    rng = np.random.default_rng(6)
    for seed in range(5):
        p = random_pomdp(rng, 4, 3, 3, discount=0.9)
        points = sample_beliefs_uniform(4, 25, seed=seed)
        vf = initialize_value(p)
        previous = point_values(vf, points)
        for _ in range(30):
            vf = prune(backup(p, vf, points), points)
            current = point_values(vf, points)
            assert np.all(current >= previous - 1e-9)
            previous = current


def test_backup_alpha_vectors_respect_sup_norm_bound():
    rng = np.random.default_rng(7)
    for _ in range(5):
        p = random_pomdp(rng, 4, 2, 3, discount=0.9)
        bound = alpha_norm_bound(p) + 1e-6
        points = sample_beliefs_uniform(4, 20, seed=8)
        vf = initialize_value(p)
        for _ in range(40):
            vf = prune(backup(p, vf, points), points)
            assert np.abs(vf.matrix).max() <= bound


def test_backup_action_tags_are_the_per_point_argmax():
    rng = np.random.default_rng(9)
    p = random_pomdp(rng, 3, 3, 2, discount=0.7)
    points = sample_beliefs_uniform(3, 15, seed=10)
    vf = backup(p, initialize_value(p), points)
    assert all(0 <= a < 3 for a in vf.actions)
    assert len(vf) <= len(points)


def assert_backup_matches_oracle(p: Pomdp, previous: ValueFunction, points: BeliefPointSet):
    vf = backup(p, previous, points)
    expected = oracle_backup(p, previous.matrix, points.matrix)
    assert 1 < len(expected) < len(points)
    assert len(vf) == len(expected)
    for (action, coeffs), row, tag in zip(expected, vf.matrix, vf.actions):
        assert tag == action
        assert np.allclose(row, coeffs, rtol=0, atol=1e-9)


def random_previous(rng, num_vectors: int, num_states: int, num_actions: int) -> ValueFunction:
    return ValueFunction.from_arrays(
        rng.normal(scale=5.0, size=(num_vectors, num_states)),
        rng.integers(num_actions, size=num_vectors),
    )


def test_backup_emits_each_winning_vector_once_in_first_point_order():
    rng = np.random.default_rng(26)
    p = random_pomdp(rng, 4, 3, 3, discount=0.8)
    points = sample_beliefs_uniform(4, 60, seed=26)
    previous = ValueFunction(
        AlphaVector(rng.normal(scale=5.0, size=4), int(rng.integers(3))) for _ in range(6)
    )
    assert_backup_matches_oracle(p, previous, points)


def tiny_grid(**overrides) -> Scenario:
    fields = dict(
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
    fields.update(overrides)
    return Scenario(**fields)


def test_backup_matches_the_plain_loop_on_a_diagonal_plus_uniform_sensor():
    p = build_pomdp(tiny_grid())
    floor, rows, departures = p.sensor_split
    assert rows.shape == (1, 5, 9) and np.all(floor > 0.0) and np.all(departures > 0.0)
    rng = np.random.default_rng(27)
    points = BeliefPointSet([random_belief(rng, 9).probs for _ in range(60)])
    assert_backup_matches_oracle(p, random_previous(rng, 8, 9, 5), points)


def test_backup_matches_the_plain_loop_on_a_sensor_with_repeated_values_and_zeros():
    sensor = np.array(
        [
            [0.5, 0.5, 0.0, 0.0],
            [0.25, 0.25, 0.25, 0.25],
            [0.0, 0.0, 1.0, 0.0],
            [0.4, 0.2, 0.2, 0.2],
            [0.1, 0.3, 0.3, 0.3],
        ]
    )
    observation = np.stack([sensor, sensor[::-1], sensor[:, ::-1]], axis=1)
    rng = np.random.default_rng(28)
    base = random_pomdp(rng, 5, 3, 4, discount=0.85)
    p = Pomdp(base.transition, observation, base.reward, base.discount)
    floor, rows, departures = p.sensor_split
    # One or two rows depart from the floor per (action, observation), so the
    # one-row lists are padded with a zero departure.
    nonzero = (departures != 0.0).sum(axis=0)
    assert nonzero.min() == 1 and nonzero.max() == rows.shape[0] == 2
    assert np.allclose(floor[:, :, None] + _dense(rows, departures, 5), observation, atol=1e-15)
    points = sample_beliefs_uniform(5, 60, seed=28)
    assert_backup_matches_oracle(p, random_previous(rng, 7, 5, 3), points)


def _dense(rows, departures, num_states):
    out = np.zeros((num_states,) + rows.shape[1:])
    for j in range(rows.shape[0]):
        for a in range(rows.shape[1]):
            for w in range(rows.shape[2]):
                out[rows[j, a, w], a, w] += departures[j, a, w]
    return out


def test_backup_settles_exact_ties_between_duplicate_vectors_like_the_plain_loop():
    rng = np.random.default_rng(29)
    p = random_pomdp(rng, 4, 3, 3, discount=0.8)
    points = sample_beliefs_uniform(4, 60, seed=29)
    distinct = random_previous(rng, 5, 4, 3)
    order = [0, 1, 1, 2, 3, 1, 4, 4]
    doubled = ValueFunction.from_arrays(distinct.matrix[order], distinct.actions[order])
    assert_backup_matches_oracle(p, doubled, points)
    once, twice = backup(p, distinct, points), backup(p, doubled, points)
    assert np.array_equal(once.actions, twice.actions)
    assert np.allclose(once.matrix, twice.matrix, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Prune
# ---------------------------------------------------------------------------


def test_prune_drops_duplicates_and_dominated():
    points = BeliefPointSet([[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]])
    duplicated = ValueFunction(
        (AlphaVector(np.array([1.0, 1.0]), 0), AlphaVector(np.array([1.0, 1.0]), 0))
    )
    assert len(prune(duplicated, points)) == 1

    dominated = ValueFunction(
        (AlphaVector(np.array([1.0, 2.0]), 0), AlphaVector(np.array([0.0, 0.5]), 1))
    )
    kept = prune(dominated, points)
    assert len(kept) == 1
    assert np.allclose(kept.matrix[0], [1.0, 2.0])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_vectors=st.integers(1, 14),
    num_states=st.integers(1, 6),
    copies=st.integers(0, 3),
)
def test_prune_preserves_values_at_all_points(seed, num_vectors, num_states, copies):
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(num_vectors, num_states))
    # Exact copies of some rows make ties that prune must settle without
    # moving any point's value.
    matrix = np.concatenate((matrix, matrix[rng.integers(num_vectors, size=copies)]))
    vf = ValueFunction.from_arrays(matrix, rng.integers(3, size=len(matrix)))
    points = sample_beliefs_uniform(num_states, int(rng.integers(1, 20)), seed=seed)
    pruned = prune(vf, points)
    assert np.array_equal(point_values(pruned, points), point_values(vf, points))


# ---------------------------------------------------------------------------
# Solve
# ---------------------------------------------------------------------------


def test_solve_discount_zero_converges_fast():
    rng = np.random.default_rng(12)
    p = random_pomdp(rng, 3, 2, 2, discount=0.0)
    points = sample_beliefs_uniform(3, 10, seed=13)
    result = solve(p, points)
    assert result.converged
    assert result.iterations <= 2


def test_solve_identity_observation_matches_mdp_value_iteration():
    rng = np.random.default_rng(14)
    num_states = 2
    transition = rng.dirichlet(np.ones(num_states), size=(num_states, 2))
    reward = rng.uniform(-1.0, 1.0, size=(num_states, 2))
    p = Pomdp(
        transition=transition,
        observation=np.repeat(np.eye(num_states)[:, None, :], 2, axis=1),
        reward=reward,
        discount=0.5,
    )
    points = sample_beliefs_uniform(num_states, 30, seed=15)
    result = solve(p, points, tol=1e-6)
    assert result.converged
    exact = mdp_value_iteration(transition, reward, 0.5)
    for s in range(num_states):
        approx = value(result.value_function, Belief.point_mass(num_states, s))
        assert approx == pytest.approx(exact[s], abs=1e-3)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    grid=st.booleans(),
    discount=st.floats(0.5, 0.95),
    accuracy=st.floats(0.5, 0.95),
    count=st.integers(3, 40),
)
def test_solve_point_values_never_decrease(seed, grid, discount, accuracy, count):
    # Plain backup + prune lowers some point's value within 150 iterations
    # on almost every such 3x3 grid; the acceptance rule must never let it.
    rng = np.random.default_rng(seed)
    if grid:
        p = build_pomdp(tiny_grid(discount=discount, intrinsic_sensor_accuracy=accuracy))
    else:
        p = random_pomdp(rng, int(rng.integers(2, 6)), 3, int(rng.integers(2, 5)), discount)
    points = sample_beliefs_uniform(p.num_states, count, seed=seed)
    inputs = []

    def recording_backup(pomdp, previous, points):
        inputs.append(point_values(previous, points))
        return backup(pomdp, previous, points)

    with mock.patch.object(pbvi, "backup", recording_backup):
        result = solve(p, points, tol=1e-9, max_iter=150)
    values = inputs + [point_values(result.value_function, points)]
    assert len(values) == result.iterations + 1
    for before, after in zip(values, values[1:]):
        assert np.all(after >= before)


def test_solve_is_deterministic():
    rng = np.random.default_rng(16)
    p = random_pomdp(rng, 3, 2, 3, discount=0.6)
    points = sample_beliefs_uniform(3, 12, seed=17)
    r1 = solve(p, points)
    r2 = solve(p, points)
    assert r1.iterations == r2.iterations
    assert np.array_equal(r1.value_function.matrix, r2.value_function.matrix)
    assert np.array_equal(r1.value_function.actions, r2.value_function.actions)


def test_solve_validates_knobs():
    rng = np.random.default_rng(18)
    p = random_pomdp(rng, 2, 2, 2)
    points = sample_beliefs_uniform(2, 5, seed=19)
    with pytest.raises(ValueError):
        solve(p, points, tol=0.0)
    with pytest.raises(ValueError):
        solve(p, points, max_iter=0)


def test_represented_value_function_is_convex():
    rng = np.random.default_rng(20)
    p = random_pomdp(rng, 4, 2, 3, discount=0.85)
    points = sample_beliefs_uniform(4, 30, seed=21)
    vf = solve(p, points, max_iter=40).value_function
    for _ in range(200):
        b1, b2 = random_belief(rng, 4), random_belief(rng, 4)
        lam = float(rng.random())
        mix = Belief(lam * b1.probs + (1 - lam) * b2.probs)
        assert value(vf, mix) <= lam * value(vf, b1) + (1 - lam) * value(vf, b2) + 1e-9


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_value_function_file_round_trip(tmp_path):
    rng = np.random.default_rng(22)
    p = random_pomdp(rng, 3, 2, 3, discount=0.7)
    points = sample_beliefs_uniform(3, 10, seed=23)
    vf = solve(p, points, max_iter=30).value_function
    path = tmp_path / "vf.txt"
    write_value_function(vf, str(path))
    loaded = read_value_function(str(path))
    assert np.array_equal(loaded.matrix, vf.matrix)
    assert np.array_equal(loaded.actions, vf.actions)


def test_value_function_file_rejects_garbage(tmp_path):
    path = tmp_path / "vf.txt"
    path.write_text("alphas v1\nstates 2\ncount 2\n0 1.0 2.0\n")
    with pytest.raises(ValueError, match="expected 2"):
        read_value_function(str(path))
    path.write_text("who knows\n")
    with pytest.raises(ValueError, match="alphas v1"):
        read_value_function(str(path))
    path.write_text("alphas v1\nstates 2\ncount 1\n-1 1.0 2.0\n")
    with pytest.raises(ValueError, match="nonnegative"):
        read_value_function(str(path))
    path.write_text("alphas v1\nstates 2\ncount 1\n0 nan nan\n")
    with pytest.raises(ValueError, match="finite"):
        read_value_function(str(path))
