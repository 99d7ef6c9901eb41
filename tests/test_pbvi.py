"""Planner: belief sampling, backups, pruning, convergence, serialization."""

import dataclasses
import functools
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
    ValueFunction,
    backup,
    bench,
    best_action,
    build_pomdp,
    default_scenario,
    initialize_value,
    prune,
    read_value_function,
    sample_beliefs_uniform,
    solve,
    write_value_function,
)
from helpers import (
    mdp_value_iteration,
    oracle_action_values,
    oracle_backup,
    oracle_one_step_value,
    oracle_point_values,
    oracle_pool_and_prune,
    oracle_sample_beliefs,
    oracle_value,
    random_belief,
    random_pomdp,
    select_bench_instance,
    tiny_scenario,
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
        # The flat Dirichlet draws 0.9999999999999999 among 100 draws here.
        assert len(sample_beliefs_uniform(1, 100, seed=0)) == 1


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
        assert oracle_value(vf.matrix, b.probs) == 0.0


def test_value_and_best_action_trivia():
    constant = ValueFunction((AlphaVector(np.array([3.0, 3.0]), 2),))
    assert oracle_value(constant.matrix, Belief.uniform(2).probs) == pytest.approx(3.0)
    assert best_action(constant, Belief.uniform(2)) == 2

    two = ValueFunction(
        (AlphaVector(np.array([1.0, 0.0]), 0), AlphaVector(np.array([0.0, 1.0]), 1))
    )
    assert oracle_value(two.matrix, Belief.uniform(2).probs) == pytest.approx(0.5)


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
        assert oracle_value(vf.matrix, b.probs) == pytest.approx(naive, abs=1e-12)
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
        assert oracle_value(vf.matrix, b.probs) == pytest.approx(max(rewards), abs=1e-12)


def test_backup_matches_one_step_expansion_oracle():
    rng = np.random.default_rng(4)
    p = random_pomdp(rng, 2, 2, 2, discount=0.8)
    points = sample_beliefs_uniform(2, 12, seed=5)
    init = initialize_value(p)
    low = float(init.matrix[0][0])
    vf = backup(p, init, points)
    for b in map(Belief, points.matrix):
        expected = oracle_one_step_value(p, b, lambda _: low)
        assert oracle_value(vf.matrix, b.probs) == pytest.approx(expected, abs=1e-10)


def test_backup_values_improve_monotonically_from_lower_bound():
    rng = np.random.default_rng(6)
    for seed in range(5):
        p = random_pomdp(rng, 4, 3, 3, discount=0.9)
        points = sample_beliefs_uniform(4, 25, seed=seed)
        vf = initialize_value(p)
        previous = oracle_point_values(vf.matrix, points.matrix)
        for _ in range(30):
            vf = prune(backup(p, vf, points), points)
            current = oracle_point_values(vf.matrix, points.matrix)
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


def test_backup_matches_the_plain_loop_on_a_diagonal_plus_uniform_sensor():
    p = build_pomdp(tiny_scenario())
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


def dead_pairs(p: Pomdp, points: BeliefPointSet) -> tuple[int, int]:
    """(dead, scored) counts of (action, point, observation) triples: dead
    where no departing row of O(., a, w) is reachable from the point."""
    _, rows, departures = p.sensor_split
    reach = np.einsum("bs,sat->abt", points.matrix, p.transition)
    live = np.zeros((p.num_actions, len(points), p.num_observations), dtype=bool)
    for a in range(p.num_actions):
        picked = reach[a][:, rows[:, a]]                                       # (B, m, W)
        live[a] = ((picked != 0.0) & (departures[:, a] != 0.0)).any(axis=1)
    return int((~live).sum()), int(live.sum())


def with_zero_transitions(rng, p: Pomdp, keep: float) -> Pomdp:
    """`p` with about 1 - keep of its transition entries set to exactly 0."""
    transition = p.transition * (rng.random(p.transition.shape) < keep)
    transition[..., 0] += transition.sum(axis=2) == 0.0
    transition /= transition.sum(axis=2, keepdims=True)
    return Pomdp(transition, p.observation, p.reward, p.discount)


def departing_pairs_scored():
    """Counts the calls of the kernel that scores departing pairs only; a
    model whose pairs all fit one block never reaches it."""
    return mock.patch.object(pbvi, "_score_departing_pairs", wraps=pbvi._score_departing_pairs)


def test_backup_breaks_action_ties_within_1e_12_to_the_lowest_action():
    # The first backup of the stock map from the lower bound, point by point:
    # at many points several actions' values differ by rounding alone, and
    # there the first exact maximum is often not the lowest tied action.
    p = build_pomdp(default_scenario())
    points = sample_beliefs_uniform(p.num_states, 100, seed=7)
    start = initialize_value(p)
    assert_backup_matches_oracle(p, start, points)
    rounding_decided = 0
    for b in points.matrix:
        (action, coeffs), = oracle_backup(p, start.matrix, b[None])
        (first_maximum, _), = oracle_backup(p, start.matrix, b[None], tie_tol=0.0)
        rounding_decided += first_maximum != action
        vf = backup(p, start, BeliefPointSet(b[None]))
        assert vf.actions.tolist() == [action]
        assert np.allclose(vf.matrix[0], coeffs, rtol=0, atol=1e-9)
    assert rounding_decided > 10


def test_backup_matches_the_plain_loop_on_the_grid_at_corner_beliefs():
    p = build_pomdp(tiny_scenario())
    points = sample_beliefs_uniform(9, 50, seed=30)
    dead, scored = dead_pairs(p, points)
    assert dead > 0 and scored > 0
    rng = np.random.default_rng(30)
    with departing_pairs_scored() as kernel:
        assert_backup_matches_oracle(p, random_previous(rng, 16, 9, 5), points)
    assert kernel.call_count == 5


def test_backup_matches_the_plain_loop_at_corner_beliefs_with_two_departing_rows():
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
    rng = np.random.default_rng(31)
    base = with_zero_transitions(rng, random_pomdp(rng, 5, 3, 4, discount=0.85), keep=0.4)
    p = Pomdp(base.transition, observation, base.reward, base.discount)
    assert p.sensor_split[1].shape[0] == 2
    points = sample_beliefs_uniform(5, 60, seed=31)
    dead, scored = dead_pairs(p, points)
    assert dead > 0 and scored > 0
    with departing_pairs_scored() as kernel:
        assert_backup_matches_oracle(p, random_previous(rng, 48, 5, 3), points)
    assert kernel.call_count == 3


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_states=st.integers(2, 6),
    num_actions=st.integers(2, 3),
    num_observations=st.integers(1, 4),
    keep=st.floats(0.2, 0.8),
    count=st.integers(1, 30),
    num_vectors=st.integers(2, 6),
)
def test_backup_matches_the_plain_loop_on_models_with_zero_transitions(
    seed, num_states, num_actions, num_observations, keep, count, num_vectors
):
    rng = np.random.default_rng(seed)
    base = random_pomdp(rng, num_states, num_actions, num_observations, discount=0.9)
    p = with_zero_transitions(rng, base, keep)
    points = sample_beliefs_uniform(num_states, count, seed=seed % 1000)
    previous = random_previous(rng, num_vectors, num_states, num_actions)
    expected = oracle_backup(p, previous.matrix, points.matrix)
    # A 64-element budget gives these small models one (action, observation)
    # pair per block and tiles of a few points, as large models get.
    with mock.patch.object(pbvi, "_BLOCK_ELEMENTS", 64):
        vf = backup(p, previous, points)
    assert len(vf) == len(expected)
    for (action, coeffs), row, tag in zip(expected, vf.matrix, vf.actions):
        assert tag == action
        assert np.allclose(row, coeffs, rtol=0, atol=1e-9)


@pytest.mark.parametrize("model", ["grid", "two-rows", "stock"])
def test_departing_pairs_kernel_matches_the_whole_score_table(model):
    # The whole (W, B, K) table of one action, scored as the all-pairs blocks
    # score it: the kernel must pick its argmax and report its maximum.
    rng = np.random.default_rng(35)
    if model == "grid":
        p = build_pomdp(tiny_scenario())
        previous, points = random_previous(rng, 16, 9, 5), sample_beliefs_uniform(9, 50, 35)
    elif model == "two-rows":
        p = with_zero_transitions(rng, random_pomdp(rng, 5, 3, 3), keep=0.4)
        previous, points = random_previous(rng, 20, 5, 3), sample_beliefs_uniform(5, 30, 35)
        assert p.sensor_split[1].shape[0] >= 2
    else:
        p, previous, points = stock_backup_input()
    floor, rows, departures = p.sensor_split
    prev, num_points = previous.matrix, len(points)
    exact = rows.shape[0] == 1
    for a in range(p.num_actions):
        reach = p.discount * (points.matrix @ p.transition[:, a, :])
        shared = reach @ (prev * floor[:, a]).T
        picked = reach[:, rows[:, a]].transpose(1, 2, 0)                       # (m, W, B)
        weights = prev.T[rows[:, a]] * departures[:, a, :, None]               # (m, W, K)
        scores = np.einsum("mwb,mwk->wbk", picked, weights) + shared
        winners = np.empty((num_points, p.num_observations), dtype=np.int32)
        won = np.empty(winners.shape)
        pbvi._score_departing_pairs(pbvi._BackupContext(p, points.matrix, len(prev)), a, picked, shared, prev, winners, won)
        assert np.array_equal(winners, scores.argmax(axis=2).T)
        if exact:
            assert np.array_equal(won, scores.max(axis=2).T)
        else:
            assert np.allclose(won, scores.max(axis=2).T, rtol=0, atol=1e-12)


def stock_backup_input():
    p = build_pomdp(default_scenario())
    rng = np.random.default_rng(32)
    return p, random_previous(rng, 165, p.num_states, p.num_actions), sample_beliefs_uniform(64, 100, seed=1)


@pytest.mark.parametrize("model", ["grid", "random", "stock"])
def test_backup_is_bit_identical_whatever_the_tile_shape(model):
    if model == "grid":
        p = build_pomdp(tiny_scenario())
        previous, points = random_previous(np.random.default_rng(33), 16, 9, 5), sample_beliefs_uniform(9, 50, 33)
    elif model == "random":
        rng = np.random.default_rng(34)
        p = with_zero_transitions(rng, random_pomdp(rng, 6, 3, 4), keep=0.5)
        previous, points = random_previous(rng, 60, 6, 3), sample_beliefs_uniform(6, 60, 34)
    else:
        p, previous, points = stock_backup_input()
    shapes = []

    def tiles(shape):
        def tile_shape(num_points, num_obs, num_vectors):
            shapes.append(shape(num_points, num_obs))
            return shapes[-1]

        return mock.patch.object(pbvi, "_tile_shape", tile_shape)

    with tiles(lambda points, obs: (1, 1)):
        single = backup(p, previous, points)
    with tiles(lambda points, obs: (points, obs)):
        whole = backup(p, previous, points)
    assert shapes and all(shape != (1, 1) for shape in shapes[len(shapes) // 2 :])
    results = [single, whole]
    if model == "stock":
        # Block sizes set the order a point's winning scores are summed in.
        for elements in (1 << 9, 1 << 18):
            with mock.patch.object(pbvi, "_BLOCK_ELEMENTS", elements):
                results.append(backup(p, previous, points))
    default = backup(p, previous, points)
    for vf in results:
        assert np.array_equal(vf.matrix, default.matrix)
        assert np.array_equal(vf.actions, default.actions)


@pytest.mark.parametrize("elements", [1 << 9, 1 << 13, 1 << 18])
def test_stock_solve_from_the_lower_bound_ignores_the_block_size(elements):
    # From the lower bound many points tie between actions to rounding, so a
    # tie left to rounding would let the block size pick the action.
    p = build_pomdp(default_scenario())
    points = sample_beliefs_uniform(p.num_states, 100, seed=7)
    default = solve(p, points, max_iter=4)
    with mock.patch.object(pbvi, "_BLOCK_ELEMENTS", elements):
        patched = solve(p, points, max_iter=4)
    assert patched.iterations == default.iterations
    assert np.array_equal(patched.value_function.matrix, default.value_function.matrix)
    assert np.array_equal(patched.value_function.actions, default.value_function.actions)


def departing_rows_model(rng, num_states: int, num_actions: int, keep: float, twins: bool) -> Pomdp:
    """A random model with about 1 - keep of its transitions exactly 0 and a
    sensor that departs from its floor at one or two rows per (action,
    observation): state s' departs from a floor below 1/W at one
    observation, and no observation takes more than two states.  With
    `twins`, action 1 repeats action 0 exactly."""
    num_obs = int(rng.integers((num_states + 1) // 2, num_states + 2))
    base = with_zero_transitions(rng, random_pomdp(rng, num_states, num_actions, num_obs), keep)
    floor = rng.uniform(0.0, 1.0 / num_obs, size=(num_states, num_actions))
    floor[rng.random(floor.shape) < 0.3] = 0.0
    observation = np.repeat(floor[:, :, None], num_obs, axis=2)
    for a in range(num_actions):
        departs_at = rng.permutation(np.arange(num_states) % num_obs)
        observation[np.arange(num_states), a, departs_at] += 1.0 - num_obs * floor[:, a]
    transition, reward = base.transition.copy(), base.reward.copy()
    if twins:
        for table in (transition, observation, reward):
            table[:, 1] = table[:, 0]
    return Pomdp(transition, observation, reward, base.discount)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_states=st.integers(2, 6),
    num_actions=st.integers(2, 3),
    keep=st.floats(0.2, 0.8),
    twins=st.booleans(),
    count=st.integers(1, 30),
    num_vectors=st.integers(2, 8),
)
def test_backup_with_skipped_pairs_matches_the_plain_loop(
    seed, num_states, num_actions, keep, twins, count, num_vectors
):
    # The action bounds skip pairs on the departing-pairs path; with twin
    # actions every point ties exactly between them, and the lower must win.
    rng = np.random.default_rng(seed)
    p = departing_rows_model(rng, num_states, num_actions, keep, twins)
    assert p.sensor_split[1].shape[0] <= 2
    points = sample_beliefs_uniform(num_states, count, seed=seed % 1000)
    previous = random_previous(rng, num_vectors, num_states, num_actions)
    expected = oracle_backup(p, previous.matrix, points.matrix)
    with mock.patch.object(pbvi, "_BLOCK_ELEMENTS", 64):
        vf = backup(p, previous, points)
    assert len(vf) == len(expected)
    for (action, coeffs), row, tag in zip(expected, vf.matrix, vf.actions):
        assert tag == action
        assert np.allclose(row, coeffs, rtol=0, atol=1e-9)
    if twins:
        assert 1 not in vf.actions.tolist()


@pytest.mark.parametrize("model", ["grid", "stock"])
def test_backup_skips_only_pairs_that_cannot_win(model):
    # A skipped pair's value, from projections built one by one, lies more
    # than the tie tolerance below the point's best, so the skip can change
    # neither the best value nor the action the tie rule picks.
    if model == "grid":
        p = build_pomdp(tiny_scenario())
        points = sample_beliefs_uniform(p.num_states, 50, seed=36)
    else:
        p = build_pomdp(default_scenario())
        points = sample_beliefs_uniform(p.num_states, 100, seed=7)
    previous = solve(p, points, max_iter=5).value_function.matrix
    values, _ = pbvi._best_responses(p, previous, pbvi._BackupContext(p, points.matrix, len(previous)))
    skipped = np.isneginf(values)
    expected = oracle_action_values(p, previous, points.matrix)
    assert skipped.any() and not skipped.all(axis=1).any()
    best = expected.max(axis=1, keepdims=True)
    assert np.all((expected < best - 1e-12)[skipped])
    assert np.allclose(values[~skipped], expected[~skipped], rtol=0, atol=1e-9)


def test_backup_refuses_points_or_a_value_function_with_another_state_count():
    p = build_pomdp(tiny_scenario())
    with pytest.raises(ValueError, match="belief points have 4 states, the model 9"):
        backup(p, initialize_value(p), sample_beliefs_uniform(4, 5, seed=0))
    with pytest.raises(ValueError, match="value function has 4 states, the model 9"):
        backup(p, ValueFunction.from_arrays(np.zeros((1, 4)), [0]), sample_beliefs_uniform(9, 5, seed=0))


def test_solve_refuses_points_with_another_state_count():
    p = build_pomdp(tiny_scenario())
    with pytest.raises(ValueError, match="belief points have 4 states, the model 9"):
        solve(p, sample_beliefs_uniform(4, 5, seed=0))


@functools.cache
def context_model(model: str):
    """(model, points, vectors of a short solve) for the shared-context test;
    every array in it is read-only."""
    if model == "grid":
        p, points = build_pomdp(tiny_scenario()), sample_beliefs_uniform(9, 40, seed=37)
    elif model == "stock":
        p = build_pomdp(default_scenario())
        points = sample_beliefs_uniform(p.num_states, 30, seed=37)
    else:
        p, _ = select_bench_instance(0, 3)
        points = sample_beliefs_uniform(p.num_states, bench.BenchConfig.solver_points, seed=3)
    return p, points, solve(p, points, max_iter=6).value_function.matrix


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    model=st.sampled_from(["grid", "stock", "select-bench"]),
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(2, 50), min_size=2, max_size=4, unique=True),
    elements=st.sampled_from([64, 1 << 10, pbvi._BLOCK_ELEMENTS]),
)
def test_backups_through_one_context_equal_backups_through_fresh_ones(model, seed, sizes, elements):
    # `solve` runs every backup through one context, whose scratch keeps
    # what the last backup left; each must still equal a backup that starts
    # afresh, bit for bit.  K grows, shrinks, then drops to 1, and each
    # previous set is a new noisy draw of solved vectors, so the pairs the
    # action bounds skip change from call to call.
    p, points, solved = context_model(model)
    rng = np.random.default_rng(seed)
    steps = sorted(sizes) + sorted(sizes, reverse=True)[1:] + [1]
    skips = []
    with mock.patch.object(pbvi, "_BLOCK_ELEMENTS", elements):
        shared = pbvi._BackupContext(p, points.matrix, steps[0])
        for k in steps:
            prev = solved[rng.integers(len(solved), size=k)] + rng.normal(scale=0.05, size=(k, p.num_states))
            matrix, tags, skipped = pbvi._backup(p, prev, shared)
            masks = np.isneginf(pbvi._best_responses(p, prev, shared)[0])
            fresh = pbvi._backup(p, prev, pbvi._BackupContext(p, points.matrix, k))
            assert np.array_equal(matrix, fresh[0])
            assert np.array_equal(tags, fresh[1])
            assert skipped == fresh[2] == np.count_nonzero(masks)
            skips.append(masks)
    if model == "select-bench":
        # Its dense model takes the all-pairs path, which skips nothing.
        assert not any(mask.any() for mask in skips)
    else:
        assert any(not np.array_equal(a, b) for a, b in zip(skips, skips[1:]))


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
    assert np.array_equal(
        oracle_point_values(pruned.matrix, points.matrix), oracle_point_values(vf.matrix, points.matrix)
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_vectors=st.integers(1, 30),
    num_states=st.integers(1, 70),
    count=st.integers(1, 120),
)
def test_dot_table_columns_do_not_depend_on_the_other_vectors(seed, num_vectors, num_states, count):
    # `solve` carries a vector's column from one backup to the next, so it
    # must equal the column computed again among any other vectors.
    rng = np.random.default_rng(seed)
    matrix = rng.normal(scale=10.0, size=(num_vectors, num_states))
    points = sample_beliefs_uniform(num_states, count, seed=seed % 1000)
    table = pbvi._dot_table(matrix, points)
    assert table.shape == (len(points), num_vectors)
    subset = rng.permutation(num_vectors)[: int(rng.integers(1, num_vectors + 1))]
    assert np.array_equal(pbvi._dot_table(matrix[subset], points), table[:, subset])
    for k in range(num_vectors):
        assert np.array_equal(pbvi._dot_table(matrix[k : k + 1], points)[:, 0], table[:, k])
        assert np.array_equal(points.matrix @ matrix[k], table[:, k])


# ---------------------------------------------------------------------------
# Solve
# ---------------------------------------------------------------------------


def test_solve_history_records_every_backup():
    p = build_pomdp(default_scenario())
    points = sample_beliefs_uniform(p.num_states, 100, seed=7)
    result = solve(p, points, max_iter=6)
    history = result.history
    assert len(history) == result.iterations == 6
    assert history[-1].delta == result.final_delta
    assert history[0].k_in == 1 and history[-1].k_out == len(result.value_function)
    assert all(before.k_out == after.k_in for before, after in zip(history, history[1:]))
    assert all(record.seconds >= 0.0 for record in history)
    # The first backup has K = 1 and scores every pair; later ones skip.
    assert history[0].skipped == 0 and all(record.skipped > 0 for record in history[1:])
    assert dataclasses.replace(result, history=()) == result


def test_solve_history_counts_no_skips_on_select_bench_models():
    # Their dense models take the all-pairs path, which skips nothing.
    config = bench.BenchConfig()
    for index in range(5):
        p, _ = select_bench_instance(0, index)
        points = sample_beliefs_uniform(p.num_states, config.solver_points, seed=index)
        result = solve(p, points, tol=config.solver_tol, max_iter=config.solver_max_iter)
        assert len(result.history) == result.iterations
        assert result.history[-1].delta == result.final_delta
        assert all(record.skipped == 0 for record in result.history)


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
        approx = oracle_value(result.value_function.matrix, np.eye(num_states)[s])
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
    # on almost every such 3x3 grid; the acceptance rule must never let it:
    # each step's point values are the larger of the current set's and the
    # backed-up set's, exactly.
    rng = np.random.default_rng(seed)
    if grid:
        p = build_pomdp(tiny_scenario(discount=discount, intrinsic_sensor_accuracy=accuracy))
    else:
        p = random_pomdp(rng, int(rng.integers(2, 6)), 3, int(rng.integers(2, 5)), discount)
    points = sample_beliefs_uniform(p.num_states, count, seed=seed)
    inputs, outputs = [], []

    def recording_backup(pomdp, matrix, bmat):
        backed_up = real_backup(pomdp, matrix, bmat)
        inputs.append(oracle_point_values(matrix, points.matrix))
        outputs.append(oracle_point_values(backed_up[0], points.matrix))
        return backed_up

    real_backup = pbvi._backup
    with mock.patch.object(pbvi, "_backup", recording_backup):
        result = solve(p, points, tol=1e-9, max_iter=150)
    values = inputs + [oracle_point_values(result.value_function.matrix, points.matrix)]
    assert len(values) == result.iterations + 1
    for before, backed_up, after in zip(values, outputs, values[1:]):
        assert np.array_equal(after, np.maximum(before, backed_up))


# Each model's backup lowers some point's value within 20 iterations, so the
# acceptance rule is exercised: (seed, discount) of a random model, or the
# 3x3 grid.
@pytest.mark.parametrize(
    "model", ["grid", (18, 0.5), (12, 0.6), (36, 0.6)], ids=["grid", "random-18", "random-12", "random-36"]
)
def test_solve_pools_backed_up_vectors_first_and_keeps_each_points_first_maximum(model):
    if model == "grid":
        p = build_pomdp(tiny_scenario(discount=0.7, intrinsic_sensor_accuracy=0.8))
        points = sample_beliefs_uniform(p.num_states, 40, seed=7)
    else:
        rng = np.random.default_rng(model[0])
        p = random_pomdp(rng, int(rng.integers(2, 6)), 3, int(rng.integers(2, 5)), model[1])
        points = sample_beliefs_uniform(p.num_states, 25, seed=7)
    steps = []

    def recording_backup(pomdp, matrix, bmat):
        steps.append((matrix, real_backup(pomdp, matrix, bmat)))
        return steps[-1][1]

    # The solve loop passes the current set's matrix alone, so its action
    # tags are followed here from the lower bound's, step by step.
    real_backup = pbvi._backup
    with mock.patch.object(pbvi, "_backup", recording_backup):
        result = solve(p, points, tol=1e-12, max_iter=20)
    assert len(steps) == 20
    kept_old = 0
    actions = initialize_value(p).actions
    chosen_matrices = [matrix for matrix, _ in steps[1:]] + [result.value_function.matrix]
    for (current, (backed_up, backed_up_actions, _)), chosen in zip(steps, chosen_matrices):
        kept = oracle_pool_and_prune(backed_up, current, points.matrix)
        kept_old += sum(k >= len(backed_up) for k in kept)
        assert np.array_equal(chosen, np.concatenate((backed_up, current))[kept])
        actions = np.concatenate((backed_up_actions, actions))[kept]
    assert np.array_equal(result.value_function.actions, actions)
    assert kept_old > 0


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
        mixed = lam * oracle_value(vf.matrix, b1.probs) + (1 - lam) * oracle_value(vf.matrix, b2.probs)
        assert oracle_value(vf.matrix, mix.probs) <= mixed + 1e-9


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
