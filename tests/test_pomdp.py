"""Model types, belief updates, and the model file format."""

import numpy as np
import pytest

from pomdp_perception import (
    Belief,
    InfoSource,
    PerceptionAction,
    Pomdp,
    ZeroLikelihoodObservation,
    belief_update_auxiliary,
    belief_update_intrinsic,
    read_pomdp_file,
    write_pomdp_file,
)
from pomdp_perception.pomdp import _check_stochastic
from helpers import (
    oracle_chained_update,
    oracle_intrinsic_update,
    oracle_joint_state_obs,
    oracle_product_likelihood_update,
    random_belief,
    random_pomdp,
    random_sources,
    random_sparse_sources,
)


def identity_obs_pomdp(num_states=2, num_actions=2, discount=0.9) -> Pomdp:
    eye = np.eye(num_states)
    return Pomdp(
        transition=np.repeat(eye[:, None, :], num_actions, axis=1),
        observation=np.repeat(eye[:, None, :], num_actions, axis=1),
        reward=np.zeros((num_states, num_actions)),
        discount=discount,
    )


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def test_pomdp_rejects_bad_row_sums():
    good = identity_obs_pomdp()
    bad_t = np.array(good.transition)
    bad_t[0, 0, 0] = 0.5
    with pytest.raises(ValueError, match="transition"):
        Pomdp(bad_t, good.observation, good.reward, good.discount)
    bad_o = np.array(good.observation)
    bad_o[1, 1, 1] = 0.3
    with pytest.raises(ValueError, match="observation"):
        Pomdp(good.transition, bad_o, good.reward, good.discount)


def test_pomdp_rejects_out_of_range_probabilities():
    good = identity_obs_pomdp()
    bad = np.array(good.transition)
    bad[0, 0, 0] = 1.5
    bad[0, 0, 1] = -0.5
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        Pomdp(bad, good.observation, good.reward, good.discount)


def test_pomdp_rejects_discount_one():
    good = identity_obs_pomdp()
    with pytest.raises(ValueError, match="discount"):
        Pomdp(good.transition, good.observation, good.reward, 1.0)


def test_pomdp_is_frozen():
    p = identity_obs_pomdp()
    with pytest.raises(ValueError):
        p.transition[0, 0, 0] = 0.0


def test_belief_invariants():
    with pytest.raises(ValueError):
        Belief(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        Belief(np.array([-0.1, 1.1]))
    b = Belief.uniform(3)
    assert b.num_states == 3
    assert np.allclose(b.probs, 1.0 / 3.0)
    pm = Belief.point_mass(4, 2)
    assert pm.probs[2] == 1.0 and pm.probs.sum() == 1.0


def _verdict(tensor):
    try:
        _check_stochastic("p", tensor)
    except ValueError as error:
        return str(error)
    return None


@pytest.mark.parametrize(
    "vector",
    [
        [np.nan, 0.5, 0.5],
        [-0.1, 0.6, 0.5],
        [1.2, -0.2],
        [],
        [0.25, 0.25, 0.5 + 2e-9],
        [0.25, 0.25, 0.5 - 2e-9],
        [0.25, 0.25, 0.5],
        [0.1] * 10,
        [1.0],
    ],
    ids=["nan", "negative", "above-1", "empty", "over-by-2e-9", "under-by-2e-9", "exact", "ten-tenths", "one"],
)
def test_one_row_check_gives_the_verdict_and_message_of_the_general_check(vector):
    # A vector takes its own shortcut to the row-sum deviation; a (1, n)
    # matrix holding it goes the general way.
    vector = np.array(vector, dtype=float)
    assert _verdict(vector) == _verdict(vector[None, :])


def test_info_source_validation():
    rng = np.random.default_rng(0)
    lik = rng.dirichlet(np.ones(3), size=(4, 2))
    for cost in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="source cost must be finite and positive"):
            InfoSource(likelihood=lik, cost=cost)
    bad = np.array(lik)
    bad[0, 0, :] = 0.2
    with pytest.raises(ValueError, match="likelihood"):
        InfoSource(likelihood=bad, cost=1.0)


def test_a_source_that_no_action_changes_stores_one_row_set():
    rng = np.random.default_rng(36)
    lik = np.repeat(rng.dirichlet(np.ones(3), size=(4, 1)), 5, axis=1)
    src = InfoSource(likelihood=lik, cost=1.0)
    assert np.array_equal(src.likelihood, lik)
    assert not src.likelihood.flags.writeable
    assert src.likelihood.strides[1] == src.cumulative.strides[1] == src.noise_rows.strides[0] == 0
    lik[0, 1] = [1.0, 0.0, 0.0]
    src = InfoSource(likelihood=lik, cost=1.0)
    assert np.array_equal(src.likelihood, lik)
    assert src.likelihood.strides[1] != 0


def test_source_running_sums_are_read_only_and_equal_cumsum():
    rng = np.random.default_rng(35)
    for src in random_sparse_sources(rng, num_states=5, num_actions=3, count=30):
        sums = src.cumulative
        assert not sums.flags.writeable
        assert src.cumulative is sums
        for s, a in np.ndindex(5, 3):
            assert sums[s, a].tobytes() == np.cumsum(src.likelihood[s, a]).tobytes()


def test_non_finite_inputs_are_rejected():
    good = identity_obs_pomdp()
    with pytest.raises(ValueError, match="belief"):
        Belief(np.array([np.nan, np.nan]))
    for field, bad_value in (("transition", np.nan), ("observation", np.nan), ("reward", np.inf)):
        tensors = {f: np.array(getattr(good, f)) for f in ("transition", "observation", "reward")}
        tensors[field][0, 0, ...] = bad_value
        with pytest.raises(ValueError, match=field):
            Pomdp(discount=good.discount, **tensors)
    reward = np.array(good.reward)
    reward[1, 1] = np.nan
    with pytest.raises(ValueError, match="reward"):
        Pomdp(good.transition, good.observation, reward, good.discount)
    lik = np.full((2, 2, 2), 0.5)
    lik[1, 0, :] = np.nan
    with pytest.raises(ValueError, match="likelihood"):
        InfoSource(likelihood=lik, cost=1.0)


def test_perception_action_validation():
    assert len(PerceptionAction()) == 0
    assert not PerceptionAction()
    assert PerceptionAction() == ()
    act = PerceptionAction((3, 1, 2))
    assert tuple(act) == (3, 1, 2)
    assert act == (3, 1, 2) and hash(act) == hash((3, 1, 2))
    assert [type(i) for i in PerceptionAction(np.array([2, 0]))] == [int, int]
    assert 1 in act and 0 not in act
    assert PerceptionAction((*act, 0)) == (3, 1, 2, 0)
    with pytest.raises(ValueError, match="unique"):
        PerceptionAction((1, 1))
    with pytest.raises(ValueError, match="nonnegative"):
        PerceptionAction((-1,))


# ---------------------------------------------------------------------------
# Intrinsic update
# ---------------------------------------------------------------------------


def test_intrinsic_update_deterministic_observation_collapses_belief():
    p = identity_obs_pomdp()
    updated = belief_update_intrinsic(p, Belief(np.array([0.5, 0.5])), 0, 0)
    assert np.allclose(updated.probs, [1.0, 0.0])


def test_intrinsic_update_uninformative_observation_is_prediction_only():
    rng = np.random.default_rng(1)
    n, m = 4, 3
    p = Pomdp(
        transition=rng.dirichlet(np.ones(n), size=(n, 2)),
        observation=np.full((n, 2, m), 1.0 / m),
        reward=np.zeros((n, 2)),
        discount=0.9,
    )
    b = random_belief(rng, n)
    for a in range(2):
        predicted = b.probs @ p.transition[:, a, :]
        for w in range(m):
            updated = belief_update_intrinsic(p, b, a, w)
            assert np.allclose(updated.probs, predicted, atol=1e-12)


def test_intrinsic_update_matches_joint_enumeration_oracle():
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = random_pomdp(rng, 4, 3, 4)
        b = random_belief(rng, 4)
        a = int(rng.integers(3))
        w = int(rng.integers(4))
        updated = belief_update_intrinsic(p, b, a, w)
        assert np.allclose(updated.probs, oracle_intrinsic_update(p, b, a, w), atol=1e-12)
        assert abs(updated.probs.sum() - 1.0) <= 1e-9
        assert updated.probs.min() >= 0.0


def test_intrinsic_update_zero_likelihood_raises():
    p = identity_obs_pomdp()
    # Identity transitions and observations: observing state 1 from a belief
    # pinned on state 0 is impossible.
    with pytest.raises(ZeroLikelihoodObservation):
        belief_update_intrinsic(p, Belief.point_mass(2, 0), 0, 1)


# ---------------------------------------------------------------------------
# Auxiliary update
# ---------------------------------------------------------------------------


def test_auxiliary_update_empty_selection_returns_belief_unchanged():
    b = Belief(np.array([0.3, 0.7]))
    out = belief_update_auxiliary(b, 0, PerceptionAction(), [], ())
    assert out is b


def test_auxiliary_update_state_revealing_source_gives_point_mass():
    n = 3
    lik = np.zeros((n, 1, n))
    for s in range(n):
        lik[s, 0, s] = 1.0
    src = InfoSource(likelihood=lik, cost=1.0)
    out = belief_update_auxiliary(
        Belief.uniform(n), 0, PerceptionAction((0,)), [src], (2,)
    )
    assert np.allclose(out.probs, [0.0, 0.0, 1.0])


def test_auxiliary_update_two_sources_matches_joint_alphabet_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n, num_actions = 5, 2
        sources = random_sources(rng, n, num_actions, 2)
        b = random_belief(rng, n)
        a = int(rng.integers(num_actions))
        syms = [int(rng.integers(src.num_symbols)) for src in sources]
        out = belief_update_auxiliary(b, a, PerceptionAction((0, 1)), sources, tuple(syms))
        slices = [src.likelihood[:, a, :] for src in sources]
        expected = oracle_product_likelihood_update(b.probs, slices, syms)
        assert np.allclose(out.probs, expected, atol=1e-12)


def test_auxiliary_update_mismatched_symbols_rejected():
    src = InfoSource(likelihood=np.full((2, 1, 2), 0.5), cost=1.0)
    with pytest.raises(ValueError, match="symbol"):
        belief_update_auxiliary(Belief.uniform(2), 0, PerceptionAction((0,)), [src], ())


def test_auxiliary_update_zero_likelihood_raises():
    lik = np.zeros((2, 1, 2))
    lik[0, 0, 0] = 1.0
    lik[1, 0, 1] = 1.0
    src = InfoSource(likelihood=lik, cost=1.0)
    with pytest.raises(ZeroLikelihoodObservation):
        belief_update_auxiliary(Belief.point_mass(2, 0), 0, PerceptionAction((0,)), [src], (1,))


def test_auxiliary_updates_commute_and_factor():
    # One-at-a-time updates equal the joint update for every symbol pair.
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = 4
        sources = random_sources(rng, n, 1, 2)
        b = random_belief(rng, n)
        for y0 in range(sources[0].num_symbols):
            for y1 in range(sources[1].num_symbols):
                joint = belief_update_auxiliary(
                    b, 0, PerceptionAction((0, 1)), sources, (y0, y1)
                )
                step_i = belief_update_auxiliary(b, 0, PerceptionAction((0,)), sources, (y0,))
                then_j = belief_update_auxiliary(
                    step_i, 0, PerceptionAction((1,)), sources, (y1,)
                )
                step_j = belief_update_auxiliary(b, 0, PerceptionAction((1,)), sources, (y1,))
                then_i = belief_update_auxiliary(
                    step_j, 0, PerceptionAction((0,)), sources, (y0,)
                )
                assert np.allclose(joint.probs, then_j.probs, atol=1e-12)
                assert np.allclose(joint.probs, then_i.probs, atol=1e-12)


def test_chained_intrinsic_plus_auxiliary_matches_single_product_bayes():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n, num_actions, num_obs = 4, 2, 3
        p = random_pomdp(rng, n, num_actions, num_obs)
        sources = random_sources(rng, n, num_actions, 2)
        b = random_belief(rng, n)
        a = int(rng.integers(num_actions))
        w = int(rng.integers(num_obs))
        syms = [int(rng.integers(src.num_symbols)) for src in sources]
        mid = belief_update_intrinsic(p, b, a, w)
        chained = belief_update_auxiliary(mid, a, PerceptionAction((0, 1)), sources, tuple(syms))
        slices = [src.likelihood[:, a, :] for src in sources]
        expected = oracle_chained_update(p, b, a, w, slices, syms)
        assert np.allclose(chained.probs, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# Total probability: the posteriors, weighted by how likely their evidence is,
# average back to the belief they came from
# ---------------------------------------------------------------------------


def sparse_rows(rng, shape) -> np.ndarray:
    """Dirichlet rows over the last axis with about a third of the entries
    set to exact zeros; each row keeps its largest entry."""
    rows = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
    keep = (rng.random(shape) > 1.0 / 3.0) | (rows == rows.max(axis=-1, keepdims=True))
    rows = np.where(keep, rows, 0.0)
    return rows / rows.sum(axis=-1, keepdims=True)


def test_intrinsic_posteriors_averaged_over_observations_give_the_prediction():
    rng = np.random.default_rng(6)
    for _ in range(30):
        p = random_pomdp(rng, 4, 2, 5)
        b = random_belief(rng, 4)
        a = int(rng.integers(2))
        obs_probs = oracle_joint_state_obs(p, b, a).sum(axis=0)
        assert abs(obs_probs.sum() - 1.0) <= 1e-12
        average = sum(
            obs_probs[w] * belief_update_intrinsic(p, b, a, w).probs for w in range(5)
        )
        assert np.allclose(average, b.probs @ p.transition[:, a, :], atol=1e-12)


def test_intrinsic_update_raises_exactly_on_observations_of_zero_probability():
    rng = np.random.default_rng(7)
    raised = 0
    for _ in range(30):
        n, num_actions, m = 4, 2, 4
        p = Pomdp(
            transition=sparse_rows(rng, (n, num_actions, n)),
            observation=sparse_rows(rng, (n, num_actions, m)),
            reward=np.zeros((n, num_actions)),
            discount=0.9,
        )
        b = Belief(sparse_rows(rng, (n,)))
        a = int(rng.integers(num_actions))
        obs_probs = oracle_joint_state_obs(p, b, a).sum(axis=0)
        average = np.zeros(n)
        for w in range(m):
            if obs_probs[w] == 0.0:
                raised += 1
                with pytest.raises(ZeroLikelihoodObservation):
                    belief_update_intrinsic(p, b, a, w)
            else:
                average += obs_probs[w] * belief_update_intrinsic(p, b, a, w).probs
        assert np.allclose(average, b.probs @ p.transition[:, a, :], atol=1e-12)
    assert raised > 0


def test_auxiliary_posteriors_averaged_over_reports_give_the_prior():
    rng = np.random.default_rng(8)
    raised = 0
    for _ in range(30):
        n, num_actions = 4, 3
        sources = random_sparse_sources(rng, n, num_actions, 2)
        b = Belief(sparse_rows(rng, (n,)))
        a = int(rng.integers(num_actions))
        selected = PerceptionAction((0, 1))
        average = np.zeros(n)
        total = 0.0
        for y0 in range(sources[0].num_symbols):
            for y1 in range(sources[1].num_symbols):
                p_report = sum(
                    b.probs[s]
                    * sources[0].likelihood[s, a, y0]
                    * sources[1].likelihood[s, a, y1]
                    for s in range(n)
                )
                total += p_report
                if p_report == 0.0:
                    raised += 1
                    with pytest.raises(ZeroLikelihoodObservation):
                        belief_update_auxiliary(b, a, selected, sources, (y0, y1))
                else:
                    posterior = belief_update_auxiliary(b, a, selected, sources, (y0, y1))
                    average += p_report * posterior.probs
        assert abs(total - 1.0) <= 1e-12
        assert np.allclose(average, b.probs, atol=1e-12)
    assert raised > 0


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------


def test_pomdp_file_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    p = random_pomdp(rng, 3, 2, 4, discount=0.85)
    path = tmp_path / "model.txt"
    write_pomdp_file(p, str(path))
    loaded = read_pomdp_file(str(path))
    assert np.array_equal(loaded.transition, p.transition)
    assert np.array_equal(loaded.observation, p.observation)
    assert np.array_equal(loaded.reward, p.reward)
    assert loaded.discount == p.discount


def test_pomdp_file_rejects_bad_rows(tmp_path):
    p = identity_obs_pomdp()
    path = tmp_path / "model.txt"
    write_pomdp_file(p, str(path))
    text = path.read_text()
    corrupted = text.replace("1.0 0.0", "0.7 0.0", 1)
    path.write_text(corrupted)
    with pytest.raises(ValueError):
        read_pomdp_file(str(path))


def test_pomdp_file_rejects_wrong_header(tmp_path):
    path = tmp_path / "nope.txt"
    path.write_text("something else\n")
    with pytest.raises(ValueError, match="pomdp v1"):
        read_pomdp_file(str(path))


def test_pomdp_file_rejects_truncation(tmp_path):
    p = identity_obs_pomdp()
    path = tmp_path / "model.txt"
    write_pomdp_file(p, str(path))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError):
        read_pomdp_file(str(path))
