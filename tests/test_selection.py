"""Entropy utilities, greedy selection, exhaustive baselines, bound checks."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pomdp_perception import (
    Belief,
    InfoSource,
    PerceptionAction,
    SelectionOutcome,
    SelectionProblem,
    SourceSet,
    GREEDY_GUARANTEE,
    JointAlphabetTooLarge,
    TooManySources,
    ValueFunction,
    brute_force_optimal,
    check_distance_bound,
    check_value_bound,
    conditional_entropy,
    default_scenario,
    entropy,
    generalized_greedy,
    initialize_value,
    backup,
    marginal_gain,
    mutual_information,
    sample_beliefs_uniform,
    solve,
    selection,
    uav_sources_at,
)
from helpers import (
    oracle_bound_sides,
    oracle_brute_force,
    oracle_conditional_entropy,
    oracle_greedy,
    oracle_marginal_gain_closed_form,
    oracle_mutual_information_kl,
    random_belief,
    random_pomdp,
    random_sources,
    random_sparse_sources,
    select_bench_problem,
)


def uninformative_source(num_states, num_symbols=2, cost=1.0) -> InfoSource:
    return InfoSource(
        likelihood=np.full((num_states, 1, num_symbols), 1.0 / num_symbols), cost=cost
    )


def revealing_source(num_states, cost=1.0) -> InfoSource:
    lik = np.zeros((num_states, 1, num_states))
    for s in range(num_states):
        lik[s, 0, s] = 1.0
    return InfoSource(likelihood=lik, cost=cost)


def make_problem(rng, num_states=4, num_sources=3, budget=None, max_symbols=3) -> SelectionProblem:
    sources = random_sources(rng, num_states, 1, num_sources, max_symbols)
    total = sum(s.cost for s in sources)
    return SelectionProblem(
        belief=random_belief(rng, num_states),
        action=0,
        sources=sources,
        budget=float(budget) if budget is not None else float(rng.uniform(0.2, 1.05) * total),
    )


def slices(problem, subset):
    return [problem.sources[i].likelihood[:, problem.action, :] for i in subset]


# ---------------------------------------------------------------------------
# Entropy and conditional entropy
# ---------------------------------------------------------------------------


def test_entropy_trivia():
    assert entropy(Belief.point_mass(5, 2)) == 0.0
    assert entropy(Belief.uniform(4)) == pytest.approx(math.log(4.0), abs=1e-12)
    rng = np.random.default_rng(0)
    b = random_belief(rng, 6)
    direct = -sum(p * math.log(p) for p in b.probs if p > 0)
    assert entropy(b) == pytest.approx(direct, abs=1e-12)


def test_conditional_entropy_empty_subset_is_belief_entropy():
    rng = np.random.default_rng(1)
    problem = make_problem(rng)
    assert conditional_entropy(problem, PerceptionAction()) == pytest.approx(
        entropy(problem.belief), abs=1e-12
    )


def test_conditional_entropy_uninformative_source_changes_nothing():
    rng = np.random.default_rng(2)
    b = random_belief(rng, 5)
    problem = SelectionProblem(
        belief=b, action=0, sources=(uninformative_source(5),), budget=1.0
    )
    assert conditional_entropy(problem, PerceptionAction((0,))) == pytest.approx(
        entropy(b), abs=1e-12
    )


def test_conditional_entropy_matches_posterior_averaging_oracle():
    rng = np.random.default_rng(3)
    for _ in range(30):
        problem = make_problem(rng, num_states=5, num_sources=2)
        subset = PerceptionAction((0, 1))
        expected = oracle_conditional_entropy(problem.belief.probs, slices(problem, subset))
        assert conditional_entropy(problem, subset) == pytest.approx(expected, abs=1e-10)


def test_conditional_entropy_joint_cap(monkeypatch):
    rng = np.random.default_rng(4)
    problem = make_problem(rng, num_sources=3)
    monkeypatch.setattr(selection, "DEFAULT_JOINT_CAP", 2)
    with pytest.raises(JointAlphabetTooLarge):
        conditional_entropy(problem, PerceptionAction((0, 1, 2)))


# ---------------------------------------------------------------------------
# Mutual information and marginal gain
# ---------------------------------------------------------------------------


def test_mutual_information_empty_subset_is_exactly_zero():
    rng = np.random.default_rng(5)
    for _ in range(10):
        problem = make_problem(rng)
        assert mutual_information(problem, PerceptionAction()) == 0.0


def test_mutual_information_revealing_source_recovers_full_entropy():
    rng = np.random.default_rng(6)
    b = random_belief(rng, 4)
    problem = SelectionProblem(
        belief=b, action=0, sources=(revealing_source(4),), budget=1.0
    )
    assert mutual_information(problem, PerceptionAction((0,))) == pytest.approx(
        entropy(b), abs=1e-10
    )


def test_mutual_information_matches_kl_form_oracle():
    rng = np.random.default_rng(7)
    for _ in range(30):
        problem = make_problem(rng, num_states=4, num_sources=2)
        for subset in (PerceptionAction((0,)), PerceptionAction((1,)), PerceptionAction((0, 1))):
            expected = oracle_mutual_information_kl(
                problem.belief.probs, slices(problem, subset)
            )
            assert mutual_information(problem, subset) == pytest.approx(expected, abs=1e-10)


def test_mutual_information_nonnegative():
    rng = np.random.default_rng(8)
    for _ in range(50):
        problem = make_problem(rng, num_states=3, num_sources=3)
        subset = PerceptionAction(tuple(int(i) for i in rng.permutation(3)[: rng.integers(4)]))
        assert mutual_information(problem, subset) >= 0.0


def test_marginal_gain_trivia():
    rng = np.random.default_rng(9)
    b = random_belief(rng, 4)
    informative = random_sources(rng, 4, 1, 1)[0]
    problem = SelectionProblem(
        belief=b, action=0, sources=(informative, uninformative_source(4)), budget=2.0
    )
    assert marginal_gain(problem, PerceptionAction((0,)), 1) == pytest.approx(0.0, abs=1e-12)
    assert marginal_gain(problem, PerceptionAction(), 0) == pytest.approx(
        mutual_information(problem, PerceptionAction((0,))), abs=1e-12
    )
    with pytest.raises(ValueError, match="already"):
        marginal_gain(problem, PerceptionAction((0,)), 0)


def test_marginal_gain_matches_closed_form():
    rng = np.random.default_rng(10)
    for _ in range(50):
        problem = make_problem(rng, num_states=4, num_sources=3)
        subset = PerceptionAction((0, 1))
        expected = oracle_marginal_gain_closed_form(
            problem.belief.probs, slices(problem, subset), slices(problem, (2,))[0]
        )
        assert marginal_gain(problem, subset, 2) == pytest.approx(expected, abs=1e-10)


def test_monotonicity_and_submodularity():
    rng = np.random.default_rng(11)
    for _ in range(100):
        problem = make_problem(rng, num_states=4, num_sources=4)
        perm = [int(i) for i in rng.permutation(4)]
        small = PerceptionAction(tuple(sorted(perm[:1])))
        large = PerceptionAction(tuple(sorted(perm[:3])))
        extra = perm[3]
        assert mutual_information(problem, large) >= mutual_information(problem, small) - 1e-10
        assert (
            marginal_gain(problem, small, extra)
            >= marginal_gain(problem, large, extra) - 1e-10
        )


# ---------------------------------------------------------------------------
# Greedy selection
# ---------------------------------------------------------------------------


def test_greedy_unaffordable_returns_empty():
    rng = np.random.default_rng(12)
    sources = random_sources(rng, 3, 1, 3)
    problem = SelectionProblem(
        belief=random_belief(rng, 3),
        action=0,
        sources=sources,
        budget=0.9 * min(s.cost for s in sources),
    )
    outcome = generalized_greedy(problem)
    assert outcome.selected == ()
    assert outcome.utility == 0.0
    assert outcome.total_cost == 0.0


def test_greedy_identical_sources_tie_picks_lowest_index():
    rng = np.random.default_rng(13)
    lik = rng.dirichlet(np.ones(2), size=(3, 1))
    twin = InfoSource(likelihood=lik, cost=1.0)
    problem = SelectionProblem(
        belief=random_belief(rng, 3), action=0, sources=(twin, twin), budget=1.0
    )
    outcome = generalized_greedy(problem)
    assert outcome.selected == PerceptionAction((0,))
    assert outcome.utility == pytest.approx(
        mutual_information(problem, PerceptionAction((0,))), abs=1e-12
    )


def test_greedy_skips_unaffordable_argmax_but_keeps_scanning():
    # Source 0 has the best cost-scaled ratio but busts the budget; the scheme
    # must drop it from the pool and still pick up the affordable source 1.
    num_states = 4
    strong = revealing_source(num_states, cost=3.0)
    weak = InfoSource(
        likelihood=np.array(
            [[[0.9, 0.1]], [[0.1, 0.9]], [[0.9, 0.1]], [[0.1, 0.9]]]
        ),
        cost=1.0,
    )
    problem = SelectionProblem(
        belief=Belief.uniform(num_states), action=0, sources=(strong, weak), budget=1.5
    )
    ratio_strong = mutual_information(problem, PerceptionAction((0,))) / 3.0
    ratio_weak = mutual_information(problem, PerceptionAction((1,))) / 1.0
    assert ratio_strong > ratio_weak  # the argmax really is the unaffordable one
    outcome = generalized_greedy(problem)
    assert outcome.selected == PerceptionAction((1,))


def test_greedy_respects_budget_and_beats_guarantee():
    rng = np.random.default_rng(14)
    for _ in range(200):
        problem = make_problem(rng, num_states=4, num_sources=int(rng.integers(2, 7)))
        greedy = generalized_greedy(problem)
        assert greedy.total_cost <= problem.budget + 1e-12
        assert greedy.utility >= 0.0
        optimal = brute_force_optimal(problem)
        assert greedy.utility >= GREEDY_GUARANTEE * optimal.utility - 1e-9


def greedy_agrees_with_oracle(problem):
    expected = oracle_greedy(
        problem.belief.probs,
        slices(problem, range(problem.num_sources)),
        [src.cost for src in problem.sources],
        problem.budget,
        problem.beta,
    )
    assert tuple(generalized_greedy(problem).selected) == expected


def test_greedy_matches_plain_loop_oracle_on_random_problems():
    rng = np.random.default_rng(24)
    for _ in range(150):
        problem = make_problem(
            rng, num_states=int(rng.integers(2, 6)), num_sources=int(rng.integers(1, 7))
        )
        if rng.random() < 0.5:
            problem = SelectionProblem(
                belief=problem.belief,
                action=0,
                sources=problem.sources,
                budget=problem.budget,
                beta=float(rng.uniform(0.3, 2.5)),
            )
        greedy_agrees_with_oracle(problem)


def test_greedy_matches_plain_loop_oracle_with_twins_and_point_masses():
    rng = np.random.default_rng(25)
    for _ in range(40):
        num_states = int(rng.integers(2, 5))
        base = random_sources(rng, num_states, 1, int(rng.integers(1, 4)))
        sources = base + base                      # every source offered twice
        if rng.random() < 0.5:
            belief = Belief.point_mass(num_states, int(rng.integers(num_states)))
        else:
            belief = random_belief(rng, num_states)
        total = sum(src.cost for src in sources)
        problem = SelectionProblem(
            belief=belief,
            action=0,
            sources=sources,
            budget=float(rng.uniform(0.2, 0.8) * total),
            beta=float(rng.choice([0.5, 1.0, 2.0])),
        )
        greedy_agrees_with_oracle(problem)


def test_greedy_matches_plain_loop_oracle_on_the_stock_map():
    # Beliefs on a few cells or one cell: most UAVs then say "not seen" with
    # certainty and tie at zero gain.
    scenario = default_scenario()
    rng = np.random.default_rng(26)
    for t in range(4):
        sources = tuple(uav_sources_at(scenario, t))
        for size in (1, 2, 4):
            probs = np.zeros(scenario.num_cells)
            support = rng.choice(scenario.num_cells, size=size, replace=False)
            probs[support] = rng.dirichlet(np.ones(size))
            problem = SelectionProblem(
                belief=Belief(probs), action=int(rng.integers(5)), sources=sources, budget=2.0
            )
            greedy_agrees_with_oracle(problem)


def test_noise_rows_are_read_only_and_equal_a_plain_loop():
    # Rows that differ by action, alphabets of 1 to 5 symbols, exact zeros,
    # and sources that show one row set to every action.
    rng = np.random.default_rng(33)
    for src in random_sparse_sources(rng, num_states=5, num_actions=3, count=30):
        rows = src.noise_rows
        assert rows.shape == (3, 5)
        assert not rows.flags.writeable
        assert src.noise_rows is rows
        expected = np.empty((3, 5))
        for a in range(3):
            for s in range(5):
                total = 0.0
                for p in src.likelihood[s, a]:
                    total += float(p * np.log(p)) if p > 0.0 else 0.0
                expected[a, s] = total
        assert rows.tobytes() == expected.tobytes()


def test_greedy_reusing_one_source_set_across_actions_and_beliefs_matches_the_oracle():
    # The same source objects, their noise rows cached by the first problem,
    # serve problems under every action and many beliefs.
    rng = np.random.default_rng(34)
    sources = random_sparse_sources(rng, num_states=4, num_actions=3, count=6)
    for _ in range(60):
        probs = rng.dirichlet(np.ones(4))
        probs[rng.random(4) < 0.25] = 0.0
        if probs.sum() == 0.0:
            probs[int(rng.integers(4))] = 1.0
        problem = SelectionProblem(
            belief=Belief(probs / probs.sum()),
            action=int(rng.integers(3)),
            sources=sources,
            budget=float(rng.uniform(0.3, 3.0)),
            beta=float(rng.choice([0.5, 1.0, 2.0])),
        )
        greedy_agrees_with_oracle(problem)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_states=st.integers(2, 6),
    num_sources=st.integers(1, 7),
    deterministic_share=st.floats(0.0, 1.0),
    beta=st.sampled_from([0.5, 1.0, 2.0]),
)
def test_greedy_matches_plain_loop_oracle_with_deterministic_mixed_alphabet_sources(
    seed, num_states, num_sources, deterministic_share, beta
):
    # Deterministic sources report one symbol per state with certainty, as a
    # UAV does; alphabets of 2 to 5 symbols make greedy pad its likelihood
    # stack; costs come partly from a short list, so ratios can tie exactly.
    rng = np.random.default_rng(seed)
    sources = []
    for _ in range(num_sources):
        m = int(rng.integers(2, 6))
        if rng.random() < deterministic_share:
            likelihood = np.eye(m)[rng.integers(m, size=num_states)]
        else:
            likelihood = rng.dirichlet(np.ones(m), size=num_states)
        cost = rng.choice([0.5, 1.5, 2.0]) if rng.random() < 0.5 else rng.uniform(0.2, 2.0)
        sources.append(InfoSource(likelihood=likelihood[:, None, :], cost=float(cost)))
    probs = rng.dirichlet(np.ones(num_states))
    probs[rng.random(num_states) < 0.3] = 0.0
    if probs.sum() == 0.0:
        probs[int(rng.integers(num_states))] = 1.0
    problem = SelectionProblem(
        belief=Belief(probs / probs.sum()),
        action=0,
        sources=tuple(sources),
        budget=float(rng.uniform(0.2, 1.05) * sum(src.cost for src in sources)),
        beta=beta,
    )
    greedy_agrees_with_oracle(problem)
    outcome = generalized_greedy(problem)
    assert outcome.utility == mutual_information(problem, outcome.selected)


def test_greedy_point_mass_tie_goes_to_the_lowest_indices():
    # Every source has zero gain on a point mass; the exact tie must go to
    # the lowest indices, not to rounding in the entropies.
    scenario = default_scenario()
    problem = SelectionProblem(
        belief=Belief.point_mass(scenario.num_cells, 2),
        action=0,
        sources=tuple(uav_sources_at(scenario, 0)),
        budget=2.0,
    )
    assert generalized_greedy(problem).selected == PerceptionAction((0, 1))


def test_greedy_scores_only_affordable_subsets_under_joint_cap(monkeypatch):
    # Pairs of stock-map UAVs have at most 10 x 10 joint outcomes; budget 2
    # pays for no triple, so greedy never needs a larger alphabet.
    scenario = default_scenario()
    rng = np.random.default_rng(27)
    problem = SelectionProblem(
        belief=random_belief(rng, scenario.num_cells),
        action=1,
        sources=tuple(uav_sources_at(scenario, 0)),
        budget=2.0,
    )
    uncapped = generalized_greedy(problem)
    monkeypatch.setattr(selection, "DEFAULT_JOINT_CAP", 100)
    capped = generalized_greedy(problem)
    assert capped == uncapped
    assert len(capped.selected) == 2
    with pytest.raises(JointAlphabetTooLarge):
        conditional_entropy(problem, PerceptionAction((0, 1, 2)))


def test_greedy_propagates_joint_cap(monkeypatch):
    rng = np.random.default_rng(15)
    problem = make_problem(rng, num_sources=4, budget=100.0)
    monkeypatch.setattr(selection, "DEFAULT_JOINT_CAP", 1)
    with pytest.raises(JointAlphabetTooLarge):
        generalized_greedy(problem)


# ---------------------------------------------------------------------------
# Source sets
# ---------------------------------------------------------------------------


def sparse_belief(rng, num_states) -> Belief:
    """A random belief with about a quarter of its states at exactly 0."""
    probs = rng.dirichlet(np.ones(num_states))
    probs[rng.random(num_states) < 0.25] = 0.0
    if probs.sum() == 0.0:
        probs[int(rng.integers(num_states))] = 1.0
    return Belief(probs / probs.sum())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_states=st.integers(2, 5),
    num_sources=st.integers(1, 6),
    num_actions=st.integers(1, 3),
)
def test_one_source_set_serves_many_problems_as_fresh_tuples_and_the_oracle_do(
    seed, num_states, num_sources, num_actions
):
    # Sources whose rows differ by action and sources that show one row set
    # to every action; beliefs with zeros; betas that change from problem to
    # problem, so the set's remembered scaled costs are replaced.
    rng = np.random.default_rng(seed)
    sources = random_sparse_sources(rng, num_states, num_actions, num_sources)
    shared = SourceSet(sources)
    total = sum(src.cost for src in sources)
    for _ in range(8):
        kwargs = dict(
            belief=sparse_belief(rng, num_states),
            action=int(rng.integers(num_actions)),
            budget=float(rng.uniform(0.2, 1.05) * total),
            beta=float(rng.choice([0.5, 1.0, 2.0])),
        )
        on_set = SelectionProblem(sources=shared, **kwargs)
        fresh = SelectionProblem(sources=tuple(sources), **kwargs)
        assert on_set.sources is shared
        assert fresh.sources is not shared and fresh.sources == shared
        outcome = generalized_greedy(on_set)
        assert outcome == generalized_greedy(fresh)
        greedy_agrees_with_oracle(on_set)


def test_source_set_tables_are_read_only_and_one_set_serves_every_action_when_rows_never_change():
    scenario = default_scenario()
    shared = uav_sources_at(scenario, 1)
    stacked, noise_rows = shared.tables(3)
    assert all(shared.tables(a) is shared.tables(3) for a in range(5))
    assert stacked.shape == (scenario.num_cells, sum(shared.sizes))
    assert noise_rows.shape == (len(shared), scenario.num_cells)
    for arr in (stacked, noise_rows, shared.costs, shared.starts, shared.scaled_costs(1.0)):
        assert not arr.flags.writeable
    for j, src in enumerate(shared):
        columns = stacked[:, shared.starts[j] : shared.starts[j] + shared.sizes[j]]
        assert np.array_equal(columns, src.likelihood[:, 3, :])
        assert noise_rows[j].tobytes() == src.noise_rows[3].tobytes()
    # Two sources whose rows differ by action: one table set per action.
    varied = SourceSet(random_sparse_sources(np.random.default_rng(36), 4, 3, 3))
    per_action = [varied.tables(a) for a in range(3)]
    assert all(varied.tables(a) is per_action[a] for a in range(3))
    assert not np.array_equal(per_action[0][0], per_action[1][0])
    for a, (stacked, noise_rows) in enumerate(per_action):
        assert np.array_equal(stacked, np.concatenate([src.likelihood[:, a, :] for src in varied], axis=1))
        assert noise_rows.tobytes() == np.array([src.noise_rows[a] for src in varied]).tobytes()


def test_selection_problem_rejections_fire_on_a_source_set():
    rng = np.random.default_rng(35)
    shared = SourceSet((revealing_source(3, cost=0.5), revealing_source(3, cost=2.0)))
    belief = random_belief(rng, 3)
    problem = SelectionProblem(belief=belief, action=0, sources=shared, budget=1.0, beta=2.0)
    assert problem.sources is shared
    with pytest.raises(ValueError, match="state dimension"):
        SelectionProblem(belief=random_belief(rng, 4), action=0, sources=shared, budget=1.0)
    for action in (-1, 1):
        with pytest.raises(ValueError, match="action"):
            SelectionProblem(belief=belief, action=action, sources=shared, budget=1.0)
    for budget in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="budget"):
            SelectionProblem(belief=belief, action=0, sources=shared, budget=budget)
    for beta in (0.0, -1.0, math.nan, math.inf, 2000.0):
        with pytest.raises(ValueError, match="beta"):
            SelectionProblem(belief=belief, action=0, sources=shared, budget=1.0, beta=beta)
    # A refused beta leaves the set's scaled costs right for the next one.
    assert shared.scaled_costs(2.0).tolist() == [0.25, 4.0]
    mixed = (revealing_source(3), revealing_source(4))
    with pytest.raises(ValueError, match="state dimension"):
        SourceSet(mixed)
    with pytest.raises(ValueError, match="state dimension"):
        SelectionProblem(belief=belief, action=0, sources=mixed, budget=1.0)
    two_actions = InfoSource(likelihood=np.full((3, 2, 2), 0.5), cost=1.0)
    with pytest.raises(ValueError, match="action count"):
        SourceSet((revealing_source(3), two_actions))


# ---------------------------------------------------------------------------
# Exhaustive baseline
# ---------------------------------------------------------------------------


def test_brute_force_single_affordable_source():
    rng = np.random.default_rng(16)
    problem = make_problem(rng, num_sources=1, budget=10.0)
    outcome = brute_force_optimal(problem)
    assert outcome.selected == PerceptionAction((0,))


def test_brute_force_all_uninformative_returns_empty():
    problem = SelectionProblem(
        belief=Belief.uniform(3),
        action=0,
        sources=(uninformative_source(3), uninformative_source(3, 3)),
        budget=5.0,
    )
    outcome = brute_force_optimal(problem)
    assert outcome.selected == ()
    assert outcome.utility == 0.0


def test_brute_force_dominates_greedy():
    rng = np.random.default_rng(17)
    for _ in range(20):
        problem = make_problem(rng, num_states=3, num_sources=8, max_symbols=2)
        assert brute_force_optimal(problem).utility >= generalized_greedy(problem).utility - 1e-12


def test_brute_force_source_cap():
    rng = np.random.default_rng(18)
    sources = tuple(uninformative_source(2) for _ in range(21))
    problem = SelectionProblem(
        belief=Belief.uniform(2), action=0, sources=sources, budget=1.0
    )
    with pytest.raises(TooManySources):
        brute_force_optimal(problem)


def enumerated_optimum(problem):
    """The exhaustive optimum as found by scoring every affordable subset,
    size by size, with `mutual_information`."""
    costs = [src.cost for src in problem.sources]
    best = ((), 0.0, 0.0)
    for size in range(1, problem.num_sources + 1):
        for combo in combinations(range(problem.num_sources), size):
            total = sum(costs[j] for j in combo)
            if total <= problem.budget:
                utility = mutual_information(problem, PerceptionAction(combo))
                if utility > best[1] or (utility == best[1] and combo < best[0]):
                    best = (combo, utility, total)
    return SelectionOutcome(PerceptionAction(best[0]), best[1], best[2])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_states=st.integers(2, 5),
    num_distinct=st.integers(1, 5),
    copies=st.integers(0, 3),
    budget_share=st.floats(0.02, 1.2),
)
def test_brute_force_matches_the_enumeration_oracle_with_duplicates_and_tight_budgets(
    seed, num_states, num_distinct, copies, budget_share
):
    # Some sources offered more than once, alphabets of 1 to 5 symbols with
    # exact zeros, and budgets from below the cheapest source to above the
    # total, so many subsets are over the budget.
    rng = np.random.default_rng(seed)
    distinct = random_sparse_sources(rng, num_states, 2, num_distinct)
    offered = list(distinct) + [distinct[int(i)] for i in rng.integers(num_distinct, size=copies)]
    sources = tuple(offered[int(i)] for i in rng.permutation(len(offered)))
    costs = [src.cost for src in sources]
    problem = SelectionProblem(
        belief=sparse_belief(rng, num_states),
        action=int(rng.integers(2)),
        sources=sources,
        budget=budget_share * sum(costs),
    )
    outcome = brute_force_optimal(problem)
    assert outcome == enumerated_optimum(problem)
    columns = slices(problem, range(problem.num_sources))
    expected, best = oracle_brute_force(problem.belief.probs, columns, costs, problem.budget)
    assert outcome.utility == pytest.approx(best, rel=0, abs=1e-10)
    assert outcome.total_cost == sum(costs[j] for j in outcome.selected) <= problem.budget
    if outcome.selected != expected:
        # Only a tie, which rounding in the library may break otherwise.
        picked = oracle_conditional_entropy(problem.belief.probs, [columns[j] for j in outcome.selected])
        prior = oracle_conditional_entropy(problem.belief.probs, [])
        assert prior - picked == pytest.approx(best, rel=0, abs=1e-10)


def test_brute_force_caps_the_joint_alphabet_of_affordable_subsets_only(monkeypatch):
    # Four three-symbol sources and a budget for two: affordable subsets have
    # at most 9 joint reports, the unaffordable ones up to 81.
    rng = np.random.default_rng(37)
    sources = tuple(
        InfoSource(likelihood=rng.dirichlet(np.ones(3), size=(4, 1)), cost=1.0) for _ in range(4)
    )
    problem = SelectionProblem(belief=random_belief(rng, 4), action=0, sources=sources, budget=2.0)
    uncapped = brute_force_optimal(problem)
    monkeypatch.setattr(selection, "DEFAULT_JOINT_CAP", 9)
    assert brute_force_optimal(problem) == uncapped
    monkeypatch.setattr(selection, "DEFAULT_JOINT_CAP", 8)
    with pytest.raises(JointAlphabetTooLarge):
        brute_force_optimal(problem)


def test_selection_problem_validation():
    rng = np.random.default_rng(19)
    sources = random_sources(rng, 3, 1, 1)
    belief = random_belief(rng, 3)
    with pytest.raises(ValueError, match="budget"):
        SelectionProblem(belief=belief, action=0, sources=sources, budget=0.0)
    with pytest.raises(ValueError, match="beta"):
        SelectionProblem(belief=belief, action=0, sources=sources, budget=1.0, beta=0.0)
    # cost**inf is 0 for a cost below 1, and 2.0**2000 overflows: either way
    # the greedy ratio would divide by 0 or by inf.
    mixed = (revealing_source(3, cost=0.5), revealing_source(3, cost=2.0))
    for beta in (math.nan, math.inf, 2000.0):
        with pytest.raises(ValueError, match="beta"):
            SelectionProblem(belief=Belief.uniform(3), action=0, sources=mixed, budget=1.0, beta=beta)
    with pytest.raises(ValueError, match="action"):
        SelectionProblem(belief=belief, action=5, sources=sources, budget=1.0)
    with pytest.raises(ValueError, match="state dimension"):
        SelectionProblem(belief=random_belief(rng, 4), action=0, sources=sources, budget=1.0)


# ---------------------------------------------------------------------------
# Bound checks
# ---------------------------------------------------------------------------


def test_distance_bound_equal_selections_has_zero_lhs():
    rng = np.random.default_rng(20)
    # One dominant source: greedy and brute force agree on it.
    dominant = SelectionProblem(
        belief=random_belief(rng, 3),
        action=0,
        sources=(revealing_source(3), uninformative_source(3)),
        budget=1.0,
    )
    # Greedy and brute force pick the same set in another order; both
    # posteriors multiply in one order, so they agree to the bit.
    reordered = select_bench_problem(0, 3)
    for problem, picks in ((dominant, ((0,), (0,))), (reordered, ((6, 2, 3), (2, 3, 6)))):
        report = check_distance_bound(problem, problem.belief)
        assert (report.greedy, report.optimal) == picks
        assert report.lhs == 0.0
        assert report.passed
        num_states = problem.belief.num_states
        pomdp = random_pomdp(rng, num_states, 2, 2)
        vf = ValueFunction.from_arrays(rng.normal(size=(3, num_states)), [0, 1, 0])
        assert check_value_bound(vf, problem, problem.belief, pomdp).lhs == 0.0


def test_distance_bound_uninformative_sources_both_sides_zero():
    problem = SelectionProblem(
        belief=Belief.uniform(3),
        action=0,
        sources=(uninformative_source(3), uninformative_source(3)),
        budget=5.0,
    )
    report = check_distance_bound(problem, problem.belief)
    assert report.lhs == pytest.approx(0.0, abs=1e-12)
    assert report.rhs == pytest.approx(0.0, abs=1e-9)
    assert report.passed


def test_bound_checks_cap_only_the_union_of_greedy_and_optimal(monkeypatch):
    # Six three-symbol sources (729 joint reports) and a budget for two:
    # greedy and optimal each take at most two, so their union has at most
    # 81 joint reports.
    rng = np.random.default_rng(25)
    sources = tuple(
        InfoSource(likelihood=rng.dirichlet(np.ones(3), size=(4, 1)), cost=1.0) for _ in range(6)
    )
    problem = SelectionProblem(belief=random_belief(rng, 4), action=0, sources=sources, budget=2.0)
    uncapped = check_distance_bound(problem, problem.belief)
    monkeypatch.setattr(selection, "DEFAULT_JOINT_CAP", 100)
    assert check_distance_bound(problem, problem.belief) == uncapped

    def pair(subset):
        return SelectionOutcome(PerceptionAction(subset), 0.0, 2.0)

    # Each pair has 9 joint reports, their union 81.
    monkeypatch.setattr(selection, "DEFAULT_JOINT_CAP", 9)
    with pytest.raises(JointAlphabetTooLarge):
        check_distance_bound(problem, problem.belief, greedy=pair((0, 1)), optimal=pair((2, 3)))


def test_distance_bound_random_instances_pass():
    rng = np.random.default_rng(21)
    for _ in range(100):
        problem = make_problem(rng, num_states=4, num_sources=int(rng.integers(2, 6)))
        report = check_distance_bound(problem, problem.belief)
        assert report.passed, (report.lhs, report.rhs)


def test_value_bound_random_instances_pass_with_solved_and_one_backup():
    rng = np.random.default_rng(22)
    for i in range(40):
        num_states = 4
        pomdp = random_pomdp(rng, num_states, 2, 3, discount=0.9)
        problem = make_problem(rng, num_states=num_states, num_sources=3)
        points = sample_beliefs_uniform(num_states, 12, seed=i)
        solved = solve(pomdp, points, max_iter=300).value_function
        report = check_value_bound(solved, problem, problem.belief, pomdp)
        assert report.passed, (report.lhs, report.rhs)
        one = backup(pomdp, initialize_value(pomdp), points)
        report1 = check_value_bound(one, problem, problem.belief, pomdp)
        assert report1.passed, (report1.lhs, report1.rhs)


def test_value_bound_zero_discount():
    rng = np.random.default_rng(23)
    num_states = 3
    pomdp = random_pomdp(rng, num_states, 2, 2, discount=0.0)
    problem = make_problem(rng, num_states=num_states, num_sources=3)
    vf = backup(pomdp, initialize_value(pomdp), sample_beliefs_uniform(num_states, 8, seed=1))
    report = check_value_bound(vf, problem, problem.belief, pomdp)
    reward_scale = max(abs(float(pomdp.reward.max())), abs(float(pomdp.reward.min())))
    distance = check_distance_bound(problem, problem.belief)
    assert report.rhs == pytest.approx(distance.rhs * reward_scale, abs=1e-12)
    assert report.passed


def test_bound_sides_match_the_plain_loop_oracle():
    rng = np.random.default_rng(24)
    unsorted_greedy = 0
    for _ in range(60):
        num_states = int(rng.integers(2, 6))
        problem = make_problem(rng, num_states=num_states, num_sources=int(rng.integers(2, 6)))
        pomdp = random_pomdp(rng, num_states, 2, 2, discount=0.9)
        vf = ValueFunction.from_arrays(rng.normal(size=(3, num_states)), [0, 1, 0])
        for prior in (problem.belief, random_belief(rng, num_states)):
            distance = check_distance_bound(problem, prior)
            value = check_value_bound(vf, problem, prior, pomdp)
            assert (value.greedy, value.optimal) == (distance.greedy, distance.optimal)
            expected = oracle_bound_sides(
                problem.belief.probs, prior.probs, slices(problem, range(problem.num_sources)),
                distance.greedy, distance.optimal, vf.matrix, pomdp.reward, pomdp.discount,
            )
            got = (distance.lhs, distance.rhs, value.lhs, value.rhs)
            assert got == pytest.approx(expected, rel=0, abs=1e-12)
        unsorted_greedy += list(distance.greedy) != sorted(distance.greedy)
    # Greedy sets come in pick order, not index order.
    assert unsorted_greedy > 0
