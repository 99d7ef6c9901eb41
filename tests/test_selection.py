"""Entropy utilities, greedy selection, exhaustive baselines, bound checks."""

import math

import numpy as np
import pytest

from pomdp_perception import (
    Belief,
    InfoSource,
    PerceptionAction,
    SelectionProblem,
    GREEDY_GUARANTEE,
    JointAlphabetTooLarge,
    TooManySources,
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
    uav_sources_at,
)
from helpers import (
    oracle_conditional_entropy,
    oracle_greedy,
    oracle_marginal_gain_closed_form,
    oracle_mutual_information_kl,
    random_belief,
    random_pomdp,
    random_sources,
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


def test_conditional_entropy_joint_cap():
    rng = np.random.default_rng(4)
    problem = make_problem(rng, num_sources=3)
    with pytest.raises(JointAlphabetTooLarge):
        conditional_entropy(problem, PerceptionAction((0, 1, 2)), joint_cap=2)


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


def test_greedy_scores_only_affordable_subsets_under_joint_cap():
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
    capped = generalized_greedy(problem, joint_cap=100)
    assert capped == generalized_greedy(problem)
    assert len(capped.selected) == 2
    with pytest.raises(JointAlphabetTooLarge):
        conditional_entropy(problem, PerceptionAction((0, 1, 2)), joint_cap=100)


def test_greedy_propagates_joint_cap():
    rng = np.random.default_rng(15)
    problem = make_problem(rng, num_sources=4, budget=100.0)
    with pytest.raises(JointAlphabetTooLarge):
        generalized_greedy(problem, joint_cap=1)


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


def test_selection_problem_validation():
    rng = np.random.default_rng(19)
    sources = random_sources(rng, 3, 1, 1)
    belief = random_belief(rng, 3)
    with pytest.raises(ValueError, match="budget"):
        SelectionProblem(belief=belief, action=0, sources=sources, budget=0.0)
    with pytest.raises(ValueError, match="beta"):
        SelectionProblem(belief=belief, action=0, sources=sources, budget=1.0, beta=0.0)
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
    problem = SelectionProblem(
        belief=random_belief(rng, 3),
        action=0,
        sources=(revealing_source(3), uninformative_source(3)),
        budget=1.0,
    )
    report = check_distance_bound(problem, problem.belief)
    assert report.greedy == report.optimal
    assert report.lhs == 0.0
    assert report.passed


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
