"""Output checks.  Each returns a list of messages; an empty list passes.

The checks compare the program's outputs with `oracle` computations or with
properties the method must have.  They take plain arrays and the program's
result records, so `selftest.py` can feed them planted wrong outputs.
"""

from __future__ import annotations

import numpy as np

import oracle

TOL = 1e-9
# Theorem 2 verdicts are compared only where its two sides differ by more.
DISTANCE_MARGIN = 1e-6


def check_value_bounds(value_matrices, points, v_mdp, reward_min, discount):
    """Every alpha . b <= b . V_MDP, and every V(b) >= R_min / (1 - discount).

    value_matrices: one (K, S) alpha matrix per solve; points: (B, S).
    """
    errors = []
    upper = points @ v_mdp
    floor = reward_min / (1.0 - discount)
    scale = max(1.0, float(np.abs(upper).max()), abs(floor))
    for n, matrix in enumerate(value_matrices):
        values = points @ np.asarray(matrix).T
        excess = float((values - upper[:, None]).max())
        if excess > TOL * scale:
            errors.append(f"solve {n}: an alpha vector beats the MDP value by {excess:.3e}")
        shortfall = floor - float(values.max(axis=1).min())
        if shortfall > TOL * scale:
            errors.append(f"solve {n}: V(b) falls {shortfall:.3e} below R_min/(1-discount)")
    return errors


def check_episodes(episodes, transition, reward, discount, goal, costs, budget):
    """Reward accounting, possible transitions and affordable unique sources."""
    errors = []
    for n, episode in enumerate(episodes):
        if episode.failed:
            errors.append(f"episode {n}: failed on a zero-likelihood observation")
        steps = episode.steps
        total = sum(discount**t * step.reward for t, step in enumerate(steps))
        if abs(total - episode.discounted_reward) > TOL * max(1.0, abs(total)):
            errors.append(
                f"episode {n}: discounted reward {episode.discounted_reward!r} != {total!r}"
            )
        for t, step in enumerate(steps):
            if step.reward != reward[step.state, step.action]:
                errors.append(f"episode {n} step {t}: reward is not R[s, a]")
            if t + 1 < len(steps):
                after = steps[t + 1].state
            else:
                after = goal if episode.reached_goal else None
            if after is not None and not transition[step.state, step.action, after] > 0.0:
                errors.append(f"episode {n} step {t}: impossible transition to {after}")
            chosen = tuple(step.selected)
            if len(set(chosen)) != len(chosen) or any(not 0 <= i < len(costs) for i in chosen):
                errors.append(f"episode {n} step {t}: sources {chosen} repeat or out of range")
            elif sum(costs[i] for i in chosen) > budget + TOL:
                errors.append(f"episode {n} step {t}: sources {chosen} cost more than {budget}")
    return errors


def check_repeat(first, again, same):
    """A later round's outputs must repeat the first round's, operation by
    operation; same(a, b) compares two outputs of one operation."""
    return [
        f"operation {position}: a later round's output differs from the first round's"
        for position, (a, b) in enumerate(zip(first, again, strict=True))
        if not same(a, b)
    ]


def check_greedy(case, known_misses):
    """One selection problem, as plain arrays, and the program's answer.

    case keys: label, belief, columns, costs, budget, selected and utility.
    The picked set must be the one `oracle.greedy_reference` picks, lowest
    index first on ties, and its utility must reach the guarantee against
    the exhaustive optimum.  A case whose label is in known_misses may pick
    another set, but only one of the same utility: a tie in exact arithmetic
    that the program's rounding decided.
    """
    belief, columns, costs, budget = case["belief"], case["columns"], case["costs"], case["budget"]
    chosen = tuple(case["selected"])
    label = case["label"]
    if len(set(chosen)) != len(chosen) or any(not 0 <= i < len(columns) for i in chosen):
        return [f"greedy {label}: sources {chosen} repeat or out of range"]
    if sum(costs[i] for i in chosen) > budget + TOL:
        return [f"greedy {label}: sources {chosen} exceed the budget"]
    errors = []
    utility = oracle.mutual_information(belief, [columns[i] for i in chosen])
    if abs(utility - case["utility"]) > TOL:
        errors.append(f"greedy {label}: reported utility {case['utility']!r} != {utility!r}")
    reference = oracle.greedy_reference(belief, columns, costs, budget)
    if chosen != reference:
        ref_utility = oracle.mutual_information(belief, [columns[i] for i in reference])
        if label not in known_misses or abs(utility - ref_utility) > oracle.TIE_TOL:
            errors.append(f"greedy {label}: picked {chosen}, the paper's rule picks {reference}")
    optimum, _ = oracle.brute_force_optimum(belief, columns, costs, budget)
    if utility < oracle.GREEDY_GUARANTEE * optimum - TOL:
        errors.append(f"greedy {label}: utility {utility!r} below the guarantee of {optimum!r}")
    return errors


def check_bench_rows(rows, optima, bounds):
    """select-bench rows: theorem checks 1 and 3 pass, greedy <= optimum,
    theorem 2 agrees with bounds, and each (row, optimum) pair in optima,
    with an exhaustive optimum computed here, agrees.

    bounds holds one entry per row: None where theorem 2 must pass (the
    fixed instances, on which it holds), or the (lhs, rhs) that
    `oracle.distance_bound` computes, and then the row's verdict must be
    lhs <= rhs, unless the two are within DISTANCE_MARGIN of each other.
    """
    errors = []
    for row, bound in zip(rows, bounds, strict=True):
        if not (row.theorem1_pass and row.theorem3_pass):
            errors.append(f"instance {row.seed}: theorem check 1 or 3 failed")
        if row.greedy_utility > row.optimal_utility + TOL:
            errors.append(f"instance {row.seed}: greedy {row.greedy_utility!r} beats the optimum")
        if bound is None:
            if not row.theorem2_pass:
                errors.append(f"instance {row.seed}: theorem check 2 failed")
        elif abs(bound[0] - bound[1]) > DISTANCE_MARGIN and row.theorem2_pass != (bound[0] <= bound[1]):
            errors.append(
                f"instance {row.seed}: theorem check 2 says {row.theorem2_pass}, "
                f"but lhs {bound[0]!r} and rhs {bound[1]!r}"
            )
    for row, optimum in optima:
        if abs(row.optimal_utility - optimum) > TOL:
            errors.append(f"instance {row.seed}: optimum {row.optimal_utility!r} != {optimum!r}")
        if row.greedy_utility < oracle.GREEDY_GUARANTEE * optimum - TOL:
            errors.append(f"instance {row.seed}: greedy falls below the guarantee")
    return errors
