"""Computations done apart from the program, used to check its outputs.

Nothing here calls into `pomdp_perception`: these are plain re-derivations
from the model arrays, written for clarity rather than speed.
"""

from __future__ import annotations

import math
from itertools import combinations, product

import numpy as np

GREEDY_GUARANTEE = 1.0 - math.exp(-0.5)
# Greedy ratios and singleton entropies closer than this count as tied.
TIE_TOL = 1e-12
VALUE_ITERATION_TOL = 1e-12
VALUE_ITERATION_MAX = 100_000


def mdp_values(transition, reward, discount):
    """(Q, V) of the fully observable MDP by tabular value iteration."""
    num_states, num_actions, _ = transition.shape
    v = np.zeros(num_states)
    for _ in range(VALUE_ITERATION_MAX):
        q = np.empty((num_states, num_actions))
        for a in range(num_actions):
            q[:, a] = reward[:, a] + discount * (transition[:, a, :] @ v)
        v_new = q.max(axis=1)
        if np.max(np.abs(v_new - v)) < VALUE_ITERATION_TOL:
            return q, v_new
        v = v_new
    raise RuntimeError("tabular value iteration did not converge")


def entropy(probs: np.ndarray) -> float:
    p = probs[probs > 0.0]
    return float(-(p * np.log(p)).sum())


def conditional_entropy(belief: np.ndarray, columns: list[np.ndarray]) -> float:
    """H(S | Y) where Y are the reports of conditionally independent sources.

    columns[i][s, y] is source i's probability of reporting y in state s.
    Computed as the sum over reachable joint reports y of p(y) H(S | Y = y);
    unreachable reports are dropped before any sum, so a source that cannot
    tell any two supported states apart leaves the result bit-for-bit equal.
    """
    weights = np.ones((1, belief.size))
    for lik in columns:
        weights = (weights[:, :, None] * lik[None, :, :]).transpose(0, 2, 1)
        weights = weights.reshape(-1, belief.size)
    joint = weights * belief[None, :]
    p_y = joint.sum(axis=1)
    keep = p_y > 0.0
    posterior = joint[keep] / p_y[keep, None]
    logs = np.zeros_like(posterior)
    positive = posterior > 0.0
    logs[positive] = np.log(posterior[positive])
    row_entropy = -(posterior * logs).sum(axis=1)
    return float(p_y[keep] @ row_entropy)


def mutual_information(belief: np.ndarray, columns: list[np.ndarray]) -> float:
    return entropy(belief) - conditional_entropy(belief, columns)


def greedy_reference(belief, columns, costs, budget):
    """The paper's cost-scaled greedy rule as a plain loop, with beta = 1 as
    in every problem the benchmark poses.

    Every round scores each remaining candidate by its entropy drop over its
    cost, takes the best (ratios within TIE_TOL of the best go to the
    lowest index), adds it if the budget still pays for it and drops it from
    the pool either way.  The answer is the built set or the best affordable
    singleton, whichever leaves the lower conditional entropy; the built set
    wins a tie, and the lowest index wins a tie between singletons.
    """

    def h(subset):
        return conditional_entropy(belief, [columns[i] for i in subset])

    pool = list(range(len(columns)))
    chosen: list[int] = []
    spent = 0.0
    h_chosen = h(())
    while pool:
        best_slot, best_ratio, best_h = 0, -math.inf, 0.0
        for slot, j in enumerate(pool):
            h_j = h(chosen + [j])
            ratio = (h_chosen - h_j) / costs[j]
            if ratio > best_ratio + TIE_TOL:
                best_slot, best_ratio, best_h = slot, ratio, h_j
        j_star = pool.pop(best_slot)
        if spent + costs[j_star] <= budget:
            chosen.append(j_star)
            spent += costs[j_star]
            h_chosen = best_h
    affordable = [j for j in range(len(columns)) if costs[j] <= budget]
    if not affordable:
        return ()
    best_single, h_single = affordable[0], h((affordable[0],))
    for j in affordable[1:]:
        h_j = h((j,))
        if h_j < h_single - TIE_TOL:
            best_single, h_single = j, h_j
    if h_chosen <= h_single + TIE_TOL:
        return tuple(chosen)
    return (best_single,)


def brute_force_optimum(belief, columns, costs, budget):
    """(utility, subset): the highest mutual information over every subset
    the budget pays for, and the first subset, in size-then-index order,
    that reaches it."""
    best, best_subset = 0.0, ()
    n = len(columns)
    cheapest = sorted(costs)
    max_size = 0
    while max_size < n and sum(cheapest[: max_size + 1]) <= budget:
        max_size += 1
    for size in range(1, max_size + 1):
        for combo in combinations(range(n), size):
            if sum(costs[j] for j in combo) > budget:
                continue
            utility = mutual_information(belief, [columns[j] for j in combo])
            if utility > best:
                best, best_subset = utility, combo
    return best, best_subset


def distance_bound(belief, columns, greedy, optimal):
    """(lhs, rhs) of the belief-distance bound (theorem 2) for one problem.

    lhs is the expected L1 distance between the beliefs updated on the
    reports of the `greedy` and of the `optimal` subset, rhs is
    sqrt((2 / sqrt(e)) * E[KL(optimal posterior || belief)]); both
    expectations run over the reports the belief itself predicts.  Reports
    of sources in neither subset do not change either posterior, so the
    loop runs over the joint reports of the two subsets' union only.
    """
    union = sorted(set(greedy) | set(optimal))
    lhs = expected_kl = 0.0
    for reports in product(*(range(columns[i].shape[1]) for i in union)):
        report = dict(zip(union, reports))

        def posterior(subset):
            weights = belief.copy()
            for i in subset:
                weights = weights * columns[i][:, report[i]]
            return weights / weights.sum()

        p_report = belief.copy()
        for i in union:
            p_report = p_report * columns[i][:, report[i]]
        p_report = p_report.sum()
        if p_report == 0.0:
            continue
        post_o = posterior(optimal)
        lhs += p_report * np.abs(posterior(greedy) - post_o).sum()
        support = post_o > 0.0
        expected_kl += p_report * (post_o[support] * np.log(post_o[support] / belief[support])).sum()
    return float(lhs), math.sqrt(max(2.0 / math.sqrt(math.e) * expected_kl, 0.0))
