"""Shared random-instance generators and independent brute-force oracles.

Oracles here deliberately use plain Python loops and explicit enumeration so
they share no code path with the library implementations they verify.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from pomdp_perception import Belief, InfoSource, Pomdp


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------


def random_pomdp(rng, num_states, num_actions, num_observations, discount=0.9) -> Pomdp:
    return Pomdp(
        transition=rng.dirichlet(np.ones(num_states), size=(num_states, num_actions)),
        observation=rng.dirichlet(np.ones(num_observations), size=(num_states, num_actions)),
        reward=rng.uniform(-5.0, 5.0, size=(num_states, num_actions)),
        discount=discount,
    )


def random_belief(rng, num_states) -> Belief:
    return Belief(rng.dirichlet(np.ones(num_states)))


def random_sources(rng, num_states, num_actions, count, max_symbols=3) -> tuple[InfoSource, ...]:
    out = []
    for _ in range(count):
        m = int(rng.integers(2, max_symbols + 1))
        out.append(
            InfoSource(
                likelihood=rng.dirichlet(np.ones(m), size=(num_states, num_actions)),
                cost=float(rng.uniform(0.2, 1.5)),
            )
        )
    return tuple(out)


# ---------------------------------------------------------------------------
# Bayes oracles
# ---------------------------------------------------------------------------


def oracle_joint_state_obs(pomdp: Pomdp, b: Belief, a: int) -> np.ndarray:
    """p(s', w | b, a) by explicit enumeration, shape (S, W)."""
    n, m = pomdp.num_states, pomdp.num_observations
    joint = np.zeros((n, m))
    for s_next in range(n):
        pred = sum(pomdp.transition[s, a, s_next] * b.probs[s] for s in range(n))
        for w in range(m):
            joint[s_next, w] = pomdp.observation[s_next, a, w] * pred
    return joint


def oracle_intrinsic_update(pomdp: Pomdp, b: Belief, a: int, w: int) -> np.ndarray:
    joint = oracle_joint_state_obs(pomdp, b, a)
    column = joint[:, w]
    return column / column.sum()


def oracle_product_likelihood_update(
    prior: np.ndarray, slices: list[np.ndarray], symbols: list[int]
) -> np.ndarray:
    """Single Bayes update under the product of the given likelihood columns."""
    n = prior.size
    post = np.zeros(n)
    for s in range(n):
        w = prior[s]
        for sl, y in zip(slices, symbols):
            w *= sl[s, y]
        post[s] = w
    return post / post.sum()


def oracle_chained_update(
    pomdp: Pomdp,
    b: Belief,
    a: int,
    w: int,
    slices: list[np.ndarray],
    symbols: list[int],
) -> np.ndarray:
    """One Bayes step with the intrinsic and all auxiliary likelihoods at once."""
    n = pomdp.num_states
    post = np.zeros(n)
    for s_next in range(n):
        pred = sum(pomdp.transition[s, a, s_next] * b.probs[s] for s in range(n))
        weight = pomdp.observation[s_next, a, w]
        for sl, y in zip(slices, symbols):
            weight *= sl[s_next, y]
        post[s_next] = weight * pred
    return post / post.sum()


# ---------------------------------------------------------------------------
# Information-theoretic oracles.  `slices` are per-source likelihood matrices
# of shape (S, m_i), already indexed at the relevant action.
# ---------------------------------------------------------------------------


def _plain_entropy(p) -> float:
    return -sum(x * math.log(x) for x in p if x > 0.0)


def oracle_conditional_entropy(belief: np.ndarray, slices: list[np.ndarray]) -> float:
    """Average posterior entropy over every joint outcome, weighted by its
    probability."""
    total = 0.0
    for symbols in product(*(range(sl.shape[1]) for sl in slices)):
        unnorm = np.array(
            [belief[s] * math.prod(sl[s, y] for sl, y in zip(slices, symbols))
             for s in range(belief.size)]
        )
        weight = unnorm.sum()
        if weight > 0.0:
            total += weight * _plain_entropy(unnorm / weight)
    return total


def oracle_mutual_information_kl(belief: np.ndarray, slices: list[np.ndarray]) -> float:
    """Direct KL-form mutual information over the joint of state and outcomes."""
    outcomes = list(product(*(range(sl.shape[1]) for sl in slices)))
    joint = np.zeros((belief.size, len(outcomes)))
    for col, symbols in enumerate(outcomes):
        for s in range(belief.size):
            joint[s, col] = belief[s] * math.prod(sl[s, y] for sl, y in zip(slices, symbols))
    p_state = joint.sum(axis=1)
    p_out = joint.sum(axis=0)
    mi = 0.0
    for s in range(belief.size):
        for col in range(len(outcomes)):
            if joint[s, col] > 0.0:
                mi += joint[s, col] * math.log(joint[s, col] / (p_state[s] * p_out[col]))
    return mi


def oracle_marginal_gain_closed_form(
    belief: np.ndarray, subset_slices: list[np.ndarray], slice_j: np.ndarray
) -> float:
    """Closed-form marginal gain:  H(w_j | subset outcomes) - H(w_j | state)."""
    h_j_given_state = sum(
        belief[s] * _plain_entropy(slice_j[s]) for s in range(belief.size)
    )
    # H(w_j | subset) = H(subset, w_j) - H(subset), from the joint outcome law.
    outcomes = list(product(*(range(sl.shape[1]) for sl in subset_slices)))
    m_j = slice_j.shape[1]
    p_joint = np.zeros((len(outcomes), m_j))
    for row, symbols in enumerate(outcomes):
        for y in range(m_j):
            p_joint[row, y] = sum(
                belief[s]
                * math.prod(sl[s, sym] for sl, sym in zip(subset_slices, symbols))
                * slice_j[s, y]
                for s in range(belief.size)
            )
    h_joint = _plain_entropy(p_joint.ravel())
    h_subset = _plain_entropy(p_joint.sum(axis=1))
    return (h_joint - h_subset) - h_j_given_state


def oracle_greedy(
    belief: np.ndarray,
    slices: list[np.ndarray],
    costs: list[float],
    budget: float,
    beta: float = 1.0,
    tie_tol: float = 1e-12,
) -> tuple[int, ...]:
    """The paper's cost-scaled greedy rule, scoring every candidate each round.

    A round takes the candidate with the best entropy drop per cost**beta
    (ratios within tie_tol of the best go to the lowest index), adds it if
    the budget still pays for it and drops it from the pool either way.  The
    answer is the built set or the best affordable singleton, whichever
    leaves the lower conditional entropy; the built set wins a tie, and the
    lowest index wins a tie between singletons.  States outside the belief's
    support carry no weight, so they are left out before enumerating.
    """
    support = [s for s in range(belief.size) if belief[s] > 0.0]
    prior = np.array([belief[s] for s in support])
    columns = [np.array([sl[s] for s in support]) for sl in slices]

    def h(subset):
        return oracle_conditional_entropy(prior, [columns[i] for i in subset])

    pool = list(range(len(slices)))
    chosen: list[int] = []
    spent = 0.0
    h_chosen = h([])
    while pool:
        scores = [(h_chosen - h(chosen + [j])) / costs[j] ** beta for j in pool]
        best = max(scores)
        slot = next(i for i, score in enumerate(scores) if score >= best - tie_tol)
        j_star = pool.pop(slot)
        if spent + costs[j_star] <= budget:
            chosen.append(j_star)
            spent += costs[j_star]
            h_chosen = h(chosen)
    affordable = [j for j in range(len(slices)) if costs[j] <= budget]
    if not affordable:
        return ()
    singles = [h([j]) for j in affordable]
    lowest = min(singles)
    if h_chosen <= lowest + tie_tol:
        return tuple(chosen)
    return (next(j for j, h_j in zip(affordable, singles) if h_j <= lowest + tie_tol),)


# ---------------------------------------------------------------------------
# Planning oracles
# ---------------------------------------------------------------------------


def oracle_sample_beliefs(num_states: int, count: int, seed: int) -> np.ndarray:
    """The sampled belief rows as a loop: the flat-Dirichlet draws, then the
    uniform belief, then the corners, each row kept unless a row with the
    same bytes came before it."""
    rng = np.random.default_rng(seed)
    rows = list(rng.dirichlet(np.ones(num_states), size=count))
    rows.append(np.full(num_states, 1.0 / num_states))
    rows.extend(np.eye(num_states))
    seen: set[bytes] = set()
    kept = []
    for row in rows:
        if row.tobytes() not in seen:
            seen.add(row.tobytes())
            kept.append(row)
    return np.array(kept)


def mdp_value_iteration(transition, reward, discount, tol=1e-12, max_iter=200000) -> np.ndarray:
    """Tabular value iteration on the fully observable model."""
    values = np.zeros(transition.shape[0])
    for _ in range(max_iter):
        q = reward + discount * np.einsum("san,n->sa", transition, values)
        new_values = q.max(axis=1)
        if np.abs(new_values - values).max() < tol:
            return new_values
        values = new_values
    return values


def oracle_one_step_value(pomdp: Pomdp, b: Belief, prev_value_fn) -> float:
    """One exact Bellman lookahead at b, expanding every observation."""
    best = -math.inf
    n, m = pomdp.num_states, pomdp.num_observations
    for a in range(pomdp.num_actions):
        total = sum(b.probs[s] * pomdp.reward[s, a] for s in range(n))
        for w in range(m):
            joint = oracle_joint_state_obs(pomdp, b, a)[:, w]
            pr = joint.sum()
            if pr > 0.0:
                total += pomdp.discount * pr * prev_value_fn(joint / pr)
        best = max(best, total)
    return best


def oracle_backup(pomdp: Pomdp, previous: np.ndarray, points: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """The plain PBVI backup as a loop: per point, every action and
    observation's projection of every previous vector, the first maximum kept
    at each step; then each (action, coefficients) once, in first-point order
    (coefficients within 1e-9 count as one)."""
    emitted: list[tuple[int, np.ndarray]] = []
    for b in points:
        best_value, best = -math.inf, None
        for a in range(pomdp.num_actions):
            coeffs = pomdp.reward[:, a].copy()
            for w in range(pomdp.num_observations):
                projected = [
                    pomdp.discount * (pomdp.transition[:, a, :] @ (pomdp.observation[:, a, w] * alpha))
                    for alpha in previous
                ]
                coeffs += max(projected, key=lambda g: float(g @ b))
            if float(coeffs @ b) > best_value:
                best_value, best = float(coeffs @ b), (a, coeffs)
        if not any(a == best[0] and np.allclose(c, best[1], rtol=0, atol=1e-9) for a, c in emitted):
            emitted.append(best)
    return emitted
