"""Shared random-instance generators and independent brute-force oracles.

Oracles here deliberately use plain Python loops and explicit enumeration so
they share no code path with the library implementations they verify.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from pomdp_perception import Belief, InfoSource, Pomdp, Scenario, UavSpec, bench


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


def random_sparse_sources(rng, num_states, num_actions, count) -> tuple[InfoSource, ...]:
    """Sources of 1 to 5 symbols whose rows differ by action and hold exact
    zeros; every third one shows its first action's rows for every action."""
    out = []
    for index in range(count):
        m = int(rng.integers(1, 6))
        rows = rng.dirichlet(np.ones(m), size=(num_states, num_actions))
        rows[rng.random(rows.shape) < 0.3] = 0.0
        empty = rows.sum(axis=2) == 0.0
        rows[empty, rng.integers(m, size=int(empty.sum()))] = 1.0
        if index % 3 == 2:
            rows[:] = rows[:, :1]
        likelihood = rows / rows.sum(axis=2, keepdims=True)
        out.append(InfoSource(likelihood=likelihood, cost=float(rng.uniform(0.2, 1.5))))
    return tuple(out)


def tiny_scenario(**overrides) -> Scenario:
    """A 3x3 grid with an obstacle at the centre and one UAV over it that
    sees the whole grid without error; `overrides` replace fields."""
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


def select_bench_instance(base_seed, index, config=bench.BenchConfig()):
    """The model and the selection problem of select-bench instance
    (base_seed, index), drawn in evaluate_instance's order."""
    rng = np.random.default_rng([base_seed, index])
    num_states = int(rng.integers(2, config.max_states + 1))
    num_actions = int(rng.integers(2, 4))
    num_observations = int(rng.integers(2, config.max_states + 1))
    pomdp = bench.random_pomdp(rng, num_states, num_actions, num_observations, config.discount)
    return pomdp, bench.random_selection_problem(rng, num_states, num_actions, config)


def select_bench_problem(base_seed, index, config=bench.BenchConfig()):
    """The selection problem of select-bench instance (base_seed, index)."""
    return select_bench_instance(base_seed, index, config)[1]


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
    probability.

    Outcomes are walked source by source in lexicographic order, each
    state's likelihood product built left to right as `math.prod` builds it;
    a state leaves a partial outcome at its first likelihood of 0, and a
    partial outcome that every state has left is not extended: all of its
    outcomes have probability 0 and would be skipped.
    """
    rows = [sl.tolist() for sl in slices]
    total = 0.0

    def walk(depth: int, prods: dict[int, float]) -> None:
        nonlocal total
        if depth == len(rows):
            unnorm = np.array([belief[s] * prods.get(s, 0.0) for s in range(belief.size)])
            weight = unnorm.sum()
            if weight > 0.0:
                total += weight * _plain_entropy(unnorm / weight)
            return
        row = rows[depth]
        for y in range(len(row[0])):
            extended = {s: p * row[s][y] for s, p in prods.items() if row[s][y] != 0.0}
            if extended:
                walk(depth + 1, extended)

    walk(0, dict.fromkeys(range(belief.size), 1.0))
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


def oracle_bound_sides(
    belief: np.ndarray,
    prior: np.ndarray,
    slices: list[np.ndarray],
    greedy: tuple[int, ...],
    optimal: tuple[int, ...],
    alphas: np.ndarray,
    reward: np.ndarray,
    discount: float,
) -> tuple[float, float, float, float]:
    """(lhs, rhs) of the belief-distance check, then (lhs, rhs) of the
    value-loss check, as one loop over the joint reports of greedy | optimal.

    Each report has its probability under `prior`; reports of probability 0
    are skipped.  Distance: E|b_greedy - b_optimal|_1 against
    sqrt((2/sqrt(e)) * E[KL(b_optimal || belief)]).  Value: E[V(b_greedy) -
    V(b_optimal)], V the max over the rows of `alphas`, against the distance
    rhs times max(|R_max|, |R_min|) / (1 - discount).
    """
    n = len(belief)
    union = sorted(set(greedy) | set(optimal))

    def posterior(subset, report):
        weights = [belief[s] * math.prod(slices[i][s, report[i]] for i in subset) for s in range(n)]
        total = sum(weights)
        return [w / total for w in weights]

    distance = expected_kl = loss = 0.0
    for symbols in product(*(range(slices[i].shape[1]) for i in union)):
        report = dict(zip(union, symbols))
        p_report = sum(prior[s] * math.prod(slices[i][s, report[i]] for i in union) for s in range(n))
        if p_report == 0.0:
            continue
        post_g = posterior(greedy, report)
        post_o = posterior(optimal, report)
        distance += p_report * sum(abs(g - o) for g, o in zip(post_g, post_o))
        expected_kl += p_report * sum(
            o * math.log(o / belief[s]) for s, o in enumerate(post_o) if o > 0.0
        )
        loss += p_report * (oracle_value(alphas, post_g) - oracle_value(alphas, post_o))
    delta = math.sqrt(max(2.0 / math.sqrt(math.e) * expected_kl, 0.0))
    reward_scale = max(abs(float(x)) for x in np.ravel(reward))
    return distance, delta, loss, delta * reward_scale / (1.0 - discount)


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
    support carry no weight, so they are left out before enumerating.  Each
    subset's conditional entropy is enumerated once and remembered, since a
    round that adds nothing rescores the same subsets.
    """
    support = [s for s in range(belief.size) if belief[s] > 0.0]
    prior = np.array([belief[s] for s in support])
    columns = [np.array([sl[s] for s in support]) for sl in slices]
    known: dict[tuple[int, ...], float] = {}

    def h(subset):
        key = tuple(subset)
        if key not in known:
            known[key] = oracle_conditional_entropy(prior, [columns[i] for i in key])
        return known[key]

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


def oracle_brute_force(
    belief: np.ndarray,
    slices: list[np.ndarray],
    costs: list[float],
    budget: float,
    tie_tol: float = 1e-12,
) -> tuple[tuple[int, ...], float]:
    """The best affordable subset and its entropy drop, by scoring every
    subset of every size.

    A subset is affordable when `sum` of its costs, in index order, is within
    the budget; the empty set scores 0.  Drops within tie_tol of the best go
    to the lexicographically smallest subset.
    """
    prior_entropy = oracle_conditional_entropy(belief, [])
    scored = [((), 0.0)]
    for mask in range(1, 2 ** len(slices)):
        subset = tuple(j for j in range(len(slices)) if mask >> j & 1)
        if sum(costs[j] for j in subset) <= budget:
            drop = prior_entropy - oracle_conditional_entropy(belief, [slices[j] for j in subset])
            scored.append((subset, drop))
    best = max(drop for _, drop in scored)
    return min(subset for subset, drop in scored if drop >= best - tie_tol), best


# ---------------------------------------------------------------------------
# Grid-world oracles.  Actions are (up, right, down, left, stop); cells are
# numbered row by row.
# ---------------------------------------------------------------------------

_GRID_MOVES = ((-1, 0), (0, 1), (1, 0), (0, -1))
_GRID_PERPENDICULAR = ((3, 1), (0, 2), (3, 1), (0, 2))


def oracle_grid_transition(width: int, height: int, goal: int, success: float) -> np.ndarray:
    """T[s, a, s'] as a loop over cells: the success share, the two
    perpendicular slips ((1 - success) / 3 each) and staying put, added to
    each entry in that order, any share pointing off the grid added to s
    itself; stop and every action at the goal stay put.  An entry that
    rounds above 1 is read as 1."""
    n = width * height
    side = (1.0 - success) / 3.0
    transition = np.zeros((n, 5, n))

    def target(cell, move):
        row, col = divmod(cell, width)
        row, col = row + _GRID_MOVES[move][0], col + _GRID_MOVES[move][1]
        return row * width + col if 0 <= row < height and 0 <= col < width else cell

    for s in range(n):
        if s == goal:
            for a in range(5):
                transition[s, a, s] = 1.0
            continue
        for a in range(4):
            transition[s, a, target(s, a)] += success
            for p in _GRID_PERPENDICULAR[a]:
                transition[s, a, target(s, p)] += side
            transition[s, a, s] += side
            for s_next in range(n):
                transition[s, a, s_next] = min(transition[s, a, s_next], 1.0)
        transition[s, 4, s] = 1.0
    return transition


def oracle_uav_likelihood(
    width: int, height: int, center: int, radius: int, accuracy: float
) -> np.ndarray:
    """L[s, a, y] of one UAV over a center: the symbols are the cells within
    `radius` rows and columns of the center, ascending, then "not seen".  A
    cell in view is reported as itself with `accuracy` and as each other
    symbol with the rest split evenly; a cell out of view is "not seen"."""
    n = width * height
    crow, ccol = divmod(center, width)
    view = [
        cell
        for cell in range(n)
        if abs(cell // width - crow) <= radius and abs(cell % width - ccol) <= radius
    ]
    m = len(view) + 1
    miss = (1.0 - accuracy) / (m - 1)
    likelihood = np.zeros((n, 5, m))
    for s in range(n):
        for a in range(5):
            for y in range(m):
                if s not in view:
                    likelihood[s, a, y] = 1.0 if y == m - 1 else 0.0
                else:
                    likelihood[s, a, y] = accuracy if y == view.index(s) else miss
    return likelihood


# ---------------------------------------------------------------------------
# Planning oracles
# ---------------------------------------------------------------------------


def oracle_value(alphas, belief) -> float:
    """V(b): the largest row . b over the rows of `alphas`, each summed as a
    plain loop over the states."""
    return max(sum(row[s] * belief[s] for s in range(len(belief))) for row in alphas)


def oracle_point_values(alphas, points: np.ndarray) -> np.ndarray:
    """V at every row of `points` (B, S): per point, the largest of the
    rows' scores, each row scored on its own as one `points @ row`.  The
    solve's dot table rounds each column the same way, so these values
    equal the solve's bit for bit."""
    return np.max([points @ row for row in alphas], axis=0)


def oracle_sample_beliefs(num_states: int, count: int, seed: int) -> np.ndarray:
    """The sampled belief rows as a loop: the flat-Dirichlet draws, then the
    uniform belief, then the corners, each row kept unless a row with the
    same bytes came before it.  One state gives the one point [1.0]."""
    if num_states == 1:
        return np.array([[1.0]])
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


def oracle_backup(
    pomdp: Pomdp, previous: np.ndarray, points: np.ndarray, tie_tol: float = 1e-12
) -> list[tuple[int, np.ndarray]]:
    """The plain PBVI backup as a loop: per point, every action and
    observation's projection of every previous vector, the first maximum kept
    per observation, and the lowest action whose value is within tie_tol of
    the best; then each (action, coefficients) once, in first-point order
    (coefficients within 1e-9 count as one)."""
    emitted: list[tuple[int, np.ndarray]] = []
    for b in points:
        candidates = []
        for a in range(pomdp.num_actions):
            coeffs = pomdp.reward[:, a].copy()
            for w in range(pomdp.num_observations):
                projected = [
                    pomdp.discount * (pomdp.transition[:, a, :] @ (pomdp.observation[:, a, w] * alpha))
                    for alpha in previous
                ]
                coeffs += max(projected, key=lambda g: float(g @ b))
            candidates.append((float(coeffs @ b), a, coeffs))
        top = max(value for value, _, _ in candidates)
        best = next((a, coeffs) for value, a, coeffs in candidates if value >= top - tie_tol)
        if not any(a == best[0] and np.allclose(c, best[1], rtol=0, atol=1e-9) for a, c in emitted):
            emitted.append(best)
    return emitted


def oracle_action_values(pomdp: Pomdp, previous: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Every action's backed-up value at every point, (B, A): R(., a) . b
    plus, per observation, the best of the projections
    g[w, k] = discount * T_a (O(., a, w) * alpha_k), each built on its own."""
    values = points @ pomdp.reward
    for a in range(pomdp.num_actions):
        for w in range(pomdp.num_observations):
            projected = [
                pomdp.discount * (pomdp.transition[:, a, :] @ (pomdp.observation[:, a, w] * alpha))
                for alpha in previous
            ]
            values[:, a] += np.max([points @ g for g in projected], axis=0)
    return values


def oracle_pool_and_prune(backed_up: np.ndarray, current: np.ndarray, points: np.ndarray) -> list[int]:
    """One acceptance step of the monotone solve as a loop: pool the
    backed-up rows, then the current rows, and keep every row that is some
    point's first maximum.  Returns their pool indices in pool order.  Each
    row is scored on its own, one `points @ row`, so a row's scores never
    depend on which other rows are pooled."""
    pool = list(backed_up) + list(current)
    scores = [points @ row for row in pool]
    kept = set()
    for b in range(len(points)):
        best = 0
        for k in range(1, len(pool)):
            if scores[k][b] > scores[best][b]:
                best = k
        kept.add(best)
    return sorted(kept)
