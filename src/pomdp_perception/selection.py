"""Budgeted selection of auxiliary information sources.

Utility of a subset is the mutual information between the state and the
subset's reports, i.e. the expected drop in belief entropy.  Selection runs a
cost-scaled greedy scheme with a best-affordable-singleton fallback; because
the utility is monotone submodular for state-conditionally independent
sources, the greedy pick with beta=1 is guaranteed a (1 - 1/sqrt(e)) fraction
of the exhaustive optimum.  Exhaustive baselines and empirical checks of the
induced belief-distance and value-loss bounds live here too.

The greedy scheme scores only candidates the remaining budget can still pay
for: budgets only shrink, so a candidate dropped for its cost would never be
added.  It keeps the chosen set's joint table p(outcome, state) over the
reachable outcomes only, extends it by one source per pick, and scores each
round's candidates in one vectorized pass.  Ratios (and singleton entropies)
within 1e-12 of the best count as tied, and ties go to the lowest source
index, so rounding never decides an exact tie.

All entropies are in nats.  Conditional entropies enumerate the joint outcome
alphabet of the chosen sources, so subset sizes are limited by `joint_cap`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .pbvi import ValueFunction
from .pomdp import (
    Belief,
    InfoSource,
    PerceptionAction,
    Pomdp,
    ZeroLikelihoodObservation,
)

__all__ = [
    "DEFAULT_JOINT_CAP",
    "BRUTE_FORCE_MAX_SOURCES",
    "GREEDY_GUARANTEE",
    "JointAlphabetTooLarge",
    "TooManySources",
    "SelectionProblem",
    "SelectionOutcome",
    "BoundReport",
    "entropy",
    "conditional_entropy",
    "mutual_information",
    "marginal_gain",
    "generalized_greedy",
    "brute_force_optimal",
    "check_distance_bound",
    "check_value_bound",
]

DEFAULT_JOINT_CAP = 10_000_000
BRUTE_FORCE_MAX_SOURCES = 20
# Approximation guarantee of the cost-scaled greedy scheme at beta=1.
GREEDY_GUARANTEE = 1.0 - math.exp(-0.5)
# Tiny negative utilities are floating-point dust, not information.
_MI_CLAMP = 1e-12
# Slack for the empirical inequality checks.
_BOUND_SLACK = 1e-9
# Greedy ratios and singleton entropies this close count as tied; the lowest
# source index wins a tie.
_TIE_TOL = 1e-12


class JointAlphabetTooLarge(RuntimeError):
    """The joint outcome alphabet of the requested subset exceeds the cap."""


class TooManySources(ValueError):
    """Exhaustive enumeration refused; the subset lattice is too large."""


@dataclass(frozen=True, eq=False)
class SelectionProblem:
    """One per-step selection instance.

    belief   current (post-intrinsic-update) belief
    action   the action just taken, indexing the sources' likelihoods
    sources  available channels, each with its own alphabet and cost
    budget   cap on the summed cost of the selected subset
    beta     cost-scaling exponent in the greedy ratio
    """

    belief: Belief
    action: int
    sources: tuple[InfoSource, ...]
    budget: float
    beta: float = 1.0

    def __post_init__(self) -> None:
        sources = tuple(self.sources)
        for src in sources:
            if src.likelihood.shape[0] != self.belief.num_states:
                raise ValueError("source state dimension does not match the belief")
            if not 0 <= int(self.action) < src.likelihood.shape[1]:
                raise ValueError("action index out of range for a source")
        if not float(self.budget) > 0.0:
            raise ValueError("budget must be positive")
        if not float(self.beta) > 0.0:
            raise ValueError("beta must be positive")
        object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "action", int(self.action))
        object.__setattr__(self, "budget", float(self.budget))
        object.__setattr__(self, "beta", float(self.beta))

    @property
    def num_sources(self) -> int:
        return len(self.sources)


@dataclass(frozen=True)
class SelectionOutcome:
    selected: PerceptionAction
    utility: float
    total_cost: float


def _xlogx(arr: np.ndarray) -> np.ndarray:
    out = np.log(arr, out=np.zeros_like(arr), where=arr > 0.0)
    out *= arr
    return out


def entropy(belief: Belief) -> float:
    """Shannon entropy in nats, with 0 log 0 = 0."""
    return float(-_xlogx(belief.probs).sum())


def _likelihood_slices(problem: SelectionProblem, subset: PerceptionAction) -> list[np.ndarray]:
    return [problem.sources[i].likelihood[:, problem.action, :] for i in subset]


def _joint_weights(slices: list[np.ndarray], num_states: int, joint_cap: int) -> np.ndarray:
    """Product likelihood over the subset's joint alphabet, shape (J, S).

    Row order matches iterating the subset's alphabets with the last source
    varying fastest.  J is the product of the alphabet sizes.
    """
    joint = 1
    for sl in slices:
        joint *= sl.shape[1]
        if joint > joint_cap:
            raise JointAlphabetTooLarge(
                f"joint alphabet needs more than {joint_cap} outcomes"
            )
    weights = np.ones((1, num_states))
    for sl in slices:
        weights = (weights[:, None, :] * sl.T[None, :, :]).reshape(-1, num_states)
    return weights


def _conditional_entropy_of(joint: np.ndarray) -> np.ndarray:
    """H(state | outcome) = H(outcome, state) - H(outcome) of joint tables
    p(outcome, state) of shape (..., J, S), one value per leading index."""
    outcome = joint.sum(axis=-1)
    return _xlogx(outcome).sum(axis=-1) - _xlogx(joint).sum(axis=(-2, -1))


def conditional_entropy(
    problem: SelectionProblem,
    subset: PerceptionAction,
    joint_cap: int = DEFAULT_JOINT_CAP,
) -> float:
    """Expected posterior entropy of the state given the subset's reports.

    Sums over the subset's joint outcome alphabet; for the empty subset this
    is just the entropy of the current belief.
    """
    weights = _joint_weights(
        _likelihood_slices(problem, subset), problem.belief.num_states, joint_cap
    )
    return float(_conditional_entropy_of(weights * problem.belief.probs[None, :]))


def mutual_information(
    problem: SelectionProblem,
    subset: PerceptionAction,
    joint_cap: int = DEFAULT_JOINT_CAP,
) -> float:
    """Utility of a subset: entropy of the belief minus conditional entropy.

    Values within 1e-12 of zero are clamped to exactly 0; floating-point sums
    can dip a hair below zero for uninformative subsets.
    """
    gain = entropy(problem.belief) - conditional_entropy(problem, subset, joint_cap)
    return 0.0 if abs(gain) < _MI_CLAMP else gain


def marginal_gain(
    problem: SelectionProblem,
    subset: PerceptionAction,
    source: int,
    joint_cap: int = DEFAULT_JOINT_CAP,
) -> float:
    """Utility increase from adding `source` to `subset`."""
    if source in subset:
        raise ValueError(f"source {source} is already selected")
    return mutual_information(problem, subset.plus(source), joint_cap) - mutual_information(
        problem, subset, joint_cap
    )


def _first_within_tol(values: np.ndarray) -> int:
    """Lowest index whose value is within _TIE_TOL of the maximum."""
    return int(np.argmax(values >= values.max() - _TIE_TOL))


def generalized_greedy(
    problem: SelectionProblem,
    joint_cap: int = DEFAULT_JOINT_CAP,
) -> SelectionOutcome:
    """Cost-scaled greedy selection with a best-singleton fallback.

    Repeatedly picks the candidate maximizing (entropy drop) / cost**beta and
    adds it, until no candidate is left.  Before each round every candidate
    the remaining budget cannot cover leaves the pool; this is the paper's
    rule (pick the argmax, add it if the budget permits, drop it either way)
    without the rounds that would drop an unaffordable argmax and change
    nothing.  The result is whichever of the constructed subset and the best
    affordable singleton leaves the lower conditional entropy; the singleton
    entropies are the first round's scores.  If no single source is
    affordable the empty selection is returned.

    The chosen set's joint table p(outcome, state) keeps only outcomes of
    positive probability and grows by one source per pick; each round scores
    all candidates at once, each alphabet padded to the widest with outcomes
    of zero probability.  Every scored subset's full joint alphabet must stay
    within `joint_cap`.  Ratios within 1e-12 of the best go to the lowest source
    index, the constructed subset wins a tie with the best singleton, and the
    lowest index wins a tie between singletons.
    """
    sources = problem.sources
    num_states = problem.belief.num_states
    costs = [src.cost for src in sources]
    sizes = [src.num_symbols for src in sources]
    scaled_costs = np.array(costs) ** problem.beta
    # likelihoods[j, y, s] = p(source j reports y | state s); zero-padded.
    likelihoods = np.zeros((len(sources), max(sizes, default=0), num_states))
    for j, src in enumerate(sources):
        likelihoods[j, : sizes[j]] = src.likelihood[:, problem.action, :].T

    affordable = [j for j in range(len(sources)) if costs[j] <= problem.budget]
    pool = affordable
    chosen: list[int] = []
    chosen_cost = 0.0
    chosen_alphabet = 1
    table = problem.belief.probs[None, :]       # p(outcome, state) of `chosen`
    h_chosen = float(_conditional_entropy_of(table))
    h_singles = np.empty(0)
    while pool:
        if chosen_alphabet * max(sizes[j] for j in pool) > joint_cap:
            raise JointAlphabetTooLarge(f"joint alphabet needs more than {joint_cap} outcomes")
        joint = table[None, :, None, :] * likelihoods[pool][:, None, :, :]
        h = _conditional_entropy_of(joint.reshape(len(pool), -1, num_states))
        if not chosen:
            h_singles = h
        slot = _first_within_tol((h_chosen - h) / scaled_costs[pool])
        j_star = pool[slot]
        chosen.append(j_star)
        chosen_cost += costs[j_star]
        chosen_alphabet *= sizes[j_star]
        h_chosen = float(h[slot])
        extended = joint[slot].reshape(-1, num_states)
        table = extended[extended.any(axis=1)]
        pool = [j for j in pool if j != j_star and chosen_cost + costs[j] <= problem.budget]

    if not affordable:
        return SelectionOutcome(PerceptionAction.empty(), 0.0, 0.0)
    best_single = affordable[_first_within_tol(-h_singles)]
    if h_chosen <= h_singles.min() + _TIE_TOL:
        picked = PerceptionAction(tuple(chosen))
        picked_cost = chosen_cost
    else:
        picked = PerceptionAction((best_single,))
        picked_cost = costs[best_single]
    return SelectionOutcome(picked, mutual_information(problem, picked, joint_cap), picked_cost)


def brute_force_optimal(
    problem: SelectionProblem,
    joint_cap: int = DEFAULT_JOINT_CAP,
) -> SelectionOutcome:
    """Exhaustive optimum over all budget-feasible subsets.

    Exact-utility ties keep the lexicographically smallest index set (the
    empty set participates with utility 0).  Refuses more than
    BRUTE_FORCE_MAX_SOURCES sources.
    """
    n = problem.num_sources
    if n > BRUTE_FORCE_MAX_SOURCES:
        raise TooManySources(f"{n} sources; exhaustive cap is {BRUTE_FORCE_MAX_SOURCES}")
    costs = [src.cost for src in problem.sources]
    best_subset: tuple[int, ...] = ()
    best_utility = 0.0
    best_cost = 0.0
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            total = sum(costs[j] for j in combo)
            if total > problem.budget:
                continue
            utility = mutual_information(problem, PerceptionAction(combo), joint_cap)
            if utility > best_utility or (utility == best_utility and combo < best_subset):
                best_subset = combo
                best_utility = utility
                best_cost = total
    return SelectionOutcome(PerceptionAction(best_subset), best_utility, best_cost)


# ---------------------------------------------------------------------------
# Empirical bound checks: enumerate every joint outcome of all sources, update
# the belief under both the greedy and the optimal selection, and compare the
# expected belief distance (and value loss) against the analytic bounds.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """One empirical inequality check: passes iff lhs <= rhs + 1e-9."""

    lhs: float
    rhs: float
    passed: bool
    greedy: PerceptionAction
    optimal: PerceptionAction


def _posterior_table(
    problem: SelectionProblem,
    subset: PerceptionAction,
    joint_cap: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(weights, normalizers, posteriors) over the subset's joint alphabet.

    posteriors rows are valid only where the normalizer is positive.
    """
    num_states = problem.belief.num_states
    weights = _joint_weights(_likelihood_slices(problem, subset), num_states, joint_cap)
    unnormalized = weights * problem.belief.probs[None, :]
    normalizers = unnormalized.sum(axis=1)
    posteriors = np.zeros_like(unnormalized)
    mask = normalizers > 0.0
    posteriors[mask] = unnormalized[mask] / normalizers[mask, None]
    return weights, normalizers, posteriors


def _subset_row_index(
    syms: list[np.ndarray],
    sizes: list[int],
    subset: PerceptionAction,
) -> np.ndarray:
    """Map each full joint outcome row to the subset's own row index."""
    idx = np.zeros(syms[0].size if syms else 1, dtype=np.int64)
    for i in subset:
        idx = idx * sizes[i] + syms[i]
    return idx


def _full_joint(problem: SelectionProblem, prior: Belief, joint_cap: int):
    """Prior probabilities of ALL sources' joint outcomes plus symbol indices."""
    every = PerceptionAction(tuple(range(problem.num_sources)))
    outcome_probs = _joint_weights(
        _likelihood_slices(problem, every), problem.belief.num_states, joint_cap
    ) @ prior.probs
    sizes = [src.num_symbols for src in problem.sources]
    num_rows = outcome_probs.size
    syms = []
    stride = num_rows
    for m in sizes:
        stride //= m
        syms.append((np.arange(num_rows) // stride) % m)
    return outcome_probs, syms, sizes


def _expected_kl_to_belief(
    problem: SelectionProblem,
    prior: Belief,
    table: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> float:
    """E over the table's outcomes (under `prior`) of KL(posterior || belief)."""
    weights, normalizers, posteriors = table
    outcome_probs = weights @ prior.probs
    active = outcome_probs > 0.0
    if np.any(active & (normalizers <= 0.0)):
        raise ZeroLikelihoodObservation("prior reaches outcomes the belief rules out")
    post = posteriors[active]
    ref = problem.belief.probs[None, :]
    terms = np.zeros_like(post)
    mask = post > 0.0
    terms[mask] = post[mask] * np.log(post[mask] / np.broadcast_to(ref, post.shape)[mask])
    return float(outcome_probs[active] @ terms.sum(axis=1))


def _bound_terms(
    problem: SelectionProblem,
    prior: Belief,
    greedy: PerceptionAction,
    optimal: PerceptionAction,
    joint_cap: int,
):
    """Shared setup of the bound checks: the prior probabilities of the joint
    outcomes of all sources that can occur, the greedy and the optimal posterior
    tables with each such outcome's row in them, and the belief-distance bound."""
    outcome_probs, syms, sizes = _full_joint(problem, prior, joint_cap)
    active = outcome_probs > 0.0
    _, norm_g, post_g = _posterior_table(problem, greedy, joint_cap)
    table_o = _posterior_table(problem, optimal, joint_cap)
    _, norm_o, post_o = table_o
    idx_g = _subset_row_index(syms, sizes, greedy)[active]
    idx_o = _subset_row_index(syms, sizes, optimal)[active]
    if np.any(norm_g[idx_g] <= 0.0) or np.any(norm_o[idx_o] <= 0.0):
        raise ZeroLikelihoodObservation("prior reaches outcomes the belief rules out")
    expected_kl = _expected_kl_to_belief(problem, prior, table_o)
    delta = math.sqrt(max((2.0 / math.sqrt(math.e)) * expected_kl, 0.0))
    return outcome_probs[active], post_g, idx_g, post_o, idx_o, delta


def check_distance_bound(
    problem: SelectionProblem,
    prior: Belief,
    joint_cap: int = DEFAULT_JOINT_CAP,
    greedy: SelectionOutcome | None = None,
    optimal: SelectionOutcome | None = None,
) -> BoundReport:
    """Expected L1 distance between greedy- and optimal-updated beliefs versus
    its analytic bound.

    The expectation runs over the joint outcome distribution of all sources
    induced by `prior`; zero-probability outcomes are skipped.  The bound is
    sqrt((2/sqrt(e)) * E[KL(optimal posterior || current belief)]).
    """
    g = greedy if greedy is not None else generalized_greedy(problem, joint_cap)
    o = optimal if optimal is not None else brute_force_optimal(problem, joint_cap)
    probs, post_g, idx_g, post_o, idx_o, rhs = _bound_terms(
        problem, prior, g.selected, o.selected, joint_cap
    )
    lhs = float(probs @ np.abs(post_g[idx_g] - post_o[idx_o]).sum(axis=1))
    return BoundReport(lhs, rhs, lhs <= rhs + _BOUND_SLACK, g.selected, o.selected)


def check_value_bound(
    vf: ValueFunction,
    problem: SelectionProblem,
    prior: Belief,
    pomdp: Pomdp,
    joint_cap: int = DEFAULT_JOINT_CAP,
    greedy: SelectionOutcome | None = None,
    optimal: SelectionOutcome | None = None,
) -> BoundReport:
    """Expected value gap E[V(greedy belief) - V(optimal belief)] versus the
    bound delta * max(|R_max|, |R_min|) / (1 - discount), where delta is the
    belief-distance bound."""
    g = greedy if greedy is not None else generalized_greedy(problem, joint_cap)
    o = optimal if optimal is not None else brute_force_optimal(problem, joint_cap)
    probs, post_g, idx_g, post_o, idx_o, delta = _bound_terms(
        problem, prior, g.selected, o.selected, joint_cap
    )
    values_g = (post_g @ vf.matrix.T).max(axis=1)
    values_o = (post_o @ vf.matrix.T).max(axis=1)
    lhs = float(probs @ (values_g[idx_g] - values_o[idx_o]))
    reward_scale = max(abs(float(pomdp.reward.max())), abs(float(pomdp.reward.min())))
    rhs = delta * reward_scale / (1.0 - pomdp.discount)
    return BoundReport(lhs, rhs, lhs <= rhs + _BOUND_SLACK, g.selected, o.selected)
