"""Budgeted selection of auxiliary information sources.

Utility of a subset is the mutual information between the state and the
subset's reports, i.e. the expected drop in belief entropy.  Selection runs a
cost-scaled greedy scheme with a best-affordable-singleton fallback; because
the utility is monotone submodular for state-conditionally independent
sources, the greedy pick with beta=1 is guaranteed a (1 - 1/sqrt(e)) fraction
of the exhaustive optimum.  Exhaustive baselines and empirical checks of the
paper's belief-distance and value-loss bounds live here too.  The checks take
expectations over the joint reports of the union of the greedy and the
optimal selection; the belief-distance inequality, in the paper's form, fails
on about 1 random instance in 500 (select-bench (20, 37) and (23, 40)).
Both selections' tables are laid out on the union's axes, with products in
the union's order, so equal sets picked in different orders give a gap of
exactly 0.

The greedy scheme scores only candidates the remaining budget can still pay
for: budgets only shrink, so a candidate dropped for its cost would never be
added.  It scores by the conditional-independence identity
I(S; Y_U) = H(Y_U) - sum_{j in U} H(Y_j | S) (Krause & Guestrin, UAI 2005):
it keeps the chosen set's joint table p(outcome, state) over the reachable
outcomes only, extends it by one source per pick, and scores each round's
candidates with one product of that table and the sources' likelihoods side
by side, taking logs over the report marginal p(outcome, report) only, never
over (outcome x state) tables.  Ratios (and singleton utilities) within
1e-12 of the best count as tied, and ties go to the lowest source index, so
rounding never decides an exact tie.  The episode loop takes only the picks;
the utility `generalized_greedy` reports is still `mutual_information` of the
picked set.

The sources of a problem form a `SourceSet`, a checked tuple that builds the
tables greedy reads once, on first use, and keeps them: the costs, the
likelihoods side by side and each source's noise rows sum_y L log L (which
give H(Y_j | S) under any belief) per action, and the costs scaled by the
last beta accepted.  `SelectionProblem` wraps a plain tuple in a new set; a
caller that passes one set to many problems, as the grid world does at every
step of a patrol phase, builds those tables once.

The exhaustive search walks the affordable subsets depth first, in
lexicographic order: each subset's table is its prefix's times one more
likelihood, and a subset over the budget is not extended, since costs are
positive.

All entropies are in nats.  `conditional_entropy`, the exhaustive search and
the bound checks enumerate (outcome x state) tables over the joint outcome
alphabet of the chosen sources; that alphabet, in greedy's scoring too, is
limited by `DEFAULT_JOINT_CAP`, read at call time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, compress
from typing import Iterable

import numpy as np

from .pbvi import ValueFunction
from .pomdp import (
    Belief,
    InfoSource,
    PerceptionAction,
    Pomdp,
    ZeroLikelihoodObservation,
    _TIE_TOL,
    _first_within_tol,
    _frozen_array,
    _xlogx,
)

__all__ = [
    "DEFAULT_JOINT_CAP",
    "BRUTE_FORCE_MAX_SOURCES",
    "GREEDY_GUARANTEE",
    "JointAlphabetTooLarge",
    "TooManySources",
    "SourceSet",
    "SelectionProblem",
    "SelectionOutcome",
    "BoundReport",
    "entropy",
    "conditional_entropy",
    "mutual_information",
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


class JointAlphabetTooLarge(RuntimeError):
    """The joint outcome alphabet of the requested subset exceeds the cap."""


class TooManySources(ValueError):
    """Exhaustive enumeration refused; the subset lattice is too large."""


class SourceSet(tuple):
    """Checked, immutable tuple of the information sources offered together.

    Its sources share one state count and one action count, checked once on
    construction; the set may be empty.  It equals the plain tuple of the
    same sources.  The tables greedy selection reads are built on first use
    and kept, read-only: the costs, alphabet sizes and column starts, per
    action the likelihoods side by side and the noise rows, and the costs
    scaled by the last beta accepted.  When no action changes any source's
    rows (as for every UAV), one table set serves every action.
    """

    def __new__(cls, sources: Iterable[InfoSource] = ()) -> SourceSet:
        self = super().__new__(cls, sources)
        shapes = {src.likelihood.shape[:2] for src in self}
        if len({num_states for num_states, _ in shapes}) > 1:
            raise ValueError("source state dimensions differ between sources")
        if len(shapes) > 1:
            raise ValueError("source action counts differ between sources")
        # (num_states, num_actions), or None for an empty set.
        self.shape = shapes.pop() if shapes else None
        self._tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._scaled: tuple[float, np.ndarray] | None = None
        return self

    @cached_property
    def costs(self) -> np.ndarray:
        """Each source's cost, read-only."""
        return _frozen_array([src.cost for src in self])

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        """Each source's alphabet size."""
        return tuple(src.num_symbols for src in self)

    @cached_property
    def starts(self) -> np.ndarray:
        """Each source's first column in `tables`' likelihoods, read-only."""
        return _frozen_array([0, *accumulate(self.sizes[:-1])], dtype=np.intp)

    @cached_property
    def _action_free(self) -> bool:
        """No action changes any source's rows: each stores one row set."""
        return all(src.likelihood.strides[1] == 0 for src in self)

    def tables(self, action: int) -> tuple[np.ndarray, np.ndarray]:
        """For `action`, the likelihoods side by side and the noise rows.

        The first is (S, sum of the alphabet sizes), source j's columns
        starting at `starts[j]`; the second is (J, S), row j being source j's
        sum_y L log L, which dotted with a belief gives -H(Y_j | S).  Built
        on first use per action, or once for every action of an action-free
        set; read-only.  The set must not be empty.
        """
        key = 0 if self._action_free else action
        tables = self._tables.get(key)
        if tables is None:
            stacked = np.concatenate([src.likelihood[:, action, :] for src in self], axis=1)
            noise_rows = np.array([src.noise_rows[action] for src in self])
            for arr in (stacked, noise_rows):
                arr.setflags(write=False)
            tables = self._tables[key] = (stacked, noise_rows)
        return tables

    def scaled_costs(self, beta: float) -> np.ndarray:
        """costs**beta, read-only, for a beta `_check_beta` accepts; the last
        beta accepted is remembered with its array."""
        if self._scaled is None or self._scaled[0] != beta:
            scaled = _check_beta(beta, self.costs)
            scaled.setflags(write=False)
            self._scaled = (beta, scaled)
        return self._scaled[1]


@dataclass(frozen=True, eq=False)
class SelectionProblem:
    """One per-step selection instance.

    belief   current (post-intrinsic-update) belief
    action   the action just taken, indexing the sources' likelihoods
    sources  available channels, each with its own alphabet and cost; any
             iterable, stored as a `SourceSet` (a set passed in is kept, so
             its tables are shared with every problem it serves)
    budget   cap on the summed cost of the selected subset
    beta     cost-scaling exponent in the greedy ratio
    """

    belief: Belief
    action: int
    sources: SourceSet
    budget: float
    beta: float = 1.0

    def __post_init__(self) -> None:
        sources = self.sources if isinstance(self.sources, SourceSet) else SourceSet(self.sources)
        action = int(self.action)
        if sources:
            num_states, num_actions = sources.shape
            if num_states != self.belief.num_states:
                raise ValueError("source state dimension does not match the belief")
            if not 0 <= action < num_actions:
                raise ValueError("action index out of range for a source")
        if not float(self.budget) > 0.0:
            raise ValueError("budget must be positive")
        sources.scaled_costs(float(self.beta))
        object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "budget", float(self.budget))
        object.__setattr__(self, "beta", float(self.beta))

    @property
    def num_sources(self) -> int:
        return len(self.sources)


def _check_beta(beta: float, costs) -> np.ndarray:
    """costs**beta, refusing a beta that is not positive or takes a cost to a
    power that is not finite and positive: the greedy ratio divides by
    cost**beta."""
    with np.errstate(over="ignore"):
        scaled = np.asarray(costs, dtype=float) ** beta
    if not (beta > 0.0 and np.all(np.isfinite(scaled) & (scaled > 0.0))):
        raise ValueError(f"beta must be positive, with every cost**beta finite and positive, got {beta}")
    return scaled


@dataclass(frozen=True)
class SelectionOutcome:
    selected: PerceptionAction
    utility: float
    total_cost: float


def entropy(belief: Belief) -> float:
    """Shannon entropy in nats, with 0 log 0 = 0."""
    return float(-_xlogx(belief.probs).sum())


def _check_alphabet(sizes: list[int]) -> None:
    """Refuse a joint alphabet whose size, the product of `sizes`, exceeds
    `DEFAULT_JOINT_CAP` (read at call time)."""
    if math.prod(sizes) > DEFAULT_JOINT_CAP:
        raise JointAlphabetTooLarge(f"joint alphabet needs more than {DEFAULT_JOINT_CAP} outcomes")


def _joint_weights(
    problem: SelectionProblem, order: PerceptionAction, members: PerceptionAction | None = None
) -> np.ndarray:
    """Product likelihood p(reports | state) with one axis per source of
    `order`, then the state axis.

    Only the sources of `members` (default: all of `order`) enter the
    product, in `order`'s order; every other axis has length 1, so tables of
    subsets of one order broadcast against each other.  The members' joint
    alphabet must fit `DEFAULT_JOINT_CAP`.
    """
    members = order if members is None else members
    _check_alphabet([problem.sources[i].num_symbols for i in members])
    weights = np.ones(problem.belief.num_states)
    for i in order:
        weights = weights[..., None, :]
        if i in members:
            weights = weights * problem.sources[i].likelihood[:, problem.action, :].T
    return weights


def conditional_entropy(problem: SelectionProblem, subset: PerceptionAction) -> float:
    """Expected posterior entropy of the state given the subset's reports.

    Sums H(outcome, state) - H(outcome) over the subset's joint outcome
    alphabet; for the empty subset this is just the entropy of the current
    belief.
    """
    return _table_entropy(_joint_weights(problem, subset), problem.belief.probs)


def _table_entropy(weights: np.ndarray, probs: np.ndarray) -> float:
    """H(state | outcome) under the belief `probs`, for a product likelihood
    with one axis per source, then the state axis."""
    joint = weights.reshape(-1, probs.size) * probs[None, :]
    return float(_xlogx(joint.sum(axis=-1)).sum(axis=-1) - _xlogx(joint).sum(axis=(-2, -1)))


def mutual_information(problem: SelectionProblem, subset: PerceptionAction) -> float:
    """Utility of a subset: entropy of the belief minus conditional entropy.

    Values within 1e-12 of zero are clamped to exactly 0; floating-point sums
    can dip a hair below zero for uninformative subsets.
    """
    return _clamp(entropy(problem.belief) - conditional_entropy(problem, subset))


def _clamp(gain: float) -> float:
    """`gain`, or exactly 0 within _MI_CLAMP of zero."""
    return 0.0 if abs(gain) < _MI_CLAMP else gain


def generalized_greedy(problem: SelectionProblem) -> SelectionOutcome:
    """Cost-scaled greedy selection with a best-singleton fallback.

    Repeatedly picks the candidate maximizing (entropy drop) / cost**beta and
    adds it, until no candidate is left.  Before each round every candidate
    the remaining budget cannot cover leaves the pool; this is the paper's
    rule (pick the argmax, add it if the budget permits, drop it either way)
    without the rounds that would drop an unaffordable argmax and change
    nothing.  The result is whichever of the constructed subset and the best
    affordable singleton carries the higher mutual information; the
    singletons' are the first round's scores.  If no single source is
    affordable the empty selection is returned.

    Candidates are scored by the conditional-independence identity: for the
    chosen set C and a candidate j, I(S; Y_C, Y_j) = H(Y_C, Y_j) -
    sum_{i in C + j} H(Y_i | S).  The noise terms H(Y_i | S) are one product
    of the belief with the source set's cached noise rows, which are built
    once per set, not per call.  Each round takes logs only
    over the report marginal p(outcome of C, report of j), never over the
    joint (outcome x state) table: the chosen set's joint table
    p(outcome, state), which keeps only outcomes of positive probability and
    grows by one source per pick, is multiplied once per round with all the
    sources' likelihoods laid side by side, and each source's terms are
    summed over its own columns; sources outside the pool are scored but
    never picked.  Every scored subset's full joint alphabet must stay
    within `DEFAULT_JOINT_CAP`.  Ratios within 1e-12 of the best go to the
    lowest source index, the constructed subset wins a tie with the best
    singleton, and the lowest index wins a tie between singletons.  The
    reported utility is `mutual_information` of the picked set; the episode
    loop runs the same selection without it, since it reads only the picks.
    """
    picked, picked_cost = _greedy_picks(problem)
    return SelectionOutcome(picked, mutual_information(problem, picked), picked_cost)


def _greedy_picks(problem: SelectionProblem) -> tuple[PerceptionAction, float]:
    """The selection and summed cost of `generalized_greedy`, without its
    utility."""
    sources = problem.sources
    costs = sources.costs
    affordable = costs <= problem.budget
    if not affordable.any():
        return PerceptionAction(), 0.0
    probs = problem.belief.probs
    sizes, starts = sources.sizes, sources.starts
    scaled_costs = sources.scaled_costs(problem.beta)
    # stacked[s, starts[j] + y] = p(source j reports y | state s).
    stacked, noise_rows = sources.tables(problem.action)
    # noise[j] = -H(Y_j | S) under the belief.
    noise = noise_rows @ probs

    live = affordable.copy()                   # the candidates left in the pool
    chosen: list[int] = []
    chosen_cost = 0.0
    table = probs[None, :]                     # p(outcome, state) of `chosen`
    noise_chosen = 0.0
    mi_chosen = 0.0
    while True:
        _check_alphabet([sizes[j] for j in chosen] + [max(compress(sizes, live))])
        terms = _xlogx(table @ stacked).sum(axis=0)
        mi = noise_chosen + noise - np.add.reduceat(terms, starts)
        if not chosen:
            singles = np.where(affordable, mi, -np.inf)
        best = int(_first_within_tol(np.where(live, (mi - mi_chosen) / scaled_costs, -np.inf)))
        chosen.append(best)
        chosen_cost += sources[best].cost
        noise_chosen += noise[best]
        mi_chosen = float(mi[best])
        live[best] = False
        live &= chosen_cost + costs <= problem.budget
        if not live.any():
            break
        columns = stacked[:, starts[best] : starts[best] + sizes[best]]
        extended = (table[:, None, :] * columns.T).reshape(-1, probs.size)
        table = extended[extended.any(axis=1)]

    if mi_chosen >= singles.max() - _TIE_TOL:
        return PerceptionAction(chosen), chosen_cost
    best_single = int(_first_within_tol(singles))
    return PerceptionAction((best_single,)), sources[best_single].cost


def brute_force_optimal(problem: SelectionProblem) -> SelectionOutcome:
    """Exhaustive optimum over all budget-feasible subsets.

    Exact-utility ties keep the lexicographically smallest index set (the
    empty set participates with utility 0).  Subsets are walked depth first
    in lexicographic order, each subset's product likelihood being its
    prefix's times one more source's; costs are positive, so a subset over
    the budget is not extended.  A subset's cost is
    `sum(costs[j] for j in subset)`, and each affordable subset's joint
    alphabet must fit `DEFAULT_JOINT_CAP`.  Refuses more than
    BRUTE_FORCE_MAX_SOURCES sources.
    """
    n = problem.num_sources
    if n > BRUTE_FORCE_MAX_SOURCES:
        raise TooManySources(f"{n} sources; exhaustive cap is {BRUTE_FORCE_MAX_SOURCES}")
    sources = problem.sources
    costs = [src.cost for src in sources]
    columns = [src.likelihood[:, problem.action, :].T for src in sources]
    probs = problem.belief.probs
    prior_entropy = entropy(problem.belief)
    best: tuple[tuple[int, ...], float, float] = ((), 0.0, 0.0)

    def extend(prefix: tuple[int, ...], weights: np.ndarray) -> None:
        nonlocal best
        for j in range(prefix[-1] + 1 if prefix else 0, n):
            combo = (*prefix, j)
            total = sum(costs[i] for i in combo)
            if total > problem.budget:
                continue
            _check_alphabet([sources.sizes[i] for i in combo])
            table = weights[..., None, :] * columns[j]
            utility = _clamp(prior_entropy - _table_entropy(table, probs))
            # Subsets come in lexicographic order, so an exact tie keeps the
            # smaller index set found first.
            if utility > best[1]:
                best = (combo, utility, total)
            extend(combo, table)

    extend((), np.ones(probs.size))
    selected, utility, total = best
    return SelectionOutcome(PerceptionAction(selected), utility, total)


# ---------------------------------------------------------------------------
# Empirical bound checks over the joint reports of the union of the greedy and
# the optimal selection: the paper's belief-distance (theorem 2) and value-loss
# (theorem 3) inequalities.  Theorem 2 as the paper states it fails on about 1
# random instance in 500, e.g. select-bench (20, 37) and (23, 40).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """One empirical inequality check: passes iff lhs <= rhs + 1e-9."""

    lhs: float
    rhs: float
    passed: bool
    greedy: PerceptionAction
    optimal: PerceptionAction


def _bound_terms(
    problem: SelectionProblem,
    prior: Belief,
    greedy: SelectionOutcome | None,
    optimal: SelectionOutcome | None,
):
    """The greedy and the optimal selection (computed when not given), the
    prior probability of each joint report of their union that can occur,
    both posteriors at each such report, and the belief-distance bound.
    Other sources' reports change neither posterior and, being independent
    given the state, sum out exactly.  Every table is laid out on the
    union's axes, so each selection's table broadcasts to the union's."""
    g = (greedy if greedy is not None else generalized_greedy(problem)).selected
    o = (optimal if optimal is not None else brute_force_optimal(problem)).selected
    union = PerceptionAction(dict.fromkeys((*g, *o)))
    union_probs = _joint_weights(problem, union) @ prior.probs
    reached = union_probs > 0.0
    probs = union_probs[reached]
    posteriors = []
    for subset in (g, o):
        table = _joint_weights(problem, union, subset) * problem.belief.probs
        unnormalized = np.broadcast_to(table, union_probs.shape + table.shape[-1:])[reached]
        normalizers = unnormalized.sum(axis=1, keepdims=True)
        if np.any(normalizers <= 0.0):
            raise ZeroLikelihoodObservation("prior reaches outcomes the belief rules out")
        posteriors.append(unnormalized / normalizers)
    post_g, post_o = posteriors
    # A posterior is positive only where the belief is, so the ratio is safe.
    ratio = np.divide(post_o, problem.belief.probs, out=np.ones_like(post_o), where=post_o > 0.0)
    expected_kl = float(probs @ (post_o * np.log(ratio)).sum(axis=1))
    delta = math.sqrt(max((2.0 / math.sqrt(math.e)) * expected_kl, 0.0))
    return g, o, probs, post_g, post_o, delta


def check_distance_bound(
    problem: SelectionProblem,
    prior: Belief,
    greedy: SelectionOutcome | None = None,
    optimal: SelectionOutcome | None = None,
) -> BoundReport:
    """Expected L1 distance between greedy- and optimal-updated beliefs versus
    the paper's bound sqrt((2/sqrt(e)) * E[KL(optimal posterior || belief)]).

    Expectations run over the joint reports of the union of the two
    selections under `prior`, skipping reports of probability 0; only the
    union's joint alphabet must fit `DEFAULT_JOINT_CAP`.  Both posteriors
    come from one table layout on the union's axes, with products in the
    union's order, so selections of the same set in any two orders give an
    lhs of exactly 0.  The paper's inequality is not proven when the
    selections differ and fails on about 1 random instance in 500, e.g.
    select-bench (20, 37) and (23, 40).
    """
    g, o, probs, post_g, post_o, rhs = _bound_terms(problem, prior, greedy, optimal)
    lhs = float(probs @ np.abs(post_g - post_o).sum(axis=1))
    return BoundReport(lhs, rhs, lhs <= rhs + _BOUND_SLACK, g, o)


def check_value_bound(
    vf: ValueFunction,
    problem: SelectionProblem,
    prior: Belief,
    pomdp: Pomdp,
    greedy: SelectionOutcome | None = None,
    optimal: SelectionOutcome | None = None,
) -> BoundReport:
    """Expected value gap E[V(greedy belief) - V(optimal belief)] versus the
    bound delta * max(|R_max|, |R_min|) / (1 - discount), where delta is the
    belief-distance bound of `check_distance_bound`, over the same reports."""
    g, o, probs, post_g, post_o, delta = _bound_terms(problem, prior, greedy, optimal)
    values_g = (post_g @ vf.matrix.T).max(axis=1)
    values_o = (post_o @ vf.matrix.T).max(axis=1)
    lhs = float(probs @ (values_g - values_o))
    reward_scale = max(abs(float(pomdp.reward.max())), abs(float(pomdp.reward.min())))
    rhs = delta * reward_scale / (1.0 - pomdp.discount)
    return BoundReport(lhs, rhs, lhs <= rhs + _BOUND_SLACK, g, o)
