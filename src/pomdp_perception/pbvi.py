"""Point-based value iteration over a fixed, uniformly sampled belief set.

The value function is a finite set of hyperplanes (alpha vectors), each tagged
with the action that generated it, stored as two frozen arrays: a (K, S) float
`matrix` of finite coefficients and a (K,) int `actions` vector of tags.  A
backup builds, for every sampled point, the best one-step lookahead
hyperplane against the previous set; the union of those per-point winners is
the next set.  It never builds a projection per (action, observation,
vector): it splits the sensor into a floor shared by every observation plus
the few entries that depart from it (`Pomdp.sensor_split`), so on the grid's
diagonal-plus-uniform sensor each observation adds a rank-1 term to one
shared score table.  `solve` iterates backups under the Perseus acceptance
rule, so point values never fall and the iteration converges.  Points are
sampled once up front and never adapted: the auxiliary observation channels
available at runtime are unknown when the plan is computed, so the sampler
covers the whole simplex instead of chasing reachable beliefs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np
from numpy.typing import ArrayLike

from .pomdp import Belief, Pomdp, _check_stochastic, _frozen_array

# Elements of (pairs, B, max(K, S)) scratch space `backup` scores one block of
# (action, observation) pairs in.  One pair of the stock map at 165 points
# (27k) fits, and so do all pairs of a select-bench model at once; larger
# blocks ran no faster on the stock map and raised the solve's peak memory.
_BLOCK_ELEMENTS = 1 << 15

__all__ = [
    "AlphaVector",
    "ValueFunction",
    "BeliefPointSet",
    "SolveResult",
    "sample_beliefs_uniform",
    "initialize_value",
    "backup",
    "prune",
    "solve",
    "value",
    "best_action",
    "point_values",
    "read_value_function",
    "write_value_function",
]


class AlphaVector(NamedTuple):
    """One linear facet of the value function, tagged with its action."""

    coeffs: np.ndarray
    action: int


@dataclass(frozen=True, eq=False, init=False)
class ValueFunction:
    """Nonempty set of alpha vectors; V(b) = max over the rows of matrix @ b.

    `matrix` (K, S) holds the finite coefficients and `actions` (K,) the
    nonnegative action tags; both are read-only copies.  Build one from
    `AlphaVector` records or, without per-vector objects, with `from_arrays`.
    """

    matrix: np.ndarray
    actions: np.ndarray

    def __init__(self, alphas: Iterable[AlphaVector]) -> None:
        alphas = tuple(alphas)
        if len({np.shape(a.coeffs) for a in alphas}) > 1:
            raise ValueError("alpha vectors must share the state dimension")
        self._store([a.coeffs for a in alphas], [a.action for a in alphas])

    @classmethod
    def from_arrays(cls, matrix: ArrayLike, actions: ArrayLike) -> ValueFunction:
        """Value function with rows `matrix` (K, S) tagged by `actions` (K,)."""
        vf = cls.__new__(cls)
        vf._store(matrix, actions)
        return vf

    def _store(self, matrix: ArrayLike, actions: ArrayLike) -> None:
        """The one validator: copy both arrays, check them, freeze them."""
        matrix = np.array(matrix, dtype=float)
        actions = np.array(actions, dtype=int)
        if len(matrix) == 0:
            raise ValueError("value function needs at least one alpha vector")
        if matrix.ndim != 2 or matrix.shape[1] == 0:
            raise ValueError("alpha vectors must be nonempty and share the state dimension")
        if actions.shape != matrix.shape[:1]:
            raise ValueError(f"{actions.size} action tags for {len(matrix)} alpha vectors")
        if np.any(actions < 0):
            raise ValueError("action tags must be nonnegative")
        if not np.isfinite(matrix).all():
            raise ValueError("alpha vector coefficients must be finite")
        matrix.setflags(write=False)
        actions.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "actions", actions)

    @property
    def num_states(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.matrix)


@dataclass(frozen=True, eq=False)
class BeliefPointSet:
    """The fixed set of sampled belief points backups are restricted to.

    `matrix` (B, S) holds one belief per row, B >= 1: a read-only copy,
    checked once by the probability validator of the model types.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        matrix = _frozen_array(self.matrix)
        if matrix.ndim != 2:
            raise ValueError("belief points must form a (points, states) matrix")
        _check_stochastic("belief points", matrix)
        object.__setattr__(self, "matrix", matrix)

    @property
    def num_states(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.matrix)


def sample_beliefs_uniform(num_states: int, count: int, seed: int) -> BeliefPointSet:
    """Draw `count` beliefs uniformly from the simplex (flat Dirichlet).

    The uniform belief and all simplex corners are always appended so the set
    covers the extremes regardless of count.  Exact duplicate rows are then
    dropped, the first copy kept, so the rows stay in draw order.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(seed)
    draws = rng.dirichlet(np.ones(num_states), size=count)
    rows = np.vstack((draws, np.full((1, num_states), 1.0 / num_states), np.eye(num_states)))
    _, first = np.unique(rows, axis=0, return_index=True)
    return BeliefPointSet(rows[np.sort(first)])


def initialize_value(pomdp: Pomdp) -> ValueFunction:
    """Single conservative hyperplane: collect the minimum reward forever."""
    low = float(pomdp.reward.min()) / (1.0 - pomdp.discount)
    return ValueFunction.from_arrays(np.full((1, pomdp.num_states), low), [0])


def value(vf: ValueFunction, belief: Belief) -> float:
    return float((vf.matrix @ belief.probs).max())


def best_action(vf: ValueFunction, belief: Belief) -> int:
    """Action tag of the maximizing alpha vector; ties keep the lowest index."""
    return int(vf.actions[int(np.argmax(vf.matrix @ belief.probs))])


def _dot_table(matrix: np.ndarray, points: BeliefPointSet) -> np.ndarray:
    """(num points, num vectors) dot products with the rows of `matrix`.

    Each column is a matvec against one vector, so its rounding never
    depends on which other vectors are in the set: pruning preserves point
    values bit-for-bit, and a column computed again equals the first.
    """
    table = np.empty((len(matrix), len(points)))
    for row, coeffs in zip(table, matrix):
        row[:] = points.matrix @ coeffs
    return table.T


def point_values(vf: ValueFunction, points: BeliefPointSet) -> np.ndarray:
    """V(b) for every sampled point, as a vector."""
    return _dot_table(vf.matrix, points).max(axis=1)


def backup(pomdp: Pomdp, previous: ValueFunction, points: BeliefPointSet) -> ValueFunction:
    """One point-based Bellman backup of `previous` over the sampled points.

    The operator is plain PBVI: per point b and action a, the vector
    R(., a) + discount * sum_w g[w, k_w], where
    g[w, k](s) = sum_s' T(s, a, s') O(s', a, w) alpha_k(s') and k_w is the
    previous vector maximizing g[w, k] . b.  Each point keeps its best
    action's vector, and the union over points is returned in first-point
    order with each (action, winners k_w) emitted once.

    No projection g[w, k] is ever built.  With N_a = discount * B T_a (B, S'),
    the score discount * g[w, k] . b is N_a (alpha_k * O(., a, w)), and the
    sensor splits as O(s', a, w) = u_a(s') + D_a(s', w) (`Pomdp.sensor_split`,
    u_a the minimum over observations).  So the score is a term
    N_a (alpha_k * u_a) shared by every observation plus one over the rows
    where D_a(., w) is nonzero: a rank-1 term for the grid's
    diagonal-plus-uniform sensor, every row for a dense random one.  A
    point's value for action a is R(., a) . b plus its winning scores; only
    the kept points' vectors are built, from the winners' sum
    Z_a(b) = sum_w alpha_{k_w} * O(., a, w), as
    R(., a) + discount * Z_a T_a^T.  The (action, observation) pairs are
    scored in blocks whose (pairs, B, max(K, S)) temporaries stay within
    _BLOCK_ELEMENTS, one pair per block at least, so a small model is scored
    in one pass and a large one in as little memory as one pair needs.

    Tie-breaking is deterministic throughout: the per-observation argmax keeps
    the lowest vector index and the per-point action argmax the lowest action.
    """
    value_ba, winners = _best_responses(pomdp, previous.matrix, points.matrix)
    best_a = np.argmax(value_ba, axis=1)
    first: dict[tuple[int, bytes], int] = {}
    for b, a in enumerate(best_a.tolist()):
        first.setdefault((a, winners[a, b].tobytes()), b)
    keep = np.fromiter(first.values(), dtype=int, count=len(first))
    tags = best_a[keep]
    sums = _winner_sums(pomdp, previous.matrix, winners[tags, keep], tags)
    matrix = np.empty_like(sums)
    for a in np.unique(tags).tolist():
        mine = tags == a
        trans = pomdp.transition[:, a, :]
        matrix[mine] = pomdp.reward[:, a] + pomdp.discount * (sums[mine] @ trans.T)
    return ValueFunction.from_arrays(matrix, tags)


def _best_responses(pomdp: Pomdp, prev: np.ndarray, bmat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per point and action, the backed-up value (B, A) and, per observation,
    the index of the winning previous vector (A, B, W)."""
    num_actions = pomdp.num_actions
    num_obs = pomdp.num_observations
    num_points, num_states = bmat.shape
    pairs = max(_BLOCK_ELEMENTS // (num_points * max(len(prev), num_states)), 1)
    obs_step = min(pairs, num_obs)
    action_step = max(pairs // num_obs, 1)
    floor, rows, departures = pomdp.sensor_split
    value_ba = bmat @ pomdp.reward
    winners = np.empty((num_actions, num_points, num_obs), dtype=np.int32)
    for a0 in range(0, num_actions, action_step):
        acts = slice(a0, a0 + action_step)
        reach = pomdp.discount * (bmat @ pomdp.transition[:, acts, :].transpose(1, 0, 2))
        shared = reach @ (prev * floor.T[acts, None, :]).transpose(0, 2, 1)      # (a, B, K)
        ranks = np.arange(len(reach))[:, None]
        for w0 in range(0, num_obs, obs_step):
            ws = slice(w0, w0 + obs_step)
            picked = reach[ranks, :, rows[:, acts, ws]]                           # (m, a, w, B)
            weights = prev.T[rows[:, acts, ws]] * departures[:, acts, ws, None]  # (m, a, w, K)
            scores = np.einsum("mawb,mawk->awbk", picked, weights)
            scores += shared[:, None]                                             # (a, w, B, K)
            best = scores.argmax(axis=3)                                          # (a, w, B)
            won = scores.reshape(-1, len(prev))[np.arange(best.size), best.ravel()]
            value_ba[:, acts] += won.reshape(best.shape).sum(axis=1).T
            winners[acts, :, ws] = best.transpose(0, 2, 1)
    return value_ba, winners


def _winner_sums(pomdp: Pomdp, prev: np.ndarray, winners: np.ndarray, tags: np.ndarray) -> np.ndarray:
    """Z(b) = sum_w prev[winners[b, w]] * O(., tags[b], w) per kept point, (n, S').

    Z = u * (counts @ prev) + the departures, where counts[b, k] is the
    number of observations vector k wins for b.  `np.bincount` sums the
    departures that land on one row, which a fancy-index += would drop.
    """
    floor, rows, departures = pomdp.sensor_split
    (n, _), (num_vectors, num_states) = winners.shape, prev.shape
    serial = np.arange(n)[:, None]
    counts = np.bincount((serial * num_vectors + winners).ravel(), minlength=n * num_vectors)
    sums = floor[:, tags].T * (counts.reshape(n, num_vectors) @ prev)
    spots = serial * num_states + rows[:, tags]                                   # (m, n, W)
    terms = prev[winners, rows[:, tags]] * departures[:, tags]
    sums += np.bincount(spots.ravel(), terms.ravel(), n * num_states).reshape(n, num_states)
    return sums


def prune(vf: ValueFunction, points: BeliefPointSet) -> ValueFunction:
    """Keep exactly the vectors that win at some sampled point.

    Ties at a point go to the lowest vector index.  Values at the sampled
    points are unchanged by construction.
    """
    winners = np.unique(np.argmax(_dot_table(vf.matrix, points), axis=1))
    if winners.size == len(vf):
        return vf
    return ValueFunction.from_arrays(vf.matrix[winners], vf.actions[winners])


@dataclass(frozen=True)
class SolveResult:
    """Solved value function plus the convergence report."""

    value_function: ValueFunction
    iterations: int
    final_delta: float
    converged: bool


def solve(
    pomdp: Pomdp,
    points: BeliefPointSet,
    tol: float = 0.001,
    max_iter: int = 1000,
) -> SolveResult:
    """Monotone point-based value iteration from `initialize_value`.

    Each iteration backs up the current set (`backup`, the plain PBVI
    operator), then applies the Perseus acceptance rule (Spaan & Vlassis,
    JAIR 2005): a point whose value under the backed-up set falls below its
    value under the current set keeps its current winning vector, which joins
    the new set.  The union is pruned to the vectors that win at some point.
    So V_t(b) >= V_{t-1}(b) at every sampled point: the values rise from the
    lower bound and are bounded above, so they converge, and plain PBVI's
    cycling between two sets cannot occur.  One point x vector dot table per
    iteration, over the backed-up set and the kept vectors, gives the
    acceptance test, the prune and V_t.

    Stops when the summed V_t(b) - V_{t-1}(b) over the sampled points drops
    below `tol` (converged=True, `iterations` backups ran) or after
    `max_iter` backups (converged=False).  Every vector is the value of a
    finite conditional plan that then collects the minimum reward forever,
    so an unconverged result is still a valid lower bound; but its last
    backup still raised the summed point value by `final_delta` >= `tol`,
    so it is not a fixed point of the backup and its greedy policy may be
    far from the one a converged solve gives.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    vf = initialize_value(pomdp)
    table = _dot_table(vf.matrix, points)
    prev_vals, owners = table.max(axis=1), table.argmax(axis=1)
    delta = np.inf
    for iteration in range(1, max_iter + 1):
        vf, owners, vals = _accept(backup(pomdp, vf, points), vf, owners, prev_vals, points)
        delta = float(np.abs(vals - prev_vals).sum())
        prev_vals = vals
        if delta < tol:
            return SolveResult(vf, iteration, delta, True)
    return SolveResult(vf, max_iter, delta, False)


def _accept(
    backed_up: ValueFunction,
    current: ValueFunction,
    owners: np.ndarray,
    values: np.ndarray,
    points: BeliefPointSet,
) -> tuple[ValueFunction, np.ndarray, np.ndarray]:
    """The acceptance rule of `solve`, then prune.

    `owners` (B,) holds each point's winning vector in `current` and
    `values` (B,) its value.  Points whose value under `backed_up` falls
    below `values` keep their owner, which joins the backed-up set; the
    union is pruned to the vectors that win at some point, ties to the
    lowest index.  Returns the pruned set, each point's owner in it, and the
    point values, all read off one dot table.
    """
    table = _dot_table(backed_up.matrix, points)
    kept = np.unique(owners[table.max(axis=1) < values])
    table = np.concatenate((table, _dot_table(current.matrix[kept], points)), axis=1)
    owners = table.argmax(axis=1)
    winners = np.unique(owners)
    matrix = np.concatenate((backed_up.matrix, current.matrix[kept]))[winners]
    actions = np.concatenate((backed_up.actions, current.actions[kept]))[winners]
    pruned = ValueFunction.from_arrays(matrix, actions)
    return pruned, np.searchsorted(winners, owners), table.max(axis=1)


# ---------------------------------------------------------------------------
# Value-function files: header, dimensions, then one line per alpha vector
# (action tag followed by the coefficients).
# ---------------------------------------------------------------------------

VALUE_FILE_HEADER = "alphas v1"


def write_value_function(vf: ValueFunction, path: str) -> None:
    lines = [VALUE_FILE_HEADER, f"states {vf.num_states}", f"count {len(vf)}"]
    for action, row in zip(vf.actions.tolist(), vf.matrix.tolist()):
        lines.append(f"{action} " + " ".join(repr(c) for c in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_value_function(path: str) -> ValueFunction:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != VALUE_FILE_HEADER:
        raise ValueError(f"not an '{VALUE_FILE_HEADER}' file: {path}")
    if len(lines) < 3 or not lines[1].startswith("states ") or not lines[2].startswith("count "):
        raise ValueError("malformed value-function header")
    num_states = int(lines[1].split()[1])
    count = int(lines[2].split()[1])
    body = [line.split() for line in lines[3:]]
    if len(body) != count:
        raise ValueError(f"expected {count} alpha vectors, found {len(body)}")
    for parts in body:
        if len(parts) != num_states + 1:
            raise ValueError(f"alpha line has {len(parts) - 1} coefficients, expected {num_states}")
    return ValueFunction.from_arrays(
        [[float(p) for p in parts[1:]] for parts in body], [int(parts[0]) for parts in body]
    )
