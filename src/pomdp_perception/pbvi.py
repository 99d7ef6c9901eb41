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
shared score table.  A (point, observation) pair that reaches none of the
departing entries scores the shared table alone, so only the pairs that
reach one are scored: on the stock map a simplex corner reaches about 5 of
the 64 cells.  Of a point's actions, the lowest whose backed-up value is
within 1e-12 of the best wins, so rounding never decides an action.  Before
those pairs are scored, two cheap bounds on each action's backed-up value
eliminate the actions that cannot win at a point (action elimination,
Puterman 1994, section 6.7): an upper bound that takes each observation's
shared and departing terms at their separate maxima, and a lower bound that
takes one previous vector at every observation.  An action whose upper bound
lies below the point's best lower bound by more than the tie tolerance and a
rounding margin is never the point's choice, so it is not scored there, and
every result is the one scoring it would give.  `solve` iterates backups, on
bare arrays, under the Perseus acceptance rule, a prune of the backed-up and
current sets pooled, so point values never fall and the iteration
converges.  Points are sampled once up front and never adapted: the
auxiliary observation channels available at runtime are unknown when the
plan is computed, so the sampler covers the whole simplex instead of chasing
reachable beliefs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np
from numpy.typing import ArrayLike

from .pomdp import (
    Belief,
    Pomdp,
    _check_stochastic,
    _TIE_TOL,
    _first_within_tol,
    _format_row,
    _frozen_array,
    _read_lines,
    _scalar_line,
    _write_lines,
)

# Elements of scratch space `backup` scores in at once: a block of
# (action, observation) pairs over all B points, (pairs, B, max(K, S)), or a
# tile of (observations, points, K) scores.  One pair of the stock map at 165
# points (27k) fits, and so do all pairs of a select-bench model at once;
# larger blocks ran no faster on the stock map and raised the solve's peak
# memory.
_BLOCK_ELEMENTS = 1 << 15

# Relative rounding margin of the action bounds that let `backup` skip a
# (point, action) pair; see `backup` for why it covers the rounding.
_ROUNDING = 1e-9

__all__ = [
    "AlphaVector",
    "BackupRecord",
    "ValueFunction",
    "BeliefPointSet",
    "SolveResult",
    "sample_beliefs_uniform",
    "initialize_value",
    "backup",
    "prune",
    "solve",
    "best_action",
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
    dropped, the first copy kept, so the rows stay in draw order.  With one
    state the simplex is the single point [1.0]; the flat Dirichlet can
    return 0.9999999999999999 there, so that point is returned alone.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if num_states == 1:
        return BeliefPointSet(np.ones((1, 1)))
    rng = np.random.default_rng(seed)
    draws = rng.dirichlet(np.ones(num_states), size=count)
    rows = np.vstack((draws, np.full((1, num_states), 1.0 / num_states), np.eye(num_states)))
    _, first = np.unique(rows, axis=0, return_index=True)
    return BeliefPointSet(rows[np.sort(first)])


def initialize_value(pomdp: Pomdp) -> ValueFunction:
    """Single conservative hyperplane: collect the minimum reward forever."""
    low = float(pomdp.reward.min()) / (1.0 - pomdp.discount)
    return ValueFunction.from_arrays(np.full((1, pomdp.num_states), low), [0])


def best_action(vf: ValueFunction, belief: Belief) -> int:
    """Action tag of the maximizing alpha vector; ties keep the lowest index."""
    return int(vf.actions[int(np.argmax(vf.matrix @ belief.probs))])


def _dot_table(matrix: np.ndarray, points: BeliefPointSet) -> np.ndarray:
    """(num points, num vectors) dot products with the rows of `matrix`.

    Each column is a matvec against one vector, one `np.matmul` broadcast
    over the vectors, so its rounding never depends on which other vectors
    are in the set: pruning preserves point values bit-for-bit, and `solve`
    carries a vector's column across backups, equal to one computed again.
    """
    return np.matmul(points.matrix, matrix[:, :, None])[:, :, 0].T


def backup(pomdp: Pomdp, previous: ValueFunction, points: BeliefPointSet) -> ValueFunction:
    """One point-based Bellman backup of `previous` over the sampled points.

    The operator is plain PBVI: per point b and action a, the vector
    R(., a) + discount * sum_w g[w, k_w], where
    g[w, k](s) = sum_s' T(s, a, s') O(s', a, w) alpha_k(s') and k_w is the
    previous vector maximizing g[w, k] . b.  Each point keeps the vector of
    the lowest action whose value at b is within 1e-12 of the best, and the
    union over points is returned in first-point order with each (action,
    winners k_w) emitted once.

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
    R(., a) + discount * Z_a T_a^T.

    Only the (point, observation) pairs whose departure term can be nonzero
    are scored.  Where N_a(b, s') or D_a(s', w) is 0 on every departing row,
    the pair's score is the shared term itself, so its winner is the shared
    term's argmax, found once per point and action: on the stock map a
    simplex corner reaches about 5 of 64 cells, so about 60 of its 64 pairs
    per action are such.  Points that reach a departing row at every
    observation are scored in (observations, points, K) tiles within
    _BLOCK_ELEMENTS (at paper scale, K about 2,000, one observation and 16
    points), the other points' departing pairs one (pair, K) row each.
    Where every point reaches every state (a dense random model, such as a
    select-bench one), where one block holds all pairs, or where K = 1, all
    pairs are scored as before, in (action, observation) blocks as large as
    _BLOCK_ELEMENTS allows.

    Ties are broken deterministically: the per-observation argmax keeps the
    lowest vector index, and each point the lowest action within 1e-12 of
    the best, so the block sizes, which order the sums, change no result.

    On the departing-pairs path, a (point, action) pair is not scored where
    bounds on its value show it cannot win (action elimination).  With
    shared[b, k] = N_a(b) . (alpha_k * u_a) and, per departing row j,
    picked_j[b, w] = N_a(b, rows_j[w]) and
    weights_j[w, k] = alpha_k(rows_j[w]) * D_a(rows_j[w], w), the score of
    vector k at (b, w) is shared[b, k] + sum_j picked_j[b, w] weights_j[w, k]:
      upper  U_a(b) = R(., a) . b + W max_k shared[b, k]
                      + sum_j sum_w picked_j[b, w] max_k weights_j[w, k],
             since the max of a sum is at most the sum of the maxima and
             picked and the departures are >= 0;
      lower  L_a(b) = R(., a) . b + max_k N_a(b) . alpha_k,
             the value of taking one vector k at every observation, a
             feasible choice of winners since sum_w O(s', a, w) = 1.
    A pair with U_a(b) < max_a' L_a'(b) - 1e-12 - margin gets the value
    -inf, and its winners are not scored: only the chosen action's winners
    are ever read.  The skip is exact.  Each compared quantity is a sum of at
    most about S + W (m + 2) products whose magnitudes add up to at most
    M = max |R| + max |alpha| (a row of N_a sums to at most the discount, a
    sensor row to 1), so its rounding error is below about
    (S + W (m + 2)) 2^-53 M.  The margin 1e-9 (1 + M) exceeds four such
    errors while S + W (m + 2) stays below about 10^6.  So a skipped pair's
    computed value lies more than 1e-12 below the computed best: the tie
    rule never picks it, and the best is that of a pair that is scored.
    """
    matrix, actions, _ = _backup(pomdp, previous.matrix, points.matrix)
    return ValueFunction.from_arrays(matrix, actions)


def _backup(pomdp: Pomdp, prev: np.ndarray, bmat: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """`backup` on bare arrays: previous vectors (K, S) and points (B, S) in,
    the backed-up (matrix, actions) out, unvalidated, with the number of
    (point, action) pairs the action bounds skipped."""
    value_ba, winners = _best_responses(pomdp, prev, bmat)
    best_a = _first_within_tol(value_ba)
    first: dict[tuple[int, bytes], int] = {}
    for b, a in enumerate(best_a.tolist()):
        first.setdefault((a, winners[a, b].tobytes()), b)
    keep = np.fromiter(first.values(), dtype=int, count=len(first))
    tags = best_a[keep]
    sums = _winner_sums(pomdp, prev, winners[tags, keep], tags)
    matrix = np.empty_like(sums)
    for a in np.unique(tags).tolist():
        mine = tags == a
        trans = pomdp.transition[:, a, :]
        matrix[mine] = pomdp.reward[:, a] + pomdp.discount * (sums[mine] @ trans.T)
    return matrix, tags, np.count_nonzero(value_ba == -np.inf)


def _best_responses(pomdp: Pomdp, prev: np.ndarray, bmat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per point and action, the backed-up value (B, A) and, per observation,
    the index of the winning previous vector (A, B, W).  On the departing-
    pairs path a pair whose upper bound falls below the point's best lower
    bound by more than the tie tolerance and a rounding margin is skipped:
    its value is -inf and its winners are left unscored."""
    num_actions = pomdp.num_actions
    num_obs = pomdp.num_observations
    num_points, num_states = bmat.shape
    pairs = max(_BLOCK_ELEMENTS // (num_points * max(len(prev), num_states)), 1)
    obs_step = min(pairs, num_obs)
    action_step = max(pairs // num_obs, 1)
    floor, rows, departures = pomdp.sensor_split
    value_ba = bmat @ pomdp.reward
    winners = np.empty((num_actions, num_points, num_obs), dtype=np.int32)
    blocks = [slice(a0, a0 + action_step) for a0 in range(0, num_actions, action_step)]
    transitions = pomdp.transition.transpose(1, 0, 2)                              # (A, S, S')
    reaches = [pomdp.discount * (bmat @ transitions[acts]) for acts in blocks]    # (a, B, S')
    # Where one block holds every pair, or K = 1, or every point reaches
    # every state, all pairs are scored block by block; elsewhere per
    # action, departing pairs only, of the actions the bounds leave in play.
    every_pair = action_step >= num_actions or len(prev) == 1
    if not every_pair:
        lower = np.concatenate([(reach @ prev.T).max(axis=2) for reach in reaches])   # (A, B)
        margin = _TIE_TOL + _ROUNDING * (1.0 + np.abs(pomdp.reward).max() + np.abs(prev).max())
        bar = (value_ba + lower.T).max(axis=1) - margin
        tops = prev.max(axis=0)[rows] * departures                                   # (m, A, W)
    for acts, reach in zip(blocks, reaches):
        shared = reach @ (prev * floor.T[acts, None, :]).transpose(0, 2, 1)      # (a, B, K)
        ranks = np.arange(len(reach))[:, None]
        if not (every_pair or np.count_nonzero(reach) == reach.size):
            # value_ba holds R . b in this block's columns until it is scored.
            departing = np.einsum("mawb,maw->ab", reach[ranks, :, rows[:, acts]], tops[:, acts])
            upper = value_ba[:, acts].T + num_obs * shared.max(axis=2) + departing
            beaten = upper < bar                                                  # (a, B)
            won = np.empty((len(reach), num_points, num_obs))
            for i, a in enumerate(range(acts.start, acts.start + len(reach))):
                _score_departing_pairs(
                    reach[i], shared[i], prev, rows[:, a], departures[:, a],
                    winners[a], won[i], beaten[i],
                )
            value_ba[:, acts] += won.sum(axis=2).T
            value_ba[:, acts][beaten.T] = -np.inf
            continue
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


def _score_departing_pairs(reach, shared, prev, rows, departures, winners, won, skip=None):
    """Fill one action's winners (B, W) and winning scores `won` (B, W).

    reach (B, S') and shared (B, K) are the action's N_a and shared term,
    rows and departures (m, W) its sensor departures.  A pair none of whose
    departure terms can be nonzero takes the shared argmax, and so does
    every pair of a point where `skip` (B,) is set, whose scores go unread;
    points that depart at every observation are scored in (observations,
    points, K) tiles, the other points' departing pairs one (pair, K) row
    each.  The
    winning scores are then formed again for the winners alone, one way for
    every pair, whichever kernel picked its winner: the products summed over
    departing rows in row order, then the shared term added.
    """
    num_obs, num_vectors = rows.shape[1], len(prev)
    picked = reach[:, rows].transpose(1, 0, 2)                                # (m, B, W)
    live = ((picked != 0.0) & (departures[:, None] != 0.0)).any(axis=0)      # (B, W)
    if skip is not None:
        live &= ~skip[:, None]
    weights = prev.T[rows] * departures[:, :, None]                           # (m, W, K)
    winners[:] = shared.argmax(axis=1)[:, None]
    # One departing row (the grid's sensor) makes each score an outer product.
    if len(rows) == 1:
        tile_spec, pair_spec, by_row, per_row = "wp,wk->wpk", "n,nk->nk", picked[0], weights[0]
    else:
        tile_spec, pair_spec, by_row, per_row = "mwp,mwk->wpk", "mn,mnk->nk", picked, weights
    full = live.all(axis=1)
    everywhere = np.flatnonzero(full)
    if everywhere.size:
        picked_f = np.ascontiguousarray(by_row[..., everywhere, :].swapaxes(-1, -2))  # (m, W, F)
        shared_f = shared[everywhere]
        best_f = np.empty((num_obs, everywhere.size), dtype=np.intp)
        point_step, obs_step = _tile_shape(everywhere.size, num_obs, num_vectors)
        for w0 in range(0, num_obs, obs_step):
            ws = slice(w0, w0 + obs_step)
            for p0 in range(0, everywhere.size, point_step):
                ps = slice(p0, p0 + point_step)
                scores = np.einsum(tile_spec, picked_f[..., ws, ps], per_row[..., ws, :])
                scores += shared_f[ps]                                        # (w, p, K)
                scores.argmax(axis=2, out=best_f[ws, ps])
        winners[everywhere] = best_f.T
    at_b, at_w = np.nonzero(live & ~full[:, None])
    step = max(_BLOCK_ELEMENTS // num_vectors, 1)
    for n0 in range(0, at_b.size, step):
        b, w = at_b[n0 : n0 + step], at_w[n0 : n0 + step]
        scores = np.einsum(pair_spec, by_row[..., b, w], per_row[..., w, :])
        scores += shared[b]                                                   # (n, K)
        winners[b, w] = scores.argmax(axis=1)
    flat = winners + np.arange(num_obs) * num_vectors                         # into (W, K)
    term = picked[0] * np.take(weights[0], flat)
    for j in range(1, len(rows)):
        term += picked[j] * np.take(weights[j], flat)
    won[:] = term + np.take(shared, winners + np.arange(len(shared))[:, None] * num_vectors)


def _tile_shape(num_points: int, num_obs: int, num_vectors: int) -> tuple[int, int]:
    """(points, observations) per (observations, points, K) tile within
    _BLOCK_ELEMENTS: as many observations as fit with every point, then as
    many points as fit with those."""
    obs_step = min(max(_BLOCK_ELEMENTS // (num_points * num_vectors), 1), num_obs)
    return max(_BLOCK_ELEMENTS // (obs_step * num_vectors), 1), obs_step


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


class BackupRecord(NamedTuple):
    """One iteration of `solve`: the summed point-value rise it made, the
    vectors it backed up and kept, its wall time (backup and acceptance)
    and the (point, action) pairs the backup's action bounds skipped."""

    delta: float
    k_in: int
    k_out: int
    seconds: float
    skipped: int


@dataclass(frozen=True)
class SolveResult:
    """Solved value function plus the convergence report; `history` holds
    one `BackupRecord` per backup and takes no part in equality."""

    value_function: ValueFunction
    iterations: int
    final_delta: float
    converged: bool
    history: tuple[BackupRecord, ...] = field(default=(), compare=False)


def solve(
    pomdp: Pomdp,
    points: BeliefPointSet,
    tol: float = 0.001,
    max_iter: int = 1000,
) -> SolveResult:
    """Monotone point-based value iteration from `initialize_value`.

    Each iteration backs up the current set (`backup`, the plain PBVI
    operator), pools the backed-up set, placed first, with the current set,
    and prunes the pool to the vectors that are some point's first argmax.
    This is the Perseus acceptance rule (Spaan & Vlassis, JAIR 2005): where
    the backup does not lower a point's value the point's first argmax lies
    in the backed-up block, and where it does the point's first argmax is
    its current winning vector, which Perseus keeps.  So
    V_t(b) = max(V_{t-1}(b), backed-up value at b) at every sampled point:
    the values rise from the lower bound and are bounded above, so they
    converge, and plain PBVI's cycling between two sets cannot occur.  The
    point x vector dot table is carried from one iteration to the next:
    each one computes only the backed-up set's columns.  The loop runs on
    bare (matrix, actions) arrays; the result is validated once, and its
    `history` records each iteration (`BackupRecord`).

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
    start = initialize_value(pomdp)
    matrix, actions = start.matrix, start.actions
    table = _dot_table(matrix, points)
    values = table.max(axis=1)
    delta = np.inf
    history = []
    for iteration in range(1, max_iter + 1):
        began, k_in = time.perf_counter(), len(matrix)
        new_matrix, new_actions, skipped = _backup(pomdp, matrix, points.matrix)
        table = np.concatenate((_dot_table(new_matrix, points), table), axis=1)
        winners = np.unique(table.argmax(axis=1))
        table = table[:, winners]
        matrix = np.concatenate((new_matrix, matrix))[winners]
        actions = np.concatenate((new_actions, actions))[winners]
        previous, values = values, table.max(axis=1)
        delta = float(np.abs(values - previous).sum())
        history.append(BackupRecord(delta, k_in, len(matrix), time.perf_counter() - began, skipped))
        if delta < tol:
            break
    vf = ValueFunction.from_arrays(matrix, actions)
    return SolveResult(vf, iteration, delta, delta < tol, tuple(history))


# ---------------------------------------------------------------------------
# Value-function files: header, dimensions, then one line per alpha vector
# (action tag followed by the coefficients); '#' starts a comment.
# ---------------------------------------------------------------------------

VALUE_FILE_HEADER = "alphas v1"


def write_value_function(vf: ValueFunction, path: str) -> None:
    lines = [VALUE_FILE_HEADER, f"states {vf.num_states}", f"count {len(vf)}"]
    lines.extend(f"{a} {_format_row(row)}" for a, row in zip(vf.actions.tolist(), vf.matrix))
    _write_lines(path, lines)


def read_value_function(path: str) -> ValueFunction:
    lines = _read_lines(path, VALUE_FILE_HEADER)
    num_states = _scalar_line(lines, 0, "states", int)
    count = _scalar_line(lines, 1, "count", int)
    body = [line.split() for line in lines[2:]]
    if len(body) != count:
        raise ValueError(f"expected {count} alpha vectors, found {len(body)}")
    for parts in body:
        if len(parts) != num_states + 1:
            raise ValueError(f"alpha line has {len(parts) - 1} coefficients, expected {num_states}")
    return ValueFunction.from_arrays(
        [[float(p) for p in parts[1:]] for parts in body], [int(parts[0]) for parts in body]
    )
