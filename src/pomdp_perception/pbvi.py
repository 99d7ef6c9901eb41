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
converges.  A solve builds one backup context before its first backup: the
tables that stay fixed while the model and the points do (the reach tables
N_a = discount * B T_a, R . b, and which (point, observation) pairs each
action's departures can reach), and scratch buffers as large as a backup of
at most B vectors needs, which every backup writes into with numpy `out=`.
So no backup allocates its large temporaries, and none are freed, trimmed
off the heap and faulted in again: on the stock map with 165 points a solve
takes about 500 minor page faults, where it took 78,000-175,000 when each
backup allocated its own.  Points are sampled once up front and never
adapted: the auxiliary observation channels available at runtime are
unknown when the plan is computed, so the sampler covers the whole simplex
instead of chasing reachable beliefs.
"""

from __future__ import annotations

import math
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
# tile of (observations, points, K) scores, whose buffer a backup context
# keeps, as it keeps the one for (pair, K) rows.  One pair of the stock map at
# 165 points (27k) fits, and so do all pairs of a select-bench model at once;
# larger blocks ran no faster on the stock map and raised the solve's peak
# memory.  Tiles are walked point group by point group, each group over every
# observation: at paper scale (K about 2,000) a tile is one observation of 16
# points, and the group's 260 KB of shared rows then stay in L2 across the 64
# observations, where an observation-major walk read all of an action's
# shared rows (about 33 MB) from L3 once per observation.
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


def _dot_table(matrix: np.ndarray, points: BeliefPointSet, out: np.ndarray | None = None) -> np.ndarray:
    """(num points, num vectors) dot products with the rows of `matrix`,
    written, if `out` (num vectors, num points) is given, into its rows.

    Each column is a matvec against one vector, one `np.matmul` broadcast
    over the vectors, so its rounding never depends on which other vectors
    are in the set: pruning preserves point values bit-for-bit, and `solve`
    carries a vector's dot products across backups, equal to ones computed
    again.
    """
    if out is not None:
        out = out.reshape(len(matrix), -1, 1)
    return np.matmul(points.matrix, matrix[:, :, None], out=out)[:, :, 0].T


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
    points), walked point-major so a group's shared rows stay in cache, the
    other points' departing pairs one (pair, K) row each.
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

    Each call builds a fresh backup context (`_BackupContext`), the tables
    and scratch that `solve` builds once for all of its backups.  Points or
    a value function whose state count differs from the model's are refused
    with a ValueError that names both counts.
    """
    if previous.num_states != pomdp.num_states:
        raise ValueError(f"value function has {previous.num_states} states, the model {pomdp.num_states}")
    context = _BackupContext(pomdp, points.matrix, len(previous))
    matrix, actions, _ = _backup(pomdp, previous.matrix, context)
    return ValueFunction.from_arrays(matrix, actions)


class _BackupContext:
    """What every backup over one point set (B, S) shares.

    The tables stay fixed while the points and the model do: the reach
    tables N_a = discount * B T_a (A, B, S'), the immediate values R . b
    (B, A), whether each N_a is nonzero everywhere, and which (point,
    observation) pairs some departure term of action a can reach: `full`
    (A, B) marks the points that reach one at every observation, and
    `pairs[a]` lists the other points' pairs that do, in (point,
    observation) order.  The scratch outlives a backup, so consecutive
    backups write into the same memory rather than allocating and freeing
    it each time; a backup reads none of it before writing it.  It is made
    for backups of at most `vectors` previous vectors, and grows for one of
    more.  Gathering an action's departure columns N_a(b, rows[j, a, w])
    costs a strided copy per backup, so they are not kept: at 165 points
    that table is as large as the reach tables.
    """

    def __init__(self, pomdp: Pomdp, bmat: np.ndarray, vectors: int) -> None:
        if bmat.shape[1] != pomdp.num_states:
            raise ValueError(f"belief points have {bmat.shape[1]} states, the model {pomdp.num_states}")
        self.points = bmat
        self.floor, self.rows, self.departures = pomdp.sensor_split
        self.reach = pomdp.discount * (bmat @ pomdp.transition.transpose(1, 0, 2))   # (A, B, S')
        self.reward_values = bmat @ pomdp.reward                                     # (B, A)
        picked = self.reach[np.arange(pomdp.num_actions)[:, None], :, self.rows]      # (m, A, W, B)
        live = ((picked != 0.0) & (self.departures[..., None] != 0.0)).any(axis=0)  # (A, W, B)
        self.full = live.all(axis=1)                                                  # (A, B)
        self.pairs = [np.nonzero((live[a] & ~self.full[a]).T) for a in range(pomdp.num_actions)]
        self.dense = (self.reach != 0.0).all(axis=(1, 2))                             # (A,)
        # Scratch of a size the model and the points fix: the values (B, A),
        # the winners (A, B, W) and the winning scores (A, B, W) of every
        # action, the lower bounds (A, B) and one action's departure
        # columns (m, W, B).
        num_points, num_actions, num_obs = len(bmat), pomdp.num_actions, pomdp.num_observations
        m = len(self.rows)
        self.values = np.empty((num_points, num_actions))
        self.winners = np.empty((num_actions, num_points, num_obs), np.int32)
        self.won = np.empty((num_actions, num_points, num_obs))
        self.lower = np.empty((num_actions, num_points))
        self.columns = np.empty((m, num_obs, num_points))
        # The buffers whose size follows K, or the points a skip leaves, are
        # made at once as large as a backup of `vectors` previous vectors can
        # need, so consecutive backups never free one and fault it in again.
        self._buffers: dict[str, np.ndarray] = {}
        block = min(max(_BLOCK_ELEMENTS, vectors), num_obs * num_points * vectors)
        for name, size in (
            ("shared", num_points * vectors),
            ("scaled", max(pomdp.num_states, m * num_obs) * vectors),
            ("scores", block),
            ("gathered", max(m * block, num_points * num_obs)),
            ("picked", m * num_obs * num_points),
        ):
            self.scratch(name, (size,))
        self.scratch("best", (num_obs * num_points,), np.intp)

    def scratch(self, name: str, shape: tuple[int, ...], dtype: type = float) -> np.ndarray:
        """A C-contiguous `shape` view of buffer `name`, grown when too small;
        its contents are whatever the last user left."""
        size = math.prod(shape)
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size:
            buffer = self._buffers[name] = np.empty(size, dtype)
        return buffer[:size].reshape(shape)


def _backup(pomdp: Pomdp, prev: np.ndarray, context: _BackupContext) -> tuple[np.ndarray, np.ndarray, int]:
    """`backup` on bare arrays: previous vectors (K, S) in, with the context
    of the points, the backed-up (matrix, actions) out, unvalidated, with the
    number of (point, action) pairs the action bounds skipped."""
    value_ba, winners = _best_responses(pomdp, prev, context)
    best_a = _first_within_tol(value_ba)
    first: dict[tuple[int, bytes], int] = {}
    for b, a in enumerate(best_a.tolist()):
        first.setdefault((a, winners[a, b].tobytes()), b)
    keep = np.fromiter(first.values(), dtype=int, count=len(first))
    tags = best_a[keep]
    sums = _winner_sums(context, prev, winners[tags, keep], tags)
    matrix = np.empty_like(sums)
    for a in np.unique(tags).tolist():
        mine = tags == a
        trans = pomdp.transition[:, a, :]
        matrix[mine] = pomdp.reward[:, a] + pomdp.discount * (sums[mine] @ trans.T)
    return matrix, tags, np.count_nonzero(value_ba == -np.inf)


def _best_responses(pomdp: Pomdp, prev: np.ndarray, context: _BackupContext) -> tuple[np.ndarray, np.ndarray]:
    """Per point of the context and action, the backed-up value (B, A) and,
    per observation, the index of the winning previous vector (A, B, W),
    both in the context's scratch.  On the departing-pairs path a pair whose
    upper bound falls below the point's best lower bound by more than the
    tie tolerance and a rounding margin is skipped: its value is -inf and
    its winners are left unscored."""
    num_actions = pomdp.num_actions
    num_obs = pomdp.num_observations
    num_points, num_states = context.points.shape
    num_vectors = len(prev)
    pairs = max(_BLOCK_ELEMENTS // (num_points * max(num_vectors, num_states)), 1)
    obs_step = min(pairs, num_obs)
    action_step = max(pairs // num_obs, 1)
    floor, rows, departures = context.floor, context.rows, context.departures
    value_ba, winners = context.values, context.winners
    value_ba[:] = context.reward_values
    blocks = [slice(a0, min(a0 + action_step, num_actions)) for a0 in range(0, num_actions, action_step)]
    # Where one block holds every pair, or K = 1, or every point reaches
    # every state, all pairs are scored block by block; elsewhere per
    # action, departing pairs only, of the actions the bounds leave in play.
    every_pair = action_step >= num_actions or num_vectors == 1
    if not every_pair:
        lower = context.lower
        table = context.scratch("shared", (num_points, num_vectors))
        for a in range(num_actions):
            np.matmul(context.reach[a], prev.T, out=table).max(axis=1, out=lower[a])
        margin = _TIE_TOL + _ROUNDING * (1.0 + np.abs(pomdp.reward).max() + np.abs(prev).max())
        bar = (value_ba + lower.T).max(axis=1) - margin
        tops = prev.max(axis=0)[rows] * departures                                   # (m, A, W)
    for acts in blocks:
        reach = context.reach[acts]
        if not (every_pair or context.dense[acts].all()):
            # value_ba holds R . b in this block's columns until it is scored.
            won = context.won[: len(reach)]
            beaten = np.empty((len(reach), num_points), dtype=bool)
            for i, a in enumerate(range(acts.start, acts.stop)):
                picked = np.take(reach[i].T, rows[:, a], axis=0, out=context.columns, mode="clip")
                scaled = np.multiply(prev, floor[:, a], out=context.scratch("scaled", prev.shape))
                shared = context.scratch("shared", (num_points, num_vectors))
                np.matmul(reach[i], scaled.T, out=shared)                                # (B, K)
                departing = np.einsum("mwb,mw->b", picked, tops[:, a])
                upper = value_ba[:, a] + num_obs * shared.max(axis=1) + departing
                np.less(upper, bar, out=beaten[i])
                _score_departing_pairs(context, a, picked, shared, prev, winners[a], won[i], beaten[i])
            value_ba[:, acts] += won.sum(axis=2).T
            value_ba[:, acts][beaten.T] = -np.inf
            continue
        shared = reach @ (prev * floor.T[acts, None, :]).transpose(0, 2, 1)      # (a, B, K)
        ranks = np.arange(len(reach))[:, None]
        for w0 in range(0, num_obs, obs_step):
            ws = slice(w0, w0 + obs_step)
            picked = reach[ranks, :, rows[:, acts, ws]]                           # (m, a, w, B)
            weights = prev.T[rows[:, acts, ws]] * departures[:, acts, ws, None]  # (m, a, w, K)
            scores = np.einsum("mawb,mawk->awbk", picked, weights)
            scores += shared[:, None]                                             # (a, w, B, K)
            best = scores.argmax(axis=3)                                          # (a, w, B)
            won = scores.reshape(-1, num_vectors)[np.arange(best.size), best.ravel()]
            value_ba[:, acts] += won.reshape(best.shape).sum(axis=1).T
            winners[acts, :, ws] = best.transpose(0, 2, 1)
    return value_ba, winners


def _score_departing_pairs(context, a, picked, shared, prev, winners, won, skip=None):
    """Fill action a's winners (B, W) and winning scores `won` (B, W).

    picked (m, W, B) holds the action's departure columns N_a(b, rows[j, w])
    and shared (B, K) its shared term; its sensor rows, the liveness of its
    pairs and the scratch come from `context`.  A pair none of whose
    departure terms can be nonzero takes the shared argmax, and so does
    every pair of a point where `skip` (B,) is set, whose scores go unread;
    points that depart at every observation are scored in (observations,
    points, K) tiles, the other points' departing pairs one (pair, K) row
    each.  Tiles are walked point group by point group, each group over
    every observation, so the group's shared rows stay in cache.  The winning
    scores are then formed again for the winners alone, one way for every
    pair, whichever kernel picked its winner: the products summed over
    departing rows in row order, then the shared term added.
    """
    rows, departures = context.rows[:, a], context.departures[:, a]
    (num_points, num_obs), num_vectors = winners.shape, len(prev)
    full, (at_b, at_w) = context.full[a], context.pairs[a]
    if skip is not None:
        full = full & ~skip
        unskipped = ~skip[at_b]
        at_b, at_w = at_b[unskipped], at_w[unskipped]
    weights = context.scratch("scaled", rows.shape + (num_vectors,))        # (m, W, K)
    np.take(prev.T, rows, axis=0, out=weights, mode="clip")
    weights *= departures[:, :, None]
    winners[:] = shared.argmax(axis=1)[:, None]
    # One departing row (the grid's sensor) makes each score an outer product.
    if len(rows) == 1:
        tile_spec, pair_spec, by_row, per_row = "wp,wk->wpk", "n,nk->nk", picked[0], weights[0]
    else:
        tile_spec, pair_spec, by_row, per_row = "mwp,mwk->wpk", "mn,mnk->nk", picked, weights
    everywhere = np.flatnonzero(full)
    if everywhere.size:
        picked_f = context.scratch("picked", by_row.shape[:-1] + everywhere.shape)   # (m, W, F)
        np.take(by_row, everywhere, axis=-1, out=picked_f, mode="clip")
        best_f = context.scratch("best", (num_obs, everywhere.size), np.intp)
        point_step, obs_step = _tile_shape(everywhere.size, num_obs, num_vectors)
        tiles = context.scratch("scores", (min(obs_step, num_obs) * min(point_step, everywhere.size) * num_vectors,))
        group_rows = context.scratch("gathered", (min(point_step, everywhere.size) * num_vectors,))
        for p0 in range(0, everywhere.size, point_step):
            ps = slice(p0, p0 + point_step)
            group = everywhere[ps]
            shared_g = group_rows[: group.size * num_vectors].reshape(group.size, num_vectors)
            np.take(shared, group, axis=0, out=shared_g, mode="clip")
            for w0 in range(0, num_obs, obs_step):
                ws = slice(w0, w0 + obs_step)
                scores = tiles[: min(obs_step, num_obs - w0) * shared_g.size]
                scores = scores.reshape(-1, group.size, num_vectors)
                np.einsum(tile_spec, picked_f[..., ws, ps], per_row[..., ws, :], out=scores)
                scores += shared_g                                            # (w, p, K)
                scores.argmax(axis=2, out=best_f[ws, ps])
        winners[everywhere] = best_f.T
    step = max(_BLOCK_ELEMENTS // num_vectors, 1)
    for n0 in range(0, at_b.size, step):
        b, w = at_b[n0 : n0 + step], at_w[n0 : n0 + step]
        gathered = context.scratch("gathered", per_row.shape[:-2] + (b.size, num_vectors))
        np.take(per_row, w, axis=-2, out=gathered, mode="clip")
        scores = context.scratch("scores", (b.size, num_vectors))
        np.einsum(pair_spec, by_row[..., w, b], gathered, out=scores)
        scores += np.take(shared, b, axis=0, out=context.scratch("gathered", scores.shape), mode="clip")
        winners[b, w] = scores.argmax(axis=1)
    flat = context.scratch("best", winners.shape, np.intp)                   # into (W, K)
    np.add(winners, np.arange(num_obs) * num_vectors, out=flat)
    term = context.scratch("gathered", winners.shape)
    np.multiply(picked[0].T, np.take(weights[0], flat, out=term, mode="clip"), out=won)
    for j in range(1, len(rows)):
        won += np.multiply(picked[j].T, np.take(weights[j], flat, out=term, mode="clip"), out=term)
    np.add(winners, np.arange(num_points)[:, None] * num_vectors, out=flat)  # into (B, K)
    won += np.take(shared, flat, out=term, mode="clip")


def _tile_shape(num_points: int, num_obs: int, num_vectors: int) -> tuple[int, int]:
    """(points, observations) per (observations, points, K) tile within
    _BLOCK_ELEMENTS: as many observations as fit with every point, then as
    many points as fit with those."""
    obs_step = min(max(_BLOCK_ELEMENTS // (num_points * num_vectors), 1), num_obs)
    return max(_BLOCK_ELEMENTS // (obs_step * num_vectors), 1), obs_step


def _winner_sums(context: _BackupContext, prev: np.ndarray, winners: np.ndarray, tags: np.ndarray) -> np.ndarray:
    """Z(b) = sum_w prev[winners[b, w]] * O(., tags[b], w) per kept point, (n, S').

    Z = u * (counts @ prev) + the departures, where counts[b, k] is the
    number of observations vector k wins for b, tallied in the context's
    shared-term buffer, which is free once the winners are known.
    `np.bincount` sums the departures that land on one row, which a
    fancy-index += would drop.
    """
    floor, rows, departures = context.floor, context.rows, context.departures
    (n, _), (num_vectors, num_states) = winners.shape, prev.shape
    serial = np.arange(n)[:, None]
    counts = context.scratch("shared", (n, num_vectors))
    counts.fill(0.0)
    np.add.at(counts.reshape(-1), (serial * num_vectors + winners).ravel(), 1.0)
    sums = floor[:, tags].T * (counts @ prev)
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
    converge, and plain PBVI's cycling between two sets cannot occur.  Each
    point's value and the position of its first maximizing vector are
    carried from one iteration to the next, so each computes only the
    backed-up set's dot products: a point's first maximum over the pool is
    the backed-up set's first maximum where that ties or beats the point's
    value, else the vector it already had.  The loop runs on bare (matrix,
    actions) arrays; the result is validated once, and its `history`
    records each iteration (`BackupRecord`).

    One backup context (`_BackupContext`) is built before the first backup
    and passed to every one: it holds the tables that stay fixed for the
    solve (N_a = discount * B T_a, R . b, the departing pairs' liveness) and
    the scratch each backup writes into (winners, values, one (B, K) buffer
    for the lower bounds and the shared term, the tile and pair score
    buffers, the weights and the winning scores), made once for at most B
    vectors, since no backup here takes more; the backed-up set's dot
    products are written into the shared-term buffer too.  So a backup
    allocates nothing large, and a solve's results are the ones fresh
    buffers would give.  Points whose state count differs from the model's
    are refused with a ValueError.

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
    # A backup emits at most one vector per point and the acceptance keeps at
    # most one per point, so no backup here takes more than B vectors.
    num_points = len(points)
    context = _BackupContext(pomdp, points.matrix, num_points)
    start = initialize_value(pomdp)
    matrix, actions = start.matrix, start.actions
    # Each point's value, and the position of its first maximizing vector in
    # the current set, which becomes its position in the pool once offset
    # past the backed-up vectors.
    values = _dot_table(matrix, points)[:, 0]
    owner, every = np.zeros(num_points, dtype=np.intp), np.arange(num_points)
    delta = np.inf
    history = []
    for iteration in range(1, max_iter + 1):
        began, k_in = time.perf_counter(), len(matrix)
        new_matrix, new_actions, skipped = _backup(pomdp, matrix, context)
        fresh = len(new_matrix)
        dots = context.scratch("shared", (fresh, num_points))
        _dot_table(new_matrix, points, out=dots)
        first = dots.argmax(axis=0)
        best = dots[first, every]
        owner += fresh
        np.copyto(owner, first, where=best >= values)
        kept = np.unique(owner)
        owner = np.searchsorted(kept, owner)
        previous, values = values, np.maximum(best, values)
        matrix = np.concatenate((new_matrix, matrix))[kept]
        actions = np.concatenate((new_actions, actions))[kept]
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
