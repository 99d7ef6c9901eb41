"""Point-based value iteration over a fixed, uniformly sampled belief set.

The value function is a finite set of hyperplanes (alpha vectors), each tagged
with the action that generated it, stored as two frozen arrays: a (K, S) float
`matrix` of coefficients and a (K,) int `actions` vector of tags.  A backup
builds, for every sampled point, the best one-step lookahead hyperplane
against the previous set; the union of those per-point winners is the next
set.  Points are sampled once up front and never adapted: the auxiliary
observation channels available at runtime are unknown when the plan is
computed, so the sampler covers the whole simplex instead of chasing
reachable beliefs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np
from numpy.typing import ArrayLike

from .pomdp import Belief, Pomdp

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

    `matrix` (K, S) holds the coefficients and `actions` (K,) the nonnegative
    action tags; both are read-only copies.  Build one from `AlphaVector`
    records or, without per-vector objects, with `from_arrays`.
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
    """The fixed set of sampled belief points backups are restricted to."""

    points: tuple[Belief, ...]

    def __post_init__(self) -> None:
        points = tuple(self.points)
        if not points:
            raise ValueError("belief point set must be nonempty")
        dim = points[0].num_states
        if any(p.num_states != dim for p in points):
            raise ValueError("belief points must share the state dimension")
        object.__setattr__(self, "points", points)

    @cached_property
    def matrix(self) -> np.ndarray:
        m = np.vstack([p.probs for p in self.points])
        m.setflags(write=False)
        return m

    @property
    def num_states(self) -> int:
        return self.points[0].num_states

    def __len__(self) -> int:
        return len(self.points)


def sample_beliefs_uniform(num_states: int, count: int, seed: int) -> BeliefPointSet:
    """Draw `count` beliefs uniformly from the simplex (flat Dirichlet).

    The uniform belief and all simplex corners are always appended (then exact
    duplicates are dropped) so the set covers the extremes regardless of count.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(seed)
    rows = list(rng.dirichlet(np.ones(num_states), size=count))
    rows.append(np.full(num_states, 1.0 / num_states))
    rows.extend(np.eye(num_states))
    seen: set[bytes] = set()
    points = []
    for row in rows:
        key = row.tobytes()
        if key in seen:
            continue
        seen.add(key)
        points.append(Belief(row))
    return BeliefPointSet(tuple(points))


def initialize_value(pomdp: Pomdp) -> ValueFunction:
    """Single conservative hyperplane: collect the minimum reward forever."""
    low = float(pomdp.reward.min()) / (1.0 - pomdp.discount)
    return ValueFunction.from_arrays(np.full((1, pomdp.num_states), low), [0])


def value(vf: ValueFunction, belief: Belief) -> float:
    return float((vf.matrix @ belief.probs).max())


def best_action(vf: ValueFunction, belief: Belief) -> int:
    """Action tag of the maximizing alpha vector; ties keep the lowest index."""
    return int(vf.actions[int(np.argmax(vf.matrix @ belief.probs))])


def _dot_table(vf: ValueFunction, points: BeliefPointSet) -> np.ndarray:
    """(num points, num alphas) dot products.

    Each column is a matvec against one alpha vector, so its rounding never
    depends on which other vectors are in the set; pruning therefore
    preserves point values bit-for-bit.
    """
    return np.stack([points.matrix @ coeffs for coeffs in vf.matrix], axis=1)


def point_values(vf: ValueFunction, points: BeliefPointSet) -> np.ndarray:
    """V(b) for every sampled point, as a vector."""
    return _dot_table(vf, points).max(axis=1)


def backup(pomdp: Pomdp, previous: ValueFunction, points: BeliefPointSet) -> ValueFunction:
    """One point-based Bellman backup of `previous` over the sampled points.

    Procedure, per action a:
      * reward vector R(., a);
      * for every previous alpha and observation w, the discounted projection
        g[w, k](s) = discount * sum_s' O(s', a, w) T(s, a, s') alpha_k(s');
      * per point b, assemble R(., a) + sum_w argmax_k g[w, k] . b.
    Each point then keeps its best action's vector, and the union over points
    is returned in first-point order with exact duplicates emitted once.

    Tie-breaking is deterministic throughout: the per-observation argmax keeps
    the lowest vector index and the per-point action argmax the lowest action.
    """
    num_states = pomdp.num_states
    num_actions = pomdp.num_actions
    num_obs = pomdp.num_observations
    prev = previous.matrix                      # (K, S')
    bmat = points.matrix                        # (B, S)
    bmat_t = bmat.T
    num_points = bmat.shape[0]

    alpha_ba = np.empty((num_actions, num_points, num_states))
    value_ba = np.empty((num_points, num_actions))
    for a in range(num_actions):
        trans_t = pomdp.transition[:, a, :].T   # (S', S)
        obs_a = pomdp.observation[:, a, :]      # (S', W)
        assembled = np.tile(pomdp.reward[:, a], (num_points, 1))
        for w in range(num_obs):
            projected = pomdp.discount * ((prev * obs_a[:, w]) @ trans_t)  # (K, S)
            winners = np.argmax(projected @ bmat_t, axis=0)                # (B,)
            assembled += projected[winners, :]
        alpha_ba[a] = assembled
        value_ba[:, a] = np.einsum("bs,bs->b", assembled, bmat)

    best_a = np.argmax(value_ba, axis=1)
    first: dict[tuple[int, bytes], int] = {}
    for b, a in enumerate(best_a.tolist()):
        first.setdefault((a, alpha_ba[a, b].tobytes()), b)
    keep = np.array(list(first.values()))
    return ValueFunction.from_arrays(alpha_ba[best_a[keep], keep], best_a[keep])


def prune(vf: ValueFunction, points: BeliefPointSet) -> ValueFunction:
    """Keep exactly the vectors that win at some sampled point.

    Ties at a point go to the lowest vector index.  Values at the sampled
    points are unchanged by construction.
    """
    winners = np.unique(np.argmax(_dot_table(vf, points), axis=1))
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
    """Iterate backup+prune until the summed |V_t(b) - V_{t-1}(b)| over the
    sampled points drops below `tol`, or `max_iter` backups have run."""
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    vf = initialize_value(pomdp)
    prev_vals = point_values(vf, points)
    delta = np.inf
    for iteration in range(1, max_iter + 1):
        vf = prune(backup(pomdp, vf, points), points)
        vals = point_values(vf, points)
        delta = float(np.abs(vals - prev_vals).sum())
        prev_vals = vals
        if delta < tol:
            return SolveResult(vf, iteration, delta, True)
    return SolveResult(vf, max_iter, delta, False)


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
