"""Discrete POMDP model types and exact Bayesian belief updates.

Everything is dense numpy: paper-scale models (tens of states) never need
sparsity.  Instances validate on construction and are frozen afterwards, so
all operations here are pure functions that can be shared across workers.
Every probability table (a belief, a belief point set, a source likelihood,
the model's transition and observation tensors) passes one validator,
`_check_stochastic`: entries in [0, 1], each row summing to 1 within
`ROW_SUM_TOL`, NaN rejected.  A perception action is a plain tuple of
distinct nonnegative source indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

ROW_SUM_TOL = 1e-9
# Scores this close to the best tie; the lowest index wins, not rounding.
_TIE_TOL = 1e-12
_SMALLEST_POSITIVE = np.nextafter(0.0, 1.0)

__all__ = [
    "ROW_SUM_TOL",
    "ZeroLikelihoodObservation",
    "Pomdp",
    "Belief",
    "InfoSource",
    "PerceptionAction",
    "belief_update_intrinsic",
    "belief_update_auxiliary",
    "read_pomdp_file",
    "write_pomdp_file",
]


class ZeroLikelihoodObservation(RuntimeError):
    """The received observation has probability zero under the current belief.

    The Bayes normalizer vanishes, so the posterior is undefined.  This always
    signals a model/trajectory inconsistency; callers must not paper over it
    by renormalizing.
    """


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _check_stochastic(name: str, tensor: np.ndarray) -> None:
    """The one probability validator: a nonempty tensor whose entries lie in
    [0, 1] and whose rows along the last axis sum to 1.  The comparisons are
    written so that NaN fails them."""
    if tensor.size == 0:
        raise ValueError(f"{name}: tensor is empty")
    if not (tensor.min() >= 0.0 and tensor.max() <= 1.0):
        raise ValueError(f"{name}: probabilities must lie in [0, 1]")
    if tensor.ndim == 1:
        # The same figure for one row, without the reductions over a 0-d sum.
        deviation = abs(float(tensor.sum()) - 1.0)
    else:
        deviation = np.abs(tensor.sum(axis=-1) - 1.0).max()
    if not deviation <= ROW_SUM_TOL:
        raise ValueError(f"{name}: rows must sum to 1 (worst deviation {deviation:.3e})")


def _xlogx(arr: np.ndarray) -> np.ndarray:
    """x log x elementwise for x >= 0, with 0 log 0 = 0.

    A zero entry takes the log of the smallest positive float, which is
    finite, so its term is -0.0 and no masked log is needed.  A sum over
    probabilities that holds some positive one comes out as with +0.0 terms.
    """
    out = np.maximum(arr, _SMALLEST_POSITIVE)
    np.log(out, out=out)
    out *= arr
    return out


def _first_within_tol(values: np.ndarray) -> np.ndarray:
    """Lowest index along the last axis within _TIE_TOL of its maximum."""
    return (values >= values.max(axis=-1, keepdims=True) - _TIE_TOL).argmax(axis=-1)


@dataclass(frozen=True, eq=False)
class Pomdp:
    """Finite POMDP.

    transition[s, a, s']   probability of reaching s' when taking a in s
    observation[s', a, w]  probability of observing w after landing in s' via a
    reward[s, a]           immediate reward
    discount               in [0, 1); strictly below 1 so value bounds exist
    """

    transition: np.ndarray
    observation: np.ndarray
    reward: np.ndarray
    discount: float

    def __post_init__(self) -> None:
        t = _frozen_array(self.transition)
        o = _frozen_array(self.observation)
        r = _frozen_array(self.reward)
        if t.ndim != 3 or t.shape[0] != t.shape[2]:
            raise ValueError("transition must have shape (S, A, S)")
        num_states, num_actions = t.shape[0], t.shape[1]
        if o.ndim != 3 or o.shape[:2] != (num_states, num_actions):
            raise ValueError("observation must have shape (S, A, num_observations)")
        if r.shape != (num_states, num_actions):
            raise ValueError("reward must have shape (S, A)")
        if not 0.0 <= float(self.discount) < 1.0:
            raise ValueError("discount must lie in [0, 1)")
        if not np.isfinite(r).all():
            raise ValueError("reward entries must be finite")
        _check_stochastic("transition", t)
        _check_stochastic("observation", o)
        object.__setattr__(self, "transition", t)
        object.__setattr__(self, "observation", o)
        object.__setattr__(self, "reward", r)
        object.__setattr__(self, "discount", float(self.discount))

    @property
    def num_states(self) -> int:
        return self.transition.shape[0]

    @property
    def num_actions(self) -> int:
        return self.transition.shape[1]

    @property
    def num_observations(self) -> int:
        return self.observation.shape[2]

    @cached_property
    def sensor_split(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sensor as a floor plus departures: O(s', a, w) = u(s', a) + D(s', a, w).

        u is the minimum of O(s', a, .) over observations and D >= 0.
        Returns u (S, A) and, per action and observation, the rows s' where
        D is nonzero as an (m, A, W) index array with the matching (m, A, W)
        departures, m being the most any (a, w) has; shorter lists are
        padded with rows whose departure is exactly 0.  A diagonal-plus-
        uniform sensor has m = 1.  All three arrays are read-only.
        """
        floor = self.observation.min(axis=2)
        departures = self.observation - floor[:, :, None]
        nonzero = departures != 0.0
        width = max(int(nonzero.sum(axis=0).max()), 1)
        rows = np.argsort(~nonzero, axis=0, kind="stable")[:width]
        split = (floor, rows, np.take_along_axis(departures, rows, axis=0))
        for arr in split:
            arr.setflags(write=False)
        return split

    @cached_property
    def cumulative(self) -> tuple[np.ndarray, np.ndarray]:
        """Running sums of the transition rows T(s, a, .) and the sensor rows
        O(s', a, .), each row summed as `np.cumsum` sums it alone; built on
        first use for drawing successors and observations with one
        `searchsorted` each.  Both arrays are read-only."""
        sums = (np.cumsum(self.transition, axis=2), np.cumsum(self.observation, axis=2))
        for arr in sums:
            arr.setflags(write=False)
        return sums


@dataclass(frozen=True, eq=False)
class Belief:
    """Probability distribution over states; the planner/selector currency."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = _frozen_array(self.probs)
        if p.ndim != 1:
            raise ValueError("belief must be a vector")
        _check_stochastic("belief", p)
        object.__setattr__(self, "probs", p)

    @property
    def num_states(self) -> int:
        return self.probs.size

    @staticmethod
    def uniform(num_states: int) -> "Belief":
        return Belief(np.full(num_states, 1.0 / num_states))

    @staticmethod
    def point_mass(num_states: int, state: int) -> "Belief":
        probs = np.zeros(num_states)
        probs[state] = 1.0
        return Belief(probs)


@dataclass(frozen=True, eq=False)
class InfoSource:
    """One auxiliary observation channel.

    likelihood[s, a, y] is the probability the source reports symbol y when
    the agent sits in state s after action a; symbols live in the source's own
    private alphabet.  cost is the scalar price of querying the source once,
    finite and positive.  The likelihood is stored read-only; when no action
    changes its rows, one set is stored and shown to every action.
    """

    likelihood: np.ndarray
    cost: float

    def __post_init__(self) -> None:
        lik = _frozen_array(self.likelihood)
        if lik.ndim != 3:
            raise ValueError("likelihood must have shape (S, A, alphabet)")
        _check_stochastic("likelihood", lik)
        # No action changes the rows (as for every UAV): one set is kept and
        # shown to every action, here and in the tables built below.  The
        # one-entry test spares most other sources the whole comparison.
        if lik[0, 0, 0] == lik[0, -1, 0] and (lik == lik[:, :1]).all():
            lik = np.broadcast_to(lik[:, :1].copy(), lik.shape)
        cost = float(self.cost)
        if not (math.isfinite(cost) and cost > 0.0):
            raise ValueError(f"source cost must be finite and positive, got {cost}")
        object.__setattr__(self, "likelihood", lik)
        object.__setattr__(self, "cost", cost)

    @property
    def num_symbols(self) -> int:
        return self.likelihood.shape[2]

    @property
    def _distinct_rows(self) -> np.ndarray:
        """The likelihood, cut to its one stored action when every action
        shows the same rows."""
        lik = self.likelihood
        return lik[:, :1] if lik.strides[1] == 0 else lik

    @cached_property
    def noise_rows(self) -> np.ndarray:
        """sum_y L(s, a, y) log L(s, a, y) as an (A, S) array, 0 log 0 = 0.

        Row a dotted with a belief is -H(Y | S) under action a.  Each entry
        adds its symbols' terms one by one in symbol order.  Built on first
        use; read-only.
        """
        terms = _xlogx(self._distinct_rows)
        rows = terms[:, :, 0].T.copy()
        for y in range(1, self.num_symbols):
            rows += terms[:, :, y].T
        return np.broadcast_to(rows, self.likelihood.shape[1::-1])

    @cached_property
    def cumulative(self) -> np.ndarray:
        """Running sums of the likelihood rows L(s, a, .), each row summed as
        `np.cumsum` sums it alone; built on first use for drawing reports
        with one `searchsorted`.  Read-only."""
        return np.broadcast_to(np.cumsum(self._distinct_rows, axis=2), self.likelihood.shape)


class PerceptionAction(tuple):
    """Ordered set of selected information-source indices.

    A tuple of distinct nonnegative ints, checked on construction; it equals
    the plain tuple of the same indices and is falsy when empty.
    """

    __slots__ = ()

    def __new__(cls, selected: Iterable[int] = ()) -> PerceptionAction:
        sel = super().__new__(cls, (int(i) for i in selected))
        if any(i < 0 for i in sel):
            raise ValueError("source indices must be nonnegative")
        if len(set(sel)) != len(sel):
            raise ValueError("source indices must be unique")
        return sel


def belief_update_intrinsic(pomdp: Pomdp, belief: Belief, action: int, obs: int) -> Belief:
    """Posterior over next states after taking `action` and observing `obs`.

    b'(s') is proportional to O(s', a, obs) * sum_s T(s, a, s') b(s).
    Raises ZeroLikelihoodObservation when the observation is impossible.
    """
    predicted = belief.probs @ pomdp.transition[:, action, :]
    unnormalized = pomdp.observation[:, action, obs] * predicted
    total = unnormalized.sum()
    if total <= 0.0:
        raise ZeroLikelihoodObservation(
            f"observation {obs} has zero probability after action {action}"
        )
    return Belief(unnormalized / total)


def belief_update_auxiliary(
    b_prime: Belief,
    action: int,
    selected: PerceptionAction,
    sources: Sequence[InfoSource],
    symbols: Sequence[int],
) -> Belief:
    """Refine a belief with reports from the selected auxiliary sources.

    Sources are conditionally independent given the state, so the joint
    likelihood is the product of per-source likelihoods.  An empty selection
    returns the belief unchanged (the empty product is 1).
    """
    if len(symbols) != len(selected):
        raise ValueError("need exactly one reported symbol per selected source")
    if not selected:
        return b_prime
    weights = np.ones(b_prime.num_states)
    for index, symbol in zip(selected, symbols):
        weights *= sources[index].likelihood[:, action, symbol]
    unnormalized = weights * b_prime.probs
    total = unnormalized.sum()
    if total <= 0.0:
        raise ZeroLikelihoodObservation(
            f"auxiliary reports {tuple(symbols)} have zero joint probability"
        )
    return Belief(unnormalized / total)


# ---------------------------------------------------------------------------
# Text files.  Every file the package reads or writes opens with a version
# header line; '#' starts a comment.  `_write_lines` and `_read_lines` are the
# one writer and the one reader of every such file.
#
# Model files:
#
#   pomdp v1
#   states N
#   actions A
#   observations M
#   discount G
#   transition      followed by N*A lines of N floats, row (s, a), s-major
#   observation     followed by N*A lines of M floats, row (s', a)
#   reward          followed by N lines of A floats
# ---------------------------------------------------------------------------

POMDP_FILE_HEADER = "pomdp v1"
_POMDP_SECTIONS = ("transition", "observation", "reward")


def _write_lines(path: str, lines: Iterable[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_lines(path: str, header: str) -> list[str]:
    """The content lines of a file after its version header.

    Comments and blank lines are dropped, and the first line left must be
    `header`.  A line that is exactly the header is kept whole, so a header
    that is itself a comment, as the CSVs' are, counts too.
    """
    with open(path, "r", encoding="utf-8") as fh:
        stripped = [raw.strip() for raw in fh]
    lines = [line if line == header else line.split("#", 1)[0].strip() for line in stripped]
    lines = [line for line in lines if line]
    if not lines or lines[0] != header:
        raise ValueError(f"not a '{header}' file: {path}")
    return lines[1:]


def _format_row(values: np.ndarray) -> str:
    return " ".join(map(repr, values.tolist()))


def _scalar_line(lines: list[str], pos: int, key: str, kind: type = float):
    if pos >= len(lines):
        raise ValueError(f"file truncated, expected '{key}'")
    parts = lines[pos].split()
    if len(parts) != 2 or parts[0] != key:
        raise ValueError(f"expected '{key} <value>', got {lines[pos]!r}")
    return kind(parts[1])


def _read_block(lines: list[str], pos: int, name: str, shape: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """Section `name` at `pos`, one row of floats per last-axis slice of `shape`."""
    if pos >= len(lines) or lines[pos] != name:
        raise ValueError(f"expected section '{name}'")
    pos += 1
    block = np.empty(shape)
    cols = shape[-1]
    rows = block.reshape(-1, cols)  # a view of block
    for r in range(len(rows)):
        if pos + r >= len(lines):
            raise ValueError(f"section '{name}' truncated at row {r}")
        parts = lines[pos + r].split()
        if len(parts) != cols:
            raise ValueError(f"section '{name}' row {r}: expected {cols} values, got {len(parts)}")
        rows[r] = [float(p) for p in parts]
    return block, pos + len(rows)


def write_pomdp_file(pomdp: Pomdp, path: str) -> None:
    lines = [
        POMDP_FILE_HEADER,
        f"states {pomdp.num_states}",
        f"actions {pomdp.num_actions}",
        f"observations {pomdp.num_observations}",
        f"discount {pomdp.discount!r}",
    ]
    for name in _POMDP_SECTIONS:
        table = getattr(pomdp, name)
        lines.append(name)
        lines.extend(_format_row(row) for row in table.reshape(-1, table.shape[-1]))
    _write_lines(path, lines)


def read_pomdp_file(path: str) -> Pomdp:
    """Parse a model file; tensors violating the row-sum invariants are rejected."""
    lines = _read_lines(path, POMDP_FILE_HEADER)
    num_states = int(_scalar_line(lines, 0, "states"))
    num_actions = int(_scalar_line(lines, 1, "actions"))
    num_obs = int(_scalar_line(lines, 2, "observations"))
    discount = _scalar_line(lines, 3, "discount")
    if num_states < 1 or num_actions < 1 or num_obs < 1:
        raise ValueError("dimensions must be positive")
    shapes = (
        (num_states, num_actions, num_states),
        (num_states, num_actions, num_obs),
        (num_states, num_actions),
    )
    tables = {}
    pos = 4
    for name, shape in zip(_POMDP_SECTIONS, shapes):
        tables[name], pos = _read_block(lines, pos, name, shape)
    if pos != len(lines):
        raise ValueError("trailing content after reward section")
    return Pomdp(**tables, discount=discount)
