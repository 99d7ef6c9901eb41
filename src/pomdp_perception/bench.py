"""Seeded random selection instances and guarantee benchmarking.

Backs the `select-bench` CLI subcommand and the acceptance suite: generates
small random selection problems, runs greedy against the exhaustive optimum,
and checks the approximation-ratio, belief-distance, and value-loss bounds on
each instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pbvi import sample_beliefs_uniform, solve
from .pomdp import Belief, InfoSource, Pomdp
from .selection import (
    BRUTE_FORCE_MAX_SOURCES,
    GREEDY_GUARANTEE,
    SelectionProblem,
    _check_beta,
    brute_force_optimal,
    check_distance_bound,
    check_value_bound,
    generalized_greedy,
)

__all__ = [
    "BenchConfig",
    "BenchRow",
    "random_pomdp",
    "random_selection_problem",
    "evaluate_instance",
    "run_bench",
    "bench_csv_lines",
    "min_ratio",
]

_COST_RANGE = (0.2, 1.2)


@dataclass(frozen=True)
class BenchConfig:
    """Caps for random instances; defaults keep exhaustive search cheap.

    Instances draw 2..max_sources sources, 2..max_states states and
    observations, and 2..max_symbols symbols per source, so each cap must be
    at least 2, and max_sources at most the exhaustive search's
    `BRUTE_FORCE_MAX_SOURCES`.
    """

    max_states: int = 6
    max_sources: int = 10
    max_symbols: int = 3
    beta: float = 1.0
    discount: float = 0.9
    solver_points: int = 16
    solver_tol: float = 1e-3
    solver_max_iter: int = 500

    def __post_init__(self) -> None:
        if not 2 <= self.max_sources <= BRUTE_FORCE_MAX_SOURCES:
            raise ValueError(
                f"max_sources must be in [2, {BRUTE_FORCE_MAX_SOURCES}], got {self.max_sources}"
            )
        for name in ("max_states", "max_symbols"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be at least 2, got {getattr(self, name)}")
        _check_beta(self.beta, _COST_RANGE)


def random_pomdp(
    rng: np.random.Generator,
    num_states: int,
    num_actions: int,
    num_observations: int,
    discount: float,
) -> Pomdp:
    return Pomdp(
        transition=rng.dirichlet(np.ones(num_states), size=(num_states, num_actions)),
        observation=rng.dirichlet(np.ones(num_observations), size=(num_states, num_actions)),
        reward=rng.uniform(-1.0, 1.0, size=(num_states, num_actions)),
        discount=discount,
    )


def random_selection_problem(
    rng: np.random.Generator,
    num_states: int,
    num_actions: int,
    config: BenchConfig,
) -> SelectionProblem:
    n = int(rng.integers(2, config.max_sources + 1))
    sources = []
    for _ in range(n):
        m = int(rng.integers(2, config.max_symbols + 1))
        sources.append(
            InfoSource(
                likelihood=rng.dirichlet(np.ones(m), size=(num_states, num_actions)),
                cost=float(rng.uniform(*_COST_RANGE)),
            )
        )
    total_cost = sum(src.cost for src in sources)
    return SelectionProblem(
        belief=Belief(rng.dirichlet(np.ones(num_states))),
        action=int(rng.integers(num_actions)),
        sources=tuple(sources),
        budget=float(rng.uniform(0.05, 1.05) * total_cost),
        beta=config.beta,
    )


@dataclass(frozen=True)
class BenchRow:
    """Per-instance benchmark results, one CSV row.

    `select-bench` counts an instance whose solve stopped unconverged as a
    failure, as it does one whose theorem check fails.
    """

    seed: int
    n: int
    budget: float
    greedy_utility: float
    optimal_utility: float
    ratio: float
    theorem1_pass: bool
    theorem2_pass: bool
    theorem3_pass: bool
    solve_converged: bool


def evaluate_instance(
    base_seed: int,
    index: int,
    config: BenchConfig = BenchConfig(),
) -> BenchRow:
    """Run all three guarantee checks on the instance (base_seed, index).

    The value-loss check uses the value function solved on the instance's
    random model; `solve_converged` records whether that solve converged.
    """
    rng = np.random.default_rng([base_seed, index])
    num_states = int(rng.integers(2, config.max_states + 1))
    num_actions = int(rng.integers(2, 4))
    num_observations = int(rng.integers(2, config.max_states + 1))
    pomdp = random_pomdp(rng, num_states, num_actions, num_observations, config.discount)
    problem = random_selection_problem(rng, num_states, num_actions, config)

    greedy = generalized_greedy(problem)
    optimal = brute_force_optimal(problem)
    ratio = 1.0 if optimal.utility <= 0.0 else greedy.utility / optimal.utility
    t1 = greedy.utility >= GREEDY_GUARANTEE * optimal.utility - 1e-9

    prior = problem.belief
    distance = check_distance_bound(problem, prior, greedy=greedy, optimal=optimal)

    points = sample_beliefs_uniform(num_states, config.solver_points, seed=index)
    solved = solve(pomdp, points, tol=config.solver_tol, max_iter=config.solver_max_iter)
    value_report = check_value_bound(
        solved.value_function, problem, prior, pomdp, greedy=greedy, optimal=optimal
    )

    return BenchRow(
        seed=index,
        n=problem.num_sources,
        budget=problem.budget,
        greedy_utility=greedy.utility,
        optimal_utility=optimal.utility,
        ratio=ratio,
        theorem1_pass=bool(t1),
        theorem2_pass=distance.passed,
        theorem3_pass=value_report.passed,
        solve_converged=solved.converged,
    )


def run_bench(
    num_instances: int,
    base_seed: int = 0,
    config: BenchConfig = BenchConfig(),
) -> list[BenchRow]:
    return [evaluate_instance(base_seed, i, config) for i in range(num_instances)]


BENCH_CSV_HEADER = "# select-bench v2"
# The BenchRow fields written, in column order; booleans are written 0/1.
BENCH_CSV_COLUMNS = (
    "seed", "n", "budget", "greedy_utility", "optimal_utility", "ratio",
    "theorem1_pass", "theorem2_pass", "theorem3_pass", "solve_converged",
)


def _csv_field(value) -> str:
    return repr(value) if isinstance(value, float) else str(int(value))


def bench_csv_lines(rows: list[BenchRow]) -> list[str]:
    lines = [BENCH_CSV_HEADER, ",".join(BENCH_CSV_COLUMNS)]
    for r in rows:
        lines.append(",".join(_csv_field(getattr(r, column)) for column in BENCH_CSV_COLUMNS))
    return lines


def min_ratio(rows: list[BenchRow]) -> float:
    return min(r.ratio for r in rows)
