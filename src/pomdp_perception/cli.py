"""Command-line pipeline: solve, simulate, select-bench, report.

Every subcommand is a deterministic function of its flags and seeds.  Exit
codes: 0 success, 1 configuration error, 2 runtime numerical error, or a
`solve` that stopped at --max-iter unconverged (its value file is still
written, and a warning says so on stderr; `simulate` only warns when its own
solve stops so).  Configuration errors include a missing or malformed input
file, named in the message: `report` refuses a rewards file with no rows or
no discounted_reward column, and a visit grid that is not the scenario's
height x width.  They also include a `select-bench` cap out of range:
--max-states and --max-symbols below 2, or --max-sources outside
[2, BRUTE_FORCE_MAX_SOURCES], or a --beta with a cost**beta not finite and
positive, refused before any instance is solved; `simulate` --runs below 1
or a --policies k outside 0..budget; for the solve of `solve` and `simulate`,
--beliefs or --max-iter below 1 or --tol <= 0; each message names the flag.

Every file read or written opens with its version header line, checked on
reading; '#' starts a comment.

  scenario v1           a scenario (write_scenario_file); read by solve
                        --scenario, simulate and report
  pomdp v1              a model (write_pomdp_file); read by solve --model
  alphas v1             a value function; written by solve --out, read by
                        simulate --value-function
  # rewards v1          rewards_<policy>.csv, one row per run; written by
                        simulate, read by report
  # visit-frequency v1  visits_<policy>.csv, visit counts per grid row;
                        written by simulate, read by report
  # select-bench v2     one row per instance; written by select-bench --out
  # report v1           one row per policy; written by report --out
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from . import bench
from .gridworld import (
    PERCEPTION_POLICIES,
    InvalidScenario,
    Scenario,
    build_pomdp,
    monte_carlo,
    read_scenario_file,
)
from .pbvi import (
    SolveResult,
    read_value_function,
    sample_beliefs_uniform,
    solve,
    write_value_function,
)
from .pomdp import ZeroLikelihoodObservation, _read_lines, _write_lines, read_pomdp_file
from .selection import GREEDY_GUARANTEE, JointAlphabetTooLarge, TooManySources

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2

_NUMERIC_ERRORS = (ZeroLikelihoodObservation, JointAlphabetTooLarge, TooManySources)

REWARDS_CSV_HEADER = "# rewards v1"
VISITS_CSV_HEADER = "# visit-frequency v1"
REPORT_CSV_HEADER = "# report v1"


class _ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse failures on exit code 1
        raise _ConfigError(message)


def _default_out_dir() -> str:
    return os.environ.get("POMDP_PERCEPTION_OUT", "out")


def _policy_label(policy: str, k: int) -> str:
    return "none" if policy == "none" else f"{policy}_k{k}"


def _parse_policies(text: str, budget: int) -> list[tuple[str, int]]:
    out = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, kpart = item.partition(":")
        if name not in PERCEPTION_POLICIES:
            raise _ConfigError(f"--policies: unknown policy {name!r}")
        if kpart and not (kpart.isdigit() and int(kpart) <= budget):
            raise _ConfigError(f"--policies: k in {item!r} must be an integer from 0 to the budget {budget}")
        k = int(kpart) if kpart else (0 if name == "none" else budget)
        out.append((name, k))
    if not out:
        raise _ConfigError("--policies: no policies requested")
    return out


def _solve_and_warn(pomdp, args) -> tuple[SolveResult, int]:
    """Check --beliefs, --tol and --max-iter, solve on --beliefs points drawn
    with --seed, and warn on stderr when the solve stops at --max-iter
    unconverged.  Returns the result and the number of points."""
    if args.beliefs < 1:
        raise _ConfigError("--beliefs must be at least 1")
    if args.tol <= 0:
        raise _ConfigError("--tol must be positive")
    if args.max_iter < 1:
        raise _ConfigError("--max-iter must be at least 1")
    points = sample_beliefs_uniform(pomdp.num_states, args.beliefs, args.seed)
    result = solve(pomdp, points, tol=args.tol, max_iter=args.max_iter)
    if not result.converged:
        print(
            f"warning: the solve did not converge: {result.iterations} backups ran and the last "
            f"still moved the point values by {result.final_delta!r} in sum; "
            "raise --max-iter or --tol",
            file=sys.stderr,
        )
    return result, len(points)


def cmd_solve(args) -> int:
    if args.model:
        pomdp = read_pomdp_file(args.model)
    else:
        pomdp = build_pomdp(read_scenario_file(args.scenario))
    result, num_points = _solve_and_warn(pomdp, args)
    write_value_function(result.value_function, args.out)
    print(
        f"solve: converged={result.converged} iterations={result.iterations} "
        f"final_l1_delta={result.final_delta!r} alphas={len(result.value_function)} "
        f"points={num_points}"
    )
    print(f"wrote {args.out}")
    return EXIT_OK if result.converged else EXIT_NUMERIC


def cmd_simulate(args) -> int:
    if args.runs < 1:
        raise _ConfigError("--runs must be at least 1")
    scenario = read_scenario_file(args.scenario)
    policies = _parse_policies(args.policies, scenario.budget)
    pomdp = build_pomdp(scenario)
    if args.value_function:
        vf = read_value_function(args.value_function)
    else:
        vf = _solve_and_warn(pomdp, args)[0].value_function
    for policy, k in policies:
        label = _policy_label(policy, k)
        result = monte_carlo(pomdp, vf, scenario, policy, k, n_runs=args.runs, base_seed=args.seed)
        reward_lines = [REWARDS_CSV_HEADER, "run,policy,discounted_reward"]
        for i, episode in enumerate(result.episodes):
            reward_lines.append(f"{i},{label},{episode.discounted_reward!r}")
        _write_lines(os.path.join(args.out_dir, f"rewards_{label}.csv"), reward_lines)
        visit_lines = [VISITS_CSV_HEADER]
        for row in result.visit_counts:
            visit_lines.append(",".join(str(int(v)) for v in row))
        _write_lines(os.path.join(args.out_dir, f"visits_{label}.csv"), visit_lines)
        print(
            f"simulate: policy={label} runs={args.runs} "
            f"mean_discounted_reward={result.mean_discounted_reward!r} "
            f"std={result.std_discounted_reward!r} failed={result.num_failed}"
        )
    print(f"wrote CSVs to {args.out_dir}")
    return EXIT_OK


def cmd_select_bench(args) -> int:
    if args.instances < 1:
        raise _ConfigError("--instances must be at least 1")
    config = bench.BenchConfig(
        max_states=args.max_states,
        max_sources=args.max_sources,
        max_symbols=args.max_symbols,
        beta=args.beta,
    )
    rows = bench.run_bench(args.instances, base_seed=args.seed, config=config)
    _write_lines(args.out, bench.bench_csv_lines(rows))
    failures = sum(
        1
        for r in rows
        if not (r.theorem1_pass and r.theorem2_pass and r.theorem3_pass and r.solve_converged)
    )
    print(
        f"select-bench: instances={len(rows)} failures={failures} "
        f"min_ratio={bench.min_ratio(rows)!r} guarantee={GREEDY_GUARANTEE!r}"
    )
    print(f"wrote {args.out}")
    return EXIT_OK


def _read_rewards(path: str) -> list[float]:
    rows = list(csv.DictReader(_read_lines(path, REWARDS_CSV_HEADER)))
    if not rows:
        raise _ConfigError(f"{path}: no rows")
    if "discounted_reward" not in rows[0]:
        raise _ConfigError(f"{path}: no discounted_reward column")
    try:
        return [float(r["discounted_reward"]) for r in rows]
    except (TypeError, ValueError):
        raise _ConfigError(f"{path}: a discounted_reward is missing or not a number") from None


def _read_visits(path: str, scenario: Scenario) -> list[list[int]]:
    lines = _read_lines(path, VISITS_CSV_HEADER)
    try:
        grid = [[int(v) for v in line.split(",")] for line in lines]
    except ValueError:
        raise _ConfigError(f"{path}: a visit count is not an integer") from None
    if len(grid) != scenario.height or any(len(row) != scenario.width for row in grid):
        raise _ConfigError(
            f"{path}: expected a {scenario.height} x {scenario.width} grid of visit counts"
        )
    return grid


def cmd_report(args) -> int:
    scenario = read_scenario_file(args.scenario)
    reward_files = sorted(
        f for f in os.listdir(args.dir) if f.startswith("rewards_") and f.endswith(".csv")
    )
    if not reward_files:
        raise _ConfigError(f"no rewards_*.csv files in {args.dir}")
    lines = [REPORT_CSV_HEADER, "policy,runs,mean_discounted_reward,std_discounted_reward,obstacle_visits"]
    for fname in reward_files:
        label = fname[len("rewards_") : -len(".csv")]
        rewards = _read_rewards(os.path.join(args.dir, fname))
        mean = sum(rewards) / len(rewards)
        std = (sum((x - mean) ** 2 for x in rewards) / len(rewards)) ** 0.5
        visits_path = os.path.join(args.dir, f"visits_{label}.csv")
        obstacle_visits = ""
        if os.path.exists(visits_path):
            grid = _read_visits(visits_path, scenario)
            total = 0
            for cell in scenario.obstacle_cells:
                row, col = scenario.cell_rc(cell)
                total += grid[row][col]
            obstacle_visits = str(total)
        lines.append(f"{label},{len(rewards)},{mean!r},{std!r},{obstacle_visits}")
    for line in lines[1:]:
        print(line)
    if args.out:
        _write_lines(args.out, lines)
        print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(
        prog="pomdp-perception", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a model and write the value function")
    group = p_solve.add_mutually_exclusive_group(required=True)
    group.add_argument("--scenario", help="scenario file to build the model from")
    group.add_argument("--model", help="pomdp model file to solve directly")
    p_solve.add_argument("--out", required=True, help="value-function output path")
    p_solve.add_argument("--beliefs", type=int, default=2000, help="sampled belief points")
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--tol", type=float, default=0.001)
    p_solve.add_argument("--max-iter", type=int, default=1000)
    p_solve.set_defaults(func=cmd_solve)

    p_sim = sub.add_parser("simulate", help="run seeded Monte Carlo episodes per policy")
    p_sim.add_argument("--scenario", required=True)
    p_sim.add_argument("--value-function", help="reuse a solved value function")
    p_sim.add_argument(
        "--policies",
        default="none,random:2,greedy:2",
        help="comma list of policy[:k], e.g. none,random:2,greedy:1,greedy:2",
    )
    p_sim.add_argument("--runs", type=int, default=50)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out-dir", default=_default_out_dir())
    p_sim.add_argument("--beliefs", type=int, default=2000, help="points for solve-on-demand")
    p_sim.add_argument("--tol", type=float, default=0.001)
    p_sim.add_argument("--max-iter", type=int, default=1000)
    p_sim.set_defaults(func=cmd_simulate)

    p_bench = sub.add_parser("select-bench", help="verify selection guarantees on random instances")
    p_bench.add_argument("--instances", type=int, default=1000)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", default=os.path.join(_default_out_dir(), "select_bench.csv"))
    p_bench.add_argument("--max-sources", type=int, default=10)
    p_bench.add_argument("--max-states", type=int, default=6)
    p_bench.add_argument("--max-symbols", type=int, default=3)
    p_bench.add_argument("--beta", type=float, default=1.0)
    p_bench.set_defaults(func=cmd_select_bench)

    p_report = sub.add_parser("report", help="summarize simulate outputs")
    p_report.add_argument("--dir", required=True, help="directory with simulate CSVs")
    p_report.add_argument("--scenario", required=True)
    p_report.add_argument("--out", help="optional summary CSV path")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        out_dir = getattr(args, "out_dir", None)
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
        out = getattr(args, "out", None)
        if out and os.path.dirname(out):
            os.makedirs(os.path.dirname(out), exist_ok=True)
        return args.func(args)
    except _ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERIC_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (InvalidScenario, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
