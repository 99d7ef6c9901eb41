"""Show that every output check accepts real outputs and rejects planted
wrong ones.

    python3 perfbench/selftest.py

Run it from the repository root.  It exits 1 if a check rejects a correct
output or lets a planted fault through.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def main():
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import oracle
    import workloads
    from pomdp_perception import bench

    OUT_DIR.mkdir(exist_ok=True)
    results = []

    def expect(label, errors, should_fail):
        ok = bool(errors) == should_fail
        results.append(ok)
        verdict = "rejected" if errors else "accepted"
        print(f"{'ok' if ok else 'WRONG':5} {verdict:8} {label}")

    # plan: alpha vectors against the MDP value and the reward floor.
    patrol = workloads.make("patrol-greedy", 0, str(OUT_DIR))
    scenario, pomdp, vf = patrol.setup()
    _, v_mdp = oracle.mdp_values(pomdp.transition, pomdp.reward, pomdp.discount)
    points = np.random.default_rng(0).dirichlet(np.ones(pomdp.num_states), size=50)
    points = np.vstack([points, np.eye(pomdp.num_states)])
    floor = float(pomdp.reward.min()) / (1.0 - pomdp.discount)

    def bounds(matrix):
        return checks.check_value_bounds(
            [matrix], points, v_mdp, float(pomdp.reward.min()), pomdp.discount
        )

    expect("plan: lower-bound start vector", bounds(np.full((1, pomdp.num_states), floor)), False)
    too_high = np.vstack([np.full(pomdp.num_states, floor), v_mdp + 0.01])
    expect("plan: an alpha vector above V_MDP at a corner", bounds(too_high), True)
    too_low = np.full((1, pomdp.num_states), floor - 0.01)
    expect("plan: V(b) below R_min/(1-discount)", bounds(too_low), True)

    # plan: a later round's solve must repeat the first round's.
    from pomdp_perception import pbvi

    plan = workloads.make("plan", 0, str(OUT_DIR))
    few_points = pbvi.sample_beliefs_uniform(pomdp.num_states, 10, seed=0)
    solved = pbvi.solve(pomdp, few_points, max_iter=2)
    again = pbvi.solve(pomdp, few_points, max_iter=2)
    longer = pbvi.solve(pomdp, few_points, max_iter=3)
    expect("plan: an identical re-run", checks.check_repeat([solved], [again], plan.same), False)
    expect("plan: a re-run that differs", checks.check_repeat([solved], [longer], plan.same), True)

    # Patrol episodes: one real greedy episode, then planted faults.
    episode = patrol.op((scenario, pomdp, vf), 0)
    costs = [uav.cost for uav in scenario.uavs]

    def episodes(record):
        return checks.check_episodes(
            [record], pomdp.transition, pomdp.reward, pomdp.discount,
            scenario.goal_cell, costs, patrol.K,
        )

    def with_step(t, **changes):
        steps = list(episode.steps)
        steps[t] = dataclasses.replace(steps[t], **changes)
        return dataclasses.replace(episode, steps=tuple(steps))

    far = (episode.steps[1].state + 3 * scenario.width + 3) % scenario.num_cells
    off_total = dataclasses.replace(episode, discounted_reward=episode.discounted_reward + 0.5)
    planted = {
        "discounted reward off by 0.5": off_total,
        "a step reward that is not R[s, a]": with_step(2, reward=episode.steps[2].reward + 1.0),
        "a jump no transition allows": with_step(1, state=far),
        "a source queried twice": with_step(0, selected=(3, 3)),
        "a source index out of range": with_step(0, selected=(0, len(costs))),
        "three sources on a budget of two": with_step(0, selected=(0, 1, 2)),
        "a failed episode": dataclasses.replace(episode, failed=True),
    }
    expect("patrol: a real episode", episodes(episode), False)
    for label, record in planted.items():
        expect(f"patrol: {label}", episodes(record), True)
    expect("patrol: an identical re-run", checks.check_repeat([episode], [episode], patrol.same), False)
    differs = with_step(0, action=4)
    expect("patrol: a re-run that differs", checks.check_repeat([episode], [differs], patrol.same), True)

    # generalized_greedy against the plain-loop rule and the exhaustive optimum.
    known = patrol.KNOWN_TIE_BREAK_MISSES
    cases = patrol.greedy_cases(scenario)
    real = sum((checks.check_greedy(c, known) for c in cases), [])
    expect("greedy: the program's answers", real, False)
    spread = next(c for c in cases if c["label"] == "t=0 spread 0")
    few = next(c for c in cases if c["label"] == "t=0 few 0")
    copies = next(c for c in cases if c["label"] == "t=0 copies")
    miss = next(c for c in cases if c["label"] in known)
    n = len(costs)

    def utility(case, subset):
        return oracle.mutual_information(case["belief"], [case["columns"][i] for i in subset])

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    worst = min(pairs, key=lambda pair: utility(spread, pair))
    swapped = tuple(i + n if i < n else i - n for i in copies["selected"])
    planted = {
        "the least informative pair": {
            **spread, "selected": worst, "utility": utility(spread, worst)
        },
        "a misreported utility": {**spread, "utility": spread["utility"] + 0.1},
        "nothing picked on an informative belief": {**few, "selected": (), "utility": 0.0},
        "three sources on a budget of two": {**spread, "selected": (0, 1, 2)},
        "a copy picked over its lower-index twin": {**copies, "selected": swapped},
        "the known tie-break miss on a probe not listed": {**miss, "label": "t=0 unlisted"},
        "a listed probe answered with a less informative set": {
            **spread, "label": miss["label"], "selected": worst, "utility": utility(spread, worst)
        },
    }
    for label, case in planted.items():
        expect(f"greedy: {label}", checks.check_greedy(case, known), True)

    # select-verify rows against theorem flags and the exhaustive optimum.
    verify = workloads.make("select-verify", 0, str(OUT_DIR))
    instances = verify.setup()[:3]
    rows = [bench.evaluate_instance(0, i, verify.config) for i in range(3)]
    optima, bounds = [], []
    for row, (_, problem, _) in zip(rows, instances):
        belief = problem.belief.probs
        columns = [s.likelihood[:, problem.action, :] for s in problem.sources]
        source_costs = [s.cost for s in problem.sources]
        optimum, optimal = oracle.brute_force_optimum(belief, columns, source_costs, problem.budget)
        greedy = oracle.greedy_reference(belief, columns, source_costs, problem.budget)
        optima.append((row, optimum))
        bounds.append(oracle.distance_bound(belief, columns, greedy, optimal))
    expect("select-verify: real rows", checks.check_bench_rows(rows, optima, bounds), False)
    expect("select-verify: real rows as fixed instances",
           checks.check_bench_rows(rows, optima, [None] * 3), False)

    def first_row(**changes):
        return [dataclasses.replace(rows[0], **changes)] + rows[1:]

    off = optima[:1] + [(optima[1][0], optima[1][1] + 0.1)] + optima[2:]
    rhs = bounds[0][1]
    exceeded = [(rhs + 0.1, rhs)] + bounds[1:]
    t2_failed = first_row(theorem2_pass=False)
    planted = {
        "theorem check 1 failed": (first_row(theorem1_pass=False), optima, bounds),
        "theorem check 3 failed": (first_row(theorem3_pass=False), optima, bounds),
        "theorem check 2 failed on a fixed instance": (t2_failed, optima, [None] * 3),
        "theorem check 2 failed where the bound holds": (t2_failed, optima, bounds),
        "theorem check 2 passed where the bound is exceeded": (rows, optima, exceeded),
        "greedy above the optimum": (
            first_row(greedy_utility=rows[0].optimal_utility + 0.1), optima, bounds
        ),
        "an optimum that is off": (rows, off, bounds),
    }
    for label, (planted_rows, planted_optima, planted_bounds) in planted.items():
        errors = checks.check_bench_rows(planted_rows, planted_optima, planted_bounds)
        expect(f"select-verify: {label}", errors, True)
    expect("select-verify: theorem check 2 failed where the bound is exceeded",
           checks.check_bench_rows(t2_failed, optima, exceeded), False)

    print(f"{sum(results)} of {len(results)} checks behaved")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
