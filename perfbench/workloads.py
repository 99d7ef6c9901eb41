"""The four workloads.

Each workload builds its inputs in `setup` (timed, through the program's
public calls) and runs operation `position` of its round in `op`.  A round is
the same list of operations every time, fixed by the seed, so `run.py` can
time each operation over many rounds and take its median.  `check`
takes the outputs of the first round and checks them against `oracle` or
against properties the method must have; `same` says whether a later
round's output repeats the first round's.  The program is reached through
module attributes (`pbvi.solve`, ...) so the traced run can wrap them.
"""

from __future__ import annotations

import os

import numpy as np

import checks
import oracle
from pomdp_perception import bench, gridworld, pbvi, selection
from pomdp_perception.pomdp import Belief


class Plan:
    """pbvi.solve on the stock 8x8 model; an unconverged solve fails."""

    name = "plan"
    round_size = 1
    BELIEFS = 100
    TOL = 1e-3
    # Leaves room above the 218 iterations in which a prototype of the
    # monotone acceptance rule (ROADMAP item 1) converged on this model.
    MAX_ITER = 300

    def __init__(self, seed):
        self.seed = seed
        self.notes = []

    def setup(self):
        pomdp = gridworld.build_pomdp(gridworld.default_scenario())
        points = pbvi.sample_beliefs_uniform(pomdp.num_states, self.BELIEFS, self.seed)
        return pomdp, points

    def op(self, inputs, position):
        pomdp, points = inputs
        return pbvi.solve(pomdp, points, tol=self.TOL, max_iter=self.MAX_ITER)

    def failed(self, result):
        return not result.converged

    def check(self, inputs, outputs):
        pomdp, points = inputs
        outputs = [r for r in outputs if r is not None]
        _, v_mdp = oracle.mdp_values(pomdp.transition, pomdp.reward, pomdp.discount)
        errors = checks.check_value_bounds(
            [r.value_function.matrix for r in outputs],
            points.matrix,
            v_mdp,
            float(pomdp.reward.min()),
            pomdp.discount,
        )
        errors += [f"solve ran {r.iterations} backups" for r in outputs if r.iterations > self.MAX_ITER]
        return errors

    def same(self, first, again):
        if first is None or again is None:
            return first is again
        return (
            (first.iterations, first.final_delta, first.converged)
            == (again.iterations, again.final_delta, again.converged)
            and np.array_equal(first.value_function.matrix, again.value_function.matrix)
            and np.array_equal(first.value_function.actions, again.value_function.actions)
        )


class Patrol:
    """Seeded run_episode on the stock scenario under a QMDP value function.

    The value function is the benchmark's own tabular Q, written once as an
    `alphas v1` file and read back in setup, so planner changes never change
    the trajectories.  Operation i runs policy i mod len(policies).
    """

    K = 2
    # A patrol-greedy round is seven episodes: one drawn by the seed,
    # (seed, 0), then the FIXED ones.  Seven seed-drawn episodes (14 to 32
    # steps each) would make a round's length, and so its time, depend on
    # the seed by more than the bound.  The fixed ones are the first six of
    # (0, 1000...) that take 20 steps, the median length, so the round's
    # median episode is a 20-step one whatever the seeded episode's length.
    FIXED = (1001, 1016, 1020, 1027, 1053, 1054)
    # A patrol-blind round is BLIND_ROUND seed-drawn episodes, (seed, 0..99):
    # their total length moves by about 3% between seeds.
    BLIND_ROUND = 100
    PHASES = 4
    # The greedy probes are the same in every run, so the probes on which the
    # program is known to miss the lowest-index tie-break are an exact list.
    PROBE_SEED = 7
    PROBE_DRAWS = 2
    # The program's conditional entropies of sources that cannot tell the
    # belief's states apart differ in the last bits, so rounding, not the
    # lowest index, breaks their exact tie (see CHANGES.md).
    KNOWN_TIE_BREAK_MISSES = frozenset({"t=0 point at cell 2", "t=1 point 1 at cell 2"})

    def __init__(self, name, policies, seed, out_dir):
        self.name = name
        self.policies = policies
        greedy = "greedy" in policies
        if greedy:
            self.keys = [(seed, 0)] + [(0, key) for key in self.FIXED]
        else:
            self.keys = [(seed, i) for i in range(self.BLIND_ROUND)]
        self.round_size = len(self.keys)
        self.notes = []
        pomdp = gridworld.build_pomdp(gridworld.default_scenario())
        q, _ = oracle.mdp_values(pomdp.transition, pomdp.reward, pomdp.discount)
        qmdp = pbvi.ValueFunction(tuple(pbvi.AlphaVector(q[:, a], a) for a in range(q.shape[1])))
        self.value_path = os.path.join(out_dir, f"qmdp-alphas-{name}-seed{seed}.txt")
        pbvi.write_value_function(qmdp, self.value_path)

    def setup(self):
        scenario = gridworld.default_scenario()
        pomdp = gridworld.build_pomdp(scenario)
        vf = pbvi.read_value_function(self.value_path)
        return scenario, pomdp, vf

    def op(self, inputs, position):
        scenario, pomdp, vf = inputs
        policy = self.policies[position % len(self.policies)]
        seq = np.random.SeedSequence(self.keys[position])
        return gridworld.run_episode(pomdp, vf, scenario, policy, self.K, seq)

    def failed(self, episode):
        return episode.failed

    def same(self, first, again):
        return first == again

    def check(self, inputs, outputs):
        scenario, pomdp, _ = inputs
        costs = [uav.cost for uav in scenario.uavs]
        episodes = [e for e in outputs if e is not None]
        errors = checks.check_episodes(
            episodes, pomdp.transition, pomdp.reward, pomdp.discount, scenario.goal_cell, costs, self.K
        )
        if "greedy" in self.policies:
            misses = []
            for case in self.greedy_cases(scenario):
                errors += checks.check_greedy(case, self.KNOWN_TIE_BREAK_MISSES)
                if case["selected"] != oracle.greedy_reference(
                    case["belief"], case["columns"], case["costs"], case["budget"]
                ):
                    misses.append(case["label"])
            self.notes.append(f"known tie-break misses among the greedy probes: {misses}")
        return errors

    def greedy_cases(self, scenario):
        """generalized_greedy on fixed beliefs: per phase of the patrol,
        PROBE_DRAWS each of a spread-out belief, one on a few cells and a
        point mass; in the first phase a spread-out belief with every source
        offered twice, where only the lowest-index tie-break gives the
        reference answer; and the point mass at cell 2 under action 0, where
        the program is known to miss that tie-break."""
        rng = np.random.default_rng(self.PROBE_SEED)
        num_cells = scenario.num_cells
        probes = []
        for t in range(self.PHASES):
            sources = tuple(gridworld.uav_sources_at(scenario, t))
            for draw in range(self.PROBE_DRAWS):
                support = rng.choice(num_cells, size=int(rng.integers(2, 9)), replace=False)
                few = np.zeros(num_cells)
                few[support] = rng.dirichlet(np.ones(support.size))
                cell = int(rng.integers(num_cells))
                point = np.zeros(num_cells)
                point[cell] = 1.0
                probes += [
                    (f"t={t} spread {draw}", rng.dirichlet(np.ones(num_cells)), sources),
                    (f"t={t} few {draw}", few, sources),
                    (f"t={t} point {draw} at cell {cell}", point, sources),
                ]
            if t == 0:
                probes.append(("t=0 copies", rng.dirichlet(np.ones(num_cells)), sources + sources))
                point = np.zeros(num_cells)
                point[2] = 1.0
                probes.append(("t=0 point at cell 2", point, sources))
        cases = []
        for label, probs, offered in probes:
            action = 0 if label == "t=0 point at cell 2" else int(rng.integers(len(gridworld.ACTION_NAMES)))
            problem = selection.SelectionProblem(
                belief=Belief(probs), action=action, sources=offered, budget=float(self.K)
            )
            outcome = selection.generalized_greedy(problem)
            cases.append(
                {
                    "label": label,
                    "belief": probs,
                    "columns": [np.asarray(s.likelihood[:, action, :]) for s in offered],
                    "costs": [s.cost for s in offered],
                    "budget": float(self.K),
                    "selected": tuple(outcome.selected),
                    "utility": outcome.utility,
                }
            )
        return cases


class SelectVerify:
    """bench.evaluate_instance on select-bench instances (base seed, index).

    A round is 70 instances: SEEDED drawn by the seed, (seed, 0..9), and
    FIXED ones, (0, 1000..1058) and (0, 4539), the same in every run,
    interleaved one to six.  Instance cost is heavy-tailed (unconverged
    solves run to max_iter), and 350 seed-drawn instances differ in total
    solve iterations by 13% (quartile spread over seeds 1-6), too much for a
    run to repeat within its bound; the fixed share keeps the mix steady and
    the seeded share keeps the seed meaningful.  Instance (0, 4539) has a
    joint alphabet of 39,366 reports over 6 states, as large as seeded
    instances ever get but for about 1 in 20,000; it sets the run's memory
    peak, which would otherwise move by 10% with the largest instance a seed
    happens to draw.

    Setup builds the seeded instances through the same public generators, in
    the same draw order, as evaluate_instance.  The check computes, apart
    from the program, the seeded instances' exhaustive optima and both sides
    of theorem 2 (the belief-distance bound), which does not hold on about 1
    random instance in 500.
    """

    name = "select-verify"
    SEEDED = 10
    FIXED = (*range(1000, 1059), 4539)

    def __init__(self, seed):
        self.seed = seed
        self.config = bench.BenchConfig()
        self.notes = []
        fixed = iter(self.FIXED)
        self.order = []
        for position in range(self.SEEDED + len(self.FIXED)):
            if position % 7 == 0:
                self.order.append((seed, position // 7))
            else:
                self.order.append((0, next(fixed)))
        self.round_size = len(self.order)

    def setup(self):
        config = self.config
        instances = []
        for index in range(self.SEEDED):
            rng = np.random.default_rng([self.seed, index])
            num_states = int(rng.integers(2, config.max_states + 1))
            num_actions = int(rng.integers(2, 4))
            num_observations = int(rng.integers(2, config.max_states + 1))
            pomdp = bench.random_pomdp(rng, num_states, num_actions, num_observations, config.discount)
            problem = bench.random_selection_problem(rng, num_states, num_actions, config)
            points = pbvi.sample_beliefs_uniform(num_states, config.solver_points, seed=index)
            instances.append((pomdp, problem, points))
        return instances

    def op(self, inputs, position):
        base_seed, instance = self.order[position]
        return bench.evaluate_instance(base_seed, instance, self.config)

    def failed(self, row):
        return False

    def same(self, first, again):
        return first == again

    def check(self, inputs, outputs):
        rows, optima, bounds, misses = [], [], [], []
        for position, row in enumerate(outputs):
            if row is None:
                continue
            rows.append(row)
            if position % 7:
                bounds.append(None)
                continue
            _, instance = self.order[position]
            _, problem, _ = inputs[instance]
            if row.n != problem.num_sources or row.budget != problem.budget:
                return [f"instance {instance}: set-up does not rebuild the instance evaluated"]
            belief = np.asarray(problem.belief.probs)
            columns = [np.asarray(s.likelihood[:, problem.action, :]) for s in problem.sources]
            costs = [s.cost for s in problem.sources]
            optimum, optimal = oracle.brute_force_optimum(belief, columns, costs, problem.budget)
            greedy = oracle.greedy_reference(belief, columns, costs, problem.budget)
            lhs, rhs = oracle.distance_bound(belief, columns, greedy, optimal)
            optima.append((row, optimum))
            bounds.append((lhs, rhs))
            if lhs > rhs + checks.TOL:
                misses.append((self.seed, instance))
        self.notes.append(
            f"theorem 2 (distance bound) exceeded, as computed apart from the program, "
            f"on {len(misses)} seeded instances (base seed, index): {misses}"
        )
        return checks.check_bench_rows(rows, optima, bounds)


def make(name, seed, out_dir):
    if name == "plan":
        return Plan(seed)
    if name == "patrol-greedy":
        return Patrol(name, ("greedy",), seed, out_dir)
    if name == "patrol-blind":
        return Patrol(name, ("none", "random"), seed, out_dir)
    if name == "select-verify":
        return SelectVerify(seed)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("plan", "patrol-greedy", "patrol-blind", "select-verify")
