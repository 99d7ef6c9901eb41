"""The select-bench instance generator and its solves."""

import pytest

from pomdp_perception import bench, check_distance_bound, pbvi
from helpers import select_bench_problem


def test_select_bench_solves_converge_on_the_first_hundred_instances(monkeypatch):
    # evaluate_instance does not report its solve, so record it on the way.
    results = []

    def recording_solve(*args, **kwargs):
        results.append(pbvi.solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(bench, "solve", recording_solve)
    rows = bench.run_bench(100, base_seed=0)
    assert [row.seed for row in rows] == list(range(100))
    assert len(results) == 100
    assert [i for i, result in enumerate(results) if not result.converged] == []


def test_an_unconverged_solve_is_recorded_in_the_row():
    assert bench.evaluate_instance(0, 0).solve_converged
    row = bench.evaluate_instance(0, 0, bench.BenchConfig(solver_max_iter=1))
    assert row.solve_converged is False


def test_instance_20_37_is_a_counterexample_to_the_paper_form_of_theorem_2():
    problem = select_bench_problem(20, 37)
    report = check_distance_bound(problem, problem.belief)
    assert report.greedy == (4, 3) and report.optimal == (1, 2)
    assert report.lhs == pytest.approx(0.900059, abs=1e-6)
    assert report.rhs == pytest.approx(0.796765, abs=1e-6)
    assert not report.passed
    row = bench.evaluate_instance(20, 37)
    assert (row.n, row.budget) == (problem.num_sources, problem.budget)
    assert (row.theorem1_pass, row.theorem2_pass, row.theorem3_pass) == (True, False, True)
