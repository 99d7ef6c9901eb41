"""The select-bench instance generator and its solves."""

from pomdp_perception import bench, pbvi


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
