"""The command-line entry point, end to end on small inputs."""

from pomdp_perception import (
    Scenario,
    UavSpec,
    build_pomdp,
    cli,
    read_scenario_file,
    write_pomdp_file,
    write_scenario_file,
)


def test_select_bench_writes_a_versioned_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert cli.main(["select-bench", "--instances", "5", "--out", str(out)]) == cli.EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# select-bench v1"
    assert lines[1].startswith("seed,n,budget,")
    rows = lines[2:]
    assert [row.split(",")[0] for row in rows] == ["0", "1", "2", "3", "4"]
    assert "select-bench: instances=5" in capsys.readouterr().out


def test_select_bench_rejects_zero_instances(tmp_path):
    out = tmp_path / "bench.csv"
    assert cli.main(["select-bench", "--instances", "0", "--out", str(out)]) == cli.EXIT_CONFIG
    assert not out.exists()


def tiny_scenario_file(tmp_path) -> str:
    scenario = Scenario(
        width=3,
        height=3,
        start_cell=6,
        goal_cell=2,
        obstacle_cells=frozenset({4}),
        discount=0.9,
        horizon=15,
        budget=1,
        uavs=(UavSpec(waypoints=(4,), detection_accuracy=1.0),),
    )
    path = str(tmp_path / "tiny.txt")
    write_scenario_file(scenario, path)
    return path


def first_line(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.readline().rstrip("\n")


def test_solve_simulate_report_pipeline(tmp_path, capsys):
    scenario = tiny_scenario_file(tmp_path)
    vf_path = tmp_path / "vf.txt"
    sim_dir = tmp_path / "sim"
    report = tmp_path / "report.csv"
    solve = ["solve", "--scenario", scenario, "--out", str(vf_path), "--beliefs", "20"]
    assert cli.main(solve) == cli.EXIT_OK
    assert first_line(vf_path) == "alphas v1"
    simulate = ["simulate", "--scenario", scenario, "--value-function", str(vf_path)]
    policies = ["--policies", "none,greedy:1", "--runs", "2", "--out-dir", str(sim_dir)]
    assert cli.main(simulate + policies) == cli.EXIT_OK
    for label in ("none", "greedy_k1"):
        assert first_line(sim_dir / f"rewards_{label}.csv") == "# rewards v1"
        assert first_line(sim_dir / f"visits_{label}.csv") == "# visit-frequency v1"
    report_argv = ["report", "--dir", str(sim_dir), "--scenario", scenario, "--out", str(report)]
    assert cli.main(report_argv) == cli.EXIT_OK
    lines = report.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# report v1"
    assert [line.split(",")[:2] for line in lines[2:]] == [["greedy_k1", "2"], ["none", "2"]]
    captured = capsys.readouterr()
    assert "solve: converged=True" in captured.out
    assert "simulate: policy=greedy_k1 runs=2" in captured.out
    assert captured.err == ""


def test_an_unconverged_solve_exits_2_and_still_writes_its_value_file(tmp_path, capsys):
    scenario = tiny_scenario_file(tmp_path)
    vf_path = tmp_path / "vf.txt"
    solve = ["solve", "--scenario", scenario, "--out", str(vf_path), "--beliefs", "20"]
    assert cli.main(solve + ["--max-iter", "5"]) == cli.EXIT_NUMERIC
    assert first_line(vf_path) == "alphas v1"
    captured = capsys.readouterr()
    assert "solve: converged=False iterations=5" in captured.out
    assert "warning: the solve did not converge: 5 backups ran" in captured.err
    # simulate solving on demand only warns, and runs its episodes.
    simulate = ["simulate", "--scenario", scenario, "--beliefs", "20", "--max-iter", "5"]
    rest = ["--policies", "none", "--runs", "1", "--out-dir", str(tmp_path / "sim")]
    assert cli.main(simulate + rest) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert "warning: the solve did not converge: 5 backups ran" in captured.err
    assert "simulate: policy=none runs=1" in captured.out


def test_simulate_rejects_action_tags_the_model_lacks(tmp_path, capsys):
    scenario = tiny_scenario_file(tmp_path)
    num_states = build_pomdp(read_scenario_file(scenario)).num_states
    vf_path = tmp_path / "vf.txt"
    simulate = ["simulate", "--scenario", scenario, "--value-function", str(vf_path)]
    rest = ["--policies", "none", "--runs", "1", "--out-dir", str(tmp_path / "sim")]
    coeffs = " ".join(["0.0"] * num_states)
    for tag in (-1, 7):
        vf_path.write_text(f"alphas v1\nstates {num_states}\ncount 1\n{tag} {coeffs}\n")
        assert cli.main(simulate + rest) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "nonnegative" in err and "beyond the scenario's 5 actions" in err


def test_non_finite_scenario_and_model_files_exit_1(tmp_path, capsys):
    scenario = tiny_scenario_file(tmp_path)
    pomdp = build_pomdp(read_scenario_file(scenario))
    with open(scenario, encoding="utf-8") as fh:
        text = fh.read()
    assert "goal_reward 10.0\n" in text
    nan_scenario = tmp_path / "nan_reward.txt"
    nan_scenario.write_text(text.replace("goal_reward 10.0\n", "goal_reward nan\n"))
    vf_path = tmp_path / "vf.txt"
    coeffs = " ".join(["0.0"] * pomdp.num_states)
    vf_path.write_text(f"alphas v1\nstates {pomdp.num_states}\ncount 1\n0 {coeffs}\n")
    simulate = ["simulate", "--scenario", str(nan_scenario), "--value-function", str(vf_path)]
    rest = ["--policies", "none", "--runs", "1", "--out-dir", str(tmp_path / "sim")]
    assert cli.main(simulate + rest) == cli.EXIT_CONFIG
    assert "goal_reward must be finite" in capsys.readouterr().err

    model = tmp_path / "model.txt"
    write_pomdp_file(pomdp, str(model))
    lines = model.read_text(encoding="utf-8").splitlines()
    row = lines.index("transition") + 1
    lines[row] = " ".join(["nan"] + lines[row].split()[1:])
    model.write_text("\n".join(lines) + "\n")
    out = tmp_path / "model_vf.txt"
    assert cli.main(["solve", "--model", str(model), "--out", str(out), "--beliefs", "20"]) == cli.EXIT_CONFIG
    assert "transition: probabilities must lie in [0, 1]" in capsys.readouterr().err
    assert not out.exists()
