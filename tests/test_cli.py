"""The command-line entry point, end to end on small inputs."""

import pytest

from pomdp_perception import (
    Scenario,
    UavSpec,
    bench,
    build_pomdp,
    cli,
    pbvi,
    read_scenario_file,
    write_pomdp_file,
    write_scenario_file,
)


def test_select_bench_writes_a_versioned_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert cli.main(["select-bench", "--instances", "5", "--out", str(out)]) == cli.EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# select-bench v2"
    assert lines[1].startswith("seed,n,budget,")
    assert lines[1].endswith(",solve_converged")
    rows = lines[2:]
    assert [row.split(",")[0] for row in rows] == ["0", "1", "2", "3", "4"]
    assert [row.split(",")[-1] for row in rows] == ["1"] * 5
    assert "select-bench: instances=5" in capsys.readouterr().out


def test_select_bench_counts_an_unconverged_solve_as_a_failure(tmp_path, capsys, monkeypatch):
    def one_backup(pomdp, points, tol, max_iter):
        return pbvi.solve(pomdp, points, tol=tol, max_iter=1)

    monkeypatch.setattr(bench, "solve", one_backup)
    out = tmp_path / "bench.csv"
    assert cli.main(["select-bench", "--instances", "3", "--out", str(out)]) == cli.EXIT_OK
    # Every theorem check passes; only the solves stop unconverged.
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[1].endswith(",theorem1_pass,theorem2_pass,theorem3_pass,solve_converged")
    assert [row.split(",")[-4:] for row in lines[2:]] == [["1", "1", "1", "0"]] * 3
    assert "select-bench: instances=3 failures=3 " in capsys.readouterr().out


def test_select_bench_rejects_zero_instances(tmp_path):
    out = tmp_path / "bench.csv"
    assert cli.main(["select-bench", "--instances", "0", "--out", str(out)]) == cli.EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--max-sources", "25", "max_sources"),
        ("--max-sources", "1", "max_sources"),
        ("--max-states", "1", "max_states"),
        ("--max-symbols", "1", "max_symbols"),
        ("--beta", "0", "beta"),
        ("--beta", "nan", "beta"),
        ("--beta", "inf", "beta"),
    ],
)
def test_select_bench_rejects_caps_out_of_range(tmp_path, capsys, flag, value, field):
    out = tmp_path / "bench.csv"
    argv = ["select-bench", "--instances", "3", flag, value, "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert field in captured.err
    assert captured.out == ""
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


def test_simulate_rejects_a_non_finite_uav_cost_before_solving(tmp_path, capsys, monkeypatch):
    scenario = tiny_scenario_file(tmp_path)
    with open(scenario, encoding="utf-8") as fh:
        text = fh.read()
    assert "uav_cost 1.0\n" in text
    inf_scenario = tmp_path / "inf_cost.txt"
    inf_scenario.write_text(text.replace("uav_cost 1.0\n", "uav_cost inf\n"))

    def no_solve(*args, **kwargs):
        raise AssertionError("simulate solved before checking the scenario")

    monkeypatch.setattr(cli, "solve", no_solve)
    simulate = ["simulate", "--scenario", str(inf_scenario), "--policies", "greedy:1", "--runs", "1"]
    assert cli.main(simulate + ["--out-dir", str(tmp_path / "sim")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.strip() == "error: uav cost must be finite and positive, got inf"
    assert not list((tmp_path / "sim").glob("*.csv"))


SOLVE_FLAGS_OUT_OF_RANGE = [
    ("--tol", "0", "error: --tol must be positive"),
    ("--max-iter", "0", "error: --max-iter must be at least 1"),
    ("--beliefs", "0", "error: --beliefs must be at least 1"),
]


@pytest.mark.parametrize(
    "flag, value, message, command",
    [(*case, command) for case in SOLVE_FLAGS_OUT_OF_RANGE for command in ("solve", "simulate")]
    + [
        ("--runs", "0", "error: --runs must be at least 1", "simulate"),
        ("--policies", "greedy:x", "error: --policies: k in 'greedy:x' must be an integer from 0 to the budget 1", "simulate"),
        ("--policies", "greedy:-1", "error: --policies: k in 'greedy:-1' must be an integer from 0 to the budget 1", "simulate"),
        ("--policies", "greedy:2", "error: --policies: k in 'greedy:2' must be an integer from 0 to the budget 1", "simulate"),
        ("--policies", "best:1", "error: --policies: unknown policy 'best'", "simulate"),
    ],
)
def test_solve_flags_out_of_range_exit_1_naming_the_flag(tmp_path, capsys, flag, value, message, command):
    scenario = tiny_scenario_file(tmp_path)
    if command == "solve":
        argv = ["solve", "--scenario", scenario, "--out", str(tmp_path / "vf.txt")]
    else:
        argv = ["simulate", "--scenario", scenario, "--policies", "none", "--out-dir", str(tmp_path / "sim")]
    assert cli.main(argv + [flag, value]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.strip() == message
    assert not (tmp_path / "vf.txt").exists()
    assert not list((tmp_path / "sim").glob("*.csv"))


def test_missing_input_files_exit_1_and_name_the_path(tmp_path, capsys):
    scenario = tiny_scenario_file(tmp_path)
    missing = str(tmp_path / "missing.txt")
    out = str(tmp_path / "vf.txt")
    sim = ["--policies", "none", "--runs", "1", "--out-dir", str(tmp_path / "sim")]
    for argv in (
        ["solve", "--scenario", missing, "--out", out],
        ["solve", "--model", missing, "--out", out],
        ["simulate", "--scenario", scenario, "--value-function", missing] + sim,
    ):
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert missing in capsys.readouterr().err
    assert not (tmp_path / "vf.txt").exists()


def test_report_rejects_csvs_without_their_version_header(tmp_path, capsys):
    scenario = tiny_scenario_file(tmp_path)
    sim_dir = tmp_path / "sim"
    simulate = ["simulate", "--scenario", scenario, "--beliefs", "20", "--policies", "none"]
    assert cli.main(simulate + ["--runs", "2", "--out-dir", str(sim_dir)]) == cli.EXIT_OK
    report = ["report", "--dir", str(sim_dir), "--scenario", scenario]
    assert cli.main(report) == cli.EXIT_OK
    capsys.readouterr()
    for name in ("rewards_none.csv", "visits_none.csv"):
        path = sim_dir / name
        text = path.read_text(encoding="utf-8")
        path.write_text(text.split("\n", 1)[1], encoding="utf-8")
        assert cli.main(report) == cli.EXIT_CONFIG
        assert str(path) in capsys.readouterr().err
        path.write_text(text, encoding="utf-8")


@pytest.mark.parametrize(
    "name, text",
    [
        ("rewards_none.csv", "# rewards v1\nrun,policy,discounted_reward\n"),
        ("rewards_none.csv", "# rewards v1\nrun,policy,reward\n0,none,1.5\n"),
        ("rewards_none.csv", "# rewards v1\nrun,policy,discounted_reward\n0,none\n"),
        ("visits_none.csv", "# visit-frequency v1\n0,0,0\n"),
        ("visits_none.csv", "# visit-frequency v1\n0\n0\n0\n"),
        ("visits_none.csv", "# visit-frequency v1\n0,0,0\n0,x,0\n0,0,0\n"),
    ],
    ids=["no-rows", "no-reward-column", "short-row", "one-grid-row", "one-grid-column", "non-integer-count"],
)
def test_report_rejects_malformed_csvs_and_names_the_file(tmp_path, capsys, name, text):
    scenario = tiny_scenario_file(tmp_path)
    sim_dir = tmp_path / "sim"
    sim_dir.mkdir()
    (sim_dir / "rewards_none.csv").write_text("# rewards v1\nrun,policy,discounted_reward\n0,none,1.5\n")
    (sim_dir / "visits_none.csv").write_text("# visit-frequency v1\n0,0,0\n0,2,0\n0,0,0\n")
    report = ["report", "--dir", str(sim_dir), "--scenario", scenario]
    assert cli.main(report) == cli.EXIT_OK
    assert "none,1,1.5,0.0,2" in capsys.readouterr().out
    (sim_dir / name).write_text(text)
    assert cli.main(report) == cli.EXIT_CONFIG
    assert str(sim_dir / name) in capsys.readouterr().err
