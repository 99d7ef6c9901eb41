"""The command-line entry point, end to end on small inputs."""

from pomdp_perception import cli


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
