"""The text file formats: pinned bytes, round trips, comments."""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pomdp_perception import (
    Scenario,
    UavSpec,
    ValueFunction,
    build_pomdp,
    default_scenario,
    read_pomdp_file,
    read_scenario_file,
    read_value_function,
    write_pomdp_file,
    write_scenario_file,
    write_value_function,
)
from helpers import tiny_scenario

NO_UAV_SCENARIO = Scenario(
    width=3, height=2, start_cell=0, goal_cell=5, obstacle_cells=frozenset({1, 4})
)
NO_UAV_SCENARIO_TEXT = """\
scenario v1
grid 2 3
start 0 0
goal 1 2
goal_reward 10.0
obstacle_reward -5.0
step_reward -1.0
move_success 0.7
sensor_accuracy 0.5
detection_accuracy 0.9
fov_radius 1
uav_cost 1.0
budget 2
discount 0.95
horizon 40
obstacle 0 1
obstacle 1 1
"""
SMALL_VALUE_FUNCTION = ValueFunction.from_arrays([[1.5, -2.0, 0.1], [0.0, 3.0, -1e-300]], [0, 2])
SMALL_VALUE_TEXT = """\
alphas v1
states 3
count 2
0 1.5 -2.0 0.1
2 0.0 3.0 -1e-300
"""


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def same_pomdp(a, b) -> bool:
    return (
        np.array_equal(a.transition, b.transition)
        and np.array_equal(a.observation, b.observation)
        and np.array_equal(a.reward, b.reward)
        and a.discount == b.discount
    )


def same_value_function(a, b) -> bool:
    return np.array_equal(a.matrix, b.matrix) and np.array_equal(a.actions, b.actions)


def test_writers_produce_the_pinned_bytes(tmp_path):
    path = tmp_path / "file.txt"
    write_scenario_file(default_scenario(), str(path))
    assert sha256(path) == "a10428d36444f0d0de62128742828aaa66c7868a5bca90d14da26e5924eae645"
    assert read_scenario_file(str(path)) == default_scenario()

    write_scenario_file(NO_UAV_SCENARIO, str(path))
    assert path.read_text(encoding="utf-8") == NO_UAV_SCENARIO_TEXT
    assert read_scenario_file(str(path)) == NO_UAV_SCENARIO

    pomdp = build_pomdp(tiny_scenario())
    write_pomdp_file(pomdp, str(path))
    assert sha256(path) == "a13e997fa76b49c52bf09a4022b9b9b2f918231e225a09146ec48261aefba354"
    assert same_pomdp(read_pomdp_file(str(path)), pomdp)

    write_value_function(SMALL_VALUE_FUNCTION, str(path))
    assert path.read_text(encoding="utf-8") == SMALL_VALUE_TEXT
    assert same_value_function(read_value_function(str(path)), SMALL_VALUE_FUNCTION)


def test_value_file_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "vf.txt"
    body = SMALL_VALUE_TEXT.splitlines()
    path.write_text(
        "# a plan\n\n" + body[0] + "  # header\n" + "\n".join(body[1:3]) + "\n\n# vectors\n"
        + body[3] + " # first\n\n" + body[4] + "\n",
        encoding="utf-8",
    )
    assert same_value_function(read_value_function(str(path)), SMALL_VALUE_FUNCTION)


finite = st.floats(allow_nan=False, allow_infinity=False)
probability = st.floats(0.0, 1.0, exclude_min=True)


@st.composite
def scenarios(draw) -> Scenario:
    width = draw(st.integers(1, 6))
    height = draw(st.integers(2 if width == 1 else 1, 6))
    cell = st.integers(0, width * height - 1)
    goal = draw(cell)
    sensing = {
        "fov_radius": draw(st.integers(0, 3)),
        "detection_accuracy": draw(probability),
        "cost": draw(st.floats(0.0, exclude_min=True, allow_infinity=False)),
    }
    paths = draw(st.lists(st.lists(cell, min_size=1, max_size=5), max_size=3))
    return Scenario(
        width=width,
        height=height,
        start_cell=draw(cell),
        goal_cell=goal,
        obstacle_cells=draw(st.frozensets(cell.filter(lambda c: c != goal))),
        goal_reward=draw(finite),
        obstacle_reward=draw(finite),
        step_reward=draw(finite),
        move_success_prob=draw(probability),
        intrinsic_sensor_accuracy=draw(probability),
        uavs=tuple(UavSpec(waypoints=tuple(path), **sensing) for path in paths),
        budget=draw(st.integers(0, 10)),
        discount=draw(st.floats(0.0, 1.0, exclude_max=True)),
        horizon=draw(st.integers(1, 1000)),
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(scenario=scenarios())
def test_scenario_file_round_trips(tmp_path_factory, scenario):
    path = tmp_path_factory.mktemp("scenario") / "scenario.txt"
    write_scenario_file(scenario, str(path))
    text = path.read_bytes()
    loaded = read_scenario_file(str(path))
    assert loaded == scenario
    write_scenario_file(loaded, str(path))
    assert path.read_bytes() == text


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    shape=st.tuples(st.integers(1, 5), st.integers(1, 6)),
    data=st.data(),
)
def test_value_file_round_trips(tmp_path_factory, shape, data):
    size = shape[0] * shape[1]
    coefficients = data.draw(st.lists(finite, min_size=size, max_size=size))
    actions = data.draw(st.lists(st.integers(0, 10), min_size=shape[0], max_size=shape[0]))
    vf = ValueFunction.from_arrays(np.reshape(coefficients, shape), actions)
    path = tmp_path_factory.mktemp("value") / "vf.txt"
    write_value_function(vf, str(path))
    text = path.read_bytes()
    loaded = read_value_function(str(path))
    assert same_value_function(loaded, vf)
    assert np.array_equal(np.signbit(loaded.matrix), np.signbit(vf.matrix))
    write_value_function(loaded, str(path))
    assert path.read_bytes() == text
