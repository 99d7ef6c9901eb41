"""Budget-constrained online active perception for POMDPs.

Offline: a point-based value-iteration planner over a uniformly sampled
belief set.  Online: greedy selection of auxiliary information sources by
cost-scaled mutual information, with exhaustive baselines and empirical
checks of the scheme's near-optimality bounds.  Plus a grid-world navigation
simulator with patrolling UAV information sources.
"""

from .pomdp import (
    Belief,
    InfoSource,
    PerceptionAction,
    Pomdp,
    ZeroLikelihoodObservation,
    belief_update_auxiliary,
    belief_update_intrinsic,
    expected_immediate_reward,
    observation_probability,
    read_pomdp_file,
    write_pomdp_file,
)
from .pbvi import (
    AlphaVector,
    BackupRecord,
    BeliefPointSet,
    SolveResult,
    ValueFunction,
    backup,
    best_action,
    initialize_value,
    point_values,
    prune,
    read_value_function,
    sample_beliefs_uniform,
    solve,
    value,
    write_value_function,
)
from .selection import (
    BRUTE_FORCE_MAX_SOURCES,
    DEFAULT_JOINT_CAP,
    GREEDY_GUARANTEE,
    BoundReport,
    JointAlphabetTooLarge,
    SelectionOutcome,
    SelectionProblem,
    SourceSet,
    TooManySources,
    brute_force_optimal,
    check_distance_bound,
    check_value_bound,
    conditional_entropy,
    entropy,
    generalized_greedy,
    marginal_gain,
    mutual_information,
)
from .gridworld import (
    ACTION_NAMES,
    DOWN,
    LEFT,
    RIGHT,
    STOP,
    UP,
    EpisodeRecord,
    InvalidScenario,
    Scenario,
    SimResult,
    StepRecord,
    UavSpec,
    build_pomdp,
    default_scenario,
    monte_carlo,
    read_scenario_file,
    run_episode,
    uav_sources_at,
    write_scenario_file,
)

__version__ = "0.1.0"
