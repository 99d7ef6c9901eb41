"""Budget-constrained online active perception for POMDPs.

Offline: a point-based value-iteration planner over a uniformly sampled
belief set.  Online: greedy selection of auxiliary information sources by
cost-scaled mutual information, with exhaustive baselines and empirical
checks of the scheme's near-optimality bounds.  Plus a grid-world navigation
simulator with patrolling UAV information sources.
"""

# Each module's __all__ is the one list of its public names.
from .pomdp import *
from .pbvi import *
from .selection import *
from .gridworld import *

__version__ = "0.1.0"
