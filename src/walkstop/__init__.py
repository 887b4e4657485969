"""Stopping rules on a lattice random walk: simulation, exact computation,
and statistical verification of their drawdown/diameter/payoff laws."""

from . import exact_walk, mc_harness, path_engine, q_process, stopping_rules
from .exact_walk import *
from .mc_harness import *
from .path_engine import *
from .q_process import *
from .stopping_rules import *

__version__ = "0.1.0"

# Each submodule's __all__ is the one list of its public names.
__all__ = [
    "__version__",
    *path_engine.__all__,
    *stopping_rules.__all__,
    *q_process.__all__,
    *exact_walk.__all__,
    *mc_harness.__all__,
]
