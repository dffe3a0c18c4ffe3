"""Exact toolkit for shortest and disjoint b-bibranchings in digraphs.

Submodules:
  digraph      -- digraph primitives, cuts, reachability, exact max-flow
  matroids     -- the two matroids behind b-branchings, matroid intersection
  bibranching  -- the b-bibranching object, brute force, solver front end
  lpsolve      -- exact rational LP, cutting planes, integral duals
  packing      -- disjoint packing min-max value and constructions
  mconvex      -- discrete-convexity oracles and the flow-based solver
  cli          -- command-line interface (instance/report JSON)
"""

from .bibranching import Instance, Solution, is_b_bibranching, solve_shortest
from .digraph import Digraph
from .errors import (GuardError, InfeasibleInstance, InputError,
                     TheoremViolation)

__all__ = [
    "Digraph", "Instance", "Solution", "is_b_bibranching", "solve_shortest",
    "InputError", "InfeasibleInstance", "GuardError", "TheoremViolation",
]

__version__ = "0.1.0"
