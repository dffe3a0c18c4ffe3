"""The b-bibranching object: validation, brute force, solver front end.

The four-condition definition (reachability both ways plus the two degree
bounds) is authoritative.  This module imports only ``digraph``, ``errors``
and ``rationals``; ``solve_shortest`` imports the solver module of the
route it runs.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cached_property
from math import lcm
from typing import Iterable, Optional

from .digraph import Digraph, check_capacities
from .errors import GuardError, InfeasibleInstance, InputError
from .rationals import rat, ratio

BRUTE_FORCE_ARC_LIMIT = 20


def arc_weights(digraph: Digraph, weights) -> list:
    """One exact weight per arc (``Digraph.per_arc``), each an int, a
    Fraction or a 'p/q' string read by ``rat``; else ``InputError`` naming
    the arc, with ``rat``'s reason for a string past the digit limit."""
    out = []
    for a, w in enumerate(digraph.per_arc(weights, "weights")):
        try:
            out.append(rat(w))
        except InputError as exc:
            if str(exc).startswith("too many digits"):
                raise InputError("weight of arc %d has %s" % (a, exc)) from None
            raise InputError("weight of arc %d is not a rational: %r" % (a, w)) from None
    return out


class Instance:
    """A digraph with an {S,T} bipartition (no arc from T to S), capacities b
    and arc weights w."""

    def __init__(self, digraph: Digraph, side: dict[str, str],
                 b: dict[str, int], weights):
        self.digraph = digraph
        digraph.check_vertices(side)
        for v in digraph.vertices:
            if side.get(v) not in ("S", "T"):
                raise InputError("vertex %r must be assigned side 'S' or 'T'" % (v,))
        self.S = frozenset(v for v in digraph.vertices if side[v] == "S")
        self.T = digraph.all_vertices - self.S
        if not self.S or not self.T:
            raise InputError("both sides of the bipartition must be nonempty")
        for i, (tail, head) in enumerate(digraph.arcs):
            if side[tail] == "T" and side[head] == "S":
                raise InputError("arc %d goes from T to S: %s -> %s" % (i, tail, head))
        self.b = check_capacities(digraph, b)
        self.weights = arc_weights(digraph, weights)
        for a, w in enumerate(self.weights):
            if w < 0:
                raise InputError("arc %d has negative weight" % a)

    def __copy__(self) -> "Instance":
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        return clone

    def weight_of(self, B: Iterable[int]):
        return sum(self.weights[a] for a in B)

    def cross_arcs(self) -> frozenset[int]:
        """H = A[S,T], the arcs from the S side to the T side."""
        return self.digraph.arcs_between(self.S, self.T)

    @cached_property
    def mirror(self) -> "Instance":
        """Every arc reversed and S swapped with T, keeping arc indices,
        vertex order, b and weights.  A b|S-cobranching is a b-branching of
        the reversed arcs, so the mirror has the same b-bibranchings and an
        S-side step here is the T-side step there."""
        mirror = copy.copy(self)  # b and the weights are already validated
        mirror.digraph = self.digraph.reversed()
        mirror.S, mirror.T = self.T, self.S
        return mirror


@dataclass
class Solution:
    arcs: frozenset[int]
    weight: object
    certificate: dict = field(default_factory=dict)


def bibranching_report(instance: Instance, B: Iterable[int]) -> dict:
    """Per-condition verdicts; each failed condition names its least
    failing vertex as witness."""
    D = instance.digraph
    B = D.check_arcset(B)
    reached = D.reach(B, instance.S)
    reaching = D.reach(B, instance.T, reverse=True)
    failing = {
        "t_reachable_from_s": [v for v in instance.T if v not in reached],
        "s_reaches_t": [u for u in instance.S if u not in reaching],
        "t_indegree": [v for v in instance.T
                       if len(B.intersection(D.in_arcs(v))) < instance.b[v]],
        "s_outdegree": [u for u in instance.S
                        if len(B.intersection(D.out_arcs(u))) < instance.b[u]],
    }
    return {condition: {"ok": not bad, "witness": min(bad, default=None)}
            for condition, bad in failing.items()}


def is_b_bibranching(instance: Instance, B: Iterable[int]) -> bool:
    return all(entry["ok"] for entry in bibranching_report(instance, B).values())


def subgraph(digraph: Digraph, X: Iterable[str]):
    """Induced subdigraph on X; returns (digraph, map to original arc indices)."""
    X = digraph.check_vertices(X)
    vertices = [v for v in digraph.vertices if v in X]
    arc_map = sorted(digraph.induced_arcs(X))
    return Digraph(vertices, [digraph.arcs[a] for a in arc_map]), arc_map


class _FastChecker:
    """Bitmask b-bibranching validity test for subset enumeration."""

    def __init__(self, instance: Instance):
        D = instance.digraph
        self.n = len(D.vertices)
        vidx = {v: i for i, v in enumerate(D.vertices)}
        arc_ends = [(vidx[t], vidx[h]) for (t, h) in D.arcs]
        self.arc_steps = (arc_ends, [(h, t) for (t, h) in arc_ends])
        self.in_mask = [0] * self.n
        self.out_mask = [0] * self.n
        for a, (t, h) in enumerate(arc_ends):
            self.out_mask[t] |= 1 << a
            self.in_mask[h] |= 1 << a
        self.t_need = [(vidx[v], instance.b[v]) for v in sorted(instance.T)]
        self.s_need = [(vidx[u], instance.b[u]) for u in sorted(instance.S)]
        self.s_bits = 0
        for u in instance.S:
            self.s_bits |= 1 << vidx[u]
        self.t_bits = 0
        for v in instance.T:
            self.t_bits |= 1 << vidx[v]

    def valid(self, mask: int) -> bool:
        for v, need in self.t_need:
            if (mask & self.in_mask[v]).bit_count() < need:
                return False
        for u, need in self.s_need:
            if (mask & self.out_mask[u]).bit_count() < need:
                return False
        # S must reach all of T, and every S vertex must reach T.
        if (self._closure(mask, self.s_bits, 0) & self.t_bits) != self.t_bits:
            return False
        return (self._closure(mask, self.t_bits, 1) & self.s_bits) == self.s_bits

    def _closure(self, mask: int, seeds: int, direction: int) -> int:
        """Vertex bits reachable from ``seeds`` over the arcs in ``mask``.

        ``direction`` 0 follows arcs forwards, 1 backwards.
        """
        steps = self.arc_steps[direction]
        reach = seeds
        while True:
            grown = reach
            rest = mask
            while rest:
                a = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                start, end = steps[a]
                if (grown >> start) & 1:
                    grown |= 1 << end
            if grown == reach:
                return reach
            reach = grown


def brute_force_shortest(instance: Instance) -> Optional[Solution]:
    """Exact optimum by enumerating all arc subsets; None when infeasible."""
    m = instance.digraph.num_arcs()
    if m > BRUTE_FORCE_ARC_LIMIT:
        raise GuardError("brute force limited to %d arcs, got %d"
                         % (BRUTE_FORCE_ARC_LIMIT, m))
    checker = _FastChecker(instance)
    weights = instance.weights
    best_weight = None
    best_mask = None
    for mask in range(1 << m):
        if not checker.valid(mask):
            continue
        w = 0
        rest = mask
        while rest:
            a = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            w += weights[a]
        if best_weight is None or w < best_weight:
            best_weight = w
            best_mask = mask
    if best_mask is None:
        return None
    arcs = frozenset(a for a in range(m) if (best_mask >> a) & 1)
    return Solution(arcs, best_weight, bibranching_report(instance, arcs))


def feasibility_witness(instance: Instance) -> Optional[dict]:
    """None when feasible; otherwise the failing condition on the full arc set.

    By superset closure the instance is feasible iff the whole arc set A is a
    b-bibranching.
    """
    report = bibranching_report(instance, instance.digraph.all_arcs)
    for condition, entry in report.items():
        if not entry["ok"]:
            return {"condition": condition, "witness": entry["witness"]}
    return None


def require_feasible(instance: Instance) -> None:
    """Raise InfeasibleInstance, with the failing condition, unless feasible."""
    failure = feasibility_witness(instance)
    if failure is not None:
        raise InfeasibleInstance(
            "no b-bibranching exists: condition %s fails at %s"
            % (failure["condition"], failure["witness"]), witness=failure)


def _canonical(instance: Instance) -> tuple[Instance, int]:
    """(the instance under the weights W(a) = D w(a) 2^m + 2^a, D): exact
    ints, D the lcm of the weight denominators."""
    m = instance.digraph.num_arcs()
    scale = lcm(*(w.denominator for w in instance.weights))
    canonical = copy.copy(instance)
    canonical.__dict__.pop("mirror", None)  # a cached mirror holds w
    canonical.weights = [(w.numerator * (scale // w.denominator) << m) + (1 << a)
                         for a, w in enumerate(instance.weights)]
    return canonical, scale


def solve_shortest(instance: Instance, method: str = "auto") -> Solution:
    """Optimal b-bibranching via the LP route (``lp`` and ``auto``), which
    proves its answer with its row duals (``certificate["dual_bound"]``),
    the submodular-flow route (``mflow``) or brute force.  Each route
    decides feasibility once: the LP route by its own LP, which is
    infeasible exactly when no b-bibranching exists, and ``mflow`` and
    brute force up front; all three raise through ``require_feasible``.

    Every route runs on the canonical weights W of ``_canonical``.  D w(B)
    is an int and sum_{a in B} 2^a < 2^m, so a W-optimum B is the
    w-optimum with the least sum_{a in B} 2^a: unique, and so the same arcs
    whichever route, pivot path, cancel order or augmenting path finds it.
    The value is w(B).  The LP's dual bound W* certifies W(B), so
    floor(W* / 2^m) / D, the reported bound, bounds w from below.  Exit-5
    payloads carry W.
    """
    if method not in ("lp", "mflow", "brute", "auto"):
        raise InputError("unknown method %r" % (method,))

    canonical, scale = _canonical(instance)
    # Local imports: both modules use Instance.
    if method == "mflow":
        from . import mconvex
        solution = mconvex.solve_mflow(canonical)
    elif method == "brute":
        require_feasible(instance)
        solution = brute_force_shortest(canonical)
    else:
        from . import lpsolve
        solution = lpsolve.solve_primal_cutting_plane(canonical).solution
    certificate = solution.certificate
    if "dual_bound" in certificate:
        m = instance.digraph.num_arcs()
        certificate["dual_bound"] = ratio(certificate["dual_bound"] // (1 << m), scale)
    solution.weight = rat(instance.weight_of(solution.arcs))
    return solution
