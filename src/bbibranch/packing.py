"""Disjoint packing of b-bibranchings: exact min-max value and constructions.

The packing number is the minimum of two degree ratios and the smallest
bicut.  ``pack_b_bibranchings`` is ``packing_number`` followed by the
integer-decomposition peel ``lpsolve.decompose`` of chi_A into k classes.

The paper's constructive proof stays as tested library code with no
command behind it: it colors the cross arcs through a pair of generalized
polymatroids (one per side, ``build_system``, ``find_integral_point``,
``partition_cross_arcs``), then completes each color class with
prescribed-indegree branchings on the T side and cobranchings on the S
side (``pack_prescribed_b_branchings``); that prescribed packing alone
decides each side's coloring conditions (``cut_condition_failure``).  Each
side's cut family and its supermodular function g are one table,
``cut_family``, mapping each member C to g(C).  Its size guards fire only
on that construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .bibranching import Instance, is_b_bibranching, subgraph
from .digraph import Digraph, FlowNetwork, check_capacities, max_flow_min_cut
from .errors import GuardError, InputError, TheoremViolation
from .lpsolve import (RationalLP, decompose, min_bicut_candidates,
                      simplex_solve, zero_one_vertex)
from .matroids import split_into_b_branchings

FAMILY_SIDE_LIMIT = 12
EXHAUSTIVE_PARTITION_LIMIT = 200000
PRESCRIBED_ARC_LIMIT = 24


# ---------------------------------------------------------------------------
# The min-max value
# ---------------------------------------------------------------------------

@dataclass
class MinMaxWitness:
    t_min: int
    t_argmin: str
    s_min: int
    s_argmin: str
    bicut_min: int
    bicut_witness: frozenset
    k: int


def packing_number(instance: Instance) -> MinMaxWitness:
    """Exact maximum number of disjoint b-bibranchings, with all witnesses."""
    (t_min, t_arg), (s_min, s_arg) = (
        min((len(view.digraph.in_arcs(v)) // view.b[v], v) for v in view.T)
        for view in (instance, instance.mirror))
    ones = [1] * instance.digraph.num_arcs()
    bicut_min, _, bicut_U = min(
        (value, sorted(U), U) for value, U in min_bicut_candidates(instance, ones))
    return MinMaxWitness(t_min, t_arg, s_min, s_arg, bicut_min, bicut_U,
                         min(t_min, s_min, bicut_min))


def verify_packing(instance: Instance, classes: Iterable[Iterable[int]]) -> bool:
    """Pairwise disjoint and each class a b-bibranching."""
    sets = [instance.digraph.check_arcset(c) for c in classes]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if sets[i] & sets[j]:
                return False
    return all(is_b_bibranching(instance, c) for c in sets)


# ---------------------------------------------------------------------------
# Cut families and their supermodular functions
# ---------------------------------------------------------------------------

def cut_family(view: Instance, k: int,
               ground: Optional[Iterable[int]] = None) -> dict[frozenset[int], int]:
    """The cuts C = delta^-_H(U) over nonempty U within view.T, each mapped
    to g(C), in sorted(C) order.

    ``view`` is the instance (the T side) or ``instance.mirror`` (the S
    side, where U lies within S and arcs are counted by their head in the
    reversed digraph); both have the same cross-arc indices.  ``ground``
    restricts H to a subset of the cross arcs, which the peeling recursion
    relies on.  g(C) is k minus the least indegree in A[view.T] over the U
    that give C: arcs of A[T] entering U, or on the mirror arcs of A[S]
    leaving U.
    """
    cross = view.cross_arcs()
    ground = frozenset(cross if ground is None else ground)
    if not ground <= cross:
        raise InputError("ground set must consist of cross arcs")
    verts = sorted(view.T)
    if len(verts) > FAMILY_SIDE_LIMIT:
        raise GuardError("cut family side limited to %d vertices"
                         % FAMILY_SIDE_LIMIT)
    if type(k) is not int or k < 1:
        raise InputError("k must be an integer at least 1")
    D = view.digraph
    inner = [D.arcs[a] for a in D.induced_arcs(view.T)]
    least: dict[frozenset[int], int] = {}
    for r in range(1, len(verts) + 1):
        for U in map(frozenset, itertools.combinations(verts, r)):
            C = frozenset(a for a in ground if D.head(a) in U)
            d = sum(1 for tail, head in inner if head in U and tail not in U)
            least[C] = min(d, least.get(C, d))
    return {C: k - least[C] for C in sorted(least, key=sorted)}


# ---------------------------------------------------------------------------
# The two generalized-polymatroid systems and integral points
# ---------------------------------------------------------------------------

@dataclass
class GPolymatroidSystem:
    """Explicit rows (coeffs, lo, hi, tag) over the ground cross arcs for
    one side, each bounded as an LP row is, its other bound None."""

    k: int
    var_arcs: list[int]
    rows: list[tuple] = field(default_factory=list)

    def check_point(self, y: dict[int, int], scale: int) -> list[str]:
        """Tags of all rows (bounds included) that the point y / scale
        violates, empty when it is feasible.

        y maps each arc to an int; the test stays in integers, each row's
        total against scale times each finite bound.
        """
        bad = ["bounds[%d]" % a for a in self.var_arcs if not 0 <= y[a] <= scale]
        for coeffs, lo, hi, tag in self.rows:
            total = sum(y[a] * c for a, c in coeffs.items())
            if (lo is not None and total < scale * lo) or (
                    hi is not None and total > scale * hi):
                bad.append(tag)
        return bad


def build_system(view: Instance, k: int,
                 ground: Optional[Iterable[int]] = None,
                 degree=None) -> GPolymatroidSystem:
    """Instantiate the row system of one side, on the instance (T side) or
    ``instance.mirror`` (S side), at packing target k.

    Each vertex v of view.T bounds x(delta_H(v)), its ground cross arcs, by
    deg(v) - (k-1) b(v) above and, when positive, b(v) - (deg(v) -
    |delta_H(v)|) below; ``degree`` maps v to its residual deg(v) during
    peeling and defaults to its indegree in the view: d_A^-(v) on the
    instance, d_A^+(v) on the mirror.
    """
    ground = frozenset(view.cross_arcs() if ground is None else ground)
    system = GPolymatroidSystem(k, sorted(ground))
    for C, gC in cut_family(view, k, ground).items():
        coeffs = {a: 1 for a in C}
        tag = "cut[%s]" % ",".join(str(a) for a in sorted(C))
        system.rows.append((coeffs, None, len(C) - gC + 1, "upper-" + tag))
        if gC == k:
            system.rows.append((coeffs, 1, None, "lower-" + tag))
    D = view.digraph
    for v in sorted(view.T):
        deg = len(D.in_arcs(v)) if degree is None else degree[v]
        coeffs = {a: 1 for a in ground if D.head(a) == v}
        system.rows.append((coeffs, None, deg - (k - 1) * view.b[v],
                            "degree[%s]" % v))
        need = view.b[v] - (deg - len(coeffs))
        if need > 0:
            system.rows.append((coeffs, need, None, "degree-low[%s]" % v))
    return system


def find_integral_point(p1: GPolymatroidSystem, p2: GPolymatroidSystem) -> dict[int, int]:
    """A common 0/1 point of the two systems, as a vertex of an exact LP.

    Membership of the uniform point 1/k is certified first, by
    ``check_point`` on the all-ones vector over k (it lies in the box, so
    only rows can fail); a fractional vertex is a hard failure carrying the
    dumped LP, since the intersection of the two systems is an integer
    polyhedron.
    """
    if p1.var_arcs != p2.var_arcs or p1.k != p2.k:
        raise InputError("the two systems must share ground set and k")
    arcs = p1.var_arcs
    ones = dict.fromkeys(arcs, 1)
    violated = p1.check_point(ones, p1.k) + p2.check_point(ones, p1.k)
    if violated:
        raise TheoremViolation("uniform point 1/k violates the row system",
                               payload={"rows": violated})
    col = {a: j for j, a in enumerate(arcs)}
    lp = RationalLP(len(arcs), [1] * len(arcs))
    for j in range(len(arcs)):
        lp.set_bounds(j, 0, 1)
    for coeffs, lo, hi, _ in p1.rows + p2.rows:
        lp.add_row({col[a]: c for a, c in coeffs.items()}, lo, hi)
    return dict(zip(arcs, zero_one_vertex(lp, simplex_solve(lp))))


# ---------------------------------------------------------------------------
# Coloring the cross arcs
# ---------------------------------------------------------------------------

def cut_condition_failure(digraph: Digraph, groups) -> Optional[frozenset[str]]:
    """A nonempty X with rho(X) < #{j : X misses groups[j]}, or None.

    Arcs get capacity 1, a root an arc of capacity 1 to a tuple node per
    group, and that node arcs of capacity |A| + len(groups) + 1 to the
    group, more than any cut of the other arcs.  A least root-v cut costs
    rho(X) + #{j : X meets groups[j]} over the X holding v, so
    the condition holds iff every v takes len(groups) units (Frank,
    Connections in Combinatorial Optimization, 2011, ch. 10).  So each
    flow, on one compiled network, stops once it takes that many.
    """
    root = ("root",)
    nodes = [root, *digraph.vertices] + [("group", j) for j in range(len(groups))]
    arcs = [(tail, head, 1) for tail, head in digraph.arcs]
    big = len(arcs) + len(groups) + 1
    for j, group in enumerate(groups):
        arcs.append((root, ("group", j), 1))
        arcs += [(("group", j), v, big) for v in sorted(group)]
    network = FlowNetwork(nodes, arcs)
    for v in sorted(digraph.vertices):
        _, side = max_flow_min_cut(network, root, v, len(groups))
        if side is not None:
            return digraph.all_vertices - side
    return None


def _partition_conditions(instance: Instance, k: int,
                          classes: list[frozenset[int]]) -> Optional[str]:
    """None when the coloring conditions hold, else a failure tag: on each
    side d^-_{A[T]}(U) >= #{j : no arc of H_j enters U} for nonempty U
    within T (side 2 on the mirror), and each class within the degree caps."""
    views = (instance, instance.mirror)
    cross = instance.cross_arcs()
    for side, view in enumerate(views, 1):
        D = view.digraph
        U = cut_condition_failure(subgraph(D, view.T)[0],
                                  [{D.head(a) for a in H_j & cross} for H_j in classes])
        if U is not None:
            return "side %d cut condition fails at U = %s" % (side, sorted(U))
    for H_j in classes:
        for view, name in zip(views, ("indegree", "outdegree")):
            D = view.digraph
            for v in view.T:
                if D.in_degree(H_j, v) > len(D.in_arcs(v)) - (k - 1) * view.b[v]:
                    return "%s cap at %s" % (name, v)
    return None


def _exhaustive_partition(instance: Instance, k: int) -> Optional[list[frozenset[int]]]:
    H = sorted(instance.cross_arcs())
    if k ** len(H) > EXHAUSTIVE_PARTITION_LIMIT:
        raise GuardError("exhaustive cross-arc partition search too large")
    for labels in itertools.product(range(k), repeat=len(H)):
        classes = [frozenset(a for a, lab in zip(H, labels) if lab == j)
                   for j in range(k)]
        if _partition_conditions(instance, k, classes) is None:
            return classes
    return None


def partition_cross_arcs(instance: Instance, k: int,
                         witness: MinMaxWitness) -> list[frozenset[int]]:
    """Split H = A[S,T] into k classes meant to meet the coloring conditions.

    ``witness`` is the caller's ``packing_number(instance)``.  Peels one class
    per round as an integral point of the two row systems on the residual
    cross arcs and degrees; a class H_j also takes max(0, b(v) - d_{H_j}(v))
    within-side arcs at v, so deg(v) drops by max(b(v), d_{H_j}(v)).  Side
    2 keeps its degrees as indegrees of the mirror.  The classes are not
    checked here: each side's ``pack_prescribed_b_branchings`` on the
    classes decides the same cut condition, and its degree condition
    implies the degree caps, so a bad peel surfaces there.
    """
    if type(k) is not int or k < 1 or k > witness.k:
        raise InputError("k must be an integer between 1 and the packing number")
    remaining = set(instance.cross_arcs())
    views = (instance, instance.mirror)
    degree = [{v: len(view.digraph.in_arcs(v)) for v in view.T} for view in views]
    classes: list[frozenset[int]] = []
    for stage in range(k, 1, -1):
        point = find_integral_point(
            *(build_system(view, stage, remaining, residual)
              for view, residual in zip(views, degree)))
        H_j = frozenset(a for a, val in point.items() if val)
        classes.append(H_j)
        remaining -= H_j
        for view, residual in zip(views, degree):
            for v in residual:
                residual[v] -= max(view.b[v], view.digraph.in_degree(H_j, v))
    classes.append(frozenset(remaining))
    return classes


# ---------------------------------------------------------------------------
# Prescribed-indegree packing of b-branchings
# ---------------------------------------------------------------------------

@dataclass
class PrescribedPackingResult:
    branchings: Optional[list[frozenset[int]]]
    failed_condition: Optional[dict]
    hypothesis_violations: list[int]


def pack_prescribed_b_branchings(digraph: Digraph, b: dict[str, int],
                                 prescriptions: list[dict[str, int]]) -> PrescribedPackingResult:
    """Disjoint b-branchings B_1..B_k with exact indegree vectors, if possible.

    Existence is decided by the degree condition and the cut condition; when
    both hold a deterministic backtracking search produces the branchings,
    and failure of that search despite the conditions is a theorem violation.
    Prescriptions equal to b violate the theorem's hypothesis; those indices
    are reported, and no construction follows: a b-branching has at most
    b(V) - 1 arcs, so such a prescription fails the degree condition or,
    at X = V, the cut condition.
    """
    b = check_capacities(digraph, b)
    k = len(prescriptions)
    if k == 0:
        return PrescribedPackingResult([], None, [])
    message = "prescription value at %r must lie in [0, b(v)]"
    prescriptions = [digraph.per_vertex(bj, message, low=0, default=0)
                     for bj in prescriptions]
    for bj in prescriptions:
        for v in digraph.vertices:
            if bj[v] > b[v]:
                raise InputError(message % (v,))
    hypothesis = [j for j, bj in enumerate(prescriptions) if bj == b]

    for v in digraph.vertices:
        if len(digraph.in_arcs(v)) < sum(bj[v] for bj in prescriptions):
            return PrescribedPackingResult(
                None, {"condition": "degree", "vertex": v}, hypothesis)
    X = cut_condition_failure(digraph, [{v for v in b if bj[v] < b[v]}
                                        for bj in prescriptions])
    if X is not None:
        return PrescribedPackingResult(None, {"condition": "cut", "set": X}, hypothesis)

    if digraph.num_arcs() > PRESCRIBED_ARC_LIMIT:
        raise GuardError("prescribed packing search limited to %d arcs"
                         % PRESCRIBED_ARC_LIMIT)
    branchings = split_into_b_branchings(digraph, b, digraph.all_arcs,
                                         prescriptions, prescriptions,
                                         leave_unused=True)
    if branchings is None:
        raise TheoremViolation("prescribed packing conditions hold but the "
                               "search found nothing",
                               payload={"prescriptions": prescriptions})
    return PrescribedPackingResult(branchings, None, hypothesis)


# ---------------------------------------------------------------------------
# Full packing certificates
# ---------------------------------------------------------------------------

@dataclass
class PackingCertificate:
    k: int
    witness: MinMaxWitness
    classes: list[frozenset[int]]


def pack_b_bibranchings(instance: Instance) -> PackingCertificate:
    """k disjoint b-bibranchings, k the exact packing number.

    The packing number proves that chi_A lies in the k-dilated polytope, so
    ``decompose`` splits A into k classes and checks that each is a
    b-bibranching: a partition of A, so a disjoint packing.
    """
    witness = packing_number(instance)
    k = witness.k
    classes = decompose(instance, k, [1] * instance.digraph.num_arcs()) if k else []
    return PackingCertificate(k, witness, classes)
