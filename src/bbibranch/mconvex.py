"""Discrete convexity layer: b-branching value oracles, exchange machinery
and the submodular-flow style solver for the shortest b-bibranching.

f(x) is the cheapest b-branching whose indegree vector is exactly b - x;
g(x) relaxes the equality to >= and reduces to f by clipping x at b.  Each
oracle holds one sparsity matroid and evaluates f by weighted matroid
intersection under the indegree target t = b - x, memoized.  The
solver reads its exchange costs from one move table per side, the values
g(z - chi_p + chi_q) - g(z) of every unit move at the current boundary z.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .bibranching import (Instance, Solution, arc_weights, bibranching_report,
                          require_feasible, subgraph)
from .digraph import Digraph
from .errors import InputError, TheoremViolation
from .matroids import (SparsityMatroid, is_b_branching, split_into_b_branchings,
                       weighted_matroid_intersection)


class BBranchingOracle:
    """Memoized evaluator for f and g over one digraph with weights."""

    def __init__(self, digraph: Digraph, b: dict[str, int], weights):
        self.digraph = digraph
        self.sparsity = SparsityMatroid(digraph, b)
        self.b = self.sparsity.b
        self.weights = arc_weights(digraph, weights)
        self._memo_f: dict[tuple, Optional[tuple]] = {}

    def _key(self, x: dict[str, int]) -> tuple:
        """x, an int vector over the vertices, as a tuple in vertex order;
        a missing vertex reads 0 (``Digraph.per_vertex``)."""
        return tuple(self.digraph.per_vertex(
            x, "entry for vertex %r is not an integer", default=0).values())

    def eval_f_witness(self, x: dict[str, int]):
        """(value, witness arc set) for f(x), or None when f(x) = +infinity."""
        key = self._key(x)
        if key in self._memo_f:
            return self._memo_f[key]
        result = None
        if all(0 <= c <= self.b[v] for v, c in zip(self.digraph.vertices, key)):
            t = {v: self.b[v] - c for v, c in zip(self.digraph.vertices, key)}
            B = weighted_matroid_intersection(self.sparsity, t, self.weights)
            if B is not None:
                result = (sum(self.weights[a] for a in B), B)
        self._memo_f[key] = result
        return result

    def eval_f(self, x: dict[str, int]):
        """f(x) as a rational, or None encoding +infinity."""
        result = self.eval_f_witness(x)
        return None if result is None else result[0]

    def eval_g_witness(self, x: dict[str, int]):
        """g(x) via the clipping identity g(x) = f(x wedge b)."""
        key = self._key(x)
        if any(c < 0 for c in key):
            return None
        return self.eval_f_witness({v: min(c, self.b[v])
                                    for v, c in zip(self.digraph.vertices, key)})

    def eval_g(self, x: dict[str, int]):
        result = self.eval_g_witness(x)
        return None if result is None else result[0]


def _unit_move(z: dict, down, up) -> dict:
    """z - chi_down + chi_up, with chi_None = 0."""
    x = dict(z)
    if down is not None:
        x[down] = x.get(down, 0) - 1
    if up is not None:
        x[up] = x.get(up, 0) + 1
    return x


def check_mnat_exchange(evaluator: Callable[[dict], object],
                        vertices: Iterable[str],
                        x: dict[str, int], y: dict[str, int]):
    """Assert the exchange inequality for every u in supp+(x - y): some v
    in [None] + supp-(x - y) has f(x) + f(y) >= f(x - chi_u + chi_v) +
    f(y + chi_u - chi_v), where chi_None = 0.

    Returns (True, None) on pass, else (False, (x, y, u)) for the first
    failing u.  Both x and y must have finite values.
    """
    vertices = list(vertices)
    fx = evaluator(x)
    fy = evaluator(y)
    if fx is None or fy is None:
        raise InputError("exchange check requires points in the effective domain")
    lhs = fx + fy
    supp_pos = [v for v in vertices if x.get(v, 0) - y.get(v, 0) > 0]
    supp_neg = [v for v in vertices if x.get(v, 0) - y.get(v, 0) < 0]
    for u in supp_pos:
        for v in [None] + supp_neg:
            f1 = evaluator(_unit_move(x, u, v))
            f2 = evaluator(_unit_move(y, v, u))
            if f1 is not None and f2 is not None and lhs >= f1 + f2:
                break
        else:
            return False, (dict(x), dict(y), u)
    return True, None


# ---------------------------------------------------------------------------
# Exchange lemma
# ---------------------------------------------------------------------------

def exchange_b_branchings(digraph: Digraph, b: dict[str, int],
                          B1: Iterable[int], B2: Iterable[int], s: str):
    """Shift one unit of indegree at s from B2 to B1 preserving union/intersection.

    Returns (B1', B2', case) with case 'a' (plain chi_s shift) or 'b'
    (compensated at some vertex t), following the lemma's case split on the
    strong component of s in B1 + B2.
    """
    digraph.check_vertices([s])
    B1 = digraph.check_arcset(B1)
    B2 = digraph.check_arcset(B2)
    if not is_b_branching(digraph, b, B1) or not is_b_branching(digraph, b, B2):
        raise InputError("B1 and B2 must be b-branchings")
    d1 = {v: digraph.in_degree(B1, v) for v in digraph.vertices}
    d2 = {v: digraph.in_degree(B2, v) for v in digraph.vertices}
    if not d1[s] < d2[s]:
        raise InputError("hypothesis requires d_B1^-(s) < d_B2^-(s)")

    # Case (b): the strong component C of s in B1 + B2 is a source
    # component with d_B1(C) = b(C) - 1.  Every B1 arc into the set R of
    # vertices reaching s starts in R, so d_B1(R) = |B1[R]| <= b(R) - 1.
    # At equality s reaches all of R in B1, since d_B1(s) < b(s): else the
    # B1 arcs into the part it reaches and inside the rest number at most
    # b(R) - 2.  So R = C, and a source component C is R: one search decides.
    reaching = digraph.reachable_from(B1 | B2, {s}, reverse=True)
    case = "a"
    t_vertex = None
    if sum(d1[v] for v in reaching) == sum(b[v] for v in reaching) - 1:
        candidates = sorted(v for v in reaching if v != s and d2[v] < b[v])
        if not candidates:
            raise TheoremViolation("exchange lemma case (b) vertex t missing",
                                   payload={"s": s, "reaching": reaching,
                                            "B1": B1, "B2": B2})
        t_vertex = candidates[0]
        case = "b"

    b1p = _unit_move(d1, t_vertex, s)
    b2p = _unit_move(d2, s, t_vertex)
    shared = B1 & B2
    found = split_into_b_branchings(digraph, b, B1 ^ B2, [b1p, b2p], [b1p, b2p],
                                    shared)
    if found is None:
        raise TheoremViolation("exchange lemma produced no valid reassignment",
                               payload={"case": case, "s": s, "t": t_vertex})
    B1p, B2p = found
    if B1p | B2p != B1 | B2 or B1p & B2p != shared:
        raise TheoremViolation("exchange lemma changed the union or intersection",
                               payload={"case": case, "s": s, "B1": B1p, "B2": B2p})
    return B1p, B2p, case


# ---------------------------------------------------------------------------
# Submodular-flow style solver
# ---------------------------------------------------------------------------

def side_oracle(instance: Instance) -> tuple[BBranchingOracle, list[int]]:
    """The oracle of b|T-branchings of A[T], with its map to arc indices;
    on ``instance.mirror`` it is the S side, the b|S-cobranchings of A[S]."""
    d_T, arc_map = subgraph(instance.digraph, instance.T)
    b_T = {v: instance.b[v] for v in instance.T}
    w_T = [instance.weights[a] for a in arc_map]
    return BBranchingOracle(d_T, b_T, w_T), arc_map


def _move_table(oracle: BBranchingOracle, z: dict[str, int]) -> Optional[dict]:
    """cost[p, q] = g(z - chi_p + chi_q) - g(z) for p != q in sorted(z) +
    [None], with chi_None = 0 and cost[None, None] = 0; None encodes
    +infinity.  The table itself is None when g(z) = +infinity."""
    g0 = oracle.eval_g(z)
    if g0 is None:
        return None
    nodes = sorted(z) + [None]
    cost: dict = {(None, None): 0}
    for p in nodes:
        for q in nodes:
            if p == q:
                continue
            val = oracle.eval_g(_unit_move(z, p, q))
            cost[p, q] = None if val is None else val - g0
    return cost


@dataclass
class _AuxArc:
    tail: object
    head: object
    cost: object
    flip: Optional[int]  # cross-arc index to toggle, None for oracle arcs


def solve_mflow(instance: Instance) -> Solution:
    """Shortest b-bibranching by negative-cycle canceling over cross-arc flows.

    The flow variable lives on the S-to-T arcs; ``side_oracle`` on the
    instance and on its mirror supplies the cost of completing a boundary
    vector into branchings/cobranchings.  Each round reads the exchange
    costs from one move table per side: an arc p -> q between vertices or
    the null node None costs cost_S[p|S, q|S] + cost_T[q|T, p|T], where x|S
    is x for x in S and None otherwise (T counts are negated in the flow
    boundary, so the T table is read backwards).
    Cancellation picks a negative cycle with the fewest arcs, and stops when
    none is left: then the flow is optimal.

    On a feasible instance the flow starts at every cross arc, where both
    completions are finite (g only falls as its argument grows); an
    infinite completion on either side raises ``TheoremViolation``.
    """
    D = instance.digraph
    H = sorted(instance.cross_arcs())
    require_feasible(instance)
    xi = {a: 1 for a in H}
    oracle_T, map_T = side_oracle(instance)
    oracle_S, map_S = side_oracle(instance.mirror)
    nodes = sorted(instance.S) + sorted(instance.T) + [None]
    on_S = {p: p if p in instance.S else None for p in nodes}
    on_T = {p: p if p in instance.T else None for p in nodes}

    def boundaries():
        z_S = {u: 0 for u in instance.S}
        z_T = {v: 0 for v in instance.T}
        for a in H:
            if xi[a]:
                z_S[D.tail(a)] += 1
                z_T[D.head(a)] += 1
        return z_S, z_T

    while True:
        z_S, z_T = boundaries()
        cost_S = _move_table(oracle_S, z_S)
        cost_T = _move_table(oracle_T, z_T)
        if cost_S is None or cost_T is None:
            raise TheoremViolation("cross-arc boundary has no completing branchings",
                                   payload={"z_S": z_S, "z_T": z_T})
        arcs: list[_AuxArc] = []
        for a in H:
            u, v = D.arcs[a]
            if xi[a]:
                arcs.append(_AuxArc(v, u, -instance.weights[a], a))
            else:
                arcs.append(_AuxArc(u, v, instance.weights[a], a))
        for p in nodes:
            for q in nodes:
                if p == q:
                    continue
                cS = cost_S[on_S[p], on_S[q]]
                cT = cost_T[on_T[q], on_T[p]]
                if cS is not None and cT is not None:
                    arcs.append(_AuxArc(p, q, cS + cT, None))
        cycle = _min_arc_negative_cycle(nodes, arcs)
        if cycle is None:
            break
        for arc in cycle:
            if arc.flip is not None:
                xi[arc.flip] ^= 1

    # The last round's boundaries, whose completions the round found finite.
    val_T = oracle_T.eval_g_witness(z_T)
    val_S = oracle_S.eval_g_witness(z_S)
    support = frozenset(a for a in H if xi[a])
    arcs_out = (support
                | frozenset(map_T[i] for i in val_T[1])
                | frozenset(map_S[i] for i in val_S[1]))
    weight = sum(instance.weights[a] for a in support) + val_T[0] + val_S[0]
    solution = Solution(arcs_out, weight, bibranching_report(instance, arcs_out))
    failed = {c: entry for c, entry in solution.certificate.items() if not entry["ok"]}
    if failed:
        raise TheoremViolation("submodular-flow output is not a b-bibranching",
                               payload={"arcs": arcs_out, "failed": failed})
    return solution


def _min_arc_negative_cycle(nodes, arcs):
    """A negative cycle with the fewest arcs, or None when there is none.

    A negative closed walk with the fewest arcs is a simple cycle, since
    it splits into cycles one of which is negative; so the search finds
    one within len(nodes) arcs exactly when a negative cycle exists.  A tie
    goes to the walk found first, out-arcs in the order given and starts in
    ``nodes`` order: under ``bibranching._canonical``'s weights every
    cancel order ends at the same optimum."""
    out_arcs: dict = {node: [] for node in nodes}
    for arc in arcs:
        out_arcs[arc.tail].append(arc)

    # walks[start][v] = best (cost, trace) over walks start -> v with exactly
    # `length` arcs; each length extends the previous length's table by one arc.
    walks = {start: {start: (0, ())} for start in nodes}
    for length in range(1, len(nodes) + 1):
        best = (0, ())  # the cheapest negative closed walk of this length
        for start in nodes:
            nxt: dict = {}
            for u, (cost, trace) in walks[start].items():
                for arc in out_arcs[u]:
                    cand = (cost + arc.cost, trace + (arc,))
                    if arc.head not in nxt or cand[0] < nxt[arc.head][0]:
                        nxt[arc.head] = cand
            walks[start] = nxt
            if start in nxt and nxt[start][0] < best[0]:
                best = nxt[start]
        if best[1]:
            return list(best[1])
    return None
