"""The two matroids behind b-branchings and weighted matroid intersection.

A b-branching is a common independent set of an indegree partition matroid
and a sparsity (count) matroid, so a cheapest b-branching with prescribed
indegrees is a weighted matroid intersection of those two matroids.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .digraph import Digraph, check_capacities
from .errors import InputError


class PartitionMatroid:
    """Independence: every vertex v has indegree at most cap(v) in B."""

    def __init__(self, digraph: Digraph, caps: dict[str, int]):
        self.digraph = digraph
        self.caps = digraph.per_vertex(
            caps, "partition cap for %r must be a nonnegative integer", low=0)

    def circuits(self, I: Iterable[int], outside: Iterable[int]):
        """For each y in outside: None when I + y is independent, else the
        arcs x of I with I - x + y independent, which are the arcs of I at
        head(y).  I must be independent."""
        at: dict[str, list[int]] = {}
        for x in I:
            at.setdefault(self.digraph.head(x), []).append(x)
        result = {}
        for y in outside:
            head = self.digraph.head(y)
            same = at.get(head, ())
            result[y] = None if len(same) < self.caps[head] else frozenset(same)
        return result


class SparsityMatroid:
    """Independence: |B[X]| <= b(X) - 1 for every nonempty vertex set X.

    The test is the pebble game of Lee and Streinu ("Pebble game algorithms
    and sparse graphs", Discrete Math. 308, 2008) with per-vertex pebble
    counts b(v) and l = 1.  Each vertex starts with b(v) free pebbles and
    every accepted arc is oriented out of the vertex that paid a pebble for
    it, so for every X

        free(X) + out(X) = b(X) - |accepted[X]|,

    where out(X) counts accepted arcs leaving X.  Pebble moves (reversing a
    path) keep both sides unchanged.  An arc is accepted only when its two
    endpoints hold two free pebbles, so b(X) - |accepted[X]| >= 1 keeps
    holding for every X that contains it.
    """

    def __init__(self, digraph: Digraph, b: dict[str, int]):
        self.digraph = digraph
        self.b = check_capacities(digraph, b)

    def violation_witness(self, B: Iterable[int]) -> Optional[frozenset[str]]:
        """None when B is independent, else a nonempty X with |B[X]| >= b(X)."""
        return _pebble_game(self.digraph, self.b, self.digraph.check_arcset(B))[0]

    def circuits(self, I: Iterable[int], outside: Iterable[int]):
        """For each y in outside: None when I + y is independent, else the
        arcs x of I with I - x + y independent.  I must be independent.

        I is oriented once by the pebble game.  For y = uw, when u and w
        cannot gather two free pebbles, free(u) + free(w) = 1 and the reach
        set R of {u, w} is tight with no oriented arc leaving it.  Every
        tight X holding u and w has free(X) + out(X) = 1, so out(X) = 0 and
        X contains R: R is the least tight set holding u and w, and the
        circuit of I + y is y plus I[R].  Pebble moves keep the orientation
        valid, so it serves every y.
        """
        arcs = self.digraph.arcs
        I = self.digraph.check_arcset(I)
        witness, free, out = _pebble_game(self.digraph, self.b, I)
        if witness is not None:
            raise InputError("circuits need an independent set")
        result = {}
        for y in outside:
            reach = _gather_two_pebbles(*arcs[y], free, out)
            result[y] = None if reach is None else frozenset(
                x for x in I if arcs[x][0] in reach and arcs[x][1] in reach)
        return result


def _pebble_game(digraph: Digraph, b: dict[str, int], B: frozenset[int]):
    """Insert the arcs of B in index order, direction ignored.

    Returns (R, free, out).  R is the reach set of the first arc whose
    endpoints cannot gather two free pebbles; then b(R) - |B[R]| <=
    free(u) + free(w) - 1 <= 0.  R is None when every arc is accepted, and
    free and out then hold an orientation of B.
    """
    free = dict(b)
    out: dict[str, list[str]] = {v: [] for v in digraph.vertices}
    for a in sorted(B):
        u, w = digraph.arcs[a]
        reach = _gather_two_pebbles(u, w, free, out)
        if reach is not None:
            return reach, free, out
        payer, other = (u, w) if free[u] else (w, u)
        free[payer] -= 1
        out[payer].append(other)
    return None, free, out


def _gather_two_pebbles(u: str, w: str, free: dict[str, int],
                        out: dict[str, list[str]]) -> Optional[frozenset[str]]:
    """Move free pebbles to u and w until they hold two; None on success.

    On failure every vertex reachable from {u, w} along oriented arcs,
    other than u and w, is out of pebbles, and no oriented arc leaves that
    reach set, which is returned.
    """
    while free[u] + free[w] < 2:
        reach_u = _fetch_pebble(u, w, free, out)
        if reach_u is not None:
            reach_w = _fetch_pebble(w, u, free, out)
            if reach_w is not None:
                return frozenset(reach_u).union(reach_w)
    return None


def _fetch_pebble(root: str, keep: str, free: dict[str, int],
                  out: dict[str, list[str]]) -> Optional[dict]:
    """Move a free pebble to root from a vertex other than keep.

    Depth-first search along the oriented arcs from root; on finding a free
    pebble it reverses the path, which moves the pebble to root, and
    returns None.  Otherwise it returns the vertices reached (root
    included), none of which except root and keep holds a free pebble.
    """
    parent = {root: None}
    stack = [root]
    while stack:
        x = stack.pop()
        for y in out[x]:
            if y in parent:
                continue
            parent[y] = x
            if free[y] and y != keep:
                free[y] -= 1
                free[root] += 1
                while y != root:
                    x = parent[y]
                    out[x].remove(y)
                    out[y].append(x)
                    y = x
                return None
            stack.append(y)
    return parent


def is_b_branching(digraph: Digraph, b: dict[str, int], B: Iterable[int]) -> bool:
    """Indegree condition plus sparsity condition; b=1 gives plain branchings."""
    sparsity = SparsityMatroid(digraph, b)
    B = digraph.check_arcset(B)
    if any(digraph.in_degree(B, v) > sparsity.b[v] for v in digraph.vertices):
        return False
    return sparsity.violation_witness(B) is None


def split_into_b_branchings(digraph: Digraph, b: dict[str, int],
                            arcs: Iterable[int], lower: list[dict[str, int]],
                            upper: list[dict[str, int]],
                            shared: frozenset[int] = frozenset(),
                            leave_unused: bool = False):
    """Assign arcs to k = len(upper) classes, each with shared a b-branching.

    Class j (shared included) must have indegree in [lower[j][v],
    upper[j][v]] at every v; missing entries read 0 (``per_vertex``).
    shared must be a b-branching and is not tested.  Depth-first search over
    the arcs in index order, each tried in classes 0..k-1 and then, with
    leave_unused, in no class; so the first valid labelling in that order is
    returned, as a list of k frozensets, or None.  A class takes an arc only
    below its upper bound and while it stays independent in the sparsity
    matroid; a node is cut off once some vertex lacks the unplaced in-arcs
    that the lower bounds still need.
    """
    sparsity = SparsityMatroid(digraph, b)
    vertices = digraph.vertices
    k = len(upper)
    bound = "split bound for %r must be an integer"
    lo = [digraph.per_vertex(row, bound, default=0) for row in lower]
    hi = [digraph.per_vertex(row, bound, default=0) for row in upper]
    order = sorted(arcs)
    classes = [set(shared) for _ in range(k)]
    deg = [{v: digraph.in_degree(shared, v) for v in vertices} for _ in range(k)]
    if any(deg[j][v] > hi[j][v] for j in range(k) for v in vertices):
        return None
    unplaced = {v: 0 for v in vertices}
    for a in order:
        unplaced[digraph.head(a)] += 1

    def rec(i: int):
        for v in vertices:
            if sum(max(0, lo[j][v] - deg[j][v]) for j in range(k)) > unplaced[v]:
                return None
        if i == len(order):
            return [frozenset(c) for c in classes]
        a = order[i]
        head = digraph.head(a)
        unplaced[head] -= 1
        for j in range(k):
            if deg[j][head] < hi[j][head]:
                classes[j].add(a)
                deg[j][head] += 1
                if sparsity.violation_witness(classes[j]) is None:
                    found = rec(i + 1)
                    if found is not None:
                        return found
                deg[j][head] -= 1
                classes[j].discard(a)
        found = rec(i + 1) if leave_unused else None
        unplaced[head] += 1
        return found

    return rec(0)


def weighted_matroid_intersection(m1, m2, weights, r: int):
    """Minimum-weight common independent set of size exactly r, or None if
    infeasible.

    Shortest augmenting paths in the exchange graph, with (cost, #arcs,
    lexicographic) tie-breaking for determinism.  m1 and m2 expose
    circuits(I, outside), from which each exchange graph is built; the
    ground set is the digraph's arc index range.
    """
    if type(r) is not int or r < 0:
        raise InputError("target size must be a nonnegative integer")
    ground = sorted(m1.digraph.all_arcs)
    w = {a: weights[a] for a in ground}

    current: set[int] = set()
    while len(current) < r:
        path = _augmenting_path(m1, m2, ground, current, w)
        if path is None:
            return None
        current.symmetric_difference_update(path)
    return frozenset(current)


def _augmenting_path(m1, m2, ground, current, w):
    """Min-cost, then fewest-arcs, then lexicographically least augmenting path."""
    frozen = frozenset(current)
    inside = sorted(frozen)
    outside = [y for y in ground if y not in frozen]
    circuits1 = m1.circuits(frozen, outside)
    sources = [y for y in outside if circuits1[y] is None]
    if not sources:
        return None
    circuits2 = m2.circuits(frozen, outside)
    sinks = {y for y in outside if circuits2[y] is None}

    # x -> y when I - x + y is independent in m1, y -> x when in m2; with
    # I + y independent that holds for every x.
    succ: dict[int, list[int]] = {}
    for x in inside:
        succ[x] = [y for y in outside
                   if circuits1[y] is None or x in circuits1[y]]
    for y in outside:
        succ[y] = [x for x in inside
                   if circuits2[y] is None or x in circuits2[y]]

    node_cost = {e: -w[e] if e in frozen else w[e] for e in ground}

    # Bellman-Ford on (cost, length, path) labels; paths are short here.
    best: dict[int, tuple] = {y: (node_cost[y], 1, (y,)) for y in sources}
    for _ in range(len(ground)):
        changed = False
        for u in sorted(best):
            cost, length, path = best[u]
            # A min-weight current leaves no negative cycle (Frank 1981), so
            # a label that closes a cycle never beats best[v] and is dropped.
            for v in succ[u]:
                label = (cost + node_cost[v], length + 1, path + (v,))
                if v not in best or label < best[v]:
                    best[v] = label
                    changed = True
        if not changed:
            break

    candidates = [best[y] for y in sorted(sinks) if y in best]
    if not candidates:
        return None
    return set(min(candidates)[2])
