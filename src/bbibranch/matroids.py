"""The sparsity matroid behind b-branchings and weighted matroid intersection.

A b-branching is a common independent set of the indegree partition matroid
and a sparsity (count) matroid, so a cheapest b-branching with indegrees
exactly t is a weighted matroid intersection.  The partition side is read
from the arcs' heads; it needs no class.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .bibranching import arc_weights
from .digraph import Digraph, check_capacities
from .errors import InputError


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


def weighted_matroid_intersection(sparsity: SparsityMatroid, t: dict[str, int],
                                  weights):
    """The cheapest arc set with indegree exactly t that is independent in
    sparsity, or None.

    t is a nonnegative int per vertex (``Digraph.per_vertex``) and the
    weights are read by ``arc_weights``.  The set is a common independent
    set of size sum(t) of sparsity and the partition matroid of indegree at
    most t, so sum(t) augmentations find it (Frank 1981).  Under
    ``bibranching._canonical``'s weights it is unique.
    """
    digraph = sparsity.digraph
    t = digraph.per_vertex(
        t, "target indegree of %r must be a nonnegative integer", low=0)
    w = arc_weights(digraph, weights)
    current: set[int] = set()
    for _ in range(sum(t.values())):
        path = _augmenting_path(sparsity, t, current, w)
        if path is None:
            return None
        current.symmetric_difference_update(path)
    return frozenset(current)


def _augmenting_path(sparsity, t, current, w):
    """Nodes of a min-cost augmenting path with the fewest arcs, or None.

    The exchange graph of I = current, with room(v) = t(v) minus I's
    indegree at v: the sources are the y outside I whose head has room,
    the sinks those with I + y sparse; x -> y when y's head has room or is
    x's head, y -> x for x in the sparsity circuit of I + y (every x when
    it has none).  y costs w(y) and x costs -w(x).  Bellman-Ford on (cost,
    #arcs) labels, one predecessor per node, rescanning the nodes whose
    label changed; a min-weight I has no negative cycle (Frank 1981).
    """
    digraph = sparsity.digraph
    frozen = frozenset(current)
    room = dict(t)
    for x in frozen:
        room[digraph.head(x)] -= 1
    outside = [y for y in range(len(w)) if y not in frozen]
    sources = [y for y in outside if room[digraph.head(y)]]
    if not sources:
        return None
    circuits = sparsity.circuits(frozen, outside)

    # A y at x's head is also a source when that head has room; relaxing
    # it twice changes no label.
    succ = {x: sources + [y for y in digraph.in_arcs(digraph.head(x))
                          if y not in frozen] for x in frozen}
    for y in outside:
        succ[y] = frozen if circuits[y] is None else circuits[y]

    label = {y: (w[y], 1) for y in sources}
    pred = dict.fromkeys(sources)
    changed = sources
    while changed:
        scan, changed = changed, {}
        for u in scan:
            cost, n = label[u]
            for v in succ[u]:
                new = (cost - w[v] if v in frozen else cost + w[v], n + 1)
                if v not in label or new < label[v]:
                    label[v], pred[v], changed[v] = new, u, None

    sinks = [y for y in outside if circuits[y] is None and y in label]
    if not sinks:
        return None
    v = min(sinks, key=label.__getitem__)
    path = set()
    while v is not None:
        path.add(v)
        v = pred[v]
    return path
