"""Digraph primitives: cuts, reachability, exact max-flow.

Arc sets are plain frozensets of arc indices.  Arc identity is the index into
the digraph's arc list, so parallel arcs are first-class citizens.  All types
are immutable after construction.
"""

from __future__ import annotations

import copy
from typing import Iterable

from .errors import InputError


class Digraph:
    """A loopless digraph with stable arc indices and parallel arcs allowed.
    Vertex ids are strings; an id of any other type is ``InputError``."""

    def __init__(self, vertices: Iterable[str], arcs: Iterable[tuple[str, str]]):
        self.vertices: tuple[str, ...] = tuple(vertices)
        for v in self.vertices:
            if not isinstance(v, str):
                raise InputError("vertex id %r is not a string" % (v,))
        self.all_vertices: frozenset[str] = frozenset(self.vertices)
        if len(self.all_vertices) != len(self.vertices):
            raise InputError("duplicate vertex ids")
        self._vindex = {v: i for i, v in enumerate(self.vertices)}
        self.arcs: tuple[tuple[str, str], ...] = tuple(arcs)
        for i, (tail, head) in enumerate(self.arcs):
            if tail not in self._vindex or head not in self._vindex:
                raise InputError("arc %d has unknown endpoint: %s -> %s" % (i, tail, head))
            if tail == head:
                raise InputError("arc %d is a loop at %s" % (i, tail))
        in_acc: dict[str, list[int]] = {v: [] for v in self.vertices}
        out_acc: dict[str, list[int]] = {v: [] for v in self.vertices}
        for i, (tail, head) in enumerate(self.arcs):
            out_acc[tail].append(i)
            in_acc[head].append(i)
        self._in_arcs = {v: tuple(in_acc[v]) for v in self.vertices}
        self._out_arcs = {v: tuple(out_acc[v]) for v in self.vertices}
        self.all_arcs: frozenset[int] = frozenset(range(len(self.arcs)))

    def reversed(self) -> "Digraph":
        """The digraph with every arc reversed, keeping vertex order and arc
        indices, built from this validated one without checking it again."""
        mirror = copy.copy(self)
        mirror.arcs = tuple((head, tail) for tail, head in self.arcs)
        mirror._in_arcs, mirror._out_arcs = self._out_arcs, self._in_arcs
        return mirror

    def num_arcs(self) -> int:
        return len(self.arcs)

    def tail(self, a: int) -> str:
        return self.arcs[a][0]

    def head(self, a: int) -> str:
        return self.arcs[a][1]

    def check_vertices(self, X: Iterable[str]) -> frozenset[str]:
        X = frozenset(X)
        for v in X:
            if v not in self._vindex:
                raise InputError("unknown vertex id: %r" % (v,))
        return X

    def check_arcset(self, B: Iterable[int]) -> frozenset[int]:
        if not isinstance(B, frozenset):
            B = tuple(B)  # each entry is type-checked before it is hashed
        for a in B:
            if type(a) is not int or not (0 <= a < len(self.arcs)):
                raise InputError("invalid arc index: %r" % (a,))
        return frozenset(B)

    def per_arc(self, values, name: str) -> list:
        """values, a list or a dict by arc index, as a list; ``InputError``
        unless it holds exactly one entry per arc."""
        m = len(self.arcs)
        if isinstance(values, dict):
            # False == 0 and 1.0 == 1, so each key is type-checked first.
            fits = all(type(a) is int for a in values) and values.keys() == set(range(m))
        else:
            fits = len(values) == m
        if not fits:
            raise InputError("%s must have exactly one entry per arc (%d)" % (name, m))
        return [values[a] for a in range(m)]

    def per_vertex(self, values: dict, message: str, low=None, default=None) -> dict:
        """values, a dict by vertex id, as a dict in vertex order with default
        for a missing vertex; ``InputError`` for a key that is no vertex and
        ``InputError(message % v)`` for an entry not an int (a bool included)
        or below low."""
        self.check_vertices(values)
        out = {v: values.get(v, default) for v in self.vertices}
        for v, val in out.items():
            if type(val) is not int or (low is not None and val < low):
                raise InputError(message % (v,))
        return out

    def in_arcs(self, v: str) -> tuple[int, ...]:
        return self._in_arcs[v]

    def out_arcs(self, v: str) -> tuple[int, ...]:
        return self._out_arcs[v]

    # -- induced arc sets and cuts ------------------------------------------

    def induced_arcs(self, X: Iterable[str]) -> frozenset[int]:
        """Arcs with both endpoints in X (A[X])."""
        X = self.check_vertices(X)
        return frozenset(a for a, (t, h) in enumerate(self.arcs) if t in X and h in X)

    def arcs_between(self, X: Iterable[str], Y: Iterable[str]) -> frozenset[int]:
        """Arcs with tail in X and head in Y (A[X,Y])."""
        X = self.check_vertices(X)
        Y = self.check_vertices(Y)
        return frozenset(a for a, (t, h) in enumerate(self.arcs) if t in X and h in Y)

    def _check_cut_set(self, X: Iterable[str]) -> frozenset[str]:
        X = self.check_vertices(X)
        if not X or len(X) == len(self.vertices):
            raise InputError("cut undefined for empty X or X = V")
        return X

    def in_cut(self, X: Iterable[str]) -> frozenset[int]:
        """Arcs entering X from outside."""
        X = self._check_cut_set(X)
        return frozenset(a for a, (t, h) in enumerate(self.arcs) if t not in X and h in X)

    def out_cut(self, X: Iterable[str]) -> frozenset[int]:
        """Arcs leaving X."""
        X = self._check_cut_set(X)
        return frozenset(a for a, (t, h) in enumerate(self.arcs) if t in X and h not in X)

    def in_degree(self, B: Iterable[int], v: str) -> int:
        B = frozenset(B)
        return sum(1 for a in self._in_arcs[v] if a in B)

    def out_degree(self, B: Iterable[int], v: str) -> int:
        B = frozenset(B)
        return sum(1 for a in self._out_arcs[v] if a in B)

    # -- reachability -------------------------------------------------------

    def reachable_from(self, B: Iterable[int], X: Iterable[str],
                       reverse: bool = False) -> frozenset[str]:
        """Vertices reachable from X using only arcs of B (includes X), after
        checking B and X.

        With ``reverse`` the arcs are followed backwards, which gives the
        vertices that reach X.
        """
        return frozenset(self.reach(self.check_arcset(B), self.check_vertices(X), reverse))

    def reach(self, B, X: Iterable[str], reverse: bool = False) -> set[str]:
        """The search behind ``reachable_from``, for callers whose B and X are
        already checked or were built from this digraph: B is any container
        of arc indices, X an iterable of vertex ids.  Breadth first."""
        arcs_at, end = (self._in_arcs, 0) if reverse else (self._out_arcs, 1)
        seen = set(X)
        queue = list(seen)
        for u in queue:
            for a in arcs_at[u]:
                if a in B and (w := self.arcs[a][end]) not in seen:
                    seen.add(w)
                    queue.append(w)
        return seen


def check_capacities(digraph: Digraph, b: dict[str, int]) -> dict[str, int]:
    """Validate a positive integer capacity vector over all vertices."""
    return digraph.per_vertex(b, "capacity b(%r) must be a positive integer", low=1)


class FlowNetwork:
    """A capacitated network compiled once for many max-flow queries.

    ``arcs`` is a list of (tail, head, capacity) over ``nodes`` with exact
    finite capacities (int or Fraction); a negative one is ``InputError``.
    The residual graph lives in int-indexed slots: slot 2i is arc i
    forward, slot 2i + 1 its reverse.  ``max_flow_min_cut`` copies ``cap``,
    so queries never see each other's flow.
    """

    def __init__(self, nodes, arcs):
        self.nodes = tuple(nodes)
        self.index = {v: i for i, v in enumerate(self.nodes)}
        self.adj: list[list[int]] = [[] for _ in self.nodes]
        self.ends: list[int] = []
        self.cap: list = []
        for tail, head, c in arcs:
            if c < 0:
                raise InputError("negative capacity on arc %r -> %r" % (tail, head))
            u, w = self.index[tail], self.index[head]
            self.adj[u].append(len(self.ends))
            self.adj[w].append(len(self.ends) + 1)
            self.ends += (w, u)
            self.cap += (c, 0)


def max_flow_min_cut(network: FlowNetwork, source, sink, limit=None):
    """Exact max-flow / min-cut (Edmonds-Karp) on a compiled network.

    Returns (flow value, source side of a min cut); the value equals the
    cut capacity exactly, and integer capacities give an int value.  Every
    two-arc path source -> u -> sink is pushed at its bottleneck before the
    first search; Edmonds-Karp from that feasible flow ends at a maximum
    flow all the same.  The side is the set of nodes the last, failing
    augmenting search reached: the minimal min cut, the same for every
    maximum flow, so it depends neither on the paths taken nor on the
    pre-push.

    With ``limit``, the search stops as soon as the flow reaches ``limit``
    (the pre-push may already reach it) and returns (flow pushed so far,
    None).  A flow that ends below ``limit`` returns exactly what the query
    without a limit returns.
    """
    index = network.index
    if source == sink:
        raise InputError("source and sink must differ")
    if source not in index or sink not in index:
        raise InputError("source/sink must be network nodes")
    s, t = index[source], index[sink]
    adj, ends, cap = network.adj, network.ends, network.cap[:]
    flow = 0
    # Push each two-arc path source -> u -> sink at its bottleneck first.
    for first in adj[s]:
        u = ends[first]
        for second in adj[u]:
            if ends[second] == t and cap[first] > 0 and cap[second] > 0:
                push = min(cap[first], cap[second])
                for slot in (first, second):
                    cap[slot] -= push
                    cap[slot ^ 1] += push
                flow += push
    while limit is None or flow < limit:
        # BFS for a shortest augmenting path; pred[v] is the slot into v.
        pred = [None] * len(adj)
        pred[s] = -1
        queue = [s]
        for u in queue:
            for slot in adj[u]:
                w = ends[slot]
                if pred[w] is None and cap[slot] > 0:
                    pred[w] = slot
                    queue.append(w)
            if pred[t] is not None:
                break
        else:
            # The search ran until its queue was empty: it holds exactly
            # the residual-reachable nodes, the source side of a min cut.
            return flow, frozenset(network.nodes[v] for v in queue)
        bottleneck = None
        v = t
        while v != s:
            slot = pred[v]
            if bottleneck is None or cap[slot] < bottleneck:
                bottleneck = cap[slot]
            v = ends[slot ^ 1]
        v = t
        while v != s:
            slot = pred[v]
            cap[slot] -= bottleneck
            cap[slot ^ 1] += bottleneck
            v = ends[slot ^ 1]
        flow += bottleneck
    return flow, None
