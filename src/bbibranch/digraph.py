"""Digraph primitives: cuts, reachability, strong components, exact max-flow.

Arc sets are plain frozensets of arc indices.  Arc identity is the index into
the digraph's arc list, so parallel arcs are first-class citizens.  All types
are immutable after construction.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from .errors import InputError


class UnboundedFlow(Exception):
    """The flow network has an infinite-capacity source-to-sink path."""


class Digraph:
    """A loopless digraph with stable arc indices and parallel arcs allowed."""

    def __init__(self, vertices: Iterable[str], arcs: Iterable[tuple[str, str]]):
        self.vertices: tuple[str, ...] = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("duplicate vertex ids")
        self._vindex = {v: i for i, v in enumerate(self.vertices)}
        self.arcs: tuple[tuple[str, str], ...] = tuple(arcs)
        for i, (tail, head) in enumerate(self.arcs):
            if tail not in self._vindex or head not in self._vindex:
                raise InputError("arc %d has unknown endpoint: %s -> %s" % (i, tail, head))
            if tail == head:
                raise InputError("arc %d is a loop at %s" % (i, tail))
        self._in_arcs: dict[str, tuple[int, ...]] = {v: () for v in self.vertices}
        self._out_arcs: dict[str, tuple[int, ...]] = {v: () for v in self.vertices}
        in_acc: dict[str, list[int]] = {v: [] for v in self.vertices}
        out_acc: dict[str, list[int]] = {v: [] for v in self.vertices}
        for i, (tail, head) in enumerate(self.arcs):
            out_acc[tail].append(i)
            in_acc[head].append(i)
        for v in self.vertices:
            self._in_arcs[v] = tuple(in_acc[v])
            self._out_arcs[v] = tuple(out_acc[v])
        self.all_arcs: frozenset[int] = frozenset(range(len(self.arcs)))

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
        B = frozenset(B)
        for a in B:
            if not (0 <= a < len(self.arcs)):
                raise InputError("invalid arc index: %r" % (a,))
        return B

    def in_arcs(self, v: str) -> tuple[int, ...]:
        return self._in_arcs[v]

    def out_arcs(self, v: str) -> tuple[int, ...]:
        return self._out_arcs[v]

    # -- induced arc sets and cuts ------------------------------------------

    def induced_arcs(self, B: Iterable[int], X: Iterable[str]) -> frozenset[int]:
        """Arcs of B with both endpoints in X (B[X])."""
        B = self.check_arcset(B)
        X = self.check_vertices(X)
        return frozenset(a for a in B if self.arcs[a][0] in X and self.arcs[a][1] in X)

    def arcs_between(self, B: Iterable[int], X: Iterable[str], Y: Iterable[str]) -> frozenset[int]:
        """Arcs of B with tail in X and head in Y (B[X,Y])."""
        B = self.check_arcset(B)
        X = self.check_vertices(X)
        Y = self.check_vertices(Y)
        return frozenset(a for a in B if self.arcs[a][0] in X and self.arcs[a][1] in Y)

    def _check_cut_set(self, X: Iterable[str]) -> frozenset[str]:
        X = self.check_vertices(X)
        if not X or len(X) == len(self.vertices):
            raise InputError("cut undefined for empty X or X = V")
        return X

    def in_cut(self, B: Iterable[int], X: Iterable[str]) -> frozenset[int]:
        """Arcs of B entering X from outside."""
        B = self.check_arcset(B)
        X = self._check_cut_set(X)
        return frozenset(a for a in B if self.arcs[a][0] not in X and self.arcs[a][1] in X)

    def out_cut(self, B: Iterable[int], X: Iterable[str]) -> frozenset[int]:
        """Arcs of B leaving X."""
        B = self.check_arcset(B)
        X = self._check_cut_set(X)
        return frozenset(a for a in B if self.arcs[a][0] in X and self.arcs[a][1] not in X)

    def in_degree(self, B: Iterable[int], v: str) -> int:
        B = frozenset(B)
        return sum(1 for a in self._in_arcs[v] if a in B)

    def out_degree(self, B: Iterable[int], v: str) -> int:
        B = frozenset(B)
        return sum(1 for a in self._out_arcs[v] if a in B)

    # -- reachability and components ----------------------------------------

    def reachable_from(self, B: Iterable[int], X: Iterable[str],
                       reverse: bool = False) -> frozenset[str]:
        """Vertices reachable from X using only arcs of B (includes X).

        With ``reverse`` the arcs are followed backwards, which gives the
        vertices that reach X.
        """
        B = self.check_arcset(B)
        X = self.check_vertices(X)
        seen = set(X)
        queue = deque(sorted(X, key=self._vindex.get))
        step: dict[str, list[str]] = {}
        for a in B:
            tail, head = self.arcs[a]
            if reverse:
                tail, head = head, tail
            step.setdefault(tail, []).append(head)
        while queue:
            u = queue.popleft()
            for w in step.get(u, ()):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return frozenset(seen)

    def strong_components(self) -> list[tuple[frozenset[str], bool]]:
        """Strongly connected components, each flagged as source or not.

        The component of v is the set of vertices that v reaches and that
        reach v.  A component is a source component when no arc enters it
        from outside, that is when the vertices reaching it are the
        component itself.  Components come out ordered by their first vertex
        in ``vertices``.
        """
        result = []
        placed: set[str] = set()
        for v in self.vertices:
            if v in placed:
                continue
            reaching = self.reachable_from(self.all_arcs, {v}, reverse=True)
            comp = self.reachable_from(self.all_arcs, {v}) & reaching
            placed |= comp
            result.append((comp, reaching == comp))
        return result


def check_capacities(digraph: Digraph, b: dict[str, int]) -> dict[str, int]:
    """Validate a positive integer capacity vector over all vertices."""
    out = {}
    for v in digraph.vertices:
        val = b.get(v)
        if type(val) is not int or val < 1:
            raise InputError("capacity b(%r) must be a positive integer" % (v,))
        out[v] = val
    return out


def max_flow_min_cut(nodes, arcs, source, sink):
    """Exact max-flow / min-cut on a generic capacitated network.

    ``arcs`` is a list of (tail, head, capacity) with exact capacities (int
    or Fraction; integer capacities give an int flow value); capacity None
    means infinite.  Returns (flow value, source-side cut set);
    the flow value equals the cut capacity exactly.  Raises UnboundedFlow when
    an infinite-capacity path joins source and sink.
    """
    nodes = list(nodes)
    if source == sink:
        raise InputError("source and sink must differ")
    node_set = set(nodes)
    if source not in node_set or sink not in node_set:
        raise InputError("source/sink must be network nodes")

    finite_total = sum(c for _, _, c in arcs if c is not None)
    big = finite_total + 1

    # Residual graph over arc slots: even index = forward, odd = backward.
    cap = []
    adj: dict = {v: [] for v in node_set}
    ends = []
    for tail, head, c in arcs:
        if c is not None and c < 0:
            raise InputError("negative capacity on arc %r -> %r" % (tail, head))
        c_eff = big if c is None else c
        adj[tail].append(len(cap))
        cap.append(c_eff)
        ends.append(head)
        adj[head].append(len(cap))
        cap.append(0)
        ends.append(tail)

    flow = 0
    while True:
        # BFS for a shortest augmenting path (Edmonds-Karp).
        parent_arc: dict = {source: None}
        queue = deque([source])
        while queue and sink not in parent_arc:
            u = queue.popleft()
            for slot in adj[u]:
                w = ends[slot]
                if w not in parent_arc and cap[slot] > 0:
                    parent_arc[w] = slot
                    queue.append(w)
        if sink not in parent_arc:
            break
        # Bottleneck along the path.
        bottleneck = None
        v = sink
        while v != source:
            slot = parent_arc[v]
            if bottleneck is None or cap[slot] < bottleneck:
                bottleneck = cap[slot]
            v = ends[slot ^ 1]
        v = sink
        while v != source:
            slot = parent_arc[v]
            cap[slot] -= bottleneck
            cap[slot ^ 1] += bottleneck
            v = ends[slot ^ 1]
        flow += bottleneck

    # An all-infinite path forces every cut across an arc of capacity big;
    # without one, the nodes the source reaches over infinite arcs give a
    # cut of capacity at most finite_total.
    if flow > finite_total:
        raise UnboundedFlow("infinite-capacity path from source to sink")
    # The last search failed, so it ran until its queue was empty: it holds
    # exactly the residual-reachable nodes, the source side of a min cut.
    return flow, frozenset(parent_arc)
