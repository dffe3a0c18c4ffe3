"""The paper's lemmas and descriptions that no command runs, kept as test
references: the two-partition lemma with the strong components it splits
on, the branching/cobranching description of a b-bibranching and pruning to
a minimal b-bibranching.
"""

from __future__ import annotations

from typing import Iterable

from bbibranch.bibranching import Instance, is_b_bibranching, subgraph
from bbibranch.digraph import Digraph, check_capacities
from bbibranch.errors import InputError, TheoremViolation
from bbibranch.matroids import is_b_branching, split_into_b_branchings


def strong_components(digraph: Digraph) -> list[tuple[frozenset[str], bool]]:
    """Strongly connected components, each flagged as source or not.

    The component of v is the set of vertices that v reaches and that
    reach v.  A component is a source component when no arc enters it
    from outside, that is when the vertices reaching it are the
    component itself.  Components come out ordered by their first vertex
    in ``vertices``.
    """
    result = []
    placed: set[str] = set()
    for v in digraph.vertices:
        if v in placed:
            continue
        reaching = digraph.reachable_from(digraph.all_arcs, {v}, reverse=True)
        comp = digraph.reachable_from(digraph.all_arcs, {v}) & reaching
        placed |= comp
        result.append((comp, reaching == comp))
    return result


def _find_any_two_partition(digraph: Digraph, b: dict[str, int]):
    """Some partition of all arcs into two b-branchings, or None."""
    return split_into_b_branchings(digraph, b, digraph.all_arcs, [{}, {}], [b, b])


def two_partition(digraph: Digraph, b: dict[str, int],
                  b1: dict[str, int], b2: dict[str, int]):
    """Partition all arcs into two b-branchings with exact indegrees b1, b2.

    Returns (B1, B2) when the source-component condition holds, otherwise
    (None, witness X).  Requires that some partition into two b-branchings
    exists at all (lemma hypothesis).
    """
    b = check_capacities(digraph, b)
    if _find_any_two_partition(digraph, b) is None:
        raise InputError("arc set cannot be partitioned into two b-branchings")
    for v in digraph.vertices:
        if b1.get(v, 0) + b2.get(v, 0) != len(digraph.in_arcs(v)):
            raise InputError("b1 + b2 must equal the indegree vector of A")
        if b1.get(v, 0) > b[v] or b2.get(v, 0) > b[v]:
            raise InputError("prescriptions must be bounded by b")
        if b1.get(v, 0) < 0 or b2.get(v, 0) < 0:
            raise InputError("prescriptions must be nonnegative")

    for comp, is_source in strong_components(digraph):
        if not is_source:
            continue
        bX = sum(b[v] for v in comp)
        if sum(b1.get(v, 0) for v in comp) >= bX or sum(b2.get(v, 0) for v in comp) >= bX:
            return None, comp

    found = split_into_b_branchings(digraph, b, digraph.all_arcs, [b1, b2], [b1, b2])
    if found is None:
        raise TheoremViolation("two-partition condition held but no partition found",
                               payload={"b1": b1, "b2": b2})
    return tuple(found)


def check_alternative_description(instance: Instance, B: Iterable[int]) -> bool:
    """B[T] a b|T-branching, B[S] a b|S-cobranching, plus the degree bounds;
    the S side is tested as the T side of the mirror."""
    B = instance.digraph.check_arcset(B)
    for view in (instance, instance.mirror):
        D = view.digraph
        if any(D.in_degree(B, v) < view.b[v] for v in view.T):
            return False
        d_T, arc_map = subgraph(D, view.T)
        B_T = frozenset(i for i, a in enumerate(arc_map) if a in B)
        if not is_b_branching(d_T, {v: view.b[v] for v in view.T}, B_T):
            return False
    return True


def prune_to_minimal(instance: Instance, B: Iterable[int]) -> frozenset[int]:
    """Shrink B to an inclusion-wise minimal b-bibranching.

    Deterministic: the highest-weight removable arc goes first, ties broken
    by the lower arc index.  Weight-0 arcs are removable too.
    """
    B = instance.digraph.check_arcset(B)
    if not is_b_bibranching(instance, B):
        raise InputError("prune_to_minimal requires a valid b-bibranching")
    current = set(B)
    while True:
        removable = [a for a in current if is_b_bibranching(instance, current - {a})]
        if not removable:
            return frozenset(current)
        removable.sort(key=lambda a: (-instance.weights[a], a))
        current.discard(removable[0])
