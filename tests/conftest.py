"""Shared generators and independent oracles for the test suite.

The oracles here are deliberately naive (subset enumeration, definitional
scans) so they cannot share bugs with the optimized implementations they
check.
"""

from __future__ import annotations

import copy
import itertools
import operator
import random
import sys
from itertools import combinations
from pathlib import Path

from bbibranch import lpsolve
from bbibranch.bibranching import Instance, is_b_bibranching
from bbibranch.cli import load_instance_data
from bbibranch.digraph import Digraph
from bbibranch.lpsolve import RationalLP
from bbibranch.rationals import Q, rat_str

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# ---------------------------------------------------------------------------
# Seeded instance generators
# ---------------------------------------------------------------------------


def random_instance(rng: random.Random, nS: int, nT: int, density: float,
                    bmax: int, wmax: int, max_arcs: int = 14,
                    extra_cross: int = 0) -> Instance:
    """A random bipartitioned instance; never emits T-to-S arcs or loops."""
    s_ids = ["s%d" % i for i in range(nS)]
    t_ids = ["t%d" % i for i in range(nT)]
    allowed = []
    for u in s_ids:
        allowed += [(u, v) for v in s_ids if v != u]
        allowed += [(u, v) for v in t_ids]
    for u in t_ids:
        allowed += [(u, v) for v in t_ids if v != u]
    arcs = [a for a in allowed if rng.random() < density]
    for _ in range(extra_cross):
        arcs.append((rng.choice(s_ids), rng.choice(t_ids)))
    arcs = arcs[:max_arcs]
    side = {v: "S" for v in s_ids}
    side.update({v: "T" for v in t_ids})
    b = {v: rng.randint(1, bmax) for v in side}
    w = [rng.randint(0, wmax) for _ in arcs]
    return Instance(Digraph(s_ids + t_ids, arcs), side, b, w)


def digest_draws():
    """The forty seeded instances behind the golden report digests."""
    rng = random.Random(4004)
    for _ in range(40):
        nS = rng.randint(1, 3)
        nT = rng.randint(1, 3)
        yield random_instance(rng, nS, nT, rng.uniform(0.3, 0.9), 2, 9,
                              max_arcs=12, extra_cross=rng.randint(1, 4))


def bicut_draws():
    """Forty seeded sparse instances, one S vertex and four or five T
    vertices, whose shortest b-bibranchings often need bicut rows."""
    rng = random.Random(7007)
    for _ in range(40):
        yield random_instance(rng, 1, rng.randint(4, 5), rng.uniform(0.3, 0.35),
                              1, 9, max_arcs=20)


def _coefficient(rng):
    if rng.random() < 0.15:
        return Q(rng.randint(-5, 5), rng.randint(2, 3))
    return Q(rng.randint(-3, 4))


def random_lp(rng) -> RationalLP:
    """Rows mostly hold at a random point within the bounds; some LPs draw
    their right-hand sides freely and are usually infeasible."""
    n = rng.randint(1, 5)
    lp = RationalLP(n, [rng.randint(-3, 5) for _ in range(n)],
                    rng.choice(("min", "max")))
    point = []
    for j in range(n):
        lower = rng.choice((0, 0, 0, 1, -1, 2))
        draw = rng.random()
        width = None if draw < 0.3 else 0 if draw < 0.45 else rng.randint(1, 4)
        lp.set_bounds(j, lower, None if width is None else lower + width)
        point.append(lower + rng.randint(0, 3 if width is None else width))
    free_rhs = rng.random() < 0.2
    for _ in range(rng.randint(0, 5)):
        coeffs = {j: _coefficient(rng) for j in range(n) if rng.random() < 0.7}
        rel = rng.choice(("<=", ">=", "="))
        if free_rhs:
            rhs = rng.randint(-4, 8)
        else:
            rhs = sum((c * point[j] for j, c in coeffs.items()), Q(0))
            rhs += {"<=": 1, ">=": -1, "=": 0}[rel] * rng.randint(0, 2)
        lp.add_row(coeffs, rel, rhs)
    for _ in range(rng.randint(0, 2)):
        if not lp.rows:
            break
        coeffs, rel, rhs = rng.choice(lp.rows)
        if rng.random() < 0.5:
            factor = rng.choice((1, -1, 2))
            flipped = {"<=": ">=", ">=": "<=", "=": "="}[rel]
            lp.add_row({j: factor * c for j, c in coeffs.items()},
                       rel if factor > 0 else flipped, factor * rhs)
        else:
            other, rel2, rhs2 = rng.choice(lp.rows)
            if rel == rel2:
                total = {j: coeffs.get(j, 0) + other.get(j, 0)
                         for j in set(coeffs) | set(other)}
                lp.add_row(total, rel, rhs + rhs2)
    return lp


def random_boxed_lp(rng) -> RationalLP:
    """A small, highly degenerate LP: nearly every variable boxed, with int
    or fractional bounds, fixed variables and now and then an upper bound
    below its lower bound; rows with small coefficients and right-hand
    sides, all three relations, and copies of earlier rows (negated or
    doubled), which make it degenerate."""
    n = rng.randint(3, 8)
    lp = RationalLP(n, [rng.randint(-3, 3) for _ in range(n)],
                    rng.choice(("min", "max")))
    for j in range(n):
        if rng.random() < 0.9:
            lower = rng.choice((0, 0, 1, -1, Q(1, 3)))
            width = rng.choice((0, 1, 1, 2, Q(1, 2), Q(3, 2)))
            if rng.random() < 0.05:
                width = Q(-1, 2)
            lp.set_bounds(j, lower, lower + width)
    for _ in range(rng.randint(2, 6)):
        coeffs = {j: rng.choice((1, 1, -1, 2, Q(1, 2))) for j in range(n)
                  if rng.random() < 0.6}
        rel = rng.choice(("<=", ">=", "="))
        lp.add_row(coeffs, rel, rng.choice((-1, 0, 0, 1, 1, 2, 3, Q(1, 2))))
        if rng.random() < 0.2:
            factor = rng.choice((-1, 2))
            flipped = {"<=": ">=", ">=": "<=", "=": "="}[rel]
            lp.add_row({j: factor * c for j, c in coeffs.items()},
                       rel if factor > 0 else flipped, factor * lp.rows[-1][2])
    return lp


def random_digraph(rng: random.Random, n: int, density: float, bmax: int,
                   wmax: int = 9):
    """(digraph, b, weights) without any bipartition structure."""
    ids = ["v%d" % i for i in range(n)]
    arcs = [(u, v) for u in ids for v in ids
            if u != v and rng.random() < density]
    b = {v: rng.randint(1, bmax) for v in ids}
    w = [rng.randint(0, wmax) for _ in arcs]
    return Digraph(ids, arcs), b, w


def one_arc_instance(weight=5) -> Instance:
    """The smallest feasible instance: s -> t with unit capacities."""
    D = Digraph(["s", "t"], [("s", "t")])
    return Instance(D, {"s": "S", "t": "T"}, {"s": 1, "t": 1}, [weight])


def uncrossing_instance() -> Instance:
    """``solve-sparse`` pool seed 344 of ``perfbench/workloads.py``: 14
    vertices, b = 1, m = 63.  The unboxed cutting plane ends on 10 bicut
    rows with value 123, and its row duals are fractional on four crossing
    bicuts, which uncross in 3 steps: the one pool instance whose TDI check
    re-solves over a cross-free family."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return load_instance_data(workloads.WORKLOADS["solve-sparse"].generator(344)[0])


def serialize_instance(instance: Instance) -> dict:
    return {
        "vertices": [
            {"id": v, "side": "S" if v in instance.S else "T",
             "b": instance.b[v]}
            for v in instance.digraph.vertices],
        "arcs": [
            {"tail": t, "head": h, "weight": rat_str(instance.weights[i])}
            for i, (t, h) in enumerate(instance.digraph.arcs)],
    }


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def all_subsets(m: int):
    for r in range(m + 1):
        yield from (frozenset(c) for c in itertools.combinations(range(m), r))


def oracle_is_branching(digraph: Digraph, B: frozenset[int]) -> bool:
    """Definitional branching test: indegree <= 1 everywhere and no cycle."""
    for v in digraph.vertices:
        if digraph.in_degree(B, v) > 1:
            return False
    # Cycle scan: repeatedly strip vertices with no incoming B-arc.
    alive = set(digraph.vertices)
    arcs = set(B)
    while True:
        removable = {v for v in alive
                     if not any(digraph.head(a) == v and digraph.tail(a) in alive
                                for a in arcs)}
        if not removable:
            break
        alive -= removable
        arcs = {a for a in arcs
                if digraph.tail(a) in alive and digraph.head(a) in alive}
    return not alive or not arcs


def oracle_sparsity_independent(digraph: Digraph, b: dict, B: frozenset[int]) -> bool:
    """|B[X]| <= b(X) - 1 checked by full subset enumeration."""
    verts = list(digraph.vertices)
    for r in range(1, len(verts) + 1):
        for combo in itertools.combinations(verts, r):
            X = frozenset(combo)
            inside = sum(1 for a in B
                         if digraph.tail(a) in X and digraph.head(a) in X)
            if inside > sum(b[v] for v in X) - 1:
                return False
    return True


def oracle_b_branchings(digraph: Digraph, b: dict):
    """All b-branchings by definitional enumeration."""
    out = []
    for B in all_subsets(digraph.num_arcs()):
        if all(digraph.in_degree(B, v) <= b[v] for v in digraph.vertices) \
                and oracle_sparsity_independent(digraph, b, B):
            out.append(B)
    return out


def oracle_max_disjoint_packing(instance: Instance) -> int:
    """Exhaustive maximum number of pairwise disjoint b-bibranchings."""
    m = instance.digraph.num_arcs()
    singles = [B for B in all_subsets(m) if B and is_b_bibranching(instance, B)]
    best = 0

    def rec(count, used, start):
        nonlocal best
        best = max(best, count)
        for i in range(start, len(singles)):
            if not (singles[i] & used):
                rec(count + 1, used | singles[i], i + 1)

    rec(0, frozenset(), 0)
    return best


def all_bicuts(instance: Instance) -> list[tuple[frozenset[str], frozenset[int]]]:
    """Every bicut as (U, delta^-(U)), the pairs ``_violated_bicuts``
    returns, by enumeration of eligible U (desk scale only)."""
    D = instance.digraph
    cuts = []
    T_sorted = sorted(instance.T)
    for size in range(1, len(T_sorted) + 1):
        for combo in combinations(T_sorted, size):
            U = frozenset(combo)
            cuts.append((U, D.in_cut(U)))
    S_sorted = sorted(instance.S)
    for size in range(1, len(S_sorted)):
        for combo in combinations(S_sorted, size):
            U = frozenset(instance.T | (instance.S - frozenset(combo)))
            cuts.append((U, D.in_cut(U)))
    # T <= U = V \ (proper nonempty subset of S); U = T itself is covered above.
    return cuts


def _dual_family(instance: Instance):
    """The set family indexing dual variables: singletons plus U', each key
    once (U = T arises from both sides when |S|, |T| >= 2)."""
    family = [("v", v) for v in sorted(instance.digraph.vertices)]
    T_sorted = sorted(instance.T)
    for size in range(2, len(T_sorted) + 1):
        for combo in combinations(T_sorted, size):
            family.append(("U", frozenset(combo)))
    S_sorted = sorted(instance.S)
    for size in range(2, len(S_sorted) + 1):
        for combo in combinations(S_sorted, size):
            family.append(("U", frozenset(instance.T | (instance.S - frozenset(combo)))))
    return list(dict.fromkeys(family))


def covering_lp(instance: Instance, family) -> RationalLP:
    """min w.x subject to x(coverage(key)) >= need(key) and x >= 0, one row
    per key of ``family`` in order, need b(v) for ("v", v) and 1 for a
    bicut: the LP dual of max b.y subject to load <= w and y >= 0 over the
    family.  Over the singletons in degree-row order and then bicuts it is
    ``_build_degree_lp(instance, boxed=False)`` with one >= 1 row per
    bicut, the LP that ``tdi_spot_check`` re-solves."""
    lp = RationalLP(instance.digraph.num_arcs(), instance.weights, "min")
    for key in family:
        lp.add_row({a: 1 for a in lpsolve._dual_coverage(instance, key)}, ">=",
                   instance.b[key[1]] if key[0] == "v" else 1)
    return lp


HOLDS = {"<=": operator.le, ">=": operator.ge, "=": operator.eq}
# The sign of a row's dual in min form: a >= row's is >= 0, a <= row's <= 0.
DUAL_SIGN = {"<=": -1, ">=": 1, "=": 0}


def duality_failure(lp, result):
    """The first failing one of four conditions that together prove an
    optimal ``result`` of ``lp`` optimal, exactly and without a pivot; None
    if all hold.  Duals are read in min form (a max LP's reported duals are
    negated, a None bound dual is 0):

    - ``primal``: x meets every row and bound, and the objective is c.x;
    - ``dual signs``: a >= row's dual is >= 0 and a <= row's <= 0, and a
      bound dual is <= 0, and 0 where there is no upper bound;
    - ``reduced costs``: r = c - yA - z >= 0, the lower bounds' duals;
    - ``dual objective``: y.rhs + z.u + r.l equals the min-form objective.
    """
    flip = 1 if lp.sense == "min" else -1
    x = result.x
    bounds = list(zip(lp.lower, lp.upper))
    if not (all(HOLDS[rel](sum(c * x[j] for j, c in coeffs.items()), rhs)
                for coeffs, rel, rhs in lp.rows)
            and all(lo <= v and (up is None or v <= up)
                    for v, (lo, up) in zip(x, bounds))
            and result.objective == sum(c * v for c, v in zip(lp.objective, x))):
        return "primal"
    y = [flip * v for v in result.row_duals]
    z = [0 if v is None else flip * v for v in result.bound_duals]
    if not (all(DUAL_SIGN[rel] * v >= 0 for v, (_, rel, _) in zip(y, lp.rows))
            and all(v <= 0 and (v == 0 or up is not None)
                    for v, (_, up) in zip(z, bounds))):
        return "dual signs"
    r = [flip * c - v for c, v in zip(lp.objective, z)]
    for v, (coeffs, _, _) in zip(y, lp.rows):
        for j, c in coeffs.items():
            r[j] -= v * c
    if any(v < 0 for v in r):
        return "reduced costs"
    dual = (sum(v * rhs for v, (_, _, rhs) in zip(y, lp.rows))
            + sum(v * up for v, (_, up) in zip(z, bounds) if v)
            + sum(v * lo for v, (lo, _) in zip(r, bounds)))
    if dual != flip * result.objective:
        return "dual objective"
    return None


def repeat_separations(monkeypatch, caller=None):
    """Fault ``lpsolve._violated_bicuts``: on calls from ``caller`` (from
    anywhere when None) it also returns the cuts of its earlier such calls,
    rows that hold at every later LP optimum."""
    original = lpsolve._violated_bicuts
    earlier = []

    def repeating(instance, x, need=1):
        cuts = original(instance, x, need)
        if caller is not None and sys._getframe(1).f_code.co_name != caller:
            return cuts
        out = cuts + [cut for cut in earlier if cut not in cuts]
        earlier.extend(cut for cut in cuts if cut not in earlier)
        return out

    monkeypatch.setattr(lpsolve, "_violated_bicuts", repeating)


def permute_rows(monkeypatch, seed):
    """Make ``lpsolve.simplex_solve`` solve each LP with its rows in a
    seeded random order, and return the row duals in the LP's own order."""
    original = lpsolve.simplex_solve
    rng = random.Random(seed)

    def permuted(lp):
        order = list(range(len(lp.rows)))
        rng.shuffle(order)
        shuffled = copy.copy(lp)
        shuffled.rows = [lp.rows[i] for i in order]
        result = original(shuffled)
        if result.row_duals is not None:
            duals = [0] * len(order)
            for dual, i in zip(result.row_duals, order):
                duals[i] = dual
            result.row_duals = duals
        return result

    monkeypatch.setattr(lpsolve, "simplex_solve", permuted)
