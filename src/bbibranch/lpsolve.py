"""Exact rational LP machinery.

A bounded dual simplex with Bland's rule, exact throughout and
cold-started on every call, on one tableau of exact entries whose last
row holds the reduced costs.  Each row's activity is a bounded basic
variable and every column starts at the bound its cost favours, so an LP
whose negative costs all sit on boxed columns needs no phase 1, no
artificial column and no drive-out; every LP a command poses is one, and
any other LP is an ``InputError``.  LP data and results follow the
package's number rule: every coefficient, bound, vertex entry, dual and
objective is an int when integral and a Fraction only otherwise; exit-5
payloads write simplex values (x, y) as 'p' or 'p/q' text either way.
Bicut separation runs by graph searches at an int point x >= 0 with need
1 and by max-flow otherwise; it names each bicut delta^-(U) by U, and of
its steps only ``_violated_bicuts`` reads the arcs.  On it rest the
primal cutting plane for the shortest b-bibranching LP, proved optimal by
its own row duals, integer decomposition by LP peeling on separated
bicut rows, each class the least, and the total-dual-integrality check,
which proves an integral optimal dual from those duals (uncrossed, and
the covering LP re-solved over the cross-free family, when fractional)
and returns it as a plain map from row keys to values.  Both dual checks
read each row's arcs from the instance, through one load routine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, compress
from math import lcm
from typing import Optional

from .bibranching import Instance, Solution, bibranching_report, require_feasible
from .digraph import FlowNetwork, max_flow_min_cut
from .errors import InputError, TheoremViolation
from .rationals import is_integral, rat, rat_str, ratio

# ---------------------------------------------------------------------------
# Exact simplex
# ---------------------------------------------------------------------------

class RationalLP:
    """min/max c.x subject to rows (coeffs, rel, rhs) and per-variable bounds.

    ``add_row`` and ``set_bounds`` check a caller's data and read each number
    through ``rat``.  The LPs this module builds from an instance append
    their rows to ``rows`` and set ``lower`` and ``upper`` directly: their
    coefficients are 1 on arcs of the digraph and their bounds ints, so
    there is nothing to check.
    """

    def __init__(self, num_vars: int, objective, sense: str = "min"):
        if sense not in ("min", "max"):
            raise InputError("sense must be 'min' or 'max'")
        if len(objective) != num_vars:
            raise InputError("objective must have one entry per variable (%d)"
                             % num_vars)
        self.num_vars = num_vars
        self.objective = [rat(c) for c in objective]
        self.sense = sense
        self.rows: list[tuple[dict[int, object], str, object]] = []
        self.lower = [0] * num_vars
        self.upper: list[Optional[object]] = [None] * num_vars

    def add_row(self, coeffs: dict[int, object], rel: str, rhs) -> int:
        if rel not in ("<=", ">=", "="):
            raise InputError("relation must be one of <=, >=, =")
        for j in coeffs:
            self._check_variable(j, "row references")
        clean = {j: q for j, c in coeffs.items() if (q := rat(c))}
        self.rows.append((clean, rel, rat(rhs)))
        return len(self.rows) - 1

    def set_bounds(self, j: int, lower, upper) -> None:
        self._check_variable(j, "bounds on")
        self.lower[j] = rat(lower)
        self.upper[j] = None if upper is None else rat(upper)

    def _check_variable(self, j, where: str) -> None:
        # bool is an int subclass, so True would pass as column 1.
        if type(j) is not int or not (0 <= j < self.num_vars):
            raise InputError("%s unknown variable %r" % (where, j))


@dataclass
class SimplexResult:
    status: str                      # optimal | infeasible
    x: Optional[list] = None
    objective: Optional[object] = None
    row_duals: Optional[list] = None   # one per original row
    bound_duals: Optional[list] = None  # one per variable; None if unbounded above


def simplex_solve(lp: RationalLP) -> SimplexResult:
    """Bounded dual simplex with Bland's rule, exact throughout, cold-started
    on every call (Chvatal, Linear Programming, 1983; Bland, Math. Oper.
    Res. 2, 1977).

    Variable j < n is x_j; variable n + i is row i's activity r_i = a_i.x,
    bounded by its relation: [rhs, inf) for >=, (-inf, rhs] for <= and
    [rhs, rhs] for =.  The rows' activities start basic, and each x_j
    nonbasic at the bound its min-form cost favours: its lower bound if the
    cost is >= 0, else its upper bound.  That start is dual feasible, and
    an LP without one, a negative min-form cost on a column with no upper
    bound, is an ``InputError``; every LP a command poses has one.  An
    upper bound below its lower bound is infeasible.

    Each step the basic variable of least index outside its bounds leaves,
    at the bound it violates, found in one pass over the basis.  Of the
    leaving row's nonzero columns, those that move it towards that bound
    are eligible, a fixed variable never, and the one of least ratio
    |d_k| / |a_k| (its reduced cost over its entry in the leaving row,
    cross-multiplied) enters, ties to the least index; with none eligible,
    the row cannot reach its bound: infeasible.  A pivot solves the
    leaving row for the entering column in place, over its nonzero
    entries: an entry of 1 negates the row, one of -1 leaves it as it is,
    and any other divides it through ``ratio``.  It then adds multiples of
    the row to the other rows and to the reduced-cost row, so each entry
    stays an int unless the data is fractional or a pivot entry is not
    +-1.  With every basic variable within its bounds
    the basis is optimal.  x is read off the basic values and the
    nonbasic bounds, each row's dual is its activity's reduced cost (0
    when basic), and a finite upper bound's dual is a nonbasic x_j's
    reduced cost when negative, else 0; a max LP's duals are negated.
    Each result value is an int when integral, a Fraction only otherwise.
    """
    n, m = lp.num_vars, len(lp.rows)
    flip = 1 if lp.sense == "min" else -1
    cost = [flip * c for c in lp.objective]
    if any(u is not None and u < l for l, u in zip(lp.lower, lp.upper)):
        return SimplexResult(status="infeasible")
    if any(c < 0 and u is None for c, u in zip(cost, lp.upper)):
        raise InputError("LP has no dual-feasible start: a negative min-form "
                         "cost on a column with no upper bound")
    lower = lp.lower + [None if rel == "<=" else rhs for _, rel, rhs in lp.rows]
    upper = lp.upper + [None if rel == ">=" else rhs for _, rel, rhs in lp.rows]
    value = [u if c < 0 else l for c, l, u in zip(cost, lp.lower, lp.upper)] + [None] * m
    columns = list(range(n))          # the nonbasic variable of each column
    basis = list(range(n, n + m))     # the basic variable of each row
    # Row i: basis[i] = sum_k tableau[i][k] columns[k], of value beta[i]; the
    # last row holds the reduced costs d, and its beta the min-form objective.
    tableau = []
    for coeffs, _, _ in lp.rows:
        row = [0] * n
        for j, c in coeffs.items():
            row[j] = c
        tableau.append(row)
    tableau.append(cost)
    beta = [sum(c * value[j] for j, c in coeffs.items()) for coeffs, _, _ in lp.rows]
    beta.append(sum(c * v for c, v in zip(cost, value)))

    while True:
        i = -1
        for h, v in enumerate(basis):
            if (i < 0 or v < basis[i]) and (
                    (lower[v] is not None and beta[h] < lower[v])
                    or (upper[v] is not None and beta[h] > upper[v])):
                i = h
        if i < 0:
            break
        v = basis[i]
        up = lower[v] is not None and beta[i] < lower[v]  # basis[i] must rise
        target = lower[v] if up else upper[v]
        row, reduced = tableau[i], tableau[-1]
        nonzero = list(compress(range(n), row))
        k = -1
        for j in nonzero:
            u = columns[j]
            if lower[u] == upper[u]:
                continue
            a = row[j]
            rises = (a > 0) == up  # whether column j must rise to move basis[i]
            if value[u] == (upper[u] if rises else lower[u]):
                continue
            if k >= 0:
                # |d_j / a| against the best ratio, cross-multiplied
                left, right = abs(reduced[j] * best), abs(reduced[k] * a)
                if left > right or (left == right and u > columns[k]):
                    continue
            k, best = j, a
        if k < 0:
            return SimplexResult(status="infeasible")
        # basis[i] moves to target, column k by step, each other row by its
        # entry in column k times step; then column k's variable enters.
        if best == 1:
            step = target - beta[i]
            for j in nonzero:
                row[j] = -row[j]
            row[k] = 1
        elif best == -1:
            step = beta[i] - target
        else:
            step = ratio(target - beta[i], best)
            for j in nonzero:
                row[j] = ratio(-row[j], best)
            row[k] = ratio(1, best)
        for h, dst in enumerate(tableau):
            f = dst[k]
            if f and h != i:
                beta[h] += f * step
                dst[k] = 0
                for j in nonzero:
                    dst[j] += f * row[j]
        beta[i] = value[columns[k]] + step
        value[v] = target
        columns[k], basis[i] = v, columns[k]

    basic = dict(zip(basis, beta))
    x = [rat(basic[j]) if j in basic else value[j] for j in range(n)]
    reduced = dict(zip(columns, tableau[-1]))
    row_duals = [rat(flip * reduced.get(n + i, 0)) for i in range(m)]
    bound_duals = [None if u is None else rat(flip * min(0, reduced.get(j, 0)))
                   for j, u in enumerate(lp.upper)]
    return SimplexResult(status="optimal", x=x, objective=rat(flip * beta[-1]),
                         row_duals=row_duals, bound_duals=bound_duals)


def dump_lp(lp: RationalLP) -> str:
    """Human-readable LP text with exact p/q coefficients."""
    def term(c, j):
        return "%s x%d" % (rat_str(c), j)

    lines = ["%s: %s" % (lp.sense, " + ".join(term(c, j) for j, c in enumerate(lp.objective)
                                              if c != 0) or "0")]
    lines.append("subject to:")
    for coeffs, rel, rhs in lp.rows:
        body = " + ".join(term(c, j) for j, c in sorted(coeffs.items()))
        lines.append("  %s %s %s" % (body or "0", rel, rat_str(rhs)))
    lines.append("bounds:")
    for j in range(lp.num_vars):
        hi = "inf" if lp.upper[j] is None else rat_str(lp.upper[j])
        lines.append("  %s <= x%d <= %s" % (rat_str(lp.lower[j]), j, hi))
    return "\n".join(lines)


def _text(values) -> list[str]:
    """Exact values as 'p' or 'p/q' text, the form exit-5 payloads carry
    whether or not a value is integral."""
    return [rat_str(v) for v in values]


# ---------------------------------------------------------------------------
# Bicuts and separation
# ---------------------------------------------------------------------------

def min_bicut_candidates(instance: Instance, x: list,
                         below=None) -> list[tuple[object, frozenset[str]]]:
    """(value, U) of one minimum bicut delta^-(U) per forced vertex, from
    both bicut families; no arc set is built.

    x holds one entry per arc (``Digraph.per_arc``).  The max-flows run on
    the int capacities L x, L the lcm of the denominators of x, and each
    value is returned divided by L.  Scaling leaves Edmonds-Karp's cut, the
    unique minimal min cut, where it was.  All |T| + |S| flows of a call
    share the one network it compiles: the digraph, a super-source into S
    for the flows to each t in T, and a super-sink out of T for the flows
    from each s in S.  Each super node is a dead end for the other
    family's flows, so no value or cut changes.  The super arcs hold one
    more than the digraph arcs' total capacity, so no min cut crosses
    them: every flow path crosses a digraph arc, as S and T are disjoint.

    With ``below``, each flow stops once it reaches below * L, and only
    the candidates of value less than ``below`` are returned, in the same
    order.  A flow that reaches ``below`` never gives such a candidate,
    and one that stays under it gives the same value and cut as without
    ``below``.  Separation at an int point with need 1 runs no flow
    (``_violated_bicuts``); the fractional points, the needs of 2 or more
    and ``packing_number``'s exact values come here.
    """
    D = instance.digraph
    x = D.per_arc(x, "x")
    L = lcm(*(v.denominator for v in x))
    capacities = [v.numerator * (L // v.denominator) for v in x]
    big = sum(capacities) + 1
    # The super nodes are tuples, so no vertex id (a string) equals them.
    source, sink = ("source",), ("sink",)
    arcs = [(tail, head, c) for (tail, head), c in zip(D.arcs, capacities)]
    arcs += [(source, s, big) for s in sorted(instance.S)]
    arcs += [(t, sink, big) for t in sorted(instance.T)]
    network = FlowNetwork([*D.vertices, source, sink], arcs)
    limit = None if below is None else below * L
    results = []
    pairs = ([(source, t) for t in sorted(instance.T)]
             + [(s, sink) for s in sorted(instance.S)])
    for start, end in pairs:
        value, side = max_flow_min_cut(network, start, end, limit)
        if side is not None:
            results.append((ratio(value, L), D.all_vertices - side))
    return results


def _unreached_bicuts(instance: Instance, x: list[int]) -> list[frozenset[str]]:
    """The U of each min-cut bicut of value below 1 at an int point x >= 0,
    in the order ``min_bicut_candidates`` gives them, found by searches over
    the support of x instead of max-flows.

    An int flow below 1 is 0, so the flow to t is 0 exactly when S does not
    reach t, and its minimal min cut is then the set R that S reaches: every
    unreached t gives U = V - R.  Likewise the flow from s is 0 exactly
    when s reaches no vertex of T, with U = V - (the set s reaches)."""
    D = instance.digraph
    support = frozenset(compress(range(len(x)), x))
    out = []
    reached = D.reach(support, instance.S)
    if not instance.T <= reached:
        out.append(D.all_vertices - reached)
    reaching = D.reach(support, instance.T, reverse=True)
    for s in sorted(instance.S - reaching):
        out.append(D.all_vertices - D.reach(support, (s,)))
    return out


def _violated_bicuts(instance: Instance, x: list, need=1) -> list[tuple]:
    """(U, delta^-(U)) for the distinct min-cut bicuts with x(delta^-(U)) <
    need, empty iff all reach need: the U's of ``_unreached_bicuts`` when
    need is 1 and x an int point >= 0 (a cutting-plane round at an integral
    vertex, or the last peel stage's upper rows), else of the max-flows of
    ``min_bicut_candidates``, which also reject a negative entry; both give
    the same U's.  Only here does separation read arcs; each arc set keeps
    the first U that gives it."""
    if need == 1 and all(type(v) is int and v >= 0 for v in x):
        candidates = _unreached_bicuts(instance, x)
    else:
        candidates = [U for _, U in min_bicut_candidates(instance, x, need)]
    first = {}
    for U in candidates:
        first.setdefault(instance.digraph.in_cut(U), U)
    return [(U, arcs) for arcs, U in first.items()]


# ---------------------------------------------------------------------------
# Primal cutting plane
# ---------------------------------------------------------------------------

@dataclass
class CuttingPlaneResult:
    solution: Solution
    x: list
    value: object
    bicut_rows: list  # the U of each bicut row, in the order added
    rounds: int
    fallback_triggered: bool = False  # read by perfbench/tracing.py
    row_duals: dict = field(default_factory=dict)


def _build_degree_lp(instance: Instance, boxed: bool = True) -> RationalLP:
    """The weight LP with the indegree rows of T, then of the mirror's T (the
    outdegree rows of S)."""
    m = instance.digraph.num_arcs()
    lp = RationalLP(m, instance.weights, "min")
    if boxed:
        lp.upper = [1] * m
    lp.rows = [(dict.fromkeys(view.digraph.in_arcs(v), 1), ">=", view.b[v])
               for view in (instance, instance.mirror) for v in sorted(view.T)]
    return lp


def zero_one_vertex(lp: RationalLP, result: SimplexResult) -> list[int]:
    """The optimal vertex x of an LP over an integral polyhedron, as 0/1 ints.

    A non-optimal status or a fractional x contradicts the integrality
    theorem behind the caller's LP, so it raises ``TheoremViolation``
    carrying the dumped LP (and x).
    """
    if result.status != "optimal":
        raise TheoremViolation("integral LP unexpectedly %s" % result.status,
                               payload={"lp": dump_lp(lp)})
    if any(v not in (0, 1) for v in result.x):
        raise TheoremViolation("vertex of an integral LP is fractional",
                               payload={"lp": dump_lp(lp), "x": _text(result.x)})
    return [int(v) for v in result.x]


def _solve_with_cuts(instance: Instance, lp: RationalLP, cut_rows: list):
    """Alternate simplex and separation until no bicut is violated or the
    LP is not optimal; returns (last result, rounds)."""
    rounds = 0
    while True:
        rounds += 1
        result = simplex_solve(lp)
        if result.status != "optimal":
            return result, rounds
        new = _violated_bicuts(instance, result.x)
        if not new:
            return result, rounds
        for U, cut in new:
            # Cut validity: genuinely violated at the iterate that produced it;
            # every row holds at an optimum, so a repeated row fails here too.
            if sum(result.x[a] for a in cut) >= 1:
                raise TheoremViolation("separated bicut is not violated",
                                       payload={"U": U, "x": _text(result.x)})
            cut_rows.append(U)
            lp.rows.append((dict.fromkeys(cut, 1), ">=", 1))


def _cutting_plane(instance: Instance, boxed: bool):
    """Row generation over the degree + bicut LP: (LP, optimal result, bicut
    rows, rounds, row duals keyed ("v", v) in degree-row order, then ("U", U)
    in the order added).  Every b-bibranching meets the LP, so when it is not
    optimal ``require_feasible`` raises; if it does not, ``TheoremViolation``
    carries the LP."""
    lp = _build_degree_lp(instance, boxed)
    cut_rows: list[frozenset[str]] = []
    result, rounds = _solve_with_cuts(instance, lp, cut_rows)
    if result.status != "optimal":
        require_feasible(instance)
        raise TheoremViolation("cutting-plane LP %s on a feasible instance"
                               % result.status, payload={"lp": dump_lp(lp)})
    keys = [("v", v) for view in (instance, instance.mirror) for v in sorted(view.T)]
    keys += [("U", U) for U in cut_rows]
    return lp, result, cut_rows, rounds, dict(zip(keys, result.row_duals))


def _dual_coverage(instance: Instance, key) -> frozenset[int]:
    """Arcs whose dual constraint contains the variable y(key)."""
    D, (kind, X) = instance.digraph, key
    if kind == "v":
        return frozenset(D.in_arcs(X) if X in instance.T else D.out_arcs(X))
    return D.in_cut(X)


def _loads(instance: Instance, y: dict) -> list:
    """Each arc's load: the sum of y over the rows that contain it, each
    row's arcs read from the instance (``_dual_coverage``), not from an LP."""
    load = [0] * instance.digraph.num_arcs()
    for key, val in y.items():
        for a in _dual_coverage(instance, key):
            load[a] += val
    return load


def dual_bound(instance: Instance, y: dict):
    """sum b(v) y_v + sum y_U - sum_a max(0, load(a) - w(a)).  For y >= 0
    the max terms complete y to a dual of the boxed LP over all bicuts, so
    by weak duality no b-bibranching weighs less."""
    objective = sum(instance.b[key[1]] * val if key[0] == "v" else val
                    for key, val in y.items())
    return objective - sum(max(0, total - w)
                           for total, w in zip(_loads(instance, y), instance.weights))


def dual_key_str(key) -> str:
    """A dual key as text, "v:<vertex>" or "U:{<sorted members>}", each
    member's backslashes doubled and commas preceded by a backslash, so no
    two keys share a text."""
    return "v:%s" % key[1] if key[0] == "v" else "U:{%s}" % ",".join(
        v.replace("\\", "\\\\").replace(",", "\\,") for v in sorted(key[1]))


def solve_primal_cutting_plane(instance: Instance) -> CuttingPlaneResult:
    """Row generation over the degree + bicut + box system, proved optimal.

    The final x violates no bicut, so it is a vertex of the full boxed LP,
    which the integrality theorem makes 0/1: there is no branch and bound.
    It must be 0/1 (``zero_one_vertex``) and a b-bibranching, and its row
    duals y, zero on bicuts never generated, nonnegative with
    ``dual_bound`` equal to the LP value (``certificate["dual_bound"]``);
    else ``TheoremViolation`` carries the LP, x, y and failed conditions.
    The boxed LP is integral, so it is infeasible, and ``InfeasibleInstance``
    raised, exactly when no b-bibranching exists.
    """
    lp, result, cut_rows, rounds, duals = _cutting_plane(instance, boxed=True)
    x = zero_one_vertex(lp, result)
    arcs = frozenset(a for a, val in enumerate(x) if val)
    report = bibranching_report(instance, arcs)
    failed = {c: entry for c, entry in report.items() if not entry["ok"]}
    bound = dual_bound(instance, duals)
    if failed or bound != result.objective or min(duals.values()) < 0:
        raise TheoremViolation(
            "cutting-plane vertex is not a b-bibranching" if failed else
            "dual bound %s does not certify the LP optimum %s"
            % (rat_str(bound), rat_str(result.objective)),
            payload={"lp": dump_lp(lp), "x": x, "failed": failed,
                     "y": {dual_key_str(key): rat_str(v) for key, v in duals.items()}})
    solution = Solution(arcs, result.objective, dict(report, dual_bound=bound))
    return CuttingPlaneResult(solution, result.x, result.objective, cut_rows,
                              rounds, row_duals=duals)


# ---------------------------------------------------------------------------
# Integer decomposition
# ---------------------------------------------------------------------------

def integer_decomposition_check(instance: Instance, k: int, x) -> list[frozenset[int]]:
    """``decompose`` behind input checks: k must be an int, at least 1; x, a
    list or a dict by arc index, must hold one entry per arc, integral in
    [0, k], and meet every degree and bicut row scaled by k, else
    ``InputError`` names the first failing entry or row."""
    if type(k) is not int or k < 1:
        raise InputError("k must be an integer at least 1")
    x = instance.digraph.per_arc(x, "x")
    for a, val in enumerate(x):
        if type(val) is not int or val < 0 or val > k:
            raise InputError("x(%d) must be an integer in [0, k]" % a)
    for view, name in ((instance, "indegree"), (instance.mirror, "outdegree")):
        for v in sorted(view.T):
            if sum(x[a] for a in view.digraph.in_arcs(v)) < k * view.b[v]:
                raise InputError("scaled %s row fails at %s" % (name, v))
    short = _violated_bicuts(instance, x, k)
    if short:
        raise InputError("scaled bicut row fails at U = %s" % sorted(short[0][0]))
    return decompose(instance, k, x)


def decompose(instance: Instance, k: int, x: list[int]) -> list[frozenset[int]]:
    """Write an int point x of the k-dilated polytope, k >= 1, as a sum of k
    b-bibranching indicators, peeling one class per exact LP.

    The caller proves that x is one: ``integer_decomposition_check`` by its
    input checks, ``pack`` for x = chi_A by the packing number.  The rows R
    are the T indegree rows, the S outdegree rows (the mirror's indegree
    rows) and the bicuts, with need(R) = b(v), b(u) or 1.  With j classes
    left, the class is a vertex of max(0, x(a) - (j-1)) <= y(a) <= min(1,
    x(a)) and need(R) <= y(R) <= x(R) - (j-1) need(R), so x - y stays in
    the (j-1)-dilated polytope (Baum and Trotter, SIAM J. Alg. Disc. Meth.
    1981).  Bicut rows are separated (the lower ones by
    ``_solve_with_cuts``); the last vertex meets every row, so it is a
    vertex of the full system.  At j = 1 the bounds fix y = x, so the
    residual is the last class without an LP.  A stage minimizes sum_a 2^a
    y(a), under which distinct 0/1 points cost differently: its class is
    the stage's one least 0/1 point, whatever the pivot path.

    That each stage vertex is integral is measured, not proved.  For x =
    chi_A the packing theorem puts an integral point in every stage (one
    of j disjoint b-bibranchings in the residual), but the stage system,
    with upper rows on bicuts, is not shown to be integral.  No
    fractional or non-optimal stage vertex has been seen, on x = chi_A or
    on sums of k random b-bibranchings; one raises ``TheoremViolation``
    (exit 5) with the LP.  So does a result that is not k b-bibranchings,
    returned in peel order, with each arc a in exactly x(a) of them.
    """
    arcs = range(len(x))
    rows = [(view.digraph.in_arcs(v), view.b[v])
            for view in (instance, instance.mirror) for v in sorted(view.T)]
    residual, result = list(x), []
    for j in range(k, 1, -1):
        lp = RationalLP(len(x), [1 << a for a in arcs], "min")
        lp.lower = [max(0, r - (j - 1)) for r in residual]
        lp.upper = [min(1, r) for r in residual]
        for R, need in rows:
            coeffs = dict.fromkeys(R, 1)
            lp.rows += [(coeffs, ">=", need),
                        (coeffs, "<=", sum(residual[a] for a in R) - (j - 1) * need)]
        while (y := _solve_with_cuts(instance, lp, [])[0]).status == "optimal":
            rest = [r - v for r, v in zip(residual, y.x)]
            new = _violated_bicuts(instance, rest, j - 1)
            if not new:
                break
            for U, cut in new:
                if sum(rest[a] for a in cut) >= j - 1:
                    raise TheoremViolation("separated bicut is not violated",
                                           payload={"U": U, "x": _text(y.x)})
                lp.rows.append((dict.fromkeys(cut, 1), "<=",
                                sum(residual[a] for a in cut) - (j - 1)))
        point = zero_one_vertex(lp, y)
        result.append(frozenset(a for a in arcs if point[a]))
        residual = [r - p for r, p in zip(residual, point)]
    result.append(frozenset(a for a in arcs if residual[a]))

    if [sum(1 for cls in result if a in cls) for a in arcs] != x:
        raise TheoremViolation("decomposition does not sum to x",
                               payload={"x": x, "classes": result})
    for j, cls in enumerate(result):
        failed = {c: entry for c, entry in bibranching_report(instance, cls).items()
                  if not entry["ok"]}
        if failed:
            raise TheoremViolation("decomposition class is not a b-bibranching",
                                   payload={"x": x, "classes": result,
                                            "class": j, "failed": failed})
    return result


# ---------------------------------------------------------------------------
# TDI spot check
# ---------------------------------------------------------------------------

def dual_feasible(instance: Instance, y: dict) -> bool:
    """Check y >= 0 and every arc-class dual constraint exactly."""
    return min(y.values(), default=0) >= 0 and all(
        total <= w for total, w in zip(_loads(instance, y), instance.weights))


def _uncross(instance: Instance, y: dict) -> tuple[dict, int]:
    """Make the bicut support of y cross-free; returns (new y, steps).

    While two support sets U, W cross (they meet, neither holds the other,
    and U | W != V; a set inside T and one holding T never cross), move
    eps = min(y_U, y_W) onto the bicuts U & W and U | W.  In-degree is
    submodular, so no arc's dual constraint grows, and the objective stays.
    Values stay multiples of 1/D, D the lcm of y's denominators, and each
    step lowers sum y_U |U| |V - U| by 2 eps |U - W| |W - U| >= 2/D.
    """
    y, steps, n = dict(y), 0, len(instance.digraph.vertices)
    while True:
        support = [key[1] for key, val in y.items() if key[0] == "U" and val]
        pair = next(((U, W) for U, W in combinations(support, 2)
                     if U & W and not U <= W and not W <= U and len(U | W) < n),
                    None)
        if pair is None:
            return y, steps
        eps = min(y[("U", X)] for X in pair)
        for X in pair:
            y[("U", X)] -= eps
        for X in (pair[0] & pair[1], pair[0] | pair[1]):
            y[("U", X)] = y.get(("U", X), 0) + eps
        steps += 1


def tdi_spot_check(instance: Instance) -> dict:
    """Prove an integral optimal dual of the unboxed degree + bicut LP.

    The cutting plane's final x must be integral and violate no bicut;
    for an integral x >= 0 that is the two reachability conditions of
    ``bibranching_report`` on its support, and a failure raises
    ``TheoremViolation`` with the LP and x.  Then its row duals y,
    zero on every bicut never generated, are optimal over all bicuts once
    they are dual feasible with objective equal to the LP value (weak
    duality); an integral such y is the certificate.  A fractional y is
    uncrossed, and the covering LP re-solved over the degree rows and one
    >= 1 row per bicut of the cross-free support: its row duals are a
    vertex of the dual over a network matrix, so integral, and a
    fractional or non-optimal one raises ``TheoremViolation`` with that
    LP and y.
    Without the box x(a) may exceed 1, so an instance with no b-bibranching
    can pass; ``InfeasibleInstance`` is raised only when the unboxed LP
    itself is infeasible.
    """
    for w in instance.weights:
        if not is_integral(w):
            raise InputError("TDI spot check requires integer weights")
    lp, result, cut_rows, _, duals = _cutting_plane(instance, boxed=False)
    report = bibranching_report(instance, [a for a, val in enumerate(result.x) if val])
    if not (all(map(is_integral, result.x)) and report["t_reachable_from_s"]["ok"]
            and report["s_reaches_t"]["ok"]):
        raise TheoremViolation("unboxed cutting-plane vertex is fractional or "
                               "violates a bicut",
                               payload={"lp": dump_lp(lp), "x": _text(result.x)})
    primal = result.objective

    def certifies(y: dict) -> bool:
        return all(is_integral(v) for v in y.values()) \
            and dual_feasible(instance, y) \
            and dual_bound(instance, y) == primal

    y = {key: val for key, val in duals.items() if val}
    steps = 0
    if not certifies(y):
        y, steps = _uncross(instance, y)
        family = list(duals)[:len(instance.digraph.vertices)]  # the singletons
        cover = _build_degree_lp(instance, boxed=False)
        for key, val in y.items():
            if key[0] == "U" and val:
                family.append(key)
                cover.rows.append((dict.fromkeys(_dual_coverage(instance, key), 1), ">=", 1))
        res = simplex_solve(cover)
        y = dict(zip(family, res.row_duals or ()))
        if res.status != "optimal" or not certifies(y):
            raise TheoremViolation("cross-free dual LP has no integral optimum",
                                   payload={"lp": dump_lp(cover), "y": {
                                       dual_key_str(key): rat_str(v) for key, v in y.items()}})
        y = {key: val for key, val in y.items() if val}
    return {"primal": primal, "y": y, "bicut_rows": len(cut_rows),
            "uncrossing_steps": steps}
