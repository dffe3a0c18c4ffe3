"""Exact rational LP machinery.

A two-phase simplex with Bland's rule, exact throughout, on one tableau
of exact entries that carries its reduced-cost rows through the pivots.
Finite upper bounds are held implicitly, each boxed column
complemented while its variable sits at the bound, and Bland's rule runs
over the column indices of the formulation with one explicit row per
bound, so the pivot path, and every result, is that formulation's.  LP
data and results follow the package's number rule: every coefficient,
bound, vertex entry, dual and objective is an int when integral and a
Fraction only otherwise; exit-5 payloads write simplex values (x, y) as
'p' or 'p/q' text either way.  Bicut separation runs by graph searches
at an int point x >= 0 with need 1 and by max-flow otherwise; it names
each bicut delta^-(U) by U, and of its steps only ``_violated_bicuts``
reads the arcs.  On it rest the primal cutting plane for the shortest
b-bibranching LP, proved optimal by its own row duals, integer
decomposition by LP peeling on separated bicut rows, and the
total-dual-integrality check, which proves an integral optimal dual from
those duals (uncrossed and re-solved over a cross-free family when
fractional) and returns it as a plain map from row keys to values.  Both
dual checks read each row's arcs from the instance, through one load
routine.
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
    """min/max c.x subject to rows (coeffs, rel, rhs) and per-variable bounds."""

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
    status: str                      # optimal | infeasible | unbounded
    x: Optional[list] = None
    objective: Optional[object] = None
    row_duals: Optional[list] = None   # one per original row
    bound_duals: Optional[list] = None  # one per variable; None if unbounded above or redundant


_FLIPPED = {"<=": ">=", ">=": "<=", "=": "="}  # the relation of a negated row


def simplex_solve(lp: RationalLP) -> SimplexResult:
    """Two-phase simplex with Bland's rule; exact throughout.

    The result is that of Bland's rule on the explicit formulation.  Its
    rows are the LP rows with the lower bounds shifted out, then one box row
    x_j + s_j = u_j - l_j per finite upper bound, in ``bounded`` order, each
    row negated where its right-hand side is negative.  Its columns are the
    variables, one slack (+1) or surplus (-1) per LP inequality row, the box
    slacks s_j, then one artificial per >= or = row, each in row order.  The
    column of least index with a negative reduced cost enters; the basic
    variable of least ratio leaves, ties to the least column index.

    The tableau holds the box rows implicitly (Dantzig's upper-bounding
    technique).  A box row has nonzeros only at x_j and s_j, so one of the
    two is basic in every explicit basis.  The tableau drops the row and
    s_j's column: column j stands for x_j or, complemented, for s_j =
    u_j - l_j - x_j (entries negated, the width times them taken off each
    right-hand side), and a column basic in the tableau has both of its pair
    basic.  Each column keeps its explicit index (a complemented one that of
    s_j), and the ratio test reads the dropped rows off the kept ones, with
    three kinds of candidate:

    - a basic variable falls to 0 (tie index its own);
    - a basic boxed column reaches its bound, so its eliminated partner
      falls to 0: the row is complemented, then pivoted (tie index the
      partner's);
    - the entering column reaches its own bound: it is complemented, with
      no pivot (tie index the partner's).

    So every step makes the explicit basis change, and x, the objective and
    the duals are the explicit ones.  The explicit row position of each
    basic variable is tracked too: it decides which rows keep an artificial
    after phase 1, and so keep the default dual (0 for a row, None for a
    bound).  An upper bound below its lower bound leaves the explicit
    phase 1 positive: infeasible.

    Every row, the phase-2 and phase-1 reduced-cost rows last, holds exact
    entries: an int, or a Fraction only where the data is fractional or a
    pivot entry is not +-1.  Every pivot and complement updates the
    reduced-cost rows along with the constraints.  A pivot divides its row
    by the pivot entry, unless that is 1, through ``ratio``, then subtracts
    f times the row, over its nonzero entries, from each other row whose
    entry f in the pivot column is nonzero.  The phase-2 cost row alone is
    scaled, by L, the lcm of the objective's denominators, so that rational
    weights leave it int while the pivots are unit; L > 0 moves no sign,
    and the duals are read divided by L.  The ratio test cross-multiplies.  Each result value is
    read off through ``rat`` or ``ratio``: an int when integral, a Fraction
    only otherwise.
    """
    n = lp.num_vars
    flip = 1 if lp.sense == "min" else -1
    shift = {j: v for j, v in enumerate(lp.lower) if v}
    bounded = [j for j, u in enumerate(lp.upper) if u is not None]
    widths = [lp.upper[j] - lp.lower[j] for j in bounded]
    if any(w < 0 for w in widths):
        return SimplexResult(status="infeasible")
    rows = []  # (coeffs, relation, rhs, sign), lower bounds shifted out
    for coeffs, rel, rhs in lp.rows:
        if shift:
            rhs -= sum(c * shift[j] for j, c in coeffs.items() if j in shift)
        if rhs < 0:
            rows.append((coeffs, _FLIPPED[rel], rhs, -1))
        else:
            rows.append((coeffs, rel, rhs, 1))
    m = len(rows)
    slack_col = n
    art_col = art_start = n + sum(row[1] != "=" for row in rows)
    num_cols = art_start + sum(row[1] != "<=" for row in rows)
    boxes = len(bounded)
    width: list[Optional[object]] = [None] * num_cols  # u - l of a boxed column
    # The explicit index of each column's variable and, for a boxed column,
    # of the other variable of its pair (so boxed column j is complemented
    # while explicit[j] != j); the column at each explicit index, or -1 for
    # the eliminated one of a pair.
    explicit = list(range(art_start)) + list(range(art_start + boxes, num_cols + boxes))
    other = [-1] * num_cols
    by_index = list(range(art_start)) + [-1] * boxes + list(range(art_start, num_cols))
    for k, (j, w) in enumerate(zip(bounded, widths)):
        width[j] = w
        other[j] = art_start + k

    tableau: list[list] = []
    basis: list[int] = []
    own: list[int] = []   # row i's slack, surplus or (for =) artificial column
    scale: list[int] = []  # row i's dual is scale[i] times own[i]'s reduced cost
    for coeffs, rel, rhs, sign in rows:
        row = [0] * (num_cols + 1)
        for j, c in coeffs.items():
            row[j] = sign * c
        row[-1] = sign * rhs
        if rel == "=":
            own.append(art_col)
        else:
            own.append(slack_col)
            row[slack_col] = 1 if rel == "<=" else -1
            slack_col += 1
        if rel == "<=":
            basis.append(own[-1])
        else:
            row[art_col] = 1
            basis.append(art_col)
            art_col += 1
        scale.append((1 if rel == ">=" else -1) * sign * flip)
        tableau.append(row)
    cost_den = lcm(*[c.denominator for c in lp.objective])
    tableau.append([flip * c.numerator * (cost_den // c.denominator) for c in lp.objective]
                   + [0] * (num_cols - n + 1))
    # Phase 1 minimizes the sum of the artificials: their cost row minus
    # each artificial row.
    phase1 = [0] * art_start + [1] * (num_cols - art_start) + [0]
    for row, b in zip(tableau, basis):
        if b >= art_start:
            for j in compress(range(num_cols + 1), row):
                phase1[j] -= row[j]
    tableau.append(phase1)

    # The explicit row position of each basic variable, by explicit index.
    place = {explicit[j]: i for i, j in enumerate(basis)}
    place.update(zip(range(art_start, art_start + boxes), range(m, m + boxes)))

    def complement(j: int) -> None:
        """Swap column j's variable for the other of its pair, u - l minus
        it, in every row."""
        w = width[j]
        for row in tableau:
            a = row[j]
            if a:
                row[j] = -a
                row[-1] -= a * w
        explicit[j], other[j] = other[j], explicit[j]
        by_index[explicit[j]], by_index[other[j]] = j, -1

    def pivot(row: int, col: int) -> None:
        src, p = tableau[row], tableau[row][col]
        nonzero = list(compress(range(len(src)), src))
        if p != 1:
            for j in nonzero:
                src[j] = ratio(src[j], p)
        for i, dst in enumerate(tableau):
            f = dst[col]
            if f and i != row:
                for j in nonzero:
                    dst[j] -= f * src[j]
        basis[row] = col

    def optimize(limit: int) -> bool:
        """Bland's rule on the last row over explicit indices < limit;
        False if unbounded."""
        while True:
            cost = tableau[-1]
            for entering in by_index[:limit]:
                if entering >= 0 and cost[entering] < 0:
                    break
            else:
                return True
            # The least ratio num / den so far, its tie index and its row
            # (-1 for the entering column's own bound, -2 for none yet).
            best_row = -2
            if width[entering] is not None:
                best_num, best_den = width[entering], 1
                best_tie, best_row = other[entering], -1
            for i, (row, b) in enumerate(zip(tableau, basis)):
                coef = row[entering]
                if not coef:
                    continue
                if coef > 0:
                    num, den, tie = row[-1], coef, explicit[b]
                elif width[b] is None:
                    continue
                else:
                    num, den, tie = width[b] - row[-1], -coef, other[b]
                if best_row > -2:
                    # num / den against the best ratio, cross-multiplied
                    left, right = num * best_den, best_num * den
                    if left > right or (left == right and tie > best_tie):
                        continue
                best_num, best_den, best_tie, best_row = num, den, tie, i
            if best_row == -2:
                return False
            place[explicit[entering]] = place.pop(best_tie)
            if best_row < 0:
                complement(entering)
                continue
            if best_tie != explicit[basis[best_row]]:
                complement(basis[best_row])
            pivot(best_row, entering)

    optimize(num_cols + boxes)
    if tableau.pop()[-1] < 0:  # minus the least sum of the artificials
        return SimplexResult(status="infeasible")
    # Pivot lingering artificials out of the (degenerate) basis, in explicit
    # row order.  A row with no other nonzero is redundant: it keeps its
    # artificial, no later pivot touches it, and its dual keeps the default.
    for _, k in sorted((i, k) for k, i in place.items() if k >= art_start + boxes):
        i = basis.index(k - boxes)
        col = next((j for j in by_index[:art_start + boxes] if j >= 0 and tableau[i][j]), -1)
        if col >= 0:
            place[explicit[col]] = place.pop(k)
            pivot(i, col)
    if not optimize(art_start + boxes):
        return SimplexResult(status="unbounded")

    x = list(lp.lower)
    for i, j in enumerate(basis):
        if j < n:
            value = tableau[i][-1]
            x[j] = rat(lp.upper[j] - value if explicit[j] != j else x[j] + value)
    for j in set(bounded).difference(basis):
        if explicit[j] != j:
            x[j] = lp.upper[j]
    # A row, or box row, whose basic variable is no artificial reads its
    # dual off the reduced costs; the others keep the default.
    row_duals = [0] * m
    bound_duals: list[Optional[object]] = [None] * n
    cost = tableau[-1]
    for k, i in place.items():
        if k >= art_start + boxes:
            continue
        if i < m:
            row_duals[i] = ratio(cost[own[i]] * scale[i], cost_den)
        else:
            j = bounded[i - m]
            bound_duals[j] = ratio(-flip * cost[j], cost_den) if explicit[j] != j else 0
    objective = rat(sum(c * v for c, v in zip(lp.objective, x)))
    return SimplexResult(status="optimal", x=x, objective=objective,
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
            U = frozenset(v for v in D.vertices if v not in side)
            results.append((ratio(value, L), U))
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
    support = [a for a, v in enumerate(x) if v]
    out = []
    reached = D.reachable_from(support, instance.S)
    if not instance.T <= reached:
        out.append(frozenset(v for v in D.vertices if v not in reached))
    reaching = D.reachable_from(support, instance.T, reverse=True)
    for s in sorted(instance.S - reaching):
        reached = D.reachable_from(support, (s,))
        out.append(frozenset(v for v in D.vertices if v not in reached))
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
        for a in range(m):
            lp.set_bounds(a, 0, 1)
    for view in (instance, instance.mirror):
        for v in sorted(view.T):
            lp.add_row({a: 1 for a in view.digraph.in_arcs(v)}, ">=", view.b[v])
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
            lp.add_row({a: 1 for a in cut}, ">=", 1)


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
    residual is the last class without an LP.

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
        lp = RationalLP(len(x), [1] * len(x), "min")
        for a in arcs:
            lp.set_bounds(a, max(0, residual[a] - (j - 1)), min(1, residual[a]))
        for R, need in rows:
            coeffs = {a: 1 for a in R}
            lp.add_row(coeffs, ">=", need)
            lp.add_row(coeffs, "<=", sum(residual[a] for a in R) - (j - 1) * need)
        while (y := _solve_with_cuts(instance, lp, [])[0]).status == "optimal":
            rest = [r - v for r, v in zip(residual, y.x)]
            new = _violated_bicuts(instance, rest, j - 1)
            if not new:
                break
            for U, cut in new:
                if sum(rest[a] for a in cut) >= j - 1:
                    raise TheoremViolation("separated bicut is not violated",
                                           payload={"U": U, "x": _text(y.x)})
                lp.add_row({a: 1 for a in cut}, "<=",
                           sum(residual[a] for a in cut) - (j - 1))
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

def _build_dual_lp(instance: Instance, family):
    lp = RationalLP(len(family),
                    [instance.b[key[1]] if key[0] == "v" else 1 for key in family],
                    "max")
    per_arc: dict[int, dict[int, object]] = {a: {} for a in range(instance.digraph.num_arcs())}
    for idx, key in enumerate(family):
        for a in _dual_coverage(instance, key):
            per_arc[a][idx] = 1
    for a in sorted(per_arc):
        lp.add_row(per_arc[a], "<=", instance.weights[a])
    return lp


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
    uncrossed, and the dual re-solved over the singletons and the
    cross-free support, whose matrix is a network matrix: a fractional or
    non-optimal vertex there raises ``TheoremViolation`` with LP and x.
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
        family += [key for key, val in y.items() if key[0] == "U" and val]
        dual_lp = _build_dual_lp(instance, family)
        res = simplex_solve(dual_lp)
        y = {key: val for key, val in zip(family, res.x or ()) if val}
        if res.status != "optimal" or not certifies(y):
            raise TheoremViolation("cross-free dual LP has no integral optimum",
                                   payload={"lp": dump_lp(dual_lp),
                                            "x": None if res.x is None else _text(res.x)})
    return {"primal": primal, "y": y, "bicut_rows": len(cut_rows),
            "uncrossing_steps": steps}
