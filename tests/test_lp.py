"""Exact LP machinery: simplex, separation, cutting planes, integral duals."""

import collections
import copy
import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bbibranch import lpsolve
from bbibranch.bibranching import (Instance, brute_force_shortest,
                                   feasibility_witness, solve_shortest)
from bbibranch.digraph import Digraph, FlowNetwork, max_flow_min_cut
from bbibranch.errors import InfeasibleInstance, InputError, TheoremViolation
from bbibranch.lpsolve import (RationalLP, SimplexResult, dual_bound,
                               dual_key_str, dump_lp, dual_feasible,
                               min_bicut_candidates, simplex_solve,
                               solve_primal_cutting_plane, tdi_spot_check,
                               zero_one_vertex)
from bbibranch.rationals import Q, is_integral

from conftest import (_dual_family, all_bicuts, bicut_draws, covering_lp,
                      digest_draws, duality_failure, one_arc_instance,
                      permute_rows, random_boxed_lp, random_instance,
                      random_lp, uncrossing_instance)


class TestSimplex:
    def test_small_min(self):
        # min x0 + 2 x1 s.t. x0 + x1 >= 3, x1 <= 5 -> x = (3, 0)
        lp = RationalLP(2, [1, 2])
        lp.add_row({0: 1, 1: 1}, 3, None)
        lp.set_bounds(1, 0, 5)
        res = simplex_solve(lp)
        assert res.status == "optimal"
        assert res.objective == 3
        assert res.x == [Q(3), Q(0)]

    def test_small_max_with_duals(self):
        # max 3x0 + 5x1, posed as min -3x0 - 5x1, s.t. x0 <= 4, 2x1 <= 12,
        # 3x0 + 2x1 <= 18, in the box [0, 10]^2, which binds nowhere but
        # gives the dual-feasible start.
        lp = RationalLP(2, [-3, -5])
        lp.add_row({0: 1}, None, 4)
        lp.add_row({1: 2}, None, 12)
        lp.add_row({0: 3, 1: 2}, None, 18)
        for j in range(2):
            lp.set_bounds(j, 0, 10)
        res = simplex_solve(lp)
        assert res.objective == -36
        assert res.x == [Q(2), Q(6)]
        # Dual: y = (0, -3/2, -1), each at its row's hi; complementary
        # slackness fixes it uniquely.
        assert res.row_duals == [Q(0), Q(-3, 2), Q(-1)]
        assert res.bound_duals == [0, 0]

    def test_equality_rows(self):
        lp = RationalLP(2, [1, 1])
        lp.add_row({0: 1, 1: 1}, 2, 2)
        lp.add_row({0: 1, 1: -1}, 0, 0)
        res = simplex_solve(lp)
        assert res.status == "optimal"
        assert res.x == [Q(1), Q(1)]

    def test_infeasible(self):
        lp = RationalLP(1, [1])
        lp.add_row({0: 1}, 2, None)
        lp.add_row({0: 1}, None, 1)
        assert simplex_solve(lp).status == "infeasible"

    def test_unbounded(self):
        # A negative cost on a column with no upper bound leaves no
        # dual-feasible start, so an LP that might be unbounded is an input
        # error; every LP a command poses has such a start.  Here max x0,
        # posed as min -x0.
        lp = RationalLP(1, [-1])
        lp.add_row({0: 1}, 0, None)
        with pytest.raises(InputError, match="^LP has no dual-feasible start"):
            simplex_solve(lp)
        lp.set_bounds(0, 0, 7)
        assert simplex_solve(lp).objective == -7

    def test_rational_pivots_are_exact(self):
        lp = RationalLP(2, [Q(1, 3), Q(1, 7)])
        lp.add_row({0: Q(2, 5), 1: Q(3, 11)}, Q(1, 2), None)
        res = simplex_solve(lp)
        assert res.status == "optimal"
        assert res.objective == Q(1, 2) / Q(3, 11) * Q(1, 7)

    def test_duals_match_strong_duality_randomly(self):
        rng = random.Random(30)
        for _ in range(25):
            n = rng.randint(1, 3)
            lp = RationalLP(n, [rng.randint(0, 5) for _ in range(n)])
            for _ in range(rng.randint(1, 3)):
                coeffs = {j: rng.randint(1, 4) for j in range(n)
                          if rng.random() < 0.8}
                if coeffs:
                    lp.add_row(coeffs, rng.randint(0, 6), None)
            for j in range(n):
                lp.set_bounds(j, 0, rng.randint(3, 9))
            res = simplex_solve(lp)
            if res.status != "optimal":
                continue
            dual_obj = sum((res.row_duals[i] * lp.rows[i][1]
                            for i in range(len(lp.rows))), Q(0))
            dual_obj += sum((res.bound_duals[j] * lp.upper[j]
                             for j in range(n) if res.bound_duals[j] is not None),
                            Q(0))
            assert dual_obj == res.objective
            # Sign conventions: rows at lo give y >= 0, upper bounds y <= 0.
            assert all(y >= 0 for y in res.row_duals)
            assert all(y is None or y <= 0 for y in res.bound_duals)

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 9),
           q=st.integers(1, 9), data=st.data())
    def test_scaling_a_row_scales_only_its_dual(self, seed, p, q, data):
        lp, _ = random_lp(random.Random(seed))
        assume(lp.rows)
        i = data.draw(st.integers(0, len(lp.rows) - 1), label="row")
        factor = Q(p, q)
        scaled = RationalLP(lp.num_vars, lp.objective)
        scaled.lower, scaled.upper = list(lp.lower), list(lp.upper)
        for k, (coeffs, lo, hi) in enumerate(lp.rows):
            if k == i:
                coeffs = {j: c * factor for j, c in coeffs.items()}
                lo, hi = (None if v is None else v * factor for v in (lo, hi))
            scaled.add_row(coeffs, lo, hi)
        try:
            base = simplex_solve(lp)
        except InputError:
            # The costs and bounds decide the start, and scaling keeps them.
            with pytest.raises(InputError):
                simplex_solve(scaled)
            return
        result = simplex_solve(scaled)
        assert (result.status, result.objective) == (base.status, base.objective)
        # Scaling row i by f > 0 scales its activity's row (or column) of the
        # tableau and leaves every sign, bound violation and ratio |d / a|
        # where it was, so the dual simplex takes the same pivots.
        if base.status == "optimal":
            assert result.x == base.x
            assert result.bound_duals == base.bound_duals
            assert result.row_duals[i] == base.row_duals[i] / factor
            del result.row_duals[i], base.row_duals[i]
            assert result.row_duals == base.row_duals

    def test_dump_is_deterministic_text(self):
        # Exit-5 payloads carry this text.  Each row prints as a column
        # does, lo <= body <= hi, an infinite bound as -inf or inf: a
        # one-sided row, a ranged row, a fixed row and a row with no entry.
        lp = RationalLP(2, [1, Q(1, 2)])
        lp.add_row({0: 1, 1: 2}, 1, None)
        lp.add_row({1: -1, 0: Q(2, 3)}, Q(-1, 2), 3)
        lp.add_row({0: 1}, 2, 2)
        lp.add_row({}, None, 0)
        lp.set_bounds(1, -1, Q(5, 2))
        assert dump_lp(lp) == "\n".join([
            "min: 1 x0 + 1/2 x1",
            "subject to:",
            "  1 <= 1 x0 + 2 x1 <= inf",
            "  -1/2 <= 2/3 x0 + -1 x1 <= 3",
            "  2 <= 1 x0 <= 2",
            "  -inf <= 0 <= 0",
            "bounds:",
            "  0 <= x0 <= inf",
            "  -1 <= x1 <= 5/2"])
        assert dump_lp(RationalLP(0, [])) == "min: 0\nsubject to:\nbounds:"

    def test_set_bounds_rejects_unknown_variable(self):
        lp = RationalLP(2, [1, 1])
        for j in (-1, 2):
            with pytest.raises(InputError, match="unknown variable %d" % j):
                lp.set_bounds(j, 0, 1)
        assert (lp.lower, lp.upper) == ([0, 0], [None, None])

    @pytest.mark.parametrize("build, message", [
        (lambda lp: RationalLP(2, [1]), "one entry per variable"),
        (lambda lp: RationalLP(1, [1, 2, 3]), "one entry per variable"),
        (lambda lp: lp.add_row({99: 0}, None, 1), "unknown variable 99"),
        (lambda lp: lp.add_row({True: 1}, None, 1), "unknown variable True"),
        (lambda lp: lp.add_row({"a": 1}, None, 1), "unknown variable 'a'"),
        (lambda lp: lp.set_bounds(True, 0, 1), "unknown variable True"),
        (lambda lp: lp.set_bounds("a", 0, 1), "unknown variable 'a'")],
        ids=["short objective", "long objective", "zero entry out of range",
             "bool row index", "str row index", "bool bound index",
             "str bound index"])
    def test_bad_variable_index_is_an_input_error(self, build, message):
        # Every index is checked, zero coefficients included, and the
        # objective has one entry per variable.
        lp = RationalLP(2, [1, 1])
        with pytest.raises(InputError, match=message):
            build(lp)
        assert lp.rows == []
        assert (lp.lower, lp.upper) == ([0, 0], [None, None])

    @pytest.mark.parametrize("bad, message", [
        (0.5, "not a rational"), (1.0, "not a rational"),
        (True, "not a rational"), (False, "not a rational"),
        ("1/0", "zero denominator")])
    def test_malformed_number_is_an_input_error(self, bad, message):
        # Every number goes through rat, so an objective entry, a
        # coefficient, a row bound and a column bound fail alike.
        with pytest.raises(InputError, match=message):
            RationalLP(2, [1, bad])
        lp = RationalLP(2, [1, 1])
        with pytest.raises(InputError, match=message):
            lp.add_row({0: 1, 1: bad}, None, 1)
        with pytest.raises(InputError, match=message):
            lp.add_row({0: 1}, bad, None)
        with pytest.raises(InputError, match=message):
            lp.add_row({0: 1}, 0, bad)
        with pytest.raises(InputError, match=message):
            lp.set_bounds(1, bad, None)
        with pytest.raises(InputError, match=message):
            lp.set_bounds(1, 0, bad)
        assert lp.rows == []
        assert (lp.lower, lp.upper) == ([0, 0], [None, None])


def _with_bound_rows(lp: RationalLP, objective) -> RationalLP:
    """The LP under ``objective`` with its upper bounds dropped and one
    trailing x_j <= u_j row per bounded j, in variable order."""
    rows = RationalLP(lp.num_vars, objective)
    for j, lower in enumerate(lp.lower):
        rows.set_bounds(j, lower, None)
    for row in lp.rows:
        rows.add_row(*row)
    for j, upper in enumerate(lp.upper):
        if upper is not None:
            rows.add_row({j: 1}, None, upper)
    return rows


def _assert_solves_like_bound_rows(lp: RationalLP) -> None:
    """An LP with no dual-feasible start is rejected.  Otherwise implicit
    bounds give the status of the explicit box rows solved under a zero
    objective (which every start meets, and which keeps the feasible set),
    the objective of the explicit LP under the LP's own costs wherever
    that has a dual-feasible start, and an optimum that certifies by LP
    duality."""
    try:
        got = simplex_solve(lp)
    except InputError:
        assert any(c < 0 and u is None for c, u in zip(lp.objective, lp.upper))
        return
    assert got.status == simplex_solve(_with_bound_rows(lp, [0] * lp.num_vars)).status
    try:
        want = simplex_solve(_with_bound_rows(lp, lp.objective))
    except InputError:  # no column of the explicit LP has an upper bound
        assert any(c < 0 for c in lp.objective)
    else:
        assert (got.status, got.objective) == (want.status, want.objective)
    if got.status == "optimal":
        assert duality_failure(lp, got) is None


class TestImplicitBounds:
    """``simplex_solve`` holds upper bounds implicitly; it must decide
    feasibility as the explicit box rows do and prove each optimum."""

    @settings(max_examples=1000, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_bounds_solve_like_trailing_rows(self, seed):
        _assert_solves_like_bound_rows(random_boxed_lp(random.Random(seed)))

    def test_redundant_equality_rows(self):
        # Copies and multiples of fixed rows, a row with no entry, and
        # boxed columns whose bounds hold the optimum; first max 3x0 + 2x1,
        # posed as min -3x0 - 2x1.
        lp = RationalLP(2, [-3, -2])
        lp.set_bounds(0, 2, 6)
        lp.set_bounds(1, -1, 3)
        lp.add_row({0: 3, 1: 2}, 24, 24)
        lp.add_row({1: 2}, 6, 6)
        lp.add_row({}, None, 1)
        lp.add_row({1: -3}, -9, -9)
        lp.add_row({0: -2, 1: Q(3, 2)}, Q(-15, 2), Q(-15, 2))
        result = simplex_solve(lp)
        assert (result.x, result.objective) == ([6, 3], -24)
        _assert_solves_like_bound_rows(lp)
        lp = RationalLP(3, [4, 1, 0])
        lp.set_bounds(0, -1, 0)
        lp.set_bounds(1, -1, 0)
        lp.add_row({0: 3, 1: 4}, 0, None)
        lp.add_row({0: -1, 1: -2}, None, 2)
        lp.add_row({0: 2, 1: -1}, 0, 0)
        lp.add_row({0: 2, 1: -1}, 0, 0)
        result = simplex_solve(lp)
        assert (result.x, result.objective) == ([0, 0, 0], 0)
        _assert_solves_like_bound_rows(lp)

    def test_bounds_with_rational_widths(self):
        # min -x0 - 2 x1 with x0 + x1 <= 5/2 on the boxes [1/3, 7/4] and
        # [0, 3/2]: both start at their upper bounds, which breaks the row,
        # and x0 comes down to 1.
        lp = RationalLP(2, [-1, -2])
        lp.set_bounds(0, Q(1, 3), Q(7, 4))
        lp.set_bounds(1, 0, Q(3, 2))
        lp.add_row({0: 1, 1: 1}, None, Q(5, 2))
        result = simplex_solve(lp)
        assert result.x == [1, Q(3, 2)] and result.objective == -4
        _assert_solves_like_bound_rows(lp)

    def test_production_lps_solve_like_trailing_rows(self, monkeypatch):
        # The boxed degree LP, and the first peel stage LP as pack poses it
        # (x = chi_A, k the packing number), of every digest draw.
        from bbibranch.packing import packing_number
        stages = []

        def first_stage(lp):
            if not stages:
                stages.append(copy.deepcopy(lp))
            return simplex_solve(lp)

        monkeypatch.setattr(lpsolve, "simplex_solve", first_stage)
        for instance in digest_draws():
            _assert_solves_like_bound_rows(lpsolve._build_degree_lp(instance))
            k = packing_number(instance).k
            if k >= 2:
                stages.clear()
                lpsolve.decompose(instance, k, [1] * instance.digraph.num_arcs())
                _assert_solves_like_bound_rows(stages[0])


def _ranged_lp(rng) -> RationalLP:
    """A small LP whose rows are ranged (lo < hi), fixed (lo = hi), crossed
    (hi < lo) or one-sided, all placed about a random point within the
    column bounds or, in some LPs, about random values; a negative cost
    only on a boxed column."""
    n = rng.randint(2, 5)
    lp = RationalLP(n, [rng.randint(-4, 4) for _ in range(n)])
    point = []
    for j in range(n):
        lower = rng.choice((0, 0, -1, 1))
        width = rng.randint(1, 4) if rng.random() < 0.8 or lp.objective[j] < 0 else None
        lp.set_bounds(j, lower, None if width is None else lower + width)
        point.append(lower + rng.randint(0, 3 if width is None else width))
    free = rng.random() < 0.3
    for _ in range(rng.randint(1, 5)):
        coeffs = {j: rng.choice((1, 1, -1, 2, Q(1, 2))) for j in range(n)
                  if rng.random() < 0.7}
        at = rng.randint(-3, 6) if free else sum(
            (c * point[j] for j, c in coeffs.items()), 0)
        lo, hi = at - rng.randint(0, 2), at + rng.randint(0, 2)
        kind = rng.random()
        if kind < 0.15:
            lo = hi = at
        elif kind < 0.25:
            lo = None
        elif kind < 0.35:
            hi = None
        elif kind < 0.42:
            lo = hi + Q(rng.randint(1, 3), 2)
        lp.add_row(coeffs, lo, hi)
    return lp


def _halves(lp: RationalLP) -> RationalLP:
    """The LP with each row of two finite bounds split into its lo half and
    then its hi half."""
    halves = RationalLP(lp.num_vars, lp.objective)
    halves.lower, halves.upper = list(lp.lower), list(lp.upper)
    for coeffs, lo, hi in lp.rows:
        if lo is None or hi is None:
            halves.add_row(coeffs, lo, hi)
        else:
            halves.add_row(coeffs, lo, None)
            halves.add_row(coeffs, None, hi)
    return halves


class TestRangedRows:
    def test_ranged_rows_solve_like_their_halves(self):
        # Each LP gives the status and objective of its copy with every
        # two-sided row split in two one-sided rows, each optimum
        # certifies by LP duality, and a crossed row makes it infeasible.
        rng = random.Random(54)
        statuses, duals = collections.Counter(), set()
        for _ in range(200):
            lp = _ranged_lp(rng)
            got, want = simplex_solve(lp), simplex_solve(_halves(lp))
            assert (got.status, got.objective) == (want.status, want.objective)
            if any(lo is not None and hi is not None and hi < lo
                   for _, lo, hi in lp.rows):
                assert got.status == "infeasible"
                statuses["crossed"] += 1
            else:
                statuses[got.status] += 1
            if got.status == "optimal":
                assert duality_failure(lp, got) is None
                duals |= {(lo is not None and hi is not None and lo < hi, y > 0)
                          for y, (_, lo, hi) in zip(got.row_duals, lp.rows) if y}
        # Ranged rows active at lo and at hi, every status and crossed rows.
        assert min(statuses.values()) >= 20 and len(statuses) == 3
        assert {(True, False), (True, True)} <= duals


class TestBicuts:
    def test_one_arc_instance_families(self):
        inst = one_arc_instance()
        cuts = all_bicuts(inst)
        assert len(cuts) == 1  # only U = {t}; the S-side family is empty here
        assert cuts[0] == (frozenset({"t"}), frozenset({0}))

    def test_enumeration_matches_definition(self):
        rng = random.Random(31)
        for _ in range(10):
            inst = random_instance(rng, rng.randint(1, 3), rng.randint(1, 3),
                                   0.5, 1, 5, max_arcs=12)
            D = inst.digraph
            expected = set()
            for r in range(1, len(inst.T) + 1):
                for combo in itertools.combinations(sorted(inst.T), r):
                    expected.add(frozenset(combo))
            for r in range(1, len(inst.S)):
                for combo in itertools.combinations(sorted(inst.S), r):
                    expected.add(inst.T | (inst.S - frozenset(combo)))
            got = {U for U, _ in all_bicuts(inst)}
            assert got == expected
            for U, cut in all_bicuts(inst):
                assert cut == D.in_cut(U)


class TestSeparation:
    def test_finds_most_violated_cut(self):
        inst = one_arc_instance()
        assert min_bicut_candidates(inst, [Q(0)])[0] == (0, all_bicuts(inst)[0][0])
        assert min(value for value, _ in min_bicut_candidates(inst, [Q(1)])) == 1

    def test_rejects_negative_point(self):
        with pytest.raises(InputError):
            min_bicut_candidates(one_arc_instance(), [Q(-1)])

    def test_rejects_a_point_of_the_wrong_length(self):
        # x is read as one entry per arc, so a short or long x is an input
        # error, not a truncated point.
        rng = random.Random(33)
        inst = random_instance(rng, 2, 2, 0.6, 1, 5, max_arcs=10)
        m = inst.digraph.num_arcs()
        for size in (m - 1, m + 1):
            with pytest.raises(InputError,
                               match=r"^x must have exactly one entry per arc \(%d\)$" % m):
                min_bicut_candidates(inst, [Q(1, 2)] * size)

    def test_matches_enumeration(self):
        rng = random.Random(32)
        for _ in range(15):
            inst = random_instance(rng, rng.randint(1, 2), rng.randint(1, 3),
                                   0.5, 1, 5, max_arcs=10)
            m = inst.digraph.num_arcs()
            x = [Q(rng.randint(0, 4), 4) for _ in range(m)]
            candidates = min_bicut_candidates(inst, x)
            for value, U in candidates:
                assert value == sum(x[a] for a in inst.digraph.in_cut(U))
            assert min(value for value, _ in candidates) == min(
                sum(x[a] for a in cut) for _, cut in all_bicuts(inst))

    def test_each_candidate_is_the_largest_minimizer_of_its_family(self):
        # Candidate i is the flow to the i-th t of sorted T, then the flow
        # from each s of sorted S.  Its value is the least x(delta^-(U))
        # over the U within V - S that hold t, or over the U that hold T
        # and miss s, and its U the union of every such least U (the
        # minimal min cut's sink side), whatever network the flows run on.
        # With ``below``, the candidates of value below it stay, unchanged.
        rng = random.Random(38)
        for _ in range(60):
            inst = random_instance(rng, rng.randint(1, 3), rng.randint(1, 3),
                                   0.5, 2, 5, max_arcs=12, extra_cross=rng.randint(0, 3))
            D, S, T = inst.digraph, inst.S, inst.T
            x = [Q(rng.randint(0, 6), rng.choice((1, 2, 3)))
                 for _ in range(D.num_arcs())]
            families = [[frozenset((t, *rest)) for r in range(len(T))
                         for rest in itertools.combinations(sorted(T - {t}), r)]
                        for t in sorted(T)]
            families += [[T.union(rest) for r in range(len(S))
                          for rest in itertools.combinations(sorted(S - {s}), r)]
                         for s in sorted(S)]
            expected = []
            for family in families:
                value = {U: sum(x[a] for a in D.in_cut(U)) for U in family}
                least = min(value.values())
                expected.append((least, frozenset().union(
                    *(U for U in family if value[U] == least))))
            assert min_bicut_candidates(inst, x) == expected
            for below in (1, Q(3, 2), 2):
                assert min_bicut_candidates(inst, x, below) == [
                    (value, U) for value, U in expected if value < below]

    def test_max_flows_run_on_int_capacities(self, monkeypatch):
        # Each call compiles its two networks, one per bicut family and
        # capacities included, through ``lpsolve.FlowNetwork``; every flow
        # runs on such a network.
        compiled, flown = [], []

        def compiling(nodes, arcs):
            compiled.append(FlowNetwork(nodes, arcs))
            return compiled[-1]

        def flow(network, *args):
            flown.append(network)
            return max_flow_min_cut(network, *args)

        monkeypatch.setattr(lpsolve, "FlowNetwork", compiling)
        monkeypatch.setattr(lpsolve, "max_flow_min_cut", flow)
        rng = random.Random(34)
        for _ in range(5):
            inst = random_instance(rng, 2, 2, 0.6, 1, 5, max_arcs=10)
            x = [Q(rng.randint(0, 6), rng.choice((2, 3, 4)))
                 for _ in range(inst.digraph.num_arcs())]
            for value, U in min_bicut_candidates(inst, x):
                assert value == sum(x[a] for a in inst.digraph.in_cut(U))
        assert len(compiled) == 10
        assert flown and all(any(n is c for c in compiled) for n in flown)
        # Every residual slot, the merged source's and sink's arcs included.
        capacities = [c for network in compiled for c in network.cap]
        assert capacities
        assert all(type(c) is int for c in capacities)

    def test_need_keeps_the_unlimited_filter(self):
        # Separating with a need gives the distinct candidates of value
        # below it, in candidate order, as filtering the exact candidates.
        rng = random.Random(35)
        for _ in range(30):
            inst = random_instance(rng, rng.randint(1, 3), rng.randint(1, 3),
                                   0.5, 2, 5, max_arcs=12)
            x = [Q(rng.randint(0, 8), rng.choice((1, 2, 3, 4)))
                 for _ in range(inst.digraph.num_arcs())]
            for need in (1, 2, 3):
                seen, expected = set(), []
                for value, U in min_bicut_candidates(inst, x):
                    cut = inst.digraph.in_cut(U)
                    if value < need and cut not in seen:
                        seen.add(cut)
                        expected.append((U, cut))
                assert lpsolve._violated_bicuts(inst, x, need) == expected

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_int_points_with_need_one_search_instead_of_flowing(self, data):
        # At an int point x >= 0 with need 1, separation gives the distinct
        # max-flow candidates of value below 1, in order, and runs no flow.
        # A fractional point or need 2 runs all |T| + |S| flows, and a
        # negative entry is still the flows' input error.
        rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        inst = random_instance(rng, data.draw(st.integers(1, 3), label="nS"),
                               data.draw(st.integers(1, 3), label="nT"),
                               rng.uniform(0.2, 0.9), 2, 5, max_arcs=12,
                               extra_cross=rng.randint(0, 3))
        x = [rng.randint(0, 2) for _ in range(inst.digraph.num_arcs())]
        seen, expected = set(), []
        for _, U in min_bicut_candidates(inst, x, 1):
            cut = inst.digraph.in_cut(U)
            if cut not in seen:
                seen.add(cut)
                expected.append((U, cut))
        flows = []

        def counted(*args):
            flows.append(args)
            return max_flow_min_cut(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lpsolve, "max_flow_min_cut", counted)
            assert lpsolve._violated_bicuts(inst, x, 1) == expected
            assert flows == []
            lpsolve._violated_bicuts(inst, x, 2)
            assert len(flows) == len(inst.S) + len(inst.T)
            if x:
                lpsolve._violated_bicuts(inst, [Q(1, 2)] + x[1:], 1)
                assert len(flows) == 2 * (len(inst.S) + len(inst.T))
                with pytest.raises(InputError, match="negative capacity"):
                    lpsolve._violated_bicuts(inst, [-1] + x[1:], 1)

    def test_no_cut_is_built_for_a_flow_that_reaches_its_need(self, monkeypatch):
        rng = random.Random(36)
        cases = []
        for _ in range(10):
            inst = random_instance(rng, 2, 2, 0.6, 1, 5, max_arcs=10)
            x = [Q(rng.randint(1, 6), rng.choice((1, 2, 3)))
                 for _ in range(inst.digraph.num_arcs())]
            cases.append((inst, x, min(v for v, _ in min_bicut_candidates(inst, x))))

        def refuse(*args):
            raise AssertionError("in_cut called for a non-violated candidate")

        monkeypatch.setattr(Digraph, "in_cut", refuse)
        for inst, x, need in cases:
            assert lpsolve._violated_bicuts(inst, x, need) == []


class TestCuttingPlane:
    def test_one_arc(self):
        res = solve_primal_cutting_plane(one_arc_instance())
        assert res.solution.weight == 5

    def test_arcs_do_not_depend_on_the_row_order(self):
        # Under the canonical weights the optimum is unique, so solving
        # every cutting-plane LP with its rows permuted gives the same arcs
        # and value, on every feasible digest and bicut draw.
        draws = [inst for inst in itertools.chain(digest_draws(), bicut_draws())
                 if feasibility_witness(inst) is None]
        want = [solve_shortest(inst, "lp") for inst in draws]
        for seed in range(3):
            with pytest.MonkeyPatch.context() as patch:
                permute_rows(patch, seed)
                got = [solve_shortest(inst, "lp") for inst in draws]
            assert [(s.arcs, s.weight) for s in got] == [(s.arcs, s.weight) for s in want]

    def test_infeasible_lp_raises_with_witness(self):
        # One arc s -> t with b(t) = 2: the boxed LP is infeasible, and the
        # exception names the failing condition.
        inst = Instance(Digraph(["s", "t"], [("s", "t")]), {"s": "S", "t": "T"},
                        {"s": 1, "t": 2}, [5])
        with pytest.raises(InfeasibleInstance) as exc:
            solve_primal_cutting_plane(inst)
        assert exc.value.witness == {"condition": "t_indegree", "witness": "t"}

    @pytest.mark.parametrize("boxed", [True, False])
    def test_infeasible_lp_on_feasible_instance_is_a_theorem_violation(
            self, monkeypatch, boxed):
        # Both LPs contain every b-bibranching, so on a feasible instance an
        # infeasible LP is reported with the LP, not as an infeasible instance.
        monkeypatch.setattr(lpsolve, "simplex_solve",
                            lambda lp: SimplexResult("infeasible"))
        inst = one_arc_instance()
        with pytest.raises(TheoremViolation) as exc:
            (solve_primal_cutting_plane if boxed else tdi_spot_check)(inst)
        assert exc.value.payload == {
            "lp": dump_lp(lpsolve._build_degree_lp(inst, boxed))}

    def test_matches_brute_force_and_stays_integral(self):
        rng = random.Random(33)
        solved = 0
        for _ in range(25):
            inst = random_instance(rng, rng.randint(1, 2), rng.randint(1, 3),
                                   0.6, 2, 9, max_arcs=12)
            if feasibility_witness(inst) is not None:
                continue
            res = solve_primal_cutting_plane(inst)
            assert all(is_integral(v) for v in res.x)
            assert res.solution.weight == brute_force_shortest(inst).weight
            solved += 1
        assert solved >= 5

    def test_zero_one_vertex_guard(self):
        lp = RationalLP(2, [1, 1])
        lp.add_row({0: 1, 1: 1}, 1, None)
        lp.set_bounds(0, 0, 1)
        lp.set_bounds(1, 0, 1)
        x = zero_one_vertex(lp, simplex_solve(lp))
        assert x == [1, 0] and all(type(v) is int for v in x)
        half = SimplexResult("optimal", [Q(1, 2), Q(1, 2)], Q(1))
        with pytest.raises(TheoremViolation) as exc:
            zero_one_vertex(lp, half)
        assert exc.value.payload == {"lp": dump_lp(lp), "x": ["1/2", "1/2"]}
        lp.add_row({0: 1, 1: 1}, None, 0)
        with pytest.raises(TheoremViolation) as exc:
            zero_one_vertex(lp, simplex_solve(lp))
        assert exc.value.payload == {"lp": dump_lp(lp)}

    def test_row_duals_are_nonnegative_and_complete(self):
        # The boxed LP's covering rows all bound their activity from below
        # only, so their duals are nonnegative; every degree row and
        # generated cut row gets an entry.
        rng = random.Random(34)
        for _ in range(10):
            inst = random_instance(rng, 1, 2, 0.8, 1, 5, max_arcs=8)
            if feasibility_witness(inst) is not None:
                continue
            res = solve_primal_cutting_plane(inst)
            assert all(val >= 0 for val in res.row_duals.values())
            for v in inst.digraph.vertices:
                assert ("v", v) in res.row_duals
            for U in res.bicut_rows:
                assert ("U", U) in res.row_duals


class TestDualKeyText:
    def test_members_holding_commas_get_two_keys(self):
        # Joined unescaped, both printed as U:{a,b,c}.
        assert dual_key_str(("U", frozenset({"a", "b,c"}))) == "U:{a,b\\,c}"
        assert dual_key_str(("U", frozenset({"a,b", "c"}))) == "U:{a\\,b,c}"

    def test_ids_without_a_comma_or_backslash_print_as_before(self):
        assert dual_key_str(("U", frozenset({"t2", "t1"}))) == "U:{t1,t2}"
        assert dual_key_str(("U", frozenset({"{a}", "b:"}))) == "U:{b:,{a}}"
        assert dual_key_str(("v", "t1")) == "v:t1"

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(ids=st.lists(st.text(alphabet="ab,\\{}:", max_size=3),
                        min_size=1, max_size=3, unique=True))
    def test_text_is_injective(self, ids):
        # Texts collide where one id is two others joined by a comma, so
        # the ids are closed under that join; every key of up to three of
        # them gets its own text.
        ids = sorted(set(ids) | {x + "," + y for x in ids for y in ids})
        keys = [("v", v) for v in ids] + [
            ("U", frozenset(U)) for size in (1, 2, 3)
            for U in itertools.combinations(ids, size)]
        texts = {}
        for key in keys:
            assert texts.setdefault(dual_key_str(key), key) == key


class TestTDI:
    def test_one_arc_integral_dual(self):
        out = tdi_spot_check(one_arc_instance())
        assert out["primal"] == dual_bound(one_arc_instance(), out["y"]) == 5
        # A singleton dual worth 5 certifies the optimum; with a single arc
        # either endpoint's variable may carry it.
        assert sum(out["y"].values(), Q(0)) == 5
        assert set(out["y"]) <= {("v", "s"), ("v", "t")}
        assert dual_feasible(one_arc_instance(), out["y"])

    def test_requires_integer_weights(self):
        with pytest.raises(InputError, match="^TDI spot check requires integer weights$"):
            tdi_spot_check(one_arc_instance(weight=Q(1, 2)))

    def test_integral_dual_found_on_corpus(self):
        rng = random.Random(35)
        found = 0
        for _ in range(30):
            inst = random_instance(rng, rng.randint(1, 2), rng.randint(1, 3),
                                   0.6, 2, 7, max_arcs=10)
            if feasibility_witness(inst) is not None:
                continue
            out = tdi_spot_check(inst)
            assert dual_bound(inst, out["y"]) == out["primal"], out
            assert all(is_integral(v) for v in out["y"].values())
            assert dual_feasible(inst, out["y"])
            found += 1
        assert found >= 5

    def test_fractional_cutting_plane_dual_is_uncrossed(self):
        # The only pool instance whose TDI check uncrosses.  Its numbers are
        # data, recorded before the simplex's unit pivots and the max-flow's
        # pre-push: a change that moves the pivot path off them fails here
        # rather than silently dropping the one real input of ``_uncross``.
        inst = uncrossing_instance()
        lp = lpsolve._build_degree_lp(inst, boxed=False)
        cut_rows = []
        result, _ = lpsolve._solve_with_cuts(inst, lp, cut_rows)
        bicut_duals = dict(zip(cut_rows, result.row_duals[-len(cut_rows):]))
        assert len(cut_rows) == 10
        assert {U: val for U, val in bicut_duals.items() if not is_integral(val)} == {
            frozenset({"t0", "t1", "t4", "t5", "t6", "t8"}): Q(7, 2),
            frozenset({"t0", "t1", "t4", "t5", "t6", "t9"}): Q(3, 2),
            frozenset({"t0", "t1", "t4", "t5", "t8", "t9"}): Q(1, 2),
            frozenset({"t0", "t1", "t4", "t5"}): Q(3, 2)}
        out = tdi_spot_check(inst)
        assert (out["bicut_rows"], out["uncrossing_steps"]) == (10, 3)
        assert out["primal"] == dual_bound(inst, out["y"]) == 123
        T = ("t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9")
        degree = dict(zip(T, (10, 2, 14, 9, 10, 1, 2, 7, 3, 1)))
        degree.update(s0=1, s1=37, s2=11)
        assert out["y"] == {("v", v): val for v, val in degree.items()} | {
            ("U", frozenset({"s0", "s3", *T})): 6,
            ("U", frozenset({"t0", "t1", "t4", "t5", "t6", "t8"})): 4,
            ("U", frozenset({"t0", "t1", "t4", "t5"})): 3,
            ("U", frozenset({"t0", "t1", "t5"})): 2}
        assert dual_feasible(inst, out["y"])

    def test_uncrossing_synthetic_fractional_optima(self):
        # The average of two optimal duals is optimal: the certificate and a
        # vertex of the full dual LP, its family in either order.  Where the
        # average is fractional, uncrossing must keep it optimal and
        # feasible, and the dual over the cross-free support must have an
        # integral optimum.
        rng = random.Random(2)
        draws = list(digest_draws())
        for _ in range(100):
            nS = rng.randint(1, 4)
            draws.append(random_instance(rng, nS, rng.randint(1, 8 - nS),
                                         rng.uniform(0.3, 0.9), 2, 9, max_arcs=16,
                                         extra_cross=rng.randint(0, 3)))
        kept = uncrossed = 0
        for inst in draws:
            try:
                out = tdi_spot_check(inst)
            except InfeasibleInstance:
                continue
            V = frozenset(inst.digraph.vertices)
            family = _dual_family(inst)
            for order in (family, family[::-1]):
                vertex = simplex_solve(covering_lp(inst, order))
                avg = {key: Q(val, 2) for key, val in out["y"].items()}
                for key, val in zip(order, vertex.row_duals):
                    avg[key] = avg.get(key, 0) + Q(val, 2)
                if all(is_integral(v) for v in avg.values()):
                    continue
                kept += 1
                y, steps = lpsolve._uncross(inst, avg)
                uncrossed += steps > 0
                support = [key[1] for key, val in y.items() if key[0] == "U" and val]
                for U, W in itertools.combinations(support, 2):
                    assert not (U & W and U - W and W - U and U | W != V)
                objective = sum(inst.b[key[1]] * val if key[0] == "v" else val
                                for key, val in y.items())
                assert objective == out["primal"]
                assert dual_feasible(inst, y)
                singletons = [("v", v) for v in sorted(V)]
                res = simplex_solve(covering_lp(
                    inst, singletons + [("U", U) for U in support]))
                assert res.status == "optimal" and res.objective == out["primal"]
                assert all(is_integral(v) for v in res.row_duals)
        assert kept >= 40 and uncrossed >= 5

    def test_uncross_moves_only_crossing_pairs(self):
        inst = random_instance(random.Random(0), 3, 3, 1.0, 1, 9)
        V = frozenset(inst.digraph.vertices)
        t01, t12 = frozenset({"t0", "t1"}), frozenset({"t1", "t2"})
        # Complements {s0, s1} and {s2} are disjoint: the union is V, so the
        # pair does not cross and must stay.
        co01, co2 = V - {"s0", "s1"}, V - {"s2"}
        y = {("U", t01): Q(1, 2), ("U", t12): Q(1), ("U", co01): Q(1),
             ("U", co2): Q(1)}
        out, steps = lpsolve._uncross(inst, y)
        assert steps == 1
        assert {key: val for key, val in out.items() if val} == {
            ("U", t12): Q(1, 2), ("U", frozenset({"t1"})): Q(1, 2),
            ("U", frozenset({"t0", "t1", "t2"})): Q(1, 2),
            ("U", co01): Q(1), ("U", co2): Q(1)}

    def test_certificate_equals_full_dual_optimum(self):
        rng = random.Random(37)
        checked = 0
        for _ in range(60):
            nS = rng.randint(1, 4)
            inst = random_instance(rng, nS, rng.randint(1, 6 - nS),
                                   rng.uniform(0.3, 0.9), 3, 9, max_arcs=14,
                                   extra_cross=rng.randint(0, 2))
            try:
                out = tdi_spot_check(inst)
            except InfeasibleInstance:
                continue
            full = simplex_solve(covering_lp(inst, _dual_family(inst)))
            assert out["primal"] == dual_bound(inst, out["y"]) == full.objective
            checked += 1
        assert checked >= 20

    def test_certificate_equals_lp_weight_at_medium_size(self):
        # With b = 1 and nonnegative weights the box is redundant, so the
        # unboxed optimum is the shortest b-bibranching's weight.
        rng = random.Random(38)
        checked = 0
        for nS, nT in ((4, 12), (6, 18), (8, 24), (10, 30)):
            inst = random_instance(rng, nS, nT, 0.15, 1, 50, max_arcs=1000,
                                   extra_cross=nT)
            if feasibility_witness(inst) is not None:
                continue
            out = tdi_spot_check(inst)
            assert out["primal"] == dual_bound(inst, out["y"]) \
                == solve_shortest(inst, "lp").weight
            assert dual_feasible(inst, out["y"])
            checked += 1
        assert checked >= 2

    def test_dual_feasibility_checker_rejects_bad_duals(self):
        inst = one_arc_instance()
        assert not dual_feasible(inst, {("v", "t"): 6})
        assert not dual_feasible(inst, {("v", "t"): -1})
