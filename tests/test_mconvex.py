"""Discrete-convexity layer: oracles, exchange lemmas, flow-based solver."""

import itertools
import random
from fractions import Fraction

import pytest

from bbibranch import bibranching, digraph, matroids, mconvex, packing
from bbibranch.bibranching import (Instance, brute_force_shortest,
                                   feasibility_witness)
from bbibranch.digraph import Digraph
from bbibranch.errors import InfeasibleInstance, InputError, TheoremViolation
from bbibranch.lpsolve import solve_primal_cutting_plane
from bbibranch.matroids import is_b_branching
from bbibranch.mconvex import (BBranchingOracle, _AuxArc,
                               _min_arc_negative_cycle, check_mnat_exchange,
                               exchange_b_branchings, solve_mflow)

from conftest import (all_subsets, bicut_draws, one_arc_instance,
                      oracle_b_branchings, random_digraph, random_instance)
from paper_lemmas import _find_any_two_partition, two_partition


class TestEvalF:
    def test_x_equals_b_is_zero(self):
        D = Digraph(["a", "b"], [("a", "b")])
        oracle = BBranchingOracle(D, {"a": 1, "b": 1}, [3])
        assert oracle.eval_f({"a": 1, "b": 1}) == 0

    def test_unreachable_degree_is_infinite(self):
        D = Digraph(["a", "b"], [("a", "b")])
        oracle = BBranchingOracle(D, {"a": 1, "b": 1}, [3])
        assert oracle.eval_f({"a": 0, "b": 1}) is None  # no arc enters a

    def test_unknown_vertex_keys_are_rejected(self):
        # A key that is no vertex would otherwise be read as absent.
        D = Digraph(["a", "b"], [("a", "b")])
        oracle = BBranchingOracle(D, {"a": 1, "b": 1}, [3])
        for evaluate in (oracle.eval_f, oracle.eval_g):
            with pytest.raises(InputError, match="unknown vertex id: 'zz'"):
                evaluate({"a": 1, "b": 1, "zz": -4})
            # A point is an int vector: a float, a bool or a string is none.
            for x in ({"a": 2.5, "b": 0}, {"a": True, "b": 0}, {"a": 0.5, "b": 0},
                      {"a": "1"}, {"a": None}):
                with pytest.raises(InputError,
                                   match="entry for vertex 'a' is not an integer"):
                    evaluate(x)

    @pytest.mark.parametrize("weights", [[], [1, 2], {0: 1, 3: 1}, {False: 5}, {0.0: 5}])
    def test_weights_need_one_entry_per_arc(self, weights):
        D = Digraph(["a", "b"], [("a", "b")])
        with pytest.raises(InputError,
                           match=r"weights must have exactly one entry per arc \(1\)"):
            BBranchingOracle(D, {"a": 1, "b": 1}, weights)

    @pytest.mark.parametrize("weight", [0.1, True])
    def test_weight_must_be_int_fraction_or_string(self, weight):
        D = Digraph(["a", "b"], [("a", "b")])
        with pytest.raises(InputError, match="weight of arc 0 is not a rational"):
            BBranchingOracle(D, {"a": 1, "b": 1}, [weight])
        assert BBranchingOracle(D, {"a": 1, "b": 1}, ["6/4"]).weights == [Fraction(3, 2)]

    def test_matches_brute_force(self):
        rng = random.Random(60)
        for _ in range(10):
            D, b, w = random_digraph(rng, rng.randint(2, 4), 0.5, 2)
            if D.num_arcs() > 7:
                continue
            oracle = BBranchingOracle(D, b, w)
            branchings = oracle_b_branchings(D, b)
            for _ in range(8):
                x = {v: rng.randint(0, b[v]) for v in D.vertices}
                best = min((sum(w[a] for a in B) for B in branchings
                            if all(D.in_degree(B, v) + x[v] == b[v]
                                   for v in D.vertices)), default=None)
                got = oracle.eval_f(x)
                assert (None if got is None else int(got)) == best

    def test_witness_has_exact_degrees(self):
        rng = random.Random(61)
        D, b, w = random_digraph(rng, 4, 0.7, 2)
        oracle = BBranchingOracle(D, b, w)
        for _ in range(10):
            x = {v: rng.randint(0, b[v]) for v in D.vertices}
            result = oracle.eval_f_witness(x)
            if result is None:
                continue
            value, B = result
            assert is_b_branching(D, b, B)
            assert all(D.in_degree(B, v) + x[v] == b[v] for v in D.vertices)
            assert sum(w[a] for a in B) == value


class TestEvalG:
    def test_saturated_x_is_zero(self):
        D = Digraph(["a", "b"], [("a", "b")])
        oracle = BBranchingOracle(D, {"a": 1, "b": 1}, [3])
        assert oracle.eval_g({"a": 2, "b": 5}) == 0

    def test_matches_ge_constrained_brute_force(self):
        rng = random.Random(62)
        for _ in range(8):
            D, b, w = random_digraph(rng, rng.randint(2, 4), 0.5, 2)
            if D.num_arcs() > 7:
                continue
            oracle = BBranchingOracle(D, b, w)
            branchings = oracle_b_branchings(D, b)
            for _ in range(6):
                x = {v: rng.randint(0, b[v] + 1) for v in D.vertices}
                best = min((sum(w[a] for a in B) for B in branchings
                            if all(D.in_degree(B, v) + x[v] >= b[v]
                                   for v in D.vertices)), default=None)
                got = oracle.eval_g(x)
                assert (None if got is None else int(got)) == best

    def test_clipping_identity_and_monotone(self):
        rng = random.Random(63)
        D, b, w = random_digraph(rng, 4, 0.7, 2)
        oracle = BBranchingOracle(D, b, w)
        for _ in range(20):
            x = {v: rng.randint(0, b[v] + 2) for v in D.vertices}
            clipped = {v: min(x[v], b[v]) for v in D.vertices}
            assert oracle.eval_g(x) == oracle.eval_g(clipped)
            # monotone nonincreasing in each coordinate
            v0 = rng.choice(D.vertices)
            bigger = dict(x)
            bigger[v0] += 1
            gx, gbig = oracle.eval_g(x), oracle.eval_g(bigger)
            if gx is not None:
                assert gbig is not None and gbig <= gx


class TestExchangeAxiom:
    def test_equal_points_pass_vacuously(self):
        D = Digraph(["a", "b"], [("a", "b")])
        oracle = BBranchingOracle(D, {"a": 1, "b": 1}, [3])
        x = {"a": 1, "b": 1}
        ok, ce = check_mnat_exchange(oracle.eval_f, D.vertices, x, x)
        assert ok and ce is None

    def test_requires_domain_points(self):
        D = Digraph(["a", "b"], [("a", "b")])
        oracle = BBranchingOracle(D, {"a": 1, "b": 1}, [3])
        with pytest.raises(InputError):
            check_mnat_exchange(oracle.eval_f, D.vertices,
                                {"a": 0, "b": 1}, {"a": 1, "b": 1})

    def test_reports_first_failing_u(self):
        # f is finite at x, y and the compensated pair of u = a only, so
        # u = a passes with v = c and u = b has no finite pair at all.
        x = {"a": 2, "b": 1, "c": 0}
        y = {"a": 0, "b": 0, "c": 1}
        finite = [x, y, {"a": 1, "b": 1, "c": 1}, {"a": 1, "b": 0, "c": 0}]
        calls = []

        def evaluator(z):
            calls.append(dict(z))
            return 0 if z in finite else None

        ok, ce = check_mnat_exchange(evaluator, "abc", x, y)
        assert not ok and ce == (x, y, "b")
        # f(x), f(y), then per u the v = None pair before each v in supp-.
        assert calls == [x, y] + [dict(zip("abc", p)) for p in (
            (1, 1, 0), (1, 0, 1), (1, 1, 1), (1, 0, 0),
            (2, 0, 0), (0, 1, 1), (2, 0, 1), (0, 1, 0))]

    def test_passes_on_sampled_pairs(self):
        rng = random.Random(64)
        for _ in range(6):
            D, b, w = random_digraph(rng, rng.randint(2, 4), 0.6, 2)
            oracle = BBranchingOracle(D, b, w)
            for evaluator in (oracle.eval_f, oracle.eval_g):
                done = 0
                attempts = 0
                while done < 25 and attempts < 2000:
                    attempts += 1
                    x = {v: rng.randint(0, b[v] + 1) for v in D.vertices}
                    y = {v: rng.randint(0, b[v] + 1) for v in D.vertices}
                    if evaluator(x) is None or evaluator(y) is None:
                        continue
                    ok, ce = check_mnat_exchange(evaluator, D.vertices, x, y)
                    assert ok, ce
                    done += 1


class TestTwoPartition:
    def test_given_degrees_are_feasible(self):
        D = Digraph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        b = {v: 1 for v in D.vertices}
        b1 = {"a": 0, "b": 1, "c": 1}
        b2 = {"a": 0, "b": 0, "c": 1}
        B1, B2 = two_partition(D, b, b1, b2)
        assert all(D.in_degree(B1, v) == b1[v] for v in D.vertices)
        assert all(D.in_degree(B2, v) == b2[v] for v in D.vertices)
        assert is_b_branching(D, b, B1) and is_b_branching(D, b, B2)

    def test_source_component_witness(self):
        # Two-cycle: the whole graph is a source component; loading all
        # indegree on one class hits the b(X) bound.
        D = Digraph(["u", "v"], [("u", "v"), ("v", "u")])
        b = {"u": 1, "v": 1}
        out, witness = two_partition(D, b, {"u": 1, "v": 1}, {"u": 0, "v": 0})
        assert out is None
        assert witness == frozenset({"u", "v"})

    def test_rejects_bad_prescriptions(self):
        D = Digraph(["a", "b"], [("a", "b")])
        b = {"a": 1, "b": 1}
        with pytest.raises(InputError):
            two_partition(D, b, {"a": 0, "b": 0}, {"a": 0, "b": 0})

    def test_iff_matches_exhaustive_search(self):
        rng = random.Random(65)
        done = 0
        while done < 20:
            D, b, _ = random_digraph(rng, rng.randint(2, 4), 0.5, 2)
            m = D.num_arcs()
            if m > 8 or _find_any_two_partition(D, b) is None:
                continue
            dA = {v: len(D.in_arcs(v)) for v in D.vertices}
            b1 = {v: rng.randint(max(0, dA[v] - b[v]), min(b[v], dA[v]))
                  for v in D.vertices}
            b2 = {v: dA[v] - b1[v] for v in D.vertices}
            if any(not (0 <= b2[v] <= b[v]) for v in D.vertices):
                continue
            exists = False
            for labels in itertools.product((0, 1), repeat=m):
                B1 = frozenset(a for a in range(m) if labels[a] == 0)
                B2 = frozenset(range(m)) - B1
                if all(D.in_degree(B1, v) == b1[v] for v in D.vertices) \
                        and is_b_branching(D, b, B1) \
                        and is_b_branching(D, b, B2):
                    exists = True
                    break
            out = two_partition(D, b, b1, b2)
            assert (out[0] is not None) == exists
            done += 1


def strong_component(D: Digraph, arcs, s: str):
    """The strong component of s in (V, arcs), and whether no arc of arcs
    enters it, by a transitive closure over vertex pairs (Warshall)."""
    reach = {(v, v) for v in D.vertices} | {D.arcs[a] for a in arcs}
    for k in D.vertices:
        reach |= {(u, w) for u in D.vertices for w in D.vertices
                  if (u, k) in reach and (k, w) in reach}
    comp = frozenset(v for v in D.vertices if (s, v) in reach and (v, s) in reach)
    return comp, not any(D.tail(a) not in comp and D.head(a) in comp for a in arcs)


class TestExchangeLemma:
    def test_case_a_single_arc(self):
        D = Digraph(["a", "s"], [("a", "s")])
        b = {"a": 1, "s": 1}
        B1p, B2p, case = exchange_b_branchings(D, b, frozenset(),
                                               frozenset({0}), "s")
        assert case == "a"
        assert B1p == frozenset({0}) and B2p == frozenset()

    def test_hypothesis_required(self):
        D = Digraph(["a", "s"], [("a", "s")])
        b = {"a": 1, "s": 1}
        with pytest.raises(InputError):
            exchange_b_branchings(D, b, frozenset({0}), frozenset(), "s")
        with pytest.raises(InputError, match="unknown vertex id: 'zz'"):
            exchange_b_branchings(D, b, frozenset(), frozenset({0}), "zz")

    def test_conclusions_on_sampled_inputs(self):
        rng = random.Random(66)
        done = 0
        attempts = 0
        case_b_seen = 0
        while done < 30 and attempts < 4000:
            attempts += 1
            D, b, _ = random_digraph(rng, rng.randint(2, 4), 0.5, 2)
            m = D.num_arcs()
            if m > 8:
                continue
            branchings = [B for B in all_subsets(m) if is_b_branching(D, b, B)]
            if len(branchings) < 2:
                continue
            B1 = rng.choice(branchings)
            B2 = rng.choice(branchings)
            cand = [v for v in D.vertices
                    if D.in_degree(B1, v) < D.in_degree(B2, v)]
            if not cand:
                continue
            s = rng.choice(cand)
            B1p, B2p, case = exchange_b_branchings(D, b, B1, B2, s)
            assert B1p | B2p == B1 | B2
            assert B1p & B2p == B1 & B2
            assert is_b_branching(D, b, B1p) and is_b_branching(D, b, B2p)
            exp1 = {v: D.in_degree(B1, v) for v in D.vertices}
            exp2 = {v: D.in_degree(B2, v) for v in D.vertices}
            exp1[s] += 1
            exp2[s] -= 1
            d1p = {v: D.in_degree(B1p, v) for v in D.vertices}
            d2p = {v: D.in_degree(B2p, v) for v in D.vertices}
            # The lemma's case split: (b) exactly when the component of s in
            # B1 + B2 is a source component with d_B1(comp) = b(comp) - 1,
            # and then t is the least other vertex of it with d_B2(t) < b(t).
            comp, is_source = strong_component(D, B1 | B2, s)
            assert (case == "b") == (is_source and sum(
                D.in_degree(B1, v) for v in comp) == sum(b[v] for v in comp) - 1)
            if case == "a":
                assert d1p == exp1 and d2p == exp2
            else:
                case_b_seen += 1
                moved = {v for v in D.vertices if d1p[v] != exp1[v]}
                assert len(moved) == 1
                t = moved.pop()
                assert t == min(v for v in comp
                                if v != s and D.in_degree(B2, v) < b[v])
                assert d1p[t] == exp1[t] - 1 and d2p[t] == exp2[t] + 1
            done += 1
        assert done == 30
        assert case_b_seen >= 1


class TestCapacityChecks:
    @pytest.mark.parametrize("b", [{"a": 1, "s": 0}, {"a": 1},
                                   {"a": 1, "s": True}, {"a": 1, "s": "2"}],
                             ids=["zero", "missing", "True", "'2'"])
    def test_bad_b_fails_at_every_entry_point(self, b):
        D = Digraph(["a", "s"], [("a", "s")])
        for call in (lambda: exchange_b_branchings(D, b, frozenset(),
                                                   frozenset({0}), "s"),
                     lambda: is_b_branching(D, b, frozenset()),
                     lambda: BBranchingOracle(D, b, [1])):
            with pytest.raises(InputError, match=r"capacity b\('s'\)"):
                call()

    def test_b_is_checked_once_per_entry_point(self, monkeypatch):
        # Each entry point checks b once, where it builds a SparsityMatroid;
        # the exchange lemma builds three (two is_b_branching calls and
        # split_into_b_branchings), and an oracle checks b only when built.
        calls = []
        original = digraph.check_capacities

        def counting(D, b):
            calls.append(b)
            return original(D, b)

        for module in (bibranching, digraph, matroids, mconvex, packing):
            if vars(module).get("check_capacities") is original:
                monkeypatch.setattr(module, "check_capacities", counting)
        D = Digraph(["a", "s"], [("a", "s")])
        b = {"a": 1, "s": 1}
        counts = []
        for call in (lambda: exchange_b_branchings(D, b, frozenset(),
                                                   frozenset({0}), "s"),
                     lambda: is_b_branching(D, b, frozenset({0})),
                     lambda: BBranchingOracle(D, b, [1])):
            calls.clear()
            oracle = call()  # the last call builds the oracle read below
            counts.append(len(calls))
        calls.clear()
        assert oracle.eval_g({"a": 1, "s": 0}) == 1
        counts.append(len(calls))
        assert counts == [3, 1, 1, 0]


class TestSolveMflow:
    def test_one_arc(self):
        sol = solve_mflow(one_arc_instance())
        assert sol.weight == 5 and sol.arcs == frozenset({0})

    def test_infeasible_raises(self):
        D = Digraph(["s", "t"], [])
        inst = Instance(D, {"s": "S", "t": "T"}, {"s": 1, "t": 1}, [])
        with pytest.raises(InfeasibleInstance,
                           match="condition t_reachable_from_s fails at t"):
            solve_mflow(inst)

    def test_matches_brute_force(self):
        rng = random.Random(67)
        solved = 0
        for _ in range(25):
            inst = random_instance(rng, rng.randint(1, 2), rng.randint(1, 3),
                                   0.6, 2, 9, max_arcs=12)
            if feasibility_witness(inst) is not None:
                continue
            sol = solve_mflow(inst)
            assert sol.weight == brute_force_shortest(inst).weight
            assert all(entry["ok"] for entry in sol.certificate.values())
            solved += 1
        assert solved >= 8

    def test_start_boundary_without_completion_is_a_theorem_violation(
            self, monkeypatch):
        # The flow starts at every cross arc, where both completions are
        # finite on a feasible instance.  A T-side move table of None
        # (g(z_T) = +infinity) is reported with the boundary, not skipped.
        D = Digraph(["s", "t"], [("s", "t"), ("s", "t")])
        inst = Instance(D, {"s": "S", "t": "T"}, {"s": 1, "t": 2}, [1, 1])
        assert solve_mflow(inst).weight == 2
        move_table = mconvex._move_table

        def no_t_completion(oracle, z):
            return None if set(z) == inst.T else move_table(oracle, z)

        monkeypatch.setattr(mconvex, "_move_table", no_t_completion)
        with pytest.raises(TheoremViolation,
                           match="boundary has no completing branchings") as exc:
            solve_mflow(inst)
        assert exc.value.payload == {"z_S": {"s": 2}, "z_T": {"t": 2}}

    @pytest.mark.parametrize("shape,seed,m", [((4, 9, 0.25), 8, 39),
                                              ((5, 11, 0.2), 2, 40),
                                              ((6, 14, 0.15), 16, 52)])
    def test_agrees_with_lp_at_medium_size(self, shape, seed, m):
        # Under the canonical weights the optimum is unique, so both exact
        # routes return the same arcs, past the sizes at which criterion 1
        # compares them.
        nS, nT, density = shape
        inst = random_instance(random.Random(seed), nS, nT, density, 2, 50,
                               max_arcs=1000)
        assert inst.digraph.num_arcs() == m
        want = solve_primal_cutting_plane(inst).solution
        got = solve_mflow(inst)
        assert (got.arcs, got.weight) == (want.arcs, want.weight)

    def test_returns_the_lp_arcs_on_the_bicut_draws(self):
        # The feasible bicut draws, whose LPs often need bicut rows.
        draws = [inst for inst in bicut_draws() if feasibility_witness(inst) is None]
        assert len(draws) == 13
        for inst in draws:
            want = solve_primal_cutting_plane(inst).solution
            got = solve_mflow(inst)
            assert (got.arcs, got.weight) == (want.arcs, want.weight)

    def test_oracle_calls_per_round(self, monkeypatch):
        # Each round reads one move table per side: g(z) and g(z - chi_p +
        # chi_q) for p != q among the side's vertices and the null node.
        counts = {"eval_g": 0, "rounds": 0}
        eval_g = BBranchingOracle.eval_g
        find_cycle = mconvex._min_arc_negative_cycle

        def counting_eval_g(self, x):
            counts["eval_g"] += 1
            return eval_g(self, x)

        def counting_find_cycle(nodes, arcs):
            counts["rounds"] += 1
            return find_cycle(nodes, arcs)

        monkeypatch.setattr(BBranchingOracle, "eval_g", counting_eval_g)
        monkeypatch.setattr(mconvex, "_min_arc_negative_cycle",
                            counting_find_cycle)
        rng = random.Random(68)
        solved = 0
        for _ in range(20):
            inst = random_instance(rng, rng.randint(1, 3), rng.randint(1, 3),
                                   0.6, 2, 9, max_arcs=12)
            if feasibility_witness(inst) is not None:
                continue
            counts.update(eval_g=0, rounds=0)
            solve_mflow(inst)
            nS, nT = len(inst.S), len(inst.T)
            per_round = nS * (nS + 1) + nT * (nT + 1) + 2
            assert counts["rounds"] >= 1
            assert counts["eval_g"] <= counts["rounds"] * per_round + 2
            solved += 1
        assert solved >= 8


def _negative_cycle_lengths(nodes, arcs):
    """The arc counts of the negative simple cycles, by enumeration.

    Each cycle is listed once, from its first node in ``nodes``, and takes
    the cheapest of any parallel arcs between consecutive nodes.
    """
    cheapest = {}
    for arc in arcs:
        pair = (arc.tail, arc.head)
        if pair not in cheapest or arc.cost < cheapest[pair]:
            cheapest[pair] = arc.cost
    lengths = []

    def extend(path, cost):
        for q in nodes[nodes.index(path[0]) + 1:]:
            if q not in path and (path[-1], q) in cheapest:
                extend(path + [q], cost + cheapest[path[-1], q])
        if len(path) > 1 and (path[-1], path[0]) in cheapest \
                and cost + cheapest[path[-1], path[0]] < 0:
            lengths.append(len(path))

    for start in nodes:
        extend([start], 0)
    return lengths


class TestNegativeCycle:
    def test_fewest_arcs_matches_cycle_enumeration(self):
        # None exactly when no simple cycle is negative; otherwise a simple
        # closed walk of negative cost over the given arcs, with the fewest
        # arcs of any negative cycle.
        rng = random.Random(69)
        found = {True: 0, False: 0}
        for trial in range(400):
            nodes = ["p%d" % i for i in range(rng.randint(1, 6))] + [None]
            # Nonnegative reduced costs under a potential: negative arcs and
            # zero-cost cycles, but a negative cycle only where some arcs
            # drop below their reduced cost (in half the trials).
            pot = {p: rng.randint(-4, 4) for p in nodes}
            dip = 0.3 if trial % 4 >= 2 else 0
            arcs = []
            for flip, (p, q) in enumerate(itertools.permutations(nodes, 2)):
                if rng.random() > 0.5:
                    continue
                reduced = (Fraction(rng.randint(0, 9), 3) if trial % 2
                           else rng.randint(0, 3))
                cost = reduced + pot[p] - pot[q]
                if rng.random() < dip:
                    cost -= rng.randint(1, 3)
                arcs.append(_AuxArc(p, q, cost, flip if rng.random() < 0.5 else None))
                if rng.random() < 0.2:  # a parallel arc of equal cost
                    arcs.append(_AuxArc(p, q, cost, None))
            lengths = _negative_cycle_lengths(nodes, arcs)
            got = _min_arc_negative_cycle(nodes, arcs)
            if not lengths:
                assert got is None
            else:
                assert all(any(arc is given for given in arcs) for arc in got)
                tails = [arc.tail for arc in got]
                assert [arc.head for arc in got] == tails[1:] + tails[:1]
                assert len(set(tails)) == len(got) == min(lengths)
                assert sum(arc.cost for arc in got) < 0
            found[bool(lengths)] += 1
        assert min(found.values()) >= 50

    def test_cycle_through_every_node(self):
        # A ring p0 -> p1 -> ... -> p0 of cost -1 per arc, with each arc
        # reversed at cost n: the one negative cycle has all n arcs.
        for n in range(2, 8):
            nodes = ["p%d" % i for i in range(n)]
            ring = list(zip(nodes, nodes[1:] + nodes[:1]))
            arcs = ([_AuxArc(p, q, -1, None) for p, q in ring]
                    + [_AuxArc(q, p, n, None) for p, q in ring])
            assert _negative_cycle_lengths(nodes, arcs) == [n]
            got = _min_arc_negative_cycle(nodes, arcs)
            assert [arc.tail for arc in got] == nodes
