"""The b-bibranching object, brute force and the solver front end."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbibranch import bibranching
from bbibranch.bibranching import (Instance, _FastChecker, bibranching_report,
                                   brute_force_shortest,
                                   feasibility_witness, is_b_bibranching,
                                   solve_shortest)
from bbibranch.cli import load_instance_data
from bbibranch.digraph import Digraph, FlowNetwork, max_flow_min_cut
from bbibranch.errors import GuardError, InfeasibleInstance, InputError
from bbibranch.mconvex import solve_mflow
from bbibranch.packing import packing_number
from bbibranch.rationals import rat

from conftest import (all_subsets, one_arc_instance, random_instance,
                      serialize_instance)
from paper_lemmas import check_alternative_description, prune_to_minimal


def two_by_two():
    D = Digraph(["s0", "s1", "t0", "t1"],
                [("s0", "t0"), ("s1", "t1"), ("s0", "s1"), ("t0", "t1"),
                 ("s1", "t0")])
    side = {"s0": "S", "s1": "S", "t0": "T", "t1": "T"}
    return Instance(D, side, {v: 1 for v in side}, [4, 3, 2, 1, 5])


class TestInstance:
    def test_negative_weight_rejected(self):
        D = Digraph(["s", "t"], [("s", "t")])
        with pytest.raises(InputError):
            Instance(D, {"s": "S", "t": "T"}, {"s": 1, "t": 1}, [-1])

    @pytest.mark.parametrize("weights", [[], [5, 7], {0: 5, 3: 1}, {1: 5},
                                         {False: 5}, {0.0: 5}])
    def test_weights_need_one_entry_per_arc(self, weights):
        D = Digraph(["s", "t"], [("s", "t")])
        side, b = {"s": "S", "t": "T"}, {"s": 1, "t": 1}
        with pytest.raises(InputError,
                           match=r"weights must have exactly one entry per arc \(1\)"):
            Instance(D, side, b, weights)
        assert Instance(D, side, b, {0: "5"}).weights == [5]

    @pytest.mark.parametrize("weight", [0.1, 2.0, True, False, None, [1]])
    def test_weight_must_be_int_fraction_or_string(self, weight):
        # A float holds a binary value (0.1 is 3602879701896397/2^55) and a
        # bool is no number, so both are rejected like any other type.
        D = Digraph(["s", "t"], [("s", "t")])
        side, b = {"s": "S", "t": "T"}, {"s": 1, "t": 1}
        with pytest.raises(InputError,
                           match=r"weight of arc 0 is not a rational: "):
            Instance(D, side, b, [weight])
        with pytest.raises(ValueError, match="not a rational"):
            rat(weight)

    @pytest.mark.parametrize("weight, value", [
        (3, 3), (Fraction(6, 4), Fraction(3, 2)), (Fraction(4, 2), 2),
        (" 7/2", Fraction(7, 2)), ("-0", 0)])
    def test_weight_rule_accepts_exact_numbers(self, weight, value):
        D = Digraph(["s", "t"], [("s", "t")])
        side, b = {"s": "S", "t": "T"}, {"s": 1, "t": 1}
        got = Instance(D, side, b, [weight]).weights[0]
        assert got == value and type(got) is type(value)

    def test_cross_arcs(self):
        inst = two_by_two()
        assert inst.cross_arcs() == frozenset({0, 1, 4})


class TestReport:
    def test_single_arc_passes_all_conditions(self):
        inst = one_arc_instance()
        report = bibranching_report(inst, {0})
        assert all(entry["ok"] for entry in report.values())

    @pytest.mark.parametrize("B", [[[0]], [True], [0.0]], ids=repr)
    def test_invalid_arc_index_is_an_input_error(self, B):
        with pytest.raises(InputError, match="invalid arc index"):
            bibranching_report(one_arc_instance(), B)

    def test_empty_set_fails_all_with_witnesses(self):
        inst = one_arc_instance()
        report = bibranching_report(inst, set())
        assert [entry["ok"] for entry in report.values()] == [False] * 4
        assert report["t_reachable_from_s"]["witness"] == "t"
        assert report["s_reaches_t"]["witness"] == "s"
        assert report["t_indegree"]["witness"] == "t"
        assert report["s_outdegree"]["witness"] == "s"

    def test_superset_closure(self):
        inst = two_by_two()
        assert is_b_bibranching(inst, {0, 1})
        assert is_b_bibranching(inst, {0, 1, 2, 3, 4})

    def test_degree_witness_names_short_vertex(self):
        D = Digraph(["s", "t0", "t1"], [("s", "t0"), ("s", "t1")])
        inst = Instance(D, {"s": "S", "t0": "T", "t1": "T"},
                        {"s": 1, "t0": 1, "t1": 2}, [0, 0])
        report = bibranching_report(inst, {0, 1})
        assert not report["t_indegree"]["ok"]
        assert report["t_indegree"]["witness"] == "t1"


    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_every_subset_matches_per_vertex_definition(self, data):
        nS = data.draw(st.integers(1, 3), label="nS")
        nT = data.draw(st.integers(1, 3), label="nT")
        s_ids = ["s%d" % i for i in range(nS)]
        t_ids = ["t%d" % i for i in range(nT)]
        allowed = [(u, v) for u in s_ids + t_ids for v in s_ids + t_ids
                   if u != v and not (u in t_ids and v in s_ids)]
        # Drawn with repetition, so parallel arcs occur.
        arcs = data.draw(st.lists(st.sampled_from(allowed), max_size=8),
                         label="arcs")
        side = {v: "S" for v in s_ids}
        side.update({v: "T" for v in t_ids})
        b = {v: data.draw(st.integers(1, 2), label="b(%s)" % v) for v in side}
        inst = Instance(Digraph(s_ids + t_ids, arcs), side, b, [0] * len(arcs))
        checker = _FastChecker(inst)
        for mask in range(1 << len(arcs)):
            B = [a for a in range(len(arcs)) if (mask >> a) & 1]
            reach = {u: {u} for u in side}
            for u in side:
                grown = True
                while grown:
                    grown = False
                    for a in B:
                        tail, head = arcs[a]
                        if tail in reach[u] and head not in reach[u]:
                            reach[u].add(head)
                            grown = True
            failing = {
                "t_reachable_from_s": [v for v in t_ids
                                       if not any(v in reach[u] for u in s_ids)],
                "s_reaches_t": [u for u in s_ids
                                if not reach[u] & set(t_ids)],
                "t_indegree": [v for v in t_ids
                               if sum(arcs[a][1] == v for a in B) < b[v]],
                "s_outdegree": [u for u in s_ids
                                if sum(arcs[a][0] == u for a in B) < b[u]],
            }
            expected = {name: {"ok": not bad, "witness": min(bad, default=None)}
                        for name, bad in failing.items()}
            assert bibranching_report(inst, B) == expected
            assert checker.valid(mask) == is_b_bibranching(inst, B)


class TestMirror:
    SWAP = {"t_reachable_from_s": "s_reaches_t",
            "s_reaches_t": "t_reachable_from_s",
            "t_indegree": "s_outdegree", "s_outdegree": "t_indegree"}

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_mirror_is_the_same_problem_with_sides_swapped(self, data):
        rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1),
                                      label="seed"))
        inst = random_instance(rng, data.draw(st.integers(1, 3), label="nS"),
                               data.draw(st.integers(1, 3), label="nT"),
                               rng.uniform(0.3, 0.9), 2, 9, max_arcs=10,
                               extra_cross=rng.randint(0, 3))
        D, mirror = inst.digraph, inst.mirror
        assert mirror.digraph.arcs == tuple((h, t) for t, h in D.arcs)
        assert (mirror.S, mirror.T) == (inst.T, inst.S)
        twice = mirror.mirror
        assert (twice.digraph.vertices, twice.digraph.arcs) == (D.vertices,
                                                                D.arcs)
        assert (twice.S, twice.T, twice.b, twice.weights) == (
            inst.S, inst.T, inst.b, inst.weights)
        assert mirror.cross_arcs() == inst.cross_arcs()

        for _ in range(5):
            B = [a for a in range(D.num_arcs()) if rng.random() < 0.6]
            report = bibranching_report(inst, B)
            assert bibranching_report(mirror, B) == {
                self.SWAP[c]: entry for c, entry in report.items()}
            assert check_alternative_description(mirror, B) == \
                check_alternative_description(inst, B)

        best, mirror_best = brute_force_shortest(inst), brute_force_shortest(mirror)
        assert (best is None) == (mirror_best is None)
        if best is not None:
            assert mirror_best.weight == best.weight

        w, mw = packing_number(inst), packing_number(mirror)
        assert (mw.k, mw.bicut_min) == (w.k, w.bicut_min)
        assert (mw.t_min, mw.t_argmin, mw.s_min, mw.s_argmin) == (
            w.s_min, w.s_argmin, w.t_min, w.t_argmin)


class TestAlternativeDescription:
    def test_agrees_with_conditions_on_minimal_sets(self):
        # The branching/cobranching description implies the four conditions;
        # on inclusion-minimal sets the two tests coincide.
        rng = random.Random(20)
        checked = 0
        for _ in range(30):
            inst = random_instance(rng, rng.randint(1, 2), rng.randint(1, 2),
                                   0.6, 2, 5, max_arcs=8)
            m = inst.digraph.num_arcs()
            for B in all_subsets(m):
                if check_alternative_description(inst, B):
                    assert is_b_bibranching(inst, B)
                    checked += 1
                if is_b_bibranching(inst, B):
                    minimal = prune_to_minimal(inst, B)
                    assert check_alternative_description(inst, minimal)
        assert checked > 0


class TestPrune:
    def test_keeps_validity_and_reaches_minimality(self):
        inst = two_by_two()
        minimal = prune_to_minimal(inst, frozenset(range(5)))
        assert is_b_bibranching(inst, minimal)
        for a in minimal:
            assert not is_b_bibranching(inst, minimal - {a})

    def test_rejects_invalid_input(self):
        inst = two_by_two()
        with pytest.raises(InputError):
            prune_to_minimal(inst, set())

    def test_deterministic(self):
        inst = two_by_two()
        first = prune_to_minimal(inst, frozenset(range(5)))
        second = prune_to_minimal(inst, frozenset(range(5)))
        assert first == second


class TestBruteForce:
    def test_one_arc_value(self):
        sol = brute_force_shortest(one_arc_instance())
        assert sol.weight == 5 and sol.arcs == frozenset({0})

    def test_matches_slow_enumeration(self):
        rng = random.Random(21)
        for _ in range(15):
            inst = random_instance(rng, rng.randint(1, 2), rng.randint(1, 2),
                                   0.6, 2, 5, max_arcs=8)
            best = None
            for B in all_subsets(inst.digraph.num_arcs()):
                if is_b_bibranching(inst, B):
                    w = inst.weight_of(B)
                    if best is None or w < best:
                        best = w
            sol = brute_force_shortest(inst)
            if best is None:
                assert sol is None
            else:
                assert sol.weight == best

    def test_guard(self, monkeypatch):
        monkeypatch.setattr(bibranching, "BRUTE_FORCE_ARC_LIMIT", 0)
        with pytest.raises(GuardError):
            brute_force_shortest(one_arc_instance())


class TestFeasibility:
    def test_infeasible_names_condition(self):
        D = Digraph(["s", "t", "u"], [("s", "t")])
        inst = Instance(D, {"s": "S", "t": "T", "u": "T"},
                        {"s": 1, "t": 1, "u": 1}, [1])
        witness = feasibility_witness(inst)
        assert witness == {"condition": "t_reachable_from_s", "witness": "u"}

    def test_feasible_returns_none(self):
        assert feasibility_witness(one_arc_instance()) is None


def feasible_draws():
    rng = random.Random(22)
    for _ in range(20):
        inst = random_instance(rng, rng.randint(1, 2), rng.randint(1, 3),
                               0.6, 2, 9, max_arcs=10)
        if feasibility_witness(inst) is None:
            yield inst


class TestSolveFrontEnd:
    def test_methods_agree(self):
        solved = 0
        for inst in feasible_draws():
            solutions = {method: solve_shortest(inst, method)
                         for method in ("brute", "lp", "mflow", "auto")}
            values = {method: sol.weight for method, sol in solutions.items()}
            assert len(set(values.values())) == 1, values
            assert solutions["lp"].certificate["dual_bound"] == values["brute"]
            solved += 1
        assert solved > 0

    def test_infeasible_raises_with_witness(self):
        D = Digraph(["s", "t"], [])
        inst = Instance(D, {"s": "S", "t": "T"}, {"s": 1, "t": 1}, [])
        with pytest.raises(InfeasibleInstance) as exc:
            solve_shortest(inst)
        assert exc.value.witness["condition"] == "t_reachable_from_s"

    def test_unknown_method_rejected(self):
        with pytest.raises(InputError):
            solve_shortest(one_arc_instance(), method="magic")

    def test_auto_records_dual_bound(self):
        sol = solve_shortest(one_arc_instance(), method="auto")
        assert sol.certificate["dual_bound"] == sol.weight == 5


class TestNumberRule:
    """Exact values are int when integral and Fraction otherwise."""

    def test_integral_values_stay_int(self):
        D = Digraph(["s", "t"], [("s", "t")] * 4)
        side, b = {"s": "S", "t": "T"}, {"s": 1, "t": 1}
        inst = Instance(D, side, b, [4, "4/2", Fraction(4), "1/2"])
        assert inst.weights == [4, 2, 4, Fraction(1, 2)]
        assert [type(w) for w in inst.weights] == [int, int, int, Fraction]
        flow, _ = max_flow_min_cut(
            FlowNetwork(["s", "a", "t"], [("s", "a", 3), ("a", "t", 2)]), "s", "t")
        assert flow == 2 and type(flow) is int
        sol = solve_mflow(Instance(D, side, b, [4, "4/2", Fraction(4), 3]))
        assert sol.weight == 2 and type(sol.weight) is int

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_mixed_weights_agree_across_methods(self, data):
        rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1),
                                      label="seed"))
        base = random_instance(rng, data.draw(st.integers(1, 2), label="nS"),
                               data.draw(st.integers(1, 3), label="nT"),
                               rng.uniform(0.4, 0.9), 2, 9, max_arcs=10,
                               extra_cross=rng.randint(1, 3))
        weights = [Fraction(rng.randint(0, 18), rng.choice((2, 3)))
                   if rng.random() < 0.5 else w for w in base.weights]
        D = base.digraph
        inst = Instance(D, {v: "S" if v in base.S else "T" for v in D.vertices},
                        base.b, weights)
        kinds = [int if w.denominator == 1 else Fraction for w in weights]
        assert inst.weights == weights
        assert [type(w) for w in inst.weights] == kinds
        loaded = load_instance_data(serialize_instance(inst))
        assert loaded.weights == weights
        assert [type(w) for w in loaded.weights] == kinds
        if feasibility_witness(inst) is None:
            solutions = {method: solve_shortest(inst, method)
                         for method in ("lp", "mflow", "brute")}
            values = {method: sol.weight for method, sol in solutions.items()}
            assert len(set(values.values())) == 1, values
            assert solutions["lp"].certificate["dual_bound"] == values["lp"]
