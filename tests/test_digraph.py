"""Digraph primitives against definitional oracles."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbibranch.bibranching import Instance, brute_force_shortest
from bbibranch.digraph import (Digraph, FlowNetwork, check_capacities,
                               max_flow_min_cut)
from bbibranch.errors import InputError
from bbibranch.rationals import Q

from conftest import random_digraph, random_instance
from paper_lemmas import strong_components


def small_graph():
    return Digraph(["a", "b", "c", "d"],
                   [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"),
                    ("a", "b")])  # parallel arc 4 duplicates arc 0


class TestConstruction:
    def test_loop_rejected(self):
        with pytest.raises(InputError):
            Digraph(["a"], [("a", "a")])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(InputError):
            Digraph(["a"], [("a", "b")])

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(InputError):
            Digraph(["a", "a"], [])

    def test_tuple_ids_cannot_meet_the_separation_super_nodes(self):
        # The separation network names its super nodes ("source",) and
        # ("sink",).  With t2 renamed to ("sink",) and every other v to
        # (v,), the cutting plane ended in a false TheoremViolation, while
        # brute force gives 15.
        inst = random_instance(random.Random(221), 2, 3, 0.5, 2, 9, max_arcs=14)
        assert brute_force_shortest(inst).weight == 15
        D = inst.digraph
        name = {v: ("sink",) if v == "t2" else (v,) for v in D.vertices}
        with pytest.raises(InputError, match=r"vertex id \('s0',\) is not a string"):
            Digraph([name[v] for v in D.vertices],
                    [(name[u], name[w]) for u, w in D.arcs])

    @pytest.mark.parametrize("ids", [["a", ("b",)], ["a", 1], ["a", ["b"]]],
                             ids=repr)
    def test_mixed_vertex_ids_rejected(self, ids):
        # A tuple among string ids made sorted() raise TypeError in the LP
        # route; an unhashable id made set() raise it here.
        with pytest.raises(InputError, match="vertex id .* is not a string"):
            Digraph(ids, [])

    @pytest.mark.parametrize("B", [[-1], [5], [0.0], [True], [False], ["0"],
                                   [None], [[0]], [0, {0: 1}]], ids=repr)
    def test_invalid_arc_indices_rejected(self, B):
        # Only an int in [0, m) is an arc index; True would read as arc 1.
        D = small_graph()
        with pytest.raises(InputError, match="invalid arc index"):
            D.check_arcset(B)
        with pytest.raises(InputError, match="invalid arc index"):
            D.reachable_from(B, {"a"})

    def test_arcset_may_be_any_iterable(self):
        D = small_graph()
        assert D.check_arcset(a for a in (0, 2, 0)) == frozenset({0, 2})
        arcs = frozenset({1, 3})
        assert D.check_arcset(arcs) is arcs

    def test_parallel_arcs_have_distinct_indices(self):
        D = small_graph()
        assert D.arcs[0] == D.arcs[4] == ("a", "b")
        assert D.in_degree(D.all_arcs, "b") == 2


class TestCutsAndDegrees:
    def test_induced_arcs(self):
        D = small_graph()
        assert D.induced_arcs({"a", "b"}) == frozenset({0, 4})

    def test_arcs_between(self):
        D = small_graph()
        assert D.arcs_between({"c"}, {"d"}) == frozenset({3})

    def test_in_cut_matches_scan(self):
        D = small_graph()
        rng = random.Random(0)
        for _ in range(20):
            X = {v for v in D.vertices if rng.random() < 0.5}
            if not X or len(X) == len(D.vertices):
                continue
            expect = frozenset(a for a in range(D.num_arcs())
                               if D.tail(a) not in X and D.head(a) in X)
            assert D.in_cut(X) == expect
            expect_out = frozenset(a for a in range(D.num_arcs())
                                   if D.tail(a) in X and D.head(a) not in X)
            assert D.out_cut(X) == expect_out

    def test_cut_rejects_degenerate_sets(self):
        D = small_graph()
        with pytest.raises(InputError):
            D.in_cut(set())
        with pytest.raises(InputError):
            D.out_cut(set(D.vertices))


class TestReachability:
    def test_reachable_simple(self):
        D = small_graph()
        assert D.reachable_from({0, 1}, {"a"}) == frozenset({"a", "b", "c"})

    def test_reachable_matches_matrix_closure(self):
        # Oracle: boolean adjacency closure by repeated squaring.
        rng = random.Random(1)
        for _ in range(15):
            D, _, _ = random_digraph(rng, rng.randint(2, 6), 0.4, 1)
            n = len(D.vertices)
            idx = {v: i for i, v in enumerate(D.vertices)}
            reach = [[i == j for j in range(n)] for i in range(n)]
            for (t, h) in D.arcs:
                reach[idx[t]][idx[h]] = True
            for _ in range(n):
                reach = [[reach[i][j] or any(reach[i][k] and reach[k][j]
                                             for k in range(n))
                          for j in range(n)] for i in range(n)]
            for v in D.vertices:
                expect = frozenset(u for u in D.vertices if reach[idx[v]][idx[u]])
                assert D.reachable_from(D.all_arcs, {v}) == expect


class TestStrongComponents:
    def test_cycle_plus_tail(self):
        D = small_graph()
        comps = dict(strong_components(D))
        assert frozenset({"a", "b", "c"}) in comps
        assert comps[frozenset({"a", "b", "c"})] is True  # source component
        assert comps[frozenset({"d"})] is False

    def test_matches_pairwise_reachability_oracle(self):
        rng = random.Random(2)
        for _ in range(20):
            D, _, _ = random_digraph(rng, rng.randint(2, 6), 0.35, 1)
            comps = strong_components(D)
            # Oracle: u ~ v iff mutually reachable.
            expected = set()
            remaining = set(D.vertices)
            while remaining:
                v = min(remaining)
                comp = frozenset(u for u in D.vertices
                                 if v in D.reachable_from(D.all_arcs, {u})
                                 and u in D.reachable_from(D.all_arcs, {v}))
                expected.add(comp)
                remaining -= comp
            assert {c for c, _ in comps} == expected
            for comp, is_source in comps:
                entering = any(D.tail(a) not in comp and D.head(a) in comp
                               for a in range(D.num_arcs()))
                assert is_source == (not entering)


class TestBipartition:
    """The side checks of ``Instance``, which run before the capacities."""

    def test_rejects_t_to_s_arc(self):
        D = Digraph(["s", "t"], [("t", "s")])
        with pytest.raises(InputError, match="arc 0 goes from T to S: t -> s"):
            Instance(D, {"s": "S", "t": "T"}, {}, [1])

    def test_rejects_empty_side(self):
        D = Digraph(["s", "u"], [("u", "s")])
        with pytest.raises(InputError, match="both sides .* must be nonempty"):
            Instance(D, {"s": "S", "u": "S"}, {}, [1])

    def test_rejects_missing_side(self):
        D = Digraph(["s", "t"], [("t", "s")])
        with pytest.raises(InputError, match="vertex 't' must be assigned"):
            Instance(D, {"s": "S"}, {}, [1])

    def test_rejects_a_side_for_an_unknown_vertex(self):
        D = Digraph(["s", "t"], [("s", "t"), ("s", "t")])
        with pytest.raises(InputError, match="unknown vertex id: 'zz'"):
            Instance(D, {"s": "S", "t": "T", "zz": "Q"}, {"s": 1, "t": 1}, [1, 1])


class TestCapacities:
    def test_rejects_zero_and_missing(self):
        D = Digraph(["a", "b"], [])
        with pytest.raises(InputError):
            check_capacities(D, {"a": 0, "b": 1})
        with pytest.raises(InputError):
            check_capacities(D, {"a": 1})
        assert check_capacities(D, {"a": 2, "b": 1}) == {"a": 2, "b": 1}

    def test_rejects_a_capacity_for_an_unknown_vertex(self):
        # An extra key was read as absent, so its value went unchecked.
        D = Digraph(["s", "t"], [("s", "t"), ("s", "t")])
        with pytest.raises(InputError, match="unknown vertex id: 'x'"):
            check_capacities(D, {"s": 1, "t": 2, "x": 0})
        with pytest.raises(InputError, match="unknown vertex id: 'zz'"):
            Instance(D, {"s": "S", "t": "T"}, {"s": 1, "t": 1, "zz": 5}, [1, 1])


class TestPerVertex:
    """``Digraph.per_vertex``, the one reader of every vertex map."""

    def test_vertex_order_and_default(self):
        D = Digraph(["b", "a"], [])
        got = D.per_vertex({"a": 2}, "bad %r", default=0)
        assert list(got.items()) == [("b", 0), ("a", 2)]

    @pytest.mark.parametrize("values", [{"a": 1}, {"a": 1, "b": None},
                                        {"a": 1, "b": True}, {"a": 1, "b": 1.0},
                                        {"a": 1, "b": "1"}, {"a": 1, "b": -1}])
    def test_entries_must_be_ints_at_least_low(self, values):
        D = Digraph(["a", "b"], [])
        with pytest.raises(InputError, match="^bad 'b'$"):
            D.per_vertex(values, "bad %r", low=0)

    def test_unknown_keys_rejected(self):
        D = Digraph(["a", "b"], [])
        with pytest.raises(InputError, match="unknown vertex id: 'zz'"):
            D.per_vertex({"a": 1, "b": 1, "zz": 1}, "bad %r")


def draw_network(data, max_arcs=10):
    """Nodes 0..n-1, 3 <= n <= 5, and up to ``max_arcs`` arcs, parallel
    arcs allowed, with capacities 0..4."""
    n = data.draw(st.integers(3, 5), label="n")
    pairs = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
    caps = st.integers(0, 4)
    arcs = [(tail, (tail + step) % n, cap) for (tail, step), cap in
            data.draw(st.lists(st.tuples(pairs, caps), max_size=max_arcs),
                      label="arcs")]
    return list(range(n)), arcs


class TestMaxFlow:
    def test_textbook_network(self):
        nodes = ["s", "a", "b", "t"]
        arcs = [("s", "a", 3), ("s", "b", 2), ("a", "b", 1),
                ("a", "t", 2), ("b", "t", 3)]
        flow, cut = max_flow_min_cut(FlowNetwork(nodes, arcs), "s", "t")
        assert flow == 5
        assert "s" in cut and "t" not in cut

    def test_rational_capacities(self):
        arcs = [("s", "a", Q(1, 2)), ("a", "t", Q(1, 3))]
        flow, _ = max_flow_min_cut(FlowNetwork(["s", "a", "t"], arcs), "s", "t")
        assert flow == Q(1, 3)

    @settings(max_examples=400, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_flow_and_side_match_cut_enumeration(self, data):
        # Source 0, sink n - 1: the flow is the least cut, and the side
        # returned is a least cut holding the source and not the sink.  Up
        # to 20 arcs, so dense networks with every ordered pair (n(n - 1)
        # arcs at n = 5) are drawn too, plus up to four two-arc paths
        # 0 -> u -> n - 1 and up to three parallel direct arcs 0 -> n - 1,
        # which the flow pushes before its first search.  Every capacity
        # is over one drawn denominator, so some are Fractions.  The side
        # is the minimal min cut: it lies inside the source side of every
        # least cut, whichever flow was pushed first.  A limit at most the
        # direct arcs' capacity is reached by that pre-push alone, and the
        # query returns the flow so far and no side.
        nodes, arcs = draw_network(data, max_arcs=20)
        n = len(nodes)
        for u in data.draw(st.lists(st.integers(1, n - 2), max_size=4),
                           label="two-arc paths"):
            arcs += [(0, u, data.draw(st.integers(0, 4), label="cap")),
                     (u, n - 1, data.draw(st.integers(0, 4), label="cap"))]
        arcs += [(0, n - 1, cap) for cap in data.draw(
            st.lists(st.integers(0, 4), max_size=3), label="direct arcs")]
        scale = data.draw(st.sampled_from([1, 2, 3]), label="denominator")
        arcs = [(t, h, Q(cap, scale) if scale > 1 else cap) for t, h, cap in arcs]

        def capacity(side):
            return sum(cap for t, h, cap in arcs if t in side and h not in side)

        inner = nodes[1:-1]
        sides = [{0, *combo} for r in range(len(inner) + 1)
                 for combo in itertools.combinations(inner, r)]
        least = min(map(capacity, sides))
        flow, side = max_flow_min_cut(FlowNetwork(nodes, arcs), 0, n - 1)
        assert flow == least
        assert 0 in side and n - 1 not in side
        assert capacity(side) == least
        assert all(side <= cut for cut in sides if capacity(cut) == least)
        direct = sum(cap for t, h, cap in arcs if (t, h) == (0, n - 1))
        if direct:
            limit = direct * Q(data.draw(st.integers(1, 4), label="limit"), 4)
            reached, none = max_flow_min_cut(FlowNetwork(nodes, arcs), 0, n - 1, limit)
            assert none is None and limit <= reached <= least

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_limited_queries_match_exact_ones(self, data):
        # One compiled network answers every (source, sink, limit) query,
        # in any order, as a fresh network without a limit decides it.  A
        # flow that reaches the limit stops there.
        nodes, arcs = draw_network(data)
        exact = {pair: max_flow_min_cut(FlowNetwork(nodes, arcs), *pair)
                 for pair in itertools.permutations(nodes, 2)}
        top = max(got[0] for got in exact.values())
        queries = [(pair, limit) for pair in exact
                   for limit in (None, *range(top + 2))]
        network = FlowNetwork(nodes, arcs)
        for pair, limit in data.draw(st.permutations(queries), label="order"):
            want = exact[pair]
            if limit is not None and want[0] >= limit:
                flow, side = max_flow_min_cut(network, *pair, limit)
                assert side is None and limit <= flow <= want[0]
            else:
                assert max_flow_min_cut(network, *pair, limit) == want
