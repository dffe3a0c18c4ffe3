"""Matroid layer against enumeration oracles."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbibranch.digraph import Digraph
from bbibranch.errors import InputError
from bbibranch.matroids import (PartitionMatroid, SparsityMatroid,
                                is_b_branching, split_into_b_branchings,
                                weighted_matroid_intersection)
from bbibranch.mconvex import BBranchingOracle

from conftest import (all_subsets, oracle_b_branchings, oracle_is_branching,
                      oracle_sparsity_independent, random_digraph)


def _draw_capped_digraph(data, max_arcs):
    """(D, b, t): n <= 5, b <= 3 and caps t <= b.  Endpoint pairs are drawn
    with repetition, so parallel and antiparallel arcs occur."""
    n = data.draw(st.integers(2, 5), label="n")
    ids = ["v%d" % i for i in range(n)]
    b = {v: data.draw(st.integers(1, 3), label="b(%s)" % v) for v in ids}
    t = {v: data.draw(st.integers(0, b[v]), label="t(%s)" % v) for v in ids}
    pairs = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
    arcs = [(ids[tail], ids[(tail + step) % n])
            for tail, step in data.draw(st.lists(pairs, min_size=1,
                                                 max_size=max_arcs),
                                        label="arcs")]
    return Digraph(ids, arcs), b, t


def _within_caps(D, caps, B):
    return all(D.in_degree(B, v) <= caps[v] for v in D.vertices)


class TestPartitionMatroid:
    def test_caps_respected(self):
        D = Digraph(["a", "b"], [("a", "b"), ("a", "b")])
        m = PartitionMatroid(D, {"a": 0, "b": 1})
        # {0} is independent, and arc 1 would put a second arc on b's cap 1.
        assert m.circuits(frozenset(), [0, 1]) == {0: None, 1: None}
        assert m.circuits({0}, [1]) == {1: frozenset({0})}
        # is_b_branching reads the cap through in-degrees: with b(a) = 2 the
        # two arcs are sparse, so only b's cap rejects them.
        b = {"a": 2, "b": 1}
        assert SparsityMatroid(D, b).violation_witness({0, 1}) is None
        assert is_b_branching(D, b, {0})
        assert not is_b_branching(D, b, {0, 1})

    def test_negative_cap_rejected(self):
        D = Digraph(["a"], [])
        with pytest.raises(InputError):
            PartitionMatroid(D, {"a": -1})

    def test_cap_for_an_unknown_vertex_rejected(self):
        D = Digraph(["s", "t"], [("s", "t"), ("s", "t")])
        with pytest.raises(InputError, match="unknown vertex id: 'zz'"):
            PartitionMatroid(D, {"s": 0, "t": 1, "zz": -4})


class TestSparsityMatroid:
    def test_single_vertex_sets_enforced(self):
        # b(v) - 1 arcs allowed inside {u, v} jointly, none inside a singleton.
        D = Digraph(["u", "v"], [("u", "v"), ("v", "u")])
        m = SparsityMatroid(D, {"u": 1, "v": 1})
        assert m.violation_witness({0}) is None
        # |B[{u,v}]| = 2 > b - 1 = 1
        witness = m.violation_witness({0, 1})
        assert witness == frozenset({"u", "v"})

    def test_matches_subset_enumeration(self):
        rng = random.Random(10)
        for _ in range(12):
            D, b, _ = random_digraph(rng, rng.randint(2, 4), 0.6, 2)
            if D.num_arcs() > 7:
                continue
            m = SparsityMatroid(D, b)
            for B in all_subsets(D.num_arcs()):
                witness = m.violation_witness(B)
                ok = witness is None
                assert ok == oracle_sparsity_independent(D, b, B)
                if not ok:
                    inside = len(D.induced_arcs(witness) & B)
                    assert inside >= sum(b[v] for v in witness)

    @settings(max_examples=400, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_pebble_game_matches_enumeration(self, data):
        # Parallel and antiparallel arcs come from drawing endpoint pairs
        # with repetition.  B takes at least half of the drawn arcs, so
        # about a quarter of the examples are dependent.
        n = data.draw(st.integers(1, 5), label="n")
        ids = ["v%d" % i for i in range(n)]
        b = {v: data.draw(st.integers(1, 3), label="b(%s)" % v) for v in ids}
        arcs = []
        if n > 1:
            pairs = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
            for tail, step in data.draw(st.lists(pairs, min_size=1,
                                                 max_size=12), label="arcs"):
                arcs.append((ids[tail], ids[(tail + step) % n]))
        D = Digraph(ids, arcs)
        B = data.draw(st.frozensets(st.sampled_from(range(len(arcs))),
                                    min_size=len(arcs) // 2)
                      if arcs else st.just(frozenset()), label="B")
        m = SparsityMatroid(D, b)
        witness = m.violation_witness(B)
        assert (witness is None) == oracle_sparsity_independent(D, b, B)
        if witness is not None:
            assert witness
            inside = len(D.induced_arcs(witness) & B)
            assert inside >= sum(b[v] for v in witness)


class TestCircuits:
    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_circuits_match_exchange_oracle(self, data):
        # I grows greedily along a drawn order of the arcs, so it is a
        # common independent set and often a maximal one.
        D, b, t = _draw_capped_digraph(data, 10)
        order = data.draw(st.permutations(range(D.num_arcs())), label="order")
        I = frozenset()
        for a in order:
            grown = I | {a}
            if (_within_caps(D, t, grown)
                    and oracle_sparsity_independent(D, b, grown)):
                I = grown
        outside = [y for y in range(D.num_arcs()) if y not in I]
        for matroid, independent in (
                (PartitionMatroid(D, t), lambda B: _within_caps(D, t, B)),
                (SparsityMatroid(D, b),
                 lambda B: oracle_sparsity_independent(D, b, B))):
            circuits = matroid.circuits(I, outside)
            assert sorted(circuits) == outside
            for y in outside:
                if independent(I | {y}):
                    assert circuits[y] is None
                else:
                    assert circuits[y] == {x for x in I
                                           if independent(I - {x} | {y})}

    def test_sparsity_circuits_need_an_independent_set(self):
        D = Digraph(["u", "v"], [("u", "v"), ("v", "u")])
        with pytest.raises(InputError):
            SparsityMatroid(D, {"u": 1, "v": 1}).circuits({0, 1}, [])

    def test_exact_indegrees_make_no_independence_query(self, monkeypatch):
        # The exchange graphs come from circuits alone.
        calls = []
        witness = SparsityMatroid.violation_witness

        def counting(self, B):
            calls.append(B)
            return witness(self, B)

        monkeypatch.setattr(SparsityMatroid, "violation_witness", counting)
        D = Digraph(["a", "b", "c", "d"],
                    [("a", "b"), ("b", "c"), ("c", "a"), ("a", "c"),
                     ("c", "d"), ("d", "b"), ("b", "d"), ("a", "d")])
        b = {"a": 1, "b": 2, "c": 1, "d": 2}
        t = {"a": 0, "b": 2, "c": 1, "d": 2}
        got = BBranchingOracle(D, b, [3, 1, 4, 1, 5, 9, 2, 6]).eval_f_witness(
            {v: b[v] - t[v] for v in D.vertices})
        assert got is not None and len(got[1]) == 5
        assert calls == []


class TestBBranching:
    def test_capacity_for_an_unknown_vertex_rejected(self):
        D = Digraph(["s", "t"], [("s", "t"), ("s", "t")])
        with pytest.raises(InputError, match="unknown vertex id: 'q'"):
            is_b_branching(D, {"s": 1, "t": 1, "q": 9}, {0})

    def test_b_one_equals_plain_branching(self):
        rng = random.Random(11)
        for _ in range(12):
            D, _, _ = random_digraph(rng, rng.randint(2, 4), 0.5, 1)
            if D.num_arcs() > 7:
                continue
            b = {v: 1 for v in D.vertices}
            for B in all_subsets(D.num_arcs()):
                assert is_b_branching(D, b, B) == oracle_is_branching(D, B)

    def test_downward_closed(self):
        rng = random.Random(12)
        D, b, _ = random_digraph(rng, 4, 0.6, 2)
        for B in all_subsets(min(D.num_arcs(), 6)):
            if is_b_branching(D, b, B):
                for a in B:
                    assert is_b_branching(D, b, B - {a})


class TestSplitIntoBBranchings:
    @pytest.mark.parametrize("bound, message", [
        ({"zz": 1}, "unknown vertex id: 'zz'"),
        ({"t": 1.0}, "split bound for 't' must be an integer"),
        ({"t": True}, "split bound for 't' must be an integer")])
    def test_bounds_are_vertex_maps(self, bound, message):
        D = Digraph(["s", "t"], [("s", "t"), ("s", "t")])
        b = {"s": 1, "t": 1}
        with pytest.raises(InputError, match=re.escape(message)):
            split_into_b_branchings(D, b, D.all_arcs, [bound], [b])
        with pytest.raises(InputError, match=re.escape(message)):
            split_into_b_branchings(D, b, D.all_arcs, [{}], [bound])

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_first_labelling_in_enumeration_order(self, data):
        # Label k means "unused", so itertools.product visits labellings in
        # the search's order: arcs by index, classes before "unused".  Arcs
        # are endpoint pairs drawn with repetition, so parallel arcs occur;
        # shared is drawn among the b-branchings, as the search requires.
        n = data.draw(st.integers(2, 4), label="n")
        ids = ["v%d" % i for i in range(n)]
        b = {v: data.draw(st.integers(1, 3), label="b(%s)" % v) for v in ids}
        pairs = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
        arcs = [(ids[tail], ids[(tail + step) % n])
                for tail, step in data.draw(st.lists(pairs, min_size=1,
                                                     max_size=7), label="arcs")]
        D = Digraph(ids, arcs)
        branchings = set(oracle_b_branchings(D, b))
        shared = data.draw(st.sampled_from(sorted(branchings, key=sorted)),
                           label="shared")
        free = [a for a in range(len(arcs)) if a not in shared]
        k = data.draw(st.integers(1, 3), label="k")
        leave_unused = data.draw(st.booleans(), label="leave_unused")
        # Bounds around the degrees of one drawn labelling: about three
        # quarters of the examples have an answer.
        anchor = [data.draw(st.integers(0, k - 1 + leave_unused)) for _ in free]
        lower, upper = [], []
        for j in range(k):
            C = shared | {a for a, lab in zip(free, anchor) if lab == j}
            d = {v: min(D.in_degree(C, v), b[v]) for v in ids}
            upper.append({v: data.draw(st.integers(d[v], b[v])) for v in ids})
            lower.append({v: data.draw(st.integers(0, d[v])) for v in ids})

        expected = None
        for labels in itertools.product(range(k + leave_unused),
                                        repeat=len(free)):
            classes = [shared | frozenset(a for a, lab in zip(free, labels)
                                          if lab == j) for j in range(k)]
            if all(C in branchings
                   and all(lower[j][v] <= D.in_degree(C, v) <= upper[j][v]
                           for v in ids)
                   for j, C in enumerate(classes)):
                expected = classes
                break
        assert split_into_b_branchings(D, b, free, lower, upper, shared,
                                       leave_unused) == expected


class TestWeightedIntersection:
    def test_matches_brute_force(self):
        rng = random.Random(13)
        for _ in range(10):
            D, b, w = random_digraph(rng, rng.randint(2, 4), 0.6, 2)
            m = D.num_arcs()
            if m > 7:
                continue
            m1 = PartitionMatroid(D, b)
            m2 = SparsityMatroid(D, b)
            commons = [B for B in all_subsets(m)
                       if _within_caps(D, b, B)
                       and oracle_sparsity_independent(D, b, B)]
            for r in range(0, m + 1):
                of_size = [B for B in commons if len(B) == r]
                best = min((sum(w[a] for a in B) for B in of_size), default=None)
                got = weighted_matroid_intersection(m1, m2, w, r)
                if best is None:
                    assert got is None
                else:
                    assert got is not None and len(got) == r
                    assert sum(w[a] for a in got) == best

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_matches_brute_force_with_parallel_arcs(self, data):
        D, b, t = _draw_capped_digraph(data, 7)
        m = D.num_arcs()
        w = [data.draw(st.integers(-3, 9), label="w%d" % a) for a in range(m)]
        m1 = PartitionMatroid(D, t)
        m2 = SparsityMatroid(D, b)
        commons = [B for B in all_subsets(m) if _within_caps(D, t, B)
                   and oracle_sparsity_independent(D, b, B)]
        for r in range(m + 1):
            best = min((sum(w[a] for a in B) for B in commons if len(B) == r),
                       default=None)
            got = weighted_matroid_intersection(m1, m2, w, r)
            if best is None:
                assert got is None
            else:
                assert got in commons and len(got) == r
                assert sum(w[a] for a in got) == best

    def test_invalid_args(self):
        D = Digraph(["a"], [])
        m1 = PartitionMatroid(D, {"a": 1})
        m2 = SparsityMatroid(D, {"a": 1})
        with pytest.raises(InputError):
            weighted_matroid_intersection(m1, m2, [], -1)

    @pytest.mark.parametrize("r", [1.5, True, 2.0, "2"])
    def test_target_size_must_be_an_int(self, r):
        D = Digraph(["s", "t"], [("s", "t"), ("s", "t")])
        m1 = PartitionMatroid(D, {"s": 0, "t": 2})
        m2 = SparsityMatroid(D, {"s": 2, "t": 2})
        assert weighted_matroid_intersection(m1, m2, [1, 1], 2) == frozenset({0, 1})
        with pytest.raises(InputError, match="target size must be a nonnegative integer"):
            weighted_matroid_intersection(m1, m2, [1, 1], r)


class TestExactIndegrees:
    def test_matches_brute_force(self):
        rng = random.Random(14)
        for _ in range(10):
            D, b, w = random_digraph(rng, rng.randint(2, 4), 0.6, 2)
            if D.num_arcs() > 7:
                continue
            branchings = oracle_b_branchings(D, b)
            oracle = BBranchingOracle(D, b, w)
            for _ in range(6):
                t = {v: rng.randint(0, b[v]) for v in D.vertices}
                matching = [B for B in branchings
                            if all(D.in_degree(B, v) == t[v]
                                   for v in D.vertices)]
                best = min((sum(w[a] for a in B) for B in matching),
                           default=None)
                found = oracle.eval_f_witness({v: b[v] - t[v] for v in D.vertices})
                if best is None:
                    assert found is None
                else:
                    got = found[1]
                    assert sum(w[a] for a in got) == best
                    assert all(D.in_degree(got, v) == t[v] for v in D.vertices)

    def test_rejects_out_of_range_target(self):
        # t = b - x lies in [0, b] exactly when x does; outside it f is
        # +infinity.
        D = Digraph(["a", "b"], [("a", "b")])
        oracle = BBranchingOracle(D, {"a": 1, "b": 1}, [1])
        assert oracle.eval_f({"a": 1, "b": -1}) is None
        assert oracle.eval_f({"a": 1, "b": 2}) is None
        # A key of x that is not a vertex is an input error, not a
        # prescription that is silently dropped.
        with pytest.raises(InputError, match="unknown vertex id: 'zz'"):
            oracle.eval_f({"zz": 1})
