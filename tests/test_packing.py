"""Disjoint packing machinery against exhaustive oracles."""

import itertools
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbibranch import lpsolve, packing
from bbibranch.bibranching import (Instance, feasibility_witness,
                                   is_b_bibranching, solve_shortest, subgraph)
from bbibranch.cli import load_instance_data
from bbibranch.digraph import Digraph, FlowNetwork
from bbibranch.errors import InputError, TheoremViolation
from bbibranch.lpsolve import integer_decomposition_check, min_bicut_candidates
from bbibranch.matroids import is_b_branching
from bbibranch.packing import (GPolymatroidSystem, _partition_conditions,
                               build_system, cut_condition_failure, cut_family,
                               find_integral_point, pack_b_bibranchings,
                               pack_prescribed_b_branchings, packing_number,
                               partition_cross_arcs, verify_packing)
from bbibranch.rationals import Q

from conftest import (all_bicuts, digest_draws, one_arc_instance,
                      oracle_max_disjoint_packing, permute_rows,
                      random_digraph, random_instance, repeat_separations)


PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


def pack_pool_instance(seed):
    """Instance ``seed`` of the benchmark's ``pack`` generator."""
    sys.path.insert(0, PERFBENCH)
    try:
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    return load_instance_data(workloads.gen_pack(seed)[0])


def doubled_instance():
    """Two parallel s -> t arcs: packs two disjoint singletons."""
    D = Digraph(["s", "t"], [("s", "t"), ("s", "t")])
    return Instance(D, {"s": "S", "t": "T"}, {"s": 1, "t": 1}, [5, 7])


def two_cycles_instance():
    """A 2-cycle inside each side, the cross arcs s0 -> t0 and s1 -> t1."""
    D = Digraph(["s0", "s1", "t0", "t1"],
                [("s0", "s1"), ("s0", "t0"), ("s1", "s0"), ("s1", "t1"),
                 ("t0", "t1"), ("t1", "t0")])
    return Instance(D, {"s0": "S", "s1": "S", "t0": "T", "t1": "T"},
                    {"s0": 1, "s1": 1, "t0": 1, "t1": 1}, [1] * 6)


class TestPackingNumber:
    def test_one_arc(self):
        wit = packing_number(one_arc_instance())
        assert (wit.t_min, wit.s_min, wit.bicut_min, wit.k) == (1, 1, 1, 1)

    def test_doubled(self):
        wit = packing_number(doubled_instance())
        assert wit.k == 2

    def test_invariant_k_is_the_min(self):
        rng = random.Random(40)
        for _ in range(10):
            inst = random_instance(rng, rng.randint(1, 2), rng.randint(1, 2),
                                   0.6, 2, 3, max_arcs=10,
                                   extra_cross=rng.randint(0, 2))
            wit = packing_number(inst)
            assert wit.k == min(wit.t_min, wit.s_min, wit.bicut_min)

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(41)
        for _ in range(25):
            inst = random_instance(rng, rng.randint(1, 2), rng.randint(1, 3),
                                   0.55, 2, 3, max_arcs=10,
                                   extra_cross=rng.randint(0, 3))
            assert packing_number(inst).k == oracle_max_disjoint_packing(inst)

    def test_bicut_minimum_builds_no_arc_set(self, monkeypatch):
        # The witness is a least bicut of the enumeration, and packing_number
        # finds it from flow values alone: counted, it scans no arc for a
        # cut and returns the same witness.
        expected = []
        for inst in digest_draws():
            wit = packing_number(inst)
            bicuts = all_bicuts(inst)
            assert (wit.bicut_witness, inst.digraph.in_cut(wit.bicut_witness)) in bicuts
            assert len(inst.digraph.in_cut(wit.bicut_witness)) == wit.bicut_min \
                == min(len(cut) for _, cut in bicuts)
            expected.append(wit)
        scans = []
        in_cut = Digraph.in_cut

        def counted(self, X):
            scans.append(X)
            return in_cut(self, X)

        monkeypatch.setattr(Digraph, "in_cut", counted)
        for inst, wit in zip(digest_draws(), expected):
            assert packing_number(inst) == wit
            assert type(wit.bicut_min) is int
        assert scans == []


class TestCutFamilies:
    def test_members_are_head_unions(self):
        assert cut_family(doubled_instance(), 2) == {frozenset({0, 1}): 2}

    @pytest.mark.parametrize("k", [1.5, True, 2.0, "2"])
    def test_k_must_be_a_positive_int(self, k):
        with pytest.raises(InputError, match="k must be an integer at least 1"):
            cut_family(doubled_instance(), k)

    def test_intersecting_closure(self):
        rng = random.Random(42)
        for _ in range(10):
            inst = random_instance(rng, 2, 3, 0.6, 2, 3, max_arcs=12)
            for view in (inst, inst.mirror):
                g = cut_family(view, 1)
                for C1, C2 in itertools.combinations(g, 2):
                    if C1 & C2:
                        assert (C1 | C2) in g
                        assert (C1 & C2) in g


class TestSupermodularFunction:
    def test_isolated_head_gives_k(self):
        # g of a cut generated by a T-vertex with no within-side in-arc is k.
        assert cut_family(doubled_instance(), 2)[frozenset({0, 1})] == 2

    def test_matches_direct_enumeration(self):
        rng = random.Random(43)
        pick = random.Random(143)
        for _ in range(8):
            inst = random_instance(rng, 2, 3, 0.6, 2, 3, max_arcs=12)
            D = inst.digraph
            k = max(1, packing_number(inst).k)
            H = inst.cross_arcs()
            # The whole cross-arc set, and a residual ground set as the
            # peeling in partition_cross_arcs passes it.
            for ground in (None, frozenset(a for a in H if pick.random() < 0.6)):
                arcs = H if ground is None else ground
                # The oracle reads heads and in-cuts of the instance on
                # the T side, tails and out-cuts of it on the S side.
                for view, X, t_side in ((inst, inst.T, True),
                                        (inst.mirror, inst.S, False)):
                    g = cut_family(view, k, ground)
                    verts = sorted(X)
                    inner = D.induced_arcs(X)
                    expected = {}
                    for r in range(1, len(verts) + 1):
                        for combo in itertools.combinations(verts, r):
                            U = frozenset(combo)
                            if t_side:
                                cut = frozenset(a for a in arcs if D.head(a) in U)
                                deg = len(D.in_cut(U) & inner)
                            else:
                                cut = frozenset(a for a in arcs if D.tail(a) in U)
                                deg = len(D.out_cut(U) & inner)
                            expected[cut] = max(expected.get(cut, k - deg), k - deg)
                    assert g == expected
                    assert list(g) == sorted(expected, key=sorted)

    def test_supermodular_on_crossing_pairs(self):
        rng = random.Random(44)
        for _ in range(8):
            inst = random_instance(rng, 2, 3, 0.6, 2, 3, max_arcs=12)
            k = max(1, packing_number(inst).k)
            for view in (inst, inst.mirror):
                g = cut_family(view, k)
                for C1, C2 in itertools.combinations(g, 2):
                    if C1 & C2:
                        assert g[C1] + g[C2] <= g[C1 | C2] + g[C1 & C2]

    def test_upper_bound_claim(self):
        rng = random.Random(45)
        for _ in range(8):
            inst = random_instance(rng, 2, 2, 0.7, 2, 3, max_arcs=12,
                                   extra_cross=2)
            k = packing_number(inst).k
            if k < 1:
                continue
            for view in (inst, inst.mirror):
                for C, gC in cut_family(view, k).items():
                    assert gC <= min(k, len(C))


class TestIntegralPoint:
    def test_single_arc_k1(self):
        inst = one_arc_instance()
        p1 = build_system(inst, 1)
        p2 = build_system(inst.mirror, 1)
        point = p1.check_point({0: 1}, 1)
        assert point == []
        assert find_integral_point(p1, p2) == {0: 1}

    def test_check_point_across_denominators(self):
        # Tight and violated rows and a bound, at the points (1/2, 1/3,
        # 2/3), (1/2, 1/2, 3/2), (0, 1/4, 1/2) and (1/6, 1/3, 2/3), each
        # as ints over the lcm of its denominators.
        system = GPolymatroidSystem(2, [0, 1, 2], [
            ({0: 1, 1: 1}, None, 1, "r0"), ({1: 1, 2: 1}, 1, None, "r1"),
            ({0: 2, 2: 1}, None, 1, "r2")])
        assert system.check_point({0: 3, 1: 2, 2: 4}, 6) == ["r2"]
        assert system.check_point({0: 1, 1: 1, 2: 3}, 2) == ["bounds[2]", "r2"]
        assert system.check_point({0: 0, 1: 1, 2: 2}, 4) == ["r1"]
        assert system.check_point({0: 1, 1: 2, 2: 4}, 6) == []

    def test_uniform_point_feasible_and_vertex_integral(self):
        rng = random.Random(46)
        done = 0
        for _ in range(30):
            inst = random_instance(rng, rng.randint(1, 2), rng.randint(1, 2),
                                   0.6, 2, 3, max_arcs=10,
                                   extra_cross=rng.randint(0, 3))
            k = packing_number(inst).k
            if k < 1:
                continue
            p1 = build_system(inst, k)
            p2 = build_system(inst.mirror, k)
            ones = dict.fromkeys(p1.var_arcs, 1)
            assert p1.check_point(ones, k) == []
            assert p2.check_point(ones, k) == []
            point = find_integral_point(p1, p2)
            assert set(point.values()) <= {0, 1}
            assert p1.check_point(point, 1) == []
            assert p2.check_point(point, 1) == []
            done += 1
        assert done >= 10


def subset_cut_violations(D, groups):
    """Every nonempty X with rho(X) < #{j : X misses groups[j]}, by
    enumeration of all vertex subsets."""
    found = set()
    for r in range(1, len(D.vertices) + 1):
        for X in map(frozenset, itertools.combinations(D.vertices, r)):
            rho = sum(1 for tail, head in D.arcs if head in X and tail not in X)
            if rho < sum(1 for group in groups if not X & group):
                found.add(X)
    return found


class TestCutCondition:
    def test_matches_subset_oracle(self):
        rng = random.Random(53)
        outcomes = set()
        for _ in range(300):
            D, _, _ = random_digraph(rng, rng.randint(1, 5),
                                     rng.uniform(0.1, 0.7), 1)
            groups = [frozenset(v for v in D.vertices if rng.random() < 0.4)
                      for _ in range(rng.randint(0, 3))]
            violations = subset_cut_violations(D, groups)
            X = cut_condition_failure(D, groups)
            assert (X is None) == (not violations)
            if X is not None:
                assert X in violations
            outcomes.add(X is None)
        assert outcomes == {True, False}

    def test_vertex_ids_never_meet_network_nodes(self):
        # Ids that read like the extra nodes' names stay plain vertices.
        D = Digraph(["root", "group"], [("root", "group")])
        assert cut_condition_failure(D, [{"root"}]) is None
        assert cut_condition_failure(D, [{"group"}]) == frozenset({"root"})


def cut_family_rule(inst, k, classes):
    """The coloring conditions as cut-family rows: every member C of each
    side's family is hit by at least g(C) classes, plus the degree caps."""
    for view in (inst, inst.mirror):
        for C, gC in cut_family(view, k).items():
            if sum(1 for H_j in classes if C & H_j) < gC:
                return False
    for view in (inst, inst.mirror):
        D = view.digraph
        for H_j in classes:
            for v in view.T:
                if D.in_degree(H_j, v) > len(D.in_arcs(v)) - (k - 1) * view.b[v]:
                    return False
    return True


def side_packing_failures(inst, classes):
    """The paper's construction on the cross-arc ``classes``: each side's
    prescribed packing, T side then S side.  Returns both sides'
    ``failed_condition`` and, when neither fails, the assembled packing
    classes[j] | branchings[j] | cobranchings[j], else None."""
    failures, sides = [], []
    for view in (inst, inst.mirror):
        D = view.digraph
        d_X, arc_map = subgraph(D, view.T)
        prescriptions = [{v: max(0, view.b[v] - D.in_degree(H_j, v))
                          for v in view.T} for H_j in classes]
        result = pack_prescribed_b_branchings(
            d_X, {v: view.b[v] for v in view.T}, prescriptions)
        failures.append(result.failed_condition)
        sides.append(None if result.branchings is None else
                     [frozenset(arc_map[i] for i in B) for B in result.branchings])
    if None in sides:
        return failures, None
    return failures, [H_j | B | C for H_j, B, C in zip(classes, *sides)]


class TestPartition:
    def test_k1_returns_all_cross_arcs(self):
        inst = one_arc_instance()
        classes = partition_cross_arcs(inst, 1, packing_number(inst))
        assert classes == [frozenset({0})]

    def test_doubled_splits_singletons(self):
        inst = doubled_instance()
        classes = partition_cross_arcs(inst, 2, packing_number(inst))
        assert sorted(classes) == [frozenset({0}), frozenset({1})]

    def test_rejects_bad_k(self):
        inst = one_arc_instance()
        with pytest.raises(InputError):
            partition_cross_arcs(inst, 2, packing_number(inst))

    @pytest.mark.parametrize("k", [1.5, 2.0, True, "2"])
    def test_k_must_be_an_int(self, k):
        inst = doubled_instance()
        with pytest.raises(InputError, match="k must be an integer between 1 and"):
            partition_cross_arcs(inst, k, packing_number(inst))

    def test_conditions_match_cut_family_rows(self):
        outcomes, cut_only = set(), 0

        def check(inst, k, labels):
            nonlocal cut_only
            classes = [frozenset(a for a, j in labels.items() if j == i)
                       for i in range(k)]
            expected = cut_family_rule(inst, k, classes)
            assert (_partition_conditions(inst, k, classes) is None) == expected
            # The construction leaves these conditions to the side packings,
            # which must reject every labelling the rows reject.
            if not expected:
                failures = [f for f in side_packing_failures(inst, classes)[0] if f]
                assert failures
                cut_only += all(f["condition"] == "cut" for f in failures)
            outcomes.add(expected)

        rng = random.Random(54)
        for _ in range(300):
            inst = random_instance(rng, rng.randint(1, 3), rng.randint(1, 3),
                                   rng.uniform(0.3, 0.8), 2, 3, max_arcs=12,
                                   extra_cross=rng.randint(0, 4))
            k = rng.randint(1, 3)
            check(inst, k, {a: rng.randrange(k) for a in sorted(inst.cross_arcs())})
        assert outcomes == {True, False}
        # Random labellings that fail a side's cut condition fail a degree
        # condition too.  Every 2-labelling of the cross arcs of S = {s1, s2,
        # s3} with the 2-cycle s1 <-> s2, T = {t}: some fail only the S-side
        # cut condition, at X = {s1, s2}.
        D = Digraph(["s1", "s2", "s3", "t"],
                    [("s1", "s2"), ("s2", "s1"), ("s1", "t"), ("s2", "t"),
                     ("s3", "t"), ("s3", "t")])
        inst = Instance(D, {v: v[0].upper() for v in D.vertices},
                        {v: 1 for v in D.vertices}, [1] * 6)
        for labels in itertools.product(range(2), repeat=4):
            check(inst, 2, dict(zip(range(2, 6), labels)))
        assert cut_only > 0

    def test_random_partitions_meet_conditions(self):
        rng = random.Random(47)
        done = 0
        for _ in range(25):
            inst = random_instance(rng, rng.randint(1, 2), rng.randint(1, 2),
                                   0.6, 2, 3, max_arcs=10,
                                   extra_cross=rng.randint(0, 3))
            witness = packing_number(inst)
            k = witness.k
            if k < 1:
                continue
            classes = partition_cross_arcs(inst, k, witness)
            assert len(classes) == k
            union = frozenset().union(*classes)
            assert union == inst.cross_arcs()
            assert sum(len(c) for c in classes) == len(union)
            assert _partition_conditions(inst, k, classes) is None
            # The construction end to end: both side packings succeed, and
            # the assembled classes are k disjoint b-bibranchings.
            failures, assembled = side_packing_failures(inst, classes)
            assert failures == [None, None]
            assert len(assembled) == k
            assert verify_packing(inst, assembled)
            done += 1
        assert done >= 8


class TestPrescribedPacking:
    def test_single_prescription_delegates(self):
        D = Digraph(["a", "b"], [("a", "b"), ("a", "b")])
        res = pack_prescribed_b_branchings(D, {"a": 1, "b": 1},
                                           [{"a": 0, "b": 1}])
        assert res.branchings is not None
        assert len(res.branchings[0]) == 1

    def test_two_parallel_arcs_split(self):
        D = Digraph(["a", "t"], [("a", "t"), ("a", "t")])
        res = pack_prescribed_b_branchings(D, {"a": 1, "t": 1},
                                           [{"t": 1}, {"t": 1}])
        assert res.branchings is not None
        assert res.branchings[0] | res.branchings[1] == frozenset({0, 1})
        assert not (res.branchings[0] & res.branchings[1])

    @pytest.mark.parametrize("prescription, message", [
        ({"zz": 1}, "unknown vertex id: 'zz'"),
        ({"t": True}, "prescription value at 't' must lie in [0, b(v)]"),
        ({"t": 3}, "prescription value at 't' must lie in [0, b(v)]"),
        ({"s": -1}, "prescription value at 's' must lie in [0, b(v)]")])
    def test_prescriptions_are_vertex_maps(self, prescription, message):
        # An unknown key was read as absent: {"zz": 1} packed as all zeros.
        D = Digraph(["s", "t"], [("s", "t"), ("s", "t")])
        with pytest.raises(InputError, match=re.escape(message)):
            pack_prescribed_b_branchings(D, {"s": 1, "t": 2}, [prescription])

    def test_degree_condition_failure_reported(self):
        D = Digraph(["a", "t"], [("a", "t")])
        res = pack_prescribed_b_branchings(D, {"a": 1, "t": 1},
                                           [{"t": 1}, {"t": 1}])
        assert res.branchings is None
        assert res.failed_condition == {"condition": "degree", "vertex": "t"}

    def test_iff_matches_exhaustive_oracle(self):
        rng = random.Random(48)
        done = 0
        while done < 20:
            D, b, _ = random_digraph(rng, rng.randint(2, 4), 0.55, 2)
            m = D.num_arcs()
            if m > 7:
                continue
            k = rng.randint(1, 3)
            prescriptions = [{v: rng.randint(0, b[v]) for v in D.vertices}
                             for _ in range(k)]
            exists = False
            for labels in itertools.product(range(k + 1), repeat=m):
                classes = [frozenset(a for a in range(m) if labels[a] == j)
                           for j in range(k)]
                if all(all(D.in_degree(c, v) == pj[v] for v in D.vertices)
                       for c, pj in zip(classes, prescriptions)) \
                        and all(is_b_branching(D, b, c) for c in classes):
                    exists = True
                    break
            res = pack_prescribed_b_branchings(D, b, prescriptions)
            assert (res.branchings is not None) == exists
            if exists:
                for c, pj in zip(res.branchings, prescriptions):
                    assert is_b_branching(D, b, c)
                    assert all(D.in_degree(c, v) == pj[v] for v in D.vertices)
            done += 1

    def test_cut_condition_past_thirteen_vertices(self):
        # A bidirected path on 13 vertices with one prescription rooted at
        # v00: only the path directed away from v00 fits.
        ids = ["v%02d" % i for i in range(13)]
        arcs = list(zip(ids, ids[1:])) + list(zip(ids[1:], ids))
        D = Digraph(ids, arcs)
        b = {v: 1 for v in ids}
        prescription = {v: int(v != "v00") for v in ids}
        res = pack_prescribed_b_branchings(D, b, [prescription])
        assert res.branchings == [frozenset(range(12))]
        assert is_b_branching(D, b, res.branchings[0])

    def test_reported_cut_set_violates(self):
        rng = random.Random(55)
        found = 0
        for _ in range(400):
            D, b, _ = random_digraph(rng, rng.randint(2, 5), 0.8, 2)
            prescriptions = [{v: rng.randint(0, b[v]) for v in D.vertices}
                             for _ in range(rng.randint(1, 3))]
            res = pack_prescribed_b_branchings(D, b, prescriptions)
            if res.failed_condition is None or \
                    res.failed_condition["condition"] != "cut":
                continue
            X = res.failed_condition["set"]
            tight = sum(1 for bj in prescriptions if all(bj[v] == b[v] for v in X))
            assert X and sum(1 for t, h in D.arcs if h in X and t not in X) < tight
            found += 1
        assert found >= 5

    def test_hypothesis_violation_reported(self):
        D = Digraph(["a", "t"], [("a", "t")])
        res = pack_prescribed_b_branchings(D, {"a": 1, "t": 1},
                                           [{"a": 1, "t": 1}])
        assert res.hypothesis_violations == [0]
        # A prescription equal to b asks for b(V) arcs, one more than a
        # b-branching holds, so the cut condition fails at X = V.
        D = Digraph(["a", "t"], [("a", "t"), ("t", "a"), ("a", "t")])
        res = pack_prescribed_b_branchings(D, {"a": 1, "t": 1},
                                           [{"a": 1, "t": 1}])
        assert res.hypothesis_violations == [0]
        assert res.branchings is None
        assert res.failed_condition == {"condition": "cut",
                                        "set": frozenset({"a", "t"})}


class TestFullPacking:
    def test_one_arc_certificate(self):
        cert = pack_b_bibranchings(one_arc_instance())
        assert cert.k == 1
        assert cert.classes == [frozenset({0})]

    def test_doubled_certificate(self):
        cert = pack_b_bibranchings(doubled_instance())
        assert cert.k == 2
        assert sorted(cert.classes) == [frozenset({0}), frozenset({1})]

    def test_certificate_size_equals_packing_number(self):
        rng = random.Random(49)
        for _ in range(25):
            inst = random_instance(rng, rng.randint(1, 2), rng.randint(1, 3),
                                   0.55, 2, 3, max_arcs=10,
                                   extra_cross=rng.randint(0, 3))
            cert = pack_b_bibranchings(inst)
            assert cert.k == packing_number(inst).k
            assert len(cert.classes) == cert.k
            assert verify_packing(inst, cert.classes)

    @pytest.mark.parametrize("seed", [728, 3527, 3771, 5065, 5611])
    def test_pool_instances_once_refused_pack_fully(self, seed):
        # Each of these once ended in a false "prescribed packing
        # infeasible" after the peel fell back to exhaustive search.
        inst = pack_pool_instance(seed)
        cert = pack_b_bibranchings(inst)
        assert cert.k == packing_number(inst).k == 3
        assert verify_packing(inst, cert.classes)

    def test_one_flow_network_per_separation_call(self, monkeypatch):
        # pack separates for the packing number and in every peel round.
        # Rounds with need 1 run at int points and search instead, so on
        # this instance (k = 3) the flows run for the packing number and
        # for the one need-2 round of stage 3.  Each of those two
        # ``min_bicut_candidates`` calls compiles two networks, before any
        # flow, and runs its |T| flows to each t on the first and its |S|
        # flows from each s on the second.
        events = []
        flow, candidates = lpsolve.max_flow_min_cut, lpsolve.min_bicut_candidates

        def compiling(nodes, arcs):
            events.append(("compile", FlowNetwork(nodes, arcs)))
            return events[-1][1]

        def flowing(network, *args):
            events.append(("flow", network))
            return flow(network, *args)

        def separating(*args):
            events.append(("call", None))
            return candidates(*args)

        monkeypatch.setattr(lpsolve, "FlowNetwork", compiling)
        monkeypatch.setattr(lpsolve, "max_flow_min_cut", flowing)
        for module in (lpsolve, packing):
            monkeypatch.setattr(module, "min_bicut_candidates", separating)
        calls = record_separations(monkeypatch)
        inst = pack_pool_instance(728)
        assert pack_b_bibranchings(inst).k == 3
        assert [need for _, need, _ in calls].count(2) == 1
        nT, nS = len(inst.T), len(inst.S)
        per_call = ["call", "compile", "compile"] + ["flow"] * (nT + nS)
        assert [kind for kind, _ in events] == per_call * 2
        networks = []
        for start in (0, len(per_call)):
            (_, into_T), (_, out_of_S), *flown = events[start + 1:start + len(per_call)]
            assert into_T is not out_of_S
            assert all(on is into_T for _, on in flown[:nT])
            assert all(on is out_of_S for _, on in flown[nT:])
            networks += [into_T, out_of_S]
        assert len({id(network) for network in networks}) == 4

    def test_mirror_separates_with_the_families_swapped(self):
        # The mirror reverses every arc and swaps S with T, so its flows to
        # each t are the instance's flows from each s and the other way
        # round: the same values, the two families in swapped order, each
        # cut read on the mirror's own arcs.
        rng = random.Random(61)
        instances = [pack_pool_instance(728)] + [
            random_instance(rng, rng.randint(1, 3), rng.randint(1, 3), 0.5, 2, 5,
                            max_arcs=12, extra_cross=rng.randint(0, 3))
            for _ in range(40)]
        for inst in instances:
            x = [Q(rng.randint(0, 6), rng.choice((1, 2, 3)))
                 for _ in range(inst.digraph.num_arcs())]
            own = [value for value, _ in min_bicut_candidates(inst, x)]
            mirrored = min_bicut_candidates(inst.mirror, x)
            assert [value for value, _ in mirrored] == own[len(inst.T):] + own[:len(inst.T)]
            for value, U in mirrored:
                assert value == sum(x[a] for a in inst.mirror.digraph.in_cut(U))

    def test_single_s_vertex_needs_two_cross_arcs_per_class(self):
        # S = {s0} with b(s0) = 2 and A[S] empty: every class must take two
        # cross arcs out of s0, so a stage may not peel a single arc.
        D = Digraph(["s0", "t0", "t1"],
                    [("s0", "t0")] * 4 + [("s0", "t1")] * 3 + [("t1", "t0")])
        inst = Instance(D, {"s0": "S", "t0": "T", "t1": "T"},
                        {"s0": 2, "t0": 1, "t1": 1}, [1] * 8)
        witness = packing_number(inst)
        assert witness.k == 3
        classes = partition_cross_arcs(inst, 3, witness)
        assert all(D.out_degree(H_j, "s0") >= 2 for H_j in classes)
        cert = pack_b_bibranchings(inst)
        assert cert.k == 3
        assert verify_packing(inst, cert.classes)

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_packings_of_two_or_more_never_raise(self, data):
        # pack peels chi_A, so a fractional stage vertex or a class that is
        # no b-bibranching would raise; instances are redrawn from one
        # seeded generator until k >= 2.
        rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1),
                                      label="seed"))
        nS = data.draw(st.integers(1, 3), label="nS")
        nT = data.draw(st.integers(1, 3), label="nT")
        bmax = data.draw(st.integers(1, 3), label="bmax")
        while True:
            inst = random_instance(rng, nS, nT, 0.9, bmax, 5, max_arcs=24,
                                   extra_cross=rng.randint(0, 12))
            k = packing_number(inst).k
            if k >= 2:
                break
        cert = pack_b_bibranchings(inst)
        assert cert.k == k
        assert len(cert.classes) == k
        assert verify_packing(inst, cert.classes)

    def test_weak_direction_bound(self):
        # Any verified packing is no larger than each of the three witnesses.
        rng = random.Random(50)
        for _ in range(10):
            inst = random_instance(rng, rng.randint(1, 2), rng.randint(1, 2),
                                   0.6, 2, 3, max_arcs=10,
                                   extra_cross=rng.randint(0, 2))
            cert = pack_b_bibranchings(inst)
            wit = cert.witness
            assert cert.k <= wit.t_min
            assert cert.k <= wit.s_min
            assert cert.k <= wit.bicut_min


def record_separations(monkeypatch):
    """Log each ``_violated_bicuts`` call as (calling function, need, sorted
    U of each cut returned): ``integer_decomposition_check`` separates the
    input rows, ``_solve_with_cuts`` the peel's lower rows and ``decompose``
    its upper rows."""
    calls = []
    original = lpsolve._violated_bicuts

    def recorded(instance, x, need=1):
        cuts = original(instance, x, need)
        calls.append((sys._getframe(1).f_code.co_name, need,
                      [sorted(U) for U, _ in cuts]))
        return cuts

    monkeypatch.setattr(lpsolve, "_violated_bicuts", recorded)
    return calls


class TestIntegerDecomposition:
    def test_k1_identity(self):
        inst = one_arc_instance()
        classes = integer_decomposition_check(inst, 1, [1])
        assert classes == [frozenset({0})]

    def test_k_copies_of_one_solution(self):
        inst = doubled_instance()
        classes = integer_decomposition_check(inst, 2, [2, 2])
        assert len(classes) == 2
        for a in (0, 1):
            assert sum(1 for c in classes if a in c) == 2

    def test_entries_must_lie_between_zero_and_k(self):
        D = Digraph(["s", "t0", "t1"], [("s", "t0"), ("s", "t1")])
        inst = Instance(D, {"s": "S", "t0": "T", "t1": "T"},
                        {"s": 1, "t0": 1, "t1": 1}, [1, 1])
        with pytest.raises(InputError, match="x\\(0\\)"):
            integer_decomposition_check(inst, 1, [2, 1])
        # One entry per arc, as a list or a dict by arc index.
        for x in ([1], [1, 1, 1], {0: 1, 1: 1, 7: 3}, {0: 1, True: 1}):
            with pytest.raises(InputError, match=re.escape(
                    "x must have exactly one entry per arc (2)")):
                integer_decomposition_check(inst, 1, x)
        assert integer_decomposition_check(inst, 1, {1: 1, 0: 1}) == [
            frozenset({0, 1})]

    @pytest.mark.parametrize("k", [1.0, 2.0, 1.5, "2", True])
    def test_k_must_be_a_positive_int(self, k):
        with pytest.raises(InputError, match="k must be an integer at least 1"):
            integer_decomposition_check(doubled_instance(), k, [1, 1])

    def test_precondition_failure_names_row(self):
        inst = one_arc_instance()
        with pytest.raises(InputError, match="indegree row"):
            integer_decomposition_check(inst, 2, [1])

    def test_bicut_precondition_failure_names_the_set(self):
        # Every degree row holds, but no arc of x enters U = T.
        D = Digraph(["s0", "s1", "t0", "t1"],
                    [("s0", "s1"), ("s1", "s0"), ("s0", "t0"), ("t0", "t1"),
                     ("t1", "t0")])
        inst = Instance(D, {v: v[0].upper() for v in D.vertices},
                        {v: 1 for v in D.vertices}, [1] * 5)
        with pytest.raises(InputError, match=re.escape(
                "scaled bicut row fails at U = ['t0', 't1']")):
            integer_decomposition_check(inst, 1, [1, 1, 0, 1, 1])

    def test_random_points_decompose(self):
        from bbibranch.bibranching import brute_force_shortest

        rng = random.Random(51)
        done = 0
        while done < 10:
            inst = random_instance(rng, rng.randint(1, 2), rng.randint(1, 3),
                                   0.6, 2, 5, max_arcs=10)
            sol = brute_force_shortest(inst)
            if sol is None:
                continue
            k = rng.randint(1, 3)
            m = inst.digraph.num_arcs()
            x = [k if a in sol.arcs else 0 for a in range(m)]
            for a in range(m):
                if x[a] < k and rng.random() < 0.3:
                    x[a] += rng.randint(0, k - x[a])
            classes = integer_decomposition_check(inst, k, x)
            assert len(classes) == k
            for a in range(m):
                assert sum(1 for c in classes if a in c) == x[a]
            for c in classes:
                assert is_b_bibranching(inst, c)
            done += 1

    def test_classes_do_not_depend_on_the_row_order(self):
        # A stage's class is its one least 0/1 point under the costs 2^a, so
        # solving every stage LP with its rows permuted peels the same
        # classes: chi_A of each digest draw with packing number k >= 2, as
        # pack peels it.
        cases = [(inst, k, [1] * inst.digraph.num_arcs()) for inst in digest_draws()
                 if (k := packing_number(inst).k) >= 2]
        want = [lpsolve.decompose(*case) for case in cases]
        for seed in range(3):
            with pytest.MonkeyPatch.context() as patch:
                permute_rows(patch, seed)
                assert [lpsolve.decompose(*case) for case in cases] == want

    def test_class_may_hold_an_arc_once_only(self):
        # s0 needs outdegree 2 in each class, so both classes must use arc 0
        # and split arcs 1 and 2; a class can never hold an arc twice.
        D = Digraph(["s0", "t0"], [("s0", "t0")] * 5)
        inst = Instance(D, {"s0": "S", "t0": "T"}, {"s0": 2, "t0": 1},
                        [1] * 5)
        x = [2, 1, 1, 0, 0]
        classes = integer_decomposition_check(inst, 2, x)
        assert [sum(1 for c in classes if a in c) for a in range(5)] == x
        assert all(is_b_bibranching(inst, c) for c in classes)

    def test_peel_leaves_a_decomposable_rest(self, monkeypatch):
        # x = {1, 3} + {0, 3, 5} + {1, 2, 4}.  The smallest first class is
        # {1, 3}; peeling it again would leave no arc from S to T, which the
        # upper row on the bicut U = T forbids.
        inst = two_cycles_instance()
        x = [1, 2, 1, 2, 1, 1]
        calls = record_separations(monkeypatch)
        classes = integer_decomposition_check(inst, 3, x)
        assert [sum(1 for c in classes if a in c) for a in range(6)] == x
        assert all(is_b_bibranching(inst, c) for c in classes)
        assert ("decompose", 1, [["t0", "t1"]]) in calls

    def test_upper_separation_returning_a_row_again_is_a_theorem_violation(
            self, monkeypatch):
        # The peel reports a repeated upper row instead of dropping it.
        inst = two_cycles_instance()
        repeat_separations(monkeypatch, "decompose")
        with pytest.raises(TheoremViolation,
                           match="separated bicut is not violated") as caught:
            integer_decomposition_check(inst, 3, [1, 2, 1, 2, 1, 1])
        assert caught.value.payload["U"] == frozenset({"t0", "t1"})

    def test_last_class_is_the_residual(self, monkeypatch):
        # With one class left the bounds would fix y = x_res, so no stage
        # separates with need 0 and no LP has every column fixed.
        inst = two_cycles_instance()
        calls = record_separations(monkeypatch)
        lps = []
        original = lpsolve.simplex_solve

        def recorded(lp):
            lps.append((list(lp.lower), list(lp.upper)))
            return original(lp)

        monkeypatch.setattr(lpsolve, "simplex_solve", recorded)
        classes = integer_decomposition_check(inst, 3, [1, 2, 1, 2, 1, 1])
        assert len(classes) == 3
        assert {need for _, need, _ in calls} == {1, 2, 3}
        assert lps and all(lower != upper for lower, upper in lps)

    def test_peel_adds_a_lower_bicut_row(self, monkeypatch):
        # Each side is a 2-cycle, with one cross arc per class.  The
        # smallest point of the degree rows alone is the two 2-cycles, with
        # no arc from S to T; the lower row on U = T adds a cross arc.
        D = Digraph(["s0", "s1", "t0", "t1"],
                    [("s0", "s1"), ("s1", "s0"), ("t0", "t1"), ("t1", "t0"),
                     ("s0", "t0"), ("s1", "t1")])
        inst = Instance(D, {v: v[0].upper() for v in D.vertices},
                        {v: 1 for v in D.vertices}, [1] * 6)
        calls = record_separations(monkeypatch)
        classes = integer_decomposition_check(inst, 2, [2, 2, 2, 2, 1, 1])
        assert classes == [frozenset({0, 1, 2, 3, 4}),
                           frozenset({0, 1, 2, 3, 5})]
        assert ("_solve_with_cuts", 1, [["t0", "t1"]]) in calls

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_sums_of_b_bibranchings_decompose(self, data):
        # Instances are redrawn from the same generator until feasible.  A
        # class is the full arc set minus a drawn subset, or the full arc
        # set when that is no b-bibranching (superset closure keeps it one).
        rng = data.draw(st.randoms(use_true_random=False), label="rng")
        nS = data.draw(st.integers(1, 2), label="nS")
        nT = data.draw(st.integers(1, 3), label="nT")
        extra = data.draw(st.integers(0, 4), label="extra_cross")
        while True:
            inst = random_instance(rng, nS, nT, 0.7, 3, 5, max_arcs=12,
                                   extra_cross=extra)
            if feasibility_witness(inst) is None:
                break
        m = inst.digraph.num_arcs()
        full = frozenset(range(m))
        k = data.draw(st.integers(2, 4), label="k")
        x = [0] * m
        for j in range(k):
            drop = data.draw(st.frozensets(st.sampled_from(range(m))),
                             label="drop %d" % j)
            chosen = full - drop
            for a in chosen if is_b_bibranching(inst, chosen) else full:
                x[a] += 1
        classes = integer_decomposition_check(inst, k, x)
        assert len(classes) == k
        assert [sum(1 for c in classes if a in c) for a in range(m)] == x
        assert all(is_b_bibranching(inst, c) for c in classes)

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_sums_of_lp_optima_decompose(self, data):
        # x sums k b-bibranchings, each LP-optimal under drawn weights, as
        # ``check --what idp`` draws it; instances are redrawn from one
        # seeded generator until feasible.
        rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1),
                                      label="seed"))
        nS = data.draw(st.integers(1, 4), label="nS")
        nT = data.draw(st.integers(1, 4), label="nT")
        while True:
            inst = random_instance(rng, nS, nT, 0.7, 3, 5, max_arcs=24,
                                   extra_cross=rng.randint(0, 6))
            if feasibility_witness(inst) is None:
                break
        D, m = inst.digraph, inst.digraph.num_arcs()
        side = {v: "S" if v in inst.S else "T" for v in D.vertices}
        k = data.draw(st.integers(2, 4), label="k")
        x = [0] * m
        for j in range(k):
            weights = data.draw(st.lists(st.integers(0, 20), min_size=m,
                                         max_size=m), label="weights %d" % j)
            for a in solve_shortest(Instance(D, side, inst.b, weights),
                                    method="lp").arcs:
                x[a] += 1
        classes = integer_decomposition_check(inst, k, x)
        assert len(classes) == k
        assert [sum(1 for c in classes if a in c) for a in range(m)] == x
        assert all(is_b_bibranching(inst, c) for c in classes)
