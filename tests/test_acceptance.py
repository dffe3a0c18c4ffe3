"""Acceptance gate: one test per criterion, one pass/fail line each.

Every criterion is checked at the stated sizes with exact arithmetic; any
failure here is a release blocker, not a tolerance to adjust.
"""

import itertools
import random
import subprocess
import sys

from bbibranch.bibranching import (Instance, brute_force_shortest,
                                   feasibility_witness, solve_shortest)
from bbibranch.digraph import Digraph
from bbibranch.lpsolve import (dual_bound, solve_primal_cutting_plane,
                               tdi_spot_check)
from bbibranch.matroids import is_b_branching
from bbibranch.mconvex import (BBranchingOracle, check_mnat_exchange,
                               exchange_b_branchings, solve_mflow)
from bbibranch.packing import (build_system, cut_family, find_integral_point,
                               pack_b_bibranchings,
                               pack_prescribed_b_branchings, packing_number,
                               verify_packing)
from bbibranch.rationals import is_integral

from conftest import (oracle_max_disjoint_packing, random_digraph,
                      random_instance)
from paper_lemmas import _find_any_two_partition, two_partition


def _report(criterion: str, passed: bool) -> None:
    print("ACCEPTANCE %s: %s" % (criterion, "PASS" if passed else "FAIL"))
    assert passed, criterion


def _corpus(seed: int, count: int, max_v: int, max_arcs: int, bmax: int,
            wmax: int):
    """Seeded instance stream with |V| <= max_v and |A| <= max_arcs."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        nS = rng.randint(1, max_v - 1)
        nT = rng.randint(1, max_v - nS)
        out.append(random_instance(rng, nS, nT, rng.uniform(0.3, 0.9),
                                   bmax, wmax, max_arcs=max_arcs,
                                   extra_cross=rng.randint(0, 2)))
    return out


def test_criterion_1_solver_equivalence():
    """200 seeded instances: brute force = cutting plane = flow solver, on
    the value and, through ``solve_shortest``'s canonical weights, on the
    arcs; the unweighted routes agree on the value too."""
    ok = True
    for inst in _corpus(1001, 200, 6, 14, 3, 9):
        bf = brute_force_shortest(inst)
        if bf is None:
            if feasibility_witness(inst) is None:
                ok = False
                break
            continue
        lp = solve_primal_cutting_plane(inst)
        mf = solve_mflow(inst)
        answers = [solve_shortest(inst, method) for method in ("lp", "mflow", "brute")]
        if not (lp.solution.weight == bf.weight == mf.weight
                and len({answer.arcs for answer in answers}) == 1
                and all(answer.weight == bf.weight for answer in answers)):
            ok = False
            break
    _report("1 solver-equivalence", ok)


def test_criterion_2_lp_integrality():
    """Cutting-plane vertices are 0/1 everywhere; a fractional one raises."""
    ok = True
    for inst in _corpus(1002, 200, 6, 14, 3, 9):
        if feasibility_witness(inst) is not None:
            continue
        res = solve_primal_cutting_plane(inst)
        if not all(is_integral(v) and v in (0, 1) for v in res.x):
            ok = False
            break
    _report("2 lp-integrality", ok)


def test_criterion_3_tdi_integral_duals():
    """50 seeded feasible instances admit an integral optimal dual."""
    ok = True
    rng = random.Random(1003)
    done = 0
    while done < 50:
        nS = rng.randint(1, 3)
        nT = rng.randint(1, min(3, 6 - nS))
        inst = random_instance(rng, nS, nT, rng.uniform(0.4, 0.9), 2, 9,
                               max_arcs=12, extra_cross=rng.randint(0, 2))
        if feasibility_witness(inst) is not None:
            continue
        out = tdi_spot_check(inst)
        if dual_bound(inst, out["y"]) != out["primal"] \
                or not all(is_integral(v) for v in out["y"].values()):
            ok = False
            break
        done += 1
    _report("3 tdi-integral-dual", ok)


def test_criterion_4_min_max_packing():
    """100 instances with |V| <= 5: k = exhaustive max, certificate of size k."""
    ok = True
    for inst in _corpus(1004, 100, 5, 10, 3, 3):
        wit = packing_number(inst)
        if wit.k != oracle_max_disjoint_packing(inst):
            ok = False
            break
        cert = pack_b_bibranchings(inst)
        if cert.k != wit.k or len(cert.classes) != wit.k \
                or not verify_packing(inst, cert.classes):
            ok = False
            break
    _report("4 min-max-packing", ok)


def test_criterion_5_gpolymatroid_claims():
    """Family closure, supermodularity, value bound, uniform point, 0/1 vertex."""
    ok = True
    rng = random.Random(1005)
    done = 0
    while done < 30 and ok:
        nS = rng.randint(1, 2)
        nT = rng.randint(1, 3)
        inst = random_instance(rng, nS, nT, rng.uniform(0.4, 0.9), 2, 3,
                               max_arcs=10, extra_cross=rng.randint(0, 3))
        k = packing_number(inst).k
        if k < 1:
            continue
        done += 1
        for view in (inst, inst.mirror):
            g = cut_family(view, k)
            for C1, C2 in itertools.combinations(g, 2):
                if C1 & C2:
                    ok &= (C1 | C2) in g and (C1 & C2) in g
                    ok &= g[C1] + g[C2] <= g[C1 | C2] + g[C1 & C2]
            for C, gC in g.items():
                ok &= gC <= min(k, len(C))
        p1 = build_system(inst, k)
        p2 = build_system(inst.mirror, k)
        ones = dict.fromkeys(p1.var_arcs, 1)
        ok &= p1.check_point(ones, k) == [] and p2.check_point(ones, k) == []
        point = find_integral_point(p1, p2)
        ok &= set(point.values()) <= {0, 1}
    _report("5 gpolymatroid-claims", bool(ok) and done == 30)


def test_criterion_6_mnat_exchange():
    """1000 (x, y, u) triples per instance on f and g, 30 instances."""
    ok = True
    rng = random.Random(1006)
    for _ in range(30):
        D, b, w = random_digraph(rng, rng.randint(2, 5), 0.6, 2)
        oracle = BBranchingOracle(D, b, w)
        for evaluator in (oracle.eval_f, oracle.eval_g):
            triples = 0
            attempts = 0
            while triples < 1000 and attempts < 100000:
                attempts += 1
                x = {v: rng.randint(0, b[v] + 1) for v in D.vertices}
                y = {v: rng.randint(0, b[v] + 1) for v in D.vertices}
                if evaluator(x) is None or evaluator(y) is None:
                    continue
                passed, _ = check_mnat_exchange(evaluator, D.vertices, x, y)
                if not passed:
                    ok = False
                    break
                triples += sum(1 for v in D.vertices
                               if x.get(v, 0) > y.get(v, 0))
            if not ok:
                break
        if not ok:
            break
    _report("6 mnat-exchange", ok)


def test_criterion_7_lemma_equivalences():
    """Two-partition iff condition and exchange-lemma conclusions."""
    ok = True
    rng = random.Random(1007)

    done = 0
    while done < 30 and ok:
        n = rng.randint(4, 5)
        D, b, _ = random_digraph(rng, n, 0.4, 2)
        m = D.num_arcs()
        if m > 9 or _find_any_two_partition(D, b) is None:
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
                    and is_b_branching(D, b, B1) and is_b_branching(D, b, B2):
                exists = True
                break
        out = two_partition(D, b, b1, b2)
        ok &= (out[0] is not None) == exists
        done += 1
    ok &= done == 30

    done = 0
    attempts = 0
    while done < 40 and attempts < 8000 and ok:
        attempts += 1
        n = rng.randint(4, 5)
        D, b, _ = random_digraph(rng, n, 0.35, 2)
        m = D.num_arcs()
        if m > 8:
            continue
        branchings = []
        for r in range(m + 1):
            for combo in itertools.combinations(range(m), r):
                B = frozenset(combo)
                if is_b_branching(D, b, B):
                    branchings.append(B)
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
        ok &= B1p | B2p == B1 | B2 and B1p & B2p == B1 & B2
        ok &= is_b_branching(D, b, B1p) and is_b_branching(D, b, B2p)
        exp1 = {v: D.in_degree(B1, v) for v in D.vertices}
        exp2 = {v: D.in_degree(B2, v) for v in D.vertices}
        exp1[s] += 1
        exp2[s] -= 1
        d1p = {v: D.in_degree(B1p, v) for v in D.vertices}
        d2p = {v: D.in_degree(B2p, v) for v in D.vertices}
        if case == "a":
            ok &= d1p == exp1 and d2p == exp2
        else:
            moved = {v for v in D.vertices if d1p[v] != exp1[v]}
            ok &= len(moved) == 1
            if moved:
                t = moved.pop()
                ok &= t != s and d1p[t] == exp1[t] - 1 \
                    and d2p[t] == exp2[t] + 1
        done += 1
    ok &= done == 40
    _report("7 lemma-equivalences", bool(ok))


def _min_edge_cover(inst: Instance):
    """Brute-force minimum-weight edge cover of a bipartite instance."""
    D = inst.digraph
    best = None
    for r in range(D.num_arcs() + 1):
        for combo in itertools.combinations(range(D.num_arcs()), r):
            B = frozenset(combo)
            if all(D.out_degree(B, u) >= 1 for u in inst.S) \
                    and all(D.in_degree(B, v) >= 1 for v in inst.T):
                w = inst.weight_of(B)
                if best is None or w < best:
                    best = w
    return best


def _min_arborescence(D: Digraph, root: str, weights):
    """Brute-force shortest spanning arborescence by in-arc choice per vertex."""
    others = [v for v in D.vertices if v != root]
    choices = [D.in_arcs(v) for v in others]
    if any(not c for c in choices):
        return None
    best = None
    for pick in itertools.product(*choices):
        B = frozenset(pick)
        if D.reachable_from(B, {root}) == frozenset(D.vertices):
            w = sum(weights[a] for a in pick)
            if best is None or w < best:
                best = w
    return best


def test_criterion_8_special_cases():
    """b = 1 regressions: edge cover, arborescence, branching packing."""
    ok = True
    rng = random.Random(1008)

    # (a) bipartite, only cross arcs: shortest 1-bibranching = min edge cover
    done = 0
    while done < 15 and ok:
        nS, nT = rng.randint(1, 3), rng.randint(1, 3)
        s_ids = ["s%d" % i for i in range(nS)]
        t_ids = ["t%d" % i for i in range(nT)]
        arcs = [(u, v) for u in s_ids for v in t_ids
                if rng.random() < 0.7][:10]
        side = {v: "S" for v in s_ids}
        side.update({v: "T" for v in t_ids})
        b = {v: 1 for v in side}
        inst = Instance(Digraph(s_ids + t_ids, arcs), side, b,
                        [rng.randint(0, 9) for _ in arcs])
        cover = _min_edge_cover(inst)
        if cover is None:
            continue
        for method in ("lp", "mflow", "brute"):
            ok &= solve_shortest(inst, method).weight == cover
        done += 1
    ok &= done == 15

    # (b) S = {s}, b = 1: optimum = shortest spanning s-arborescence value
    done = 0
    while done < 15 and ok:
        nT = rng.randint(1, 4)
        t_ids = ["t%d" % i for i in range(nT)]
        arcs = [("s", v) for v in t_ids if rng.random() < 0.7]
        arcs += [(u, v) for u in t_ids for v in t_ids
                 if u != v and rng.random() < 0.4]
        arcs = arcs[:10]
        side = {"s": "S"}
        side.update({v: "T" for v in t_ids})
        b = {v: 1 for v in side}
        w = [rng.randint(0, 9) for _ in arcs]
        D = Digraph(["s"] + t_ids, arcs)
        inst = Instance(D, side, b, w)
        arb = _min_arborescence(D, "s", w)
        if arb is None:
            continue
        ok &= solve_shortest(inst, "auto").weight == arb
        done += 1
    ok &= done == 15

    # (c) b = 1 prescribed packing reproduces disjoint spanning branchings:
    # feasibility coincides with the root-cut criterion, checked directly.
    done = 0
    attempts = 0
    while done < 15 and attempts < 3000 and ok:
        attempts += 1
        D, _, _ = random_digraph(rng, rng.randint(3, 4), 0.6, 1)
        if D.num_arcs() > 7:
            continue
        root = D.vertices[0]
        k = rng.randint(1, 2)
        b = {v: k for v in D.vertices}
        prescriptions = [
            {v: (0 if v == root else 1) for v in D.vertices}
            for _ in range(k)]
        res = pack_prescribed_b_branchings(D, b, prescriptions)
        # Root-cut criterion: every nonempty X avoiding the root has
        # at least k entering arcs.
        criterion = True
        others = [v for v in D.vertices if v != root]
        for r in range(1, len(others) + 1):
            for combo in itertools.combinations(others, r):
                X = frozenset(combo)
                if len(D.in_cut(X)) < k:
                    criterion = False
        ok &= (res.branchings is not None) == criterion
        if res.branchings is not None:
            for B in res.branchings:
                ok &= D.reachable_from(B, {root}) == frozenset(D.vertices)
                ok &= all(D.in_degree(B, v) == 1 for v in others)
            for i in range(k):
                for j in range(i + 1, k):
                    ok &= not (res.branchings[i] & res.branchings[j])
        done += 1
    ok &= done == 15
    _report("8 special-cases", bool(ok))


def test_criterion_9_determinism(tmp_path):
    """Identical seeds give byte-identical reports over two full runs."""
    def corpus_run():
        chunks = []
        for seed in range(4):
            gen = subprocess.run(
                [sys.executable, "-m", "bbibranch.cli", "gen",
                 "--seed", str(seed), "--nS", "2", "--nT", "2",
                 "--arc-density", "0.7", "--bmax", "2", "--wmax", "9"],
                capture_output=True, text=True)
            chunks.append(gen.stdout)
            path = tmp_path / ("i%d.json" % seed)
            path.write_text(gen.stdout)
            for cmd in (["solve"], ["packing-number"], ["pack"],
                        ["check", "--what", "mconvex", "--trials", "5",
                         "--seed", "1"]):
                out = subprocess.run(
                    [sys.executable, "-m", "bbibranch.cli"] + cmd + [str(path)],
                    capture_output=True, text=True)
                chunks.append("exit=%d\n%s" % (out.returncode, out.stdout))
        return "".join(chunks)

    first = corpus_run()
    second = corpus_run()
    _report("9 determinism", first == second and len(first) > 0)
