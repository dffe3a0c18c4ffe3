"""Write the recorded instance pools and their references.

    python3 perfbench/make_pools.py

References come from methods that share no code path with the command under
test:

* solve-small: the exhaustive bitmask optimum (``brute_force_shortest``).
* solve-sparse: a floating-point MILP (scipy's HiGHS) over the degree rows
  and every bicut row, enumerated explicitly; its arc set is re-checked
  exactly and must agree with the exact cutting plane.
* pack: the min-max bound (degree ratios and the smallest bicut, both by
  plain enumeration).  Any packing of that size that passes
  ``verify_packing`` is therefore maximum.

Each entry has a descriptive ``kind`` (solve-small: shape |S|x|T|;
solve-sparse: cutting-plane rounds; pack: outcome of the ``pack`` command,
one of clean, fallback, guard, exit<code>) and its ``cost_s``: the median of
three timed runs of the command, after one untimed run, when the pool was
made, under the benchmark's fixed ``PYTHONHASHSEED``
(``workloads.pin_hash_seed``), each read at the benchmark's reference
machine speed (``reference_time``), so costs timed while the host ran fast
or slow still rank the instances alike.  The sampling ``stratum`` is the kind for
failing instances and otherwise the cost band: costs within a factor of
1.3 share a band.  Cost bands keep the mix of cheap and expensive
instances, and so throughput and the latency percentiles, nearly the same
on every seed; failure strata keep every failure class at its pool share.
Rerun this script only when a generator changes or the program's costs
have moved enough to reorder the pool; the benchmark refuses a pool whose
digests no longer match the generator.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from run import CALIBRATION_REF_S, calibration_chunk  # noqa: E402
from bbibranch import cli, lpsolve, packing  # noqa: E402
from bbibranch.bibranching import (bibranching_report,  # noqa: E402
                                   brute_force_shortest, feasibility_witness)
from bbibranch.rationals import rat_str  # noqa: E402

POOL_SIZES = {"solve-small": 1500, "solve-sparse": 400, "pack": 2000}


def eligible_cuts(instance):
    """Vertex sets U whose entering arcs form a bicut: U within T, or
    T within U with U missing some S vertex."""
    T = sorted(instance.T)
    S = sorted(instance.S)
    for r in range(1, len(T) + 1):
        for combo in itertools.combinations(T, r):
            yield frozenset(combo)
    for r in range(1, len(S) + 1):
        for combo in itertools.combinations(S, r):
            if r < len(S):
                yield frozenset(T) | (frozenset(S) - frozenset(combo))


def entering(instance, U):
    return frozenset(a for a, (t, h) in enumerate(instance.digraph.arcs)
                     if h in U and t not in U)


def milp_optimum(instance):
    """Optimal value of the 0/1 program with every bicut row, checked exactly."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    D = instance.digraph
    m = D.num_arcs()
    rows, lower = [], []
    for v in sorted(instance.T):
        rows.append(D.in_arcs(v))
        lower.append(instance.b[v])
    for u in sorted(instance.S):
        rows.append(D.out_arcs(u))
        lower.append(instance.b[u])
    seen = set()
    for U in eligible_cuts(instance):
        cut = entering(instance, U)
        if cut not in seen:
            seen.add(cut)
            rows.append(cut)
            lower.append(1)
    A = np.zeros((len(rows), m))
    for i, arcs in enumerate(rows):
        for a in arcs:
            A[i, a] = 1.0
    res = milp(c=np.array([float(w) for w in instance.weights]),
               constraints=LinearConstraint(A, np.array(lower, float), np.inf),
               integrality=np.ones(m), bounds=Bounds(0, 1),
               options={"mip_rel_gap": 0})
    if not res.success:
        raise RuntimeError("MILP failed: %s" % res.message)
    arcs = [a for a in range(m) if res.x[a] > 0.5]
    report = bibranching_report(instance, arcs)
    if not all(entry["ok"] for entry in report.values()):
        raise RuntimeError("MILP arc set is not a b-bibranching")
    value = instance.weight_of(arcs)
    if abs(float(value) - res.fun) > 1e-6:
        raise RuntimeError("MILP objective %r differs from its arc set" % res.fun)
    return value


def packing_bound(instance):
    D = instance.digraph
    bound = min([len(D.in_arcs(v)) // instance.b[v] for v in instance.T]
                + [len(D.out_arcs(u)) // instance.b[u] for u in instance.S])
    for U in eligible_cuts(instance):
        bound = min(bound, len(entering(instance, U)))
    return bound


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def label_solve_small(instance, shape, path):
    best = brute_force_shortest(instance)
    if best is None:
        return None
    return shape, {"value": rat_str(best.weight)}, False


def label_solve_sparse(instance, shape, path):
    if feasibility_witness(instance) is not None:
        return None
    value = milp_optimum(instance)
    exact = lpsolve.solve_primal_cutting_plane(instance)
    if exact.value != value:
        raise RuntimeError("cutting plane %s disagrees with MILP %s"
                           % (exact.value, value))
    kind = "rounds%d" % exact.rounds if exact.rounds < 4 else "rounds4+"
    return kind, {"value": rat_str(value)}, False


def label_pack(instance, shape, path):
    if feasibility_witness(instance) is not None:
        return None
    k = packing_bound(instance)
    if k < 2:
        return None
    if packing.packing_number(instance).k != k:
        raise RuntimeError("packing_number disagrees with the min-max bound")
    fallbacks = []
    original = packing._exhaustive_partition
    packing._exhaustive_partition = (
        lambda *a, **kw: fallbacks.append(1) or original(*a, **kw))
    try:
        code, _ = run_cli(["pack", str(path)])
    finally:
        packing._exhaustive_partition = original
    if code == 0:
        return ("fallback" if fallbacks else "clean"), {"k": k}, False
    return ("guard" if code == 4 else "exit%d" % code), {"k": k}, True


LABELERS = {"solve-small": label_solve_small,
            "solve-sparse": label_solve_sparse,
            "pack": label_pack}


COST_BAND_RATIO = 1.3


def reference_time(command) -> float:
    """Seconds ``command()`` takes, over the slowdown of the calibration
    chunks timed just before and after it (as ``run.SideWork`` scales)."""
    before = calibration_chunk()
    start = time.perf_counter()
    command()
    elapsed = time.perf_counter() - start
    slowdown = math.sqrt(before * calibration_chunk()) / CALIBRATION_REF_S
    return elapsed / slowdown


def stratum(kind: str, failing: bool, cost_s: float) -> str:
    if failing:
        return kind
    return "t%d" % math.floor(math.log(max(cost_s, 1e-4) / 1e-3, COST_BAND_RATIO))


def build(name, size, scratch: Path):
    wl = workloads.WORKLOADS[name]
    entries = []
    sub_seed = 0
    path = scratch / "pool_instance.json"
    while len(entries) < size:
        doc, shape = wl.generator(sub_seed)
        text = workloads.instance_text(doc)
        path.write_text(text, encoding="utf-8")
        instance = cli.load_instance_data(doc)
        labelled = LABELERS[name](instance, shape, path)
        if labelled is not None:
            kind, ref, failing = labelled
            run_cli([wl.command, str(path)])
            costs = [reference_time(lambda: run_cli([wl.command, str(path)]))
                     for _ in range(3)]
            cost = round(statistics.median(costs), 4)
            entries.append({"seed": sub_seed, "digest": workloads.text_digest(text),
                            "kind": kind, "stratum": stratum(kind, failing, cost),
                            "m": instance.digraph.num_arcs(), "cost_s": cost,
                            "ref": ref})
        sub_seed += 1
    path.unlink()
    return entries


def main():
    scratch = HERE.parent / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    for name in sorted(workloads.WORKLOADS):
        entries = build(name, POOL_SIZES[name], scratch)
        counts = {}
        for e in entries:
            counts[e["kind"]] = counts.get(e["kind"], 0) + 1
        ms = [e["m"] for e in entries]
        print("%s: %d entries from sub-seeds 0..%d, m %d-%d, kinds %s"
              % (name, len(entries), entries[-1]["seed"], min(ms), max(ms),
                 json.dumps(counts, sort_keys=True)), flush=True)
        with open(workloads.pool_path(name), "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "entries": entries}, fh,
                      sort_keys=True, separators=(",", ":"))
            fh.write("\n")


if __name__ == "__main__":
    workloads.pin_hash_seed()
    main()
