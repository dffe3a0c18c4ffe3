"""Seeded workloads: instance generators, recorded pools and output checks.

Every workload draws its instances from a recorded pool (``pools/*.json``).
A pool entry holds the sub-seed that regenerates the instance, the SHA-256
prefix of its instance file (so a changed generator is caught instead of
silently checked against stale references), a descriptive kind, a stratum
label and the reference the outputs are checked against.
``make_pools.py`` writes the pools; the benchmark only reads them.

A run's seed picks a stratified sample of the pool: every stratum keeps its
pool share, and inside a stratum one entry is drawn from each run of
entries of neighbouring cost.  Strata are cost bands (and, for ``pack``,
the failing outcomes), so the mix of cheap and expensive instances, and
every failure class, is the same on every seed; per-seed spread comes only
from the choice between instances of nearly the same recorded cost.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

POOL_DIR = Path(__file__).resolve().parent / "pools"
HASH_SEED = "0"


def pin_hash_seed() -> None:
    """Re-execute the running script with ``PYTHONHASHSEED`` fixed, unless it is.

    ``bbibranch`` iterates sets of vertex-id strings, whose order follows the
    string hash, and the order decides which branch a search or a max-flow
    tries first: the same ``pack`` instance took 0.034 s per command under
    one hash seed and 0.067 s under another.  With a fixed seed an instance
    costs the same in every run and when its pool cost was recorded.  The
    process is replaced (``execve``), not forked.
    """
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))


# ---------------------------------------------------------------------------
# Instance generators (JSON documents in the CLI's instance-file format)
# ---------------------------------------------------------------------------

def _document(s_ids, t_ids, arcs, b, weights) -> dict:
    vertices = [{"id": v, "side": "S", "b": b[v]} for v in s_ids]
    vertices += [{"id": v, "side": "T", "b": b[v]} for v in t_ids]
    return {"vertices": vertices,
            "arcs": [{"tail": t, "head": h, "weight": w}
                     for (t, h), w in zip(arcs, weights)]}


def _allowed_pairs(s_ids, t_ids):
    """Every arc the bipartition permits: no T-to-S arcs, no loops."""
    allowed = []
    for u in s_ids:
        allowed += [(u, v) for v in s_ids if v != u]
        allowed += [(u, v) for v in t_ids]
    for u in t_ids:
        allowed += [(u, v) for v in t_ids if v != u]
    return allowed


def _density_instance(rng, nS, nT, density, bmax, wmax, max_arcs, extra_cross):
    """Same construction as the acceptance corpus generator of the tests."""
    s_ids = ["s%d" % i for i in range(nS)]
    t_ids = ["t%d" % i for i in range(nT)]
    arcs = [a for a in _allowed_pairs(s_ids, t_ids) if rng.random() < density]
    for _ in range(extra_cross):
        arcs.append((rng.choice(s_ids), rng.choice(t_ids)))
    arcs = arcs[:max_arcs]
    b = {v: rng.randint(1, bmax) for v in s_ids + t_ids}
    weights = [rng.randint(0, wmax) for _ in arcs]
    return _document(s_ids, t_ids, arcs, b, weights)


def gen_solve_small(sub_seed: int) -> tuple[dict, str]:
    """Acceptance-size instance (|V| <= 6, m <= 14) with sides of 1-3 vertices."""
    rng = random.Random(sub_seed)
    nS = rng.randint(1, 3)
    nT = rng.randint(2 if nS == 1 else 1, 3)
    doc = _density_instance(rng, nS, nT, rng.uniform(0.3, 0.9), 3, 9, 14,
                            rng.randint(0, 2))
    return doc, "%dx%d" % (nS, nT)


SPARSE_SHAPE = (4, 10)        # |S|, |T|
SPARSE_ARCS = (60, 66)        # m drawn uniformly from this range
SPARSE_CROSS_SHARE = 0.06     # few S-to-T arcs, so reachability needs bicuts


def gen_solve_sparse(sub_seed: int) -> tuple[dict, str]:
    """b = 1, m in 60..66, few cross arcs: most optima need bicut rows."""
    rng = random.Random(sub_seed)
    nS, nT = SPARSE_SHAPE
    s_ids = ["s%d" % i for i in range(nS)]
    t_ids = ["t%d" % i for i in range(nT)]
    cross = [(u, v) for u in s_ids for v in t_ids]
    rest = [a for a in _allowed_pairs(s_ids, t_ids) if a[0] not in s_ids
            or a[1] not in t_ids]
    m = rng.randint(*SPARSE_ARCS)
    n_cross = max(nS, round(m * SPARSE_CROSS_SHARE))
    arcs = rng.sample(cross, n_cross) + rng.sample(rest, m - n_cross)
    b = {v: 1 for v in s_ids + t_ids}
    weights = [rng.randint(0, 50) for _ in arcs]
    return _document(s_ids, t_ids, arcs, b, weights), "m%d" % m


def gen_pack(sub_seed: int) -> tuple[dict, str]:
    """Packing instance with b = 1..2, |V| <= 7, m <= 26 (pools keep k >= 2)."""
    rng = random.Random(sub_seed)
    nS = rng.randint(1, 4)
    nT = rng.randint(1, 7 - nS)
    doc = _density_instance(rng, nS, nT, rng.uniform(0.5, 0.9), 2, 9, 26,
                            rng.randint(0, 4))
    return doc, "%dx%d" % (nS, nT)


def instance_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Workload table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # CLI subcommand run on every instance
    generator: Callable[[int], tuple[dict, str]]  # sub-seed -> (document, kind)
    sample_size: int      # instances per run, drawn from the pool
    pass_s: float         # nominal command seconds of one pass over the sample


# ``pass_s`` is the recorded cost of one pass, the summed pool ``cost_s`` of
# a sample (it varies by under 4 % between seeds), to half a second; a run
# makes ``round(--seconds / pass_s)`` passes (``run.passes_for``).  ``pack``
# samples 300 rather than 400 instances: its tail percentile then falls
# where the costs lie denser (the 8th slowest succeeding instance, not the
# 6th); in six-run sets that cut the tail's spread from 0.17 to 0.11.
WORKLOADS = {
    "solve-small": Workload("solve-small", "solve", gen_solve_small, 300, 11.0),
    "solve-sparse": Workload("solve-sparse", "solve", gen_solve_sparse, 40, 11.5),
    "pack": Workload("pack", "pack", gen_pack, 300, 6.0),
}


def pool_path(name: str) -> Path:
    return POOL_DIR / ("%s.json" % name.replace("-", "_"))


def load_pool(name: str) -> list[dict]:
    with open(pool_path(name), "r", encoding="utf-8") as fh:
        return json.load(fh)["entries"]


def stratified_sample(pool: list[dict], size: int, seed: int) -> list[dict]:
    """``size`` entries, each stratum at its pool share, in a seeded order.

    Stratum quotas use largest remainders, so they depend only on the pool
    and ``size``.  Inside a stratum the entries are ranked by ``cost_s`` and
    cut into ``quota`` runs of neighbours; the seed picks one entry from
    each run, and the order they all run in.  The sample thus matches the
    pool's cost distribution quantile by quantile, so the latency
    percentiles vary little from seed to seed.
    """
    rng = random.Random(seed)
    strata: dict[str, list[dict]] = {}
    for entry in pool:
        strata.setdefault(entry["stratum"], []).append(entry)
    labels = sorted(strata)
    exact = {s: size * len(strata[s]) / len(pool) for s in labels}
    quota = {s: int(exact[s]) for s in labels}
    by_remainder = sorted(labels, key=lambda s: (-(exact[s] - quota[s]), s))
    for s in by_remainder[:size - sum(quota.values())]:
        quota[s] += 1
    chosen = []
    for s in labels:
        ranked = sorted(strata[s], key=lambda e: (e["cost_s"], e["seed"]))
        q = min(quota[s], len(ranked))
        for i in range(q):
            chosen.append(rng.choice(ranked[i * len(ranked) // q:
                                            (i + 1) * len(ranked) // q]))
    rng.shuffle(chosen)
    return chosen


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _check_arcs(instance, arcs, value) -> str | None:
    from bbibranch.bibranching import bibranching_report
    from bbibranch.rationals import rat_str

    m = instance.digraph.num_arcs()
    if not all(isinstance(a, int) and 0 <= a < m for a in arcs):
        return "arc index out of range"
    report = bibranching_report(instance, arcs)
    bad = sorted(c for c, entry in report.items() if not entry["ok"])
    if bad:
        return "arc set fails %s" % ",".join(bad)
    if rat_str(instance.weight_of(arcs)) != value:
        return "arc weights sum to %s, report says %s" % (
            rat_str(instance.weight_of(arcs)), value)
    return None


def check_solve(instance, reference: dict, report: dict) -> str | None:
    """None when the solve report is right, else what is wrong with it."""
    result = report.get("result", {})
    if report.get("status") != "ok":
        return "status %r" % report.get("status")
    if result.get("value") != reference["value"]:
        return "value %s, reference %s" % (result.get("value"), reference["value"])
    return _check_arcs(instance, result.get("arcs", []), result["value"])


def check_pack(instance, reference: dict, report: dict) -> str | None:
    """None when the packing report is a verified maximum packing."""
    from bbibranch.packing import verify_packing

    result = report.get("result", {})
    if report.get("status") != "ok":
        return "status %r" % report.get("status")
    classes = result.get("classes", [])
    if result.get("k") != reference["k"] or len(classes) != reference["k"]:
        return "k %s with %d classes, reference %d" % (
            result.get("k"), len(classes), reference["k"])
    m = instance.digraph.num_arcs()
    if not all(isinstance(a, int) and 0 <= a < m for c in classes for a in c):
        return "arc index out of range"
    if not verify_packing(instance, classes):
        return "classes are not disjoint b-bibranchings"
    return None


CHECKS = {"solve": check_solve, "pack": check_pack}
